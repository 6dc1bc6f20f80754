"""No finished process is left to the cyclic collector.

``Environment.run`` freezes the heap that exists when a drain starts, so
objects that survive a drain are only rescanned by the collections the
next drain triggers if they are freed first.  That is safe only while a
finished :class:`~repro.sim.process.Process` is freed by reference
counting: a process that cycled back to itself would stay frozen from one
drain to the next and show up as memory growth instead of GC time.  These
tests drain real worlds with automatic collection off, then run one
collection under ``gc.DEBUG_SAVEALL`` (which keeps what it finds in
``gc.garbage``) while the world is still referenced.
"""

import gc

import pytest

from repro.core.shard import ShardSpec, ShardWorker
from repro.experiments.sharded import (
    E13_PROFILE,
    E13_WORKLOAD,
    e13_world_config,
)
from repro.experiments.storm import run_storm_comparison
from repro.sim.process import Process
from repro.world import SimbaWorld


@pytest.fixture
def cyclic_processes():
    """Call the returned function to list the processes a full collection
    finds unreachable right now."""
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)

    def collect():
        gc.collect()
        found = [obj for obj in gc.garbage if isinstance(obj, Process)]
        gc.garbage.clear()
        return found

    yield collect
    gc.set_debug(0)
    gc.garbage.clear()
    gc.collect()
    if enabled:
        gc.enable()


def test_e12_storm_leaves_no_finished_process_cycle(
    cyclic_processes, monkeypatch
):
    drained = []
    world_run = SimbaWorld.run

    def run_then_collect(world, until=None):
        world_run(world, until)
        drained.append(cyclic_processes())

    monkeypatch.setattr(SimbaWorld, "run", run_then_collect)
    result = run_storm_comparison(
        seed=0, n_users=3, variants=("hardened",), jobs=1
    )
    assert result.variant("hardened").delivered > 0
    [found] = drained
    # The IM outage strands a few live IM client loops parked on a store
    # nothing references any more; those are live processes, not
    # finished ones, and are outside this invariant.
    assert [proc for proc in found if not proc.is_alive] == []


def test_e13_shard_epochs_leave_no_process_cycle(cyclic_processes):
    worker = ShardWorker(
        ShardSpec(
            shard=0, shards=1, seed=7, population=48,
            workload=E13_WORKLOAD,
            workload_kwargs={
                "duration": 120.0,
                "active_permille": 300,
                "alerts_per_sender": 2,
                "fanout_width": 2,
            },
            world_config=e13_world_config(7), profile=E13_PROFILE,
        )
    )
    # The second epoch delivers the first one's bridge envelopes.
    outbound = worker.run_epoch(60.0, [])
    worker.run_epoch(120.0, [tuple(envelope) for envelope in outbound])
    assert worker.load.tenants > 0
    assert cyclic_processes() == []
