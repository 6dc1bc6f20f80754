"""The benchmark's workloads, driven through the library's public entry points.

Each ``run_*`` function builds its workload (set-up), runs the timed region,
reads the outputs back and returns one flat dict of raw measurements plus
the list of correctness gates that failed.  Host times are wall seconds
from ``time.perf_counter``; latencies are simulated seconds.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import multiprocessing
import os
import time
from typing import Optional

import numpy as np

from repro.core.shard import ShardedFarm, ShardWorker
from repro.experiments import storm as storm_module
from repro.experiments.sharded import (
    E13_PROFILE,
    E13_WORKLOAD,
    build_e13_workload,
    e13_world_config,
)
from repro.obs import TraceSink
from repro.testkit.generator import StormTrafficGenerator
from repro.world import SimbaWorld

#: E13 input size (ROADMAP's headline workload).
E13_USERS = 20_000
E13_DURATION = 600.0
E13_EPOCH = 60.0
E13_DRAIN = 240.0
#: The merged journal fingerprint of E13 at seed 0, any shard layout.
E13_PIN_SEED0 = (
    "f923003363a3b15452cb3e5518955311397ac55a693eaadfbae51e787ed7f6d2"
)
#: Process shards for ``e13_sharded``: one per core, capped so a large
#: host does not fork dozens of full worlds.
MAX_SHARDS = 8

STORM_TENANTS = 100
STORM_RATE_SCALE = 30.0

CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


# -- host probes (Linux /proc) ----------------------------------------


def cores() -> int:
    return len(os.sched_getaffinity(0))


def e13_layout(workload: str) -> tuple[int, bool]:
    """(shards, inline) for an E13 workload."""
    if workload == "e13_cold":
        return 1, True
    return min(cores(), MAX_SHARDS), False


def status_kb(pid: int, field: str) -> int:
    """``VmRSS``/``VmHWM`` of a live process, in KiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith(field + ":"):
                return int(line.split()[1])
    raise KeyError(field)


def cpu_s(pid: int) -> float:
    """User plus system CPU seconds of a live process."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / CLOCK_TICKS


def percentiles(samples: list[float]) -> dict:
    data = np.asarray(samples, dtype=float)
    return {
        "delivery_p50_s": float(np.percentile(data, 50)),
        "delivery_p99_s": float(np.percentile(data, 99)),
        "delivery_samples": int(data.size),
    }


# -- vCPU contention --------------------------------------------------------
#
# The reference host's vCPUs switch between a fast and a slow state (about
# 1.7x slower, from another guest on the same physical core) every few
# seconds to tens of seconds, each vCPU on its own.  A single-process run of
# 10 s therefore reads 8 s or 14 s depending on its share of slow time, and
# that share drifts from one run to the next.  ``HostMeter`` times a fixed
# piece of interpreter work (the probe) every ``PROBE_EVERY_S`` of the timed
# region and scales each interval between two probes by
# ``REFERENCE_PROBE_S`` over their mean: the time the interval would have
# taken on an uncontended vCPU.  Per 0.2 s slice of ``storm_outage`` the
# log wall time follows the log probe time with slope 1.1 and r = 0.85.
# The probe stays in cache, so memory-bound work (long gen-2 collections
# over E13's heap) follows it less closely.

#: The probe's time on an uncontended vCPU of the reference host (2-core
#: Intel Xeon VM, Python 3.11.7).  Adjusted times are in seconds of that
#: host; on another host the constant only scales them.
REFERENCE_PROBE_S = 0.0045
#: Least wall time between two probes of the timed region.
PROBE_EVERY_S = 0.15
#: Simulated-time slices the storm's one ``SimbaWorld.run`` is split into,
#: so the meter can probe inside it (the journals do not change).
STORM_SLICES = 400
#: The same for each 60 s epoch of an E13 shard.
EPOCH_SLICES = 30


def _probe_step(x: int) -> int:
    return (x * 7 + 3) % 1009


def probe_s() -> float:
    """Wall time of a fixed piece of interpreter work, about 5 ms.  It
    allocates no container, so it does not move the GC's thresholds."""
    began = time.perf_counter()
    x = 1
    for _ in range(40_000):
        x = _probe_step(x)
    return time.perf_counter() - began


class HostMeter:
    """Wall and CPU seconds of a timed region, raw and adjusted for vCPU
    contention (see above).  Probe time is in neither."""

    def __init__(self) -> None:
        self.wall_s = self.cpu_s = 0.0
        self.adjusted_wall_s = self.adjusted_cpu_s = 0.0
        self._probe = probe_s()
        self._wall = time.perf_counter()
        self._cpu = time.process_time()

    def mark(self, final: bool = False) -> None:
        """End an interval with a probe, once ``PROBE_EVERY_S`` has passed
        (always when ``final``)."""
        wall = time.perf_counter()
        if not final and wall - self._wall < PROBE_EVERY_S:
            return
        cpu = time.process_time()
        probe = probe_s()
        scale = REFERENCE_PROBE_S * 2 / (self._probe + probe)
        self._probe = probe
        self.wall_s += wall - self._wall
        self.cpu_s += cpu - self._cpu
        self.adjusted_wall_s += (wall - self._wall) * scale
        self.adjusted_cpu_s += (cpu - self._cpu) * scale
        self._wall = time.perf_counter()
        self._cpu = time.process_time()

    def times(self) -> dict:
        return {
            "wall_s": self.wall_s,
            "cpu_s": self.cpu_s,
            "adjusted_wall_s": self.adjusted_wall_s,
            "adjusted_cpu_s": self.adjusted_cpu_s,
        }


def run_sliced(world_run, world, until: float, slices: int,
               meter: HostMeter) -> None:
    """``world_run(world, until)`` in ``slices`` equal steps of simulated
    time, with ``meter.mark()`` after each.  The kernel stops at a time
    without scheduling anything, so the journals do not change."""
    start = world.env.now
    for k in range(1, slices + 1):
        world_run(world, start + (until - start) * k / slices)
        meter.mark()


#: Per shard and epoch: elapsed wall, metered wall, adjusted wall, and the
#: same three for CPU (elapsed includes the probes).
EPOCH_FIELDS = 6


def meter_shard_epochs(shards: int, epochs: int):
    """Run every ``ShardWorker.run_epoch`` in ``EPOCH_SLICES`` slices under
    its own ``HostMeter``, in the coordinator or in forked workers alike.

    Returns the shared per-(shard, epoch) record array and the original
    method, which the caller puts back.
    """
    slots = multiprocessing.RawArray("d", shards * epochs * EPOCH_FIELDS)
    worker_epoch = ShardWorker.run_epoch

    def run_epoch(worker, until, inbound):
        world = worker.world
        world_run = type(world).run
        wall, cpu = time.perf_counter(), time.process_time()
        meter = HostMeter()
        world.run = lambda until=None: run_sliced(
            world_run, world, until, EPOCH_SLICES, meter
        )
        try:
            outbound = worker_epoch(worker, until, inbound)
        finally:
            del world.run
        meter.mark(final=True)
        base = (worker.spec.shard * epochs + round(until / E13_EPOCH) - 1)
        slots[base * EPOCH_FIELDS:(base + 1) * EPOCH_FIELDS] = [
            time.perf_counter() - wall, meter.wall_s, meter.adjusted_wall_s,
            time.process_time() - cpu, meter.cpu_s, meter.adjusted_cpu_s,
        ]
        return outbound

    ShardWorker.run_epoch = run_epoch
    return slots, worker_epoch


def probe_free_times(wall_s: float, cpu_s: float, slots,
                     shards: int) -> dict:
    """Raw and adjusted wall and CPU seconds of a metered E13 run.

    CPU: every shard epoch's elapsed CPU is replaced by its metered or
    adjusted CPU.  Wall: the slowest shard sets an epoch's wall, so each
    epoch's largest elapsed wall is replaced by its largest metered or
    adjusted wall; the coordinator's own work and the merged rollup stay
    raw.
    """
    records = np.asarray(slots).reshape(shards, -1, EPOCH_FIELDS)
    elapsed, raw, adjusted = (records[:, :, k].max(axis=0) for k in range(3))
    cpu = records[:, :, 3:].sum(axis=(0, 1))
    return {
        "wall_s": wall_s - float((elapsed - raw).sum()),
        "adjusted_wall_s": wall_s - float((elapsed - adjusted).sum()),
        "cpu_s": cpu_s - float(cpu[0] - cpu[1]),
        "adjusted_cpu_s": cpu_s - float(cpu[0] - cpu[2]),
    }


def _timed(recorder):
    return recorder.open("bench.timed") if recorder is not None else None


def _untimed(recorder, index) -> None:
    if recorder is not None:
        recorder.close(index)


# -- E13 ------------------------------------------------------------------


def build_e13_with_tracesink(runtime, **kwargs) -> None:
    """E13 shard builder that first installs a ``repro.obs`` TraceSink."""
    TraceSink().install(runtime.world.env)
    build_e13_workload(runtime, **kwargs)


def run_e13(
    seed: int,
    shards: int,
    inline: bool,
    workload_path: Optional[str] = None,
    recorder=None,
    setup_only: bool = False,
) -> dict:
    """E13 on one shard layout; the timed region is ``run`` plus the merged
    rollup, as in ``run_sharded_throughput``.  Untraced, every shard epoch
    is metered (``meter_shard_epochs``).  ``setup_only`` stops after
    set-up and returns only ``setup_s``."""
    epochs = math.ceil((E13_DURATION + E13_DRAIN) / E13_EPOCH)
    if recorder is None:
        slots, worker_epoch = meter_shard_epochs(shards, epochs)
    rss_start = status_kb(os.getpid(), "VmRSS")
    started = time.perf_counter()
    farm = ShardedFarm(
        shards=shards,
        seed=seed,
        population=E13_USERS,
        workload=workload_path or E13_WORKLOAD,
        workload_kwargs={"duration": E13_DURATION},
        epoch=E13_EPOCH,
        world_config=e13_world_config(seed),
        profile=E13_PROFILE,
        inline=inline,
    )
    farm.start()
    try:
        setup_s = time.perf_counter() - started
        if setup_only:
            return {"setup_s": setup_s, "gates_failed": []}
        workers = [child.pid for child in multiprocessing.active_children()]
        pids = [os.getpid()] + workers
        rss_setup = sum(status_kb(pid, "VmRSS") for pid in pids)
        cpu_before = time.process_time() + sum(cpu_s(p) for p in workers)
        timed = _timed(recorder)
        began = time.perf_counter()
        farm.run(until=E13_DURATION + E13_DRAIN)
        rollup = farm.merged_rollup()
        wall_s = time.perf_counter() - began
        _untimed(recorder, timed)
        cpu_after = time.process_time() + sum(cpu_s(p) for p in workers)
        fingerprint = farm.merged_fingerprint()
        peak_kb = [status_kb(pid, "VmHWM") for pid in pids]
    finally:
        farm.stop()
        if recorder is None:
            ShardWorker.run_epoch = worker_epoch
    times = {"wall_s": wall_s, "cpu_s": cpu_after - cpu_before}
    if recorder is None:
        times = probe_free_times(**times, slots=slots, shards=shards)

    envelopes = sum(load.envelopes_out for load in rollup.loads)
    envelopes_in = sum(load.envelopes_in for load in rollup.loads)
    audit = rollup.bridge_audit
    admitted = envelopes_in - audit.get("corrupt_rejected", 0) - audit.get(
        "duplicate_dropped", 0
    )
    delivered = rollup.delivered
    gates = []
    if rollup.undelivered_envelopes:
        gates.append(f"undelivered_envelopes={rollup.undelivered_envelopes}")
    if delivered != envelopes or envelopes == 0:
        gates.append(f"delivered {delivered} != envelopes {envelopes}")
    if seed == 0 and fingerprint != E13_PIN_SEED0:
        gates.append(f"seed-0 fingerprint {fingerprint[:16]} != pin")
    return {
        "shards": shards,
        "inline": inline,
        "setup_s": setup_s,
        **times,
        "peak_rss_kb": sum(peak_kb),
        "peak_rss_kb_per_process": peak_kb,
        "rss_start_kb": rss_start,
        "rss_setup_kb": rss_setup,
        "offered": envelopes,
        "delivered": delivered,
        "accounted": min(delivered, envelopes),
        "silent_losses": max(0, envelopes - delivered),
        "tenants": rollup.tenants,
        "tenants_in_setup": 0,
        "tenants_in_run": rollup.tenants,
        "envelopes_in": envelopes_in,
        "bridge_admitted": admitted,
        "counts": {key: int(value) for key, value in rollup.counts.items()},
        "receipts": rollup.receipts,
        "fingerprint": fingerprint,
        **percentiles(rollup.latencies),
        "gates_failed": gates,
    }


# -- storm with an outage ------------------------------------------------


class EvenBurstStorm(StormTrafficGenerator):
    """``StormTrafficGenerator`` with the bursts at fixed, even offsets.

    The library draws each burst's start uniformly, so from seed to seed
    the two bursts may overlap each other or the outage, which changes the
    IM/email mix and the run's cost by up to 1.6x.  Fixed offsets keep one
    shape for every seed: the outage covers the first burst, the second
    burst runs on healthy IM.  The start draws are still made, so arrivals,
    severities, recipients and duplicates come from the same stream
    positions as before.
    """

    def burst_windows(self):
        drawn = super().burst_windows()
        latest = max(
            self.start, self.start + self.duration - self.config.burst_duration
        )
        span = latest - self.start
        return [
            dataclasses.replace(
                window, start=self.start + span * (k + 1) / (len(drawn) + 1)
            )
            for k, window in enumerate(drawn)
        ]


STORM = dataclasses.replace(
    storm_module.E12_STORM,
    base_rate=storm_module.E12_STORM.base_rate * STORM_RATE_SCALE,
    burst_rate=storm_module.E12_STORM.burst_rate * STORM_RATE_SCALE,
)


class _SetupDone(Exception):
    """Raised at the start of the timed region of a set-up-only sample."""


def run_storm(seed: int, recorder=None, setup_only: bool = False) -> dict:
    """E12's hardened storm variant at 100 tenants and 30x the rates.

    Everything before ``SimbaWorld.run`` (traffic generation, world, the
    100 tenants, watchdogs, fault schedule) is set-up; the timed region is
    the one ``world.run``, run untraced in ``STORM_SLICES`` slices under a
    ``HostMeter``; the oracle audit after it is not timed.
    ``setup_only`` stops at ``SimbaWorld.run`` and returns only ``setup_s``.
    """
    storm_module.StormTrafficGenerator = EvenBurstStorm
    marks: dict = {}
    world_run = SimbaWorld.run

    def run(world, until=None):
        if setup_only:
            marks["began"] = time.perf_counter()
            raise _SetupDone
        marks["world"] = world
        marks["rss_setup"] = status_kb(os.getpid(), "VmRSS")
        timed = _timed(recorder)
        marks["began"] = time.perf_counter()
        try:
            if recorder is None:
                meter = HostMeter()
                run_sliced(world_run, world, until, STORM_SLICES, meter)
                meter.mark(final=True)
                marks["times"] = meter.times()
            else:
                cpu = time.process_time()
                world_run(world, until)
                marks["times"] = {
                    "wall_s": time.perf_counter() - marks["began"],
                    "cpu_s": time.process_time() - cpu,
                }
        finally:
            _untimed(recorder, timed)

    SimbaWorld.run = run
    rss_start = status_kb(os.getpid(), "VmRSS")
    started = time.perf_counter()
    try:
        result = storm_module.run_storm_comparison(
            seed=seed,
            n_users=STORM_TENANTS,
            storm=STORM,
            variants=("hardened",),
            jobs=1,
        )
    except _SetupDone:
        return {"setup_s": marks["began"] - started, "gates_failed": []}
    finally:
        SimbaWorld.run = world_run
    peak_kb = status_kb(os.getpid(), "VmHWM")
    variant = result.variant("hardened")
    world = marks["world"]
    latencies = [
        receipt.latency
        for user in world.users.values()
        for receipt in user.receipts
        if not receipt.duplicate
    ]
    summary = dataclasses.asdict(variant)
    gates = [f"oracle: {v}" for v in variant.violations]
    if variant.unaccounted:
        gates.append(f"unaccounted={variant.unaccounted}")
    if variant.offered == 0 or variant.delivered == 0:
        gates.append("no traffic offered or delivered")
    if len(latencies) != variant.delivered:
        gates.append(
            f"{len(latencies)} first receipts != {variant.delivered} delivered"
        )
    return {
        "shards": 0,
        "inline": True,
        "setup_s": marks["began"] - started,
        **marks["times"],
        "peak_rss_kb": peak_kb,
        "peak_rss_kb_per_process": [peak_kb],
        "rss_start_kb": rss_start,
        "rss_setup_kb": marks["rss_setup"],
        "offered": variant.offered,
        "delivered": variant.delivered,
        "accounted": variant.offered - variant.unaccounted,
        "silent_losses": variant.unaccounted,
        "tenants": STORM_TENANTS,
        "tenants_in_setup": STORM_TENANTS,
        "tenants_in_run": 0,
        "storm": {
            key: summary[key]
            for key in ("offered", "delivered", "user_duplicates",
                        "deadline_misses", "shed", "coalesced",
                        "rate_limited", "dead_letters", "dedup_suppressed",
                        "unaccounted")
        },
        "fingerprint": hashlib.sha256(
            json.dumps(summary, sort_keys=True, default=repr).encode()
        ).hexdigest(),
        **percentiles(latencies),
        "gates_failed": gates,
    }
