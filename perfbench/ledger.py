"""Outside-in tracing for the traced pass: spans, spawn counts, GC pauses.

The program's files are not changed: :func:`install` replaces a handful of
public methods with wrappers that open a span around the original call,
counts ``Environment.process`` calls by process-name family, and hooks
``gc.callbacks``.  Spans live in memory as ``[name, start, end, parent,
epoch, cpu]`` rows and are written out once, when the process ends.

A layer's self time is its spans' duration minus the part covered by their
child spans (GC pauses are recorded as child spans, so self time excludes
them).
"""

from __future__ import annotations

import functools
import gc
import json
import pickle
import re
import time
from collections import Counter, defaultdict
from pathlib import Path
from typing import Callable, Optional

#: Process-name families, first match wins; anything else is ``other``.
SPAWN_FAMILIES = (
    ("transit", re.compile(r"^(im|email|sms)-(deliver|dup)-")),
    ("bridge", re.compile(r"^bridge-")),
    ("tenant_loops", re.compile(r"^(user\d|mab-user\d|stabilize-)")),
    ("watchdog", re.compile(r"^(mdc-|monkey-|mab-nightly|heartbeat-)")),
    ("source", re.compile(r"-(re)?deliver-|^e\d+-|^(portal|storm\d+)-")),
)

#: Span names of the timed region: GC pauses count only beneath these.
TIMED_ROOTS = ("bench.timed", "shard.worker_epoch")


def spawn_family(name: Optional[str]) -> str:
    text = name or ""
    for family, pattern in SPAWN_FAMILIES:
        if pattern.search(text):
            return family
    return "other"


class Recorder:
    """Spans and counters of one process."""

    def __init__(self):
        self.reset()

    def reset(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.spawns: Counter = Counter()
        self.worlds: dict[int, object] = {}
        self.pickled_bytes = 0
        self._gc_started: Optional[float] = None

    # -- spans ---------------------------------------------------------

    def open(self, name: str, epoch=None) -> int:
        parent = self.stack[-1] if self.stack else -1
        self.spans.append(
            [name, time.perf_counter(), None, parent, epoch, time.process_time()]
        )
        index = len(self.spans) - 1
        self.stack.append(index)
        return index

    def close(self, index: int) -> None:
        span = self.spans[index]
        span[2] = time.perf_counter()
        span[5] = time.process_time() - span[5]
        self.stack.pop()

    def on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_started = time.perf_counter()
            return
        if self._gc_started is None:
            return
        parent = self.stack[-1] if self.stack else -1
        self.spans.append(
            [f"gc.gen{info['generation']}", self._gc_started, time.perf_counter(),
             parent, None, 0.0]
        )
        self._gc_started = None

    # -- wrapping ------------------------------------------------------

    def wrap(
        self,
        owner,
        attr: str,
        span_name: str,
        epoch_of: Optional[Callable] = None,
    ) -> None:
        """Open ``span_name`` around every call of ``owner.attr``;
        ``epoch_of(args)`` tags the span with its epoch."""
        original = getattr(owner, attr)
        recorder = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            index = recorder.open(
                span_name, epoch_of(args) if epoch_of is not None else None
            )
            try:
                return original(*args, **kwargs)
            finally:
                recorder.close(index)

        setattr(owner, attr, wrapper)

    # -- reduction -----------------------------------------------------

    def _under_timed_root(self, index: int) -> bool:
        while index >= 0:
            span = self.spans[index]
            if span[0] in TIMED_ROOTS:
                return True
            index = span[3]
        return False

    def summary(self) -> dict:
        """Per-name totals, epoch timings and counters (JSON-ready)."""
        totals: dict[str, dict] = defaultdict(
            lambda: {"count": 0, "wall_s": 0.0, "self_s": 0.0, "cpu_s": 0.0,
                     "self_cpu_s": 0.0}
        )
        child_wall = [0.0] * len(self.spans)
        child_cpu = [0.0] * len(self.spans)
        for name, start, end, parent, _, cpu in self.spans:
            if end is not None and parent >= 0:
                child_wall[parent] += end - start
                child_cpu[parent] += cpu
        gc_pause = 0.0
        gc_collections: Counter = Counter()
        epochs: dict[str, list] = defaultdict(list)
        for index, (name, start, end, parent, epoch, cpu) in enumerate(
            self.spans
        ):
            if end is None:
                continue
            row = totals[name]
            row["count"] += 1
            row["wall_s"] += end - start
            row["self_s"] += end - start - child_wall[index]
            row["cpu_s"] += cpu
            row["self_cpu_s"] += cpu - child_cpu[index]
            if name.startswith("gc.") and self._under_timed_root(index):
                gc_pause += end - start
                gc_collections[name[len("gc."):]] += 1
            if epoch is not None:
                epochs[name].append([epoch, end - start])
        return {
            "spans": dict(totals),
            "epochs": dict(epochs),
            "spawns": dict(self.spawns),
            "gc_pause_s": gc_pause,
            "gc_collections": dict(gc_collections),
            "pickled_bytes": self.pickled_bytes,
            "channels": channel_stats(self.worlds.values()),
            "user_duplicates": sum(
                user.duplicates_discarded()
                for world in self.worlds.values()
                for user in world.users.values()
            ),
        }

    def write(self, path: Path) -> dict:
        """Write every span and the summary; called once, at the end.
        Returns the summary."""
        summary = self.summary()
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "columns": ["name", "start", "end", "parent", "epoch",
                                "cpu"],
                    "spans": self.spans,
                    "summary": summary,
                },
                handle,
            )
        return summary


def channel_stats(worlds) -> dict:
    """Summed ``ChannelStats`` of every world, per channel."""
    merged = {name: {"submitted": 0, "delivered": 0}
              for name in ("im", "email", "sms")}
    for world in worlds:
        for name in merged:
            stats = getattr(world, name).stats
            merged[name]["submitted"] += stats.submitted
            merged[name]["delivered"] += stats.delivered
    return merged


def install(recorder: Recorder, worker_dir: Optional[Path] = None) -> None:
    """Wrap every layer boundary the ledger reads.

    With ``worker_dir``, forked shard workers reset the recorder they
    inherit and write their own ledger to ``worker_dir/shard-<n>.json``
    when they exit.
    """
    from repro.core import shard as shard_module
    from repro.core.farm import BuddyFarm
    from repro.core.shard import ShardedFarm, ShardWorker
    from repro.sim.kernel import Environment
    from repro.sources.base import AlertSource
    from repro.testkit import oracle as oracle_module
    from repro.world import BuddyDeployment, SimbaWorld

    rec = recorder
    wrap = rec.wrap
    wrap(ShardedFarm, "start", "shard.start")
    wrap(ShardedFarm, "run_epoch", "shard.run_epoch",
         epoch_of=lambda args: args[0].now + args[0].epoch)
    wrap(ShardedFarm, "merged_rollup", "shard.merged_rollup")
    wrap(ShardedFarm, "tenant_fingerprints", "shard.tenant_fingerprints")
    wrap(BuddyFarm, "add_user", "farm.add_user")
    wrap(BuddyDeployment, "launch", "farm.launch")
    wrap(AlertSource, "emit_to", "sources.emit_to")
    wrap(oracle_module.DeliveryOracle, "check", "oracle.check")

    world_run = SimbaWorld.run

    @functools.wraps(world_run)
    def run(world, until=None):
        rec.worlds[id(world)] = world
        index = rec.open("sim.run")
        try:
            return world_run(world, until)
        finally:
            rec.close(index)

    SimbaWorld.run = run

    worker_epoch = ShardWorker.run_epoch

    @functools.wraps(worker_epoch)
    def run_epoch(worker, until, inbound):
        index = rec.open("shard.worker_epoch", epoch=until)
        try:
            outbound = worker_epoch(worker, until, inbound)
        finally:
            rec.close(index)
        if worker_dir is not None:
            # The pipe carries the command in and the reply out.
            rec.pickled_bytes += len(pickle.dumps(("epoch", until, inbound)))
            rec.pickled_bytes += len(
                pickle.dumps(("ok", [tuple(e) for e in outbound]))
            )
        return outbound

    ShardWorker.run_epoch = run_epoch

    spawn = Environment.process

    @functools.wraps(spawn)
    def process(env, generator, name=None):
        rec.spawns[spawn_family(name)] += 1
        return spawn(env, generator, name)

    Environment.process = process
    gc.callbacks.append(rec.on_gc)

    if worker_dir is not None:
        worker_main = shard_module.shard_worker_main

        @functools.wraps(worker_main)
        def traced_worker_main(conn, spec):
            rec.reset()
            try:
                worker_main(conn, spec)
            finally:
                rec.write(worker_dir / f"shard-{spec.shard}.json")

        shard_module.shard_worker_main = traced_worker_main


def _merged_spans(ledgers: list[dict]) -> dict:
    merged: dict[str, Counter] = defaultdict(Counter)
    for ledger in ledgers:
        for name, row in ledger["spans"].items():
            merged[name].update(row)
    return merged


def self_time_lines(traced: dict) -> list[str]:
    """Human-readable span totals of a traced sample, all processes."""
    spans = _merged_spans([traced["ledger"]] + traced["worker_ledgers"])
    lines = [f"  {'span':<28} {'count':>8} {'wall_s':>10} {'self_s':>10}"]
    for name, row in sorted(spans.items(), key=lambda kv: -kv[1]["self_s"]):
        lines.append(f"  {name:<28} {row['count']:>8} {row['wall_s']:>10.4f}"
                     f" {row['self_s']:>10.4f}")
    return lines


def per_layer_metrics(
    workload: str,
    plain: list[dict],
    traced: dict,
    tracesink: Optional[dict],
    invariance_check_s: float,
) -> dict:
    """The per-layer ledger of one traced sample (see README.md for which
    end-to-end metric each should move, on which workload)."""
    import statistics

    coordinator = traced["ledger"]
    workers = traced["worker_ledgers"]
    ledgers = [coordinator] + workers
    spans = _merged_spans(ledgers)
    delivered = traced["delivered"]
    offered = traced["offered"]
    plain_wall = statistics.median(s["wall_s"] for s in plain)
    metrics: dict[str, dict] = {}

    def put(name: str, value: float, unit: str) -> None:
        metrics[name] = {"value": value, "unit": unit}

    spawns: Counter = Counter()
    for ledger in ledgers:
        spawns.update(ledger["spawns"])
    put("sim.spawns_per_alert", sum(spawns.values()) / delivered,
        "count/alert")
    for family in [f for f, _ in SPAWN_FAMILIES] + ["other"]:
        put(f"sim.spawns_per_alert.{family}", spawns[family] / delivered,
            "count/alert")
    put("sim.run_self_s", spans["sim.run"]["self_s"], "s")

    added = spans["farm.add_user"]["count"]
    materialize_s = (
        spans["farm.add_user"]["wall_s"] + spans["farm.launch"]["wall_s"]
    )
    put("farm.materialize_count", added, "count")
    put("farm.materialize_s", materialize_s, "s")
    put("farm.materialize_ms_per_tenant",
        1000 * materialize_s / added if added else 0.0, "ms")
    # Memory grown over the phase that built the tenants, per tenant.
    per_tenant = []
    for s in plain:
        if s["tenants_in_run"]:
            per_tenant.append(
                (s["peak_rss_kb"] - s["rss_setup_kb"]) / s["tenants_in_run"]
            )
        else:
            per_tenant.append(
                (s["rss_setup_kb"] - s["rss_start_kb"]) / s["tenants_in_setup"]
            )
    put("mem.rss_kb_per_tenant", statistics.median(per_tenant), "KB")

    gc_pause = sum(ledger["gc_pause_s"] for ledger in ledgers)
    busy_processes = max(1, len(workers))
    put("gc.pause_s", gc_pause, "s")
    put("gc.pause_share", gc_pause / (traced["wall_s"] * busy_processes),
        "ratio")
    for generation in range(3):
        put(f"gc.gen{generation}_collections",
            sum(ledger["gc_collections"].get(f"gen{generation}", 0)
                for ledger in ledgers),
            "count")

    epoch_walls = dict(
        (epoch, wall)
        for epoch, wall in coordinator["epochs"].get("shard.run_epoch", [])
    )
    compute = [
        dict(ledger["epochs"].get("shard.worker_epoch", []))
        for ledger in (workers or [coordinator])
    ]
    slowest = mean = idle = 0.0
    for epoch, wall in epoch_walls.items():
        times = [c.get(epoch, 0.0) for c in compute]
        slowest += max(times)
        mean += sum(times) / len(times)
        idle += wall - max(times)
    put("shard.epoch_wall_p50_s",
        statistics.median(epoch_walls.values()) if epoch_walls else 0.0, "s")
    put("shard.epoch_wall_max_s", max(epoch_walls.values(), default=0.0), "s")
    put("shard.worker_epoch_s", sum(sum(c.values()) for c in compute), "s")
    put("shard.compute_imbalance", slowest / mean if mean else 0.0, "ratio")
    put("shard.coordinator_self_s",
        coordinator["spans"].get("shard.run_epoch", {}).get("self_cpu_s", 0.0),
        "s")
    total_epoch_wall = sum(epoch_walls.values())
    put("shard.barrier_idle_share",
        idle / total_epoch_wall if total_epoch_wall else 0.0, "ratio")
    envelopes_in = traced.get("envelopes_in", 0)
    put("shard.envelopes", envelopes_in, "count")
    put("shard.envelope_bytes",
        sum(ledger["pickled_bytes"] for ledger in ledgers), "bytes")
    put("shard.bridge_admit_ratio",
        traced["bridge_admitted"] / envelopes_in if envelopes_in else 0.0,
        "ratio")

    put("sources.emit_to_count", spans["sources.emit_to"]["count"], "count")
    put("sources.emit_to_s", spans["sources.emit_to"]["wall_s"], "s")

    channels: dict[str, Counter] = defaultdict(Counter)
    for ledger in ledgers:
        for name, stats in ledger["channels"].items():
            channels[name].update(stats)
    for name in ("im", "email", "sms"):
        stats = channels[name]
        put(f"net.{name}.submitted_per_alert", stats["submitted"] / delivered,
            "count/alert")
        put(f"net.{name}.delivery_ratio",
            stats["delivered"] / stats["submitted"]
            if stats["submitted"] else 0.0,
            "ratio")

    storm = traced.get("storm", {})
    for name in ("dedup_suppressed", "coalesced", "shed", "rate_limited",
                 "dead_letters"):
        put(f"admission.{name}", storm.get(name, 0) / offered, "ratio")
    put("user.duplicates",
        sum(ledger["user_duplicates"] for ledger in ledgers), "count")

    put("oracle.check_s",
        spans["oracle.check"]["wall_s"] + invariance_check_s, "s")
    put("obs.tracesink_on_ratio",
        tracesink["wall_s"] / plain_wall if tracesink else 0.0, "ratio")
    put("bench.trace_overhead_s", traced["wall_s"] - plain_wall, "s")
    return metrics
