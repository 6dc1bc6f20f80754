"""Benchmark runner: end-to-end metrics, or the per-layer ledger with --trace 1.

    python3 perfbench/run.py --workload e13_cold --seed 0 --seconds 30 --trace 0

Run from the root of a checkout.  Every sample runs in a fresh interpreter
(``sample.py``): first three set-up-only samples, then full samples until
``--seconds`` of sampling is used (at least one).  Each metric is the
median over the samples; ``setup_s`` also counts the set-up-only ones.
Wall and CPU times of the timed region are adjusted for vCPU contention
(``workloads.HostMeter``); the unadjusted ones are printed beside them.  Each
sample's outputs are checked (see ``workloads.py`` and :func:`run_gates`);
a sample that fails a check counts all its alerts as failed.  The last line
of standard output is one JSON object: ``correct``, ``attempted`` (offered
alerts over all samples), ``failed`` (silently lost alerts plus the alerts
of failed samples) and ``metrics``.

With ``--trace 1`` the runner makes one untraced sample, one traced sample
(``ledger.py`` wrappers installed) and, on ``e13_cold``, one sample with a
``repro.obs`` TraceSink, and reports the per-layer metrics instead.  Spans, per-run
records and the cross-layout fingerprint record go to ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"
WORKLOADS = ("e13_cold", "e13_sharded", "storm_outage")
#: A sample still running this many seconds into the run is stopped.
HARD_LIMIT_S = 170.0
#: Set-up-only samples per run, besides the set-up of every full sample.
SETUP_SAMPLES = 3

#: name, unit, value of one sample.  Host times of the timed region are
#: adjusted for vCPU contention (``workloads.HostMeter``).
END_TO_END = (
    ("alerts_per_s", "alerts/s",
     lambda s: s["delivered"] / s["adjusted_wall_s"]),
    ("setup_s", "s", lambda s: s["setup_s"]),
    ("cpu_s_per_kalert", "s",
     lambda s: s["adjusted_cpu_s"] * 1000 / s["delivered"]),
    ("peak_rss_mb", "MB", lambda s: s["peak_rss_kb"] / 1024),
    ("delivery_p50_s", "sim_s", lambda s: s["delivery_p50_s"]),
    ("delivery_p99_s", "sim_s", lambda s: s["delivery_p99_s"]),
    ("delivered_ratio", "ratio", lambda s: s["delivered"] / s["offered"]),
    ("accounted_ratio", "ratio", lambda s: s["accounted"] / s["offered"]),
)
#: Outputs that must repeat exactly between samples of one seed.
DETERMINISTIC = ("fingerprint", "offered", "delivered", "accounted",
                 "delivery_p50_s", "delivery_p99_s", "delivery_samples")


class SampleError(RuntimeError):
    pass


def run_sample(workload: str, seed: int, mode: str, deadline: float) -> dict:
    """One sample in a fresh interpreter (its own process group, so a
    timeout also stops the shard workers it forked)."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "sample.py"), "--workload", workload,
         "--seed", str(seed), "--mode", mode, "--out", str(OUT)],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True,
    )
    try:
        stdout, stderr = proc.communicate(
            timeout=max(1.0, deadline - time.monotonic())
        )
    except BaseException as exc:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        if isinstance(exc, subprocess.TimeoutExpired):
            raise SampleError(f"{mode} sample of {workload} timed out")
        raise
    if proc.returncode != 0:
        raise SampleError(
            f"{mode} sample of {workload} exited {proc.returncode}:\n{stderr}"
        )
    return json.loads(stdout.strip().splitlines()[-1])


def run_plain_samples(args, started: float) -> list[dict]:
    """Untraced samples until ``--seconds`` is used; one when tracing."""
    samples: list[dict] = []
    longest = 0.0
    while True:
        began = time.monotonic()
        samples.append(
            run_sample(args.workload, args.seed, "plain",
                       started + HARD_LIMIT_S)
        )
        longest = max(longest, time.monotonic() - began)
        elapsed = time.monotonic() - started
        if args.trace or elapsed + longest > min(args.seconds,
                                                 HARD_LIMIT_S / 2):
            return samples


def run_setup_samples(args, started: float) -> list[float]:
    return [
        run_sample(args.workload, args.seed, "setup",
                   started + HARD_LIMIT_S)["setup_s"]
        for _ in range(SETUP_SAMPLES)
    ]


def invariance_check(reference: dict, other: dict):
    """The library's shard-count-invariance oracle over two E13 records."""
    from repro.testkit.oracle import check_shard_count_invariance

    def as_result(record: dict) -> SimpleNamespace:
        return SimpleNamespace(
            shards=record["shards"],
            merged_fingerprint=record["fingerprint"],
            counts=record["counts"],
            receipts=record["receipts"],
            tenants=record["tenants"],
        )

    return check_shard_count_invariance(
        results=[as_result(reference), as_result(other)]
    )


def run_gates(workload: str, samples: list[dict]) -> list[str]:
    """Checks across the samples of one run (each sample checked itself)."""
    failed = []
    first = samples[0]
    for sample in samples[1:]:
        for key in DETERMINISTIC:
            if sample[key] != first[key]:
                failed.append(
                    f"{sample['mode']} sample {key} {sample[key]!r} != "
                    f"{first[key]!r}"
                )
    if workload == "storm_outage":
        return failed
    # Both E13 layouts must give the same journals for a seed: compare
    # with the first E13 record of this seed in this checkout.
    record_path = OUT / "e13_fingerprints.json"
    records = {}
    if record_path.exists():
        records = json.loads(record_path.read_text(encoding="utf-8"))
    key = str(first["seed"])
    record = {k: first[k] for k in
              ("workload", "shards", "fingerprint", "counts", "receipts",
               "tenants")}
    if key in records:
        report = invariance_check(records[key], record)
        failed.extend(
            f"{records[key]['workload']} vs {workload}: {violation}"
            for violation in report.violations
        )
    else:
        records[key] = record
        OUT.mkdir(exist_ok=True)
        scratch = record_path.with_suffix(".tmp")
        scratch.write_text(json.dumps(records, sort_keys=True),
                           encoding="utf-8")
        scratch.replace(record_path)
    return failed


def per_sample_values(samples: list[dict], setups: list[float]) -> dict:
    values = {name: [value(s) for s in samples]
              for name, _, value in END_TO_END}
    values["setup_s"] += setups
    return values


def end_to_end(samples: list[dict], setups: list[float]) -> dict:
    values = per_sample_values(samples, setups)
    return {
        name: {"value": statistics.median(values[name]), "unit": unit}
        for name, unit, _ in END_TO_END
    }


def describe(metrics: dict, samples: list[dict],
             setups: list[float]) -> list[str]:
    lines = []
    per_sample = per_sample_values(samples, setups)
    for name, metric in metrics.items():
        line = f"  {name:<40} {metric['value']:>14.6g} {metric['unit']}"
        if name in per_sample and len(per_sample[name]) > 1:
            spread = " ".join(f"{v:.6g}" for v in per_sample[name])
            line += f"   median of {len(per_sample[name])}: {spread}"
        lines.append(line)
    if "alerts_per_s" in metrics:
        lines.append("  unadjusted alerts_per_s per sample: " + " ".join(
            f"{s['delivered'] / s['wall_s']:.6g}" for s in samples
        ))
        lines.append("  vCPU slowdown (raw / adjusted wall) per sample: "
                     + " ".join(f"{s['wall_s'] / s['adjusted_wall_s']:.3g}"
                                for s in samples))
    if "delivery_p50_s" in metrics:
        count = samples[0]["delivery_samples"]
        lines.append(
            f"  delivery percentiles over {count} first receipts (simulated "
            f"seconds; p99 has {count // 100} samples beyond it)"
        )
    return lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import ledger
    import repro.testkit.oracle  # noqa: F401  (imported before it is timed)

    # Turn a stop request into an exception, so the running sample's
    # process group is stopped with the runner.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    started = time.monotonic()
    try:
        setups = [] if args.trace else run_setup_samples(args, started)
        samples = run_plain_samples(args, started)
        traced = tracesink = None
        if args.trace:
            deadline = started + HARD_LIMIT_S
            traced = run_sample(args.workload, args.seed, "traced", deadline)
            if args.workload == "e13_cold":
                tracesink = run_sample(
                    args.workload, args.seed, "tracesink", deadline
                )
    except SampleError as exc:
        print(exc, file=sys.stderr)
        return 1

    gates = run_gates(args.workload, samples)
    # Tracing must only observe: the traced samples reproduce the plain one.
    invariance_s = 0.0
    extras = [s for s in (traced, tracesink) if s is not None]
    for extra in extras:
        if args.workload == "storm_outage":
            if extra["fingerprint"] != samples[0]["fingerprint"]:
                gates.append(f"{extra['mode']} fingerprint differs from plain")
            continue
        began = time.perf_counter()
        report = invariance_check(samples[0], extra)
        if extra is traced:
            invariance_s = time.perf_counter() - began
        gates.extend(f"{extra['mode']}: {v}" for v in report.violations)

    everything = samples + extras
    attempted = sum(s["offered"] for s in everything)
    failed = sum(
        s["offered"] if s["gates_failed"] else s["silent_losses"]
        for s in everything
    )
    if gates:
        failed = attempted
    correct = not gates and not any(s["gates_failed"] for s in everything)

    if args.trace:
        metrics = ledger.per_layer_metrics(
            args.workload, samples, traced, tracesink, invariance_s
        )
    else:
        metrics = end_to_end(samples, setups)
    host = {
        "nproc": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "shards": samples[0]["shards"],
        "inline": samples[0]["inline"],
        "samples": len(samples),
    }
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          + " ".join(f"{k}={v}" for k, v in host.items()))
    for sample in everything:
        for gate in sample["gates_failed"]:
            print(f"  FAILED {sample['mode']}: {gate}")
    for gate in gates:
        print(f"  FAILED {gate}")
    print("\n".join(describe(metrics, samples, setups)))
    if traced is not None:
        print("\n".join(ledger.self_time_lines(traced)))
    OUT.mkdir(exist_ok=True)
    record = OUT / "results" / (
        f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    )
    record.parent.mkdir(exist_ok=True)
    record.write_text(json.dumps(
        {"host": host, "gates_failed": gates, "metrics": metrics,
         "setup_only_s": setups, "samples": everything},
        indent=1, default=repr,
    ), encoding="utf-8")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
