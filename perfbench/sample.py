"""One benchmark sample in a fresh interpreter; prints one JSON line.

    python3 perfbench/sample.py --workload e13_cold --seed 0 --mode plain \\
        --out .perfbench

``run.py`` starts one of these per sample, so no interpreter, heap, GC or
process-global alert-id state carries from one sample to the next.  Modes:
``plain`` (no wrappers), ``setup`` (set-up only, for more ``setup_s``
samples), ``traced`` (the ``ledger`` wrappers installed) and ``tracesink``
(E13 only: a ``repro.obs`` TraceSink on every shard world).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True,
                        choices=("e13_cold", "e13_sharded", "storm_outage"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", default="plain",
                        choices=("plain", "setup", "traced", "tracesink"))
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()

    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        print(f"repro imported from {repro.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    import ledger
    import workloads

    recorder = None
    worker_dir = None
    stem = f"{args.workload}-seed{args.seed}"
    if args.mode == "traced":
        recorder = ledger.Recorder()
        if args.workload == "e13_sharded":
            worker_dir = args.out / "trace" / f"{stem}-workers"
            worker_dir.mkdir(parents=True, exist_ok=True)
            for stale in worker_dir.glob("shard-*.json"):
                stale.unlink()
        ledger.install(recorder, worker_dir)

    if args.workload == "storm_outage":
        if args.mode == "tracesink":
            parser.error("tracesink mode is for the E13 workloads")
        result = workloads.run_storm(
            args.seed, recorder, setup_only=args.mode == "setup"
        )
    else:
        shards, inline = workloads.e13_layout(args.workload)
        result = workloads.run_e13(
            args.seed,
            shards,
            inline,
            workload_path=(
                "workloads:build_e13_with_tracesink"
                if args.mode == "tracesink" else None
            ),
            recorder=recorder,
            setup_only=args.mode == "setup",
        )

    if recorder is not None:
        result["ledger"] = recorder.write(args.out / "trace" / f"{stem}.json")
        result["worker_ledgers"] = []
        if worker_dir is not None:
            for path in sorted(worker_dir.glob("shard-*.json")):
                with open(path, encoding="utf-8") as handle:
                    result["worker_ledgers"].append(json.load(handle)["summary"])
    result.update(workload=args.workload, seed=args.seed, mode=args.mode)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    status = main()
    # Every shard worker has been joined; skip tearing down the simulated
    # world object by object, which is not measured and only delays the
    # next sample.
    os._exit(status)
