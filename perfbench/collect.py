#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarize each metric.

    python3 perfbench/collect.py --seeds 1-10 [--workloads a,b] [--trace 0|1]
                                 [--out FILE]

Runs are sequential, one process at a time, from the repository root.  For
every workload and metric it prints the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the spread, which is
the interquartile distance as a share of the median.  ``--out`` writes the
raw runs and the summary as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _seeds(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarize(values: list) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(med) if med else 0.0, "runs": len(values)}


def main() -> None:
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    ap.add_argument("--workloads", default=",".join(w["name"] for w in config["workloads"]))
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path)
    args = ap.parse_args()

    report = {}
    for workload in args.workloads.split(","):
        runs = []
        for seed in _seeds(args.seeds):
            cmd = config["command"] + ["--workload", workload, "--seed", str(seed),
                                       "--seconds", str(config["run_seconds"]),
                                       "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                sys.exit(f"{workload} seed {seed} failed:\n{proc.stderr}")
            result = json.loads(lines[-1])
            if not result["correct"]:
                print(f"{workload} seed {seed}: incorrect\n{proc.stderr}", file=sys.stderr)
            runs.append({"seed": seed, **result})
        names = runs[0]["metrics"]
        summary = {
            name: {"unit": runs[0]["metrics"][name]["unit"],
                   **summarize([r["metrics"][name]["value"] for r in runs])}
            for name in names
        }
        report[workload] = {"summary": summary, "runs": runs}
        for name, s in summary.items():
            print(f"{workload:18s} {name:42s} median {s['median']:.6g} {s['unit']:6s}"
                  f" q1 {s['q1']:.6g} q3 {s['q3']:.6g} spread {s['spread']:.3f}",
                  flush=True)
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n")


if __name__ == "__main__":
    main()
