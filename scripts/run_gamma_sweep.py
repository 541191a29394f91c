#!/usr/bin/env python3
"""Field-angle sweep of the bounds chain at fixed temperature.

At T = 10 all four bounds collapse onto each other; at T = 0.1 the lower
bound tracks F in the paramagnetic phase while UB2 detaches by an order of
magnitude.  Prints the spread and tracking summaries after writing the
CSV/JSON artifacts.
"""

import argparse
import math

import numpy as np

from qfibounds.harness import config_from_dict, emit_report, run_sweep


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n-sites", type=int, default=10)
    ap.add_argument("--temperature", type=float, default=10.0)
    ap.add_argument("--points", type=int, default=40)
    ap.add_argument("--out", default="out/gamma")
    args = ap.parse_args()

    cfg = config_from_dict(
        {
            "model": {"n_sites": args.n_sites, "gamma": 0.3},
            "sweep_axis": "gamma",
            "grid": {
                "start": 0.02 * math.pi,
                "stop": 0.48 * math.pi,
                "points": args.points,
                "spacing": "linear",
            },
            "fixed": {"temperature": args.temperature},
            "outputs": args.out,
        }
    )
    rows = run_sweep(cfg)
    paths = emit_report(rows, cfg)

    spread = max((r.report.ub2 - r.report.lb) / r.report.ub2 for r in rows)
    track = max(r.report.qfi / r.report.lb - 1.0 for r in rows)
    print(
        f"T={args.temperature}: max (UB2-LB)/UB2 = {100 * spread:.2f}%, "
        f"max F/LB - 1 = {100 * track:.2f}% -> {paths['csv']}"
    )


if __name__ == "__main__":
    main()
