#!/usr/bin/env python3
"""Temperature sweep of the bounds chain for both phases of the N=10 chain.

Writes one CSV/JSON pair per phase and prints the high-temperature log-log
slope of F vs T (expected close to -2) and the low-temperature plateau of
F * T^2 in the ferromagnetic phase.
"""

import argparse
import math

import numpy as np

from qfibounds.harness import config_from_dict, emit_report, run_sweep


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n-sites", type=int, default=10)
    ap.add_argument("--points", type=int, default=40)
    ap.add_argument("--out", default="out/temperature")
    args = ap.parse_args()

    for label, gamma_frac in (("ferro", 0.15), ("para", 0.35)):
        cfg = config_from_dict(
            {
                "model": {"n_sites": args.n_sites, "gamma": gamma_frac * math.pi},
                "sweep_axis": "temperature",
                "grid": {
                    "start": 0.05,
                    "stop": 50.0,
                    "points": args.points,
                    "spacing": "log",
                },
                "outputs": f"{args.out}_{label}",
            }
        )
        rows = run_sweep(cfg)
        paths = emit_report(rows, cfg)

        t = np.array([r.axis for r in rows])
        f = np.array([r.report.qfi for r in rows])
        hi = t >= 10.0
        slope = np.polyfit(np.log(t[hi]), np.log(f[hi]), 1)[0]
        lo = t <= 0.2
        ft2 = f[lo] * t[lo] ** 2
        print(
            f"{label} (gamma = {gamma_frac} pi): high-T slope {slope:+.3f}, "
            f"low-T F*T^2 in [{ft2.min():.4g}, {ft2.max():.4g}] -> {paths['csv']}"
        )


if __name__ == "__main__":
    main()
