#!/usr/bin/env python3
"""Scan oscillator occupations and compare the measured sideband ratio
against the thermometric prediction (n+1)/n.

The residual column shows the back-action correction
(gamma_m + gamma_opt) / (gamma_m - gamma_opt); keep gbar small if you
want the raw ratio to be an unbiased thermometer.
"""
import argparse
import sys
from pathlib import Path

import numpy as np

import qdetnoise as q


def parse_args():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--occupations", type=float, nargs="+",
                        default=[0.5, 1.0, 2.0, 5.0, 10.0])
    parser.add_argument("--gamma", type=float, default=0.05,
                        help="cavity linewidth, in units of omega_m")
    parser.add_argument("--gbar", type=float, default=7e-6)
    parser.add_argument("--omega-m", type=float, default=1.0)
    parser.add_argument("--gamma-m", type=float, default=1e-6)
    parser.add_argument("--mass", type=float, default=1.0)
    parser.add_argument("--window-halfwidth", type=float, default=40.0)
    parser.add_argument("--window-points", type=int, default=4001)
    parser.add_argument("--out", default="asymmetry_scan.csv")
    return parser.parse_args()


def main():
    args = parse_args()
    params = q.CavityParams(gamma=args.gamma, delta=0.0, gbar=args.gbar,
                            theta=0.0)

    lines = ["n_occ,area_red,area_blue,ratio,predicted,rel_error"]
    print(f"{'n':>6}  {'ratio':>12}  {'(n+1)/n':>12}  {'rel err':>10}")
    worst = 0.0
    for n in args.occupations:
        osc = q.MechOscillator(omega_m=args.omega_m, gamma_m=args.gamma_m,
                               mass=args.mass, n_occupation=n)
        grid = q.asymmetry_grid(params, osc, window_halfwidth=args.window_halfwidth,
                                window_points=args.window_points)
        result = q.sideband_asymmetry(params, osc, grid)
        predicted = (n + 1.0) / n if n > 0 else float("inf")
        rel = abs(result.ratio - predicted) / predicted
        worst = max(worst, rel)
        print(f"{n:6.2f}  {result.ratio:12.6f}  {predicted:12.6f}  {rel:10.2e}")
        lines.append(",".join("%.16e" % v for v in (
            n, result.area_red, result.area_blue, result.ratio,
            predicted, rel)))

    Path(args.out).write_text("\n".join(lines) + "\n", newline="\n")
    print(f"wrote {args.out}; worst relative error {worst:.2e}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
