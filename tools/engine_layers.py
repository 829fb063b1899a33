"""Wall time and traced peak memory of the engine's two solvers and the
audit, per layer case.

    python3 tools/engine_layers.py [--src DIR] [--points 129 10001 200001]
        [--modes 1 4 16] [--paths eigen fallback]

For each case it builds a passive network with two input lines and a
thermal input, in the same way as the lib-network workload, and runs
``solve_susceptibilities``, then ``solve_unsym_spectra`` on a symmetric
grid, then ``constraint_report`` on their results. The ``fallback`` path
raises the network's resolvent to the batched solve by setting
``netsolve._MAX_MODE_COND`` below 1, so every drift counts as
ill-conditioned. ``cond_v`` is the drift's eigenvector condition
number, which the eigen path is bounded by (``netsolve._MAX_MODE_COND``),
computed before the timed runs.

The two solvers share one resolvent pass per network and grid, and the
first to run computes it. So ``susceptibilities_s`` holds the whole pass
and ``spectra_s`` only the spectra form; ``pair_s`` is both solvers, one
after the other, on a network built fresh for each run, and is the cost of
a solve; ``report_s`` is ``constraint_report`` on that pair's results, so
the audit's share of lib-network's path shows beside the solve. Times are
the best of three untraced runs. ``peak_mb`` is the tracemalloc peak of
one more run of both solvers, with both results held to the end: the
resolvent pass and its block buffer, the rows one solver leaves for the
other, the spectra form's block buffers and the seven result arrays.
``report_peak_mb`` is the tracemalloc peak of ``constraint_report`` on
that run's results, traced after them, so it holds only what the audit
makes: its intermediates, the symmetrized spectra among them, and its
five residuals and verdicts. The networks and grid are built, and the drift diagonalised, before each timed
run. The package is imported from the ``src`` of ``--src``, this checkout
by default, so one script can measure two trees. One markdown table row
is printed per case.
"""

from __future__ import annotations

import argparse
import sys
import tracemalloc
from pathlib import Path
from time import perf_counter

import numpy as np

ROOT = Path(__file__).resolve().parent.parent


def network(q, n_modes: int, rng: np.random.Generator):
    shape = (n_modes, n_modes)
    h = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    shape = (2, n_modes)
    coupling = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    force = np.zeros(2 * n_modes)
    force[:2] = rng.normal(size=2)
    return q.passive_network(
        h, coupling, q.Observable(mode_quad=force, output_quad=np.zeros(4)),
        q.Observable(mode_quad=np.zeros(2 * n_modes), output_quad=[1.0, 0, 0, 0]),
        input_state=q.InputState.thermal(0.7))


def measure(q, n_modes: int, points: int) -> dict:
    # construction diagonalises the drift: that is per network, not per solve
    net = network(q, n_modes, np.random.default_rng(n_modes))
    cond_v = np.linalg.cond(np.linalg.eig(net.drift)[1])
    grid = q.make_symmetric_grid(5.0, points // 2)
    times = {"susceptibilities_s": [], "spectra_s": [], "pair_s": [], "report_s": []}
    for _ in range(3):
        start = perf_counter()
        q.solve_susceptibilities(net, grid)
        mid = perf_counter()
        q.solve_unsym_spectra(net, grid)
        times["susceptibilities_s"].append(mid - start)
        times["spectra_s"].append(perf_counter() - mid)
        fresh = network(q, n_modes, np.random.default_rng(n_modes))
        start = perf_counter()
        susc = q.solve_susceptibilities(fresh, grid)
        spectra = q.solve_unsym_spectra(fresh, grid)
        mid = perf_counter()
        q.constraint_report(spectra, susc)
        times["pair_s"].append(mid - start)
        times["report_s"].append(perf_counter() - mid)
    tracemalloc.start()
    susc, spectra = q.solve_susceptibilities(net, grid), q.solve_unsym_spectra(net, grid)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    tracemalloc.start()
    q.constraint_report(spectra, susc)
    report_peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    return {name: min(values) for name, values in times.items()} | {
        "peak_mb": peak / 1e6, "report_peak_mb": report_peak / 1e6, "cond_v": cond_v}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=ROOT,
                        help="checkout whose src/ to measure (default: this one)")
    parser.add_argument("--points", type=int, nargs="+", default=[129, 10001, 200001])
    parser.add_argument("--modes", type=int, nargs="+", default=[1, 4, 16])
    parser.add_argument("--paths", nargs="+", default=["eigen", "fallback"],
                        choices=["eigen", "fallback"])
    args = parser.parse_args(argv)
    sys.path.insert(0, str(args.src / "src"))
    import qdetnoise as q
    from qdetnoise import netsolve

    print("| path | modes | points | cond_v | susceptibilities_s | spectra_s "
          "| pair_s | report_s | peak_mb | report_peak_mb |")
    print("|---|---|---|---|---|---|---|---|---|---|")
    default_cond = netsolve._MAX_MODE_COND
    for path in args.paths:
        netsolve._MAX_MODE_COND = default_cond if path == "eigen" else -1.0
        for n_modes in args.modes:
            for points in args.points:
                row = measure(q, n_modes, points)
                print(f"| {path} | {n_modes} | {points} | {row['cond_v']:.3g} | "
                      f"{row['susceptibilities_s']:.4g} | {row['spectra_s']:.4g} | "
                      f"{row['pair_s']:.4g} | {row['report_s']:.4g} | "
                      f"{row['peak_mb']:.1f} | {row['report_peak_mb']:.1f} |",
                      flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
