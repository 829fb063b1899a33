"""Paired before/after runs of the qdetnoise benchmark, written as one record.

    python3 tools/bench_pairs.py --parent REV --out BENCH_<n>.json \
        --pairs cli-bulk=10 --pairs cli-small=3 --pairs lib-network=3

Runs ``perfbench/run.py --trace 0`` on two trees: the files of commit REV,
exported with ``git archive`` into a temporary directory, and this
checkout as it stands, each for the ``run_seconds`` that BENCHMARK.json
fixes. Pair i of a workload (i = 1..N) uses seed i for both runs, and the
two runs alternate which goes first, so that a slow spell of the machine
does not fall on one side only. The record holds
every run's end-to-end metrics, and per metric the median and quartiles of
each side and the number of pairs in which the change did better.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
SECONDS = BENCHMARK["run_seconds"]
SIDES = ("parent", "change")


def export(rev: str, dest: Path) -> str:
    """Write the files of commit ``rev`` under ``dest``; return its full hash."""
    sha = git("rev-parse", "--verify", f"{rev}^{{commit}}").strip()
    with subprocess.Popen(["git", "archive", sha], cwd=ROOT,
                          stdout=subprocess.PIPE) as archive:
        subprocess.run(["tar", "-x", "-C", str(dest)], stdin=archive.stdout,
                       check=True)
    if archive.returncode:
        raise RuntimeError(f"git archive {sha} exited with {archive.returncode}")
    return sha


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True,
                          capture_output=True, text=True).stdout


def run(tree: Path, workload: str, seed: int) -> dict:
    """One benchmark run; its JSON summary is the last line of its output."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed",
         str(seed), "--seconds", str(SECONDS), "--trace", "0"],
        cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{tree}: {workload} seed {seed} exited with "
                           f"{proc.returncode}: {proc.stderr.strip()[-500:]}")
    summary = json.loads(lines[-1])
    return {"attempted": summary["attempted"], "failed": summary["failed"],
            **{name: m["value"] for name, m in summary["metrics"].items()}}


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1}


def summarise(pairs: list[dict]) -> dict:
    out = {}
    for metric in BENCHMARK["end_to_end"]:
        name, lower = metric["name"], metric["better"] == "lower"
        sides = {side: [p[side][name] for p in pairs] for side in SIDES}
        better = sum((c < p) if lower else (c > p)
                     for p, c in zip(sides["parent"], sides["change"]))
        out[name] = {"unit": metric["unit"], "better": metric["better"],
                     **{side: spread(values) for side, values in sides.items()},
                     "change_better_pairs": better, "pairs": len(pairs)}
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="commit to compare against")
    parser.add_argument("--out", required=True, type=Path, help="record to write")
    parser.add_argument("--pairs", action="append", required=True,
                        metavar="WORKLOAD=N", help="N pairs of WORKLOAD (repeatable)")
    args = parser.parse_args(argv)
    plan = [(name, int(count)) for name, count in
            (item.split("=", 1) for item in args.pairs)]

    record = {"command": BENCHMARK["command"] + ["--trace", "0"],
              "seconds": SECONDS,
              "host": {"machine": platform.machine(),
                       "python": platform.python_version()},
              "change": {"base": git("rev-parse", "HEAD").strip(),
                         "uncommitted": bool(git("status", "--porcelain").strip())},
              "workloads": {}}
    with tempfile.TemporaryDirectory(prefix="bench-parent-") as tmp:
        record["parent"] = export(args.parent, Path(tmp))
        trees = {"parent": Path(tmp), "change": ROOT}
        for workload, count in plan:
            pairs = []
            for seed in range(1, count + 1):
                order = SIDES if seed % 2 == 1 else SIDES[::-1]
                pair = {"seed": seed, "first": order[0]}
                for side in order:
                    pair[side] = run(trees[side], workload, seed)
                    print(f"{workload} seed {seed} {side}: "
                          + json.dumps(pair[side]), flush=True)
                pairs.append(pair)
            record["workloads"][workload] = {"pairs": pairs,
                                             "metrics": summarise(pairs)}
            args.out.write_text(json.dumps(record, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
