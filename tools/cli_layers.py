"""Import, compute and serialise time of each CLI operation of one seed's cycle.

    python3 tools/cli_layers.py [--src DIR ...] [--seed 1] [--repeat 3] [--smoke]

For each operation of the cli-small and cli-bulk cycles of one seed
(``perfbench/workloads.py``, with ``--smoke`` its shrunken inputs), it
starts fresh Python processes that import ``qdetnoise.cli`` and run the
operation's arguments through ``qdetnoise.__main__.run``, the entry of
``python -m qdetnoise``, in a temporary directory that holds the cycle's
input files.
``import_s`` is the import of ``qdetnoise.cli`` alone, which loads no
numpy; each command loads its own library modules when it runs, inside
``compute_s``, and numpy with them for every command but ``qubit``.
``serialise_s`` is the time inside ``cli._write``, which the process wraps
with a timer before the call; ``compute_s`` is the rest of the run:
argument parsing, the command's imports, reading inputs, the library and
the checks. ``process_s`` is the whole process, timed by this script from
spawn to exit, so it also holds interpreter start-up and shutdown, where
the entry's ``gc.freeze`` saves its time. ``peak_mb`` is the process's own
peak resident set size (``VmHWM``; ``ru_maxrss`` would also count the
forking parent's). Each figure is the median of ``--repeat`` processes.
The package is imported from the ``src`` of ``--src``, this checkout by
default. ``--src`` may be given more than once, to compare trees: their
processes then take turns, one process per tree in each round, and the
tree that goes first rotates from round to round, so a drift of the host
falls on every tree alike. The engine that writes the MIMO input files is
the first tree's. One markdown table row is printed per operation, with
each tree's columns side by side, numbered in the order of ``--src``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COLUMNS = ("import_s", "compute_s", "serialise_s", "process_s", "peak_mb")
FORMATS = {"peak_mb": "{:.1f}"} | {name: "{:.4f}" for name in COLUMNS[:-1]}

# Runs in each measured process: argv[1] is the src directory, the rest is
# the command line after ``qdetnoise``.
CHILD = """
import json, sys, time
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from qdetnoise import cli
imported = time.perf_counter()
spent = 0.0
write = cli._write
def timed(*args, **kwargs):
    global spent
    begin = time.perf_counter()
    try:
        return write(*args, **kwargs)
    finally:
        spent += time.perf_counter() - begin
cli._write = timed
import qdetnoise.__main__ as entry
sys.argv[:] = ["qdetnoise", *sys.argv[2:]]
code = getattr(entry, "run", cli.main)()  # a tree older than run() calls main
done = time.perf_counter()
with open("/proc/self/status") as status:
    peak = next(int(line.split()[1]) for line in status if line.startswith("VmHWM")) / 1024
print(json.dumps({"exit": code, "import_s": imported - start, "serialise_s": spent,
                  "compute_s": done - imported - spent, "peak_mb": peak}))
"""


def spawn(src: Path, workdir: Path, argv: tuple[str, ...]) -> dict:
    """One measured process of the package in ``src``."""
    begin = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", CHILD, str(src), *argv],
                          cwd=workdir, capture_output=True, text=True)
    process_s = time.perf_counter() - begin
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(argv)} exited with {proc.returncode}: "
                           f"{proc.stderr.strip()[-500:]}")
    return json.loads(lines[-1]) | {"process_s": process_s}


def measure(srcs: list[Path], workdir: Path, argv: tuple[str, ...],
            repeat: int) -> list[dict]:
    """Per tree, the exit code and the median of each column over ``repeat``
    processes, the trees taking turns process by process."""
    runs = [[] for _ in srcs]
    for round_ in range(repeat):
        for turn in range(len(srcs)):
            tree = (round_ + turn) % len(srcs)
            runs[tree].append(spawn(srcs[tree], workdir, argv))
    return [{"exit": tree_runs[0]["exit"]} | {
        name: statistics.median(run[name] for run in tree_runs) for name in COLUMNS}
        for tree_runs in runs]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, action="append",
                        help="checkout whose src/ to measure (default: this "
                             "one); give it again to compare trees")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--repeat", type=int, default=3,
                        help="processes per operation; the median is printed")
    parser.add_argument("--smoke", action="store_true",
                        help="the benchmark's shrunken inputs")
    args = parser.parse_args(argv)
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")
    srcs = [(tree / "src").resolve() for tree in args.src or [ROOT]]
    sys.path.insert(0, str(srcs[0]))
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    names = ("exit", *COLUMNS)
    if len(srcs) > 1:
        for number, src in enumerate(srcs, 1):
            print(f"tree {number}: {src}")
        names = tuple(f"{name} {number}" for name in names
                      for number in range(1, len(srcs) + 1))
    print("| workload | op | " + " | ".join(names) + " |")
    print("|---|---|" + "---|" * len(names))
    for workload in ("cli-small", "cli-bulk"):
        cycle = workloads.build(workload, args.seed, args.smoke)
        with tempfile.TemporaryDirectory() as tmp:
            workdir = Path(tmp)
            for mimo in cycle.files.values():
                mimo.write(workdir)
            for op in cycle.ops:
                rows = measure(srcs, workdir, op.argv, args.repeat)
                cells = [FORMATS.get(name, "{}").format(row[name])
                         for name in ("exit", *COLUMNS) for row in rows]
                print(f"| {workload} | {op.out} | " + " | ".join(cells) + " |",
                      flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
