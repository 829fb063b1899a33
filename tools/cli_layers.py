"""Import, compute and serialise time of each CLI operation of one seed's cycle.

    python3 tools/cli_layers.py [--src DIR] [--seed 1] [--repeat 3] [--smoke]

For each operation of the cli-small and cli-bulk cycles of one seed
(``perfbench/workloads.py``, with ``--smoke`` its shrunken inputs), it
starts fresh Python processes that import ``qdetnoise.cli`` and run the
operation's arguments through ``qdetnoise.__main__.run``, the entry of
``python -m qdetnoise``, in a temporary directory that holds the cycle's
input files.
``import_s`` is the import of ``qdetnoise.cli`` alone; each command loads
its own library modules when it runs, inside ``compute_s``.
``serialise_s`` is the time inside ``cli._write``, which the process wraps
with a timer before the call; ``compute_s`` is the rest of the run:
argument parsing, the command's imports, reading inputs, the library and
the checks. ``process_s`` is the whole process, timed by this script from
spawn to exit, so it also holds interpreter start-up and shutdown, where
the entry's ``gc.freeze`` saves its time. ``peak_mb`` is the process's own
peak resident set size (``VmHWM``; ``ru_maxrss`` would also count the
forking parent's). Each figure is the median of ``--repeat`` processes.
The package, and the engine that writes the MIMO input files, are imported
from the ``src`` of ``--src``, this checkout by default, so one script can
measure two trees. One markdown table row is printed per operation.
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


def measure(src: Path, workdir: Path, argv: tuple[str, ...], repeat: int) -> dict:
    runs = []
    for _ in range(repeat):
        begin = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", CHILD, str(src), *argv],
                              cwd=workdir, capture_output=True, text=True)
        process_s = time.perf_counter() - begin
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise RuntimeError(f"{' '.join(argv)} exited with {proc.returncode}: "
                               f"{proc.stderr.strip()[-500:]}")
        runs.append(json.loads(lines[-1]) | {"process_s": process_s})
    return {"exit": runs[0]["exit"]} | {
        name: statistics.median(run[name] for run in runs) for name in COLUMNS}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=ROOT,
                        help="checkout whose src/ to measure (default: this one)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--repeat", type=int, default=3,
                        help="processes per operation; the median is printed")
    parser.add_argument("--smoke", action="store_true",
                        help="the benchmark's shrunken inputs")
    args = parser.parse_args(argv)
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")
    src = (args.src / "src").resolve()
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    print("| workload | op | exit | " + " | ".join(COLUMNS) + " |")
    print("|---|---|---|" + "---|" * len(COLUMNS))
    for workload in ("cli-small", "cli-bulk"):
        cycle = workloads.build(workload, args.seed, args.smoke)
        with tempfile.TemporaryDirectory() as tmp:
            workdir = Path(tmp)
            for mimo in cycle.files.values():
                mimo.write(workdir)
            for op in cycle.ops:
                row = measure(src, workdir, op.argv, args.repeat)
                print(f"| {workload} | {op.out} | {row['exit']} | "
                      f"{row['import_s']:.4f} | {row['compute_s']:.4f} | "
                      f"{row['serialise_s']:.4f} | {row['process_s']:.4f} | "
                      f"{row['peak_mb']:.1f} |", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
