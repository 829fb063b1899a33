"""Byte record of the CLI artifacts and library arrays: commit REV against
this checkout.

    python3 tools/byte_record.py --parent REV [--smoke]

Runs one fixed list of ``python -m qdetnoise`` processes on two trees, each
with that tree's ``src`` first on ``PYTHONPATH``: the files of commit REV,
exported as ``tools/bench_pairs.py`` exports them, and this checkout as it
stands. The list is the cli-small and cli-bulk operations of seeds 1-3
(``perfbench/workloads.py``; with ``--smoke``, its shrunken inputs),
``check --input=squeezed:r,0`` for r = 2..10, and ``spectra
--single-sided`` on the closed-form (vacuum) and engine (thermal) routes
and ``qubit``, each in CSV and JSON. The MIMO inputs are drawn once, by
this checkout's engine, and both sides read the same bytes. Each side runs
in its own temporary directory under the same file names, so the
``# config:`` echo lines match.

Then one more process per tree runs the lib-network operations of seeds
1-3 through ``perfbench/worker.py``'s ``run_op`` and saves, per operation,
the seven engine arrays and the constraint report's five residuals and
verdicts, or the Kubo residual for the network that is not a detector.
The two trees' arrays are compared bit for bit.

Per run or operation it prints ``identical``, or each column or array that
moved with its largest move relative to its peak magnitude, and any change
in exit code, stderr or the file's presence. It exits 1 on any difference.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from bench_pairs import ROOT, export, git

SEEDS = (1, 2, 3)
LADDER = range(2, 11)  # squeezing r of the check ladder
# runs no workload draws: the single-sided fold on both spectra routes, and
# qubit in both formats (its workload draw is CSV only)
FLAGS = (("spectra-single-vacuum", ("spectra", "--single-sided")),
         ("spectra-single-thermal", ("spectra", "--single-sided",
                                     "--input=thermal:0.5")),
         ("qubit", ("qubit",)))
SUSCEPTIBILITIES = ("chi_zf", "chi_ff", "chi_zz", "chi_fz")
SPECTRA = ("s_zz", "s_zf", "s_ff")
REPORT = ("uncertainty_gap", "product_residual", "correlation_residual",
          "kubo_residual", "positivity_margin")


@dataclass(frozen=True)
class Run:
    """What one process left: its exit code, stderr and artifact (or None)."""

    exit: int
    stderr: str
    artifact: bytes | None


def plan(smoke: bool) -> tuple[list[tuple[str, object]], dict]:
    """The runs as (group, ``workloads.CliOp``) and the input files by name.

    A group is a directory of its own on each side, so the cycles of two
    seeds, whose files share names, never meet.
    """
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    runs, files = [], {}
    for workload in ("cli-small", "cli-bulk"):
        for seed in SEEDS:
            cycle = workloads.build(workload, seed, smoke)
            files.update(cycle.files)
            runs += [(f"{workload}-{seed}", op) for op in cycle.ops]
    for r in LADDER:
        for fmt in ("csv", "json"):
            out = f"check-squeezed-{r}.{fmt}"
            runs.append(("ladder", workloads.CliOp(out, (
                "check", f"--input=squeezed:{r},0", f"--format={fmt}",
                f"--out={out}"), out)))
    for key, argv in FLAGS:
        for fmt in ("csv", "json"):
            out = f"{key}.{fmt}"
            runs.append(("flags", workloads.CliOp(
                out, (*argv, f"--format={fmt}", f"--out={out}"), out)))
    return runs, files


def dump_library(out: str, smoke: bool) -> None:
    """Save the lib-network arrays of seeds 1-3 to the .npz file ``out``,
    keyed ``lib-network-SEED/OP/ARRAY``, with this process's qdetnoise."""
    import qdetnoise as q
    import worker
    import workloads

    arrays = {}
    for seed in SEEDS:
        for op in workloads.build("lib-network", seed, smoke).ops:
            _, (susc, spectra, result) = worker.run_op(q, op.spec)
            found = {name: getattr(susc, name).values for name in SUSCEPTIBILITIES}
            found |= {name: getattr(spectra, name).values for name in SPECTRA}
            if isinstance(result, q.ConstraintReport):
                found |= {name: getattr(result, name) for name in REPORT}
                found["verdicts"] = np.array([v.value for v in result.verdicts])
            else:
                found["kubo_residual"] = result.values.real
            arrays |= {f"lib-network-{seed}/{op.key}/{name}": value
                       for name, value in found.items()}
    np.savez(out, **arrays)


def library(tree: Path, out: Path, smoke: bool) -> dict[str, dict]:
    """The arrays ``dump_library`` saves with ``tree``'s qdetnoise, run in a
    process of its own, as {operation: {array name: array}}."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [
        str(tree / "src"), str(ROOT / "tools"), str(ROOT / "perfbench"),
        env.get("PYTHONPATH")]))
    subprocess.run([sys.executable, "-c", "import sys, byte_record; "
                    "byte_record.dump_library(sys.argv[1], sys.argv[2] == 'smoke')",
                    str(out), "smoke" if smoke else "full"],
                   env=env, check=True)
    ops: dict[str, dict] = {}
    with np.load(out, allow_pickle=False) as saved:
        for key in saved.files:
            op, _, name = key.rpartition("/")
            ops.setdefault(op, {})[name] = saved[key]
    return ops


def execute(tree: Path, workdir: Path, op) -> Run:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(tree / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "qdetnoise", *op.argv],
                          cwd=workdir, env=env, capture_output=True, text=True)
    path = workdir / op.out
    return Run(proc.returncode, proc.stderr,
               path.read_bytes() if path.exists() else None)


def columns(artifact: bytes) -> dict[str, list]:
    """An artifact's values by column: the config echo, every table column,
    and each scalar as a one-cell column."""
    text = artifact.decode("ascii")
    if text.startswith("# config: "):
        echo, header, *rows = text.splitlines()
        cells = zip(*(row.split(",") for row in rows))
        table = dict(zip(header.split(","), map(list, cells)))
        return {"config": [echo[len("# config: "):]], **table}
    return {key: value if isinstance(value, list) else [json.dumps(value)]
            for key, value in json.loads(text).items()}


def moves(old: list, new: list) -> str | None:
    """How a column moved, or None when every cell is the same."""
    if len(old) != len(new):
        return f"{len(old)} -> {len(new)} cells"
    changed = [i for i, (a, b) in enumerate(zip(old, new)) if a != b]
    if not changed:
        return None
    try:
        a, b = (np.array(col, dtype=complex) for col in (old, new))
    except (TypeError, ValueError):  # a label column, or the config echo
        i = changed[0]
        return (f"{len(changed)} of {len(old)} cells changed, first {old[i]!r} -> "
                f"{new[i]!r}")
    with np.errstate(invalid="ignore"):
        peak = np.max(np.abs(a[np.isfinite(a)]), initial=0.0)
        move = np.max(np.abs(a - b))
    relative = f"{move / peak:.3g} of peak {peak:.6g}" if peak else f"{move:.3g}"
    return f"{len(changed)} of {len(old)} cells moved, largest {relative}"


def compare(parent: Run, change: Run) -> list[str]:
    """The differences between two runs of one configuration; [] if none."""
    found = []
    if parent.exit != change.exit:
        found.append(f"exit {parent.exit} -> {change.exit}")
    if parent.stderr != change.stderr:
        found.append(f"stderr {parent.stderr!r} -> {change.stderr!r}")
    if (parent.artifact is None) != (change.artifact is None):
        found.append("file only on the " + ("change" if parent.artifact is None
                                            else "parent"))
    elif parent.artifact != change.artifact:
        old, new = columns(parent.artifact), columns(change.artifact)
        if list(old) != list(new):
            found.append(f"columns {list(old)} -> {list(new)}")
        for name in [name for name in old if name in new]:
            if (move := moves(old[name], new[name])) is not None:
                found.append(f"{name}: {move}")
        if not found:
            found.append("bytes differ, values equal")
    return found


def cells(values: np.ndarray) -> list[str]:
    """An array's cells as text that is equal exactly where the bits are."""
    return [cell if isinstance(cell, str) else repr(cell) for cell in values.tolist()]


def compare_arrays(parent: dict, change: dict) -> list[str]:
    """The differences between two operations' named arrays; [] if none."""
    if list(parent) != list(change):
        return [f"arrays {list(parent)} -> {list(change)}"]
    found = []
    for name, old in parent.items():
        new = change[name]
        if old.dtype != new.dtype:
            found.append(f"{name}: dtype {old.dtype} -> {new.dtype}")
        elif old.shape != new.shape or old.tobytes() != new.tobytes():
            move = moves(cells(old), cells(new)) or "bytes differ, values equal"
            found.append(f"{name}: {move}")
    return found


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="commit to compare against")
    parser.add_argument("--smoke", action="store_true",
                        help="the benchmark's shrunken cli-bulk inputs")
    args = parser.parse_args(argv)
    runs, files = plan(args.smoke)

    differ = 0
    with tempfile.TemporaryDirectory(prefix="byte-record-") as tmp:
        tmp = Path(tmp)
        (tmp / "tree").mkdir()
        sha = export(args.parent, tmp / "tree")
        trees = {"parent": tmp / "tree", "change": ROOT}
        for mimo in files.values():
            mimo.write(tmp)
        dirty = git("status", "--porcelain").strip()
        edits = " with uncommitted edits" if dirty else ""
        print(f"parent {sha}; change {git('rev-parse', 'HEAD').strip()}{edits}")
        for group, op in runs:
            pair = []
            for side, tree in trees.items():
                workdir = tmp / side / group
                workdir.mkdir(parents=True, exist_ok=True)
                for name in op.inputs:  # one file on disk, read by both sides
                    if not (workdir / name).exists():
                        os.link(tmp / name, workdir / name)
                pair.append(execute(tree, workdir, op))
            found = compare(*pair)
            differ += bool(found)
            status = f"exit {pair[0].exit}"
            status += ", no file" if pair[0].artifact is None else ""
            print(f"{group}/{op.out} ({status}): "
                  + ("; ".join(found) or "identical"), flush=True)
        arrays = [library(tree, tmp / side / "lib-network.npz", args.smoke)
                  for side, tree in trees.items()]
        for op, named in arrays[0].items():
            found = compare_arrays(named, arrays[1].get(op, {}))
            differ += bool(found)
            print(f"{op} ({len(named)} arrays): "
                  + ("; ".join(found) or "identical"), flush=True)
    total = len(runs) + len(arrays[0])
    print(f"{len(runs)} runs and {len(arrays[0])} library operations, "
          f"{total - differ} identical, {differ} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    raise SystemExit(main())
