"""The measuring tools: the pair runner rejects a bad plan before it runs
anything, the CLI layer table times the writer inside the process, and the
byte record names each column that moved."""

import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from qdetnoise import main

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture
def bench_pairs(monkeypatch):
    spec = importlib.util.spec_from_file_location(
        "bench_pairs", ROOT / "tools" / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)

    def refuse(*args, **kwargs):
        raise AssertionError("ran before the plan was checked")

    for name in ("git", "export", "run"):
        monkeypatch.setattr(module, name, refuse)
    return module


@pytest.mark.parametrize("item", [
    "lib-network=1", "lib-network=0", "lib-network=-3", "lib-network",
    "lib-network=", "lib-network=2.5", "lib-network=two", "no-such=3", "=3",
])
def test_bad_pairs_are_a_usage_error(bench_pairs, tmp_path, capsys, item):
    out = tmp_path / "bench.json"
    with pytest.raises(SystemExit) as exit_info:
        bench_pairs.main(["--parent", "HEAD", "--out", str(out),
                          "--pairs", "cli-small=3", "--pairs", item])
    assert exit_info.value.code == 2
    assert "at least 2" in capsys.readouterr().err
    assert not out.exists()


def test_good_pairs_reach_the_runs(bench_pairs, tmp_path):
    with pytest.raises(AssertionError, match="ran before"):
        bench_pairs.main(["--parent", "HEAD", "--out", str(tmp_path / "b.json"),
                          "--pairs", "cli-small=2", "--pairs", "lib-network=10"])


@pytest.fixture
def cli_layers():
    spec = importlib.util.spec_from_file_location(
        "cli_layers", ROOT / "tools" / "cli_layers.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_cli_layers_splits_one_process(cli_layers, tmp_path):
    [row] = cli_layers.measure([ROOT / "src"], tmp_path,
                               ("qubit", "--format=json", "--out=q.json"), 1)
    assert row["exit"] == 0 and (tmp_path / "q.json").exists()
    assert all(row[name] > 0.0 for name in cli_layers.COLUMNS)


def test_cli_layers_prints_two_trees_side_by_side(cli_layers, tmp_path, capsys):
    other = tmp_path / "other"
    shutil.copytree(ROOT / "src" / "qdetnoise", other / "src" / "qdetnoise")
    assert cli_layers.main(["--src", str(ROOT), "--src", str(other),
                            "--smoke", "--repeat", "1"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[:2] == [f"tree 1: {ROOT / 'src'}", f"tree 2: {other / 'src'}"]
    header = [cell.strip() for cell in out[2].strip("|").split("|")]
    assert header == ["workload", "op"] + [
        f"{name} {tree}" for name in ("exit", *cli_layers.COLUMNS) for tree in (1, 2)]
    rows = out[4:]
    assert len(rows) > 2 and all(row.startswith("| cli-") for row in rows)
    for row in rows:
        cells = [cell.strip() for cell in row.strip("|").split("|")]
        assert len(cells) == len(header) and cells[2:4] == ["0", "0"]


def test_cli_layers_trees_take_turns(cli_layers, monkeypatch):
    order = []

    def spawn(src, workdir, argv):
        order.append(src)
        return {"exit": 0} | {name: float(len(order)) for name in cli_layers.COLUMNS}

    monkeypatch.setattr(cli_layers, "spawn", spawn)
    rows = cli_layers.measure(["a", "b"], Path("."), ("qubit",), 3)
    # one process per tree in each round; the tree that goes first rotates
    assert order == ["a", "b", "b", "a", "a", "b"]
    assert [row["import_s"] for row in rows] == [4.0, 3.0]  # medians of 1,4,5 and 2,3,6


def test_cli_layers_needs_one_repeat(cli_layers, capsys):
    with pytest.raises(SystemExit) as exit_info:
        cli_layers.main(["--repeat", "0"])
    assert exit_info.value.code == 2
    assert "at least 1" in capsys.readouterr().err


@pytest.fixture
def byte_record(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "tools"))
    spec = importlib.util.spec_from_file_location(
        "byte_record", ROOT / "tools" / "byte_record.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "byte_record", module)  # for its dataclass
    spec.loader.exec_module(module)
    return module


def _nudge(artifact: bytes, fmt: str, column: str, row: int) -> bytes:
    """The artifact with one cell of a float column moved up by one ulp."""
    if fmt == "json":
        doc = json.loads(artifact)
        doc[column][row] = float(np.nextafter(doc[column][row], np.inf))
        return (json.dumps(doc, sort_keys=True, indent=2) + "\n").encode("ascii")
    lines = artifact.decode("ascii").split("\n")
    index = lines[1].split(",").index(column)
    cells = lines[2 + row].split(",")
    cells[index] = "%.16e" % np.nextafter(float(cells[index]), np.inf)
    lines[2 + row] = ",".join(cells)
    return "\n".join(lines).encode("ascii")


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_byte_record_names_the_column_a_one_ulp_move_lands_in(byte_record,
                                                              tmp_path, fmt):
    out = tmp_path / f"spectra.{fmt}"
    assert main(["spectra", "--n-half=4", f"--format={fmt}", f"--out={out}"]) == 0
    run = byte_record.Run(0, "", out.read_bytes())
    assert byte_record.compare(run, run) == []
    assert _nudge(run.artifact, fmt, "s_ff_sym", 0) != run.artifact
    nudged = byte_record.Run(0, "", _nudge(run.artifact, fmt, "s_ff_sym", 3))
    found = byte_record.compare(run, nudged)
    assert len(found) == 1 and found[0].startswith("s_ff_sym: 1 of 9 cells moved")
    relative = float(found[0].split("largest ")[1].split()[0])
    assert 0.0 < relative < 1e-15


def test_byte_record_reports_exit_stderr_and_a_missing_file(byte_record):
    parent = byte_record.Run(0, "", b"# config: {}\nx\n1\n")
    change = byte_record.Run(2, "error: out of range\n", None)
    assert byte_record.compare(parent, change) == [
        "exit 0 -> 2", "stderr '' -> 'error: out of range\\n'",
        "file only on the parent"]


def _library_op(seed: int) -> dict:
    """Named arrays of the kinds a library operation saves."""
    rng = np.random.default_rng(seed)
    return {"chi_zf": rng.normal(size=9) + 1j * rng.normal(size=9),
            "uncertainty_gap": rng.normal(size=9),
            "verdicts": np.array(["quantum_limited"] * 9)}


def test_byte_record_reads_equal_arrays_identical(byte_record):
    assert byte_record.compare_arrays(_library_op(5), _library_op(5)) == []


@pytest.mark.parametrize("name", ["chi_zf", "uncertainty_gap"])
def test_byte_record_reports_a_one_ulp_move_in_one_array(byte_record, name):
    parent, change = _library_op(5), _library_op(5)
    flat = change[name].view(float)  # of a complex array, a cell's real part
    flat[8] = np.nextafter(flat[8], np.inf)
    found = byte_record.compare_arrays(parent, change)
    assert len(found) == 1 and found[0].startswith(f"{name}: 1 of 9 cells moved")
    relative = float(found[0].split("largest ")[1].split()[0])
    assert 0.0 < relative < 1e-15


FIXTURE = '''"""Module docstring,
over two lines."""

# a comment line
import os  # a trailing comment


def f(x):
    """Function docstring."""
    y = (x +  # inside parentheses
         # a comment line inside them

         1)
    "a bare string statement"
    return """a string
that spans code lines"""


class A:
    "class docstring" " joined"
    z = 1
'''


@pytest.fixture
def loc(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "tools"))
    spec = importlib.util.spec_from_file_location("loc", ROOT / "tools" / "loc.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_loc_counts_code_lines_only(loc):
    # import, def, y = (x +, 1), return and its string's second line,
    # class, z = 1
    assert loc.code_lines(FIXTURE) == 8


def test_loc_prints_each_file_and_the_total(loc, tmp_path, capsys):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "a.py").write_text(FIXTURE)
    (tmp_path / "b.py").write_text("x = 1\n\n# done\n")
    assert loc.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "     1 b.py", "     8 pkg/a.py", "     9 total"]


def _in_git_work_tree() -> bool:
    try:
        return subprocess.run(["git", "rev-parse", "--is-inside-work-tree"],
                              cwd=ROOT, capture_output=True).returncode == 0
    except OSError:  # no git at all
        return False


@pytest.mark.skipif(not _in_git_work_tree(), reason=(
    "`git rev-parse --is-inside-work-tree` fails here: this copy of the tree "
    "is not a git work tree (a `git archive` export), so it has no HEAD for "
    "--parent to export"))
def test_loc_against_head_reads_the_uncommitted_change(loc, capsys):
    # both trees' counts per file, then the change in the total: +0 for a
    # checkout whose src matches HEAD
    assert loc.main(["--parent", "HEAD"]) == 0
    *rows, total, change = capsys.readouterr().out.splitlines()
    assert loc.main([]) == 0
    assert [row.split()[1:] for row in rows] == [
        row.split() for row in capsys.readouterr().out.splitlines()[:-1]]
    parent, checkout, name = total.split()
    assert name == "total"
    assert change == f"{int(checkout) - int(parent):+6d} change in total"
    edited = subprocess.run(["git", "status", "--porcelain", "--", "src"],
                            cwd=ROOT, capture_output=True, text=True, check=True)
    if not edited.stdout.strip():
        assert change == "    +0 change in total"
        assert all(row.split()[0] == row.split()[1] for row in rows)
