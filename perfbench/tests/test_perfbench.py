"""Tests of the benchmark itself: oracles, tracing arithmetic, smoke runs.

    python3 -m pytest perfbench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import qdetnoise as q
import run
import workloads
from oracles import CliOracle, OracleError
from tracing import SpanTable, layer_metrics, scipy_import_s, split_by_op

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture
def artifacts(tmp_path, monkeypatch):
    """The cli-small cycle of one seed, run in-process: {key: (op, bytes)}.

    In draw 0 the checks of pure inputs are csv, the thermal check json.
    """
    monkeypatch.chdir(tmp_path)
    out = {}
    for op in workloads.build("cli-small", 3).ops:
        assert q.cli.main(list(op.argv)) == 0
        out[op.key] = (op, (tmp_path / op.out).read_bytes())
    return out


def test_every_artifact_passes_its_oracle(artifacts):
    oracle = CliOracle(q, {})
    for op, data in artifacts.values():
        oracle.check(op, 0, data)


@pytest.mark.parametrize("key, corrupt", [
    ("check-squeezed-0", lambda b: b.replace(b"quantum_limited", b"above_limit", 1)),
    ("check-thermal-0", lambda b: b.replace(b'"above_limit"', b'"quantum_limited"', 1)),
    ("check-squeezed-0", lambda b: b[:-40] + b"\n"),                  # truncated row
    ("spectra-thermal-0", lambda b: b[:b.rindex(b"\n", 0, -1) + 1]),  # missing row
    ("spectra-vacuum-0", lambda b: b.replace(b"e-0", b"e-1", 1)),     # wrong value
    ("mech-0", lambda b: b.replace(b'"ratio": ', b'"ratio": 1', 1)),
    ("qubit-0", lambda b: b.replace(b'"n_half":100', b'"n_half":101', 1)),  # echo
])
def test_corrupted_artifact_is_counted_failed(artifacts, key, corrupt):
    op, data = artifacts[key]
    bad = corrupt(data)
    assert bad != data
    with pytest.raises(OracleError):
        CliOracle(q, {}).check(op, 0, bad)


def test_wrong_exit_code_or_missing_artifact_is_counted_failed(artifacts):
    op, data = artifacts["check-vacuum-0"]
    with pytest.raises(OracleError, match="exit code"):
        CliOracle(q, {}).check(op, 3, data)
    with pytest.raises(OracleError, match="not written"):
        CliOracle(q, {}).check(op, 0, None)


def test_repeat_with_different_bytes_is_counted_failed(tmp_path):
    bench = run.Bench(q, "cli-small", 1, 1.0, True, tmp_path)
    first = bench.finish({"key": "k", "ok": True, "digest": "a"}, 1)
    again = bench.finish({"key": "k", "ok": True, "digest": "b"}, 1)
    other_seed = bench.finish({"key": "k", "ok": True, "digest": "b"}, 2)
    assert first["ok"] and not again["ok"] and other_seed["ok"]


def test_spawned_child_reports_its_own_peak_rss(tmp_path):
    # The benchmark holds large inputs; exec keeps the spawning process's
    # peak RSS, so children must not be spawned by the benchmark itself.
    ballast = bytearray(256 << 20)
    ballast[::4096] = b"\x01" * len(range(0, len(ballast), 4096))
    bench = run.CliBench(q, "cli-small", 1, 1.0, True, tmp_path)
    with bench.spawning():
        rc, _, rss_mb, _ = bench.spawn([sys.executable, "-c", "pass"])
    assert rc == 0 and rss_mb < 64


def test_same_seed_gives_same_inputs():
    for name in workloads.BUILDERS:
        a, b = workloads.build(name, 5, smoke=True), workloads.build(name, 5, smoke=True)
        c = workloads.build(name, 6, smoke=True)
        assert repr(a.ops) == repr(b.ops)
        assert repr(a.ops) != repr(c.ops)
        assert [op.key for op in a.ops] == [op.key for op in c.ops]


def test_tail_needs_ten_samples_beyond():
    assert run.tail([3.0, 1.0, 2.0]) == (pytest.approx(2.8), 90.0, 0)
    value, pct, beyond = run.tail([float(i) for i in range(100)])
    assert (value, pct, beyond) == (89.0, 90.0, 10)


def test_self_times_and_layer_sums():
    # cli.main 0..10 encloses constraint_report 2..8, which encloses symmetrize 3..4.
    spans = [["cli.main", 0.0, 10.0, -1, 0, False, 0],
             ["constraints.constraint_report", 2.0, 8.0, 0, 0, False, 129],
             ["netsolve.symmetrize", 3.0, 4.0, 1, 0, False, 0]]
    table = SpanTable(spans)
    assert table.self_time == [4.0, 5.0, 1.0]
    op = {"wall": 12.0, "spans": spans, "import_s": 1.5, "import_scipy_s": 1.0,
          "bytes_in": 0, "bytes_out": 100}
    m = layer_metrics([op, op], untraced_wall=20.0, artifact_changed=0)
    assert m["cli.self_s"] == 4.0
    assert m["constraints.constraint_report_self_s"] == 5.0
    assert m["constraints.verdict_points"] == 129
    assert m["cli.process_other_s"] == 12.0 - 1.5 - 10.0
    assert m["trace.accounted_ratio"] == pytest.approx(1.0)
    assert m["trace.overhead_ratio"] == pytest.approx(24.0 / 20.0)


def test_split_by_op_reindexes_parents():
    spans = [["a.f", 0, 1, -1, 7, False, 0], ["a.g", 2, 5, -1, 8, False, 0],
             ["a.h", 3, 4, 1, 8, False, 0]]
    groups = split_by_op(spans)
    assert groups[7] == [spans[0]]
    assert groups[8][1][3] == 0


def test_scipy_share_counts_outermost_scipy_imports_once():
    log = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |     scipy._lib",
        "import time:       200 |        300 |   scipy",
        "import time:        50 |         50 |       scipy.linalg._x",
        "import time:        10 |         60 |     scipy.linalg",
        "import time:         5 |         65 |   qdetnoise.netsolve",
        "import time:        20 |        385 | qdetnoise",
    ])
    assert scipy_import_s(log) == pytest.approx(360e-6)


def _bench(tmp_path: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=tmp_path,
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_runs_every_workload_end_to_end(workload, trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "2",
         "--seconds", "1", "--trace", trace, "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    env = json.loads(lines[0].removeprefix("# env: "))
    assert {"nproc", "python", "numpy", "scipy"} <= set(env)
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted}
    if trace == "0":
        printed = {line.split()[0] for line in lines[2:-1]}
        assert printed == {"op_time_ref", "ops_per_s", "op_p50_s", "op_tail_s", "peak_rss_mb",
                           "setup_s", "fail_ratio"}
    else:
        # Self times cover the traced operations and nothing outside them.
        assert 0.5 < result["metrics"]["trace.accounted_ratio"]["value"] <= 1 + 1e-9


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench(tmp_path, "--workload", "cli-small", "--seed", "1", "--seconds", "1",
                  "--trace", "0")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
