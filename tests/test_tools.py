"""The measuring tools: the pair runner rejects a bad plan before it runs
anything, and the CLI layer table times the writer inside the process."""

import importlib.util
from pathlib import Path

import pytest

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
    row = cli_layers.measure(ROOT / "src", tmp_path,
                             ("qubit", "--format=json", "--out=q.json"), 1)
    assert row["exit"] == 0 and (tmp_path / "q.json").exists()
    assert all(row[name] > 0.0 for name in cli_layers.COLUMNS)


def test_cli_layers_needs_one_repeat(cli_layers, capsys):
    with pytest.raises(SystemExit) as exit_info:
        cli_layers.main(["--repeat", "0"])
    assert exit_info.value.code == 2
    assert "at least 1" in capsys.readouterr().err
