"""The package surface: its exported names, its imports and its scripts."""

import ast
import gc
import re
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

import qdetnoise as q
from conftest import child_env
from qdetnoise import cli

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = ROOT / "scripts"
# one Hermitian, positive semidefinite 2x2 block as re,im cell pairs
_BLOCKS_CSV = "0.0,1.0,0.0,0.5,0.0,0.5,0.0,1.0,0.0\n"

# prepended to each fresh-process script: any import of scipy fails
_NO_SCIPY = """
import sys

class _NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ImportError("scipy is blocked")

sys.meta_path.insert(0, _NoScipy())
"""

_CLI_RUNS = """
from qdetnoise.cli import main
mech = ["mech", "--gamma=0.05", "--gbar=1e-4", "--gamma-m=1e-3", "--n-occ=2"]
small = "--n-half=8"  # read by spectra and check only
for argv in (["spectra", small], ["spectra", "--input=thermal:0.5", small],
             ["check", small], ["qubit"], mech, ["mimo-check", "--mimo-input=blocks.csv"]):
    assert main([*argv, "--out=" + argv[0] + ".csv"]) == 0, argv
"""

_NON_PASSIVE_SOLVES = """
import numpy as np
import qdetnoise as q
# A + A^dag + B B^dag = -1, so the Gramian is not the identity
nets = [q.LinearNetwork(
    drift=[[-1.0]], input_coupling=[[1.0]], output_coupling=[[1.0]],
    feedthrough=[[1.0]],
    force=q.Observable(mode_quad=[1.0, 0.0], output_quad=[0.0, 0.0]),
    readout=q.Observable(mode_quad=[0.0, 0.0], output_quad=[1.0, 0.0]))]
rng = np.random.default_rng(4)
for n in (4, 16):
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)) - 4.0 * n * np.eye(n)
    nets.append(q.LinearNetwork(
        drift=a, input_coupling=rng.normal(size=(n, 2)),
        output_coupling=rng.normal(size=(2, n)), feedthrough=np.eye(2),
        force=q.Observable(mode_quad=rng.normal(size=2 * n), output_quad=np.zeros(4)),
        readout=q.Observable(mode_quad=np.zeros(2 * n), output_quad=[1.0, 0, 0, 0]),
        input_states=q.InputState.thermal(0.5)))
grid = q.make_symmetric_grid(1.0, 4)
for net in nets:
    assert not np.allclose(net._gramian, np.eye(net.n_modes))
    chi_ff = q.solve_susceptibilities(net, grid).chi_ff
    residual = q.kubo_check(q.solve_unsym_spectra(net, grid).s_ff, chi_ff, net.units)
    # the fluctuation-dissipation identity holds off the identity Gramian
    assert np.max(np.abs(residual.values)) <= 1e-10 * np.max(np.abs(chi_ff.values.imag))
"""

_DEFECTIVE_SOLVE = """
import numpy as np
import qdetnoise as q
# a Jordan block: no eigenbasis, for the resolvent or the Gramian
net = q.LinearNetwork(
    drift=[[-1.0, 1.0], [0.0, -1.0]], input_coupling=[[1.0], [0.5]],
    output_coupling=[[1.0, 0.0]], feedthrough=[[1.0]],
    force=q.Observable(mode_quad=[1.0, 0.0, 0.0, 0.0], output_quad=[0.0, 0.0]),
    readout=q.Observable(mode_quad=[0.0, 0.0, 0.0, 0.0], output_quad=[1.0, 0.0]))
assert net._modes[1] is None
q.solve_susceptibilities(net, q.make_symmetric_grid(1.0, 4))
a, m = net.drift, net._gramian
bb = net.input_coupling @ net.input_coupling.conj().T
resid = np.max(np.abs(a @ m + m @ a.conj().T + bb))
scale = np.max(np.abs(a)) * np.max(np.abs(m)) + np.max(np.abs(bb))
assert resid <= 1e-12 * scale, resid / scale
"""


def _run_fresh(code, cwd):
    # a warning in the child fails the check, as it does in the suite
    proc = subprocess.run([sys.executable, "-X", "dev", "-W", "error", "-c", code],
                          cwd=cwd, env=child_env(), capture_output=True, text=True,
                          check=False)
    assert proc.returncode == 0, proc.stderr


def test_runtime_needs_no_scipy(tmp_path):
    (tmp_path / "blocks.csv").write_text(_BLOCKS_CSV)
    for code in (_CLI_RUNS, _NON_PASSIVE_SOLVES, _DEFECTIVE_SOLVE):
        _run_fresh(_NO_SCIPY + code, tmp_path)
    with pytest.raises(AssertionError, match="scipy is blocked"):
        _run_fresh(_NO_SCIPY + "import scipy.linalg", tmp_path)


def test_public_names_are_pinned():
    assert sorted(q.__all__) == [
        "AsymmetryResult", "CavityParams", "ComplexSpectrum",
        "ConstraintReport", "DegenerateReadoutError",
        "FrequencyGrid", "GridMismatchError", "InputState",
        "InvalidMatrixError", "LinearNetwork", "MechOscillator",
        "NormalizedSpectra", "NotAValidDetectorError", "Observable",
        "OpticalSpringInstabilityError", "QDetNoiseError",
        "QubitReadoutResult", "RunConfig", "SingularNormalizationError",
        "SpectraSet", "StabilityError", "SusceptibilitySet",
        "UnitConvention", "Verdict", "assemble_mimo_matrix",
        "asymmetry_grid", "build_one_sided_cavity", "cavity_spectra",
        "cavity_susceptibilities", "cavity_unsym_spectra",
        "closed_loop_poles", "constraint_report", "kubo_check", "main",
        "make_symmetric_grid", "mimo_quantum_limit",
        "modified_mech_susceptibility", "normalize", "optimal_angle",
        "parse_config", "parse_input_state", "passive_network",
        "qubit_rates", "sideband_asymmetry", "solve_susceptibilities",
        "solve_unsym_spectra", "symmetrize", "thermal_force_spectrum",
    ]
    for name in q.__all__:
        assert getattr(q, name) is not None, name


_LAZY_IMPORT = """
import sys
import qdetnoise as q

def loaded():
    return {name for name in sys.modules if name.startswith("qdetnoise.")}

assert loaded() == set(), loaded()
assert set(q.__all__) <= set(dir(q))
assert q.cli is sys.modules["qdetnoise.cli"]
assert q.netsolve is sys.modules["qdetnoise.netsolve"]
import qdetnoise.constraints
assert "qdetnoise.cavity" not in sys.modules
"""

# each command's runs, then the modules, numpy among them, that none of
# them may load
_COMMAND_MODULES = """
import sys
from qdetnoise.cli import main
for argv in RUNS:
    assert main([*argv, "--out=" + argv[0] + ".csv"]) == 0, argv
assert not UNUSED & sys.modules.keys(), UNUSED & sys.modules.keys()
"""


def test_import_loads_no_submodule(tmp_path):
    _run_fresh(_LAZY_IMPORT, tmp_path)


@pytest.mark.parametrize("runs,unused", [
    ([["qubit"], ["qubit", "--format=json"]],
     {"numpy", "qdetnoise.core", "qdetnoise.apps"}),
    ([["qubit"], ["mech", "--gamma=0.05", "--gbar=1e-4", "--gamma-m=1e-3"],
      ["spectra", "--n-half=8"]], {"qdetnoise.netsolve", "qdetnoise.constraints"}),
    ([["check", "--n-half=8"]], {"qdetnoise.apps", "qdetnoise.cavity"}),
    ([["mimo-check", "--mimo-input=blocks.csv"]],
     {"qdetnoise.apps", "qdetnoise.cavity", "qdetnoise.netsolve"}),
], ids=["qubit", "qubit-mech-vacuum-spectra", "check", "mimo-check"])
def test_commands_load_only_their_layers(runs, unused, tmp_path):
    (tmp_path / "blocks.csv").write_text(_BLOCKS_CSV)
    _run_fresh(f"RUNS = {runs!r}\nUNUSED = {unused!r}\n" + _COMMAND_MODULES,
               tmp_path)


def test_only_core_lends_private_names():
    # the rules several layers share live in core, and the finiteness rule
    # of the parameter records in _params; any other private name stays in
    # its module, also where a function imports it
    for path in sorted((ROOT / "src" / "qdetnoise").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (isinstance(node, ast.ImportFrom) and node.level
                    and node.module not in ("core", "_params")):
                private = [a.name for a in node.names if a.name.startswith("_")]
                assert not private, (path.name, node.module, private)


@pytest.mark.parametrize("module", ["_params", "_qubit"])
def test_numpy_free_modules_import_only_the_standard_library(module):
    # what makes _params safe to lend from, and qubit free of numpy
    path = ROOT / "src" / "qdetnoise" / f"{module}.py"
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.ImportFrom) and node.level:
            assert node.module in ("errors", "_params"), (module, node.module)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = ([node.module] if isinstance(node, ast.ImportFrom)
                     else [alias.name for alias in node.names])
            for name in names:
                assert name.split(".")[0] in sys.stdlib_module_names, (module, name)


def test_process_entry_imports_no_numpy(tmp_path):
    # the import that python -m qdetnoise makes before its command runs
    _run_fresh("""
import sys
import qdetnoise.__main__
assert "numpy" not in sys.modules
""", tmp_path)


def test_each_name_is_its_modules_object():
    for name in q.__all__:
        value = getattr(q, name)
        assert value is getattr(sys.modules[value.__module__], name), name


def test_unknown_name_is_named():
    with pytest.raises(AttributeError, match="'no_such_name'"):
        q.no_such_name


def test_main_in_process_freezes_nothing(tmp_path):
    assert gc.get_freeze_count() == 0
    assert q.main(["qubit", f"--out={tmp_path / 'qubit.csv'}"]) == 0
    assert gc.get_freeze_count() == 0


def test_process_entry_freezes_the_import(tmp_path):
    # runs the entry as python -m qdetnoise does
    _run_fresh("""
import gc, runpy, sys
sys.argv = ["qdetnoise", "qubit"]
try:
    runpy.run_module("qdetnoise", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    assert exc.code == 0, exc.code
assert gc.get_freeze_count() > 0
""", tmp_path)
    assert (tmp_path / "qubit.csv").exists()


def test_process_entry_freezes_what_the_command_loaded(tmp_path):
    # numpy loads inside check, after the first freeze; the second one, as
    # the command returns, keeps shutdown's collection off its objects
    _run_fresh("""
import gc, runpy, sys
sys.argv = ["qdetnoise", "check", "--n-half=8"]
try:
    runpy.run_module("qdetnoise", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    assert exc.code == 0, exc.code
numpy_dict = vars(sys.modules["numpy"])
assert not any(obj is numpy_dict for obj in gc.get_objects())
""", tmp_path)
    assert (tmp_path / "check.csv").exists()


@pytest.mark.parametrize("script,args,header,n_rows", [
    ("quantum_limit_sweep.py", ["--draws", "5", "--n-half", "16"],
     "gamma,delta,gbar,theta,min_gap,max_product_residual,"
     "max_correlation_residual,max_kubo_residual,min_positivity_margin,verdict",
     5),
    ("asymmetry_scan.py", ["--occupations", "1", "2", "--window-points", "401"],
     "n_occ,area_red,area_blue,ratio,predicted,rel_error", 2),
], ids=["quantum_limit_sweep", "asymmetry_scan"])
def test_script_runs(script, args, header, n_rows, tmp_path, monkeypatch,
                     capsys):
    out = tmp_path / "out.csv"
    monkeypatch.setattr(sys, "argv", [script, *args, "--out", str(out)])
    with pytest.raises(SystemExit) as exit_info:
        runpy.run_path(str(SCRIPTS / script), run_name="__main__")
    assert exit_info.value.code == 0, capsys.readouterr()
    lines = out.read_text().splitlines()
    assert lines[0] == header
    assert len(lines) == 1 + n_rows


def test_readme_examples_run(capsys):
    # the README's python blocks run in order, in one namespace, so no
    # deleted name lingers in the docs
    blocks = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(),
                        flags=re.DOTALL)
    assert len(blocks) == 2
    namespace = {}
    for block in blocks:
        exec(compile(block, "README.md", "exec"), namespace)
    out = capsys.readouterr().out
    assert "above_limit" in out


def test_readme_flag_table_matches_the_cli():
    # the README's table of the flags each command reads, against the
    # table main enforces
    rows = re.findall(r"^\| `([a-z-]+)` \| `([^`]*)` \|$",
                      (ROOT / "README.md").read_text(), flags=re.MULTILINE)
    options = {field.name: cli._flag(field) for field in cli._OPTIONS}
    assert {command: flags.split() for command, flags in rows} == {
        command: [options[name] for name in options if name in reads]
        for command, (_, reads) in cli._COMMANDS.items()}
