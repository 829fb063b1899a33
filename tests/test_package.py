"""The package surface: its exported names and the scripts built on it."""

import runpy
import sys
from pathlib import Path

import pytest

import qdetnoise as q

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def test_public_names_are_pinned():
    assert sorted(q.__all__) == [
        "AsymmetryResult", "CavityParams", "ComplexSpectrum",
        "ConstraintReport", "CouplingSpec", "DegenerateReadoutError",
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
        "positivity_margin", "quantum_limit_residuals", "qubit_rates",
        "response_denominator", "sideband_asymmetry",
        "solve_susceptibilities", "solve_unsym_spectra", "symmetrize",
        "thermal_force_spectrum", "total_output_spectrum",
        "uncertainty_gap", "uncertainty_gap_branches",
    ]
    for name in q.__all__:
        assert getattr(q, name) is not None, name


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
