"""Command-line interface: config round-trips, file outputs, exit codes."""

import dataclasses
import json
import math
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import qdetnoise as q
from conftest import child_env
from qdetnoise import cli
from qdetnoise.cli import RunConfig, main, parse_config, parse_input_state


def read_csv(path):
    """Return (config_dict, column_name -> list-of-cells) for one output file."""
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# config: ")
    config = json.loads(lines[0][len("# config: "):])
    names = lines[1].split(",")
    cols = {name: [] for name in names}
    for line in lines[2:]:
        for name, cell in zip(names, line.split(",")):
            cols[name].append(cell)
    return config, cols


def floats(cells):
    return [float(c) for c in cells]


class TestRunConfig:
    def test_defaults_are_the_canonical_point(self):
        cfg = RunConfig(command="spectra")
        assert (cfg.gamma, cfg.delta, cfg.gbar) == (2.0, 0.0, 1.0)
        assert cfg.theta == math.pi / 2
        assert cfg.input_state == "vacuum"

    def test_unknown_command_rejected(self):
        with pytest.raises(ValueError):
            RunConfig(command="flood")

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError):
            RunConfig(command="spectra", fmt="xml")

    @pytest.mark.parametrize("cfg", [
        RunConfig(command="spectra"),
        RunConfig(command="check", gamma=0.731, delta=-2.25, theta=-1.1,
                  input_state="thermal:1.5", fmt="json"),
        RunConfig(command="qubit", gbar=1e-6, theta=0.0),
        RunConfig(command="mech", gamma=0.05, gbar=7e-6, n_occ=2.0,
                  window_halfwidth=25.0, window_points=999,
                  out="deep/dir/file.csv"),
        RunConfig(command="mimo-check", mimo_input="blocks.csv",
                  single_sided=True),
        RunConfig(command="spectra", omega_max=math.pi, n_half=7,
                  input_state="squeezed:0.4,2.1", single_sided=True,
                  fmt="json", out="x.json"),
    ])
    def test_argv_round_trip(self, cfg):
        assert parse_config(cfg.to_argv()) == cfg

    def test_round_trip_survives_awkward_floats(self):
        cfg = RunConfig(command="qubit", gamma=3.0000000000000004,
                        delta=-1e-308, theta=0.1 + 0.2)
        assert parse_config(cfg.to_argv()) == cfg

    @pytest.mark.parametrize("field,value", [
        ("delta", math.nan), ("gamma", math.inf), ("n_occ", -math.inf)])
    def test_non_finite_floats_rejected(self, field, value):
        with pytest.raises(ValueError, match="finite"):
            RunConfig(command="qubit", **{field: value})


# The long options every command accepts.  Scripts and replayed runs
# depend on these spellings, so the parser derived from RunConfig must keep
# each of them.
CLI_FLAGS = {
    "--gamma", "--delta", "--gbar", "--theta", "--omega-max", "--n-half",
    "--input", "--omega-m", "--gamma-m", "--mass", "--n-occ",
    "--window-halfwidth", "--window-points", "--single-sided", "--format",
    "--out", "--mimo-input"}


def test_flag_spelling_is_pinned():
    parser = cli.build_parser()
    (command,) = [action for action in parser._actions if not action.option_strings]
    assert command.dest == "command"
    assert set(command.choices) == {
        "spectra", "check", "qubit", "mech", "mimo-check"}
    flags = {opt for action in parser._actions for opt in action.option_strings
             if opt.startswith("--")}
    assert flags - {"--help"} == CLI_FLAGS


def test_options_may_precede_the_command():
    after = parse_config(["check", "--gamma=0.5", "--input=thermal:1", "--n-half=3"])
    before = parse_config(["--gamma=0.5", "--input=thermal:1", "check", "--n-half=3"])
    assert before == after == RunConfig(command="check", gamma=0.5,
                                        input_state="thermal:1", n_half=3)


def _non_default(field):
    if isinstance(field.default, bool):
        return True
    if field.default is None:
        return "x.csv"
    if field.name == "input_state":
        return "thermal:1"
    return field.default + 1


# every (command, RunConfig field it does not read), from the command table
UNREAD = [(command, field, _non_default(field))
          for command, (_, reads) in cli._COMMANDS.items()
          for field in dataclasses.fields(RunConfig)[1:]
          if field.name not in (*reads, "fmt", "out")]


class TestUnreadFlags:
    def test_each_command_takes_only_what_it_reads(self):
        # 15 fields besides --format and --out, over five commands
        assert len(UNREAD) == 46

    @pytest.mark.parametrize("command,field,value", UNREAD,
                             ids=[f"{c}-{f.name}" for c, f, _ in UNREAD])
    def test_non_default_value_exits_2(self, tmp_path, capsys, command, field,
                                       value):
        out = tmp_path / "x.csv"
        cfg = RunConfig(command, out=str(out), **{field.name: value})
        assert main(cfg.to_argv()) == 2
        assert capsys.readouterr().err == (
            f"error: {cli._flag(field)} has no effect on {command}\n")
        assert not out.exists()

    def test_explicit_default_is_accepted(self, tmp_path):
        out = tmp_path / "q.csv"
        assert main(["qubit", "--n-half=100", "--input=vacuum", f"--out={out}"]) == 0
        assert out.exists()


class TestParseInputState:
    def test_vacuum(self):
        assert parse_input_state("vacuum") == q.InputState.vacuum()

    def test_thermal(self):
        state = parse_input_state("thermal:1.5")
        assert state.kind == "thermal"
        assert state.moments() == (1.5, 0.0)

    def test_squeezed_polar_form(self):
        state = parse_input_state("squeezed:0.5,1.2")
        assert state.kind == "squeezed"
        expect = q.InputState.squeezed(0.5 * np.exp(1.2j))
        assert state.moments() == pytest.approx(expect.moments())

    @pytest.mark.parametrize("spec, r, phi", [
        ("squeezed:0.7,0.3", 0.7, 0.3), ("squeezed:0,1.0", 0.0, 1.0),
        ("squeezed:0.5,-2.84", 0.5, -2.84)])
    def test_squeezed_stores_r_and_phi(self, spec, r, phi):
        # no detour through r e^{i phi}, which moved r by an ulp and lost
        # phi at r = 0
        assert parse_input_state(spec) == q.InputState(0.0, r, phi)

    @pytest.mark.parametrize("bad", [
        "coherent", "thermal", "thermal:x", "squeezed:0.5", "squeezed:1,2,3",
        "thermal:inf", "thermal:nan", "squeezed:nan,0", "squeezed:-0.5,0.3"])
    def test_rejects_malformed_specs(self, bad):
        with pytest.raises(ValueError):
            parse_input_state(bad)


class TestOutputPaths:
    def test_default_name_is_command_dot_format(self):
        assert str(cli._output_path(RunConfig(command="check"))) == "check.csv"
        assert str(cli._output_path(
            RunConfig(command="qubit", fmt="json"))) == "qubit.json"

    def test_explicit_out_wins(self, tmp_path):
        out = tmp_path / "custom.csv"
        cfg = RunConfig(command="qubit", out=str(out))
        assert cli._output_path(cfg) == out


class TestSpectraCommand:
    def test_grid_layout_and_zero_row(self, tmp_path):
        out = tmp_path / "s.csv"
        assert main(["spectra", "--out", str(out)]) == 0
        config, cols = read_csv(out)
        assert config["command"] == "spectra"
        omega = floats(cols["omega"])
        assert len(omega) == 201
        assert omega[0] == -5.0 and omega[-1] == 5.0 and omega[100] == 0.0
        assert floats(cols["imprecision"])[100] == pytest.approx(0.25,
                                                                 rel=1e-12)
        assert list(cols) == [
            "omega", "chi_zf_re", "chi_zf_im", "chi_ff_re", "chi_ff_im",
            "s_zz_sym", "s_zf_sym_re", "s_zf_sym_im", "s_ff_sym",
            "imprecision", "cross_re", "cross_im"]

    def test_matches_library_closed_forms(self, tmp_path):
        out = tmp_path / "s.csv"
        argv = ["spectra", "--gamma", "1.3", "--delta", "0.4",
                "--gbar", "0.9", "--theta", "0.2", "--out", str(out)]
        assert main(argv) == 0
        _, cols = read_csv(out)
        params = q.CavityParams(gamma=1.3, delta=0.4, gbar=0.9, theta=0.2)
        grid = q.make_symmetric_grid(5.0, 100)
        sym = q.cavity_spectra(params, grid)
        assert np.allclose(floats(cols["s_ff_sym"]), sym.s_ff.values.real,
                           rtol=1e-14)

    def test_json_equals_csv_numbers(self, tmp_path):
        base = ["spectra", "--gamma", "0.7", "--delta", "-0.9",
                "--input", "thermal:0.5", "--n-half", "16"]
        csv_out, json_out = tmp_path / "s.csv", tmp_path / "s.json"
        assert main(base + ["--format", "csv", "--out", str(csv_out)]) == 0
        assert main(base + ["--format", "json", "--out", str(json_out)]) == 0
        _, cols = read_csv(csv_out)
        doc = json.loads(json_out.read_text())
        for name in cols:
            assert doc[name] == floats(cols[name]), name

    def test_zero_occupation_and_squeezing_write_vacuum(self, tmp_path):
        # thermal:0 and squeezed:0,phi are the vacuum state, so they take the
        # closed-form route and write vacuum's numbers
        base = ["spectra", "--delta", "0.5", "--theta", "0.4", "--n-half", "32"]
        bodies, docs = [], []
        for spec in ("vacuum", "thermal:0", "squeezed:0,1.3"):
            csv_out, json_out = tmp_path / "s.csv", tmp_path / "s.json"
            assert main(base + [f"--input={spec}", f"--out={csv_out}"]) == 0
            assert main(base + [f"--input={spec}", "--format=json",
                                f"--out={json_out}"]) == 0
            bodies.append(csv_out.read_bytes().split(b"\n", 1)[1])
            doc = json.loads(json_out.read_text())
            assert doc.pop("config")["input_state"] == spec
            docs.append(doc)
        assert bodies[1] == bodies[0] and bodies[2] == bodies[0]
        assert docs[1] == docs[0] and docs[2] == docs[0]

    def test_single_sided_folds_densities(self, tmp_path):
        two, one = tmp_path / "two.csv", tmp_path / "one.csv"
        base = ["spectra", "--delta", "0.8", "--theta", "0.3", "--n-half", "20"]
        assert main(base + ["--out", str(two)]) == 0
        assert main(base + ["--single-sided", "--out", str(one)]) == 0
        _, cols2 = read_csv(two)
        _, cols1 = read_csv(one)
        assert len(cols1["omega"]) == 21
        assert floats(cols1["omega"])[0] == 0.0
        # densities double, response functions do not
        assert floats(cols1["s_ff_sym"]) == [
            2.0 * v for v in floats(cols2["s_ff_sym"])[20:]]
        assert floats(cols1["s_zz_sym"])[0] == 2.0 * 0.5
        assert floats(cols1["chi_zf_re"]) == floats(cols2["chi_zf_re"])[20:]
        assert floats(cols1["imprecision"]) == [
            2.0 * v for v in floats(cols2["imprecision"])[20:]]


class TestCheckCommand:
    def test_vacuum_is_quantum_limited(self, tmp_path):
        out = tmp_path / "c.json"
        argv = ["check", "--delta", "0.5", "--format", "json",
                "--out", str(out)]
        assert main(argv) == 0
        doc = json.loads(out.read_text())
        assert doc["worst_verdict"] == "quantum_limited"
        assert set(doc["verdict"]) == {"quantum_limited"}
        assert max(abs(v) for v in doc["uncertainty_gap"]) < 1e-12

    def test_thermal_sits_above_the_limit(self, tmp_path):
        out = tmp_path / "c.json"
        argv = ["check", "--input", "thermal:1", "--format", "json",
                "--out", str(out)]
        assert main(argv) == 0
        doc = json.loads(out.read_text())
        assert doc["worst_verdict"] == "above_limit"
        assert min(doc["uncertainty_gap"]) > 0.0

    def test_csv_verdict_column_is_text(self, tmp_path):
        out = tmp_path / "c.csv"
        assert main(["check", "--n-half", "4", "--out", str(out)]) == 0
        _, cols = read_csv(out)
        assert cols["verdict"] == ["quantum_limited"] * 9


class TestQubitCommand:
    def test_canonical_rates(self, tmp_path):
        out = tmp_path / "q.json"
        assert main(["qubit", "--format", "json", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["gamma_meas"] == pytest.approx(2.0, rel=1e-12)
        assert doc["gamma_phi"] == pytest.approx(2.0, rel=1e-12)
        assert doc["ratio"] == pytest.approx(1.0, rel=1e-12)

    def test_single_row_csv(self, tmp_path):
        out = tmp_path / "q.csv"
        assert main(["qubit", "--out", str(out)]) == 0
        _, cols = read_csv(out)
        assert list(cols) == ["gamma_meas", "gamma_phi", "ratio", "theta_opt"]
        assert all(len(v) == 1 for v in cols.values())

    def test_degenerate_angle_exits_4(self, tmp_path, capsys):
        out = tmp_path / "q.csv"
        code = main(["qubit", "--delta", "0", "--theta", "0",
                     "--out", str(out)])
        assert code == 4
        assert "error:" in capsys.readouterr().err
        assert not out.exists()


class TestMechCommand:
    ARGS = ["mech", "--gamma", "0.05", "--gbar", "7e-6", "--n-occ", "2",
            "--window-points", "2001"]

    def test_ratio_reads_occupation(self, tmp_path):
        out = tmp_path / "m.json"
        assert main(self.ARGS + ["--format", "json", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["ratio"] == pytest.approx(1.5, rel=2e-2)
        assert len(doc["omega"]) == 2001

    def test_csv_repeats_scalar_columns(self, tmp_path):
        out = tmp_path / "m.csv"
        assert main(self.ARGS + ["--out", str(out)]) == 0
        _, cols = read_csv(out)
        assert len(set(cols["ratio"])) == 1
        assert float(cols["ratio"][0]) == pytest.approx(1.5, rel=2e-2)

    def test_ground_state_emits_json_infinity(self, tmp_path):
        out = tmp_path / "m.json"
        argv = ["mech", "--gamma", "0.05", "--gbar", "7e-6", "--n-occ", "0",
                "--window-points", "801", "--format", "json",
                "--out", str(out)]
        assert main(argv) == 0
        assert math.isinf(json.loads(out.read_text())["ratio"])

    def test_unstable_spring_exits_4(self, tmp_path, capsys):
        out = tmp_path / "m.csv"
        code = main(["mech", "--gamma", "0.05", "--gbar", "1e-2",
                     "--n-occ", "1", "--out", str(out)])
        assert code == 4
        assert "decay" in capsys.readouterr().err

    def test_too_narrow_window_exits_2(self, tmp_path, capsys):
        out = tmp_path / "m.csv"
        code = main(self.ARGS[:-2] + ["--window-halfwidth", "1.0",
                                      "--out", str(out)])
        assert code == 2
        assert "linewidth" in capsys.readouterr().err

    def test_one_point_window_exits_2(self, tmp_path, capsys):
        out = tmp_path / "m.csv"
        code = main(self.ARGS[:-2] + ["--window-points=1", "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: window_points must be a whole number of at least 2, got 1\n")
        assert not out.exists()


def write_mimo_file(path, sets):
    mat = q.assemble_mimo_matrix(sets)
    grid = sets[0].grid
    dim = mat.shape[1]
    lines = ["omega," + ",".join(
        f"m{i}{j}_re,m{i}{j}_im" for i in range(dim) for j in range(dim))]
    for k, w in enumerate(grid.points):
        cells = [repr(float(w))]
        for i in range(dim):
            for j in range(dim):
                cells.append(repr(float(mat[k, i, j].real)))
                cells.append(repr(float(mat[k, i, j].imag)))
        lines.append(",".join(cells))
    path.write_text("\n".join(lines) + "\n")
    return mat


class TestMimoCheckCommand:
    @pytest.fixture
    def vacuum_file(self, tmp_path, generic_params):
        grid = q.make_symmetric_grid(3.0, 8)
        net = q.build_one_sided_cavity(generic_params)
        sets = [q.solve_unsym_spectra(net, grid)]
        path = tmp_path / "blocks.csv"
        write_mimo_file(path, sets)
        return path

    def test_vacuum_blocks_quantum_limited(self, tmp_path, vacuum_file):
        out = tmp_path / "v.json"
        argv = ["mimo-check", "--mimo-input", str(vacuum_file),
                "--format", "json", "--out", str(out)]
        assert main(argv) == 0
        doc = json.loads(out.read_text())
        assert doc["worst_verdict"] == "quantum_limited"
        assert len(doc["det"]) == 17

    def test_thermal_blocks_above_limit(self, tmp_path, generic_params):
        grid = q.make_symmetric_grid(3.0, 8)
        net = q.build_one_sided_cavity(
            generic_params, input_state=q.InputState.thermal(1.0))
        path = tmp_path / "blocks.csv"
        write_mimo_file(path, [q.solve_unsym_spectra(net, grid)])
        out = tmp_path / "t.json"
        argv = ["mimo-check", "--mimo-input", str(path),
                "--format", "json", "--out", str(out)]
        assert main(argv) == 0
        assert json.loads(out.read_text())["worst_verdict"] == "above_limit"

    def test_corrupted_file_exits_3(self, tmp_path, vacuum_file, capsys):
        # break Hermiticity; then a NaN cell, which every tolerance misses;
        # then an infinite imaginary part
        for index, corrupt in ((3, lambda cell: repr(float(cell) + 0.2)),
                               (3, lambda _: "nan"), (4, lambda _: "inf")):
            lines = vacuum_file.read_text().splitlines()
            cells = lines[5].split(",")
            cells[index] = corrupt(cells[index])
            lines[5] = ",".join(cells)
            bad = tmp_path / "bad.csv"
            bad.write_text("\n".join(lines) + "\n")
            out = tmp_path / "b.csv"
            code = main(["mimo-check", "--mimo-input", str(bad),
                         "--out", str(out)])
            assert code == 3
            assert capsys.readouterr().err.startswith("error: violation:")
            assert not out.exists()

    def test_missing_input_exits_2(self, tmp_path, capsys):
        code = main(["mimo-check", "--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert "mimo-input" in capsys.readouterr().err

    def test_ragged_rows_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "ragged.csv"
        bad.write_text("0.0," + ",".join(["1.0"] * 8) + "\n0.1,1.0\n")
        code = main(["mimo-check", "--mimo-input", str(bad),
                     "--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert "ragged" in capsys.readouterr().err

    def test_non_numeric_cell_exits_2(self, tmp_path, vacuum_file, capsys):
        lines = vacuum_file.read_text().splitlines()
        cells = lines[3].split(",")
        cells[4] = "1.0x"
        lines[3] = ",".join(cells)
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(lines) + "\n")
        out = tmp_path / "x.csv"
        code = main(["mimo-check", "--mimo-input", str(bad), "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "'1.0x'" in err
        assert not out.exists()

    def test_header_only_file_exits_2(self, tmp_path, vacuum_file, capsys):
        bad = tmp_path / "header.csv"
        bad.write_text(vacuum_file.read_text().splitlines()[0] + "\n")
        out = tmp_path / "x.csv"
        code = main(["mimo-check", "--mimo-input", str(bad), "--out", str(out)])
        assert code == 2
        assert "no data rows" in capsys.readouterr().err
        assert not out.exists()

    def test_crlf_blank_and_comment_lines_are_ignored(self, tmp_path, vacuum_file):
        lines = vacuum_file.read_text().splitlines()
        noisy = tmp_path / "noisy.csv"
        noisy.write_bytes("\r\n".join(
            ["# generated blocks", lines[0], "", *lines[1:5], "  ", "# more",
             *lines[5:], ""]).encode("utf-8"))
        outputs = []
        for src in (vacuum_file, noisy):
            out = tmp_path / f"{src.stem}.csv"
            assert main(["mimo-check", f"--mimo-input={src}", f"--out={out}"]) == 0
            outputs.append(out.read_bytes().split(b"\n", 1)[1])  # after the config
        assert outputs[0] == outputs[1]

    def test_wide_eigenvalue_spread_is_accepted(self, tmp_path):
        # valid blocks whose (trace/dim)**dim overflows float64 although their
        # entries and determinants do not
        rows = []
        for omega, a in ((0.0, 1e300), (1.0, 1e160)):
            block = np.diag([a, 1 / a, a, 1 / a]).astype(complex)
            rows.append(",".join([repr(omega)] + [repr(float(x)) for c in block.ravel()
                                                  for x in (c.real, c.imag)]))
        src = tmp_path / "wide.csv"
        src.write_text("\n".join(rows) + "\n")
        out = tmp_path / "wide.json"
        argv = ["mimo-check", f"--mimo-input={src}", "--format=json", f"--out={out}"]
        assert main(argv) == 0
        written = json.loads(out.read_text())
        assert written["verdict"] == ["quantum_limited"] * 2
        # the ascending eigenvalue product of the 1e160 block is subnormal
        assert written["det"][1] == 1.0

    @pytest.mark.parametrize("width", [7, 10])
    def test_row_width_without_a_block_exits_2(self, tmp_path, capsys, width):
        # narrower than omega and one 2x2 block, or an unpaired re/im cell
        bad = tmp_path / "narrow.csv"
        bad.write_text(",".join(["0.0"] * width) + "\n")
        out = tmp_path / "x.csv"
        code = main(["mimo-check", "--mimo-input", str(bad), "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: each MIMO row must hold omega plus re,im pairs of a 2Nx2N block\n")
        assert not out.exists()

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_omega_exits_2(self, tmp_path, vacuum_file, capsys, cell):
        lines = vacuum_file.read_text().splitlines()
        lines[3] = ",".join([cell, *lines[3].split(",")[1:]])
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(lines) + "\n")
        out = tmp_path / "x.csv"
        code = main(["mimo-check", "--mimo-input", str(bad), "--out", str(out)])
        assert code == 2
        # the header line is not a data row
        assert capsys.readouterr().err == (
            f"error: omega is not finite in data row 3 of {bad}\n")
        assert not out.exists()

    def test_odd_block_dimension_exits_2(self, tmp_path, capsys):
        # 9 cells = 3x3 block: square but odd, so not quadrature pairs
        bad = tmp_path / "odd.csv"
        row = "0.0," + ",".join(["1.0", "0.0"] * 9)
        bad.write_text(row + "\n")
        code = main(["mimo-check", "--mimo-input", str(bad),
                     "--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert "even" in capsys.readouterr().err



def write_psd_rows(path, rows, seed=0):
    """A MIMO file of ``rows`` Hermitian positive semidefinite 4x4 blocks,
    with a header line; returns its lines."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((rows, 4, 4)) + 1j * rng.standard_normal((rows, 4, 4))
    mat = x @ np.conj(np.swapaxes(x, 1, 2))
    mat = 0.5 * (mat + np.conj(np.swapaxes(mat, 1, 2)))
    data = np.empty((rows, 33))
    data[:, 0] = np.linspace(-5.0, 5.0, rows)
    data[:, 1::2] = mat.reshape(rows, 16).real
    data[:, 2::2] = mat.reshape(rows, 16).imag
    lines = ["omega," + ",".join(f"m{i}_re,m{i}_im" for i in range(16))]
    lines += [",".join(map(repr, row)) for row in data.tolist()]
    path.write_text("\n".join(lines) + "\n")
    return lines


class TestStreamedMimoReader:
    """The reader streams the rows into the parser; on long files each
    fault still exits 2 with its own message and writes no file."""

    GOOD = 5000

    @pytest.fixture
    def good_lines(self, tmp_path):
        return write_psd_rows(tmp_path / "good.csv", self.GOOD)

    def exits_2(self, tmp_path, capsys, lines, message):
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(lines) + "\n")
        out = tmp_path / "x.csv"
        assert main(["mimo-check", f"--mimo-input={bad}", f"--out={out}"]) == 2
        assert capsys.readouterr().err == f"error: {message.format(bad)}\n"
        assert not out.exists()

    def test_ragged_row_after_the_good_rows(self, tmp_path, capsys, good_lines):
        self.exits_2(tmp_path, capsys, [*good_lines, "0.1,1.0"],
                     "ragged MIMO input: rows differ in column count")

    def test_non_finite_omega_in_a_late_row(self, tmp_path, capsys, good_lines):
        late = ["nan", *good_lines[self.GOOD].split(",")[1:]]
        self.exits_2(tmp_path, capsys, [*good_lines, ",".join(late)],
                     f"omega is not finite in data row {self.GOOD + 1} of {{}}")

    def test_header_and_comments_only(self, tmp_path, capsys, good_lines):
        self.exits_2(tmp_path, capsys, [good_lines[0], *["# none", ""] * self.GOOD],
                     "no data rows in MIMO input {}")

    def test_long_file_is_read_whole(self, tmp_path, good_lines):
        out = tmp_path / "m.json"
        argv = ["mimo-check", f"--mimo-input={tmp_path / 'good.csv'}",
                "--format=json", f"--out={out}"]
        assert main(argv) == 0
        assert len(json.loads(out.read_text())["det"]) == self.GOOD


def test_mimo_read_and_check_hold_little_beside_the_array(tmp_path):
    # the reader streams the lines into the parser and the check forms its
    # per-row scale and Hermiticity defect a block of rows at a time: 1.1 and
    # 1.4 times the parsed array, against 3.5 and 3.0 with a list of every
    # line and whole-stack temporaries
    path = tmp_path / "blocks.csv"
    write_psd_rows(path, 20_000)
    tracemalloc.start()
    try:
        omega, blocks = cli._read_mimo_blocks(path)
        read = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        q.mimo_quantum_limit(blocks)
        check = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    parsed = 8 * omega.size * (1 + 2 * blocks[0].size)
    assert read <= 1.6 * parsed, read / parsed
    assert check <= 1.6 * parsed, check / parsed


class TestExitCodes:
    def test_invalid_cavity_params_exit_2(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        for argv in (["spectra", "--gamma", "-1"],
                     ["qubit", "--delta=nan"],
                     ["spectra", "--gamma=inf"],
                     ["spectra", "--input=thermal:inf"],
                     ["spectra", "--input=squeezed:nan,0"],
                     # finite inputs whose moments or gap overflow float64
                     ["spectra", "--input=squeezed:800,0", "--n-half=4"],
                     ["check", "--input=thermal:1e200", "--n-half=4"],
                     # a table longer than one block of streamed rows
                     ["check", "--input=thermal:1e200",
                      f"--n-half={cli._CHUNK_ROWS}"]):
            code = main(argv + ["--out", str(out)])
            assert code == 2, argv
            assert "error:" in capsys.readouterr().err
            assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["spectra", "--gbar=1e200", "--n-half=2"],
        ["qubit", "--gbar=1e200"],
        ["mimo-check", "--mimo-input={blocks}"],
    ], ids=["spectra", "qubit", "mimo-check"])
    def test_overflowing_results_exit_2(self, tmp_path, capsys, argv):
        # finite configurations whose rates, responses or determinants overflow
        blocks, out = tmp_path / "blocks.csv", tmp_path / "x.csv"
        cells = np.diag([1e90] * 4).ravel()  # det = 1e360
        blocks.write_text(",".join(["0.0"] + [f"{c!r},0.0" for c in cells.tolist()])
                          + "\n")
        code = main([arg.format(blocks=blocks) for arg in argv]
                    + ["--out", str(out)])
        assert code == 2
        assert "overflows float64" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["spectra", "--gbar=1e200", "--input=thermal:1", "--n-half=2"],
        ["check", "--gbar=1e200", "--n-half=2"],
    ], ids=["spectra", "check"])
    def test_overflowing_engine_results_exit_2(self, tmp_path, capsys, argv):
        out = tmp_path / "x.csv"
        code = main(argv + [f"--out={out}"])
        assert code == 2
        assert "overflows float64" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("argv", [
        ["qubit", "--gamma=1e-320"],
        ["spectra", "--gamma=1e300", "--n-half=2"],
        ["check", "--omega-max=1e300", "--n-half=2"],
        ["spectra", "--gamma=1e-320", "--n-half=2"],
    ], ids=["qubit-tiny-gamma", "spectra-huge-gamma", "check-huge-omega",
            "spectra-tiny-gamma"])
    def test_out_of_range_arithmetic_exits_2(self, tmp_path, capsys, argv):
        # finite flags whose arithmetic overflows or divides by zero: exit 2
        # with no traceback, no warning and no file
        out = tmp_path / "x.csv"
        code = main(argv + [f"--out={out}"])
        assert code == 2
        assert "out of range" in capsys.readouterr().err
        assert not out.exists()

    def test_unresolved_red_sideband_exits_4(self, tmp_path, capsys):
        # an occupied oscillator whose red sideband area comes out negative
        out = tmp_path / "m.json"
        code = main(["mech", "--gamma=0.0566", "--delta=0", "--gbar=1.5e-07",
                     "--theta=-1.03", "--n-occ=1.13e-05", "--gamma-m=4.9e-07",
                     "--format=json", "--out", str(out)])
        assert code == 4
        err = capsys.readouterr().err
        assert "area" in err and "n_occupation" in err and "theta" in err
        assert not out.exists()

    def test_check_without_signal_exits_4(self, tmp_path, capsys):
        # theta = 0 and delta = 0 kill chi_zf at every frequency
        out = tmp_path / "c.csv"
        assert main(["check", "--theta=0", "--delta=0", "--out", str(out)]) == 4
        assert capsys.readouterr().err == (
            "error: chi_zf vanishes at omega = -5; "
            "the readout carries no signal there\n")
        assert not out.exists()

    def test_missing_output_directory_exits_1(self, tmp_path, capsys):
        code = main(["qubit", "--out", str(tmp_path / "no/such/dir/x.csv")])
        assert code == 1


class TestDeterminism:
    def test_csv_bytes_stable_across_runs(self, tmp_path):
        out = tmp_path / "d.csv"
        argv = ["spectra", "--delta", "0.3", "--input", "thermal:0.5",
                "--n-half", "16", "--out", str(out)]
        assert main(argv) == 0
        first = out.read_bytes()
        assert main(argv) == 0
        assert out.read_bytes() == first

    def test_json_bytes_stable_across_runs(self, tmp_path):
        out = tmp_path / "d.json"
        argv = ["check", "--theta", "-0.4", "--format", "json",
                "--n-half", "8", "--out", str(out)]
        assert main(argv) == 0
        first = out.read_bytes()
        assert main(argv) == 0
        assert out.read_bytes() == first

    def test_config_echo_reproduces_the_run(self, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["spectra", "--gamma", "0.9", "--n-half", "4",
                "--out", str(out1)]
        assert main(argv) == 0
        config, _ = read_csv(out1)
        replay = RunConfig(**{**config, "out": str(out2)})
        assert main(replay.to_argv()) == 0
        body1 = out1.read_text().splitlines()[1:]
        body2 = out2.read_text().splitlines()[1:]
        assert body1 == body2


def contract_csv(config, columns):
    """CSV artifact text: config echo, header, ``%.16e`` floats, text verbatim."""
    echo = json.dumps(config, sort_keys=True, separators=(",", ":"))
    lines = [f"# config: {echo}", ",".join(columns)]
    arrays = list(columns.values())
    for i in range(len(arrays[0])):
        lines.append(",".join(
            arr[i] if isinstance(arr[i], str) else "%.16e" % arr[i]
            for arr in arrays))
    return "\n".join(lines) + "\n"


def contract_json(config, payload):
    """JSON artifact text: sorted keys, two-space indent, config under "config"."""
    doc = {name: ([v if isinstance(v, str) else float(v) for v in value]
                  if isinstance(value, (list, np.ndarray)) else value)
           for name, value in payload.items()}
    doc["config"] = config
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def expected_spectra(cfg):
    params = q.CavityParams(gamma=cfg.gamma, delta=cfg.delta, gbar=cfg.gbar,
                            theta=cfg.theta)
    grid = q.make_symmetric_grid(cfg.omega_max, cfg.n_half)
    state = parse_input_state(cfg.input_state)
    if state.kind == "vacuum":
        susc = q.cavity_susceptibilities(params, grid)
        sym = q.cavity_spectra(params, grid)
    else:
        net = q.build_one_sided_cavity(params, input_state=state)
        susc = q.solve_susceptibilities(net, grid)
        sym = q.symmetrize(q.solve_unsym_spectra(net, grid))
    norm = q.normalize(sym, susc)
    keep = grid.points >= 0.0 if cfg.single_sided else slice(None)
    fold = 2.0 if cfg.single_sided else 1.0
    columns = {
        "omega": grid.points[keep],
        "chi_zf_re": susc.chi_zf.values.real[keep],
        "chi_zf_im": susc.chi_zf.values.imag[keep],
        "chi_ff_re": susc.chi_ff.values.real[keep],
        "chi_ff_im": susc.chi_ff.values.imag[keep],
        "s_zz_sym": fold * sym.s_zz.values.real[keep],
        "s_zf_sym_re": fold * sym.s_zf.values.real[keep],
        "s_zf_sym_im": fold * sym.s_zf.values.imag[keep],
        "s_ff_sym": fold * sym.s_ff.values.real[keep],
        "imprecision": fold * norm.imprecision.values.real[keep],
        "cross_re": fold * norm.cross.values.real[keep],
        "cross_im": fold * norm.cross.values.imag[keep],
    }
    return columns, {}


def expected_check(cfg):
    params = q.CavityParams(gamma=cfg.gamma, delta=cfg.delta, gbar=cfg.gbar,
                            theta=cfg.theta)
    grid = q.make_symmetric_grid(cfg.omega_max, cfg.n_half)
    net = q.build_one_sided_cavity(
        params, input_state=parse_input_state(cfg.input_state))
    report = q.constraint_report(q.solve_unsym_spectra(net, grid),
                                 q.solve_susceptibilities(net, grid))
    columns = {
        "omega": grid.points,
        "uncertainty_gap": report.uncertainty_gap,
        "product_residual": report.product_residual,
        "correlation_residual": report.correlation_residual,
        "kubo_residual": report.kubo_residual,
        "positivity_margin": report.positivity_margin,
        "verdict": [v.value for v in report.verdicts],
    }
    return columns, {"worst_verdict": report.worst_verdict.value}


def expected_qubit(cfg):
    rates = q.qubit_rates(q.CavityParams(gamma=cfg.gamma, delta=cfg.delta,
                                         gbar=cfg.gbar, theta=cfg.theta))
    return {}, {"gamma_meas": rates.gamma_meas, "gamma_phi": rates.gamma_phi,
                "ratio": rates.ratio, "theta_opt": rates.theta_opt}


def expected_mech(cfg):
    params = q.CavityParams(gamma=cfg.gamma, delta=cfg.delta, gbar=cfg.gbar,
                            theta=cfg.theta)
    osc = q.MechOscillator(omega_m=cfg.omega_m, gamma_m=cfg.gamma_m,
                           mass=cfg.mass, n_occupation=cfg.n_occ)
    grid = q.asymmetry_grid(params, osc, window_halfwidth=cfg.window_halfwidth,
                            window_points=cfg.window_points)
    res = q.sideband_asymmetry(params, osc, grid)
    columns = {"omega": grid.points,
               "spectrum_red": res.spectrum_red.values.real,
               "spectrum_blue": res.spectrum_blue.values.real}
    return columns, {"area_red": res.area_red, "area_blue": res.area_blue,
                     "ratio": res.ratio}


def expected_mimo(omega, blocks):
    dets, _ = q.mimo_quantum_limit(blocks)
    dim = blocks.shape[1]
    verdicts = []
    for det, block in zip(dets, blocks):
        scale = max(np.trace(block).real / dim, 0.0) ** dim
        limit = 1e-9 * max(scale, np.finfo(float).tiny)
        verdicts.append("quantum_limited" if det <= limit else "above_limit")
    worst = "above_limit" if "above_limit" in verdicts else "quantum_limited"
    return ({"omega": omega, "det": dets, "verdict": verdicts},
            {"worst_verdict": worst})


class TestByteContract:
    """Artifacts rebuilt from library results under the fixed output rules.

    CSV: ``# config:`` compact sorted JSON, a header, ``%.16e`` per float
    cell, text cells verbatim, scalars repeated down a column after the
    others.  JSON: ``json.dumps(sort_keys=True, indent=2)`` with scalars as
    values (``Infinity`` for an infinite ratio) and ``worst_verdict`` beside
    a verdict column.
    """

    CASES = {
        "spectra": (["spectra", "--delta=0.3", "--n-half=12"], expected_spectra),
        "spectra-engine": (["spectra", "--input=thermal:0.5", "--n-half=12",
                            "--theta=0.2"], expected_spectra),
        "spectra-single-sided": (["spectra", "--delta=0.8", "--n-half=12",
                                  "--single-sided"], expected_spectra),
        "check": (["check", "--input=thermal:1", "--n-half=12"], expected_check),
        "qubit": (["qubit", "--delta=-0.8", "--theta=0.3"], expected_qubit),
        "mech": (["mech", "--gamma=0.05", "--gbar=7e-6", "--n-occ=0",
                  "--window-points=401"], expected_mech),
        # a vacuum pair makes every determinant round-off, some negative
        "mimo-check-pure": (["mimo-check"], ("vacuum", "thermal:0.3")),
        "mimo-check-thermal": (["mimo-check"], ("thermal:0.3",)),
    }

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("case", list(CASES))
    def test_artifact_bytes(self, tmp_path, generic_params, case, fmt):
        argv, expected = self.CASES[case]
        out = tmp_path / f"a.{fmt}"
        argv = argv + [f"--format={fmt}", f"--out={out}"]
        if isinstance(expected, tuple):
            grid = q.make_symmetric_grid(3.0, 8)
            sets = [q.solve_unsym_spectra(q.build_one_sided_cavity(
                generic_params, input_state=parse_input_state(state)), grid)
                for state in expected]
            blocks = write_mimo_file(tmp_path / "blocks.csv", sets)
            argv.append(f"--mimo-input={tmp_path / 'blocks.csv'}")
            expected = lambda cfg: expected_mimo(grid.points, blocks)  # noqa: E731
        cfg = parse_config(argv)
        assert main(argv) == 0
        columns, scalars = expected(cfg)
        config = dataclasses.asdict(cfg)
        if fmt == "csv":
            n_rows = len(next(iter(columns.values()))) if columns else 1
            columns.update({name: [value] * n_rows for name, value in scalars.items()
                            if name != "worst_verdict"})
            text = contract_csv(config, columns)
        else:
            text = contract_json(config, {**columns, **scalars})
        assert out.read_bytes() == text.encode("utf-8")


def adversarial_floats():
    """Cells that break a %.16e or shortest-repr formatter that is almost right."""
    cells = [math.nan, math.inf, 0.0, 5e-324, 1.5e-310, 2.2250738585072009e-308,
             2.2250738585072014e-308, 1.7976931348623157e308]
    for k in range(-323, 309):
        power = below = above = float(f"1e{k}")
        cells.append(power)
        for _ in range(2):  # one and two ulps either side of each power of ten
            below = math.nextafter(below, 0.0)
            above = math.nextafter(above, math.inf)
            cells += [below, above]
    # a power of two has a rounding interval half as wide below as above
    for k in range(-1074, 1024):
        power = 2.0**k
        cells += [math.nextafter(power, 0.0), power, math.nextafter(power, math.inf)]
    # where repr changes layout (fixed for 1e-4 <= |x| < 1e16), three ulps out
    for edge in (1e-5, 1e-4, 1e15, 1e16, 1e17):
        below, above = edge, edge
        for _ in range(3):
            below = math.nextafter(below, 0.0)
            above = math.nextafter(above, math.inf)
        cells += [below, above]
    near = 1e15 + np.arange(-64.0, 64.0)
    cells += [*(near + 0.25), *(near + 0.75)]  # exact ties of the 17th digit
    return np.array(cells + [-c for c in cells])


# each verdict's label, indexed by its rank: its place in Verdict's order
LABELS = [v.value for v in q.Verdict]


def ranks(labels):
    """The int8 rank column of a list of verdict labels."""
    return np.array([LABELS.index(label) for label in labels], dtype=np.int8)


def reference_artifact(cfg, columns, scalars):
    """The artifact under the output rules, from ``%`` and ``json.dumps``."""
    config = dataclasses.asdict(cfg)
    cells = {name: ([LABELS[r] for r in col] if name == "verdict" else col)
             for name, col in columns.items()}
    if cfg.fmt == "csv":
        n_rows = len(next(iter(columns.values()))) if columns else 1
        return contract_csv(config, {**cells, **{name: [value] * n_rows
                                                 for name, value in scalars.items()}})
    payload = {**cells, **scalars}
    if "verdict" in columns:
        payload["worst_verdict"] = LABELS[max(columns["verdict"], default=0)]
    return contract_json(config, payload)


class TestWriter:
    """``_write`` against the reference rules, cell by cell and byte by byte."""

    def written(self, path, fmt, columns, scalars=None):
        cfg = RunConfig("spectra", fmt=fmt, out=str(path))
        if not all(np.isfinite(col).all() for name, col in columns.items()
                   if name != "verdict"):
            # a non-finite cell is an overflowed result, never an artifact
            with pytest.raises(ValueError, match="overflows float64"):
                cli._write(cfg, columns, scalars)
            assert not path.exists()
            return
        cli._write(cfg, columns, scalars)
        expected = reference_artifact(cfg, columns, scalars or {})
        assert path.read_bytes() == expected.encode("utf-8")

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_adversarial_cells(self, tmp_path, fmt):
        cells = adversarial_floats()
        finite = np.isfinite(cells)
        verdicts = (np.arange(finite.sum()) % 3).astype(np.int8)
        self.written(tmp_path / f"a.{fmt}", fmt,
                     {"x": cells[finite], "reversed": cells[finite][::-1],
                      "verdict": verdicts},
                     {"ratio": math.inf, "zero": -0.0})
        for bad in cells[~finite]:
            self.written(tmp_path / f"b.{fmt}", fmt,
                         {"x": np.append(cells[finite], bad)})

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("extra", [-1, 0, 1])
    def test_tables_around_the_block_size(self, tmp_path, fmt, extra):
        rng = np.random.default_rng(extra + 1)
        # omega and value share a CSV block of _CHUNK_CELLS float cells
        n_rows = (cli._CHUNK_CELLS // 2 if fmt == "csv" else cli._CHUNK_ROWS) + extra
        values = rng.standard_normal(n_rows) * 10.0 ** rng.integers(-300, 300, n_rows)
        verdicts = rng.integers(0, 3, n_rows).astype(np.int8)
        self.written(tmp_path / f"t.{fmt}", fmt,
                     {"omega": np.linspace(-5.0, 5.0, n_rows), "value": values,
                      "verdict": verdicts},
                     {"area": 0.1})

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_scalar_only_table(self, tmp_path, fmt):
        self.written(tmp_path / f"s.{fmt}", fmt, {},
                     {"gamma_meas": 0.1, "ratio": math.nan, "theta_opt": -1e-300})

    @given(cells=st.lists(st.floats(width=64), min_size=1, max_size=40),
           fmt=st.sampled_from(["csv", "json"]))
    def test_any_floats(self, tmp_path_factory, cells, fmt):
        cells = np.array(cells)
        self.written(tmp_path_factory.mktemp("w") / f"h.{fmt}", fmt,
                     {"x": cells, "y": -cells[::-1]}, {"first": float(cells[0])})


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("verdict, error, message", [
    (list(q.Verdict), TypeError, "int8 ranks, not object"),
    (np.array([0, 1, 2]), TypeError, "int8 ranks, not int64"),
    (np.array([0.0, 1.0, 2.0]), TypeError, "int8 ranks, not float64"),
    (np.array([0, 3, 1], dtype=np.int8), ValueError, r"outside 0\.\.2"),
    (np.array([0, -1, 1], dtype=np.int8), ValueError, r"outside 0\.\.2"),
], ids=["members", "int64", "float", "above", "negative"])
def test_verdict_column_is_checked_before_the_file_opens(
        tmp_path, fmt, verdict, error, message):
    path = tmp_path / f"v.{fmt}"
    cfg = RunConfig("check", fmt=fmt, out=str(path))
    with pytest.raises(error, match=message):
        cli._write(cfg, {"omega": np.zeros(3), "verdict": verdict})
    assert not path.exists()


def test_json_is_streamed_a_key_at_a_time(tmp_path):
    # each column is encoded, written and dropped before the next, so
    # twelve columns peak near one: 1.4 times its traced peak, against
    # 3.2 times when every encoded column was held to the end
    rng = np.random.default_rng(7)
    columns = {f"c{i}": rng.standard_normal(4097) for i in range(12)}
    cfg = RunConfig("spectra", fmt="json", out=str(tmp_path / "t.json"))
    peaks = []
    for table in (columns, {"c0": columns["c0"]}):
        tracemalloc.start()
        try:
            cli._write(cfg, table)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[0] <= 2.0 * peaks[1], peaks



def test_csv_blocks_are_sized_by_cells(tmp_path):
    # a block holds about _CHUNK_CELLS float cells over all columns, so
    # twelve columns peak near one: 1.0 times its traced peak, against 12
    # times when a block was 4096 rows of every column
    rng = np.random.default_rng(8)
    columns = {f"c{i}": rng.standard_normal(2 * cli._CHUNK_CELLS + 1) for i in range(12)}
    cfg = RunConfig("spectra", out=str(tmp_path / "t.csv"))
    peaks = []
    for table in (columns, {"c0": columns["c0"]}):
        tracemalloc.start()
        try:
            cli._write(cfg, table)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[0] <= 2.0 * peaks[1], peaks


class TestCommandTables:
    """Each command builds its table, (columns, scalars), and returns it
    without touching a file; main writes it once, and the table's worst
    verdict sets the exit code."""

    ARGV = {
        "spectra": ["spectra", "--n-half=8", "--input=thermal:0.5"],
        "check": ["check", "--n-half=8", "--input=thermal:0.5"],
        "qubit": ["qubit", "--delta=-0.8", "--theta=0.3"],
        "mech": ["mech", "--gamma=0.05", "--gbar=7e-6", "--n-occ=2",
                 "--window-points=401"],
        "mimo-check": ["mimo-check", "--mimo-input=blocks.csv"],
    }

    def test_commands_return_their_table_and_write_nothing(
            self, tmp_path, monkeypatch, generic_params):
        grid = q.make_symmetric_grid(3.0, 8)
        write_mimo_file(tmp_path / "blocks.csv", [q.solve_unsym_spectra(
            q.build_one_sided_cavity(generic_params), grid)])
        monkeypatch.chdir(tmp_path)
        assert set(self.ARGV) == set(cli._COMMANDS)
        for command, argv in self.ARGV.items():
            cfg = parse_config(argv)
            columns, scalars = getattr(cli, f"cmd_{command.replace('-', '_')}")(cfg)
            assert isinstance(columns, dict) and isinstance(scalars, dict)
            assert columns or scalars, command
            assert sorted(p.name for p in tmp_path.iterdir()) == ["blocks.csv"]
            # main writes that table, with the one writer
            path = cli._output_path(cfg)
            cli._write(cfg, columns, scalars)
            written = path.read_bytes()
            path.unlink()
            assert main(argv) == 0
            assert path.read_bytes() == written, command
            path.unlink()

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("verdicts, code", [
        (["above_limit", "violation", "quantum_limited"], 3),
        (["quantum_limited", "above_limit"], 0),
        (None, 0),
    ], ids=["violation", "above-limit", "no-verdict"])
    def test_worst_verdict_sets_the_exit_code_after_the_write(
            self, tmp_path, monkeypatch, fmt, verdicts, code):
        columns = {"omega": np.linspace(-1.0, 1.0, len(verdicts or "abc"))}
        if verdicts is not None:
            columns["verdict"] = ranks(verdicts)
        monkeypatch.setattr(cli, "cmd_check", lambda cfg: (columns, {}))
        out = tmp_path / f"t.{fmt}"
        argv = ["check", f"--format={fmt}", f"--out={out}"]
        assert main(argv) == code
        expected = reference_artifact(parse_config(argv), columns, {})
        assert out.read_bytes() == expected.encode("utf-8")

    @pytest.mark.parametrize("command", list(cli._COMMANDS))
    def test_main_calls_the_command_the_module_holds(
            self, tmp_path, monkeypatch, command):
        # a wrapper set on the module, as a tracer sets one, is what runs
        calls = []

        def stub(cfg):
            calls.append(cfg)
            return {"omega": np.zeros(2)}, {}

        monkeypatch.setattr(cli, f"cmd_{command.replace('-', '_')}", stub)
        argv = [command, f"--out={tmp_path / 't.csv'}"]
        assert main(argv) == 0
        assert calls == [parse_config(argv)]
        assert (tmp_path / "t.csv").read_bytes() == reference_artifact(
            calls[0], {"omega": np.zeros(2)}, {}).encode("utf-8")

    def test_mimo_check_exits_0(self, tmp_path, generic_params):
        # its ratio is finite and non-negative once the matrix checks pass,
        # so no verdict is a violation: a vacuum pair's determinants are
        # round-off, some of them negative
        grid = q.make_symmetric_grid(3.0, 8)
        sets = [q.solve_unsym_spectra(q.build_one_sided_cavity(
            generic_params, input_state=parse_input_state(state)), grid)
            for state in ("vacuum", "thermal:0.3")]
        blocks = write_mimo_file(tmp_path / "blocks.csv", sets)
        dets, _ = q.mimo_quantum_limit(blocks)
        assert np.min(dets) < 0.0
        out = tmp_path / "m.json"
        assert main(["mimo-check", f"--mimo-input={tmp_path / 'blocks.csv'}",
                     "--format=json", f"--out={out}"]) == 0
        assert json.loads(out.read_text())["worst_verdict"] == "quantum_limited"


class TestScaleCovariance:
    """Every rate and frequency times s = 4^k is the same physics, and in
    binary floating point an exact change of units: each float column gains
    one power of two, and no verdict or exit code moves (ROADMAP item T)."""

    BASE = {"gamma": 2.0, "delta": 0.3, "gbar": 1.0, "omega_max": 5.0}

    def run(self, tmp_path, command, state, k):
        out = tmp_path / f"{command}-{k}.json"
        rates = [f"--{name.replace('_', '-')}={value * 4.0 ** k!r}"
                 for name, value in self.BASE.items()]
        code = main([command, f"--input={state}", "--n-half=64",
                     "--format=json", f"--out={out}", *rates])
        doc = json.loads(out.read_text())
        del doc["config"]
        return code, doc

    @pytest.mark.parametrize("state", ["vacuum", "thermal:0.8", "squeezed:0.7,0.3"])
    @pytest.mark.parametrize("command", ["check", "spectra"])
    def test_rates_times_a_power_of_four(self, tmp_path, command, state):
        code, base = self.run(tmp_path, command, state, 0)
        for k in (-20, -3, 2, 15):
            scaled_code, scaled = self.run(tmp_path, command, state, k)
            assert scaled_code == code and scaled.keys() == base.keys(), k
            for name, cells in base.items():
                if name in ("verdict", "worst_verdict"):
                    assert scaled[name] == cells, (name, k)
                    continue
                mant, expo = np.frexp(np.array(cells))
                scaled_mant, scaled_expo = np.frexp(np.array(scaled[name]))
                # equal mantissas keep every zero a zero
                assert np.array_equal(scaled_mant, mant), (name, k)
                shifts = np.unique((scaled_expo - expo)[mant != 0.0])
                assert shifts.size <= 1, (name, k, shifts)


class TestEntryPoint:
    def test_module_invocation(self, tmp_path):
        out = tmp_path / "q.json"
        proc = subprocess.run(
            [sys.executable, "-m", "qdetnoise", "qubit",
             "--format", "json", "--out", str(out)],
            env=child_env(), capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(out.read_text())["ratio"] == pytest.approx(1.0)

    def test_help_lists_subcommands(self):
        proc = subprocess.run(
            [sys.executable, "-m", "qdetnoise", "--help"],
            env=child_env(), capture_output=True, text=True)
        assert proc.returncode == 0
        for name in ("spectra", "check", "qubit", "mech", "mimo-check",
                     *CLI_FLAGS):
            assert name in proc.stdout

    # gamma > 0.1 omega_m: the sidebands overlap and the library warns
    OVERLAP = ["mech", "--gamma=0.2", "--gbar=1e-4", "--gamma-m=1e-3",
               "--n-occ=2", "--window-points=401"]
    WARNING = ("cavity linewidth exceeds 0.1 * omega_m; sidebands overlap and "
               "integrated weights are unreliable\n")

    def test_library_warning_is_one_line(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "qdetnoise", *self.OVERLAP,
             "--out", str(tmp_path / "m.csv")],
            env=child_env(), capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == "warning: " + self.WARNING
        assert (tmp_path / "m.csv").exists()

    def test_warning_as_error_is_one_line(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-W", "error", "-m", "qdetnoise", *self.OVERLAP,
             "--out", str(tmp_path / "m.csv")],
            env=child_env(), capture_output=True, text=True)
        assert proc.returncode == 2
        assert proc.stderr == "error: " + self.WARNING
        assert not (tmp_path / "m.csv").exists()
