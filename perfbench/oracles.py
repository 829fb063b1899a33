"""Per-operation output checks for the qdetnoise benchmark.

Each check raises :class:`OracleError` with a one-line reason; the harness
counts that operation as failed. The checks re-derive what they compare
against from the configuration the benchmark generated: the frequency grid,
an engine solve of the same detector, the analytic qubit rates, the
sideband ratio (n+1)/n, or a fresh determinant of the generated MIMO
blocks. Only the uncertainty-gap scale formula is restated here, so that
the "gap >= -tol*scale" check does not depend on the program's own scale.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass

import numpy as np

TOL = 1e-9            # constraint_report's default classification tolerance
ENGINE_RTOL = 1e-9    # closed forms against the engine
KUBO_TOL = 1e-9
QUBIT_RTOL = 1e-12
MECH_ATOL = 1e-3


class OracleError(Exception):
    """An artifact or result that is missing, malformed or wrong."""


@dataclass
class Artifact:
    config: dict
    columns: dict          # name -> float array, or list of str for verdicts
    scalars: dict
    n_rows: int


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def parse_csv(text: str) -> Artifact:
    if not text.endswith("\n"):
        raise OracleError("csv artifact does not end with a newline")
    lines = text[:-1].split("\n")
    if len(lines) < 3 or not lines[0].startswith("# config: "):
        raise OracleError("csv artifact lacks the '# config:' line, header or rows")
    try:
        config = json.loads(lines[0][len("# config: "):])
    except json.JSONDecodeError as exc:
        raise OracleError(f"config echo is not JSON: {exc}") from None
    names = lines[1].split(",")
    rows = lines[2:]
    width = len(names)
    if any(row.count(",") != width - 1 for row in rows):
        raise OracleError(f"csv rows do not all have {width} cells")
    cells = ",".join(rows).split(",")
    columns = {}
    for j, name in enumerate(names):
        col = cells[j::width]
        if name == "verdict":
            columns[name] = col
            continue
        try:
            columns[name] = np.array(col, dtype=float)
        except ValueError as exc:
            raise OracleError(f"column {name}: {exc}") from None
    return Artifact(config, columns, {}, len(rows))


def parse_json(text: str) -> Artifact:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise OracleError(f"json artifact does not parse: {exc}") from None
    if not isinstance(doc, dict) or not isinstance(doc.get("config"), dict):
        raise OracleError("json artifact lacks its config object")
    config = doc.pop("config")
    columns, scalars = {}, {}
    for name, value in doc.items():
        if not isinstance(value, list):
            scalars[name] = value
        elif name == "verdict":
            columns[name] = value
        else:
            try:
                columns[name] = np.array(value, dtype=float)
            except (TypeError, ValueError) as exc:
                raise OracleError(f"column {name}: {exc}") from None
    lengths = {len(col) for col in columns.values()}
    if len(lengths) > 1:
        raise OracleError(f"json columns differ in length: {sorted(lengths)}")
    return Artifact(config, columns, scalars, lengths.pop() if lengths else 0)


def parse_artifact(data: bytes, fmt: str) -> Artifact:
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise OracleError(f"artifact is not UTF-8: {exc}") from None
    return parse_csv(text) if fmt == "csv" else parse_json(text)


def _column(art: Artifact, name: str) -> np.ndarray:
    if name not in art.columns:
        raise OracleError(f"column {name} is missing")
    return art.columns[name]


def _scalar(art: Artifact, name: str) -> float:
    """A scalar result: a JSON field, or a CSV column repeated on every row."""
    if name in art.scalars:
        return float(art.scalars[name])
    col = _column(art, name)
    if len(col) == 0 or np.any(col != col[0]):
        raise OracleError(f"column {name} is not one repeated value")
    return float(col[0])


def _close(name: str, got: np.ndarray, want: np.ndarray, rtol: float) -> None:
    want = np.asarray(want)
    if got.shape != want.shape:
        raise OracleError(f"{name}: {got.shape[0]} values, expected {want.shape[0]}")
    atol = rtol * float(np.max(np.abs(want), initial=0.0))
    err = np.abs(got - want) - (atol + rtol * np.abs(want))
    if not np.all(err <= 0.0):
        i = int(np.argmax(np.where(np.isnan(err), np.inf, err)))
        raise OracleError(f"{name} differs at row {i}: {got[i]!r} vs {want[i]!r}")


def gap_and_scale(sym, susc, hbar: float) -> tuple[np.ndarray, np.ndarray]:
    """Uncertainty gap and the size of its largest term, per frequency.

    gap = S_zz S_ff - |S_zf|^2 - (hbar^2/4)|chi_zf|^2
          - hbar |Im[S_zf^* chi_zf - chi_ff S_zz]|   (symmetrized spectra)
    """
    s_zz, s_ff = sym.s_zz.values.real, sym.s_ff.values.real
    s_zf, chi_zf, chi_ff = sym.s_zf.values, susc.chi_zf.values, susc.chi_ff.values
    im_term = np.imag(np.conj(s_zf) * chi_zf - chi_ff * s_zz)
    terms = [np.abs(s_zz * s_ff), np.abs(s_zf) ** 2,
             0.25 * hbar ** 2 * np.abs(chi_zf) ** 2, hbar * np.abs(im_term)]
    gap = terms[0] - terms[1] - terms[2] - terms[3]
    return gap, np.maximum(np.maximum.reduce(terms), 1e-300)


def kubo_scale(s_ff_unsym, chi_ff, hbar: float) -> float:
    """Size of the terms the fluctuation-dissipation residual subtracts."""
    return float(np.max(np.abs(chi_ff.values.imag)
                        + np.abs(s_ff_unsym.values) / hbar))


def check_gap(gap: np.ndarray, ref_gap: np.ndarray, scale: np.ndarray) -> None:
    if np.any(gap < -TOL * scale):
        i = int(np.argmax(gap / scale < -TOL))
        raise OracleError(f"uncertainty gap {gap[i]:.3e} below -tol*scale at row {i}")
    if np.any(np.abs(gap - ref_gap) > TOL * scale):
        i = int(np.argmax(np.abs(gap - ref_gap) / scale))
        raise OracleError(f"uncertainty gap at row {i} is {gap[i]!r}, "
                          f"engine gives {ref_gap[i]!r}")


def check_kubo(residual: np.ndarray, scale: float) -> None:
    worst = float(np.max(np.abs(residual), initial=0.0))
    if not worst <= KUBO_TOL * scale:
        raise OracleError(f"Kubo residual {worst:.3e} exceeds {KUBO_TOL:g} of "
                          f"scale {scale:.3e}")


def check_verdicts(verdicts, expected: str) -> None:
    wrong = sum(v != expected for v in verdicts)
    if wrong:
        first = next(v for v in verdicts if v != expected)
        raise OracleError(f"{wrong} verdicts are not {expected} (first: {first!r})")


class CliOracle:
    """Checks for the artifacts of ``python -m qdetnoise`` processes."""

    def __init__(self, q, mimo_files: dict):
        self.q = q                      # the qdetnoise package under test
        self.mimo_files = mimo_files    # name -> workloads.MimoInput

    def check(self, op, rc: int, data: bytes | None) -> str:
        """Return the artifact's SHA-256, or raise OracleError."""
        if rc != 0:
            raise OracleError(f"exit code {rc}, expected 0")
        if data is None:
            raise OracleError(f"artifact {op.out} was not written")
        cli = self.q.cli
        cfg = cli.parse_config(op.argv)
        art = parse_artifact(data, cfg.fmt)
        try:
            echo = cli.RunConfig(**art.config)
        except (TypeError, ValueError) as exc:
            raise OracleError(f"config echo is not a RunConfig: {exc}") from None
        if echo != cfg:
            raise OracleError("config echo differs from the argv that was run")
        if cli.parse_config(echo.to_argv()) != echo:
            raise OracleError("config echo does not survive the argv round trip")
        getattr(self, "_" + cfg.command.replace("-", "_"))(cfg, art)
        return sha256(data)

    def _grid(self, cfg):
        if cfg.single_sided:
            raise OracleError("single-sided artifacts have no oracle")
        return self.q.make_symmetric_grid(cfg.omega_max, cfg.n_half)

    def _engine(self, cfg, grid):
        q = self.q
        params = q.CavityParams(gamma=cfg.gamma, delta=cfg.delta, gbar=cfg.gbar,
                                theta=cfg.theta)
        net = q.build_one_sided_cavity(params, q.parse_input_state(cfg.input_state))
        return q.solve_susceptibilities(net, grid), q.solve_unsym_spectra(net, grid)

    def _rows(self, art: Artifact, omega: np.ndarray) -> None:
        if art.n_rows != omega.size:
            raise OracleError(f"{art.n_rows} rows, the grid has {omega.size}")
        if not np.array_equal(_column(art, "omega"), omega):
            raise OracleError("omega column differs from the configured grid")

    def _spectra(self, cfg, art: Artifact) -> None:
        grid = self._grid(cfg)
        self._rows(art, grid.points)
        susc, uns = self._engine(cfg, grid)
        sym = self.q.symmetrize(uns)
        norm = self.q.normalize(sym, susc)
        ref = {
            "chi_zf_re": susc.chi_zf.values.real, "chi_zf_im": susc.chi_zf.values.imag,
            "chi_ff_re": susc.chi_ff.values.real, "chi_ff_im": susc.chi_ff.values.imag,
            "s_zz_sym": sym.s_zz.values.real,
            "s_zf_sym_re": sym.s_zf.values.real,
            "s_zf_sym_im": sym.s_zf.values.imag,
            "s_ff_sym": sym.s_ff.values.real,
            "imprecision": norm.imprecision.values.real,
            "cross_re": norm.cross.values.real,
            "cross_im": norm.cross.values.imag,
        }
        for name, want in ref.items():
            _close(name, _column(art, name), want, ENGINE_RTOL)

    def _check(self, cfg, art: Artifact) -> None:
        grid = self._grid(cfg)
        self._rows(art, grid.points)
        susc, uns = self._engine(cfg, grid)
        hbar = 1.0
        ref_gap, scale = gap_and_scale(self.q.symmetrize(uns), susc, hbar)
        check_gap(_column(art, "uncertainty_gap"), ref_gap, scale)
        check_kubo(_column(art, "kubo_residual"), kubo_scale(uns.s_ff, susc.chi_ff, hbar))
        pure = self.q.parse_input_state(cfg.input_state).kind != "thermal"
        expected = "quantum_limited" if pure else "above_limit"
        check_verdicts(_column(art, "verdict"), expected)
        if "worst_verdict" in art.scalars:
            check_verdicts([art.scalars["worst_verdict"]], expected)

    def _qubit(self, cfg, art: Artifact) -> None:
        g, d, th, gb = cfg.gamma, cfg.delta, cfg.theta, cfg.gbar
        gain = d * math.cos(th) - g * math.sin(th)
        denom = d * d + g * g
        want = {"gamma_meas": 4 * gb * gb * g * gain * gain / denom ** 2,
                "gamma_phi": 4 * gb * gb * g / denom}
        want["ratio"] = want["gamma_phi"] / want["gamma_meas"]
        for name, value in want.items():
            got = _scalar(art, name)
            if not abs(got - value) <= QUBIT_RTOL * abs(value):
                raise OracleError(f"{name} = {got!r}, analytic value {value!r}")
        t = _scalar(art, "theta_opt")
        if not (-math.pi / 2 < t <= math.pi / 2
                and abs(d * math.sin(t) + g * math.cos(t)) <= 1e-12 * math.hypot(g, d)):
            raise OracleError(f"theta_opt = {t!r} does not zero delta sin + gamma cos")

    def _mech(self, cfg, art: Artifact) -> None:
        q = self.q
        params = q.CavityParams(gamma=cfg.gamma, delta=cfg.delta, gbar=cfg.gbar,
                                theta=cfg.theta)
        osc = q.MechOscillator(omega_m=cfg.omega_m, gamma_m=cfg.gamma_m,
                               mass=cfg.mass, n_occupation=cfg.n_occ)
        grid = q.asymmetry_grid(params, osc, cfg.window_halfwidth, cfg.window_points)
        self._rows(art, grid.points)
        for name in ("spectrum_red", "spectrum_blue"):
            if not np.all(np.isfinite(_column(art, name))):
                raise OracleError(f"{name} has non-finite values")
        red, blue, ratio = (_scalar(art, k) for k in ("area_red", "area_blue", "ratio"))
        if not (red > 0 and blue > 0 and abs(ratio - blue / red) <= 1e-12 * ratio):
            raise OracleError(f"areas {red!r}, {blue!r} do not give ratio {ratio!r}")
        target = (cfg.n_occ + 1.0) / cfg.n_occ
        if not abs(ratio - target) <= MECH_ATOL:
            raise OracleError(f"sideband ratio {ratio!r} is not within "
                              f"{MECH_ATOL:g} of (n+1)/n = {target!r}")

    def _mimo_check(self, cfg, art: Artifact) -> None:
        mimo = self.mimo_files[cfg.mimo_input]
        self._rows(art, mimo.data[:, 0])
        blocks = mimo.blocks
        dim = blocks.shape[1]
        ref = np.prod(np.linalg.eigvalsh(blocks), axis=1)
        trace = np.einsum("kii->k", blocks).real
        size = np.maximum(np.maximum(trace / dim, 0.0) ** dim, np.finfo(float).tiny)
        det = _column(art, "det")
        bad = np.abs(det - ref) > TOL * size
        if np.any(bad):
            i = int(np.argmax(bad))
            raise OracleError(f"det at row {i} is {det[i]!r}, expected {ref[i]!r}")
        expected = "quantum_limited" if any(mimo.pure) else "above_limit"
        check_verdicts(_column(art, "verdict"), expected)


def check_network(q, spec: dict, susc, spectra, result) -> str:
    """Check one library operation on a generated network; return a digest.

    ``result`` is the ConstraintReport of a passive network or the Kubo
    residual spectrum of the generic one.
    """
    hbar = 1.0
    arrays = [susc.chi_zf.values, susc.chi_ff.values, susc.chi_zz.values,
              susc.chi_fz.values, spectra.s_zz.values, spectra.s_zf.values,
              spectra.s_ff.values]
    scale = kubo_scale(spectra.s_ff, susc.chi_ff, hbar)
    if spec["kind"] == "passive":
        gap, size = gap_and_scale(q.symmetrize(spectra), susc, hbar)
        check_gap(result.uncertainty_gap, gap, size)
        check_kubo(result.kubo_residual, scale)
        verdicts = [v.value for v in result.verdicts]
        if "violation" in verdicts:
            raise OracleError("constraint_report found a violation")
        if spec["state"][0] == "thermal":
            check_verdicts(verdicts, "above_limit")
        arrays += [result.uncertainty_gap, result.product_residual,
                   result.correlation_residual, result.kubo_residual,
                   result.positivity_margin,
                   np.array(verdicts, dtype="U16")]
    else:
        check_kubo(result.values.real, scale)
        arrays.append(result.values)
    for arr in arrays[:7]:
        if not np.all(np.isfinite(arr)):
            raise OracleError("engine returned non-finite values")
    digest = hashlib.sha256()
    for arr in arrays:
        digest.update(np.ascontiguousarray(arr).tobytes())
    return digest.hexdigest()
