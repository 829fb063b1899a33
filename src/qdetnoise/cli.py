"""Command-line frontend for reproducible batch runs.

Five subcommands map onto the library layers:

* ``spectra``     susceptibilities plus symmetrized and referred spectra on a
                  symmetric frequency grid
* ``check``       per-frequency constraint audit with verdicts
* ``qubit``       dispersive readout rates and the optimal homodyne angle
* ``mech``        motional sideband spectra, integrated weights, asymmetry
* ``mimo-check``  determinant test on a file of stacked spectral matrices

:class:`RunConfig` is the single config schema: each field's metadata holds
its flag spelling and help, and both :meth:`RunConfig.to_argv` and
:func:`build_parser` are derived from the fields, so a config always
survives the argv round trip.  Every subcommand accepts the full flag set
(irrelevant flags are ignored).  Output files are byte-deterministic: no
timestamps, fixed float formatting, a single ``# config:`` echo line as the
only metadata.  One writer, ``_write``, produces both formats.

Exit codes: 0 success, 1 I/O failure, 2 bad configuration (including a
non-finite float flag or input state, and a finite configuration whose
arithmetic overflows float64 or divides by zero, which writes no file) or
malformed input file, 3 constraint violation (including invalid
spectral matrices), 4 physically degenerate regime (no readout gain, no
positive red sideband weight for an occupied oscillator, unstable spring).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from ._format import format_e16, format_repr
from .apps import asymmetry_grid, qubit_rates, sideband_asymmetry
from .cavity import cavity_spectra, cavity_susceptibilities, normalize
from .constraints import Verdict, constraint_report, mimo_quantum_limit
from .core import CavityParams, InputState, MechOscillator, make_symmetric_grid
from .errors import GridMismatchError, InvalidMatrixError, QDetNoiseError
from .netsolve import (
    build_one_sided_cavity,
    solve_susceptibilities,
    solve_unsym_spectra,
    symmetrize,
)

__all__ = ["RunConfig", "parse_config", "parse_input_state", "build_parser", "main"]

_FORMATS = ("csv", "json")
_CHUNK_ROWS = 4096  # table rows formatted and written at a time

# Columns that are spectral densities and therefore double in the
# single-sided convention; responses and the frequency axis do not.
_DENSITY_COLUMNS = frozenset(
    {"s_zz_sym", "s_zf_sym_re", "s_zf_sym_im", "s_ff_sym",
     "imprecision", "cross_re", "cross_im"}
)


def _option(default, help: str, flag: str | None = None, **parser_kwargs):
    """A RunConfig field that is also a command-line option.

    The flag defaults to the field name with dashes; the option's type
    follows the default's (a bool default makes a switch).
    """
    return dataclasses.field(default=default, metadata={
        "flag": flag, "parser_kwargs": {"help": help, **parser_kwargs}})


def _flag(field: dataclasses.Field) -> str:
    return field.metadata["flag"] or "--" + field.name.replace("_", "-")


@dataclasses.dataclass(frozen=True)
class RunConfig:
    """One fully specified batch run.

    ``to_argv`` and :func:`parse_config` are exact inverses, which is what
    makes runs reproducible from the echoed config line alone.  Float values
    must be finite.
    """

    command: str
    gamma: float = _option(2.0, "cavity energy decay rate")
    delta: float = _option(0.0, "drive detuning from cavity resonance")
    gbar: float = _option(1.0, "drive-enhanced coupling rate")
    theta: float = _option(math.pi / 2,
                           "homodyne angle of the monitored output quadrature")
    omega_max: float = _option(5.0, "frequency grid half-range")
    n_half: int = _option(
        100, "points per half-axis; the grid has 2*n_half + 1 points")
    input_state: str = _option(
        "vacuum", "input field state: vacuum | thermal:<n> | squeezed:<r>,<phi>",
        flag="--input")
    omega_m: float = _option(1.0, "mechanical resonance frequency")
    gamma_m: float = _option(1e-6, "intrinsic mechanical damping rate")
    mass: float = _option(1.0, "oscillator mass")
    n_occ: float = _option(0.0, "mean thermal occupation of the oscillator")
    window_halfwidth: float = _option(
        40.0, "mech window half-width in effective linewidths")
    window_points: int = _option(4001, "number of grid points in the mech window")
    single_sided: bool = _option(
        False, "export omega >= 0 only with doubled spectral densities")
    fmt: str = _option("csv", "output file format", flag="--format",
                       choices=_FORMATS)
    out: str | None = _option(None, "output path (default: <command>.<format>)")
    mimo_input: str | None = _option(
        None, "CSV of stacked spectral matrices for mimo-check")

    def __post_init__(self) -> None:
        if self.command not in _COMMANDS:
            raise ValueError(f"unknown command {self.command!r}")
        if self.fmt not in _FORMATS:
            raise ValueError(f"unknown output format {self.fmt!r}")
        for field in _OPTIONS:
            value = getattr(self, field.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"{_flag(field)} must be finite, got {value!r}")

    def to_argv(self) -> list[str]:
        """Serialize back to an argument vector that re-parses identically.

        Values ride in ``--flag=value`` form: a separate token like
        ``-1e-308`` would be mistaken for an option by argparse.  ``str`` of
        a float is its shortest round-tripping repr.
        """
        argv = [self.command]
        for field in _OPTIONS:
            value = getattr(self, field.name)
            if isinstance(value, bool):
                argv += [_flag(field)] if value else []
            elif value is not None:
                argv.append(f"{_flag(field)}={value}")
        return argv


_OPTIONS = dataclasses.fields(RunConfig)[1:]


def parse_input_state(spec: str) -> InputState:
    """Parse ``vacuum``, ``thermal:<n>``, or ``squeezed:<r>,<phi>``."""
    body = spec.strip()
    if body == "vacuum":
        return InputState.vacuum()
    if body.startswith("thermal:"):
        return InputState.thermal(float(body[len("thermal:"):]))
    if body.startswith("squeezed:"):
        parts = body[len("squeezed:"):].split(",")
        if len(parts) != 2:
            raise ValueError(
                f"squeezed state spec needs exactly r,phi, got {spec!r}")
        return InputState(0.0, float(parts[0]), float(parts[1]))
    raise ValueError(f"unrecognized input state spec {spec!r}")


def build_parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)
    for field in _OPTIONS:
        if isinstance(field.default, bool):
            kind = {"action": "store_true"}
        elif field.default is None:
            kind = {}
        else:
            kind = {"type": type(field.default)}
        shared.add_argument(_flag(field), dest=field.name, default=field.default,
                            **kind, **field.metadata["parser_kwargs"])

    parser = argparse.ArgumentParser(
        prog="qdetnoise",
        description="Quantum noise spectra, constraints, and applications "
                    "of a cavity position detector.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help) in _COMMANDS.items():
        sub.add_parser(name, parents=[shared], help=help)
    return parser


def parse_config(argv: Sequence[str]) -> RunConfig:
    return RunConfig(**vars(build_parser().parse_args(list(argv))))


# ---------------------------------------------------------------------------
# output plumbing


def _config_echo(cfg: RunConfig) -> str:
    return json.dumps(dataclasses.asdict(cfg), sort_keys=True,
                      separators=(",", ":"))


def _output_path(cfg: RunConfig) -> Path:
    if cfg.out is not None:
        return Path(cfg.out)
    return Path(f"{cfg.command}.{cfg.fmt}")


def _write(cfg: RunConfig, columns: dict[str, Sequence],
           scalars: dict[str, float] | None = None) -> None:
    """Write one table in the configured format.

    Float cells are ``%.16e`` in CSV and shortest-repr numbers in JSON.  CSV
    repeats each scalar down a column after the others (a table of scalars
    only is one row); JSON keeps scalars as plain values.  A ``verdict``
    column holds Verdict members, written by value; JSON adds the most
    severe one as ``worst_verdict``.  The bytes are those of ``"%.16e" %``
    per CSV cell and of ``json.dumps(doc, sort_keys=True, indent=2)``.  The
    verdict column becomes one zero-padded label array (``dtype="S"``), whose
    rows both formats place as they place a formatted float block.

    A non-finite cell in a float column is rejected with ValueError, as
    the finite configuration it came from has overflowed; a scalar may be
    infinite (the ratio of a ground-state oscillator).  Every check and
    conversion runs before the file is opened, so an error leaves no file
    behind.  Both formats then stream block by block into the open file,
    from encoders that cannot fail on the finite floats, strings and config
    values they are given.  Float cells are formatted ``_CHUNK_ROWS`` rows
    at a time by :mod:`._format`, which hands the rare cells it cannot
    decide (within 1e-6 of a rounding tie or an edge, or subnormal) to
    Python: CSV rows by :func:`._format.format_e16`, with the scalars
    formatted once as a suffix shared by every row; JSON one top-level key
    at a time, a float column by :func:`._format.format_repr`.
    """
    scalars = {name: float(value) for name, value in (scalars or {}).items()}
    cells = {name: (np.array([v.value for v in col], dtype="S") if name == "verdict"
                    else np.asarray(col, dtype=float))
             for name, col in columns.items()}
    for name, col in cells.items():
        if col.dtype == float and not np.isfinite(col).all():
            raise ValueError(f"column {name} overflows float64 at row "
                             f"{int(np.argmin(np.isfinite(col)))}: the "
                             "configuration is out of range")
    if cfg.fmt == "csv":
        chunks = _csv_chunks(cfg, cells, scalars)
    else:
        doc = {**cells, **scalars, "config": dataclasses.asdict(cfg)}
        if "verdict" in columns:
            doc["worst_verdict"] = Verdict.worst(columns["verdict"]).value
        chunks = _json_chunks(doc)
    with _output_path(cfg).open("wb") as fh:
        for chunk in chunks:
            fh.write(chunk)


def _labels(block: np.ndarray) -> np.ndarray:
    """The rows of a ``dtype="S"`` array as a uint8 array, zero-padded."""
    return block.view(np.uint8).reshape(len(block), block.itemsize)


def _csv_chunks(cfg: RunConfig, cells: dict[str, np.ndarray],
                scalars: dict[str, float]) -> Iterator[bytes | np.ndarray]:
    """The CSV header, then the rows, formatted ``_CHUNK_ROWS`` at a time.

    A block of rows is one uint8 array: each column's zero-padded field (a
    float column's from one :func:`._format.format_e16` call over the block,
    a label column's bytes) and a comma column, side by side, then the
    scalars and newline; one mask drops the zero bytes that pad short cells.
    """
    head = f"# config: {_config_echo(cfg)}\n{','.join([*cells, *scalars])}\n"
    yield head.encode("ascii")
    suffix = ",".join("%.16e" % value for value in scalars.values()) + "\n"
    if cells and scalars:
        suffix = "," + suffix
    suffix = np.frombuffer(suffix.encode("ascii"), dtype=np.uint8)
    floats = [col for col in cells.values() if col.dtype == float]
    n_rows = len(next(iter(cells.values()))) if cells else 1
    for first in range(0, n_rows, _CHUNK_ROWS):
        rows = slice(first, first + _CHUNK_ROWS)
        n = min(_CHUNK_ROWS, n_rows - first)
        text = iter(format_e16(np.array([col[rows] for col in floats])))
        comma = np.full((n, 1), ord(","), dtype=np.uint8)
        parts = []
        for col in cells.values():
            parts += [next(text) if col.dtype == float else _labels(col[rows]), comma]
        out = np.concatenate(
            [*parts[:-1], np.broadcast_to(suffix, (n, suffix.size))], axis=1)
        yield out[out != 0]


def _json_chunks(doc: dict) -> Iterator[bytes | np.ndarray]:
    """``json.dumps(doc, sort_keys=True, indent=2)`` and a newline, as bytes
    yielded one top-level key at a time.

    A non-empty array is written ``_CHUNK_ROWS`` rows at a time, by one
    concatenation and one mask that drops the zero bytes padding its cells:
    a float column as ``"    <repr>,\\n"`` rows, from
    :func:`._format.format_repr`'s ``float.__repr__`` bytes, as json writes
    floats; a label column as ``"    \\"<label>\\",\\n"`` rows, as no label
    needs escaping.  Every other value is ``json.dumps`` re-indented.
    """
    for i, key in enumerate(sorted(doc)):
        value = doc[key]
        head = f"{',' if i else '{'}\n  {json.dumps(key)}: "
        if isinstance(value, np.ndarray) and value.size:
            encode, quote = (format_repr, b"") if value.dtype == float else (_labels, b'"')
            start = np.frombuffer(b"    " + quote, dtype=np.uint8)
            end = np.frombuffer(quote + b",\n", dtype=np.uint8)
            yield f"{head}[\n".encode("ascii")
            for first in range(0, value.size, _CHUNK_ROWS):
                text = encode(value[first:first + _CHUNK_ROWS])
                n = len(text)
                rows = np.concatenate([np.broadcast_to(start, (n, start.size)), text,
                                       np.broadcast_to(end, (n, end.size))], axis=1)
                rows = rows[rows != 0]
                yield rows if first + _CHUNK_ROWS < value.size else rows[:-2]
            yield b"\n  ]"
            continue
        value = value.tolist() if isinstance(value, np.ndarray) else value
        body = json.dumps(value, sort_keys=True, indent=2).replace("\n", "\n  ")
        yield f"{head}{body}".encode("ascii")
    yield b"\n}\n"


# ---------------------------------------------------------------------------
# subcommands


def _cavity_params(cfg: RunConfig) -> CavityParams:
    return CavityParams(gamma=cfg.gamma, delta=cfg.delta, gbar=cfg.gbar,
                        theta=cfg.theta)


def _oscillator(cfg: RunConfig) -> MechOscillator:
    return MechOscillator(omega_m=cfg.omega_m, gamma_m=cfg.gamma_m,
                          mass=cfg.mass, n_occupation=cfg.n_occ)


def cmd_spectra(cfg: RunConfig) -> int:
    params = _cavity_params(cfg)
    grid = make_symmetric_grid(cfg.omega_max, cfg.n_half)
    state = parse_input_state(cfg.input_state)
    if state.kind == "vacuum":
        susc = cavity_susceptibilities(params, grid)
        sym = cavity_spectra(params, grid)
    else:
        net = build_one_sided_cavity(params, input_state=state)
        susc = solve_susceptibilities(net, grid)
        sym = symmetrize(solve_unsym_spectra(net, grid))
    norm = normalize(sym, susc)
    columns: dict[str, np.ndarray] = {
        "omega": grid.points,
        "chi_zf_re": susc.chi_zf.values.real,
        "chi_zf_im": susc.chi_zf.values.imag,
        "chi_ff_re": susc.chi_ff.values.real,
        "chi_ff_im": susc.chi_ff.values.imag,
        "s_zz_sym": sym.s_zz.values.real,
        "s_zf_sym_re": sym.s_zf.values.real,
        "s_zf_sym_im": sym.s_zf.values.imag,
        "s_ff_sym": sym.s_ff.values.real,
        "imprecision": norm.imprecision.values.real,
        "cross_re": norm.cross.values.real,
        "cross_im": norm.cross.values.imag,
    }
    if cfg.single_sided:
        keep = grid.points >= 0.0
        columns = {
            name: (2.0 * arr[keep] if name in _DENSITY_COLUMNS else arr[keep])
            for name, arr in columns.items()
        }
    _write(cfg, columns)
    return 0


def cmd_check(cfg: RunConfig) -> int:
    params = _cavity_params(cfg)
    grid = make_symmetric_grid(cfg.omega_max, cfg.n_half)
    state = parse_input_state(cfg.input_state)
    net = build_one_sided_cavity(params, input_state=state)
    susc = solve_susceptibilities(net, grid)
    spectra = solve_unsym_spectra(net, grid)
    report = constraint_report(spectra, susc)
    columns = {
        "omega": grid.points,
        "uncertainty_gap": report.uncertainty_gap,
        "product_residual": report.product_residual,
        "correlation_residual": report.correlation_residual,
        "kubo_residual": report.kubo_residual,
        "positivity_margin": report.positivity_margin,
        "verdict": report.verdicts,
    }
    _write(cfg, columns)
    return 3 if Verdict.violation in report.verdicts else 0


def cmd_qubit(cfg: RunConfig) -> int:
    result = qubit_rates(_cavity_params(cfg))
    scalars = {
        "gamma_meas": result.gamma_meas,
        "gamma_phi": result.gamma_phi,
        "ratio": result.ratio,
        "theta_opt": result.theta_opt,
    }
    _write(cfg, {}, scalars)
    return 0


def cmd_mech(cfg: RunConfig) -> int:
    params = _cavity_params(cfg)
    osc = _oscillator(cfg)
    grid = asymmetry_grid(params, osc,
                          halfwidth_linewidths=cfg.window_halfwidth,
                          n_points=cfg.window_points)
    result = sideband_asymmetry(params, osc, grid)
    columns = {
        "omega": grid.points,
        "spectrum_red": result.spectrum_red.values.real,
        "spectrum_blue": result.spectrum_blue.values.real,
    }
    scalars = {
        "area_red": result.area_red,
        "area_blue": result.area_blue,
        "ratio": result.ratio,
    }
    _write(cfg, columns, scalars)
    return 0


def _read_mimo_blocks(path: Path) -> tuple[np.ndarray, np.ndarray]:
    with path.open(encoding="utf-8") as fh:
        lines = [line for line in map(str.strip, fh)
                 if line and not line.startswith(("#", "omega"))]
    if not lines:
        raise ValueError(f"no data rows in MIMO input {path}")
    commas = lines[0].count(",")
    if any(line.count(",") != commas for line in lines):
        raise ValueError("ragged MIMO input: rows differ in column count")
    width = commas + 1
    if width < 9 or (width - 1) % 2:
        raise ValueError(
            "each MIMO row must hold omega plus re,im pairs of a 2Nx2N block")
    n_cells = (width - 1) // 2
    dim = math.isqrt(n_cells)
    if dim * dim != n_cells or dim % 2:
        raise ValueError(
            f"{n_cells} cells per row do not form a square even-dimension block")
    data = np.loadtxt(lines, delimiter=",", comments=None, ndmin=2)
    return data[:, 0], data[:, 1:].view(complex).reshape(len(data), dim, dim)


def cmd_mimo_check(cfg: RunConfig) -> int:
    if cfg.mimo_input is None:
        raise ValueError("mimo-check requires --mimo-input <file>")
    omega, blocks = _read_mimo_blocks(Path(cfg.mimo_input))
    dets, verdicts = mimo_quantum_limit(blocks)
    _write(cfg, {"omega": omega, "det": dets, "verdict": verdicts})
    return 0


_COMMANDS = {
    "spectra": (cmd_spectra, "tabulate susceptibilities and spectra on a grid"),
    "check": (cmd_check, "audit quantum constraints frequency by frequency"),
    "qubit": (cmd_qubit, "dispersive readout rates and optimal homodyne angle"),
    "mech": (cmd_mech, "motional sideband spectra and asymmetry ratio"),
    "mimo-check": (cmd_mimo_check,
                   "determinant test for a file of 2Nx2N spectral matrices"),
}


def main(argv: Sequence[str] | None = None) -> int:
    try:
        cfg = parse_config(sys.argv[1:] if argv is None else argv)
        # float64 overflow, 0/0 and x/0 raise here, to exit 2 below
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            return _COMMANDS[cfg.command][0](cfg)
    except InvalidMatrixError as exc:
        print(f"error: violation: {exc}", file=sys.stderr)
        return 3
    except GridMismatchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except QDetNoiseError as exc:
        # degenerate readout, unstable spring, singular normalization, ...
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:
        print(f"error: a result overflows float64 ({exc}): the configuration "
              "is out of range", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
