"""Command-line frontend for reproducible batch runs.

Five commands map onto the library layers:

* ``spectra``     susceptibilities plus symmetrized and referred spectra on a
                  symmetric frequency grid
* ``check``       per-frequency constraint audit with verdicts
* ``qubit``       dispersive readout rates and the optimal homodyne angle
* ``mech``        motional sideband spectra, integrated weights, asymmetry
* ``mimo-check``  determinant test on a file of stacked spectral matrices

:class:`RunConfig` is the single config schema: each field's metadata holds
its flag spelling and help, and both :meth:`RunConfig.to_argv` and
:func:`build_parser` are derived from the fields, so a config always
survives the argv round trip.  One parser takes the command and the full
flag set, in any order.  ``_COMMANDS`` holds each command's help and the
fields it reads (``--format`` and ``--out`` belong to all); :func:`main`
refuses a run that sets any other field away from its default, so the
``# config:`` echo never records a setting its numbers ignore.  The
module itself loads only ``_params`` and ``errors``.  Each command
imports the library layers it calls when it runs, so a process loads only
its own command's modules; numpy, ``core`` and ``_format`` load with the
commands and the writer code that use them.  So ``qubit``, whose closed
forms and table of scalars need no arrays, runs without numpy, and
:func:`main` enters ``np.errstate`` for every other command.  Each command, ``cmd_<name>`` with
the name's dashes as underscores, builds its table, ``(columns,
scalars)``, and returns it without touching a file; :func:`main` looks the
function up in the module when it runs it, and writes the table with the
one writer, ``_write``, which produces both formats.  Output files are
byte-deterministic: no timestamps, fixed float formatting, a single
``# config:`` echo line as the only metadata.

Exit codes: 0 success, 1 I/O failure, 2 bad configuration (including a
non-finite float flag or input state, a flag the command does not read, a
library warning that the warning filters turn into an error, and a finite
configuration whose arithmetic overflows float64 or divides by zero, which
writes no file) or malformed input file, 3 constraint violation (a table
whose worst verdict is ``violation``, after its file is written, or invalid
spectral matrices, which write no file), 4 physically degenerate regime (no
readout gain, no positive red sideband weight for an occupied oscillator,
unstable spring).
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import json
import math
import sys
import warnings
from pathlib import Path
from typing import Callable, Iterator, Sequence

from ._params import CavityParams
from .errors import InvalidMatrixError, QDetNoiseError

_FORMATS = ("csv", "json")
_CHUNK_ROWS = 4096  # rows of a JSON column formatted and written at a time
# float cells of a CSV block, across its float columns: 8 bytes a cell keeps
# each float temporary at 96 KiB, under glibc's 128 KiB mmap threshold, so
# the blocks reuse heap pages instead of faulting in fresh ones
_CHUNK_CELLS = 12288


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
    from .core import InputState

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
    """The one parser: a command and the RunConfig options, each added once.

    The command is a positional choice over ``_COMMANDS``, whose help lists
    the flags each command reads. Options may come before or after it. The
    parser takes every flag for every command; :func:`main` refuses the
    ones a command does not read.
    """
    parser = argparse.ArgumentParser(
        prog="qdetnoise",
        description="Quantum noise spectra, constraints, and applications "
                    "of a cavity position detector.",
    )
    parser.add_argument("command", choices=list(_COMMANDS), help="; ".join(
        f"{name}: {help} ({' '.join(_flag(f) for f in _OPTIONS if f.name in reads)})"
        for name, (help, reads) in _COMMANDS.items()))
    for field in _OPTIONS:
        if isinstance(field.default, bool):
            kind = {"action": "store_true"}
        elif field.default is None:
            kind = {}
        else:
            kind = {"type": type(field.default)}
        parser.add_argument(_flag(field), dest=field.name, default=field.default,
                            **kind, **field.metadata["parser_kwargs"])
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
           scalars: dict[str, float] | None = None) -> str | None:
    """Write one table in the configured format; return the value of its
    most severe verdict, or None for a table without a ``verdict`` column.

    Float cells are ``%.16e`` in CSV and shortest-repr numbers in JSON.  CSV
    repeats each scalar down a column after the others (a table of scalars
    only is one row); JSON keeps scalars as plain values.  A ``verdict``
    column holds Verdict ranks as an int8 array, written as the members'
    values; JSON adds the value of the largest rank as ``worst_verdict``,
    which :func:`main`'s exit code reads too.  The bytes are those of
    ``"%.16e" %`` per CSV cell and of ``json.dumps(doc, sort_keys=True,
    indent=2)``.

    A non-finite cell in a float column is rejected with ValueError, as
    the finite configuration it came from has overflowed; a scalar may be
    infinite (the ratio of a ground-state oscillator).  A verdict column
    of another dtype raises TypeError, and one holding a rank that is not
    a Verdict's raises ValueError.  Every check and conversion runs before
    the file is opened, so an error leaves no file behind.  Both formats
    then stream block by block into the open file, from encoders that
    cannot fail on the finite floats, ranks and config values they are
    given.  Float cells are formatted a block at a time by
    :mod:`._format`, which hands the rare cells it cannot decide (within
    1e-6 of a rounding tie or an edge, or subnormal) to Python: CSV a block
    of rows of about ``_CHUNK_CELLS`` cells across every float column by
    :func:`._format.format_e16`, with the scalars formatted once as a
    suffix shared by every row; JSON one top-level key at a time, a float
    column ``_CHUNK_ROWS`` cells at a time by
    :func:`._format.format_repr`, whose temporaries per cell are about
    2.5 times ``format_e16``'s.  A block of ranks becomes the zero-padded
    label bytes of its members, which both formats place as they place a
    formatted float block.  So the writer's working memory is bounded by
    the block, whatever the table's length and width; the caller's
    columns are read in place.
    """
    scalars = {name: float(value) for name, value in (scalars or {}).items()}
    # a table of scalars only is written without numpy
    cells, label, worst = _cells(columns) if columns else ({}, None, None)
    if cfg.fmt == "csv":
        chunks = _csv_chunks(cfg, cells, scalars, label)
    else:
        doc = {**cells, **scalars, "config": dataclasses.asdict(cfg)}
        if worst is not None:
            doc["worst_verdict"] = worst
        chunks = _json_chunks(doc, label)
    with _output_path(cfg).open("wb") as fh:
        for chunk in chunks:
            fh.write(chunk)
    return worst


def _cells(columns: dict[str, Sequence]) -> tuple[dict[str, np.ndarray],
                                                 Callable | None, str | None]:
    """``_write``'s columns as arrays, checked, with the verdict column's
    block labeller and worst label (None and None without one)."""
    import numpy as np

    cells = {name: np.asarray(col, dtype=None if name == "verdict" else float)
             for name, col in columns.items()}
    label = worst = None
    if "verdict" in cells:
        # loaded already, by the command whose audit gave the ranks
        from .constraints import Verdict
        rank = cells["verdict"]
        if rank.dtype != np.int8:
            raise TypeError(f"a verdict column holds int8 ranks, not {rank.dtype}")
        labels = np.array([v.value for v in Verdict], dtype="S")
        top = int(rank.max(initial=0))
        if rank.min(initial=0) < 0 or top >= len(labels):
            raise ValueError(f"a verdict rank lies outside 0..{len(labels) - 1}")
        label = functools.partial(_labels, labels)
        worst = labels[top].decode("ascii")
    for name, col in cells.items():
        if col.dtype == float and not np.isfinite(col).all():
            raise ValueError(f"column {name} overflows float64 at row "
                             f"{int(np.argmin(np.isfinite(col)))}: the "
                             "configuration is out of range")
    return cells, label, worst


def _labels(labels: np.ndarray, rank: np.ndarray) -> np.ndarray:
    """The ``dtype="S"`` labels of a block of ranks as a uint8 array, one
    zero-padded row per rank."""
    return labels[rank].view("uint8").reshape(len(rank), labels.itemsize)


def _join(parts: list[bytes | np.ndarray], n: int) -> np.ndarray:
    """``n`` rows of side-by-side parts as one byte array, zero padding dropped.

    An array part is an ``(n, width)`` uint8 block of zero-padded cells; a
    ``bytes`` part is repeated down the rows.
    """
    import numpy as np

    out = np.concatenate([
        np.broadcast_to(np.frombuffer(part, dtype=np.uint8), (n, len(part)))
        if isinstance(part, bytes) else part for part in parts], axis=1)
    return out[out != 0]


def _csv_chunks(cfg: RunConfig, cells: dict[str, np.ndarray],
                scalars: dict[str, float], label: Callable | None
                ) -> Iterator[bytes | np.ndarray]:
    """The CSV header, then the rows, formatted a block of rows at a time.

    A block holds about ``_CHUNK_CELLS`` float cells over all float columns
    (at least one row), so a wide table is formatted in shorter blocks and
    its working memory does not grow with its width. A block of rows is one
    :func:`_join` of each column's zero-padded field (a float column's from
    one :func:`._format.format_e16` call over the block, a rank column's
    from ``label`` of its block) and a comma, then the scalars and newline.
    """
    head = f"# config: {_config_echo(cfg)}\n{','.join([*cells, *scalars])}\n"
    yield head.encode("ascii")
    suffix = ",".join("%.16e" % value for value in scalars.values()) + "\n"
    if not cells:  # the one row of a table of scalars only
        yield suffix.encode("ascii")
        return
    import numpy as np

    from ._format import format_e16

    if scalars:
        suffix = "," + suffix
    floats = [col for col in cells.values() if col.dtype == float]
    n_rows = len(next(iter(cells.values())))
    step = max(1, _CHUNK_CELLS // max(len(floats), 1))
    for first in range(0, n_rows, step):
        rows = slice(first, first + step)
        n = min(step, n_rows - first)
        text = iter(format_e16(np.array([col[rows] for col in floats])))
        parts = []
        for col in cells.values():
            parts += [next(text) if col.dtype == float else label(col[rows]), b","]
        yield _join([*parts[:-1], suffix.encode("ascii")], n)


def _json_chunks(doc: dict, label: Callable | None) -> Iterator[bytes | np.ndarray]:
    """``json.dumps(doc, sort_keys=True, indent=2)`` and a newline, as bytes
    yielded one top-level key at a time.

    A non-empty array is written ``_CHUNK_ROWS`` rows at a time, by one
    :func:`_join`: a float column as ``"    <repr>,\\n"`` rows, from
    :func:`._format.format_repr`'s ``float.__repr__`` bytes, as json writes
    floats; a rank column as ``"    \\"<label>\\",\\n"`` rows, from
    ``label`` of each block, as no label needs escaping.  Every other value
    is ``json.dumps`` re-indented.
    """
    for i, key in enumerate(sorted(doc)):
        value = doc[key]
        head = f"{',' if i else '{'}\n  {json.dumps(key)}: "
        # an array, or else a scalar, the config or the worst verdict
        array = not isinstance(value, (float, str, dict))
        if array and value.size:
            from ._format import format_repr

            encode, quote = (format_repr, b"") if value.dtype == float else (label, b'"')
            yield f"{head}[\n".encode("ascii")
            for first in range(0, value.size, _CHUNK_ROWS):
                text = encode(value[first:first + _CHUNK_ROWS])
                rows = _join([b"    " + quote, text, quote + b",\n"], len(text))
                yield rows if first + _CHUNK_ROWS < value.size else rows[:-2]
            yield b"\n  ]"
            continue
        value = value.tolist() if array else value
        body = json.dumps(value, sort_keys=True, indent=2).replace("\n", "\n  ")
        yield f"{head}{body}".encode("ascii")
    yield b"\n}\n"


# ---------------------------------------------------------------------------
# subcommands: each builds its table, (columns, scalars), and returns it;
# main writes it

Table = tuple[dict[str, Sequence], dict[str, float]]


def _cavity_params(cfg: RunConfig) -> CavityParams:
    return CavityParams(gamma=cfg.gamma, delta=cfg.delta, gbar=cfg.gbar,
                        theta=cfg.theta)


def _oscillator(cfg: RunConfig) -> MechOscillator:
    from .core import MechOscillator

    return MechOscillator(omega_m=cfg.omega_m, gamma_m=cfg.gamma_m,
                          mass=cfg.mass, n_occupation=cfg.n_occ)


def cmd_spectra(cfg: RunConfig) -> Table:
    from .cavity import cavity_spectra, cavity_susceptibilities, normalize
    from .core import make_symmetric_grid

    params = _cavity_params(cfg)
    grid = make_symmetric_grid(cfg.omega_max, cfg.n_half)
    state = parse_input_state(cfg.input_state)
    if state.kind == "vacuum":
        susc = cavity_susceptibilities(params, grid)
        sym = cavity_spectra(params, grid)
    else:
        from .netsolve import (build_one_sided_cavity, solve_susceptibilities,
                               solve_unsym_spectra, symmetrize)

        net = build_one_sided_cavity(params, input_state=state)
        susc = solve_susceptibilities(net, grid)
        sym = symmetrize(solve_unsym_spectra(net, grid))
    norm = normalize(sym, susc)
    responses = {
        "omega": grid.points,
        "chi_zf_re": susc.chi_zf.values.real,
        "chi_zf_im": susc.chi_zf.values.imag,
        "chi_ff_re": susc.chi_ff.values.real,
        "chi_ff_im": susc.chi_ff.values.imag,
    }
    densities = {
        "s_zz_sym": sym.s_zz.values.real,
        "s_zf_sym_re": sym.s_zf.values.real,
        "s_zf_sym_im": sym.s_zf.values.imag,
        "s_ff_sym": sym.s_ff.values.real,
        "imprecision": norm.imprecision.values.real,
        "cross_re": norm.cross.values.real,
        "cross_im": norm.cross.values.imag,
    }
    if cfg.single_sided:
        # densities double in the single-sided convention; responses do not
        keep = grid.points >= 0.0
        responses = {name: arr[keep] for name, arr in responses.items()}
        densities = {name: 2.0 * arr[keep] for name, arr in densities.items()}
    return {**responses, **densities}, {}


def cmd_check(cfg: RunConfig) -> Table:
    from .constraints import constraint_report
    from .core import make_symmetric_grid
    from .netsolve import (build_one_sided_cavity, solve_susceptibilities,
                           solve_unsym_spectra)

    params = _cavity_params(cfg)
    grid = make_symmetric_grid(cfg.omega_max, cfg.n_half)
    state = parse_input_state(cfg.input_state)
    net = build_one_sided_cavity(params, input_state=state)
    susc = solve_susceptibilities(net, grid)
    spectra = solve_unsym_spectra(net, grid)
    report = constraint_report(spectra, susc)
    return {
        "omega": grid.points,
        "uncertainty_gap": report.uncertainty_gap,
        "product_residual": report.product_residual,
        "correlation_residual": report.correlation_residual,
        "kubo_residual": report.kubo_residual,
        "positivity_margin": report.positivity_margin,
        "verdict": report.rank,
    }, {}


def cmd_qubit(cfg: RunConfig) -> Table:
    from ._qubit import qubit_rates

    return {}, dataclasses.asdict(qubit_rates(_cavity_params(cfg)))


def cmd_mech(cfg: RunConfig) -> Table:
    from .apps import asymmetry_grid, sideband_asymmetry
    from .core import ComplexSpectrum

    params = _cavity_params(cfg)
    osc = _oscillator(cfg)
    grid = asymmetry_grid(params, osc, window_halfwidth=cfg.window_halfwidth,
                          window_points=cfg.window_points)
    result = sideband_asymmetry(params, osc, grid)
    columns, scalars = {"omega": grid.points}, {}
    for field in dataclasses.fields(result):
        value = getattr(result, field.name)
        if isinstance(value, ComplexSpectrum):
            columns[field.name] = value.values.real
        else:
            scalars[field.name] = value
    return columns, scalars


def _read_mimo_blocks(path: Path) -> tuple[np.ndarray, np.ndarray]:
    """omega and the (rows, 2N, 2N) blocks of a MIMO input file.

    Blank lines, ``#`` comments and a header starting ``omega`` are skipped.
    The first data row fixes the width, which must hold omega and the re,im
    pairs of a square even-dimension block. The rows then stream into
    ``np.loadtxt`` through a generator that counts each row's commas, so
    no list of lines is held beside the parsed array; a row of another
    width raises as it is reached, and a cell that does not parse raises
    from ``np.loadtxt`` as it is reached. omega is checked once all rows
    are read.
    """
    import numpy as np

    with path.open(encoding="utf-8") as fh:
        lines = (line for line in map(str.strip, fh)
                 if line and not line.startswith(("#", "omega")))
        first = next(lines, None)
        if first is None:
            raise ValueError(f"no data rows in MIMO input {path}")
        commas = first.count(",")
        width = commas + 1
        if width < 9 or (width - 1) % 2:
            raise ValueError(
                "each MIMO row must hold omega plus re,im pairs of a 2Nx2N block")
        n_cells = (width - 1) // 2
        dim = math.isqrt(n_cells)
        if dim * dim != n_cells or dim % 2:
            raise ValueError(
                f"{n_cells} cells per row do not form a square even-dimension block")

        def rows() -> Iterator[str]:
            yield first
            for line in lines:
                if line.count(",") != commas:
                    raise ValueError("ragged MIMO input: rows differ in column count")
                yield line

        data = np.loadtxt(rows(), delimiter=",", comments=None, ndmin=2)
    bad = np.flatnonzero(~np.isfinite(data[:, 0]))
    if bad.size:
        raise ValueError(f"omega is not finite in data row {bad[0] + 1} of {path}")
    return data[:, 0], data[:, 1:].view(complex).reshape(len(data), dim, dim)


def cmd_mimo_check(cfg: RunConfig) -> Table:
    from .constraints import mimo_quantum_limit

    if cfg.mimo_input is None:
        raise ValueError("mimo-check requires --mimo-input <file>")
    omega, blocks = _read_mimo_blocks(Path(cfg.mimo_input))
    dets, rank = mimo_quantum_limit(blocks)
    return {"omega": omega, "det": dets, "verdict": rank}, {}


# Each command's help and the RunConfig fields it reads; every command also
# reads fmt and out.  mech reads no delta: sideband_asymmetry sets the
# detuning to -+omega_m itself.
_CAVITY = ("gamma", "delta", "gbar", "theta")
_AUDIT = (*_CAVITY, "omega_max", "n_half", "input_state")
_COMMANDS = {
    "spectra": ("tabulate susceptibilities and spectra on a grid",
                (*_AUDIT, "single_sided")),
    "check": ("audit quantum constraints frequency by frequency", _AUDIT),
    "qubit": ("dispersive readout rates and optimal homodyne angle", _CAVITY),
    "mech": ("motional sideband spectra and asymmetry ratio",
             ("gamma", "gbar", "theta", "omega_m", "gamma_m", "mass", "n_occ",
              "window_halfwidth", "window_points")),
    "mimo-check": ("determinant test for a file of 2Nx2N spectral matrices",
                   ("mimo_input",)),
}


def _show_warning(message, *_):
    print(f"warning: {message}", file=sys.stderr)


def main(argv: Sequence[str] | None = None) -> int:
    """Run one command and return its exit code (see the module docstring).

    A flag that the command does not read, set to anything but its default,
    exits 2 before the command runs. A failure prints one ``error:`` line
    to stderr. A library warning that the warning filters let through
    prints one ``warning: <message>`` line, without a source path; one that
    they turn into an error (``-W error``) prints one ``error:`` line and
    exits 2.
    """
    try:
        cfg = parse_config(sys.argv[1:] if argv is None else argv)
        _, reads = _COMMANDS[cfg.command]
        for field in _OPTIONS:
            if (field.name not in (*reads, "fmt", "out")
                    and getattr(cfg, field.name) != field.default):
                raise ValueError(f"{_flag(field)} has no effect on {cfg.command}")
        # float64 overflow, 0/0 and x/0 raise here, to exit 2 below; qubit's
        # Python floats need no numpy, and its closed forms check their range
        errstate = contextlib.nullcontext()
        if cfg.command != "qubit":
            import numpy as np

            errstate = np.errstate(over="raise", invalid="raise", divide="raise")
        with warnings.catch_warnings(), errstate:
            warnings.showwarning = _show_warning
            # the command, like _write, is the module's attribute when it
            # runs, so a wrapper set on the module is the one called; the
            # table's worst verdict sets the exit code, once it is written
            table = globals()["cmd_" + cfg.command.replace("-", "_")](cfg)
            return 3 if _write(cfg, *table) == "violation" else 0
    except InvalidMatrixError as exc:
        print(f"error: violation: {exc}", file=sys.stderr)
        return 3
    except (ValueError, Warning) as exc:
        # a warning raises under -W error; a GridMismatchError is caught
        # here, ahead of QDetNoiseError, to exit 2
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except QDetNoiseError as exc:
        # degenerate readout, unstable spring, singular normalization, ...
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except ArithmeticError as exc:
        print(f"error: a result overflows float64 ({exc}): the configuration "
              "is out of range", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
