"""Shared domain types and rules: units, grids, parameter and result records.

Conventions used throughout the package:

* Fourier transform f(omega) = integral dt e^{+i omega t} f(t), so d/dt maps to
  -i*omega and causal response functions have all poles in the lower half of
  the complex omega plane.
* Spectral densities are double sided and defined through
  S_AB(omega) = integral dtau e^{i omega tau} <A(tau) B(0)>.
* hbar enters only through UnitConvention, which defaults (to 1) only on
  the model records; every result and check reads it from its inputs.

The result records that both routes produce, the closed forms in ``cavity``
and the engine in ``netsolve``, live here with the rules every layer
shares, so the engine and the audit need not import the closed forms. The
records are ``SusceptibilitySet``, ``SpectraSet`` and
``NormalizedSpectra``. The rules are one grid check (``_require_grid``),
which every record applies to its own spectra when built, the
float64-range guard of the solvers and closed forms, the no-signal check,
the Kubo residual and the blocks of rows that bound each layer's
temporaries.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

# the parameter records qubit needs, numpy-free in _params; core's own
# records apply the same finiteness rule
from ._params import CavityParams, UnitConvention, _require_finite  # noqa: F401
from .errors import GridMismatchError, SingularNormalizationError

_IMAG_TOL = 1e-12
# Bytes of per-point complex temporaries a layer forms at a time: the
# engine's resolvent and spectra form, the audit's gap terms and the MIMO
# check walk their rows in blocks of this size, so their working memory
# does not grow with the grid.
_BLOCK_BYTES = 100_000


def _require_width(name: str, value: float) -> None:
    """Reject a grid width that is not finite and positive."""
    if not (math.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be finite and positive, got {value!r}")


def _require_count(name: str, value: float, least: int) -> int:
    """``value`` as an int; raise unless it is a whole number >= ``least``."""
    if not (math.isfinite(value) and value == int(value) and value >= least):
        raise ValueError(f"{name} must be a whole number of at least {least}, "
                         f"got {value!r}")
    return int(value)


@dataclass(frozen=True, eq=False)
class FrequencyGrid:
    """Strictly increasing grid of finite angular frequencies (rad/s)."""

    points: np.ndarray

    def __post_init__(self) -> None:
        pts = np.array(self.points, dtype=float)
        if pts.ndim != 1 or pts.size < 1:
            raise ValueError("grid must be a one-dimensional, non-empty array")
        if not np.isfinite(pts).all():
            raise ValueError("grid points must be finite")
        if pts.size > 1 and not np.all(np.diff(pts) > 0):
            raise ValueError("grid points must be strictly increasing")
        pts.flags.writeable = False
        object.__setattr__(self, "points", pts)

    def __len__(self) -> int:
        return self.points.size

    def __eq__(self, other: object) -> bool:
        if other is self:  # the points are finite, so equal to themselves
            return True
        if not isinstance(other, FrequencyGrid):
            return NotImplemented
        return self.points.shape == other.points.shape and bool(
            np.array_equal(self.points, other.points)
        )

    def __hash__(self) -> int:
        return hash((self.points.size, self.points.tobytes()))

    @cached_property
    def is_symmetric(self) -> bool:
        """True when the grid maps onto itself under omega -> -omega."""
        return bool(np.array_equal(self.points, -self.points[::-1]))

    def require_symmetric(self, what: str = "this operation") -> None:
        if not self.is_symmetric:
            raise GridMismatchError(
                f"{what} needs the value at -omega for every omega; "
                "use make_symmetric_grid() to build a symmetric grid"
            )


def make_symmetric_grid(omega_max: float, n_half: int) -> FrequencyGrid:
    """Uniform grid of 2*n_half + 1 points on [-omega_max, omega_max].

    The positive half is mirrored by negation, so points == -points[::-1]
    holds exactly and reflection is a pure index reversal.  omega_max must
    be finite and positive and n_half a whole number >= 1; otherwise
    ValueError names the argument.
    """
    _require_width("omega_max", omega_max)
    n_half = _require_count("n_half", n_half, 1)
    pos = np.linspace(0.0, float(omega_max), n_half + 1)[1:]
    return FrequencyGrid(np.concatenate([-pos[::-1], [0.0], pos]))


@dataclass(frozen=True, eq=False)
class ComplexSpectrum:
    """Complex values sampled on a FrequencyGrid, held as a read-only copy.

    The copy keeps a caller's own array writeable. The library's solvers
    and closed forms wrap the buffers they have just built with
    ``_adopt``, which freezes the buffer itself instead.
    """

    grid: FrequencyGrid
    values: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "values",
                           _frozen(self.grid, np.array(self.values, dtype=complex)))


def _frozen(grid: FrequencyGrid, vals: np.ndarray) -> np.ndarray:
    """``vals`` made read-only in place, once its shape matches ``grid``."""
    if vals.shape != grid.points.shape:
        raise GridMismatchError(
            f"values shape {vals.shape} does not match grid of "
            f"{grid.points.size} points"
        )
    vals.flags.writeable = False
    return vals


def _adopt(grid: FrequencyGrid, buffer: np.ndarray) -> ComplexSpectrum:
    """ComplexSpectrum holding ``buffer`` itself, frozen and not copied.

    ``buffer`` is a complex128 array the library has just built and holds
    no other reference to.
    """
    if buffer.dtype != complex:
        raise TypeError(f"an adopted buffer must be complex128, got {buffer.dtype}")
    spectrum = object.__new__(ComplexSpectrum)
    vars(spectrum).update(grid=grid, values=_frozen(grid, buffer))
    return spectrum


def _spectra(record) -> list[tuple[str, ComplexSpectrum]]:
    """(name, spectrum) of each ComplexSpectrum field of ``record``."""
    return [(name, value) for name, value in vars(record).items()
            if isinstance(value, ComplexSpectrum)]


def _require_grid(grid: FrequencyGrid, name: str, other: FrequencyGrid) -> None:
    """Raise GridMismatchError, naming the field or argument ``name``,
    unless its grid ``other`` equals ``grid``: the one grid rule."""
    if other != grid:
        raise GridMismatchError(f"{name} lives on a different grid")


@dataclass(frozen=True)
class MechOscillator:
    """Damped mechanical mode in a thermal environment.

    n_occupation is the mean phonon number at omega_m, the quantity the
    sideband weights n and n + 1 read out.
    """

    omega_m: float
    gamma_m: float
    mass: float = 1.0
    n_occupation: float = dataclasses.field(kw_only=True)
    units: UnitConvention = UnitConvention()

    def __post_init__(self) -> None:
        _require_finite(self)
        if not (self.omega_m > 0 and self.gamma_m > 0 and self.mass > 0):
            raise ValueError("omega_m, gamma_m and mass must be positive")
        if not (self.n_occupation >= 0):
            raise ValueError("n_occupation must be non-negative")

    @property
    def t_eff(self) -> float:
        """Effective temperature: the energy k_B T whose Bose factor at omega_m
        is n_occupation (0 at n = 0)."""
        n = self.n_occupation
        if n == 0.0:
            return 0.0
        return self.units.hbar * self.omega_m / math.log1p(1.0 / n)

    def bare_susceptibility(self, grid: FrequencyGrid) -> ComplexSpectrum:
        """Mechanical response 1 / [m (omega_m^2 - omega^2 - i gamma_m omega)]."""
        w = grid.points
        den = self.mass * (self.omega_m ** 2 - w ** 2 - 1j * self.gamma_m * w)
        return _adopt(grid, 1.0 / den)


@dataclass(frozen=True)
class InputState:
    """Stationary Gaussian state of one input line, white over frequency.

    Every single-mode Gaussian state is a thermal state of occupation n_th
    squeezed by r e^{i phi} (Weedbrook et al., RMP 84, 621 (2012)), so the
    record is physical by construction. The mean occupation N and the pair
    moment M of the +omega and -omega field components (Clerk et al., RMP 82,
    1155 (2010)) are derived: N = n_th + (2 n_th + 1) sinh^2 r and
    M = (2 n_th + 1) e^{i phi} sinh r cosh r, so (N + 1/2)^2 - |M|^2 =
    (n_th + 1/2)^2, and |M|^2 = N (N + 1) for pure states (n_th = 0).
    """

    n_th: float = 0.0
    r: float = 0.0
    phi: float = 0.0

    def __post_init__(self) -> None:
        if np.ndim(self.n_th) or np.ndim(self.r) or np.ndim(self.phi):
            raise ValueError("n_th, r and phi must be scalars")
        for field in dataclasses.fields(self):
            object.__setattr__(self, field.name, float(getattr(self, field.name)))
        _require_finite(self)
        if not (self.n_th >= 0 and self.r >= 0):
            raise ValueError("n_th and the squeeze magnitude r must be non-negative")
        with np.errstate(over="ignore", invalid="ignore"):
            finite = np.isfinite(self.moments()).all()
        if not finite:
            raise ValueError(f"squeeze magnitude {self.r} gives no state: "
                             "its moments overflow float64")

    @property
    def kind(self) -> str:
        return "squeezed" if self.r > 0 else "thermal" if self.n_th > 0 else "vacuum"

    @classmethod
    def vacuum(cls) -> "InputState":
        return cls()

    @classmethod
    def thermal(cls, n_th: float) -> "InputState":
        return cls(n_th)

    @classmethod
    def squeezed(cls, xi: complex) -> "InputState":
        """Pure squeezed state with complex squeeze parameter xi = r e^{i phi}."""
        return cls(0.0, np.abs(xi), np.angle(xi))

    def moments(self) -> tuple[float, complex]:
        """(N, M) of the state."""
        w = 2.0 * self.n_th + 1.0
        return (self.n_th + w * np.sinh(self.r) ** 2,
                w * np.exp(1j * self.phi) * np.sinh(self.r) * np.cosh(self.r))


class _OnOneGrid:
    """Base of the result records: every spectrum lives on the record's grid."""

    def __post_init__(self) -> None:
        for name, spectrum in _spectra(self):
            _require_grid(self.grid, name, spectrum.grid)


@dataclass(frozen=True)
class SusceptibilitySet(_OnOneGrid):
    """Causal response functions of the readout/force observable pair.

    chi_zf: readout response to a force on the probe (the signal path)
    chi_ff: force self-response (dynamical back action)
    chi_zz, chi_fz: identically zero for a valid detector, whose output
        commutes with itself at all times and never feels the readout
    units: the hbar of the model the responses were computed from
    """

    grid: FrequencyGrid
    chi_zf: ComplexSpectrum
    chi_ff: ComplexSpectrum
    chi_zz: ComplexSpectrum
    chi_fz: ComplexSpectrum
    units: UnitConvention


@dataclass(frozen=True)
class SpectraSet(_OnOneGrid):
    """Noise spectra of the readout (z) and force (f) observables.

    With symmetrized=False the entries are the double-sided spectra
    S_AB(omega); with symmetrized=True they are the even combinations
    [S_AB(omega) + S_BA(-omega)] / 2, whose diagonal entries must be real
    and non-negative, each to _IMAG_TOL of its own largest value.
    """

    grid: FrequencyGrid
    s_zz: ComplexSpectrum
    s_zf: ComplexSpectrum
    s_ff: ComplexSpectrum
    symmetrized: bool

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.symmetrized:
            for name, spec in (("s_zz", self.s_zz), ("s_ff", self.s_ff)):
                _require_even_auto(name, spec.values)


def _symmetrized(values: np.ndarray, cross: bool = False,
                 block: slice = slice(None)) -> np.ndarray:
    """[v(omega) + v(-omega)] / 2 on the points ``block`` of a symmetric
    grid, with v(-omega) conjugated for a ``cross`` spectrum.

    The sums are halved part by part as reals: a complex multiply would
    form 0 * inf from an infinite entry. Each value is formed alone, so a
    block of points holds the same bits as the whole grid.
    """
    mirror = values[::-1][block]
    total = values[block] + (np.conj(mirror) if cross else mirror)
    np.multiply(total.view(float), 0.5, out=total.view(float))
    return total


def _require_even_auto(name: str, values: np.ndarray) -> None:
    """Raise ValueError unless the symmetrized auto-spectrum ``values`` is
    real and non-negative, each to _IMAG_TOL of its own largest value."""
    # against the spectrum's own peak, so the same in any units
    limit = _IMAG_TOL * np.max(values.real, initial=0.0)
    if np.maximum(np.max(values.imag), -np.min(values.imag)) > limit:
        raise ValueError(f"symmetrized {name} has imaginary residue "
                         f"above {_IMAG_TOL} of its peak")
    if np.min(values.real) < -limit:
        raise ValueError(f"symmetrized {name} must be non-negative")


@dataclass(frozen=True)
class NormalizedSpectra(_OnOneGrid):
    """Noise referred to the measured variable, z = Z / chi_zf.

    imprecision: S_zz / |chi_zf|^2, the readout floor in system units
    cross:       S_zf / chi_zf, imprecision/back-action correlation
    force:       S_ff, passed through unchanged
    """

    grid: FrequencyGrid
    imprecision: ComplexSpectrum
    cross: ComplexSpectrum
    force: ComplexSpectrum


def _in_float64_range(compute):
    """Raise ValueError, not OverflowError, for a result float64 cannot hold.

    compute(model, grid) is a closed form or an engine solver. It runs with
    numpy's overflow and invalid-value warnings off, so that an out-of-range
    call ends in this one ValueError. Python's ``x ** 2`` raises
    OverflowError, and a product of Python floats overflows to inf silently;
    both mean the parameters are out of range.
    """
    @functools.wraps(compute)
    def checked(model, grid: FrequencyGrid):
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                result = compute(model, grid)
            # ComplexSpectrum values are contiguous complex128: the float view is exact
            finite = all(np.isfinite(value.values.view(float)).all()
                         for _, value in _spectra(result))
        except OverflowError:
            finite = False
        if not finite:
            raise ValueError(f"{compute.__name__} overflows float64: the "
                             "parameters are out of range")
        return result
    return checked


def _require_signal(grid: FrequencyGrid, no_signal: np.ndarray) -> None:
    """Raise SingularNormalizationError at the first frequency flagged in
    ``no_signal``, where the signal response vanishes."""
    if np.any(no_signal):
        raise SingularNormalizationError(
            f"chi_zf vanishes at omega = {grid.points[no_signal][0]:.6g}; "
            "the readout carries no signal there")


def _kubo_residual(s_ff_unsym: ComplexSpectrum, chi_ff: ComplexSpectrum,
                   units: UnitConvention) -> np.ndarray:
    """Fluctuation-dissipation residual as a contiguous float array,

        Im chi_ff(omega) - [S_ff(omega) - S_ff(-omega)] / (2 hbar).

    Complex subtraction is componentwise, so the real parts are subtracted
    alone, in one buffer.
    """
    _require_grid(s_ff_unsym.grid, "chi_ff", chi_ff.grid)
    s_ff_unsym.grid.require_symmetric("the fluctuation-dissipation check")
    s = s_ff_unsym.values.real
    residual = np.subtract(s, s[::-1])
    residual /= 2.0 * units.hbar
    return np.subtract(chi_ff.values.imag, residual, out=residual)


def _blocks(size: int, width: int) -> list[tuple[int, int]]:
    """Ranges [a, b) that cover range(size), with (b - a) * width complex
    values near _BLOCK_BYTES; width is what one point holds.

    Each block but the last holds a multiple of 16 points. BLAS kernels
    and numpy's vector loops tile the point axis, and a block edge inside a
    tile would round that tile's sums differently from one pass over the
    whole grid.
    """
    step = max(16, _BLOCK_BYTES // (256 * width) * 16)
    return [(a, min(a + step, size)) for a in range(0, size, step)]
