"""Shared domain types: unit conventions, frequency grids, parameter records.

Conventions used throughout the package:

* Fourier transform f(omega) = integral dt e^{+i omega t} f(t), so d/dt maps to
  -i*omega and causal response functions have all poles in the lower half of
  the complex omega plane.
* Spectral densities are double sided and defined through
  S_AB(omega) = integral dtau e^{i omega tau} <A(tau) B(0)>.
* hbar (and k_B) enter only through UnitConvention; the default is 1.
"""

from __future__ import annotations

import dataclasses
import math
import numbers
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import GridMismatchError, InvalidMatrixError


def _require_finite(record) -> None:
    """Reject a parameter record whose real-valued fields hold NaN or inf."""
    for field in dataclasses.fields(record):
        value = getattr(record, field.name)
        if isinstance(value, numbers.Real) and not math.isfinite(value):
            raise ValueError(f"{field.name} must be finite, got {value!r}")


@dataclass(frozen=True)
class UnitConvention:
    """Values of the physical constants all formulas read from.

    Defaults hbar = k_B = 1; override only when feeding laboratory numbers.
    """

    hbar: float = 1.0
    k_B: float = 1.0

    def __post_init__(self) -> None:
        _require_finite(self)
        if not (self.hbar > 0):
            raise ValueError("hbar must be positive")
        if not (self.k_B > 0):
            raise ValueError("k_B must be positive")


@dataclass(frozen=True, eq=False)
class FrequencyGrid:
    """Strictly increasing grid of angular frequencies (rad/s)."""

    points: np.ndarray

    def __post_init__(self) -> None:
        pts = np.array(self.points, dtype=float)
        if pts.ndim != 1 or pts.size < 1:
            raise ValueError("grid must be a one-dimensional, non-empty array")
        if pts.size > 1 and not np.all(np.diff(pts) > 0):
            raise ValueError("grid points must be strictly increasing")
        pts.flags.writeable = False
        object.__setattr__(self, "points", pts)

    def __len__(self) -> int:
        return self.points.size

    def __eq__(self, other: object) -> bool:
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
    holds exactly and reflection is a pure index reversal.
    """
    if not omega_max > 0:
        raise ValueError("omega_max must be positive")
    if n_half < 1:
        raise ValueError("n_half must be a positive integer")
    pos = np.linspace(0.0, float(omega_max), int(n_half) + 1)[1:]
    return FrequencyGrid(np.concatenate([-pos[::-1], [0.0], pos]))


@dataclass(frozen=True, eq=False)
class ComplexSpectrum:
    """Complex values sampled on a FrequencyGrid, held as a read-only copy."""

    grid: FrequencyGrid
    values: np.ndarray

    def __post_init__(self) -> None:
        vals = np.array(self.values, dtype=complex)
        if vals.shape != self.grid.points.shape:
            raise GridMismatchError(
                f"values shape {vals.shape} does not match grid of "
                f"{self.grid.points.size} points"
            )
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)


@dataclass(frozen=True)
class CavityParams:
    """One-sided cavity probe with homodyne readout.

    gamma: cavity amplitude decay rate (> 0)
    delta: drive detuning, drive frequency minus cavity resonance
    gbar:  linearized coupling rate (> 0)
    theta: homodyne angle selecting the measured output quadrature
    """

    gamma: float
    delta: float
    gbar: float
    theta: float = 0.0
    units: UnitConvention = UnitConvention()

    def __post_init__(self) -> None:
        _require_finite(self)
        if not (self.gamma > 0):
            raise ValueError("gamma must be positive")
        if not (self.gbar > 0):
            raise ValueError("gbar must be positive")

    def replace(self, **changes) -> "CavityParams":
        return dataclasses.replace(self, **changes)


@dataclass(frozen=True)
class MechOscillator:
    """Damped mechanical mode in a thermal environment.

    Give exactly one of n_occupation (mean phonon number) or temperature; the
    other is derived once from the Bose factor at omega_m and cached.
    """

    omega_m: float
    gamma_m: float
    mass: float = 1.0
    n_occupation: float | None = None
    temperature: float | None = None
    units: UnitConvention = UnitConvention()

    def __post_init__(self) -> None:
        _require_finite(self)
        if not (self.omega_m > 0 and self.gamma_m > 0 and self.mass > 0):
            raise ValueError("omega_m, gamma_m and mass must be positive")
        if (self.n_occupation is None) == (self.temperature is None):
            raise ValueError("give exactly one of n_occupation or temperature")
        if self.n_occupation is not None:
            n = float(self.n_occupation)
            if n < 0:
                raise ValueError("n_occupation must be non-negative")
            if n == 0.0:
                temp = 0.0
            else:
                temp = self.units.hbar * self.omega_m / (
                    self.units.k_B * math.log1p(1.0 / n))
        else:
            temp = float(self.temperature)
            if not (temp > 0):
                raise ValueError("temperature must be positive")
            x = self.units.hbar * self.omega_m / (self.units.k_B * temp)
            n = 1.0 / math.expm1(x)
        object.__setattr__(self, "_n_mean", n)
        object.__setattr__(self, "_t_eff", temp)

    @property
    def n_mean(self) -> float:
        """Mean occupation at omega_m."""
        return self._n_mean

    @property
    def t_eff(self) -> float:
        """Temperature reproducing n_mean (0 for the ground state)."""
        return self._t_eff

    def bare_susceptibility(self, grid: FrequencyGrid) -> ComplexSpectrum:
        """Mechanical response 1 / [m (omega_m^2 - omega^2 - i gamma_m omega)]."""
        w = grid.points
        den = self.mass * (self.omega_m ** 2 - w ** 2 - 1j * self.gamma_m * w)
        return ComplexSpectrum(grid, 1.0 / den)


@dataclass(frozen=True)
class InputState:
    """Stationary Gaussian state of one input line, white over frequency.

    Fully determined by the mean occupation N >= 0 and the pair moment M
    correlating the +omega and -omega field components, both scalars, as for
    the thermal and squeezed inputs of Clerk et al., RMP 82, 1155 (2010).
    Physical states obey |M|^2 <= N (N + 1), with equality for pure squeezed
    states.
    """

    kind: str
    mean_occupation: float = 0.0
    pair_moment: complex = 0.0

    @classmethod
    def vacuum(cls) -> "InputState":
        return cls("vacuum")

    @classmethod
    def thermal(cls, n_th: float) -> "InputState":
        n = np.asarray(n_th, dtype=float)
        if n.ndim or not (np.isfinite(n) and n >= 0):
            raise ValueError(
                "thermal occupation must be a finite, non-negative number")
        return cls("thermal", float(n))

    @classmethod
    def squeezed(cls, xi: complex) -> "InputState":
        """Pure squeezed state with complex squeeze parameter xi = r e^{i phi}."""
        x = np.asarray(xi, dtype=complex)
        if x.ndim or not np.isfinite(x):
            raise ValueError("squeeze parameter must be a finite number")
        r, phi = np.abs(x), np.angle(x)
        with np.errstate(over="ignore", invalid="ignore"):
            n = np.sinh(r) ** 2
            m = np.exp(1j * phi) * np.sinh(r) * np.cosh(r)
        if not (np.isfinite(n) and np.isfinite(m)):
            raise ValueError(f"squeeze magnitude {r:.9g} is too large: "
                             "its moments overflow float64")
        return cls("squeezed", float(n), complex(m))

    def moments(self) -> tuple[float, complex]:
        """(N, M), validated for physicality."""
        if np.ndim(self.mean_occupation) or np.ndim(self.pair_moment):
            raise InvalidMatrixError(
                "mean occupation and pair moment must be scalars")
        n, m = float(np.real(self.mean_occupation)), complex(self.pair_moment)
        if not (np.isfinite(n) and np.isfinite(m)):
            raise InvalidMatrixError(
                "mean occupation and pair moment must be finite")
        if n < 0:
            raise InvalidMatrixError("mean occupation must be non-negative")
        # both sides may overflow to inf for N above ~1e154; inf > inf is False
        with np.errstate(over="ignore"):
            too_large = np.abs(m) ** 2 > n * (n + 1.0) * (1 + 1e-9) + 1e-30
        if too_large:
            raise InvalidMatrixError(
                "pair moment too large: |M|^2 <= N (N + 1) is required")
        return n, m
