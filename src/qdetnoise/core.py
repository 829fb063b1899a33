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
from typing import Union

import numpy as np

from .errors import GridMismatchError, InvalidMatrixError

ArrayOrFloat = Union[float, np.ndarray]


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
class CouplingSpec:
    """Probe-field coupling reduced to one rate.

    The bare rate g depends on the physical variant; the linearized rate that
    enters every formula is gbar = g * sqrt(2 * n_cav_mean), growing with the
    mean intracavity photon number.
    """

    variant: str
    bare_rate: float
    n_cav_mean: float = 1.0

    def __post_init__(self) -> None:
        if not (self.n_cav_mean > 0):
            raise ValueError("n_cav_mean must be positive")

    @classmethod
    def direct(cls, g: float, n_cav_mean: float = 1.0) -> "CouplingSpec":
        return cls("direct", float(g), float(n_cav_mean))

    @classmethod
    def qubit(cls, g0: float, omega01: float, omega_l: float,
              n_cav_mean: float = 1.0) -> "CouplingSpec":
        """Dispersive two-level coupling, g = g0^2 / (omega_l - omega01)."""
        if omega_l == omega01:
            raise ValueError("dispersive coupling requires omega_l != omega01")
        return cls("qubit", float(g0) ** 2 / (float(omega_l) - float(omega01)),
                   float(n_cav_mean))

    @classmethod
    def mechanical(cls, omega_r: float, length: float,
                   n_cav_mean: float = 1.0) -> "CouplingSpec":
        """Dispersive position coupling of a movable boundary, g = omega_r / L."""
        if not (length > 0):
            raise ValueError("length must be positive")
        return cls("mechanical", float(omega_r) / float(length), float(n_cav_mean))

    @property
    def gbar(self) -> float:
        return self.bare_rate * math.sqrt(2.0 * self.n_cav_mean)


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

    @classmethod
    def from_coupling(cls, gamma: float, delta: float, coupling: CouplingSpec,
                      theta: float = 0.0,
                      units: UnitConvention = UnitConvention()) -> "CavityParams":
        return cls(gamma, delta, coupling.gbar, theta, units)

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


def _as_moment_array(value: ArrayOrFloat, grid: FrequencyGrid,
                     name: str, even_required: bool) -> np.ndarray:
    arr = np.asarray(value)
    if arr.ndim == 0:
        return np.broadcast_to(arr, grid.points.shape).copy()
    if arr.shape != grid.points.shape:
        raise GridMismatchError(
            f"{name} array has {arr.size} entries for a grid of "
            f"{grid.points.size} points")
    grid.require_symmetric(f"frequency-dependent {name}")
    if even_required and not np.allclose(arr, arr[::-1], rtol=1e-12, atol=0.0):
        raise InvalidMatrixError(
            f"{name} must be even in omega: pairing correlates +omega with -omega")
    return arr.copy()


@dataclass(frozen=True)
class InputState:
    """Stationary Gaussian state of one input line.

    Fully determined by the mean occupation N(omega) >= 0 and the pair moment
    M(omega) correlating the +omega and -omega field components. Physical
    states obey |M|^2 <= N (N + 1), with equality for pure squeezed states.
    Scalars denote frequency-independent moments; arrays are grid data.
    """

    kind: str
    mean_occupation: ArrayOrFloat = 0.0
    pair_moment: ArrayOrFloat = 0.0

    @classmethod
    def vacuum(cls) -> "InputState":
        return cls("vacuum")

    @classmethod
    def thermal(cls, n_th: ArrayOrFloat) -> "InputState":
        n = np.asarray(n_th, dtype=float)
        if not np.all(np.isfinite(n) & (n >= 0)):
            raise ValueError("thermal occupation must be finite and non-negative")
        return cls("thermal", n if n.ndim else float(n))

    @classmethod
    def squeezed(cls, xi: complex | np.ndarray) -> "InputState":
        """Pure squeezed state with complex squeeze parameter xi = r e^{i phi}."""
        x = np.asarray(xi, dtype=complex)
        if not np.all(np.isfinite(x)):
            raise ValueError("squeeze parameter must be finite")
        r, phi = np.abs(x), np.angle(x)
        with np.errstate(over="ignore", invalid="ignore"):
            n = np.sinh(r) ** 2
            m = np.exp(1j * phi) * np.sinh(r) * np.cosh(r)
        if not (np.all(np.isfinite(n)) and np.all(np.isfinite(m))):
            raise ValueError(f"squeeze magnitude {np.max(r):.9g} is too large: "
                             "its moments overflow float64")
        if x.ndim == 0:
            return cls("squeezed", float(n), complex(m))
        return cls("squeezed", n, m)

    def moments(self, grid: FrequencyGrid) -> tuple[np.ndarray, np.ndarray]:
        """(N, M) sampled on the grid, validated for physicality."""
        n = _as_moment_array(self.mean_occupation, grid, "mean occupation",
                             even_required=False).real.astype(float)
        m = _as_moment_array(self.pair_moment, grid, "pair moment",
                             even_required=True).astype(complex)
        if not (np.all(np.isfinite(n)) and np.all(np.isfinite(m))):
            raise InvalidMatrixError(
                "mean occupation and pair moment must be finite")
        if np.any(n < 0):
            raise InvalidMatrixError("mean occupation must be non-negative")
        # both sides may overflow to inf for N above ~1e154; inf > inf is False
        with np.errstate(over="ignore"):
            too_large = np.abs(m) ** 2 > n * (n + 1.0) * (1 + 1e-9) + 1e-30
        if np.any(too_large):
            raise InvalidMatrixError(
                "pair moment too large: |M|^2 <= N (N + 1) is required")
        return n, m

    def quadrature_covariance(
            self, grid: FrequencyGrid) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(V_XX, V_YY, V_XY); det = 1/4 exactly for pure states."""
        n, m = self.moments(grid)
        v_xx = n + 0.5 + m.real
        v_yy = n + 0.5 - m.real
        v_xy = m.imag
        return v_xx, v_yy, v_xy
