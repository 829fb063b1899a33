"""Dispersive qubit readout from the cavity detector's zero-frequency limits.

The rates and the optimal homodyne angle are closed forms in ``math``
alone, so this module, like ``_params``, loads no numpy and the ``qubit``
command runs without it. ``apps`` re-exports its three names.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from ._params import CavityParams
from .errors import DegenerateReadoutError


@dataclass(frozen=True)
class QubitReadoutResult:
    """Readout figures of merit for a dispersively coupled qubit.

    ``gamma_meas`` is the rate at which the output record distinguishes the
    two qubit states, ``gamma_phi`` the ensemble dephasing rate driven by
    force (photon number) fluctuations, ``ratio`` their quotient
    ``gamma_phi / gamma_meas`` (always >= 1), and ``theta_opt`` the homodyne
    angle that drives the ratio to 1 for the given cavity parameters.
    """

    gamma_meas: float
    gamma_phi: float
    ratio: float
    theta_opt: float


def optimal_angle(gamma: float, delta: float) -> float:
    """Homodyne angle at which readout reaches the quantum limit.

    Solves ``delta*sin(theta) + gamma*cos(theta) = 0`` for theta, which
    zeroes the excess-dephasing term in the rate ratio.  The answer is
    defined modulo pi; this returns the branch in (-pi/2, pi/2].
    """
    if gamma == 0.0 and delta == 0.0:
        raise ValueError("optimal angle undefined when gamma and delta both vanish")
    if delta == 0.0:
        return math.pi / 2
    return -math.atan(gamma / delta)


def qubit_rates(params: CavityParams) -> QubitReadoutResult:
    """Measurement and dephasing rates for dispersive qubit readout.

    Both rates come from the zero-frequency limits of the cavity detector:
    the measurement rate from the squared gain over the imprecision floor,
    the dephasing rate from the symmetrized force noise.  Raises
    :class:`DegenerateReadoutError` when the chosen homodyne angle has no
    zero-frequency gain (``delta*cos(theta) = gamma*sin(theta)``), since no
    information reaches the record there, and ValueError when a rate
    overflows float64 or gamma and delta are so small that the squared
    denominator (delta^2 + gamma^2)^2 is not a normal float.
    """
    gamma, delta, theta, gbar = params.gamma, params.delta, params.theta, params.gbar
    gain = delta * math.cos(theta) - gamma * math.sin(theta)
    if abs(gain) <= 1e-12 * math.hypot(gamma, delta):
        raise DegenerateReadoutError(
            "zero-frequency readout gain vanishes at this homodyne angle "
            f"(gamma={gamma:g}, delta={delta:g}, theta={theta:g})"
        )
    denom = delta * delta + gamma * gamma
    if denom * denom < sys.float_info.min:
        raise ValueError(f"(delta^2 + gamma^2)^2 underflows float64 at gamma={gamma:g}, "
                         f"delta={delta:g}: the parameters are out of range")
    gamma_meas = 4.0 * gbar * gbar * gamma * gain * gain / (denom * denom)
    gamma_phi = 4.0 * gbar * gbar * gamma / denom
    if not (math.isfinite(gamma_meas) and math.isfinite(gamma_phi)):
        raise ValueError("a readout rate overflows float64: the parameters are "
                         "out of range")
    orthogonal = delta * math.sin(theta) + gamma * math.cos(theta)
    # Written as 1 + square so the bound ratio >= 1 holds in floating point.
    ratio = 1.0 + (orthogonal / gain) ** 2
    return QubitReadoutResult(
        gamma_meas=gamma_meas,
        gamma_phi=gamma_phi,
        ratio=ratio,
        theta_opt=optimal_angle(gamma, delta),
    )
