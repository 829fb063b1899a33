"""Applications of the detector noise machinery.

Two workloads live here:

* dispersive qubit readout: measurement and dephasing rates extracted from
  the zero-frequency gain and force noise of a driven cavity detector, plus
  the homodyne angle that saturates the rate inequality, scalar closed
  forms defined in the numpy-free ``_qubit`` and re-exported here;
* position sensing of a mechanical oscillator: back-action-modified
  mechanical response, thermal force noise, the total measurement-referred
  output spectrum, and motional sideband asymmetry.

All formulas follow the package conventions: response functions carry poles
in the lower half-plane, and symmetrized spectra are real.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

# the qubit forms need no arrays: they live apart, so qubit loads no numpy
from ._qubit import QubitReadoutResult, optimal_angle, qubit_rates  # noqa: F401
from .cavity import cavity_spectra, cavity_susceptibilities, normalize
from .core import (CavityParams, ComplexSpectrum, FrequencyGrid, MechOscillator,
                   _adopt, _require_count, _require_width)
from .errors import (
    DegenerateReadoutError,
    GridMismatchError,
    OpticalSpringInstabilityError,
)


@dataclass(frozen=True)
class AsymmetryResult:
    """Output spectra and integrated sideband weights for a detuning pair.

    ``spectrum_red`` is the total output spectrum with the drive detuned to
    the red motional sideband (delta = -omega_m), ``spectrum_blue`` the same
    for delta = +omega_m.  The areas integrate each spectrum over the grid
    after subtracting the pointwise imprecision floor, so they measure only
    the motional peak.  ``ratio`` is ``area_blue / area_red``; it is
    ``math.inf`` when the oscillator sits in its ground state and the red
    peak cancels.
    """

    spectrum_red: ComplexSpectrum
    spectrum_blue: ComplexSpectrum
    area_red: float
    area_blue: float
    ratio: float


def modified_mech_susceptibility(
    osc: MechOscillator, chi_ff: ComplexSpectrum
) -> ComplexSpectrum:
    """Mechanical response dressed by the detector's force-force response.

    Closes the feedback loop position -> force -> position:
    ``chi_qq = chi0 / (1 - chi0 * chi_ff)``.  The real part of the loop
    correction shifts the resonance (optical spring), the imaginary part
    adds or removes damping.  Raises
    :class:`OpticalSpringInstabilityError` when the denominator passes
    through zero on the grid, i.e. a closed-loop pole sits on the real
    axis.
    """
    chi0 = osc.bare_susceptibility(chi_ff.grid)
    loop = chi0.values * chi_ff.values
    den = 1.0 - loop
    blown = np.abs(den) < 1e-12 * np.abs(loop)
    del loop
    if np.any(blown):
        omega_bad = chi_ff.grid.points[blown][0]
        raise OpticalSpringInstabilityError(
            f"dressed mechanical response diverges at omega={omega_bad:.9g}: "
            "closed-loop pole on the real axis"
        )
    return _adopt(chi_ff.grid, np.divide(chi0.values, den, out=den))


def thermal_force_spectrum(osc: MechOscillator, grid: FrequencyGrid) -> ComplexSpectrum:
    """Symmetrized spectrum of the thermal Langevin force on the oscillator.

    Fluctuation-dissipation form for Ohmic damping,
    ``hbar * m * gamma_m * omega * coth(hbar*omega / (2*T))``, evaluated
    at the oscillator's effective temperature T, an energy (k_B = 1).  At
    T = 0 this degrades to the zero-point floor ``hbar * m * gamma_m *
    |omega|``.  The values are real and even in frequency.
    """
    hbar = osc.units.hbar
    omega = grid.points
    temp = osc.t_eff
    if temp == 0.0:
        weight = np.abs(omega)
    else:
        x = hbar * omega / (2.0 * temp)
        weight = np.empty_like(omega)
        small = np.abs(x) < 1e-8
        # omega*coth(x) -> (2 T / hbar) * (1 + x^2/3) as omega -> 0
        weight[small] = (2.0 * temp / hbar) * (1.0 + x[small] ** 2 / 3.0)
        weight[~small] = omega[~small] / np.tanh(x[~small])
    values = hbar * osc.mass * osc.gamma_m * weight
    return _adopt(grid, values.astype(complex))


def closed_loop_poles(params: CavityParams, osc: MechOscillator) -> np.ndarray:
    """Complex frequencies of the coupled cavity-oscillator normal modes.

    Roots of the quartic obtained by clearing denominators in
    ``1 - chi0(omega) * chi_ff(omega) = 0``.  A stable system has every
    root in the lower half-plane.  Cavity and oscillator must share one hbar.
    """
    if params.units != osc.units:
        raise ValueError("cavity and oscillator carry different unit conventions")
    mass, omega_m, gamma_m = osc.mass, osc.omega_m, osc.gamma_m
    mech = np.array([-mass, -1j * mass * gamma_m, mass * omega_m**2])
    cav = np.array(
        [1.0, 2j * params.gamma, -(params.gamma**2 + params.delta**2)],
        dtype=complex,
    )
    poly = np.polymul(mech, cav)
    poly[-1] -= 2.0 * params.units.hbar * params.gbar**2 * params.delta
    return np.roots(poly)


def _require_stable(params: CavityParams, osc: MechOscillator) -> None:
    poles = closed_loop_poles(params, osc)
    worst = poles[np.argmax(poles.imag)]
    if worst.imag >= 0.0:
        raise OpticalSpringInstabilityError(
            "coupled cavity-oscillator system is unstable: normal mode at "
            f"omega={worst:.9g} does not decay"
        )


def _sideband(
    params: CavityParams, osc: MechOscillator, grid: FrequencyGrid
) -> tuple[ComplexSpectrum, float]:
    """One drive's measurement-referred output spectrum and motional peak area.

    total = floor + 2 Re[chi_q^* cross] + |chi_q|^2 (back-action + thermal
    force noise), chi_q the dressed response and floor the imprecision
    noise; the area is the trapezoid rule over the grid of total - floor.
    The caller checks stability and the grid's coverage.
    """
    susc = cavity_susceptibilities(params, grid)
    norm = normalize(cavity_spectra(params, grid), susc)
    chi_ff = susc.chi_ff
    del susc  # normalize has read chi_zf, and chi_zz and chi_fz are zero
    chi_q = modified_mech_susceptibility(osc, chi_ff)
    force = norm.force.values.real + thermal_force_spectrum(osc, grid).values.real
    floor = norm.imprecision.values.real
    total = (
        floor
        + 2.0 * (np.conj(chi_q.values) * norm.cross.values).real
        + np.abs(chi_q.values) ** 2 * force
    )
    peak = total - floor
    # trapezoid rule written out: np.trapezoid needs numpy 2
    area = float(np.sum(np.diff(grid.points) * (peak[1:] + peak[:-1]) / 2.0))
    return _adopt(grid, total.astype(complex)), area


def sideband_asymmetry(
    params_template: CavityParams, osc: MechOscillator, grid: FrequencyGrid
) -> AsymmetryResult:
    """Motional sideband weights for drive detunings at +/- omega_m.

    Replaces the template's detuning by -omega_m (red) and +omega_m (blue)
    and runs each drive through one routine, which builds its total output
    spectrum, subtracts the pointwise imprecision floor, and integrates the
    motional peak over the grid with the trapezoid rule.  In thermal
    equilibrium the weights scale as n and n + 1, so their ratio reads out
    the occupation directly.

    The grid must cover at least ten effective linewidths on both sides of
    omega_m, else :class:`GridMismatchError` is raised.  A warning is
    emitted outside the resolved-sideband regime (gamma > 0.1 * omega_m),
    where the two sidebands overlap and the areas lose meaning.  A red area
    that is not positive although n_occupation > 0 raises
    :class:`DegenerateReadoutError`: the readout does not resolve the peak.
    """
    omega_m = osc.omega_m
    if params_template.gamma > 0.1 * omega_m:
        warnings.warn(
            "cavity linewidth exceeds 0.1 * omega_m; sidebands overlap and "
            "integrated weights are unreliable",
            stacklevel=2,
        )
    drives = [replace(params_template, delta=d) for d in (-omega_m, omega_m)]
    # before the coverage check, which reads the cavity's hbar
    for p in drives:
        _require_stable(p, osc)

    at_omega_m = FrequencyGrid(np.array([omega_m]))
    gamma_eff = [osc.gamma_m + cavity_susceptibilities(p, at_omega_m).chi_ff.values[0].imag
                 / (osc.mass * omega_m) for p in drives]
    # 0.0 first, so a NaN linewidth is passed over
    span = max(0.0, *(10.0 * abs(g) for g in gamma_eff))
    points = grid.points
    if points[0] > omega_m - span or points[-1] < omega_m + span:
        raise GridMismatchError(
            "grid does not cover ten effective linewidths around omega_m; "
            f"need [{omega_m - span:.9g}, {omega_m + span:.9g}], have "
            f"[{points[0]:.9g}, {points[-1]:.9g}]"
        )

    (total_red, area_red), (total_blue, area_blue) = (
        _sideband(p, osc, grid) for p in drives)
    if osc.n_occupation == 0.0:
        ratio = math.inf
    elif area_red <= 0.0:
        raise DegenerateReadoutError(
            f"red sideband area {area_red:.9g} is not positive for an "
            f"oscillator with n_occupation={osc.n_occupation:.9g} at "
            f"theta={params_template.theta:.9g}: the readout does not resolve "
            "the motional peak")
    else:
        ratio = area_blue / area_red
    return AsymmetryResult(
        spectrum_red=total_red,
        spectrum_blue=total_blue,
        area_red=area_red,
        area_blue=area_blue,
        ratio=ratio,
    )


def asymmetry_grid(
    params: CavityParams,
    osc: MechOscillator,
    window_halfwidth: float = 40.0,
    window_points: int = 4001,
) -> FrequencyGrid:
    """Frequency grid tailored to resolving one motional sideband.

    Centers ``window_points`` points on omega_m with a half-width of
    ``window_halfwidth`` times the worst-case effective mechanical
    linewidth (intrinsic plus back-action damping).  The default window of
    forty linewidths keeps the truncated Lorentzian tails below the 1e-4
    level in the integrated weight.  Cavity and oscillator must share one hbar;
    the half-width must be finite and positive and window_points a whole
    number >= 2, or ValueError names the argument.  The names are those of
    the ``RunConfig`` fields behind ``--window-halfwidth`` and
    ``--window-points``, so a CLI error names its flag.
    """
    _require_width("window_halfwidth", window_halfwidth)
    window_points = _require_count("window_points", window_points, 2)
    if params.units != osc.units:
        raise ValueError("cavity and oscillator carry different unit conventions")
    omega_m = osc.omega_m
    gamma_opt = params.units.hbar * params.gbar**2 / (
        params.gamma * osc.mass * omega_m
    )
    half = window_halfwidth * (osc.gamma_m + gamma_opt)
    points = np.linspace(omega_m - half, omega_m + half, window_points)
    return FrequencyGrid(points)
