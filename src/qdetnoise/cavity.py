"""Closed-form response and noise of the detuned one-sided cavity probe.

The probe couples to the measured system through the force observable
F = hbar * gbar * (a + a^dag) built from the intracavity mode, and is read
out in the output quadrature Z = cos(theta) X_out + sin(theta) Y_out with
X_out = (c_out + c_out^dag)/sqrt(2), Y_out = (c_out - c_out^dag)/(i sqrt(2)).

All expressions share the resonance denominator
    den(omega) = (omega - delta + i gamma) (omega + delta + i gamma),
whose roots sit at omega = +/-delta - i gamma, below the real axis as causality
requires. The engine in ``netsolve`` reproduces every function here from the
equations of motion; the two routes cross-validate each other in the tests.
Each closed form raises ValueError when a result overflows float64.

This module holds only the closed forms and ``normalize``. The result
records they return, and the rules they share with the engine, live in
``core``.
"""

from __future__ import annotations

import numpy as np

from .core import (CavityParams, FrequencyGrid, NormalizedSpectra, SpectraSet,
                   SusceptibilitySet, _adopt, _in_float64_range, _require_grid,
                   _require_signal)


def response_denominator(omega, gamma: float, delta: float) -> np.ndarray:
    """(omega - delta + i gamma) (omega + delta + i gamma), vectorized."""
    w = np.asarray(omega, dtype=complex)
    return (w - delta + 1j * gamma) * (w + delta + 1j * gamma)


@_in_float64_range
def cavity_susceptibilities(params: CavityParams,
                            grid: FrequencyGrid) -> SusceptibilitySet:
    """Closed-form response functions of the one-sided cavity probe."""
    g, d, gb, th = params.gamma, params.delta, params.gbar, params.theta
    hbar = params.units.hbar
    w = grid.points
    den = response_denominator(w, g, d)
    chi_zf = -2.0 * gb * np.sqrt(g) * (d * np.cos(th) + (1j * w - g) * np.sin(th)) / den
    chi_ff = 2.0 * hbar * gb ** 2 * d / den
    return SusceptibilitySet(
        grid=grid,
        chi_zf=_adopt(grid, chi_zf),
        chi_ff=_adopt(grid, chi_ff),
        chi_zz=_adopt(grid, np.zeros_like(w, dtype=complex)),
        chi_fz=_adopt(grid, np.zeros_like(w, dtype=complex)),
        units=params.units,
    )


@_in_float64_range
def cavity_spectra(params: CavityParams, grid: FrequencyGrid) -> SpectraSet:
    """Symmetrized vacuum-input noise spectra of the one-sided cavity probe."""
    g, d, gb, th = params.gamma, params.delta, params.gbar, params.theta
    hbar = params.units.hbar
    w = grid.points
    den = response_denominator(w, g, d)
    s_zz = np.full(w.shape, 0.5, dtype=complex)
    s_zf = hbar * gb * np.sqrt(g) * (d * np.sin(th) - (1j * w - g) * np.cos(th)) / den
    s_ff = (2.0 * hbar ** 2 * gb ** 2 * g * (g ** 2 + d ** 2 + w ** 2)
            / (((w - d) ** 2 + g ** 2) * ((w + d) ** 2 + g ** 2)))
    return SpectraSet(
        grid=grid,
        s_zz=_adopt(grid, s_zz),
        s_zf=_adopt(grid, s_zf),
        s_ff=_adopt(grid, s_ff.astype(complex)),
        symmetrized=True,
    )


@_in_float64_range
def cavity_unsym_spectra(params: CavityParams, grid: FrequencyGrid) -> SpectraSet:
    """Unsymmetrized vacuum-input spectra, in closed form.

    s_ff comes out as a single resonance at omega = -delta; s_zz is white at
    1/2 because the output field stays in vacuum; s_zf follows from the
    symmetrized form and the commutator part, which equals -i hbar chi_zf.
    """
    g, d, gb = params.gamma, params.delta, params.gbar
    hbar = params.units.hbar
    w = grid.points
    sym = cavity_spectra(params, grid)
    chi_zf = cavity_susceptibilities(params, grid).chi_zf
    s_zz = np.full(w.shape, 0.5, dtype=complex)
    s_zf = sym.s_zf.values - 0.5j * hbar * chi_zf.values
    s_ff = (2.0 * hbar ** 2 * gb ** 2 * g / (g ** 2 + (w + d) ** 2)).astype(complex)
    return SpectraSet(
        grid=grid,
        s_zz=_adopt(grid, s_zz),
        s_zf=_adopt(grid, s_zf),
        s_ff=_adopt(grid, s_ff),
        symmetrized=False,
    )


def normalize(spectra: SpectraSet, susc: SusceptibilitySet) -> NormalizedSpectra:
    """Refer the readout noise to the measured variable, z = Z / chi_zf.

    Raises SingularNormalizationError where the signal response vanishes,
    and GridMismatchError when the two records live on different grids.
    """
    if not spectra.symmetrized:
        raise ValueError("normalize() expects symmetrized spectra")
    _require_grid(spectra.grid, "susc", susc.grid)
    chi = susc.chi_zf.values
    _require_signal(spectra.grid, np.abs(chi) < 1e-300)
    return NormalizedSpectra(
        grid=spectra.grid,
        imprecision=_adopt(spectra.grid, spectra.s_zz.values / np.abs(chi) ** 2),
        cross=_adopt(spectra.grid, spectra.s_zf.values / chi),
        force=spectra.s_ff,
    )
