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
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .core import (CavityParams, ComplexSpectrum, FrequencyGrid, UnitConvention,
                   _adopt)
from .errors import SingularNormalizationError

_IMAG_TOL = 1e-12


@dataclass(frozen=True)
class SusceptibilitySet:
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
class SpectraSet:
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
        for name, spec in (("s_zz", self.s_zz), ("s_zf", self.s_zf),
                           ("s_ff", self.s_ff)):
            if spec.grid != self.grid:
                raise ValueError(f"{name} lives on a different grid")
        if self.symmetrized:
            for name, spec in (("s_zz", self.s_zz), ("s_ff", self.s_ff)):
                # against the spectrum's own peak, so the same in any units
                limit = _IMAG_TOL * np.max(spec.values.real, initial=0.0)
                if np.max(np.abs(spec.values.imag)) > limit:
                    raise ValueError(f"symmetrized {name} has imaginary residue "
                                     f"above {_IMAG_TOL} of its peak")
                if np.min(spec.values.real) < -limit:
                    raise ValueError(f"symmetrized {name} must be non-negative")


@dataclass(frozen=True)
class NormalizedSpectra:
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
                         for value in vars(result).values()
                         if isinstance(value, ComplexSpectrum))
        except OverflowError:
            finite = False
        if not finite:
            raise ValueError(f"{compute.__name__} overflows float64: the "
                             "parameters are out of range")
        return result
    return checked


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


def _require_signal(grid: FrequencyGrid, no_signal: np.ndarray) -> None:
    """Raise SingularNormalizationError at the first frequency flagged in
    ``no_signal``, where the signal response vanishes."""
    if np.any(no_signal):
        raise SingularNormalizationError(
            f"chi_zf vanishes at omega = {grid.points[no_signal][0]:.6g}; "
            "the readout carries no signal there")


def normalize(spectra: SpectraSet, susc: SusceptibilitySet) -> NormalizedSpectra:
    """Refer the readout noise to the measured variable, z = Z / chi_zf.

    Raises SingularNormalizationError where the signal response vanishes.
    """
    if not spectra.symmetrized:
        raise ValueError("normalize() expects symmetrized spectra")
    if spectra.grid != susc.grid:
        raise ValueError("spectra and susceptibilities live on different grids")
    chi = susc.chi_zf.values
    _require_signal(spectra.grid, np.abs(chi) < 1e-300)
    return NormalizedSpectra(
        grid=spectra.grid,
        imprecision=_adopt(spectra.grid, spectra.s_zz.values / np.abs(chi) ** 2),
        cross=_adopt(spectra.grid, spectra.s_zf.values / chi),
        force=spectra.s_ff,
    )
