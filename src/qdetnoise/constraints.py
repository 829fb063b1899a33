"""Residuals and margins for the general quantum measurement constraints.

The uncertainty relation and the two quantum-limit equalities share one set
of terms. With d0 = S_zz S_ff - |S_zf|^2 - (hbar^2/4)|chi_zf|^2 and
I = hbar Im[S_zf^* chi_zf - chi_ff S_zz] (symmetrized spectra), the gap is
d0 - |I|, the product residual is r1 = d0 / |chi_zf|^2 and the correlation
residual is r2 = -I / (hbar |chi_zf|^2), so gap = |chi_zf|^2 (r1 - hbar |r2|).

Every check is scale-aware: a residual is compared against _TOL * scale with
scale the largest constituent term at that frequency, since the raw magnitudes
vary over many orders across parameter sweeps.

A verdict is encoded as its rank, the member's index in Verdict's definition
order, in an int8 array: the checks return ranks, the worst of several is
their maximum, and members are read from the ranks only where asked for.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .core import (FrequencyGrid, SpectraSet, SusceptibilitySet, UnitConvention,
                   _blocks, _kubo_residual, _require_even_auto, _require_grid,
                   _require_signal, _symmetrized)
from .errors import InvalidMatrixError, NotAValidDetectorError

# Relative tolerance of the gap and determinant verdicts, of the
# valid-detector premise and of a MIMO block's positive semidefiniteness.
_TOL = 1e-9
# Relative Hermiticity defect a MIMO spectral matrix may carry.
_HERMITICITY_TOL = 1e-12


class Verdict(enum.Enum):
    """Per-frequency classification, listed from least to most severe.

    The definition order is the severity order, and a member's index in it
    is its rank: the checks return int8 ranks, and the CLI labels each rank
    with its member's value.
    """

    quantum_limited = "quantum_limited"
    above_limit = "above_limit"
    violation = "violation"


_BY_RANK = np.array(list(Verdict), dtype=object)


def classify_verdicts(gap: np.ndarray, threshold: np.ndarray | float
                      ) -> np.ndarray:
    """Classify each gap against its threshold, as an int8 array of
    Verdict ranks, one per gap.

    quantum_limited (0) where |gap| <= threshold, above_limit (1) where
    gap > threshold, and violation (2) where gap < -threshold or where the
    gap or the threshold is not finite: a value that cannot be compared
    never passes.
    """
    rank = (gap > threshold).astype(np.int8)
    rank[~(np.isfinite(gap) & np.isfinite(threshold)) | (gap < -threshold)] = 2
    return rank


@dataclass(frozen=True)
class ConstraintReport:
    """Per-frequency results of all constraint checks.

    uncertainty_gap:      left minus right side of the noise uncertainty
                          relation, d0 - |I|; zero at the quantum limit,
                          positive above
    product_residual:     referred imprecision-times-back-action product minus
                          the hbar^2/4 floor, d0 / |chi_zf|^2 (zero at the
                          quantum limit)
    correlation_residual: phase condition tying the referred cross spectrum to
                          dynamical back action, -I / (hbar |chi_zf|^2) (zero
                          at the quantum limit)
    kubo_residual:        fluctuation-dissipation residual of the force noise,
                          the real part of ``kubo_check``'s
    positivity_margin:    S_ff_sym - hbar |Im chi_ff|, the smaller of
                          S_ff(+omega) and S_ff(-omega); negative values are
                          unphysical, and it nearly vanishes for a
                          resolved-sideband cavity at the probed sideband
    rank:                 the verdict of each frequency as an int8 array
                          of Verdict ranks (``classify_verdicts``'); the
                          ``verdicts`` property reads them as an object
                          array of members, ``worst_verdict`` as the
                          member of the largest rank
    """

    grid: FrequencyGrid
    uncertainty_gap: np.ndarray
    product_residual: np.ndarray
    correlation_residual: np.ndarray
    kubo_residual: np.ndarray
    positivity_margin: np.ndarray
    rank: np.ndarray

    @property
    def verdicts(self) -> np.ndarray:
        return _BY_RANK[self.rank]

    @property
    def worst_verdict(self) -> Verdict:
        return _BY_RANK[self.rank.max(initial=0)]


def _require_valid_detector(susc: SusceptibilitySet, amplitude: np.ndarray) -> None:
    """Raise unless chi_zz and chi_fz vanish beside ``amplitude``, |chi_zf|."""
    floor = _TOL * max(np.max(amplitude), 1e-300)
    worst = max(np.max(np.abs(susc.chi_zz.values)),
                np.max(np.abs(susc.chi_fz.values)))
    if worst > floor:
        raise NotAValidDetectorError(
            f"readout responds to itself or drives the force "
            f"(|chi_zz|, |chi_fz| up to {worst:.3g}); simultaneous "
            "measurability of the record requires both to vanish")


def _gap_terms(s_zz: np.ndarray, s_ff: np.ndarray, s_zf: np.ndarray,
               susc: SusceptibilitySet, hbar: float, signal: np.ndarray
               ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Terms of the gap from one read of the five spectra, with the signal
    |chi_zf|^2 as the caller formed it.

    ``s_zz`` and ``s_ff`` are the real parts of the symmetrized autos and
    ``s_zf`` the unsymmetrized cross spectrum, which is symmetrized here
    (``core._symmetrized``) a block at a time. Returns d0 = S_zz S_ff -
    |S_zf|^2 - (hbar^2/4)|chi_zf|^2, the signed term hbar Im[S_zf^* chi_zf
    - chi_ff S_zz], and the scale of the gap: the largest magnitude among
    its four constituents.

    Non-finite spectra pass through, so their gap is classified a violation.
    Finite spectra whose terms overflow float64 raise ValueError: the input
    is out of range, not inconsistent. The five terms' finiteness is read
    only when d0 or the scale is not finite somewhere, to tell the two apart.

    The grid is walked in blocks of points (``core._blocks``), each
    written into the three result arrays, so the terms' temporaries are one
    block's whatever the grid. Overflow and invalid values are ignored
    here, and the CLI ignores underflow, so no operation of the walk raises
    and the blocks cannot change which error a caller sees first.
    """
    chi_zf = susc.chi_zf.values
    chi_ff = susc.chi_ff.values
    d0, im_term, scale = (np.empty(len(signal)) for _ in range(3))
    with np.errstate(over="ignore", invalid="ignore"):
        for a, b in _blocks(len(signal), 2):  # S_zf's mirror and sum
            zf = _symmetrized(s_zf, cross=True, block=slice(a, b))
            zz_ff = s_zz[a:b] * s_ff[a:b]
            zf_sq = np.abs(zf) ** 2
            chi_sq = 0.25 * hbar ** 2 * signal[a:b]
            im = np.multiply(hbar, np.imag(np.conj(zf) * chi_zf[a:b]
                                           - chi_ff[a:b] * s_zz[a:b]), out=im_term[a:b])
            np.maximum(np.maximum(np.abs(zz_ff), zf_sq),
                       np.maximum(chi_sq, np.abs(im)), out=scale[a:b])
            np.subtract(zz_ff - zf_sq, chi_sq, out=d0[a:b])
    overflow = ~(np.isfinite(d0) & np.isfinite(scale))
    if not np.any(overflow):
        return d0, im_term, scale
    # S_zf, formed whole, has raised its errors in the caller
    with np.errstate(over="ignore", invalid="ignore"):
        for term in (s_zz, s_ff, _symmetrized(s_zf, cross=True), chi_zf, chi_ff):
            overflow &= np.isfinite(term)
    if np.any(overflow):
        omega = susc.grid.points[np.argmax(overflow)]
        raise ValueError(f"uncertainty gap overflows float64 at omega={omega:.9g}: "
                         "the input spectra are out of range")
    return d0, im_term, scale


def assemble_mimo_matrix(spectra_sets: "list[SpectraSet] | tuple[SpectraSet, ...]"
                         ) -> np.ndarray:
    """Block-diagonal spectral matrix for independent readout/force pairs.

    Returns an (n_omega, 2N, 2N) array with per-pair blocks
    [[S_zz, S_zf], [S_zf^*, S_ff]] from unsymmetrized spectra, ordered
    (z_1, f_1, z_2, f_2, ...). Sets on different grids raise
    GridMismatchError.
    """
    sets = tuple(spectra_sets)
    if not sets:
        raise ValueError("need at least one spectra set")
    grid = sets[0].grid
    for i, s in enumerate(sets):
        if s.symmetrized:
            raise ValueError("the spectral matrix is built from unsymmetrized spectra")
        _require_grid(grid, f"spectra_sets[{i}]", s.grid)
    n_pairs = len(sets)
    out = np.zeros((len(grid), 2 * n_pairs, 2 * n_pairs), dtype=complex)
    for i, s in enumerate(sets):
        k = 2 * i
        out[:, k, k] = s.s_zz.values
        out[:, k, k + 1] = s.s_zf.values
        out[:, k + 1, k] = np.conj(s.s_zf.values)
        out[:, k + 1, k + 1] = s.s_ff.values
    return out


def mimo_quantum_limit(spectral_matrix: np.ndarray
                       ) -> tuple[np.ndarray, np.ndarray]:
    """Determinant and verdict per frequency of an (n_omega, 2N, 2N) stack of
    spectral matrices, as a float array and an int8 array of Verdict ranks
    (classify_verdicts').

    Zero (within tolerance) certifies the multi-observable quantum limit;
    thermal admixtures push it strictly positive. Each determinant is judged
    relative to the mean eigenvalue m (the trace over 2N, floored at the
    smallest normal float) raised to the 2N: quantum_limited where
    max(det, 0) / m^2N <= _TOL, above_limit beyond. The input must be
    finite, Hermitian to 1e-12 of its largest entry and positive
    semidefinite to _TOL of it at every frequency, or InvalidMatrixError
    is raised; a determinant that overflows float64 raises ValueError.

    The checks run in that order, each over every frequency before the
    next, and each names the first frequency it fails at. The largest
    entry and the Hermiticity defect are formed a block of rows at a time
    (``core._blocks``), each into one value per frequency, so beside
    the input the check holds per-frequency arrays and one block's
    temporaries, not whole-stack copies.
    """
    mat = np.asarray(spectral_matrix, dtype=complex)
    if mat.ndim != 3 or mat.shape[1] != mat.shape[2] or mat.shape[1] % 2:
        raise InvalidMatrixError("expected an (n_omega, 2N, 2N) stack of matrices")
    # NaN compares false against every tolerance below, so it must be caught here
    finite = np.isfinite(mat).all(axis=(1, 2))
    if not finite.all():
        raise InvalidMatrixError(
            f"spectral matrix at grid index {int(np.argmin(finite))} is not finite")
    dim = mat.shape[1]
    blocks = _blocks(len(mat), dim * dim)
    scale, herm_defect = np.empty((2, len(mat)))
    # every |entry| before any difference: an overflow raises where it did
    for a, b in blocks:
        np.max(np.abs(mat[a:b]), axis=(1, 2), out=scale[a:b])
    for a, b in blocks:
        block = mat[a:b]
        np.max(np.abs(block - np.conj(np.swapaxes(block, 1, 2))), axis=(1, 2),
               out=herm_defect[a:b])
    bad = herm_defect > _HERMITICITY_TOL * np.maximum(scale, 1e-300)
    if np.any(bad):
        idx = int(np.argmax(bad))
        raise InvalidMatrixError(
            f"spectral matrix at grid index {idx} is not Hermitian "
            f"(defect {herm_defect[idx]:.3g} vs scale {scale[idx]:.3g})")
    eigs = np.linalg.eigvalsh(mat)
    if np.any(eigs < -_TOL * np.maximum(scale, 1e-300)[:, None]):
        idx = int(np.argmax(np.min(eigs, axis=1) < 0))
        raise InvalidMatrixError(
            f"spectral matrix at grid index {idx} is not positive semidefinite")
    # mantissas multiplied, exponents summed: no partial product under/overflows;
    # the mantissas take the eigenvalues' buffer
    mant, expo = np.frexp(eigs, out=(eigs, None))
    with np.errstate(over="ignore"):
        dets = np.ldexp(np.prod(mant, axis=1), np.sum(expo, axis=1))
    if not np.isfinite(dets).all():
        raise ValueError(
            f"determinant at grid index {int(np.argmin(np.isfinite(dets)))} "
            "overflows float64: the spectral matrix is out of range")
    mean = np.maximum(np.einsum("kii->k", mat).real / dim, np.finfo(float).tiny)
    # every block is positive semidefinite, so a negative determinant is
    # round-off and the verdict is two-way; and det <= mean**dim, so dividing
    # by the mean eigenvalue dim times never overflows where mean**dim would
    ratio = np.maximum(dets, 0.0)
    for _ in range(dim):
        ratio = ratio / mean
    return dets, classify_verdicts(ratio, _TOL)


def constraint_report(spectra_unsym: SpectraSet, susc: SusceptibilitySet,
                      units: UnitConvention | None = None) -> ConstraintReport:
    """Run every per-frequency check on one detector's engine output.

    Takes unsymmetrized spectra (for the fluctuation-dissipation residual),
    symmetrizes internally for the rest, and classifies each frequency with
    t = _TOL*scale: quantum_limited when |gap| <= t, above_limit when
    gap > t, violation when gap < -t (inconsistent inputs, never valid
    physics) or when the gap is not finite.

    hbar is ``susc.units``, the model's own; a ``units`` that differs from
    it raises ValueError, and records on different grids raise
    GridMismatchError. Raises SingularNormalizationError where the
    readout carries no signal, (hbar^2/4)|chi_zf|^2 <= eps * scale, since the
    two equalities are referred to the signal and round-off is not one.

    Memory: beside its inputs the audit holds |chi_zf| and its square,
    the real parts of the symmetrized S_zz and S_ff, and the gap's three
    terms, which ``_gap_terms`` forms a block of points at a time with the
    symmetrized S_zf. S_zf is also symmetrized whole once and dropped, so
    that it raises where ``symmetrize`` raises. S_zz is dropped once read,
    the floor takes |chi_zf|'s buffer, each residual the buffer of a term
    it was the last to read, the positivity margin S_ff's and the verdict
    threshold the scale's, and the signal is dropped once read. So the peak
    above the inputs is about eight float columns of the grid. The
    operations that may raise under ``np.errstate`` run in the order of
    ``symmetrize`` and of the formulas above, so an input's first error
    does not depend on them.
    """
    if spectra_unsym.symmetrized:
        raise ValueError("constraint_report expects unsymmetrized spectra")
    _require_grid(spectra_unsym.grid, "susc", susc.grid)
    if units not in (None, susc.units):
        raise ValueError(f"units {units} differ from the susceptibilities' "
                         f"{susc.units}")
    units = susc.units
    amplitude = np.abs(susc.chi_zf.values)
    _require_valid_detector(susc, amplitude)
    spectra_unsym.grid.require_symmetric("symmetrization")
    s_zz = _symmetrized(spectra_unsym.s_zz.values)
    _symmetrized(spectra_unsym.s_zf.values, cross=True)  # raises where symmetrize does
    s_ff = _symmetrized(spectra_unsym.s_ff.values)
    _require_even_auto("s_zz", s_zz)
    _require_even_auto("s_ff", s_ff)
    s_zz, s_ff = s_zz.real.copy(), s_ff.real.copy()  # no imaginary part is read
    with np.errstate(over="ignore"):  # an overflow raises in _gap_terms
        signal = amplitude ** 2
    d0, im_term, scale = _gap_terms(s_zz, s_ff, spectra_unsym.s_zf.values, susc,
                                    units.hbar, signal)
    del s_zz
    # as amplitudes, since a floor whose square underflows is out of range
    floor = np.multiply(amplitude, 0.5 * units.hbar, out=amplitude)
    root = np.multiply(np.finfo(float).eps, scale)  # rooted in its own buffer
    _require_signal(susc.grid, np.isfinite(scale) & (floor <= np.sqrt(root, out=root)))
    del floor, amplitude, root
    gap = d0 - np.abs(im_term)
    # each result takes the buffer of a term it was the last to read; the
    # operations that may raise keep the order of the plain expressions
    product = np.divide(d0, signal, out=d0)
    correlation = np.divide(np.negative(im_term, out=im_term), np.multiply(
        units.hbar, signal, out=signal), out=im_term)
    del signal
    kubo = _kubo_residual(spectra_unsym.s_ff, susc.chi_ff, units)
    margin = np.subtract(s_ff, units.hbar * np.abs(susc.chi_ff.values.imag), out=s_ff)
    threshold = np.multiply(_TOL, np.maximum(scale, 1e-300, out=scale), out=scale)
    return ConstraintReport(grid=spectra_unsym.grid, uncertainty_gap=gap,
                            product_residual=product, correlation_residual=correlation,
                            kubo_residual=kubo, positivity_margin=margin,
                            rank=classify_verdicts(gap, threshold))
