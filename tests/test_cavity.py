"""Closed-form cavity detector: susceptibilities, spectra, normalization."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import qdetnoise as q
from qdetnoise.cavity import response_denominator
from conftest import HBARS, draw_cavity

# Frozen oracle values at gamma=2, delta=0.5, gbar=1.3, theta=0.4, omega=0.9,
# hbar=1, computed once from an independent transcription of the closed forms.
FROZEN_OMEGA = 0.9
FROZEN_CHI_ZF = -0.3495030560305395 + 0.008859139224899554j
FROZEN_CHI_FF = -0.23447986577181212 - 0.2453859060402685j
FROZEN_S_ZF_BAR = -0.7408409361786601 - 0.33227102887728466j
FROZEN_S_FF_BAR = 1.3796140939597317
FROZEN_S_FF_UNSYM = 1.1342281879194631
FROZEN_S_ZF_UNSYM = -0.7364113665662103 - 0.1575195008620149j


def _single_point_grid(omega: float) -> q.FrequencyGrid:
    return q.FrequencyGrid(np.array([-omega, 0.0, omega]))


class TestResponseDenominator:
    def test_roots_sit_at_detuning_minus_i_gamma(self):
        gamma, delta = 1.3, 0.7
        for root in (delta - 1j * gamma, -delta - 1j * gamma):
            assert abs(response_denominator(root, gamma, delta)) < 1e-12

    def test_matches_expanded_polynomial(self, grid129):
        w = grid129.points
        expanded = w**2 + 2j * 1.3 * w - (1.3**2 + 0.7**2)
        assert np.allclose(response_denominator(w, 1.3, 0.7), expanded,
                           rtol=1e-13)


class TestSusceptibilities:
    def test_frozen_point(self, generic_params):
        grid = _single_point_grid(FROZEN_OMEGA)
        susc = q.cavity_susceptibilities(generic_params, grid)
        assert susc.chi_zf.values[2] == pytest.approx(FROZEN_CHI_ZF, rel=1e-12)
        assert susc.chi_ff.values[2] == pytest.approx(FROZEN_CHI_FF, rel=1e-12)

    def test_canonical_zero_frequency_gain(self, canonical_params):
        grid = _single_point_grid(1.0)
        susc = q.cavity_susceptibilities(canonical_params, grid)
        assert susc.chi_zf.values[1] == pytest.approx(-np.sqrt(2.0), rel=1e-12)
        assert susc.chi_ff.values[1] == 0.0

    def test_readout_is_backaction_evading(self, generic_params, grid129):
        susc = q.cavity_susceptibilities(generic_params, grid129)
        assert np.all(susc.chi_zz.values == 0.0)
        assert np.all(susc.chi_fz.values == 0.0)

    def test_reality_condition(self, generic_params, grid129):
        # chi(-omega) = conj(chi(omega)) for response to a Hermitian force
        susc = q.cavity_susceptibilities(generic_params, grid129)
        for chi in (susc.chi_zf, susc.chi_ff):
            assert np.allclose(chi.values[::-1], np.conj(chi.values),
                               rtol=1e-13, atol=1e-15)

    def test_causality_no_poles_in_upper_half_plane(self, generic_params):
        # the response evaluated on an upper-half-plane contour stays finite
        # and shrinks with |omega|: analytic continuation of a causal kernel
        omegas = np.array([5j, 1.0 + 5j, -2.0 + 10j])
        den = response_denominator(omegas, generic_params.gamma,
                                     generic_params.delta)
        assert np.all(np.abs(den) > 1.0)


class TestSpectra:
    def test_frozen_point_symmetrized(self, generic_params):
        grid = _single_point_grid(FROZEN_OMEGA)
        sym = q.cavity_spectra(generic_params, grid)
        assert np.all(sym.s_zz.values == 0.5)
        assert sym.s_zf.values[2] == pytest.approx(FROZEN_S_ZF_BAR, rel=1e-12)
        assert sym.s_ff.values[2] == pytest.approx(FROZEN_S_FF_BAR, rel=1e-12)
        assert sym.symmetrized

    def test_frozen_point_unsymmetrized(self, generic_params):
        grid = _single_point_grid(FROZEN_OMEGA)
        uns = q.cavity_unsym_spectra(generic_params, grid)
        assert np.all(uns.s_zz.values == 0.5)
        assert uns.s_ff.values[2] == pytest.approx(FROZEN_S_FF_UNSYM, rel=1e-12)
        assert uns.s_zf.values[2] == pytest.approx(FROZEN_S_ZF_UNSYM, rel=1e-12)
        assert not uns.symmetrized

    def test_symmetrizing_the_unsym_forms_recovers_closed_forms(
            self, generic_params, grid129):
        sym = q.cavity_spectra(generic_params, grid129)
        resym = q.symmetrize(q.cavity_unsym_spectra(generic_params, grid129))
        for a, b in ((sym.s_zz, resym.s_zz), (sym.s_zf, resym.s_zf),
                     (sym.s_ff, resym.s_ff)):
            assert np.allclose(a.values, b.values, rtol=1e-12, atol=1e-14)

    def test_force_spectrum_is_a_single_resonance(self, generic_params):
        # unsymmetrized force noise peaks at omega = -delta (emission side)
        grid = q.make_symmetric_grid(3.0, 300)
        uns = q.cavity_unsym_spectra(generic_params, grid)
        peak = grid.points[np.argmax(uns.s_ff.values.real)]
        assert peak == pytest.approx(-generic_params.delta, abs=0.02)

    def test_symmetrized_spectra_are_even(self, generic_params, grid129):
        sym = q.cavity_spectra(generic_params, grid129)
        assert np.allclose(sym.s_ff.values[::-1], sym.s_ff.values, rtol=1e-12)
        assert np.allclose(sym.s_zz.values[::-1], sym.s_zz.values)

    def test_symmetrized_container_rejects_complex_autos(self, grid129):
        vals = np.full(grid129.points.size, 1.0 + 0.1j)
        half = np.full(grid129.points.size, 0.5 + 0j)
        with pytest.raises(ValueError):
            q.SpectraSet(grid=grid129,
                         s_zz=q.ComplexSpectrum(grid129, half),
                         s_zf=q.ComplexSpectrum(grid129, half),
                         s_ff=q.ComplexSpectrum(grid129, vals),
                         symmetrized=True)

    @pytest.mark.parametrize("component, values, message", [
        ("s_zf", None, "s_zf lives on a different grid"),
        ("s_zz", -1.0, "symmetrized s_zz must be non-negative"),
    ])
    def test_symmetrized_container_rejects_bad_components(
            self, generic_params, grid129, component, values, message):
        sym = q.cavity_spectra(generic_params, grid129)
        if values is None:
            grid = _single_point_grid(0.9)
            spectrum = q.ComplexSpectrum(grid, np.zeros(len(grid)))
        else:
            spectrum = q.ComplexSpectrum(grid129, np.full(len(grid129), values))
        with pytest.raises(ValueError, match=message):
            dataclasses.replace(sym, **{component: spectrum})

    @given(st.integers(min_value=0, max_value=2**32 - 1), st.sampled_from(HBARS))
    def test_positivity_of_both_sidebands(self, seed, hbar):
        # S_ff_sym >= hbar |Im chi_ff| everywhere: both single-sided spectra
        # are non-negative
        rng = np.random.default_rng(seed)
        params = draw_cavity(rng, hbar)
        grid = q.make_symmetric_grid(6.0, 40)
        uns = q.cavity_unsym_spectra(params, grid)
        susc = q.cavity_susceptibilities(params, grid)
        margin = q.constraint_report(uns, susc).positivity_margin
        s_ff = q.symmetrize(uns).s_ff.values.real
        assert np.all(margin >= -1e-12 * np.max(s_ff))


def _symmetrized_with(name: str, values: np.ndarray) -> q.SpectraSet:
    """A symmetrized set whose ``name`` entry holds ``values``, the rest 1."""
    grid = q.make_symmetric_grid(1.0, (len(values) - 1) // 2)
    ones = q.ComplexSpectrum(grid, np.ones(len(grid)))
    fields = {"s_zz": ones, "s_zf": ones, "s_ff": ones,
              name: q.ComplexSpectrum(grid, values)}
    return q.SpectraSet(grid=grid, symmetrized=True, **fields)


class TestSymmetrizedChecksAtAnyScale:
    """Both checks read the spectrum against its own peak, so a power-of-two
    change of units, which scales every value exactly, changes no outcome."""

    SCALES = [1.0, 2.0 ** -40, 2.0 ** -80]

    @pytest.mark.parametrize("scale", SCALES)
    @pytest.mark.parametrize("name", ["s_zz", "s_ff"])
    def test_negative_by_half_its_peak_is_rejected(self, name, scale):
        values = np.linspace(0.25, 1.0, 9)
        values[2] = -0.5
        with pytest.raises(ValueError, match=f"symmetrized {name} must be non-negative"):
            _symmetrized_with(name, scale * values)

    @pytest.mark.parametrize("scale", SCALES)
    @pytest.mark.parametrize("name", ["s_zz", "s_ff"])
    @pytest.mark.parametrize("dip, accepted", [(1e-13, True), (1e-11, False)])
    def test_negativity_is_judged_against_the_peak(self, name, scale, dip,
                                                   accepted):
        values = np.linspace(0.25, 1.0, 9)
        values[2] = -dip
        if accepted:
            _symmetrized_with(name, scale * values)
        else:
            with pytest.raises(ValueError, match=f"symmetrized {name} must be non-negative"):
                _symmetrized_with(name, scale * values)

    @pytest.mark.parametrize("scale", SCALES)
    @pytest.mark.parametrize("name", ["s_zz", "s_ff"])
    @pytest.mark.parametrize("residue, accepted", [(1e-13, True), (1e-11, False)])
    def test_imaginary_residue_is_judged_against_the_peak(self, name, scale,
                                                          residue, accepted):
        values = np.linspace(0.25, 1.0, 9) + 0j
        values[4] += 1j * residue
        if accepted:
            _symmetrized_with(name, scale * values)
        else:
            with pytest.raises(ValueError, match=f"symmetrized {name} has imaginary"):
                _symmetrized_with(name, scale * values)


    @pytest.mark.parametrize("name", ["s_zz", "s_ff"])
    @pytest.mark.parametrize("residue, accepted", [(-1e-13, True), (-1e-11, False)])
    def test_negative_imaginary_residue_is_judged_by_its_size(self, name, residue,
                                                              accepted):
        # the largest |Im| is read as the larger of max Im and -min Im
        values = np.linspace(0.25, 1.0, 9) + 0j
        values[4] += 1j * residue
        if accepted:
            _symmetrized_with(name, values)
        else:
            with pytest.raises(ValueError, match=f"symmetrized {name} has imaginary"):
                _symmetrized_with(name, values)

class TestOutOfRange:
    @pytest.mark.parametrize("closed_form,gbar", [
        (q.cavity_susceptibilities, 1e200),
        (q.cavity_spectra, 1e200),
        (q.cavity_unsym_spectra, 1e200),
        # gbar**2 is finite here, but the s_ff prefactor overflows to inf
        (q.cavity_spectra, 1e154),
    ], ids=["susceptibilities", "spectra", "unsym_spectra", "spectra-inf"])
    def test_overflowing_result_raises_value_error(self, closed_form, gbar,
                                                   grid129):
        params = q.CavityParams(gamma=2.0, delta=0.5, gbar=gbar, theta=0.4)
        with pytest.raises(ValueError, match="overflows float64"):
            closed_form(params, grid129)


class TestNormalize:
    def test_canonical_imprecision(self, canonical_params):
        grid = _single_point_grid(1.0)
        norm = q.normalize(q.cavity_spectra(canonical_params, grid),
                           q.cavity_susceptibilities(canonical_params, grid))
        assert norm.imprecision.values[1].real == pytest.approx(0.25, rel=1e-12)

    def test_referred_cross_uses_plain_gain_division(self, generic_params):
        grid = _single_point_grid(FROZEN_OMEGA)
        norm = q.normalize(q.cavity_spectra(generic_params, grid),
                           q.cavity_susceptibilities(generic_params, grid))
        assert norm.cross.values[2] == pytest.approx(
            FROZEN_S_ZF_BAR / FROZEN_CHI_ZF, rel=1e-12)

    def test_zero_frequency_cross_is_real(self, generic_params):
        # at omega = 0 the referred cross spectrum collapses onto the real axis
        grid = q.FrequencyGrid(np.array([-1.0, 0.0, 1.0]))
        norm = q.normalize(q.cavity_spectra(generic_params, grid),
                           q.cavity_susceptibilities(generic_params, grid))
        assert abs(norm.cross.values[1].imag) < 1e-14

    def test_singular_gain_raises_and_names_frequency(self):
        # theta = 0 and delta = 0 kill the readout gain identically
        params = q.CavityParams(gamma=2.0, delta=0.0, gbar=1.0, theta=0.0)
        grid = q.make_symmetric_grid(2.0, 4)
        with pytest.raises(q.SingularNormalizationError, match="omega"):
            q.normalize(q.cavity_spectra(params, grid),
                        q.cavity_susceptibilities(params, grid))

    def test_normalize_requires_symmetrized_input(self, generic_params, grid129):
        uns = q.cavity_unsym_spectra(generic_params, grid129)
        susc = q.cavity_susceptibilities(generic_params, grid129)
        with pytest.raises(ValueError):
            q.normalize(uns, susc)

    def test_normalize_requires_one_grid(self, generic_params, grid129):
        sym = q.cavity_spectra(generic_params, grid129)
        susc = q.cavity_susceptibilities(generic_params, _single_point_grid(0.9))
        with pytest.raises(q.GridMismatchError, match="susc lives on a different grid"):
            q.normalize(sym, susc)

    def test_force_channel_passes_through(self, generic_params, grid129):
        sym = q.cavity_spectra(generic_params, grid129)
        norm = q.normalize(sym, q.cavity_susceptibilities(generic_params, grid129))
        assert np.array_equal(norm.force.values, sym.s_ff.values)
