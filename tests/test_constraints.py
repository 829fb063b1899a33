"""Quantum-limit checks: gap, residual identities, verdicts, MIMO determinant."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import qdetnoise as q
from conftest import draw_cavity

HBAR = 1.0


def _engine_run(params, grid, state=None):
    net = q.build_one_sided_cavity(params, input_state=state or q.InputState.vacuum())
    return q.solve_unsym_spectra(net, grid), q.solve_susceptibilities(net, grid)


class TestUncertaintyGap:
    def test_vacuum_sits_on_the_limit(self, generic_params, grid129):
        sym = q.cavity_spectra(generic_params, grid129)
        susc = q.cavity_susceptibilities(generic_params, grid129)
        gap = q.uncertainty_gap(sym, susc)
        scale = np.max(sym.s_ff.values.real) * np.max(np.abs(susc.chi_zf.values)) ** 2
        assert np.max(np.abs(gap)) <= 1e-12 * scale

    def test_thermal_opens_the_gap(self, generic_params, grid129):
        uns, susc = _engine_run(generic_params, grid129, q.InputState.thermal(1.0))
        gap = q.uncertainty_gap(q.symmetrize(uns), susc)
        assert np.all(gap > 0.0)

    def test_factored_form_identity(self):
        # gap == |chi_zf|^2 (r1 - hbar |r2|), with r1, r2 the referred
        # residuals: a nontrivial algebraic identity tying the two layers
        rng = np.random.default_rng(11)
        grid = q.make_symmetric_grid(4.0, 24)
        for _ in range(25):
            params = draw_cavity(rng)
            for state in (q.InputState.vacuum(), q.InputState.thermal(1.3)):
                uns, susc = _engine_run(params, grid, state)
                sym = q.symmetrize(uns)
                gap = q.uncertainty_gap(sym, susc)
                norm = q.normalize(sym, susc)
                r1, r2 = q.quantum_limit_residuals(norm, susc.chi_ff)
                rebuilt = np.abs(susc.chi_zf.values) ** 2 * (r1 - HBAR * np.abs(r2))
                # both sides cancel to ~eps * (products); scale by the
                # products, not by the (possibly zero) gap itself
                norm_prod = (norm.imprecision.values.real
                             * sym.s_ff.values.real + HBAR ** 2 / 4)
                scale = np.max(np.abs(susc.chi_zf.values) ** 2 * norm_prod)
                assert np.max(np.abs(gap - rebuilt)) <= 1e-12 * scale

    def test_inflated_cross_correlation_violates(self, generic_params, grid129):
        uns = q.cavity_unsym_spectra(generic_params, grid129)
        susc = q.cavity_susceptibilities(generic_params, grid129)
        s_zf = q.ComplexSpectrum(grid129, 2.0 * uns.s_zf.values)
        doctored = q.SpectraSet(grid=grid129, s_zz=uns.s_zz, s_zf=s_zf,
                                s_ff=uns.s_ff, symmetrized=False)
        gap = q.uncertainty_gap(q.symmetrize(doctored), susc)
        assert np.min(gap) < 0.0

    def test_checks_detector_validity_first(self, generic_params, grid129):
        sym = q.cavity_spectra(generic_params, grid129)
        susc = q.cavity_susceptibilities(generic_params, grid129)
        chi_zz = q.ComplexSpectrum(grid129, 0.5 * susc.chi_zf.values)
        bad = q.SusceptibilitySet(grid=grid129, chi_zf=susc.chi_zf,
                                  chi_ff=susc.chi_ff, chi_zz=chi_zz,
                                  chi_fz=susc.chi_fz)
        with pytest.raises(q.NotAValidDetectorError):
            q.uncertainty_gap(sym, bad)


class TestReferredResiduals:
    def test_vacuum_residuals_vanish(self, generic_params, grid129):
        sym = q.cavity_spectra(generic_params, grid129)
        susc = q.cavity_susceptibilities(generic_params, grid129)
        r1, r2 = q.quantum_limit_residuals(q.normalize(sym, susc), susc.chi_ff)
        norm = q.normalize(sym, susc)
        s_zz = norm.imprecision.values.real
        s_ff = sym.s_ff.values.real
        assert np.max(np.abs(r1)) <= 1e-9 * np.max(s_zz * s_ff)
        r2_scale = np.abs(susc.chi_ff.values.imag) * s_zz + HBAR
        assert np.max(np.abs(r2) / r2_scale) <= 1e-9

    def test_correlation_identity_against_raw_form(self, generic_params, grid129):
        # Im[conj(S_zf_sym) chi_zf - chi_ff S_zz_sym] == -r2 |chi_zf|^2
        sym = q.cavity_spectra(generic_params, grid129)
        susc = q.cavity_susceptibilities(generic_params, grid129)
        _, r2 = q.quantum_limit_residuals(q.normalize(sym, susc), susc.chi_ff)
        raw = np.imag(np.conj(sym.s_zf.values) * susc.chi_zf.values
                      - susc.chi_ff.values * sym.s_zz.values)
        rebuilt = -r2 * np.abs(susc.chi_zf.values) ** 2
        scale = np.max(np.abs(raw)) + np.max(np.abs(susc.chi_zf.values)) ** 2
        assert np.max(np.abs(raw - rebuilt)) <= 1e-12 * scale


class TestPositivityMargin:
    def test_equals_smaller_sideband(self, generic_params, grid129):
        uns, susc = _engine_run(generic_params, grid129)
        sym = q.symmetrize(uns)
        margin = q.positivity_margin(sym.s_ff, susc.chi_ff)
        smaller = np.minimum(uns.s_ff.values.real, uns.s_ff.values.real[::-1])
        assert np.allclose(margin, smaller, rtol=1e-10, atol=1e-12)

    def test_nonnegative_for_physical_spectra(self, grid129):
        rng = np.random.default_rng(5)
        for _ in range(10):
            params = draw_cavity(rng)
            sym = q.cavity_spectra(params, grid129)
            susc = q.cavity_susceptibilities(params, grid129)
            margin = q.positivity_margin(sym.s_ff, susc.chi_ff)
            assert np.all(margin >= -1e-12 * np.max(sym.s_ff.values.real))


class TestConstraintReport:
    def test_vacuum_report(self, generic_params, grid129):
        uns, susc = _engine_run(generic_params, grid129)
        report = q.constraint_report(uns, susc)
        assert report.worst_verdict is q.Verdict.quantum_limited
        assert all(v is q.Verdict.quantum_limited for v in report.verdicts)

    def test_thermal_report(self, generic_params, grid129):
        uns, susc = _engine_run(generic_params, grid129, q.InputState.thermal(1.0))
        report = q.constraint_report(uns, susc)
        assert report.worst_verdict is q.Verdict.above_limit
        assert not any(v is q.Verdict.violation for v in report.verdicts)

    @pytest.mark.parametrize("r", [1.0, 2.0, 3.0])
    def test_pure_squeezed_input_is_quantum_limited(self, canonical_params,
                                                    grid129, r):
        # a pure squeezed line sits on the limit, whichever quadrature it
        # squeezes; larger r cancels terms of size e^{2r} in the spectra
        rng = np.random.default_rng(11)
        cases = [(canonical_params, 0.0)] + [
            (q.CavityParams(gamma=2.0, delta=float(rng.uniform(-3.0, 3.0)),
                            gbar=1.0, theta=float(rng.uniform(-np.pi, np.pi))),
             float(rng.uniform(-np.pi, np.pi)))
            for _ in range(4)]
        for params, phi in cases:
            state = q.InputState.squeezed(r * np.exp(1j * phi))
            report = q.constraint_report(*_engine_run(params, grid129, state))
            assert all(v is q.Verdict.quantum_limited for v in report.verdicts), \
                (params, phi)

    def test_mixed_squeezed_input_sits_above_the_limit(self, grid129):
        # a squeezed thermal line is not pure: (N + 1/2)^2 - |M|^2 =
        # (n_th + 1/2)^2 > 1/4 opens the gap at every frequency
        rng = np.random.default_rng(23)
        for _ in range(20):
            params = draw_cavity(rng)
            state = q.InputState(float(rng.uniform(0.1, 2.0)),
                                 float(rng.uniform(0.0, 1.5)),
                                 float(rng.uniform(-np.pi, np.pi)))
            report = q.constraint_report(*_engine_run(params, grid129, state))
            assert all(v is q.Verdict.above_limit for v in report.verdicts), \
                (params, state)

    def test_doctored_spectra_flag_violation(self, generic_params, grid129):
        uns = q.cavity_unsym_spectra(generic_params, grid129)
        susc = q.cavity_susceptibilities(generic_params, grid129)
        s_zf = q.ComplexSpectrum(grid129, 2.0 * uns.s_zf.values)
        doctored = q.SpectraSet(grid=grid129, s_zz=uns.s_zz, s_zf=s_zf,
                                s_ff=uns.s_ff, symmetrized=False)
        report = q.constraint_report(doctored, susc)
        assert report.worst_verdict is q.Verdict.violation
        # a NaN gap fails every comparison and must not read as a pass
        i = 40
        s_ff = uns.s_ff.values.copy()
        s_ff[i] = np.nan
        doctored = q.SpectraSet(grid=grid129, s_zz=uns.s_zz, s_zf=uns.s_zf,
                                s_ff=q.ComplexSpectrum(grid129, s_ff),
                                symmetrized=False)
        report = q.constraint_report(doctored, susc)
        assert report.verdicts[i] is q.Verdict.violation
        assert report.worst_verdict is q.Verdict.violation

    def test_rejects_symmetrized_input(self, generic_params, grid129):
        sym = q.cavity_spectra(generic_params, grid129)
        susc = q.cavity_susceptibilities(generic_params, grid129)
        with pytest.raises(ValueError):
            q.constraint_report(sym, susc)

    def test_worst_verdict_ordering(self, grid129):
        pts = grid129
        report = q.ConstraintReport(
            grid=pts,
            uncertainty_gap=np.zeros(3), product_residual=np.zeros(3),
            correlation_residual=np.zeros(3), kubo_residual=np.zeros(3),
            positivity_margin=np.zeros(3),
            verdicts=(q.Verdict.quantum_limited, q.Verdict.above_limit,
                      q.Verdict.quantum_limited))
        assert report.worst_verdict is q.Verdict.above_limit


class TestMimo:
    def test_assemble_shape_and_order(self, generic_params, grid129):
        uns, _ = _engine_run(generic_params, grid129)
        mat = q.assemble_mimo_matrix([uns, uns])
        assert mat.shape == (grid129.points.size, 4, 4)
        assert np.allclose(mat[:, 0, 0], uns.s_zz.values)  # z_1 first
        assert np.allclose(mat[:, 1, 1], uns.s_ff.values)  # then f_1
        assert np.all(mat[:, 0, 2] == 0.0)  # blocks independent

    def test_blocks_are_hermitian(self, generic_params, grid129):
        uns, _ = _engine_run(generic_params, grid129,
                             q.InputState.squeezed(0.4 * np.exp(0.9j)))
        mat = q.assemble_mimo_matrix([uns])
        assert np.allclose(mat, np.conj(np.swapaxes(mat, 1, 2)),
                           rtol=1e-12, atol=1e-14)

    def test_rejects_symmetrized_sets(self, generic_params, grid129):
        sym = q.cavity_spectra(generic_params, grid129)
        with pytest.raises(ValueError):
            q.assemble_mimo_matrix([sym])

    def test_pure_state_determinant_vanishes(self, generic_params, grid129):
        for state in (q.InputState.vacuum(), q.InputState.squeezed(0.5)):
            uns, _ = _engine_run(generic_params, grid129, state)
            mat = q.assemble_mimo_matrix([uns])
            dets = q.mimo_quantum_limit(mat)
            scale = np.prod(np.abs(np.diagonal(mat, axis1=1, axis2=2)), axis=1)
            assert np.max(np.abs(dets) / scale) <= 1e-9

    def test_thermal_determinant_positive(self, generic_params, grid129):
        uns, _ = _engine_run(generic_params, grid129, q.InputState.thermal(0.5))
        dets = q.mimo_quantum_limit(q.assemble_mimo_matrix([uns]))
        assert np.all(dets > 0.0)

    def test_vacuum_block_pins_joint_determinant_to_zero(
            self, generic_params, grid129):
        # one pure block forces det = 0 for the whole block-diagonal matrix,
        # whatever the other blocks contain
        pure, _ = _engine_run(generic_params, grid129)
        hot, _ = _engine_run(generic_params, grid129, q.InputState.thermal(2.0))
        mat = q.assemble_mimo_matrix([pure, hot])
        dets = q.mimo_quantum_limit(mat)
        scale = np.prod(np.abs(np.diagonal(mat, axis1=1, axis2=2)), axis=1)
        assert np.max(np.abs(dets) / scale) <= 1e-9

    def test_non_hermitian_rejected(self):
        mat = np.array([[[0.5, 0.2 + 0.1j], [0.9 - 0.1j, 0.5]]])
        with pytest.raises(q.InvalidMatrixError):
            q.mimo_quantum_limit(mat)

    def test_negative_eigenvalue_rejected(self):
        mat = np.array([[[-0.5, 0.0], [0.0, 1.0]]], dtype=complex)
        with pytest.raises(q.InvalidMatrixError):
            q.mimo_quantum_limit(mat)

    def test_diagonal_determinant_value(self):
        mat = np.array([[[2.0, 0.0], [0.0, 3.0]]], dtype=complex)
        assert q.mimo_quantum_limit(mat)[0] == pytest.approx(6.0, rel=1e-14)

    def test_wide_eigenvalue_spread_keeps_its_determinant(self):
        # ascending products of these eigenvalues pass through 1e-320 (a
        # subnormal, 1e-5 off) and 1e-400 (underflow to 0); det = 1 for both
        mat = np.stack([np.diag([a, 1 / a, a, 1 / a]).astype(complex)
                        for a in (1e160, 1e200)])
        dets = q.mimo_quantum_limit(mat)
        assert dets[0] == 1.0
        assert dets[1] == pytest.approx(1.0, rel=1e-15)

    def test_overflowing_determinant_rejected(self):
        mat = np.diag([1e300, 1e300, 1.0, 1.0]).astype(complex)[None]
        with pytest.raises(ValueError, match="overflows float64"):
            q.mimo_quantum_limit(mat)

    def test_bad_shape_rejected(self):
        with pytest.raises(q.InvalidMatrixError):
            q.mimo_quantum_limit(np.zeros((4, 3, 3), dtype=complex))
        # a single matrix is not a stack of one
        with pytest.raises(q.InvalidMatrixError):
            q.mimo_quantum_limit(np.eye(2, dtype=complex))


class TestKuboInReport:
    def test_report_kubo_residual_small(self, generic_params, grid129):
        uns, susc = _engine_run(generic_params, grid129)
        report = q.constraint_report(uns, susc)
        scale = np.max(np.abs(susc.chi_ff.values.imag)) + 1e-30
        assert np.max(np.abs(report.kubo_residual)) <= 1e-12 * scale
