"""Quantum-limit checks: gap, residual identities, verdicts, MIMO determinant."""

import dataclasses
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import qdetnoise as q
from qdetnoise import constraints, core, netsolve
from conftest import (HBARS, draw_cavity, exceptional_pair, gap_scale,
                      referred_residuals)

HBAR = 1.0
# the Verdict of each rank: a rank is its member's index in Verdict's order
MEMBERS = np.array(list(q.Verdict))


def _engine_run(params, grid, state=None):
    net = q.build_one_sided_cavity(params, input_state=state or q.InputState.vacuum())
    return q.solve_unsym_spectra(net, grid), q.solve_susceptibilities(net, grid)


class TestUncertaintyGap:
    def test_vacuum_sits_on_the_limit(self, generic_params, grid129):
        uns = q.cavity_unsym_spectra(generic_params, grid129)
        susc = q.cavity_susceptibilities(generic_params, grid129)
        gap = q.constraint_report(uns, susc).uncertainty_gap
        sym = q.cavity_spectra(generic_params, grid129)
        scale = np.max(sym.s_ff.values.real) * np.max(np.abs(susc.chi_zf.values)) ** 2
        assert np.max(np.abs(gap)) <= 1e-12 * scale

    def test_thermal_opens_the_gap(self, generic_params, grid129):
        uns, susc = _engine_run(generic_params, grid129, q.InputState.thermal(1.0))
        assert np.all(q.constraint_report(uns, susc).uncertainty_gap > 0.0)

    def test_factored_form_identity(self):
        # gap == |chi_zf|^2 (r1 - hbar |r2|), with r1, r2 from the referred
        # formulas: a nontrivial algebraic identity tying the two layers
        rng = np.random.default_rng(11)
        grid = q.make_symmetric_grid(4.0, 24)
        for _ in range(25):
            params = draw_cavity(rng)
            for state in (q.InputState.vacuum(), q.InputState.thermal(1.3)):
                uns, susc = _engine_run(params, grid, state)
                report = q.constraint_report(uns, susc)
                r1, r2 = referred_residuals(uns, susc)
                chi_sq = np.abs(susc.chi_zf.values) ** 2
                rebuilt = chi_sq * (r1 - HBAR * np.abs(r2))
                # both sides cancel to ~eps * (products); scale by the
                # products, not by the (possibly zero) gap itself
                sym = q.symmetrize(uns)
                scale = np.max(sym.s_zz.values.real * sym.s_ff.values.real
                               + HBAR ** 2 / 4 * chi_sq)
                assert np.max(np.abs(report.uncertainty_gap - rebuilt)) <= 1e-12 * scale
                rebuilt = chi_sq * (report.product_residual
                                    - HBAR * np.abs(report.correlation_residual))
                assert np.max(np.abs(report.uncertainty_gap - rebuilt)) <= 1e-12 * scale

    def test_inflated_cross_correlation_violates(self, generic_params, grid129):
        uns = q.cavity_unsym_spectra(generic_params, grid129)
        susc = q.cavity_susceptibilities(generic_params, grid129)
        s_zf = q.ComplexSpectrum(grid129, 2.0 * uns.s_zf.values)
        doctored = q.SpectraSet(grid=grid129, s_zz=uns.s_zz, s_zf=s_zf,
                                s_ff=uns.s_ff, symmetrized=False)
        assert np.min(q.constraint_report(doctored, susc).uncertainty_gap) < 0.0

    def test_checks_detector_validity_first(self, generic_params, grid129):
        uns = q.cavity_unsym_spectra(generic_params, grid129)
        susc = q.cavity_susceptibilities(generic_params, grid129)
        chi_zz = q.ComplexSpectrum(grid129, 0.5 * susc.chi_zf.values)
        # a vanishing chi_zf would raise too, but validity is checked first
        chi_zf = q.ComplexSpectrum(grid129, np.zeros(len(grid129), dtype=complex))
        for signal in (susc.chi_zf, chi_zf):
            bad = q.SusceptibilitySet(grid=grid129, chi_zf=signal,
                                      chi_ff=susc.chi_ff, chi_zz=chi_zz,
                                      chi_fz=susc.chi_fz, units=susc.units)
            with pytest.raises(q.NotAValidDetectorError):
                q.constraint_report(uns, bad)


class TestReferredResiduals:
    def test_vacuum_residuals_vanish(self, generic_params, grid129):
        uns = q.cavity_unsym_spectra(generic_params, grid129)
        susc = q.cavity_susceptibilities(generic_params, grid129)
        report = q.constraint_report(uns, susc)
        norm = q.normalize(q.cavity_spectra(generic_params, grid129), susc)
        s_zz = norm.imprecision.values.real
        s_ff = norm.force.values.real
        assert np.max(np.abs(report.product_residual)) <= 1e-9 * np.max(s_zz * s_ff)
        r2_scale = np.abs(susc.chi_ff.values.imag) * s_zz + HBAR
        assert np.max(np.abs(report.correlation_residual) / r2_scale) <= 1e-9

    def test_correlation_identity_against_raw_form(self, generic_params, grid129):
        # Im[conj(S_zf_sym) chi_zf - chi_ff S_zz_sym] == -r2 |chi_zf|^2
        uns = q.cavity_unsym_spectra(generic_params, grid129)
        susc = q.cavity_susceptibilities(generic_params, grid129)
        r2 = q.constraint_report(uns, susc).correlation_residual
        sym = q.cavity_spectra(generic_params, grid129)
        raw = np.imag(np.conj(sym.s_zf.values) * susc.chi_zf.values
                      - susc.chi_ff.values * sym.s_zz.values)
        rebuilt = -r2 * np.abs(susc.chi_zf.values) ** 2
        scale = np.max(np.abs(raw)) + np.max(np.abs(susc.chi_zf.values)) ** 2
        assert np.max(np.abs(raw - rebuilt)) <= 1e-12 * scale


_RATE = st.floats(0.0, 1.0)


class TestWideRange:
    @given(log_s=st.floats(-8.0, 8.0), log_hbar=st.floats(-3.0, 3.0),
           shape=st.tuples(_RATE, _RATE, _RATE, _RATE),
           state=st.one_of(
               st.just(q.InputState.vacuum()),
               st.builds(q.InputState.thermal, st.floats(0.1, 3.0)),
               st.builds(lambda r, phi: q.InputState(0.0, r, phi),
                         st.floats(0.0, 2.0), st.floats(-np.pi, np.pi))))
    def test_verdicts_and_residuals_at_any_scale(self, log_s, log_hbar,
                                                 shape, state):
        # every rate and the grid scaled by one s, hbar != 1: pure inputs sit
        # on the limit, thermal ones above it, and the residuals derived from
        # the gap's terms match the referred formulas
        s, hbar = 10.0 ** log_s, 10.0 ** log_hbar
        a, b, c, d = shape
        params = q.CavityParams(gamma=s * 0.05 * 100.0 ** a,
                                delta=s * 3.0 * (2.0 * b - 1.0),
                                gbar=s * 0.1 * 30.0 ** c,
                                theta=np.pi * (d - 0.5),
                                units=q.UnitConvention(hbar))
        # zero gain at omega = 0 leaves no signal to refer to, which the
        # audit rejects (test_rejects_grid_mismatch_and_vanishing_signal)
        assume(params.delta * np.cos(params.theta)
               != params.gamma * np.sin(params.theta))
        uns, susc = _engine_run(params, q.make_symmetric_grid(4.0 * s, 16), state)
        report = q.constraint_report(uns, susc)
        expected = (q.Verdict.above_limit if state.kind == "thermal"
                    else q.Verdict.quantum_limited)
        assert all(v is expected for v in report.verdicts)

        scale = gap_scale(uns, susc) / np.abs(susc.chi_zf.values) ** 2
        r1, r2 = referred_residuals(uns, susc)
        # r1 carries hbar^2 and r2 hbar, as gap = |chi_zf|^2 (r1 - hbar |r2|)
        assert np.all(np.abs(report.product_residual - r1) <= 1e-12 * scale)
        assert np.all(np.abs(report.correlation_residual - r2)
                      <= 1e-12 * scale / hbar)


class TestUnitCovariance:
    """hbar times 4^k is an exact change of units in binary floating point:
    each array of the engine, the audit and the closed forms gains the power
    of two of its own power of hbar, and no rank moves (ROADMAP item T)."""

    # each array's power of hbar: the force carries one, so a spectrum holds
    # one per force in it, and a response, (i/hbar) times a commutator, one less
    POWER = {"chi_zf": 0, "chi_ff": 1, "s_zz": 0, "s_zf": 1, "s_ff": 2,
             "uncertainty_gap": 2, "product_residual": 2, "correlation_residual": 1,
             "kubo_residual": 1, "positivity_margin": 2}

    @staticmethod
    def arrays(params, grid, state):
        """(name, float array) of the engine's and the closed forms' responses
        and spectra, then of the report's residuals; and the ranks."""
        uns, susc = _engine_run(params, grid, state)
        report = q.constraint_report(uns, susc)
        closed = (q.cavity_susceptibilities(params, grid),
                  q.cavity_unsym_spectra(params, grid))
        arrays = [(name, getattr(chi if name.startswith("chi") else spectra,
                                 name).values.view(float))
                  for chi, spectra in ((susc, uns), closed)
                  for name in ("chi_zf", "chi_ff", "s_zz", "s_zf", "s_ff")]
        arrays += [(name, getattr(report, name)) for name in
                   ("uncertainty_gap", "product_residual", "correlation_residual",
                    "kubo_residual", "positivity_margin")]
        return arrays, report.rank

    @pytest.mark.parametrize("state", [q.InputState.vacuum(), q.InputState.thermal(0.8),
                                       q.InputState.squeezed(0.7)],
                             ids=["vacuum", "thermal", "squeezed"])
    def test_hbar_times_a_power_of_four(self, grid129, state):
        params = q.CavityParams(gamma=2.0, delta=0.5, gbar=1.0, theta=0.4)
        base, rank = self.arrays(params, grid129, state)
        assert len(base) == 15
        for k in (-20, -3, 2, 15):
            units = q.UnitConvention(4.0 ** k)
            scaled, scaled_rank = self.arrays(
                dataclasses.replace(params, units=units), grid129, state)
            assert np.array_equal(scaled_rank, rank), k
            for (name, values), (_, scaled_values) in zip(base, scaled):
                assert np.array_equal(np.ldexp(values, 2 * k * self.POWER[name]),
                                      scaled_values), (name, k)


def _rho_and_scale(spectra, susc):
    """rho, the gap over its floor (hbar^2/4)|chi_zf|^2, and the gap's scale
    over the same floor, per frequency; with the report."""
    report = q.constraint_report(spectra, susc)
    floor = 0.25 * susc.units.hbar ** 2 * np.abs(susc.chi_zf.values) ** 2
    return report.uncertainty_gap / floor, gap_scale(spectra, susc) / floor, report


class TestExactGap:
    """rho = gap / ((hbar^2/4)|chi_zf|^2) against its exact value, on both
    sides of the limit (ROADMAP item U).

    The tolerance is 1e-12 of the gap's scale in units of the floor, s =
    scale / ((hbar^2/4)|chi_zf|^2), which is 1 + rho wherever the readout
    and the force noise are uncorrelated (S_zf = 0), as on the two-line
    cavity below. Refs: Clerk et al., RMP 82, 1155 (2010), secs. on the
    quantum limit on position detection and on detection efficiency.
    """

    TOL = 1e-12

    @given(log_k=st.floats(-3.0, 3.0), log_g=st.floats(-1.0, 0.5),
           eta=st.floats(0.01, 0.99), n_th=st.floats(0.0, 10.0),
           r=st.floats(0.0, 1.0), phi=st.sampled_from([0.0, np.pi]),
           hbar=st.sampled_from([*HBARS, 0.3]))
    def test_split_decay_read_on_one_line(self, log_k, log_g, eta, n_th, r,
                                          phi, hbar):
        # a resonant cavity whose decay k is split over two lines, eta of it
        # on line 1, read in line 1's phase quadrature: detection
        # efficiency eta, rho = (2N+1)^2 / eta - 1 at every frequency, for
        # a state squeezed along either quadrature too
        k, gbar = 10.0 ** log_k, 10.0 ** log_g
        net = q.passive_network(
            [[0.0]], [[np.sqrt(eta * k)], [np.sqrt((1.0 - eta) * k)]],
            force=q.Observable(mode_quad=[np.sqrt(2.0) * hbar * gbar, 0.0],
                               output_quad=np.zeros(4)),
            readout=q.Observable(mode_quad=np.zeros(2),
                                 output_quad=[0.0, 1.0, 0.0, 0.0]),
            input_state=q.InputState(n_th, r, phi), units=q.UnitConvention(hbar))
        grid = q.make_symmetric_grid(5.0 * k, 16)
        rho, s, report = _rho_and_scale(q.solve_unsym_spectra(net, grid),
                                        q.solve_susceptibilities(net, grid))
        exact = (2.0 * n_th + 1.0) ** 2 / eta - 1.0
        assert np.all(np.abs(s - (1.0 + exact)) <= self.TOL * (1.0 + exact))
        assert np.all(np.abs(rho - exact) <= self.TOL * (1.0 + exact))
        # r2 = 0 and r1 = (hbar^2/4) rho, each to the same tolerance
        quarter = 0.25 * hbar ** 2
        assert np.all(np.abs(report.product_residual - quarter * exact)
                      <= self.TOL * quarter * (1.0 + exact))
        assert np.all(np.abs(report.correlation_residual)
                      <= self.TOL * quarter / hbar * (1.0 + exact))
        assert np.all(report.rank == 1)

    @given(n_modes=st.integers(1, 3), log_k=st.floats(0.0, 1.0),
           detunings=st.lists(st.floats(-3.0, 3.0), min_size=3, max_size=3),
           hops=st.lists(st.tuples(st.floats(1.0, 2.0), st.floats(-np.pi, np.pi)),
                         min_size=2, max_size=2),
           force_angle=st.floats(-np.pi, np.pi),
           angles=st.lists(st.floats(-np.pi / 2, np.pi / 2), min_size=5, max_size=5),
           r=st.floats(0.0, 1.0), phi=st.floats(-np.pi, np.pi),
           hbar=st.sampled_from(HBARS))
    def test_lossless_one_port_sits_on_the_limit(
            self, n_modes, log_k, detunings, hops, force_angle, angles, r, phi,
            hbar):
        # a chain of modes, one decay line on the first and the force on the
        # last, with a pure input: rho = 0 at every readout angle. The hops
        # and the decay are kept at or above 1 and the grid inside 3: far
        # off resonance the engine's eigen path loses digits (ROADMAP U)
        h = np.diag(detunings[:n_modes]).astype(complex)
        for j, (size, angle) in enumerate(hops[:n_modes - 1]):
            h[j, j + 1] = size * np.exp(1j * angle)
            h[j + 1, j] = np.conj(h[j, j + 1])
        coupling = np.zeros((1, n_modes))
        coupling[0, 0] = np.sqrt(10.0 ** log_k)
        force_quad = np.zeros(2 * n_modes)
        force_quad[-2:] = hbar * np.cos(force_angle), hbar * np.sin(force_angle)
        grid = q.make_symmetric_grid(3.0, 16)

        def network(theta):
            return q.passive_network(
                h, coupling,
                force=q.Observable(mode_quad=force_quad, output_quad=np.zeros(2)),
                readout=q.Observable(mode_quad=np.zeros(2 * n_modes),
                                     output_quad=[np.cos(theta), np.sin(theta)]),
                input_state=q.InputState(0.0, r, phi), units=q.UnitConvention(hbar))

        # chi_zf is linear in the readout's quadrature: an angle whose gain
        # is a small part of both quadratures' somewhere reads no signal
        # there, or one that round-off decides
        chi_x, chi_y = (q.solve_susceptibilities(network(theta), grid).chi_zf.values
                        for theta in (0.0, np.pi / 2))
        both = np.hypot(np.abs(chi_x), np.abs(chi_y))
        for theta in angles:
            gain = np.abs(np.cos(theta) * chi_x + np.sin(theta) * chi_y)
            assume(np.all(gain > 1e-3 * both))
            net = network(theta)
            rho, s, report = _rho_and_scale(q.solve_unsym_spectra(net, grid),
                                            q.solve_susceptibilities(net, grid))
            assert np.all(np.abs(rho) <= self.TOL * s), theta
            assert np.all(report.rank == 0), theta

    @pytest.mark.xfail(strict=True, reason="ROADMAP item A: squeezed inputs "
                       "lose rho to e^{2r} cancellation above the limit too")
    def test_split_decay_with_large_squeezing(self):
        # the split-decay cavity above at k = gbar = hbar = 1 and eta = 0.5
        # with a pure state squeezed at r = 8: rho = 1 / eta - 1 = 1 exactly
        net = q.passive_network(
            [[0.0]], [[np.sqrt(0.5)], [np.sqrt(0.5)]],
            force=q.Observable(mode_quad=[np.sqrt(2.0), 0.0], output_quad=np.zeros(4)),
            readout=q.Observable(mode_quad=np.zeros(2),
                                 output_quad=[0.0, 1.0, 0.0, 0.0]),
            input_state=q.InputState(0.0, 8.0, 0.0))
        grid = q.make_symmetric_grid(5.0, 16)
        rho, _, report = _rho_and_scale(q.solve_unsym_spectra(net, grid),
                                        q.solve_susceptibilities(net, grid))
        assert np.all(report.rank == 1)
        assert np.all(np.abs(rho - 1.0) <= self.TOL * 2.0)


class TestPositivityMargin:
    def test_equals_smaller_sideband(self, generic_params, grid129):
        for hbar in HBARS:
            params = dataclasses.replace(generic_params,
                                         units=q.UnitConvention(hbar))
            uns, susc = _engine_run(params, grid129)
            margin = q.constraint_report(uns, susc).positivity_margin
            smaller = np.minimum(uns.s_ff.values.real, uns.s_ff.values.real[::-1])
            assert np.allclose(margin, smaller, rtol=1e-10, atol=1e-12), hbar

    def test_nonnegative_for_physical_spectra(self, grid129):
        rng = np.random.default_rng(5)
        for hbar in HBARS:
            for _ in range(10):
                params = draw_cavity(rng, hbar)
                uns = q.cavity_unsym_spectra(params, grid129)
                susc = q.cavity_susceptibilities(params, grid129)
                margin = q.constraint_report(uns, susc).positivity_margin
                s_ff = q.symmetrize(uns).s_ff.values.real
                assert np.all(margin >= -1e-12 * np.max(s_ff)), params


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

    def test_peak_beside_the_inputs_is_a_few_columns(self, generic_params):
        # the gap terms are walked in blocks, S_zf symmetrized with them,
        # the autos kept as real parts alone and the residuals put in the
        # buffers of spent terms: 7.8 float columns at 50,001 points,
        # against 12.3 with the whole symmetrized record and 20.3 when every
        # intermediate lived to the end
        grid = q.make_symmetric_grid(5.0, 25_000)
        uns, susc = _engine_run(generic_params, grid, q.InputState.thermal(0.8))
        tracemalloc.start()
        try:
            report = q.constraint_report(uns, susc)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        columns = peak / (8 * len(grid))
        assert columns <= 9.0, columns
        # what is left is the five residuals and the verdicts' pointers
        assert all(getattr(report, name).base is None for name in (
            "uncertainty_gap", "product_residual", "correlation_residual",
            "kubo_residual", "positivity_margin"))

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

    @pytest.mark.parametrize("hbar", [2.0, 0.5])
    def test_hbar_comes_from_the_susceptibilities(self, grid129, hbar):
        # a vacuum input sits on the limit at any hbar; read with hbar = 1
        # it was called above_limit (hbar = 2) or a violation (hbar = 0.5)
        units = q.UnitConvention(hbar)
        params = q.CavityParams(gamma=2.0, delta=0.5, gbar=1.0, theta=0.4,
                                units=units)
        uns, susc = _engine_run(params, grid129)
        assert susc.units == units
        assert q.cavity_susceptibilities(params, grid129).units == units
        for report in (q.constraint_report(uns, susc),
                       q.constraint_report(uns, susc, units=units)):
            assert all(v is q.Verdict.quantum_limited for v in report.verdicts)
        with pytest.raises(ValueError, match="units"):
            q.constraint_report(uns, susc, units=q.UnitConvention())

    def test_units_are_required(self, generic_params, grid129):
        # hbar defaults only on the model records, never in a check
        uns = q.cavity_unsym_spectra(generic_params, grid129)
        susc = q.cavity_susceptibilities(generic_params, grid129)
        with pytest.raises(TypeError):
            q.kubo_check(uns.s_ff, susc.chi_ff)
        with pytest.raises(TypeError):
            q.SusceptibilitySet(grid=grid129, chi_zf=susc.chi_zf,
                                chi_ff=susc.chi_ff, chi_zz=susc.chi_zz,
                                chi_fz=susc.chi_fz)
        assert not hasattr(q, "positivity_margin")

    def test_rejects_grid_mismatch_and_vanishing_signal(self, grid129):
        params = q.CavityParams(gamma=2.0, delta=0.0, gbar=1.0, theta=0.0)
        uns = q.cavity_unsym_spectra(params, grid129)
        other = q.make_symmetric_grid(3.0, 64)
        with pytest.raises(q.GridMismatchError,
                           match="susc lives on a different grid"):
            q.constraint_report(uns, q.cavity_susceptibilities(params, other))
        with pytest.raises(q.SingularNormalizationError,
                           match="chi_zf vanishes at omega = -4;"):
            q.constraint_report(uns, q.cavity_susceptibilities(params, grid129))

    @pytest.mark.parametrize("eps, eigen", [(1e-2, True), (1e-4, False)])
    def test_round_off_in_chi_zf_is_no_signal(self, eps, eigen):
        # the readout at theta = pi/2 misses the force mode: chi_zf is exact
        # zeros on the batched path and round-off (up to 1.2e-14) on the eigen
        # path, where r1 reached 5.7e13 while every verdict read a pass
        net = exceptional_pair(eps, np.pi / 2)
        assert (net._modes[1] is not None) == eigen
        grid = q.make_symmetric_grid(2.0, 200)
        spectra = q.solve_unsym_spectra(net, grid)
        susc = q.solve_susceptibilities(net, grid)
        with pytest.raises(q.SingularNormalizationError,
                           match="chi_zf vanishes at omega = -2;"):
            q.constraint_report(spectra, susc)

    def test_doctored_spectra_flag_violation(self, generic_params, grid129):
        uns = q.cavity_unsym_spectra(generic_params, grid129)
        susc = q.cavity_susceptibilities(generic_params, grid129)
        s_zf = q.ComplexSpectrum(grid129, 2.0 * uns.s_zf.values)
        doctored = q.SpectraSet(grid=grid129, s_zz=uns.s_zz, s_zf=s_zf,
                                s_ff=uns.s_ff, symmetrized=False)
        report = q.constraint_report(doctored, susc)
        assert report.worst_verdict is q.Verdict.violation
        # a NaN gap fails every comparison and must not read as a pass; an
        # infinite one has an infinite scale, beside which any signal is small
        i = 40
        for bad in (np.nan, np.inf):
            s_ff = uns.s_ff.values.copy()
            s_ff[i] = bad
            doctored = q.SpectraSet(grid=grid129, s_zz=uns.s_zz, s_zf=uns.s_zf,
                                    s_ff=q.ComplexSpectrum(grid129, s_ff),
                                    symmetrized=False)
            report = q.constraint_report(doctored, susc)
            assert report.verdicts[i] is q.Verdict.violation
            assert report.worst_verdict is q.Verdict.violation

    def test_doctored_spectra_whose_product_overflows_raise(self, generic_params,
                                                            grid129):
        # finite spectra, but S_zz S_ff is about 1e400: out of range, not a violation
        uns = q.cavity_unsym_spectra(generic_params, grid129)
        susc = q.cavity_susceptibilities(generic_params, grid129)
        i = 40
        s_zz, s_ff = uns.s_zz.values.copy(), uns.s_ff.values.copy()
        s_zz[i] = s_ff[i] = 1e200
        doctored = q.SpectraSet(grid=grid129, s_zz=q.ComplexSpectrum(grid129, s_zz),
                                s_zf=uns.s_zf, s_ff=q.ComplexSpectrum(grid129, s_ff),
                                symmetrized=False)
        omega = grid129.points[i]
        with pytest.raises(ValueError, match=re.escape(
                f"uncertainty gap overflows float64 at omega={omega:.9g}: "
                "the input spectra are out of range")):
            q.constraint_report(doctored, susc)

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
            rank=np.array([0, 1, 0], dtype=np.int8))
        assert report.worst_verdict is q.Verdict.above_limit

    def test_kubo_residual_is_kubo_checks_real_part(self, generic_params, grid129):
        uns, susc = _engine_run(generic_params, grid129, q.InputState.thermal(0.7))
        residual = q.constraint_report(uns, susc).kubo_residual
        assert residual.dtype == float and residual.flags.c_contiguous
        expected = q.kubo_check(uns.s_ff, susc.chi_ff, susc.units).values.real
        assert residual.tobytes() == np.ascontiguousarray(expected).tobytes()

    def test_verdicts_read_as_a_tuple_does(self, generic_params, grid129):
        ql, above, bad = q.Verdict
        # a NaN in the force noise: a violation there and at its mirror
        uns = q.cavity_unsym_spectra(generic_params, grid129)
        s_ff = uns.s_ff.values.copy()
        s_ff[40] = np.nan
        uns = dataclasses.replace(uns, s_ff=q.ComplexSpectrum(grid129, s_ff))
        report = q.constraint_report(
            uns, q.cavity_susceptibilities(generic_params, grid129))
        expected = (ql,) * 40 + (bad,) + (ql,) * 47 + (bad,) + (ql,) * 40
        assert isinstance(report.rank, np.ndarray) and report.rank.dtype == np.int8
        assert report.rank.tolist() == [list(q.Verdict).index(v) for v in expected]
        assert isinstance(report.verdicts, np.ndarray)
        assert len(report.verdicts) == len(expected)
        assert all(type(v) is q.Verdict for v in report.verdicts)
        assert set(report.verdicts) == set(expected)
        assert all(report.verdicts[i] is v for i, v in enumerate(expected))
        assert report.worst_verdict is bad
        assert [v in report.verdicts for v in q.Verdict] == [
            v in expected for v in q.Verdict]


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

    @pytest.mark.parametrize("grids, message", [
        ((), "need at least one spectra set"),
        ((8, 9), r"spectra_sets\[1\] lives on a different grid"),
    ])
    def test_assemble_needs_sets_on_one_grid(self, generic_params, grids, message):
        sets = [_engine_run(generic_params, q.make_symmetric_grid(3.0, n))[0]
                for n in grids]
        with pytest.raises(ValueError, match=message):
            q.assemble_mimo_matrix(sets)

    def test_pure_state_determinant_vanishes(self, generic_params, grid129):
        for state in (q.InputState.vacuum(), q.InputState.squeezed(0.5)):
            uns, _ = _engine_run(generic_params, grid129, state)
            mat = q.assemble_mimo_matrix([uns])
            dets, rank = q.mimo_quantum_limit(mat)
            scale = np.prod(np.abs(np.diagonal(mat, axis1=1, axis2=2)), axis=1)
            assert np.max(np.abs(dets) / scale) <= 1e-9
            assert rank.dtype == np.int8
            assert set(MEMBERS[rank]) == {q.Verdict.quantum_limited}

    def test_thermal_determinant_positive(self, generic_params, grid129):
        uns, _ = _engine_run(generic_params, grid129, q.InputState.thermal(0.5))
        dets, rank = q.mimo_quantum_limit(q.assemble_mimo_matrix([uns]))
        assert np.all(dets > 0.0)
        assert set(MEMBERS[rank]) == {q.Verdict.above_limit}

    def test_vacuum_block_pins_joint_determinant_to_zero(
            self, generic_params, grid129):
        # one pure block forces det = 0 for the whole block-diagonal matrix,
        # whatever the other blocks contain
        pure, _ = _engine_run(generic_params, grid129)
        hot, _ = _engine_run(generic_params, grid129, q.InputState.thermal(2.0))
        mat = q.assemble_mimo_matrix([pure, hot])
        dets, rank = q.mimo_quantum_limit(mat)
        scale = np.prod(np.abs(np.diagonal(mat, axis1=1, axis2=2)), axis=1)
        assert np.max(np.abs(dets) / scale) <= 1e-9
        assert set(MEMBERS[rank]) == {q.Verdict.quantum_limited}

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
        dets, _ = q.mimo_quantum_limit(mat)
        assert dets[0] == pytest.approx(6.0, rel=1e-14)

    def test_wide_eigenvalue_spread_keeps_its_determinant(self):
        # ascending products of these eigenvalues pass through 1e-320 (a
        # subnormal, 1e-5 off) and 1e-400 (underflow to 0); det = 1 for both
        mat = np.stack([np.diag([a, 1 / a, a, 1 / a]).astype(complex)
                        for a in (1e160, 1e200)])
        dets, _ = q.mimo_quantum_limit(mat)
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


class TestMimoBoundaries:
    """Each MIMO check at its documented tolerance, on a row after the first
    block of rows the check walks, and the checks' order across blocks.
    Every block is diag(2, 1, 2, 1), whose largest entry, the scale, is 2.
    The tolerances are written out, so that a changed constant fails."""

    STEP = core._blocks(10**6, 16)[0][1]  # rows per block of 4x4 matrices
    LATE = STEP + 3

    @classmethod
    def stack(cls) -> np.ndarray:
        rows = 2 * cls.STEP + 5
        return np.tile(np.diag([2.0, 1.0, 2.0, 1.0]).astype(complex), (rows, 1, 1))

    @pytest.mark.parametrize("factor, passes", [(0.9, True), (1.1, False)])
    def test_hermiticity_tolerance(self, factor, passes):
        mat = self.stack()
        mat[self.LATE, 0, 1] = factor * 1e-12 * 2.0
        if passes:
            _, rank = q.mimo_quantum_limit(mat)
            assert set(MEMBERS[rank]) == {q.Verdict.above_limit}
            return
        with pytest.raises(q.InvalidMatrixError,
                           match=f"index {self.LATE} is not Hermitian"):
            q.mimo_quantum_limit(mat)

    @pytest.mark.parametrize("factor, passes", [(0.5, True), (2.0, False)])
    def test_semidefiniteness_tolerance(self, factor, passes):
        mat = self.stack()
        mat[self.LATE, 1, 1] = -factor * 1e-9 * 2.0
        if passes:
            _, rank = q.mimo_quantum_limit(mat)
            # a negative determinant is round-off: it sits at the limit
            assert MEMBERS[rank][self.LATE] is q.Verdict.quantum_limited
            return
        with pytest.raises(q.InvalidMatrixError,
                           match=f"index {self.LATE} is not positive semidefinite"):
            q.mimo_quantum_limit(mat)

    def test_small_last_eigenvalue_is_above_the_limit(self):
        # det 1e-8 against a mean eigenvalue of about 3/4: 3.2e-8 of its
        # fourth power, 32 times the tolerance. The determinant over the
        # diagonal's product is 1, so the Hadamard rule of ROADMAP item M
        # reads above_limit too.
        _, rank = q.mimo_quantum_limit(np.diag([1.0, 1.0, 1.0, 1e-8])[None])
        assert list(MEMBERS[rank]) == [q.Verdict.above_limit]

    def test_non_finite_late_row_beats_non_hermitian_early_row(self):
        mat = self.stack()
        mat[1, 0, 1] = 0.5
        mat[self.LATE, 2, 3] = complex(0.0, np.nan)
        with pytest.raises(q.InvalidMatrixError,
                           match=f"index {self.LATE} is not finite"):
            q.mimo_quantum_limit(mat)

    def test_non_hermitian_late_row_beats_non_semidefinite_early_row(self):
        mat = self.stack()
        mat[1, 1, 1] = -1.0
        mat[self.LATE, 0, 1] = 0.5
        with pytest.raises(q.InvalidMatrixError,
                           match=f"index {self.LATE} is not Hermitian"):
            q.mimo_quantum_limit(mat)


class TestAuditBoundaries:
    """Each tolerance of the audit between an input just inside it, which
    passes, and one just outside, which does not. The tolerances are
    written out, so that a changed constant fails."""

    @pytest.fixture
    def vacuum(self, generic_params, grid129):
        return _engine_run(generic_params, grid129)

    @pytest.mark.parametrize("excess, verdict", [
        (0.5e-9, q.Verdict.quantum_limited), (1.5e-9, q.Verdict.above_limit)])
    def test_threshold_is_1e_9_of_the_scale(self, vacuum, excess, verdict):
        # at the limit S_zz S_ff is the largest of the gap's terms, so S_ff
        # times 1 + e moves every gap by e of its scale
        uns, susc = vacuum
        sym = q.symmetrize(uns)
        assert np.array_equal(gap_scale(uns, susc),
                              sym.s_zz.values.real * sym.s_ff.values.real)
        s_ff = q.ComplexSpectrum(uns.grid, uns.s_ff.values * (1.0 + excess))
        report = q.constraint_report(dataclasses.replace(uns, s_ff=s_ff), susc)
        assert set(report.verdicts) == {verdict}

    @pytest.mark.parametrize("ratio, valid", [(1e-10, True), (1e-8, False)])
    def test_chi_zz_floor_is_1e_9_of_the_signal(self, vacuum, ratio, valid):
        uns, susc = vacuum
        chi_zz = np.full(len(uns.grid), ratio * np.max(np.abs(susc.chi_zf.values)))
        susc = dataclasses.replace(susc, chi_zz=q.ComplexSpectrum(uns.grid, chi_zz))
        if valid:
            q.constraint_report(uns, susc)
            return
        with pytest.raises(q.NotAValidDetectorError):
            q.constraint_report(uns, susc)

    @pytest.mark.parametrize("ratio, signal", [(1e-7, True), (1e-9, False)])
    def test_no_signal_below_sqrt_eps_of_the_scale(self, vacuum, ratio, signal):
        # (hbar/2)|chi_zf| at one frequency set to ratio * sqrt(scale): 1e-9
        # lies between sqrt(1e-20) and sqrt(eps) = 1.5e-8, 1e-7 above both
        uns, susc = vacuum
        i, hbar = 40, susc.units.hbar
        chi_zf = susc.chi_zf.values.copy()
        chi_zf[i] = 0.0
        scale = gap_scale(uns, dataclasses.replace(
            susc, chi_zf=q.ComplexSpectrum(uns.grid, chi_zf)))[i]
        chi_zf[i] = 2.0 / hbar * ratio * np.sqrt(scale)
        doctored = dataclasses.replace(susc, chi_zf=q.ComplexSpectrum(uns.grid, chi_zf))
        # the scale the audit reads holds the new chi_zf's terms too
        read = 0.5 * hbar * abs(chi_zf[i]) / np.sqrt(gap_scale(uns, doctored)[i])
        assert read == pytest.approx(ratio, rel=1e-6)
        if signal:
            q.constraint_report(uns, doctored)
            return
        omega = uns.grid.points[i]
        with pytest.raises(q.SingularNormalizationError,
                           match=f"chi_zf vanishes at omega = {omega:.6g};"):
            q.constraint_report(uns, doctored)


def _reference_report(uns, susc):
    """The audit as it ran on ``q.symmetrize``'s whole record, with the gap
    terms formed over the whole grid: the oracle of its errors and bits.
    Returns the five residuals and the ranks."""
    hbar = susc.units.hbar
    amplitude = np.abs(susc.chi_zf.values)
    constraints._require_valid_detector(susc, amplitude)
    sym = q.symmetrize(uns)
    with np.errstate(over="ignore"):
        signal = amplitude ** 2
    s_zz, s_ff, s_zf = sym.s_zz.values.real, sym.s_ff.values.real, sym.s_zf.values
    chi_zf, chi_ff = susc.chi_zf.values, susc.chi_ff.values
    with np.errstate(over="ignore", invalid="ignore"):
        zz_ff = s_zz * s_ff
        zf_sq = np.abs(s_zf) ** 2
        chi_sq = 0.25 * hbar ** 2 * signal
        im = hbar * np.imag(np.conj(s_zf) * chi_zf - chi_ff * s_zz)
        scale = np.maximum(np.maximum(np.abs(zz_ff), zf_sq),
                           np.maximum(chi_sq, np.abs(im)))
        d0 = (zz_ff - zf_sq) - chi_sq
    overflow = ~(np.isfinite(d0) & np.isfinite(scale))
    for term in (s_zz, s_ff, s_zf, chi_zf, chi_ff):
        overflow &= np.isfinite(term)
    if np.any(overflow):
        omega = uns.grid.points[np.argmax(overflow)]
        raise ValueError(f"uncertainty gap overflows float64 at omega={omega:.9g}: "
                         "the input spectra are out of range")
    core._require_signal(uns.grid, np.isfinite(scale) & (
        amplitude * (0.5 * hbar) <= np.sqrt(np.finfo(float).eps * scale)))
    gap = d0 - np.abs(im)
    return (gap, d0 / signal, -im / (hbar * signal),
            core._kubo_residual(uns.s_ff, susc.chi_ff, susc.units),
            s_ff - hbar * np.abs(chi_ff.imag),
            constraints.classify_verdicts(
                gap, constraints._TOL * np.maximum(scale, 1e-300)))


def _outcome(audit, uns, susc):
    """The type and message of what ``audit`` raises, or the bytes of its
    residuals and ranks."""
    try:
        result = audit(uns, susc)
    except Exception as exc:  # a RuntimeWarning too, as warnings are errors
        return type(exc), str(exc)
    if isinstance(result, q.ConstraintReport):
        result = (result.uncertainty_gap, result.product_residual,
                  result.correlation_residual, result.kubo_residual,
                  result.positivity_margin, result.rank)
    return tuple(r.tobytes() for r in result)


@st.composite
def _audit_inputs(draw):
    """Unsymmetrized spectra and a valid detector's susceptibilities on a
    small grid, doctored by up to three drawn cases, which meet so that
    the order of the checks shows."""
    cases = draw(st.sets(st.sampled_from([
        "residue", "negative", "nonfinite", "large", "sum-overflow", "asymmetric"]),
        max_size=3))
    n = 2 * draw(st.integers(1, 5)) + 1
    # the autos' imaginary parts are odd in frequency, so symmetrized they
    # are zero; their real parts are positive
    parts = {name: np.array(draw(st.lists(st.floats(lo, 4.0), min_size=n, max_size=n)))
             for name, lo in (("zz.re", 0.1), ("zz.im", -4.0), ("zf.re", -4.0),
                              ("zf.im", -4.0), ("ff.re", 0.1), ("ff.im", -4.0),
                              ("chi_zf.re", 0.1), ("chi_zf.im", -4.0),
                              ("chi_ff.re", -4.0), ("chi_ff.im", -4.0))}
    for auto in ("zz", "ff"):
        parts[auto + ".im"] -= parts[auto + ".im"][::-1]

    def pair(name):
        # an index and its mirror, and a part of one spectrum there
        i = draw(st.integers(0, n - 1))
        return draw(st.sampled_from(name)), [i, n - 1 - i]

    if "large" in cases:
        # parts up to 2^e: the gap's products overflow from e near 512
        e = draw(st.integers(400, 1023))
        for name in ("zz.re", "zz.im", "zf.re", "zf.im", "ff.re", "ff.im"):
            parts[name] = np.ldexp(parts[name] / 4.0, e)
    if "residue" in cases:
        # the symmetrized residue at +-omega_i about _IMAG_TOL of the peak
        auto, at = pair(["zz", "ff"])
        peak = np.max((parts[auto + ".re"] + parts[auto + ".re"][::-1]) * 0.5)
        factor = draw(st.sampled_from([0.5, 0.999, 1.001, 2.0])) * draw(
            st.sampled_from([1.0, -1.0]))
        parts[auto + ".im"][at] = factor * core._IMAG_TOL * peak
    if "negative" in cases:
        auto, at = pair(["zz", "ff"])
        parts[auto + ".re"][at] = -draw(st.floats(0.1, 4.0))
    if "sum-overflow" in cases:
        # parts whose symmetrizing sum, not conjugated, passes float64's largest
        name, at = pair(["zz.re", "zz.im", "zf.re", "ff.re", "ff.im"])
        parts[name][at] = np.ldexp(1.5, 1023)
    if "nonfinite" in cases:
        # at an index and its mirror, so that inf meets -inf in the sums
        for _ in range(draw(st.integers(1, 3))):
            name, at = pair(["zz.re", "zz.im", "zf.re", "zf.im", "ff.re", "ff.im"])
            parts[name][at] = draw(st.lists(st.sampled_from([np.nan, np.inf, -np.inf]),
                                            min_size=2, max_size=2))
    points = q.make_symmetric_grid(2.0, n // 2).points
    grid = q.FrequencyGrid(points + 0.25 if "asymmetric" in cases else points)

    def spectrum(name):
        values = np.empty(n, dtype=complex)
        values.real, values.imag = parts[name + ".re"], parts[name + ".im"]
        return q.ComplexSpectrum(grid, values)

    zero = q.ComplexSpectrum(grid, np.zeros(n))
    uns = q.SpectraSet(grid, spectrum("zz"), spectrum("zf"), spectrum("ff"),
                       symmetrized=False)
    susc = q.SusceptibilitySet(grid, spectrum("chi_zf"), spectrum("chi_ff"), zero,
                               zero, units=q.UnitConvention(draw(st.sampled_from(HBARS))))
    return uns, susc


class TestSameOutcomeAsTheSymmetrizedRecord:
    """The audit forms the symmetrized spectra it reads itself; it raises
    what it raised on ``symmetrize``'s record, or gives the same bits."""

    @pytest.mark.parametrize("errstate", [
        {}, {"over": "raise", "invalid": "raise", "divide": "raise"}],
        ids=["warnings", "cli-errstate"])
    @settings(max_examples=200)
    @given(inputs=_audit_inputs())
    def test_errors_and_bits(self, errstate, inputs):
        with np.errstate(**errstate):
            assert (_outcome(q.constraint_report, *inputs)
                    == _outcome(_reference_report, *inputs))


    def test_cross_spectrum_raises_between_the_autos(self, grid129):
        # symmetrize adds S_zz, S_zf and S_ff in that order, so S_zf's
        # inf + -inf is met before S_ff's overflow; the audit forms S_zf a
        # block at a time, yet raises there too
        ones = q.ComplexSpectrum(grid129, np.ones(len(grid129)))
        zero = q.ComplexSpectrum(grid129, np.zeros(len(grid129)))
        s_zf, s_ff = np.ones(len(grid129), dtype=complex), np.ones(len(grid129))
        s_zf.imag[[0, -1]] = np.inf
        s_ff[[0, -1]] = np.ldexp(1.5, 1023)
        uns = q.SpectraSet(grid129, ones, q.ComplexSpectrum(grid129, s_zf),
                           q.ComplexSpectrum(grid129, s_ff), symmetrized=False)
        susc = q.SusceptibilitySet(grid129, ones, ones, zero, zero,
                                   units=q.UnitConvention())
        with pytest.raises(RuntimeWarning, match="invalid value encountered in add"):
            _reference_report(uns, susc)
        with pytest.raises(RuntimeWarning, match="invalid value encountered in add"):
            q.constraint_report(uns, susc)


class TestKuboInReport:
    def test_report_kubo_residual_small(self, generic_params, grid129):
        uns, susc = _engine_run(generic_params, grid129)
        report = q.constraint_report(uns, susc)
        scale = np.max(np.abs(susc.chi_ff.values.imag)) + 1e-30
        assert np.max(np.abs(report.kubo_residual)) <= 1e-12 * scale


class TestOpenAuditDefects:
    """Known false verdicts, each pinned until its ROADMAP item lands.

    The three specs are strict xfails: the change that fixes a defect makes
    its spec pass, and must then remove the marker.
    """

    @staticmethod
    def _chain_report(grid):
        # a lossless 3-mode chain driven far off resonance: decay 0.1 on
        # mode 1, hops 0.2, the force on mode 3's X quadrature, vacuum in,
        # so rho = 0 and every rank is 0 (ROADMAP U)
        h = np.diag([-1.0, -1.0, -1.0]).astype(complex)
        h[0, 1], h[1, 2] = 0.2, 0.2 * np.exp(1j)
        h[1, 0], h[2, 1] = np.conj(h[0, 1]), np.conj(h[1, 2])
        net = q.passive_network(
            h, [[np.sqrt(0.1), 0.0, 0.0]],
            force=q.Observable(mode_quad=[0.0, 0.0, 0.0, 0.0, 1.0, 0.0],
                               output_quad=np.zeros(2)),
            readout=q.Observable(mode_quad=np.zeros(6),
                                 output_quad=[np.cos(-1.0), np.sin(-1.0)]))
        report = q.constraint_report(q.solve_unsym_spectra(net, grid),
                                     q.solve_susceptibilities(net, grid))
        return net, report

    @pytest.mark.xfail(strict=True, reason="ROADMAP item A: squeezed inputs "
                       "lose the quantum limit to e^{2r} cancellation")
    def test_pure_squeezed_input_is_quantum_limited(self):
        params = q.CavityParams(gamma=2.0, delta=0.0, gbar=1.0, theta=np.pi / 2)
        uns, susc = _engine_run(params, q.make_symmetric_grid(5.0, 64),
                                q.InputState(0.0, 8.0, 0.0))
        report = q.constraint_report(uns, susc)
        assert set(report.verdicts) == {q.Verdict.quantum_limited}

    @pytest.mark.xfail(strict=True, reason="ROADMAP item S: the eigen path's "
                       "round-off exceeds the gap's tolerance far off resonance")
    def test_lossless_chain_off_resonance_is_quantum_limited(self):
        net, report = self._chain_report(q.make_symmetric_grid(5.0, 16))
        assert net._modes[1] is not None  # the eigen path: cond(V) is 1.2
        assert np.all(report.rank == 0)

    def test_lossless_chain_off_resonance_on_the_batched_path(self, monkeypatch):
        monkeypatch.setattr(netsolve, "_MAX_MODE_COND", -1.0)
        net, report = self._chain_report(q.make_symmetric_grid(5.0, 16))
        assert net._modes[1] is None
        assert np.all(report.rank == 0)

    @pytest.mark.xfail(strict=True, reason="ROADMAP item B: the verdict reads "
                       "the uncertainty gap alone, not Kubo or positivity")
    def test_odd_force_noise_bump_is_a_violation(self):
        params = q.CavityParams(gamma=2.0, delta=0.5, gbar=1.0, theta=0.4)
        grid = q.make_symmetric_grid(5.0, 64)
        uns, susc = _engine_run(params, grid)
        omega = grid.points
        # odd in omega, so the symmetrized S_ff and the gap do not see it
        s_ff = uns.s_ff.values + 50.0 * np.exp(-omega ** 2) * np.sign(omega)
        doctored = q.SpectraSet(grid=grid, s_zz=uns.s_zz, s_zf=uns.s_zf,
                                s_ff=q.ComplexSpectrum(grid, s_ff),
                                symmetrized=False)
        report = q.constraint_report(doctored, susc)
        assert np.max(np.abs(report.kubo_residual)) > 49.0
        assert np.min(s_ff.real) < -48.0
        assert report.worst_verdict is q.Verdict.violation
