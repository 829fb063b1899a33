"""Worked examples: dispersive qubit readout and monitored mechanics."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

import qdetnoise as q

HBAR = 1.0

# Frozen one-off evaluation at gamma=1.5, delta=-0.8, theta=0.3, gbar=0.9.
FROZEN_GAMMA_MEAS = 0.8484973094944639
FROZEN_GAMMA_PHI = 1.6816608996539792
FROZEN_RATIO = 1.9819283819013118
FROZEN_THETA_OPT = 1.0808390005411683


class TestOptimalAngle:
    def test_zero_detuning_is_phase_quadrature(self):
        assert q.optimal_angle(2.0, 0.0) == pytest.approx(math.pi / 2)

    def test_balanced_case(self):
        assert q.optimal_angle(2.0, 2.0) == pytest.approx(-math.pi / 4)

    def test_zero_damping_limit(self):
        assert q.optimal_angle(0.0, 1.5) == 0.0

    def test_undefined_at_origin(self):
        with pytest.raises(ValueError):
            q.optimal_angle(0.0, 0.0)

    def test_zeroes_the_orthogonal_component(self):
        for gamma, delta in [(2.0, 1.0), (0.3, -2.2), (1.7, 0.4)]:
            theta = q.optimal_angle(gamma, delta)
            assert delta * math.sin(theta) + gamma * math.cos(theta) == (
                pytest.approx(0.0, abs=1e-15))


class TestQubitRates:
    def test_canonical_point(self, canonical_params):
        res = q.qubit_rates(canonical_params)
        assert res.gamma_meas == pytest.approx(2.0, rel=1e-12)
        assert res.gamma_phi == pytest.approx(2.0, rel=1e-12)
        assert res.ratio == pytest.approx(1.0, rel=1e-12)
        assert res.theta_opt == pytest.approx(math.pi / 2)

    @pytest.mark.parametrize("gamma", [1e-320, 1e-100])
    def test_underflowing_denominator_rejected(self, gamma):
        # (delta^2 + gamma^2)^2 underflows to zero: ValueError, not a bare
        # ZeroDivisionError from the division
        params = q.CavityParams(gamma=gamma, delta=0.0, gbar=1.0, theta=math.pi / 2)
        with pytest.raises(ValueError, match="out of range"):
            q.qubit_rates(params)

    def test_small_rates_stay_accurate(self):
        # 1e-8 is far above the underflow guard: gamma_meas = gamma_phi = 4/gamma
        params = q.CavityParams(gamma=1e-8, delta=0.0, gbar=1.0, theta=math.pi / 2)
        res = q.qubit_rates(params)
        assert res.gamma_meas == pytest.approx(4e8, rel=1e-14)
        assert res.gamma_phi == pytest.approx(4e8, rel=1e-14)

    def test_frozen_generic_point(self):
        params = q.CavityParams(gamma=1.5, delta=-0.8, gbar=0.9, theta=0.3)
        res = q.qubit_rates(params)
        assert res.gamma_meas == pytest.approx(FROZEN_GAMMA_MEAS, rel=1e-14)
        assert res.gamma_phi == pytest.approx(FROZEN_GAMMA_PHI, rel=1e-14)
        assert res.ratio == pytest.approx(FROZEN_RATIO, rel=1e-14)
        assert res.theta_opt == pytest.approx(FROZEN_THETA_OPT, rel=1e-14)

    def test_measurement_rate_is_squared_dc_gain(self):
        # cross-module identity: gamma_meas == |chi_zf(0)|^2
        params = q.CavityParams(gamma=1.1, delta=0.6, gbar=1.4, theta=-0.5)
        grid = q.FrequencyGrid(np.array([-1.0, 0.0, 1.0]))
        chi_zf = q.cavity_susceptibilities(params, grid).chi_zf.values[1]
        res = q.qubit_rates(params)
        assert res.gamma_meas == pytest.approx(abs(chi_zf) ** 2, rel=1e-12)

    def test_dephasing_rate_from_dc_force_noise(self):
        # gamma_phi == 2 * S_ff_sym(0) / hbar^2
        params = q.CavityParams(gamma=1.1, delta=0.6, gbar=1.4, theta=-0.5)
        grid = q.FrequencyGrid(np.array([-1.0, 0.0, 1.0]))
        s_ff = q.cavity_spectra(params, grid).s_ff.values[1].real
        res = q.qubit_rates(params)
        assert res.gamma_phi == pytest.approx(2.0 * s_ff / HBAR**2, rel=1e-12)

    def test_degenerate_angle_rejected(self):
        params = q.CavityParams(gamma=2.0, delta=0.0, gbar=1.0, theta=0.0)
        with pytest.raises(q.DegenerateReadoutError):
            q.qubit_rates(params)

    @given(gamma=st.floats(0.05, 5.0), delta=st.floats(-3.0, 3.0),
           theta=st.floats(-1.5, 1.5))
    def test_ratio_never_below_one(self, gamma, delta, theta):
        params = q.CavityParams(gamma=gamma, delta=delta, gbar=1.0, theta=theta)
        try:
            res = q.qubit_rates(params)
        except q.DegenerateReadoutError:
            assume(False)
        assert res.ratio >= 1.0

    @given(gamma=st.floats(0.05, 5.0), delta=st.floats(-3.0, 3.0))
    def test_optimal_angle_saturates(self, gamma, delta):
        theta = q.optimal_angle(gamma, delta)
        params = q.CavityParams(gamma=gamma, delta=delta, gbar=1.0, theta=theta)
        res = q.qubit_rates(params)
        assert res.ratio == pytest.approx(1.0, abs=1e-12)


class TestModifiedSusceptibility:
    def test_zero_force_response_gives_bare(self):
        osc = q.MechOscillator(omega_m=1.0, gamma_m=0.01, n_occupation=0.0)
        grid = q.make_symmetric_grid(3.0, 32)
        off = q.ComplexSpectrum(grid, np.zeros(grid.points.size, complex))
        dressed = q.modified_mech_susceptibility(osc, off)
        assert np.array_equal(dressed.values,
                              osc.bare_susceptibility(grid).values)

    def test_weak_coupling_shifts_little(self):
        osc = q.MechOscillator(omega_m=1.0, gamma_m=0.01, n_occupation=0.0)
        params = q.CavityParams(gamma=2.0, delta=0.5, gbar=1e-4, theta=0.0)
        grid = q.make_symmetric_grid(3.0, 32)
        chi_ff = q.cavity_susceptibilities(params, grid).chi_ff
        dressed = q.modified_mech_susceptibility(osc, chi_ff)
        bare = osc.bare_susceptibility(grid)
        assert np.max(np.abs(dressed.values - bare.values)) <= (
            1e-6 * np.max(np.abs(bare.values)))

    def test_pole_on_grid_rejected(self):
        osc = q.MechOscillator(omega_m=1.0, gamma_m=0.01, n_occupation=0.0)
        grid = q.FrequencyGrid(np.array([-0.5, 0.0, 0.5]))
        chi0 = osc.bare_susceptibility(grid).values
        forced = np.zeros(3, complex)
        forced[2] = 1.0 / chi0[2]  # denominator hits zero at omega=0.5
        with pytest.raises(q.OpticalSpringInstabilityError, match="0.5"):
            q.modified_mech_susceptibility(
                osc, q.ComplexSpectrum(grid, forced))

    @pytest.mark.parametrize("gap, blown", [(1e-11, False), (1e-13, True)])
    def test_pole_test_is_1e_12_of_the_loop(self, gap, blown):
        # |1 - chi0 chi_ff| = gap |chi0 chi_ff| at omega = 0.5
        osc = q.MechOscillator(omega_m=1.0, gamma_m=0.01, n_occupation=0.0)
        grid = q.FrequencyGrid(np.array([-0.5, 0.0, 0.5]))
        forced = np.zeros(3, complex)
        forced[2] = (1.0 - gap) / osc.bare_susceptibility(grid).values[2]
        chi_ff = q.ComplexSpectrum(grid, forced)
        if not blown:
            q.modified_mech_susceptibility(osc, chi_ff)
            return
        with pytest.raises(q.OpticalSpringInstabilityError, match="0.5"):
            q.modified_mech_susceptibility(osc, chi_ff)


class TestThermalForce:
    def test_resonance_value(self):
        n = 2.0
        osc = q.MechOscillator(omega_m=1.0, gamma_m=1e-3, mass=0.7,
                               n_occupation=n)
        grid = q.FrequencyGrid(np.array([-1.0, 0.0, 1.0]))
        vals = q.thermal_force_spectrum(osc, grid).values.real
        expect = HBAR * 0.7 * 1e-3 * 1.0 * (2 * n + 1)
        assert vals[2] == pytest.approx(expect, rel=1e-12)

    def test_ground_state_floor(self):
        osc = q.MechOscillator(omega_m=1.0, gamma_m=1e-3, n_occupation=0.0)
        grid = q.make_symmetric_grid(2.0, 16)
        vals = q.thermal_force_spectrum(osc, grid).values.real
        assert np.array_equal(vals, HBAR * 1e-3 * np.abs(grid.points))

    def test_even_in_frequency(self):
        # k_B T = 0.8 hbar omega_m
        osc = q.MechOscillator(omega_m=1.0, gamma_m=1e-3,
                               n_occupation=1.0 / math.expm1(1.0 / 0.8))
        grid = q.make_symmetric_grid(2.0, 16)
        vals = q.thermal_force_spectrum(osc, grid).values.real
        assert np.allclose(vals, vals[::-1], rtol=1e-13)

    def test_continuous_through_zero(self):
        osc = q.MechOscillator(omega_m=1.0, gamma_m=1e-3, n_occupation=2.0)
        k_b_t = osc.t_eff
        # straddle the series/exact switch at |x| = 1e-8
        grid = q.FrequencyGrid(np.array([-1e-7, -1e-9, 0.0, 1e-9, 1e-7]))
        vals = q.thermal_force_spectrum(osc, grid).values.real
        classical = 2.0 * k_b_t * 1.0 * 1e-3 / HBAR * HBAR
        assert vals[2] == pytest.approx(classical, rel=1e-12)
        assert np.allclose(vals, classical, rtol=1e-12)

    def test_classical_limit_grows_linearly_with_t(self):
        grid = q.FrequencyGrid(np.array([-1.0, 0.0, 1.0]))
        # k_B T = 500 and 1000 hbar omega_m
        hot = q.MechOscillator(omega_m=1.0, gamma_m=1e-3,
                               n_occupation=1.0 / math.expm1(1.0 / 500.0))
        hotter = q.MechOscillator(omega_m=1.0, gamma_m=1e-3,
                                  n_occupation=1.0 / math.expm1(1.0 / 1000.0))
        v1 = q.thermal_force_spectrum(hot, grid).values.real[2]
        v2 = q.thermal_force_spectrum(hotter, grid).values.real[2]
        assert v2 / v1 == pytest.approx(2.0, rel=1e-3)


class TestClosedLoopPoles:
    def test_decoupled_limit(self):
        params = q.CavityParams(gamma=2.0, delta=0.7, gbar=1e-9, theta=0.0)
        osc = q.MechOscillator(omega_m=1.0, gamma_m=1e-3, n_occupation=0.0)
        poles = np.sort_complex(q.closed_loop_poles(params, osc))
        w_free = math.sqrt(1.0 - 0.25e-6)
        expect = np.sort_complex(np.array([
            0.7 - 2j, -0.7 - 2j, w_free - 5e-4j, -w_free - 5e-4j]))
        assert np.max(np.abs(poles - expect)) <= 1e-9

    def test_mechanical_pole_carries_total_damping(self):
        params = q.CavityParams(gamma=0.05, delta=-1.0, gbar=1e-3, theta=0.0)
        osc = q.MechOscillator(omega_m=1.0, gamma_m=1e-4, n_occupation=0.0)
        poles = q.closed_loop_poles(params, osc)
        mech = poles[np.argmin(np.abs(poles - osc.omega_m))]
        gamma_opt = HBAR * params.gbar**2 / (params.gamma * osc.omega_m)
        assert mech.imag == pytest.approx(-(osc.gamma_m + gamma_opt) / 2,
                                          rel=1e-3)

    def test_all_poles_decay_when_stable(self):
        params = q.CavityParams(gamma=0.05, delta=1.0, gbar=1e-6, theta=0.0)
        osc = q.MechOscillator(omega_m=1.0, gamma_m=1e-4, n_occupation=0.0)
        assert np.all(q.closed_loop_poles(params, osc).imag < 0.0)

    @pytest.mark.parametrize("top, stable", [(-5e-10, True), (5e-10, False)])
    def test_instability_starts_at_im_zero(self, top, stable):
        # gbar bisected until the heating detuning's top pole has Im = top
        osc = q.MechOscillator(omega_m=1.0, gamma_m=1e-6, n_occupation=1.0)

        def blue(gbar):
            return q.CavityParams(gamma=0.05, delta=1.0, gbar=gbar, theta=0.0)

        lo, hi = 1e-6, 1e-2
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if np.max(q.closed_loop_poles(blue(mid), osc).imag) < top:
                lo = mid
            else:
                hi = mid
        params = blue(hi)
        assert np.max(q.closed_loop_poles(params, osc).imag) == pytest.approx(
            top, rel=1e-2)
        grid = q.make_symmetric_grid(2.0, 64)
        if stable:
            q.sideband_asymmetry(params, osc, grid)
            return
        with pytest.raises(q.OpticalSpringInstabilityError, match="does not decay"):
            q.sideband_asymmetry(params, osc, grid)


class TestTotalOutputSpectrum:
    def test_blue_antidamping_instability(self):
        # gamma_opt = 2e-3 >> gamma_m on the heating detuning
        params = q.CavityParams(gamma=0.05, delta=1.0, gbar=1e-2, theta=0.0)
        osc = q.MechOscillator(omega_m=1.0, gamma_m=1e-6, n_occupation=1.0)
        grid = q.make_symmetric_grid(2.0, 64)
        with pytest.raises(q.OpticalSpringInstabilityError):
            q.sideband_asymmetry(params, osc, grid)

    def test_units_must_agree(self):
        # every public function that mixes the two models' hbar refuses
        params = q.CavityParams(gamma=0.05, delta=-1.0, gbar=1e-5, theta=0.0,
                                units=q.UnitConvention(hbar=2.0))
        osc = q.MechOscillator(omega_m=1.0, gamma_m=1e-6, n_occupation=1.0)
        grid = q.make_symmetric_grid(2.0, 64)
        message = "different unit conventions"
        with pytest.raises(ValueError, match=message):
            q.sideband_asymmetry(params, osc, grid)
        with pytest.raises(ValueError, match=message):
            q.closed_loop_poles(params, osc)
        with pytest.raises(ValueError, match=message):
            q.asymmetry_grid(params, osc)
        # a window the cavity's hbar alone would call too narrow: the units
        # are checked before the coverage
        params = q.CavityParams(0.01, -1.0, 0.05, 0.3, units=q.UnitConvention(2.0))
        osc = q.MechOscillator(1.0, 1e-3, n_occupation=1.0)
        grid = q.FrequencyGrid(np.linspace(0.9, 1.1, 201))
        with pytest.raises(ValueError, match=message):
            q.sideband_asymmetry(params, osc, grid)

    def test_motional_peak_stands_on_the_floor(self):
        params = q.CavityParams(gamma=0.05, delta=-1.0, gbar=7e-6, theta=0.0)
        osc = q.MechOscillator(omega_m=1.0, gamma_m=1e-6, n_occupation=2.0)
        grid = q.asymmetry_grid(params, osc)
        total = q.sideband_asymmetry(params, osc, grid).spectrum_red.values.real
        susc = q.cavity_susceptibilities(params, grid)
        floor = q.normalize(q.cavity_spectra(params, grid),
                            susc).imprecision.values.real
        peak = total - floor
        mid = peak.size // 2
        assert peak[mid] > 1e3 * peak[0] > 0.0


class TestSidebandAsymmetry:
    def _setup(self, n_occ):
        params = q.CavityParams(gamma=0.05, delta=0.0, gbar=7e-6, theta=0.0)
        osc = q.MechOscillator(omega_m=1.0, gamma_m=1e-6, mass=1.0,
                               n_occupation=n_occ)
        return params, osc, q.asymmetry_grid(params, osc)

    def test_occupation_two_reads_three_halves(self):
        params, osc, grid = self._setup(2.0)
        res = q.sideband_asymmetry(params, osc, grid)
        assert res.ratio == pytest.approx(1.5, rel=1e-2)

    def test_areas_match_zero_point_calibration(self):
        # weights n and n+1 in units of pi*hbar/(m*omega_m); the window
        # truncates the Lorentzian tails at the ~1% level
        params, osc, grid = self._setup(2.0)
        res = q.sideband_asymmetry(params, osc, grid)
        unit = math.pi * HBAR / (osc.mass * osc.omega_m)
        assert res.area_red == pytest.approx(2.0 * unit, rel=2e-2)
        assert res.area_blue == pytest.approx(3.0 * unit, rel=2e-2)

    def test_areas_are_each_drives_trapezoid_to_the_bit(self):
        # each drive rebuilt from public calls: the imprecision floor, and
        # the trapezoid of the spectrum above it over the grid
        params, osc, grid = self._setup(2.0)
        params = replace(params, theta=0.3)
        res = q.sideband_asymmetry(params, osc, grid)
        areas = []
        for delta, spectrum in ((-osc.omega_m, res.spectrum_red),
                                (osc.omega_m, res.spectrum_blue)):
            p = replace(params, delta=delta)
            floor = q.normalize(q.cavity_spectra(p, grid),
                                q.cavity_susceptibilities(p, grid)).imprecision.values.real
            peak = spectrum.values.real - floor
            areas.append(float(np.sum(np.diff(grid.points)
                                      * (peak[1:] + peak[:-1]) / 2.0)))
        assert res.area_red == areas[0]
        assert res.area_blue == areas[1]
        assert res.ratio == res.area_blue / res.area_red

    def test_ratio_tracks_damping_corrected_form(self):
        params, osc, grid = self._setup(2.0)
        res = q.sideband_asymmetry(params, osc, grid)
        gamma_opt = HBAR * params.gbar**2 / (params.gamma * osc.omega_m)
        refined = (3.0 / 2.0) * (osc.gamma_m + gamma_opt) / (
            osc.gamma_m - gamma_opt)
        assert res.ratio == pytest.approx(refined, rel=1e-4)

    def test_ground_state_ratio_is_infinite(self):
        params, osc, grid = self._setup(0.0)
        res = q.sideband_asymmetry(params, osc, grid)
        assert math.isinf(res.ratio)
        assert res.area_blue > 0.0

    def test_narrow_grid_rejected(self):
        params, osc, _ = self._setup(2.0)
        with pytest.raises(q.GridMismatchError, match="linewidth"):
            q.sideband_asymmetry(params, osc, q.make_symmetric_grid(0.5, 8))

    def test_unresolved_sidebands_warn(self):
        params = q.CavityParams(gamma=0.2, delta=0.0, gbar=7e-6, theta=0.0)
        osc = q.MechOscillator(omega_m=1.0, gamma_m=1e-6, n_occupation=1.0)
        grid = q.asymmetry_grid(params, osc)
        with pytest.warns(UserWarning, match="overlap"):
            q.sideband_asymmetry(params, osc, grid)

    def test_result_keeps_both_spectra(self):
        params, osc, grid = self._setup(1.0)
        res = q.sideband_asymmetry(params, osc, grid)
        assert res.spectrum_red.grid is grid
        assert res.spectrum_blue.grid is grid
        assert not np.array_equal(res.spectrum_red.values,
                                  res.spectrum_blue.values)


class TestAsymmetryGrid:
    def test_centered_on_resonance(self):
        params = q.CavityParams(gamma=0.05, delta=-1.0, gbar=7e-6, theta=0.0)
        osc = q.MechOscillator(omega_m=1.0, gamma_m=1e-6, n_occupation=1.0)
        grid = q.asymmetry_grid(params, osc, window_points=101)
        pts = grid.points
        assert pts.size == 101
        assert (pts[0] + pts[-1]) / 2 == pytest.approx(osc.omega_m, rel=1e-12)

    def test_width_scales_with_linewidth(self):
        params = q.CavityParams(gamma=0.05, delta=-1.0, gbar=7e-6, theta=0.0)
        osc = q.MechOscillator(omega_m=1.0, gamma_m=1e-6, n_occupation=1.0)
        narrow = q.asymmetry_grid(params, osc, window_halfwidth=10.0)
        wide = q.asymmetry_grid(params, osc, window_halfwidth=40.0)
        ratio = (wide.points[-1] - wide.points[0]) / (
            narrow.points[-1] - narrow.points[0])
        assert ratio == pytest.approx(4.0, rel=1e-12)

    def test_rejects_nonpositive_width(self):
        params = q.CavityParams(gamma=0.05, delta=-1.0, gbar=7e-6, theta=0.0)
        osc = q.MechOscillator(omega_m=1.0, gamma_m=1e-6, n_occupation=1.0)
        with pytest.raises(ValueError):
            q.asymmetry_grid(params, osc, window_halfwidth=0.0)

    @pytest.mark.parametrize("kwargs,name", [
        ({"window_points": 1}, "window_points"),
        ({"window_points": 2.7}, "window_points"),  # not a whole number of points
        ({"window_halfwidth": math.nan}, "window_halfwidth"),
    ])
    def test_names_the_bad_argument(self, kwargs, name):
        params = q.CavityParams(gamma=0.05, delta=-1.0, gbar=7e-6, theta=0.0)
        osc = q.MechOscillator(omega_m=1.0, gamma_m=1e-6, n_occupation=1.0)
        with pytest.raises(ValueError, match=name):
            q.asymmetry_grid(params, osc, **kwargs)
