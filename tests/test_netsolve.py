"""State-space engine: network construction, solving, spectra, symmetrizing."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import qdetnoise as q
from conftest import draw_cavity

HBAR = 1.0


def _random_stable_network(rng: np.random.Generator, n_modes: int = 2,
                           n_lines: int = 2) -> q.LinearNetwork:
    """Generic (not passive) stable network with mode-quadrature observables."""
    a = rng.normal(size=(n_modes, n_modes)) + 1j * rng.normal(size=(n_modes, n_modes))
    a -= (np.max(a.real.diagonal()) + 1.0 + np.max(np.abs(a))) * np.eye(n_modes)
    b = rng.normal(size=(n_modes, n_lines)) + 1j * rng.normal(size=(n_modes, n_lines))
    c = rng.normal(size=(n_lines, n_modes)) + 1j * rng.normal(size=(n_lines, n_modes))
    d = np.eye(n_lines, dtype=complex)
    force = q.Observable(mode_quad=rng.normal(size=2 * n_modes),
                         output_quad=np.zeros(2 * n_lines))
    readout = q.Observable(mode_quad=np.zeros(2 * n_modes),
                           output_quad=rng.normal(size=2 * n_lines))
    return q.LinearNetwork(drift=a, input_coupling=b, output_coupling=c,
                           feedthrough=d, force=force, readout=readout)


class TestObservable:
    def test_mode_annihilation_coefficients(self):
        gbar = 1.3
        obs = q.Observable(mode_quad=np.array([np.sqrt(2.0) * HBAR * gbar, 0.0]),
                           output_quad=np.zeros(2))
        assert obs.alpha[0] == pytest.approx(HBAR * gbar)

    def test_output_quadrature_coefficients(self):
        theta = 0.7
        obs = q.Observable(mode_quad=np.zeros(2),
                           output_quad=np.array([np.cos(theta), np.sin(theta)]))
        assert obs.mu[0] == pytest.approx(np.exp(-1j * theta) / np.sqrt(2.0))

    def test_rejects_odd_length(self):
        with pytest.raises(ValueError):
            q.Observable(mode_quad=np.zeros(3), output_quad=np.zeros(2))


class TestNetworkConstruction:
    def test_one_sided_cavity_drift(self, canonical_params):
        net = q.build_one_sided_cavity(canonical_params)
        assert net.drift[0, 0] == pytest.approx(-2.0)
        assert net.n_modes == 1 and net.n_lines == 1

    def test_one_sided_cavity_drift_with_detuning(self):
        params = q.CavityParams(gamma=1.5, delta=0.4, gbar=1.0)
        net = q.build_one_sided_cavity(params)
        assert net.drift[0, 0] == pytest.approx(-1.5 + 0.4j)

    def test_passive_network_flux_balance(self):
        rng = np.random.default_rng(3)
        h = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        coupling = rng.normal(size=(2, 3)) + 1j * rng.normal(size=(2, 3))
        net = q.passive_network(
            hamiltonian=h, coupling=coupling,
            force=q.Observable(mode_quad=np.array([1.0, 0, 0, 0, 0, 0]),
                               output_quad=np.zeros(4)),
            readout=q.Observable(mode_quad=np.zeros(6),
                                 output_quad=np.array([1.0, 0, 0, 0])))
        balance = net.drift + net.drift.conj().T + \
            net.input_coupling @ net.input_coupling.conj().T
        scale = np.max(np.abs(net.drift))
        assert np.max(np.abs(balance)) <= 1e-14 * scale
        # the flux balance is what makes the readout commutator vanish exactly,
        # also for dense force (mode) and readout (output) observables
        grid = q.make_symmetric_grid(2.0, 8)
        susc = q.solve_susceptibilities(net, grid)
        assert np.all(susc.chi_zz.values == 0.0)
        assert np.all(susc.chi_fz.values == 0.0)
        for n_modes, n_lines in ((4, 2), (16, 3)):
            for _ in range(80):
                shape = (n_modes, n_modes)
                h = rng.normal(size=shape) + 1j * rng.normal(size=shape)
                shape = (n_lines, n_modes)
                coupling = rng.normal(size=shape) + 1j * rng.normal(size=shape)
                net = q.passive_network(
                    hamiltonian=h, coupling=coupling,
                    force=q.Observable(mode_quad=rng.normal(size=2 * n_modes),
                                       output_quad=np.zeros(2 * n_lines)),
                    readout=q.Observable(mode_quad=np.zeros(2 * n_modes),
                                         output_quad=rng.normal(size=2 * n_lines)))
                susc = q.solve_susceptibilities(net, grid)
                assert np.all(susc.chi_zz.values == 0.0), (n_modes, n_lines)
                assert np.all(susc.chi_fz.values == 0.0), (n_modes, n_lines)

    def test_unstable_drift_rejected(self):
        with pytest.raises(q.StabilityError):
            q.LinearNetwork(
                drift=np.array([[0.1 + 1j]]),
                input_coupling=np.array([[1.0]]),
                output_coupling=np.array([[1.0]]),
                feedthrough=np.eye(1, dtype=complex),
                force=q.Observable(mode_quad=np.array([1.0, 0.0]),
                                   output_quad=np.zeros(2)),
                readout=q.Observable(mode_quad=np.zeros(2),
                                     output_quad=np.array([1.0, 0.0])))

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            q.LinearNetwork(
                drift=-np.eye(2, dtype=complex),
                input_coupling=np.ones((1, 1), dtype=complex),
                output_coupling=np.ones((1, 2), dtype=complex),
                feedthrough=np.eye(1, dtype=complex),
                force=q.Observable(mode_quad=np.zeros(4),
                                   output_quad=np.zeros(2)),
                readout=q.Observable(mode_quad=np.zeros(4),
                                     output_quad=np.zeros(2)))


class TestEngineAgainstClosedForms:
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_susceptibilities_match(self, seed):
        rng = np.random.default_rng(seed)
        params = draw_cavity(rng)
        grid = q.make_symmetric_grid(4.0, 16)
        closed = q.cavity_susceptibilities(params, grid)
        engine = q.solve_susceptibilities(q.build_one_sided_cavity(params), grid)
        for a, b in ((closed.chi_zf, engine.chi_zf), (closed.chi_ff, engine.chi_ff)):
            scale = np.max(np.abs(a.values)) + 1e-30
            assert np.max(np.abs(a.values - b.values)) <= 1e-11 * scale

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_symmetrized_spectra_match(self, seed):
        rng = np.random.default_rng(seed)
        params = draw_cavity(rng)
        grid = q.make_symmetric_grid(4.0, 16)
        closed = q.cavity_spectra(params, grid)
        net = q.build_one_sided_cavity(params)
        engine = q.symmetrize(q.solve_unsym_spectra(net, grid))
        for a, b in ((closed.s_zz, engine.s_zz), (closed.s_zf, engine.s_zf),
                     (closed.s_ff, engine.s_ff)):
            scale = np.max(np.abs(a.values)) + 1e-30
            assert np.max(np.abs(a.values - b.values)) <= 1e-11 * scale

    def test_unsymmetrized_spectra_match(self, generic_params, grid129):
        closed = q.cavity_unsym_spectra(generic_params, grid129)
        net = q.build_one_sided_cavity(generic_params)
        engine = q.solve_unsym_spectra(net, grid129)
        for a, b in ((closed.s_zz, engine.s_zz), (closed.s_zf, engine.s_zf),
                     (closed.s_ff, engine.s_ff)):
            assert np.allclose(a.values, b.values, rtol=1e-11, atol=1e-13)


class TestInputStates:
    def test_susceptibilities_are_state_independent(self, generic_params, grid129):
        states = [q.InputState.vacuum(), q.InputState.thermal(2.0),
                  q.InputState.squeezed(0.8 * np.exp(0.3j))]
        results = []
        for state in states:
            net = q.build_one_sided_cavity(generic_params, input_state=state)
            results.append(q.solve_susceptibilities(net, grid129))
        for later in results[1:]:
            assert np.allclose(results[0].chi_zf.values, later.chi_zf.values,
                               rtol=1e-12, atol=1e-14)
            assert np.allclose(results[0].chi_ff.values, later.chi_ff.values,
                               rtol=1e-12, atol=1e-14)

    @pytest.mark.parametrize("n_th", [0.5, 1.0, 2.0])
    def test_thermal_input_scales_autos(self, generic_params, grid129, n_th):
        vac = q.symmetrize(q.solve_unsym_spectra(
            q.build_one_sided_cavity(generic_params), grid129))
        hot = q.symmetrize(q.solve_unsym_spectra(
            q.build_one_sided_cavity(generic_params,
                                     input_state=q.InputState.thermal(n_th)),
            grid129))
        factor = 2.0 * n_th + 1.0
        assert np.allclose(hot.s_ff.values.real, factor * vac.s_ff.values.real,
                           rtol=1e-10)
        assert np.allclose(hot.s_zz.values.real, factor * vac.s_zz.values.real,
                           rtol=1e-10)

    def test_squeezed_input_redistributes_readout_noise(self, grid129):
        # squeezing along the measured quadrature must push S_zz_sym below
        # vacuum at large |omega| where the cavity reflects the input directly
        params = q.CavityParams(gamma=0.3, delta=0.0, gbar=1.0, theta=0.0)
        r = 0.8
        spectra = {}
        for tag, phi in (("squeezed", np.pi), ("antisqueezed", 0.0)):
            net = q.build_one_sided_cavity(
                params, input_state=q.InputState.squeezed(r * np.exp(1j * phi)))
            spectra[tag] = q.symmetrize(q.solve_unsym_spectra(net, grid129))
        edge = -1  # omega = 4, far outside the linewidth
        low = spectra["squeezed"].s_zz.values[edge].real
        high = spectra["antisqueezed"].s_zz.values[edge].real
        assert low < 0.5 < high
        assert low * high == pytest.approx(0.25, rel=1e-2)

    @pytest.mark.parametrize("solve", [q.solve_unsym_spectra,
                                       q.solve_susceptibilities],
                             ids=lambda solve: solve.__name__)
    def test_spectra_require_symmetric_grid(self, generic_params, solve):
        grid = q.FrequencyGrid(np.array([0.0, 1.0, 2.0]))
        net = q.build_one_sided_cavity(generic_params)
        with pytest.raises(q.GridMismatchError):
            solve(net, grid)


class TestSymmetrize:
    def test_idempotent(self, generic_params, grid129):
        once = q.symmetrize(q.cavity_unsym_spectra(generic_params, grid129))
        twice = q.symmetrize(once)
        for a, b in ((once.s_zz, twice.s_zz), (once.s_zf, twice.s_zf),
                     (once.s_ff, twice.s_ff)):
            assert np.allclose(a.values, b.values, rtol=1e-14, atol=1e-16)

    def test_definition(self, generic_params, grid129):
        uns = q.cavity_unsym_spectra(generic_params, grid129)
        sym = q.symmetrize(uns)
        # for an auto spectrum: [S(omega) + S(-omega)]/2
        expected = 0.5 * (uns.s_ff.values + uns.s_ff.values[::-1])
        assert np.allclose(sym.s_ff.values, expected, rtol=1e-14)


class TestKubo:
    def test_cavity_residual_vanishes(self, generic_params, grid129):
        net = q.build_one_sided_cavity(generic_params)
        susc = q.solve_susceptibilities(net, grid129)
        uns = q.solve_unsym_spectra(net, grid129)
        residual = q.kubo_check(uns.s_ff, susc.chi_ff)
        scale = np.max(np.abs(susc.chi_ff.values.imag)) + 1e-30
        assert np.max(np.abs(residual.values)) <= 1e-12 * scale

    @pytest.mark.parametrize("state", [q.InputState.thermal(1.7),
                                       q.InputState.squeezed(0.6)])
    def test_residual_is_state_independent(self, generic_params, grid129, state):
        net = q.build_one_sided_cavity(generic_params, input_state=state)
        susc = q.solve_susceptibilities(net, grid129)
        uns = q.solve_unsym_spectra(net, grid129)
        residual = q.kubo_check(uns.s_ff, susc.chi_ff)
        scale = np.max(np.abs(susc.chi_ff.values.imag)) + 1e-30
        assert np.max(np.abs(residual.values)) <= 1e-11 * scale

    def test_random_two_mode_network(self):
        rng = np.random.default_rng(42)
        net = _random_stable_network(rng)
        grid = q.make_symmetric_grid(5.0, 32)
        susc = q.solve_susceptibilities(net, grid)
        uns = q.solve_unsym_spectra(net, grid)
        residual = q.kubo_check(uns.s_ff, susc.chi_ff)
        scale = np.max(np.abs(susc.chi_ff.values.imag)) + 1e-30
        assert np.max(np.abs(residual.values)) <= 1e-10 * scale

    def test_mismatched_response_is_caught(self, generic_params, grid129):
        net = q.build_one_sided_cavity(generic_params)
        susc = q.solve_susceptibilities(net, grid129)
        uns = q.solve_unsym_spectra(net, grid129)
        wrong = q.ComplexSpectrum(grid129, 2.0 * susc.chi_ff.values)
        residual = q.kubo_check(uns.s_ff, wrong)
        scale = np.max(np.abs(susc.chi_ff.values.imag))
        assert np.max(np.abs(residual.values)) > 0.5 * scale
