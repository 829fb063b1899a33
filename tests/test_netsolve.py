"""State-space engine: network construction, solving, spectra, symmetrizing."""

import dataclasses
import itertools
import tracemalloc

import mpmath
import numpy as np
import pytest
import scipy.linalg
from hypothesis import given
from hypothesis import strategies as st

import qdetnoise as q
from conftest import HBARS, draw_cavity, exceptional_pair, gap_scale
from qdetnoise import netsolve

HBAR = 1.0


def _random_stable_network(rng: np.random.Generator, n_modes: int = 2,
                           n_lines: int = 2,
                           units: q.UnitConvention = q.UnitConvention()
                           ) -> q.LinearNetwork:
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
                           feedthrough=d, force=force, readout=readout,
                           units=units)


def _near_exceptional_network(n_modes: int, t: float,
                              rng: np.random.Generator) -> q.LinearNetwork:
    """Drift -I + (cyclic shift with corner t): a Jordan block at t = 0.

    Its eigenvalues are -1 + t**(1/n) e^{2 pi i k/n}, and cond(V) grows as
    t**(-(n-1)/n) as they merge.
    """
    a = -np.eye(n_modes) + np.eye(n_modes, k=1)
    a[-1, 0] = t
    shape = (n_modes, 2)
    b = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    c = rng.normal(size=shape[::-1]) + 1j * rng.normal(size=shape[::-1])
    return q.LinearNetwork(
        drift=a, input_coupling=b, output_coupling=c,
        feedthrough=np.eye(2, dtype=complex),
        force=q.Observable(mode_quad=rng.normal(size=2 * n_modes),
                           output_quad=np.zeros(4)),
        readout=q.Observable(mode_quad=np.zeros(2 * n_modes),
                             output_quad=rng.normal(size=4)))


def _batched_rows(net: q.LinearNetwork, rhs: np.ndarray,
                  grid: q.FrequencyGrid) -> tuple[np.ndarray, np.ndarray]:
    """Reference resolvent: np.linalg.solve at every grid point, in one batch."""
    w = grid.points
    lhs = (-1j * w)[:, None, None] * np.eye(net.n_modes) - net.drift[None, :, :]
    r_rhs = np.linalg.solve(lhs, np.broadcast_to(rhs, (w.size,) + rhs.shape))
    return tuple(np.einsum("n,knm->km", net._effective_mode_row(obs), r_rhs)
                 for obs in (net.readout, net.force))


def _engine_outputs(net: q.LinearNetwork, grid: q.FrequencyGrid) -> dict:
    susc = q.solve_susceptibilities(net, grid)
    spectra = q.solve_unsym_spectra(net, grid)
    return {name: getattr(result, name).values
            for result, names in ((susc, ("chi_zf", "chi_ff", "chi_zz", "chi_fz")),
                                  (spectra, ("s_zz", "s_zf", "s_ff")))
            for name in names}


def _deviation_from_batched_solve(net: q.LinearNetwork, grid: q.FrequencyGrid,
                                  monkeypatch: pytest.MonkeyPatch) -> float:
    """Largest relative deviation of any engine output from the reference."""
    got = _engine_outputs(net, grid)
    with monkeypatch.context() as patch:
        patch.setattr(netsolve, "_observable_rows", _batched_rows)
        ref = _engine_outputs(net, grid)
    return max(np.max(np.abs(got[name] - ref[name]))
               / max(np.max(np.abs(ref[name])), 1e-300) for name in got)


def _scipy_gramian(net: q.LinearNetwork) -> np.ndarray:
    """Reference Gramian: scipy's Bartels-Stewart solve, refined once."""
    a, b = net.drift, net.input_coupling
    bb = b @ b.conj().T
    m = scipy.linalg.solve_continuous_lyapunov(a, -bb)
    m = m - scipy.linalg.solve_continuous_lyapunov(a, a @ m + m @ a.conj().T + bb)
    return 0.5 * (m + m.conj().T)


def _exact_gramian(net: q.LinearNetwork) -> np.ndarray:
    """Reference Gramian: the vectorised Lyapunov equation, column-major vec,
    solved with 40 significant digits."""
    n = net.n_modes
    with mpmath.workdps(40):
        a = mpmath.matrix(net.drift.tolist())
        b = mpmath.matrix(net.input_coupling.tolist())
        bb = b * b.H
        lhs = mpmath.zeros(n * n)
        for i, j, k in itertools.product(range(n), repeat=3):
            lhs[i + j * n, k + j * n] += a[i, k]  # (A M)_ij
            lhs[i + j * n, i + k * n] += mpmath.conj(a[j, k])  # (M A^dag)_ij
        vec_m = mpmath.lu_solve(lhs, [-bb[i, j] for j in range(n) for i in range(n)])
        return np.array([[complex(vec_m[i + j * n]) for j in range(n)]
                         for i in range(n)])


def _exact_rows(net: q.LinearNetwork, grid: q.FrequencyGrid) -> np.ndarray:
    """Reference transfer rows (alpha_O + C^T mu_O)^T (-i omega - A)^{-1} B,
    solved with 50 significant digits: shape (2, points, lines), readout
    first, as ``netsolve._observable_rows`` returns them."""
    with mpmath.workdps(50):
        a = mpmath.matrix(net.drift.tolist())
        b = mpmath.matrix(net.input_coupling.tolist())
        c_t = mpmath.matrix(net.output_coupling.T.tolist())
        eye = mpmath.eye(net.n_modes)
        rows = []
        for obs in (net.readout, net.force):
            row = (mpmath.matrix(obs.alpha.tolist())
                   + c_t * mpmath.matrix(obs.mu.tolist())).T
            rows.append([row * mpmath.inverse(mpmath.mpc(0, -w) * eye - a) * b
                         for w in grid.points])
        return np.array([[[complex(x) for x in r] for r in per_point]
                         for per_point in rows])


def _relative_error(got: np.ndarray, ref: np.ndarray) -> float:
    return np.max(np.abs(got - ref)) / np.max(np.abs(ref))


def _symmetric_grid(size: int) -> q.FrequencyGrid:
    """Symmetric grid of any size: with omega = 0 when odd, without when even."""
    if size % 2:
        return q.make_symmetric_grid(5.0, size // 2)
    pos = np.linspace(0.05, 5.0, size // 2)
    return q.FrequencyGrid(np.concatenate([-pos[::-1], pos]))


def _passive_test_network(n_modes: int, rng: np.random.Generator,
                          state: q.InputState) -> q.LinearNetwork:
    shape = (n_modes, n_modes)
    h = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    shape = (2, n_modes)
    coupling = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    return q.passive_network(
        hamiltonian=h, coupling=coupling,
        force=q.Observable(mode_quad=rng.normal(size=2 * n_modes),
                           output_quad=np.zeros(4)),
        readout=q.Observable(mode_quad=np.zeros(2 * n_modes),
                             output_quad=rng.normal(size=4)),
        input_state=state)


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

    @pytest.mark.parametrize("name", ["alpha", "mu"])
    def test_coefficients_are_computed_once_and_read_only(self, name):
        obs = q.Observable(mode_quad=[0.3, -1.2], output_quad=[0.8, 0.1, -0.4, 2.0])
        first = getattr(obs, name)
        assert getattr(obs, name) is first
        assert not first.flags.writeable
        with pytest.raises(ValueError):
            first[0] = 0.0


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

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("field", ["drift", "input_coupling",
                                       "output_coupling", "feedthrough"])
    def test_non_finite_matrix_rejected(self, field, bad):
        net = _random_stable_network(np.random.default_rng(2))
        matrix = np.array(getattr(net, field))
        matrix[0, -1] = bad
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            dataclasses.replace(net, **{field: matrix})

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("field", ["mode_quad", "output_quad"])
    def test_non_finite_quadratures_rejected(self, field, bad):
        quads = {"mode_quad": np.zeros(2), "output_quad": np.zeros(2)}
        quads[field][1] = bad
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            q.Observable(**quads)

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


    @pytest.mark.parametrize("change, message", [
        ({"drift": np.full((1, 1, 1), -1.0)}, "drift must be a matrix"),
        ({"drift": [[-1.0, 0.0]]}, "drift must be square"),
        ({"force": q.Observable(mode_quad=np.zeros(4), output_quad=np.zeros(2))},
         "force observable does not match the network size"),
        ({"readout": q.Observable(mode_quad=np.zeros(2), output_quad=np.zeros(4))},
         "readout observable does not match the network size"),
        ({"input_states": (q.InputState.vacuum(),) * 2},
         "need one input state per line, got 2"),
    ])
    def test_inconsistent_sizes_are_named(self, generic_params, change, message):
        net = q.build_one_sided_cavity(generic_params)
        with pytest.raises(ValueError, match=message):
            dataclasses.replace(net, **change)


class TestResolventPaths:
    """Eigen-decomposition resolvent against one solve per grid point."""

    @pytest.mark.parametrize("n_modes", [2, 4])
    def test_defective_drift_takes_the_fallback(self, n_modes, grid129, monkeypatch):
        # V of a Jordan block is numerically singular: the eigen path would be
        # off by O(1) or more, so 1e-12 agreement means the batched solve ran
        net = _near_exceptional_network(n_modes, 0.0, np.random.default_rng(5))
        assert net._modes[1] is None
        assert _deviation_from_batched_solve(net, grid129, monkeypatch) <= 1e-12

    @pytest.mark.parametrize("n_modes", [2, 4])
    def test_near_exceptional_drifts(self, n_modes, grid129, monkeypatch):
        paths = set()
        for t in 10.0 ** -np.arange(2, 15):
            net = _near_exceptional_network(n_modes, t, np.random.default_rng(5))
            paths.add(net._modes[1] is None)
            deviation = _deviation_from_batched_solve(net, grid129, monkeypatch)
            assert deviation <= 1e-9, t
        assert paths == {False, True}  # both sides of the cond(V) threshold

    @pytest.mark.parametrize("theta", [0.0, 0.7])
    def test_exceptional_pair_is_quantum_limited(self, theta):
        # the audit judges each frequency against its own scale, far below
        # the column's peak: up to cond(V) = 1.4e5 the eigen path read
        # 2e-9 of it for vacuum, and a squeezed line 3.4 times that
        grid = q.make_symmetric_grid(2.0, 200)
        for eps in 10.0 ** -np.arange(2, 14):
            for state in (q.InputState.vacuum(), q.InputState(0.0, 1.0, 0.3)):
                net = exceptional_pair(eps, theta, state)
                spectra = q.solve_unsym_spectra(net, grid)
                susc = q.solve_susceptibilities(net, grid)
                report = q.constraint_report(spectra, susc)
                assert all(v is q.Verdict.quantum_limited
                           for v in report.verdicts), (eps, state)
                if state.kind == "vacuum":
                    assert (np.max(np.abs(report.uncertainty_gap)
                                   / gap_scale(spectra, susc)) <= 1e-12), eps

    def test_repeated_eigenvalues(self, grid129, monkeypatch):
        # two identical uncoupled modes: a degenerate but diagonalisable drift
        net = q.passive_network(
            hamiltonian=np.diag([0.7, 0.7]), coupling=np.diag([1.2, 1.2]),
            force=q.Observable(mode_quad=[1.0, 0.0, 0.5, 0.0],
                               output_quad=np.zeros(4)),
            readout=q.Observable(mode_quad=np.zeros(4),
                                 output_quad=[0.3, 1.0, 0.8, -0.2]),
            input_state=q.InputState.thermal(0.5))
        assert net._modes[1] is not None
        assert _deviation_from_batched_solve(net, grid129, monkeypatch) <= 1e-12

    def test_non_normal_network(self, grid129, monkeypatch):
        net = _random_stable_network(np.random.default_rng(11), n_modes=4)
        assert not np.allclose(net._gramian, np.eye(4))
        assert net._modes[1] is not None
        assert _deviation_from_batched_solve(net, grid129, monkeypatch) <= 1e-11

    def test_sixteen_mode_passive_network(self, grid129, monkeypatch):
        rng = np.random.default_rng(12)
        shape = (16, 16)
        h = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        shape = (3, 16)
        coupling = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        net = q.passive_network(
            hamiltonian=h, coupling=coupling,
            force=q.Observable(mode_quad=rng.normal(size=32),
                               output_quad=np.zeros(6)),
            readout=q.Observable(mode_quad=np.zeros(32),
                                 output_quad=rng.normal(size=6)),
            input_state=q.InputState.squeezed(0.4 + 0.2j))
        assert net._modes[1] is not None
        assert _deviation_from_batched_solve(net, grid129, monkeypatch) <= 1e-11


class TestGramianPaths:
    """Dense Lyapunov solve against a 40-digit solve and Bartels-Stewart."""

    @pytest.mark.parametrize("n_modes", [1, 4, 16])
    def test_random_non_normal_networks(self, n_modes):
        rng = np.random.default_rng(20 + n_modes)
        reference = _exact_gramian if n_modes <= 4 else _scipy_gramian
        for _ in range(5):
            net = _random_stable_network(rng, n_modes=n_modes)
            ref = reference(net)
            assert not np.allclose(ref, np.eye(n_modes))
            assert _relative_error(net._gramian, ref) <= 1e-12

    @pytest.mark.parametrize("n_modes", [2, 4])
    def test_near_exceptional_drifts(self, n_modes):
        # cond(V) runs from 10 to 3e10 over t > 0; t = 0 is a Jordan block
        for t in [*10.0 ** -np.arange(2, 15), 0.0]:
            net = _near_exceptional_network(n_modes, t, np.random.default_rng(5))
            assert _relative_error(net._gramian, _exact_gramian(net)) <= 1e-12, t

    @pytest.mark.parametrize("n_modes", [1, 4, 16])
    def test_mode_condition_threshold_leaves_the_gramian(self, n_modes, monkeypatch):
        m = _random_stable_network(np.random.default_rng(n_modes), n_modes)._gramian
        monkeypatch.setattr(netsolve, "_MAX_MODE_COND", 0.0)
        net = _random_stable_network(np.random.default_rng(n_modes), n_modes)
        assert net._modes[1] is None
        assert np.array_equal(net._gramian, m)

    def test_refined_gramian_snaps_to_the_identity(self, generic_params):
        # a residual of 2e-12 misses the short-circuit, and the solve lands
        # within 1e-12 of the identity
        net = q.build_one_sided_cavity(generic_params)
        net = dataclasses.replace(net, drift=net.drift - 1e-12)
        assert np.array_equal(net._gramian, np.eye(1))

    def test_rate_scale_leaves_every_array_but_a_power_of_two(self):
        # rates times s = 4^k, couplings times 2^k and the force times s: the
        # Gramian is unchanged and each array gains 2^(k * power). A unit
        # floor in the identity test would short-circuit this Gramian from
        # k = -25, with chi_ff off by 424 % of its peak.
        base = dataclasses.replace(
            _random_stable_network(np.random.default_rng(3), n_modes=4),
            input_states=q.InputState.thermal(0.5))
        powers = {"chi_zf": 1, "chi_ff": 2, "chi_zz": 0, "chi_fz": 1, "s_zz": 0,
                  "s_zf": 1, "s_ff": 2, "sym_zz": 0, "sym_zf": 1, "sym_ff": 2,
                  "kubo": 2}

        def arrays(k):
            net = dataclasses.replace(
                base, drift=base.drift * 4.0 ** k,
                input_coupling=base.input_coupling * 2.0 ** k,
                output_coupling=base.output_coupling * 2.0 ** k,
                force=q.Observable(base.force.mode_quad * 4.0 ** k,
                                   base.force.output_quad))
            grid = q.FrequencyGrid(q.make_symmetric_grid(5.0, 32).points * 4.0 ** k)
            out = _engine_outputs(net, grid)
            unsym = q.solve_unsym_spectra(net, grid)
            sym = q.symmetrize(unsym)
            out.update(sym_zz=sym.s_zz.values, sym_zf=sym.s_zf.values,
                       sym_ff=sym.s_ff.values,
                       kubo=q.kubo_check(unsym.s_ff, q.solve_susceptibilities(
                           net, grid).chi_ff, net.units).values)
            return net._gramian, out

        gramian, ref = arrays(0)
        assert not np.allclose(gramian, np.eye(4))
        for k in range(-30, 31):
            got_gramian, got = arrays(k)
            assert np.array_equal(got_gramian, gramian), k
            for name, power in powers.items():
                scaled = ref[name].view(float) * 2.0 ** (k * power)
                assert np.array_equal(got[name].view(float), scaled), (k, name)

    def test_overflowing_couplings_raise(self, grid129):
        # B B^dag = 1e400: an overflowed scale must not pass the identity test
        net = q.LinearNetwork(
            drift=[[-1.0]], input_coupling=[[1e200]], output_coupling=[[1.0]],
            feedthrough=[[1.0]],
            force=q.Observable(mode_quad=[1.0, 0.0], output_quad=[0.0, 0.0]),
            readout=q.Observable(mode_quad=[0.0, 0.0], output_quad=[1.0, 0.0]))
        with pytest.raises(ValueError, match="overflows float64"):
            net._gramian
        with pytest.raises(ValueError, match="overflows float64"):
            q.solve_susceptibilities(net, grid129)


class TestResolventReference:
    """Both resolvent paths against a 50-digit solve, point by point.

    The error at each frequency is taken relative to that frequency's row,
    not to the column's peak: a check at one frequency sees only that row.
    """

    @pytest.mark.parametrize("path", ["eigen", "fallback"])
    @pytest.mark.parametrize("kind", ["passive", "generic"])
    @pytest.mark.parametrize("n_modes", [1, 2, 4])
    def test_transfer_rows(self, n_modes, kind, path, monkeypatch):
        if path == "fallback":
            monkeypatch.setattr(netsolve, "_MAX_MODE_COND", -1.0)
        rng = np.random.default_rng(30 + n_modes)
        net = (_passive_test_network(n_modes, rng, q.InputState.vacuum())
               if kind == "passive" else _random_stable_network(rng, n_modes))
        assert np.linalg.cond(np.linalg.eig(net.drift)[1]) <= 100.0
        assert (net._modes[1] is None) == (path == "fallback")
        grid = q.make_symmetric_grid(5.0, 4)
        got = np.array(netsolve._observable_rows(net, net.input_coupling, grid))
        ref = _exact_rows(net, grid)
        error = (np.max(np.abs(got - ref), axis=2)
                 / np.linalg.norm(ref, axis=2))
        assert np.max(error) <= 1e-12


class TestBlocks:
    """The engine walks the grid in blocks; no output may depend on them."""

    @staticmethod
    def _one_block(net, grid, monkeypatch):
        with monkeypatch.context() as patch:
            patch.setattr(netsolve, "_BLOCK_BYTES", 2**62)
            return _engine_outputs(net, grid)

    @pytest.mark.parametrize("case", ["1", "4", "16", "fallback"])
    def test_grid_sizes_at_block_edges(self, case, monkeypatch):
        rng = np.random.default_rng(31)
        state = q.InputState.squeezed(0.6 * np.exp(0.8j))
        if case == "fallback":
            net = _near_exceptional_network(4, 0.0, rng)
            assert net._modes[1] is None
        else:
            net = _passive_test_network(int(case), rng, state)
        sizes = {3}
        widths = [net.n_modes, 4 * net.n_lines]  # resolvent, spectra form
        if case == "fallback":
            widths.append(net.n_modes ** 2)  # the batched solve's n x n systems
        for width in widths:
            step = netsolve._blocks(10**5, width)[0][1]
            sizes |= {step - 1, step, step + 1}
        for size in sorted(sizes):
            grid = _symmetric_grid(size)
            got = _engine_outputs(net, grid)
            ref = self._one_block(net, grid, monkeypatch)
            for name in got:
                assert (np.max(np.abs(got[name] - ref[name]))
                        <= 1e-15 * np.max(np.abs(ref[name]))), (size, name)

    def test_mirrored_blocks_pair_each_point_with_its_negative(self, monkeypatch):
        # one squeezed line couples row(omega) to row(-omega); pairing a point
        # with any other than its mirror would move S by O(1)
        params = q.CavityParams(gamma=0.7, delta=0.4, gbar=1.0, theta=0.3)
        net = q.build_one_sided_cavity(
            params, input_state=q.InputState.squeezed(0.9 * np.exp(0.5j)))
        step = netsolve._blocks(10**5, 4)[0][1]
        grid = q.make_symmetric_grid(4.0, step + 5)  # 2 step + 11 points
        assert len(netsolve._blocks(len(grid), 4)) == 3
        got = q.solve_unsym_spectra(net, grid)
        ref = self._one_block(net, grid, monkeypatch)
        for name in ("s_zz", "s_zf", "s_ff"):
            values = getattr(got, name).values
            assert (np.max(np.abs(values - ref[name]))
                    <= 1e-15 * np.max(np.abs(ref[name]))), name
        # the pair moment enters S_ff(omega) and S_ff(-omega) alike only when
        # each point meets its own mirror, and the Kubo residual needs that
        chi_ff = q.solve_susceptibilities(net, grid).chi_ff
        residual = q.kubo_check(got.s_ff, chi_ff, net.units).values
        assert np.max(np.abs(residual)) <= 1e-12 * np.max(np.abs(chi_ff.values.imag))

    def test_fallback_memory_does_not_grow_with_modes(self, monkeypatch):
        # the batched solve's blocks hold (points, n, n) systems, so they are
        # cut by n^2 values per point and stay as small as the eigen path's
        grid = q.make_symmetric_grid(5.0, 5000)
        state = q.InputState.thermal(0.7)
        peaks = []
        for cond in (netsolve._MAX_MODE_COND, -1.0):
            monkeypatch.setattr(netsolve, "_MAX_MODE_COND", cond)
            net = _passive_test_network(16, np.random.default_rng(16), state)
            assert (net._modes[1] is None) == (cond < 0)
            tracemalloc.start()
            try:
                results = (q.solve_susceptibilities(net, grid),
                           q.solve_unsym_spectra(net, grid))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            del results
        eigen, fallback = peaks
        assert fallback <= 1.5 * eigen, (eigen, fallback)

    def test_blocks_cover_the_grid_once(self):
        for size in (1, 15, 16, 17, 6241):
            for width in (1, 4, 16, 256):
                blocks = netsolve._blocks(size, width)
                assert blocks[0][0] == 0 and blocks[-1][1] == size
                assert all(b == c for (_, b), (c, _) in zip(blocks, blocks[1:]))
                assert all(b - a > 0 and (b - a) % 16 == 0 for a, b in blocks[:-1])


def _rows_per_rhs(net, grid, half):
    """Reference for the shared pass: one _observable_rows call for the
    half's own right-hand side, B or [v_z v_f]."""
    rhs = netsolve._response_rhs(net) if half else net.input_coupling
    return netsolve._observable_rows(net, rhs, grid)


class TestSharedPass:
    """The two solvers share one resolvent pass per network and grid: the
    second on a grid takes the half the first left, and a network holds no
    rows once both have run. Z is solve_susceptibilities and S
    solve_unsym_spectra on the grid; z and s run on another grid."""

    SOLVERS = {"z": q.solve_susceptibilities, "s": q.solve_unsym_spectra}

    # calls and the _observable_rows calls they make
    @pytest.mark.parametrize("calls, passes", [
        ("ZS", 1), ("SZ", 1), ("Z", 1), ("S", 1), ("ZZSS", 3), ("SSZZ", 3),
        ("ZzS", 3), ("SsZ", 3), ("ZsS", 3), ("SzZ", 3)])
    @pytest.mark.parametrize("path", ["eigen", "fallback"])
    @pytest.mark.parametrize("kind", ["passive", "generic"])
    def test_any_order_matches_one_pass_per_rhs(self, kind, path, calls, passes,
                                                 monkeypatch):
        if path == "fallback":
            monkeypatch.setattr(netsolve, "_MAX_MODE_COND", -1.0)
        rng = np.random.default_rng(41)
        state = q.InputState.squeezed(0.6 * np.exp(0.8j))
        net = (_passive_test_network(4, rng, state) if kind == "passive"
               else dataclasses.replace(_random_stable_network(rng, 4),
                                        input_states=state))
        assert (net._modes[1] is None) == (path == "fallback")
        grids = {True: _symmetric_grid(101), False: q.make_symmetric_grid(3.0, 20)}
        count = []

        def counted(*args):
            count.append(args)
            return observable_rows(*args)

        observable_rows = netsolve._observable_rows
        got = {}
        with monkeypatch.context() as patch:
            patch.setattr(netsolve, "_observable_rows", counted)
            for call in calls:
                result = self.SOLVERS[call.lower()](net, grids[call.isupper()])
                if call.isupper():
                    got.setdefault(call, []).append(result)
        assert len(count) == passes
        with monkeypatch.context() as patch:
            patch.setattr(netsolve, "_shared_rows", _rows_per_rhs)
            ref = {call: self.SOLVERS[call.lower()](net, grids[True]) for call in got}
        for call, results in got.items():
            names = [f.name for f in dataclasses.fields(ref[call])
                     if isinstance(getattr(ref[call], f.name), q.ComplexSpectrum)]
            for result in results:
                for name in names:
                    assert (getattr(result, name).values.tobytes()
                            == getattr(ref[call], name).values.tobytes()), (call, name)
        # a lone or repeated solver leaves a half for the other one
        assert self._holds_rows(net) == (calls not in ("ZS", "SZ"))

    @staticmethod
    def _holds_rows(net) -> bool:
        fields = {f.name for f in dataclasses.fields(net)}
        return bool(set(vars(net)) - fields - {"_modes", "_gramian"})

    @pytest.mark.parametrize("first, second", [("z", "s"), ("s", "z")])
    def test_network_holds_no_rows_after_both_solvers(self, first, second):
        net = _passive_test_network(16, np.random.default_rng(42),
                                    q.InputState.thermal(0.7))
        grid = q.make_symmetric_grid(5.0, 5000)
        self.SOLVERS[first](net, grid)
        assert self._holds_rows(net)
        self.SOLVERS[second](net, grid)
        assert not self._holds_rows(net)


class TestOutOfRange:
    """A result float64 cannot hold raises the closed forms' ValueError,
    with no RuntimeWarning on the way."""

    @pytest.mark.parametrize("solve", [q.solve_susceptibilities,
                                       q.solve_unsym_spectra])
    def test_one_sided_cavity(self, solve, grid129):
        params = q.CavityParams(gamma=2.0, delta=0.5, gbar=1e200, theta=0.4)
        net = q.build_one_sided_cavity(params, q.InputState.thermal(1.0))
        with pytest.raises(ValueError, match=f"{solve.__name__} overflows float64"):
            solve(net, grid129)

    def test_generic_network_spectra(self, grid129):
        # readout rows of about 1e200, so S_zz is about 1e400
        net = _random_stable_network(np.random.default_rng(7), n_modes=4)
        net = dataclasses.replace(net, output_coupling=1e200 * net.output_coupling)
        with pytest.raises(ValueError, match="solve_unsym_spectra overflows float64"):
            q.solve_unsym_spectra(net, grid129)

    def test_gramian_overflow_leaves_the_spectra(self, grid129):
        # B B^dag = 1e320 overflows the Gramian, but the rows stay of order 1:
        # the spectra are those of the network rescaled to B = C = 1
        def network(b, c):
            return q.LinearNetwork(
                drift=[[-1.0]], input_coupling=[[b]], output_coupling=[[c]],
                feedthrough=[[1.0]], input_states=q.InputState.thermal(0.5),
                force=q.Observable(mode_quad=[c, 0.0], output_quad=[0.0, 0.0]),
                readout=q.Observable(mode_quad=[0.0, 0.0], output_quad=[1.0, 0.0]))

        net, twin = network(1e160, 1e-160), network(1.0, 1.0)
        got = q.solve_unsym_spectra(net, grid129)
        assert not TestSharedPass._holds_rows(net)
        ref = q.solve_unsym_spectra(twin, grid129)
        for name in ("s_zz", "s_zf", "s_ff"):
            assert np.allclose(getattr(got, name).values, getattr(ref, name).values,
                               rtol=1e-13, atol=0.0), name
        with pytest.raises(ValueError, match="the Gramian overflows float64"):
            q.solve_susceptibilities(net, grid129)
        assert not TestSharedPass._holds_rows(net)


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

    @pytest.mark.parametrize("states", [
        (q.InputState.thermal(1.5), q.InputState.squeezed(0.7 * np.exp(0.4j))),
        (q.InputState.squeezed(1.1 * np.exp(-2.0j)), q.InputState.vacuum()),
    ], ids=["thermal-squeezed", "squeezed-vacuum"])
    def test_per_line_states_against_line_by_line_sum(self, states):
        # each line adds its own moments; sum them one line and one
        # frequency at a time from the resolvent, in operator order
        rng = np.random.default_rng(5)
        h = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        lam = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        force = q.Observable(mode_quad=rng.normal(size=4), output_quad=np.zeros(4))
        readout = q.Observable(mode_quad=np.zeros(4), output_quad=rng.normal(size=4))
        net = q.passive_network(h, lam, force, readout, input_state=states)
        grid = q.make_symmetric_grid(3.0, 3)
        got = q.solve_unsym_spectra(net, grid)

        def row(obs, w):
            res = np.linalg.inv(-1j * w * np.eye(2) - net.drift)
            return (net._effective_mode_row(obs) @ res @ net.input_coupling
                    + obs.mu @ net.feedthrough)

        for pair, spectrum in (((readout, readout), got.s_zz),
                               ((readout, force), got.s_zf),
                               ((force, force), got.s_ff)):
            ref = np.zeros(len(grid), dtype=complex)
            for k, w in enumerate(grid.points):
                (a, a_neg), (b, b_neg) = ((row(obs, w), row(obs, -w)) for obs in pair)
                for line, state in enumerate(states):
                    n, m = state.moments()
                    # A = a c + conj(a_neg) c^dag, B likewise; <c c^dag> = 1 + N,
                    # <c^dag c> = N, <c c> = M, <c^dag c^dag> = M*
                    ref[k] += (a[line] * np.conj(b[line]) * (1.0 + n)
                               + a[line] * b_neg[line] * m
                               + np.conj(a_neg[line]) * np.conj(b[line]) * np.conj(m)
                               + np.conj(a_neg[line]) * b_neg[line] * n)
            peak = np.max(np.abs(ref))
            assert np.allclose(spectrum.values, ref, rtol=1e-12, atol=1e-12 * peak)

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
        for hbar in HBARS:
            net = q.build_one_sided_cavity(dataclasses.replace(
                generic_params, units=q.UnitConvention(hbar)))
            susc = q.solve_susceptibilities(net, grid129)
            uns = q.solve_unsym_spectra(net, grid129)
            residual = q.kubo_check(uns.s_ff, susc.chi_ff, susc.units)
            scale = np.max(np.abs(susc.chi_ff.values.imag)) + 1e-30
            assert np.max(np.abs(residual.values)) <= 1e-12 * scale, hbar

    @pytest.mark.parametrize("state", [q.InputState.thermal(1.7),
                                       q.InputState.squeezed(0.6)])
    def test_residual_is_state_independent(self, generic_params, grid129, state):
        net = q.build_one_sided_cavity(generic_params, input_state=state)
        susc = q.solve_susceptibilities(net, grid129)
        uns = q.solve_unsym_spectra(net, grid129)
        residual = q.kubo_check(uns.s_ff, susc.chi_ff, susc.units)
        scale = np.max(np.abs(susc.chi_ff.values.imag)) + 1e-30
        assert np.max(np.abs(residual.values)) <= 1e-11 * scale

    def test_random_two_mode_network(self):
        grid = q.make_symmetric_grid(5.0, 32)
        for hbar in HBARS:
            net = _random_stable_network(np.random.default_rng(42),
                                         units=q.UnitConvention(hbar))
            susc = q.solve_susceptibilities(net, grid)
            uns = q.solve_unsym_spectra(net, grid)
            residual = q.kubo_check(uns.s_ff, susc.chi_ff, susc.units)
            scale = np.max(np.abs(susc.chi_ff.values.imag)) + 1e-30
            assert np.max(np.abs(residual.values)) <= 1e-10 * scale, hbar

    def test_grids_must_match(self, generic_params, grid129):
        net = q.build_one_sided_cavity(generic_params)
        other = q.make_symmetric_grid(5.0, 8)
        with pytest.raises(q.GridMismatchError, match="chi_ff lives on a different grid"):
            q.kubo_check(q.solve_unsym_spectra(net, grid129).s_ff,
                         q.solve_susceptibilities(net, other).chi_ff, net.units)

    def test_mismatched_response_is_caught(self, generic_params, grid129):
        net = q.build_one_sided_cavity(generic_params)
        susc = q.solve_susceptibilities(net, grid129)
        uns = q.solve_unsym_spectra(net, grid129)
        wrong = q.ComplexSpectrum(grid129, 2.0 * susc.chi_ff.values)
        residual = q.kubo_check(uns.s_ff, wrong, susc.units)
        scale = np.max(np.abs(susc.chi_ff.values.imag))
        assert np.max(np.abs(residual.values)) > 0.5 * scale
