"""Units, grids, spectrum containers, parameter sets, input states."""

import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import qdetnoise as q
from qdetnoise import core


class TestUnitConvention:
    def test_defaults(self):
        units = q.UnitConvention()
        assert units.hbar == 1.0
        assert [f.name for f in dataclasses.fields(units)] == ["hbar"]

    @pytest.mark.parametrize("kwargs", [
        {"hbar": 0.0}, {"hbar": -1.0}, {"hbar": -0.0},
        {"hbar": math.inf}, {"hbar": math.nan}, {"hbar": -math.inf}])
    def test_rejects_nonpositive(self, kwargs):
        with pytest.raises(ValueError):
            q.UnitConvention(**kwargs)


class TestFrequencyGrid:
    def test_symmetric_detection(self):
        assert q.FrequencyGrid(np.array([-2.0, -1.0, 0.0, 1.0, 2.0])).is_symmetric
        assert not q.FrequencyGrid(np.array([-2.0, -1.0, 0.0, 1.0, 3.0])).is_symmetric
        assert not q.FrequencyGrid(np.array([-1.0, 0.5, 1.0])).is_symmetric

    def test_requires_strictly_increasing(self):
        with pytest.raises(ValueError):
            q.FrequencyGrid(np.array([0.0, 0.0, 1.0]))
        with pytest.raises(ValueError):
            q.FrequencyGrid(np.array([1.0, 0.0]))

    @pytest.mark.parametrize("points", [[math.nan], [-math.inf, 0.0, math.inf]])
    def test_rejects_non_finite_points(self, points):
        with pytest.raises(ValueError, match="finite"):
            q.FrequencyGrid(np.array(points))

    @pytest.mark.parametrize("points", [[[0.0, 1.0]], []])
    def test_rejects_points_that_are_not_a_vector(self, points):
        with pytest.raises(ValueError, match="one-dimensional, non-empty"):
            q.FrequencyGrid(np.array(points))

    def test_points_are_read_only(self):
        grid = q.make_symmetric_grid(1.0, 4)
        with pytest.raises(ValueError):
            grid.points[0] = 5.0

    def test_equality_and_hash(self):
        a = q.make_symmetric_grid(2.0, 8)
        b = q.make_symmetric_grid(2.0, 8)
        c = q.make_symmetric_grid(2.0, 9)
        assert a == b
        assert a != c
        assert len({a, b, c}) == 2

    def test_is_not_equal_to_other_types(self):
        grid = q.make_symmetric_grid(2.0, 8)
        assert grid.__eq__(object()) is NotImplemented
        assert grid != object()

    def test_require_symmetric_raises(self):
        grid = q.FrequencyGrid(np.array([0.0, 1.0, 2.0]))
        with pytest.raises(q.GridMismatchError):
            grid.require_symmetric("test")

    def test_make_symmetric_grid_layout(self):
        grid = q.make_symmetric_grid(5.0, 100)
        pts = grid.points
        assert pts.size == 201
        assert pts[0] == -5.0 and pts[-1] == 5.0
        assert pts[100] == 0.0
        assert grid.is_symmetric

    @pytest.mark.parametrize("omega_max,n_half", [(0.0, 4), (-1.0, 4), (1.0, 0)])
    def test_make_symmetric_grid_validation(self, omega_max, n_half):
        with pytest.raises(ValueError):
            q.make_symmetric_grid(omega_max, n_half)

    @pytest.mark.parametrize("omega_max,n_half,name", [
        (5.0, 2.7, "n_half"),  # not a whole number of points
        (math.inf, 3, "omega_max"),
    ])
    def test_make_symmetric_grid_names_the_bad_argument(self, omega_max, n_half, name):
        with pytest.raises(ValueError, match=name):
            q.make_symmetric_grid(omega_max, n_half)


class TestComplexSpectrum:
    def test_shape_must_match_grid(self):
        grid = q.make_symmetric_grid(1.0, 2)
        with pytest.raises(q.GridMismatchError):
            q.ComplexSpectrum(grid, np.zeros(3))

    def test_values_are_a_read_only_copy(self):
        grid = q.make_symmetric_grid(1.0, 2)
        source = np.arange(5, dtype=complex)
        spec = q.ComplexSpectrum(grid, source)
        source[0] = 7.0
        assert spec.values[0] == 0.0
        with pytest.raises(ValueError):
            spec.values[0] = 5.0

    def test_adopt_freezes_the_buffer_itself(self):
        grid = q.make_symmetric_grid(1.0, 2)
        buffer = np.arange(5, dtype=complex)
        spec = core._adopt(grid, buffer)
        assert spec.values is buffer and not buffer.flags.writeable
        assert isinstance(spec, q.ComplexSpectrum) and spec.grid is grid

    @pytest.mark.parametrize("buffer, error", [
        (np.zeros(3, dtype=complex), q.GridMismatchError),
        (np.zeros(5), TypeError),
    ])
    def test_adopt_checks_shape_and_dtype(self, buffer, error):
        with pytest.raises(error):
            core._adopt(q.make_symmetric_grid(1.0, 2), buffer)
        assert buffer.flags.writeable


def _library_spectra() -> dict[str, q.ComplexSpectrum]:
    """Every ComplexSpectrum that one call of each producer returns."""
    params = q.CavityParams(gamma=2.0, delta=0.5, gbar=1.3, theta=0.4)
    grid = q.make_symmetric_grid(4.0, 8)
    net = q.build_one_sided_cavity(params, q.InputState.thermal(0.5))
    susc = q.solve_susceptibilities(net, grid)
    unsym = q.solve_unsym_spectra(net, grid)
    found = {}
    for name, result in (("engine", susc), ("engine", unsym),
                         ("symmetrize", q.symmetrize(unsym)),
                         ("closed", q.cavity_susceptibilities(params, grid)),
                         ("closed", q.cavity_spectra(params, grid)),
                         ("closed_unsym", q.cavity_unsym_spectra(params, grid)),
                         ("normalize", q.normalize(q.cavity_spectra(params, grid),
                                                   q.cavity_susceptibilities(params, grid)))):
        found |= {f"{name}.{field}": value for field, value in vars(result).items()
                  if isinstance(value, q.ComplexSpectrum)}
    found["kubo_check"] = q.kubo_check(unsym.s_ff, susc.chi_ff, net.units)
    osc = q.MechOscillator(1.0, 0.1, n_occupation=1.0)
    found["bare_susceptibility"] = osc.bare_susceptibility(grid)
    found["thermal_force_spectrum"] = q.thermal_force_spectrum(osc, grid)
    found["modified_mech_susceptibility"] = q.modified_mech_susceptibility(
        osc, susc.chi_ff)
    return found


class TestBufferOwnership:
    def test_library_spectra_are_read_only(self):
        for name, spec in _library_spectra().items():
            assert not spec.values.flags.writeable, name
            assert spec.values.dtype == complex and spec.values.flags.c_contiguous, name
            with pytest.raises(ValueError):
                spec.values[0] = 1.0

    def test_library_spectra_share_no_buffer(self):
        for (a, x), (b, y) in itertools.combinations(_library_spectra().items(), 2):
            assert not np.shares_memory(x.values, y.values), (a, b)


class TestCavityParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            q.CavityParams(gamma=0.0, delta=0.0, gbar=1.0)
        with pytest.raises(ValueError):
            q.CavityParams(gamma=1.0, delta=0.0, gbar=-1.0)
        for field in ("gamma", "delta", "gbar", "theta"):
            for bad in (math.nan, math.inf, -math.inf):
                kwargs = {"gamma": 1.0, "delta": 0.0, "gbar": 1.0, field: bad}
                with pytest.raises(ValueError, match=field):
                    q.CavityParams(**kwargs)


class TestMechOscillator:
    def test_occupation_is_required_by_keyword(self):
        with pytest.raises(TypeError):
            q.MechOscillator(omega_m=1.0, gamma_m=1e-3)
        with pytest.raises(TypeError):
            q.MechOscillator(omega_m=1.0, gamma_m=1e-3, temperature=0.5)
        with pytest.raises(TypeError):
            q.MechOscillator(1.0, 1e-3, 1.0, 2.0)

    def test_t_eff_bose_round_trip(self):
        units = q.UnitConvention(hbar=0.3)
        osc = q.MechOscillator(omega_m=2.0, gamma_m=1e-3, n_occupation=3.0,
                               units=units)
        n = 1.0 / math.expm1(units.hbar * osc.omega_m / osc.t_eff)
        assert n == pytest.approx(3.0, rel=1e-12)

    def test_ground_state_is_zero_temperature(self):
        osc = q.MechOscillator(omega_m=2.0, gamma_m=1e-3, n_occupation=0.0)
        assert osc.t_eff == 0.0
        assert osc.n_occupation == 0.0

    def test_planck_law_value(self):
        # n = 1/(e - 1)  =>  k_B T = hbar omega_m
        osc = q.MechOscillator(omega_m=1.0, gamma_m=1e-3,
                               n_occupation=1.0 / math.expm1(1.0))
        assert osc.t_eff == pytest.approx(1.0, rel=1e-12)

    def test_cold_and_hot_occupations(self):
        # occupations far below and above one phonon
        for n, t_eff in ((1e-300, 1.0 / math.log(1e300)), (1e12, 1e12 + 0.5)):
            osc = q.MechOscillator(omega_m=1.0, gamma_m=1e-3, n_occupation=n)
            assert osc.t_eff == pytest.approx(t_eff, rel=1e-9)

    def test_bare_susceptibility(self):
        osc = q.MechOscillator(omega_m=2.0, gamma_m=0.1, mass=3.0, n_occupation=0.0)
        grid = q.FrequencyGrid(np.array([0.0, 2.0]))
        chi = osc.bare_susceptibility(grid)
        assert chi.values[0] == pytest.approx(1.0 / 12.0)  # 1/(m omega_m^2)
        # on resonance the response is purely reactive-free: 1/(-i m gamma_m omega)
        assert chi.values[1] == pytest.approx(1.0 / (-1j * 3.0 * 0.1 * 2.0))

    def test_validation(self):
        with pytest.raises(ValueError):
            q.MechOscillator(omega_m=-1.0, gamma_m=1e-3, n_occupation=0.0)
        with pytest.raises(ValueError):
            q.MechOscillator(omega_m=1.0, gamma_m=1e-3, n_occupation=-0.5)
        for field in ("omega_m", "gamma_m", "mass", "n_occupation"):
            for bad in (math.nan, math.inf, -math.inf):
                kwargs = {"omega_m": 1.0, "gamma_m": 1e-3, "n_occupation": 1.0,
                          field: bad}
                with pytest.raises(ValueError, match=field):
                    q.MechOscillator(**kwargs)


class TestInputState:
    def test_fields_are_the_factor_form(self):
        assert [f.name for f in dataclasses.fields(q.InputState)] == ["n_th", "r", "phi"]
        assert q.InputState(0.5, 0.7, 0.3).kind == "squeezed"
        assert q.InputState(0.5).kind == "thermal"
        for state in (q.InputState(), q.InputState.thermal(0.0),
                      q.InputState.squeezed(0.0), q.InputState(0.0, 0.0, 1.3)):
            assert state.kind == "vacuum"
            assert state.moments() == (0.0, 0.0)

    def test_vacuum_moments(self):
        assert q.InputState.vacuum().moments() == (0.0, 0.0)

    def test_thermal_moments(self):
        assert q.InputState.thermal(1.5).moments() == (1.5, 0.0)
        for bad in (-0.1, math.inf, math.nan, np.array([0.5, math.inf])):
            with pytest.raises(ValueError):
                q.InputState.thermal(bad)
        for bad in (complex(math.nan, 0.0), 800.0):
            with pytest.raises(ValueError):
                q.InputState.squeezed(bad)
        with pytest.raises(ValueError, match="magnitude 800"):
            q.InputState.squeezed(800.0)
        # directly built states are checked at construction, as the others
        for n_th, r, phi in ((math.inf, 0.0, 0.0), (math.nan, 0.0, 0.0),
                             (0.0, math.inf, 0.0), (0.0, math.nan, 0.0),
                             (0.0, 0.5, math.inf), (0.0, 0.5, math.nan),
                             (np.full(129, 0.5), 0.0, 0.0), (-0.5, 0.0, 0.0),
                             (0.0, -0.5, 0.0), (1.0, 400.0, 0.0)):
            with pytest.raises(ValueError):
                q.InputState(n_th, r, phi)

    def test_moments_keep_the_moment_formulas_bit_for_bit(self):
        def bits(n, m):
            return float(n).hex(), complex(m).real.hex(), complex(m).imag.hex()

        assert bits(*q.InputState.vacuum().moments()) == bits(0.0, 0.0)
        for n in (0.0, 1e-300, 0.3, 1.5, 7.25, 1e5):
            assert bits(*q.InputState.thermal(n).moments()) == bits(n, 0.0)
        rng = np.random.default_rng(5)
        for r, phi in zip(rng.uniform(0.0, 6.0, 200), rng.uniform(-4.0, 4.0, 200)):
            xi = r * np.exp(1j * phi)
            r, phi = np.abs(xi), np.angle(xi)
            expect = (np.sinh(r) ** 2, np.exp(1j * phi) * np.sinh(r) * np.cosh(r))
            assert bits(*q.InputState.squeezed(xi).moments()) == bits(*expect)

    @given(st.floats(min_value=0.0, max_value=10.0),
           st.floats(min_value=0.0, max_value=3.0),
           st.floats(allow_nan=False, allow_infinity=False))
    def test_every_state_is_physical(self, n_th, r, phi):
        # the quadrature covariance determinant is (n_th + 1/2)^2 >= 1/4
        n, m = q.InputState(n_th, r, phi).moments()
        assert (n + 0.5) ** 2 - abs(m) ** 2 == pytest.approx(
            (n_th + 0.5) ** 2, rel=0.0, abs=1e-12 * (n + 0.5) ** 2)

    def test_squeezed_moments(self):
        r, phi = 0.7, 0.3
        n, m = q.InputState.squeezed(r * np.exp(1j * phi)).moments()
        assert n == pytest.approx(np.sinh(r) ** 2)
        assert m == pytest.approx(np.exp(1j * phi) * np.sinh(r) * np.cosh(r))

    @given(st.floats(min_value=0.0, max_value=2.0),
           st.floats(min_value=-np.pi, max_value=np.pi))
    def test_squeezed_states_are_pure(self, r, phi):
        n, m = q.InputState.squeezed(r * np.exp(1j * phi)).moments()
        # |M|^2 = N (N + 1), i.e. quadrature covariance determinant 1/4
        assert n * (n + 1.0) - abs(m) ** 2 == pytest.approx(0.0, abs=2.6e-11)

    def test_pair_moment_must_be_even(self):
        # pairing correlates +omega with -omega, so M(omega) = M(-omega); the
        # moments are frequency-independent scalars, which holds by construction
        xi = np.array([0.3, 0.4, 0.5])
        with pytest.raises(ValueError):
            q.InputState.squeezed(xi)
        with pytest.raises(ValueError, match="scalars"):
            q.InputState(n_th=1.0, r=xi)
        with pytest.raises(ValueError, match="scalars"):
            q.InputState(n_th=1.0, r=0.3, phi=xi)
