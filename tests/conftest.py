import numpy as np
import pytest
from hypothesis import HealthCheck, settings

import qdetnoise as q

settings.register_profile(
    "suite",
    max_examples=50,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")

# hbar values a check must hold at: the default and one on either side of it.
HBARS = (1.0, 0.5, 2.0)


def draw_cavity(rng: np.random.Generator, hbar: float = 1.0) -> q.CavityParams:
    """One random, well-scaled cavity parameter set with the given hbar."""
    gamma = float(np.exp(rng.uniform(np.log(0.05), np.log(5.0))))
    delta = float(rng.uniform(-3.0, 3.0))
    gbar = float(np.exp(rng.uniform(np.log(0.1), np.log(3.0))))
    theta = float(rng.uniform(-np.pi / 2, np.pi / 2))
    return q.CavityParams(gamma=gamma, delta=delta, gbar=gbar, theta=theta,
                          units=q.UnitConvention(hbar))


def exceptional_pair(eps: float, theta: float,
                     state: q.InputState = q.InputState.vacuum()
                     ) -> q.LinearNetwork:
    """Two modes hopping at J = (1 + eps)/4, one line on mode 1 at rate 1.

    The exceptional point is at eps = 0; cond(V) is about 1.4 / sqrt(eps).
    The force is X of mode 2 and the readout the output quadrature at
    theta, which at theta = pi/2 carries no signal of the force.
    """
    hop = (1.0 + eps) / 4.0
    return q.passive_network(
        [[0.0, hop], [hop, 0.0]], [[1.0, 0.0]],
        force=q.Observable(mode_quad=[0.0, 0.0, 1.0, 0.0], output_quad=[0.0, 0.0]),
        readout=q.Observable(mode_quad=np.zeros(4),
                             output_quad=[np.cos(theta), np.sin(theta)]),
        input_state=state)


@pytest.fixture
def canonical_params() -> q.CavityParams:
    """The worked reference point: gamma=2, delta=0, gbar=1, theta=pi/2."""
    return q.CavityParams(gamma=2.0, delta=0.0, gbar=1.0, theta=np.pi / 2)


@pytest.fixture
def generic_params() -> q.CavityParams:
    """A point with nothing special about it, for frozen-value checks."""
    return q.CavityParams(gamma=2.0, delta=0.5, gbar=1.3, theta=0.4)


@pytest.fixture
def grid129() -> q.FrequencyGrid:
    return q.make_symmetric_grid(4.0, 64)


def referred_residuals(spectra_unsym: q.SpectraSet, susc: q.SusceptibilitySet
                       ) -> tuple[np.ndarray, np.ndarray]:
    """The quantum-limit residuals from their referred formulas.

    A reference for ``constraint_report``, which derives them from the gap's
    terms: with s = normalize(symmetrize(spectra)),
    r1 = s_zz S_ff - |s_zf|^2 - hbar^2/4 and r2 = Im s_zf + Im chi_ff s_zz.
    """
    hbar = susc.units.hbar
    norm = q.normalize(q.symmetrize(spectra_unsym), susc)
    s_zz = norm.imprecision.values.real
    s_zf = norm.cross.values
    s_ff = norm.force.values.real
    r1 = s_zz * s_ff - np.abs(s_zf) ** 2 - 0.25 * hbar ** 2
    r2 = s_zf.imag + susc.chi_ff.values.imag * s_zz
    return r1, r2


def gap_scale(spectra_unsym: q.SpectraSet, susc: q.SusceptibilitySet
              ) -> np.ndarray:
    """The uncertainty gap's scale at each frequency, the largest of its
    four terms: S_zz S_ff, |S_zf|^2, (hbar^2/4)|chi_zf|^2 and
    hbar |Im[S_zf^* chi_zf - chi_ff S_zz]| (symmetrized spectra)."""
    hbar = susc.units.hbar
    sym = q.symmetrize(spectra_unsym)
    chi_zf, chi_ff = susc.chi_zf.values, susc.chi_ff.values
    s_zz, s_ff, s_zf = sym.s_zz.values.real, sym.s_ff.values.real, sym.s_zf.values
    im_term = hbar * np.imag(np.conj(s_zf) * chi_zf - chi_ff * s_zz)
    return np.maximum.reduce([s_zz * s_ff, np.abs(s_zf) ** 2,
                              0.25 * hbar ** 2 * np.abs(chi_zf) ** 2,
                              np.abs(im_term)])
