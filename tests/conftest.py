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
