"""Frequency-domain input-output engine for linear bosonic detector networks.

A network is the first-order model

    da/dt  = A a + B c_in,        c_out = C a + D c_in,

with ``a`` the vector of internal mode operators and ``c_in``/``c_out`` the
input and output line operators, delta-correlated in time. Under the Fourier
convention f(omega) = integral dt e^{i omega t} f(t) the resolvent is
R(omega) = (-i omega I - A)^{-1} and any observable built linearly from mode
and output quadratures becomes

    O(omega) = row_O(omega) c_in(omega) + conj(row_O(-omega)) c_in^dag(omega),
    row_O(omega) = (alpha + C^T mu)^T R(omega) B + mu^T D,

where alpha and mu are the complex mode and output coefficient vectors of O.
Second moments of the Gaussian input state then give every unsymmetrized
spectrum, and the commutator part gives every susceptibility in closed form
through the controllability Gramian, with no numerical Hilbert transforms.

Both solvers take a symmetric grid (``make_symmetric_grid``) and solve R
once per grid point, in one batch; the value at -omega is the reversed
array. Input states are white: each line carries frequency-independent
moments (N, M).

This module is the independent oracle for the closed forms in ``cavity`` and
the only route to thermal/squeezed inputs and multi-mode networks.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .cavity import SpectraSet, SusceptibilitySet
from .core import (CavityParams, ComplexSpectrum, FrequencyGrid, InputState,
                   UnitConvention)
from .errors import GridMismatchError, StabilityError

_SQRT2 = np.sqrt(2.0)


@dataclass(frozen=True, eq=False)
class Observable:
    """Hermitian linear form in mode and output quadratures.

    mode_quad has 2 entries per internal mode, ordered (X_1, Y_1, X_2, ...),
    and output_quad has 2 entries per output line, with the conventions
    X = (a + a^dag)/sqrt(2) and Y = (a - a^dag)/(i sqrt(2)).
    """

    mode_quad: np.ndarray
    output_quad: np.ndarray

    def __post_init__(self) -> None:
        for name in ("mode_quad", "output_quad"):
            arr = np.array(getattr(self, name), dtype=float)
            if arr.ndim != 1 or arr.size % 2:
                raise ValueError(f"{name} must be a flat array of (X, Y) pairs")
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def alpha(self) -> np.ndarray:
        """Complex coefficients of the mode annihilation operators."""
        q = self.mode_quad
        return (q[0::2] - 1j * q[1::2]) / _SQRT2

    @property
    def mu(self) -> np.ndarray:
        """Complex coefficients of the output annihilation operators."""
        q = self.output_quad
        return (q[0::2] - 1j * q[1::2]) / _SQRT2


def _frozen_complex(x, shape_hint: str) -> np.ndarray:
    arr = np.atleast_2d(np.array(x, dtype=complex))
    if arr.ndim != 2:
        raise ValueError(f"{shape_hint} must be a matrix")
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False)
class LinearNetwork:
    """Stable linear detector network with designated force/readout observables.

    input_states may be a single InputState applied to every input line or a
    tuple with one entry per line. A valid detector has its readout built from
    output quadratures only, so that the measurement record commutes with
    itself at unequal times.
    """

    drift: np.ndarray
    input_coupling: np.ndarray
    output_coupling: np.ndarray
    feedthrough: np.ndarray
    force: Observable
    readout: Observable
    input_states: InputState | tuple[InputState, ...] = InputState.vacuum()
    units: UnitConvention = UnitConvention()

    def __post_init__(self) -> None:
        a = _frozen_complex(self.drift, "drift")
        b = _frozen_complex(self.input_coupling, "input_coupling")
        c = _frozen_complex(self.output_coupling, "output_coupling")
        d = _frozen_complex(self.feedthrough, "feedthrough")
        n = a.shape[0]
        if a.shape != (n, n):
            raise ValueError("drift must be square")
        m = b.shape[1]
        if b.shape != (n, m) or c.shape != (m, n) or d.shape != (m, m):
            raise ValueError("coupling/feedthrough dimensions are inconsistent")
        for name, obs in (("force", self.force), ("readout", self.readout)):
            if obs.mode_quad.size != 2 * n or obs.output_quad.size != 2 * m:
                raise ValueError(f"{name} observable does not match the network size")
        states = self.input_states
        if isinstance(states, InputState):
            states = (states,) * m
        states = tuple(states)
        if len(states) != m:
            raise ValueError(f"need one input state per line, got {len(states)}")
        eig = np.linalg.eigvals(a)
        if np.max(eig.real) >= 0:
            raise StabilityError(
                f"drift eigenvalue with Re = {np.max(eig.real):.3g} >= 0; "
                "stationary spectra need a strictly decaying network")
        object.__setattr__(self, "drift", a)
        object.__setattr__(self, "input_coupling", b)
        object.__setattr__(self, "output_coupling", c)
        object.__setattr__(self, "feedthrough", d)
        object.__setattr__(self, "input_states", states)

    @property
    def n_modes(self) -> int:
        return self.drift.shape[0]

    @property
    def n_lines(self) -> int:
        return self.input_coupling.shape[1]

    @cached_property
    def _gramian(self) -> np.ndarray:
        """Controllability Gramian M solving A M + M A^dag = -B B^dag.

        Passive networks built from a Hamiltonian and decay channels satisfy
        A + A^dag = -B B^dag identically, so M is the identity; that case is
        detected exactly and short-circuited to keep the zero-response
        identities of a valid detector exact in floating point.
        """
        a, b = self.drift, self.input_coupling
        bb = b @ b.conj().T
        resid0 = a + a.conj().T + bb
        scale = max(1.0, np.max(np.abs(a)), np.max(np.abs(bb)))
        if np.max(np.abs(resid0)) <= 1e-13 * scale:
            return np.eye(self.n_modes, dtype=complex)
        import scipy.linalg  # deferred: only non-passive networks need it
        m = scipy.linalg.solve_continuous_lyapunov(a, -bb)
        resid = a @ m + m @ a.conj().T + bb
        m = m - scipy.linalg.solve_continuous_lyapunov(a, resid)
        m = 0.5 * (m + m.conj().T)
        if np.max(np.abs(m - np.eye(self.n_modes))) <= 1e-12 * max(1.0, np.max(np.abs(m))):
            return np.eye(self.n_modes, dtype=complex)
        return m

    def _effective_mode_row(self, obs: Observable) -> np.ndarray:
        return obs.alpha + self.output_coupling.T @ obs.mu


def passive_network(hamiltonian, coupling, force: Observable, readout: Observable,
                    input_state: InputState | tuple[InputState, ...] = InputState.vacuum(),
                    units: UnitConvention = UnitConvention()) -> LinearNetwork:
    """Network from a mode Hamiltonian matrix h and decay couplings.

    coupling has one row per output line; the model is
    da/dt = (-i h - L^dag L / 2) a + L^dag c_in,  c_out = c_in - L a.
    """
    h = np.atleast_2d(np.asarray(hamiltonian, dtype=complex))
    h = 0.5 * (h + h.conj().T)
    lam = np.atleast_2d(np.asarray(coupling, dtype=complex))
    drift = -1j * h - 0.5 * (lam.conj().T @ lam)
    return LinearNetwork(
        drift=drift,
        input_coupling=lam.conj().T,
        output_coupling=-lam,
        feedthrough=np.eye(lam.shape[0], dtype=complex),
        force=force,
        readout=readout,
        input_states=input_state,
        units=units,
    )


def build_one_sided_cavity(params: CavityParams,
                           input_state: InputState = InputState.vacuum()
                           ) -> LinearNetwork:
    """One-sided cavity: drift -(gamma - i delta), coupling sqrt(2 gamma).

    The force on the measured system is hbar * gbar * (a + a^dag) and the
    readout is the homodyne output quadrature at angle theta.
    """
    hbar = params.units.hbar
    force = Observable(mode_quad=[_SQRT2 * hbar * params.gbar, 0.0],
                       output_quad=[0.0, 0.0])
    readout = Observable(mode_quad=[0.0, 0.0],
                         output_quad=[np.cos(params.theta), np.sin(params.theta)])
    return passive_network(
        hamiltonian=[[-params.delta]],
        coupling=[[np.sqrt(2.0 * params.gamma)]],
        force=force,
        readout=readout,
        input_state=input_state,
        units=params.units,
    )


def _observable_rows(net: LinearNetwork, rhs: np.ndarray,
                     grid: FrequencyGrid) -> tuple[np.ndarray, np.ndarray]:
    """(alpha_O + C^T mu_O)^T R(omega) rhs for the readout and the force.

    One batched solve of R(omega) = (-i omega I - A)^{-1} per grid point;
    callers on a symmetric grid read -omega as the reversed array.
    """
    w = grid.points
    lhs = (-1j * w)[:, None, None] * np.eye(net.n_modes) - net.drift[None, :, :]
    r_rhs = np.linalg.solve(lhs, np.broadcast_to(rhs, (w.size,) + rhs.shape))
    return tuple(np.einsum("n,knm->km", net._effective_mode_row(obs), r_rhs)
                 for obs in (net.readout, net.force))


def solve_susceptibilities(net: LinearNetwork,
                           grid: FrequencyGrid) -> SusceptibilitySet:
    """Response functions of the network's readout/force pair.

    The commutator of two observables is a c-number for a linear network, so
    the result never references the input state. The causal projection is
    done analytically: with M the controllability Gramian,

        chi_AB(omega) = (i/hbar) [s_AB(omega) - conj(s_AB(-omega))]
                        - Im(mu_A^T D D^dag conj(mu_B)) / hbar,
        s_AB(omega)   = (alpha_A + C^T mu_A)^T R(omega)
                        [M conj(alpha_B + C^T mu_B) + B D^dag conj(mu_B)],

    which splits the commutator kernel into its lower-half-plane (causal)
    poles plus the instantaneous feedthrough part, taken with weight 1/2.
    Requires a symmetric grid, which supplies s_AB(-omega) by reversal.
    """
    grid.require_symmetric("susceptibilities")
    hbar = net.units.hbar
    b, d = net.input_coupling, net.feedthrough
    pair = (net.readout, net.force)
    v = [net._gramian @ np.conj(net._effective_mode_row(obs))
         + b @ (d.conj().T @ np.conj(obs.mu)) for obs in pair]
    s = _observable_rows(net, np.column_stack(v), grid)
    dd = d @ d.conj().T

    def chi(i: int, j: int) -> ComplexSpectrum:
        s_ij = s[i][:, j]
        dterm = pair[i].mu @ dd @ np.conj(pair[j].mu)
        vals = (1j / hbar) * (s_ij - np.conj(s_ij[::-1])) - np.imag(dterm) / hbar
        return ComplexSpectrum(grid, vals)

    return SusceptibilitySet(
        grid=grid,
        chi_zf=chi(0, 1),
        chi_ff=chi(1, 1),
        chi_zz=chi(0, 0),
        chi_fz=chi(1, 0),
    )


def solve_unsym_spectra(net: LinearNetwork, grid: FrequencyGrid) -> SpectraSet:
    """Unsymmetrized spectra of the readout/force pair for the stored input state.

    Requires a symmetric grid, since S_AB(omega) couples the transfer rows at
    +omega and -omega. Input lines are uncorrelated with each other; each line
    carries the frequency-independent (N, M) moments of its own InputState,
    with the canonical field commutator fixing the vacuum part.
    """
    grid.require_symmetric("unsymmetrized spectra")
    rows = _observable_rows(net, net.input_coupling, grid)
    z, f = (row + obs.mu @ net.feedthrough
            for row, obs in zip(rows, (net.readout, net.force)))
    z_neg, f_neg = z[::-1], f[::-1]
    n_arr, m_arr = (np.array(col) for col in
                    zip(*(state.moments() for state in net.input_states)))

    def cross(a, a_neg, b, b_neg) -> np.ndarray:
        return np.sum(
            a * b_neg * m_arr
            + a * np.conj(b) * (1.0 + n_arr)
            + np.conj(a_neg) * b_neg * n_arr
            + np.conj(a_neg) * np.conj(b) * np.conj(m_arr),
            axis=1)

    def auto(a, a_neg) -> np.ndarray:
        vals = (2.0 * np.real(np.sum(a * a_neg * m_arr, axis=1))
                + np.sum(np.abs(a) ** 2 * (1.0 + n_arr), axis=1)
                + np.sum(np.abs(a_neg) ** 2 * n_arr, axis=1))
        return vals.astype(complex)

    return SpectraSet(
        grid=grid,
        s_zz=ComplexSpectrum(grid, auto(z, z_neg)),
        s_zf=ComplexSpectrum(grid, cross(z, z_neg, f, f_neg)),
        s_ff=ComplexSpectrum(grid, auto(f, f_neg)),
        symmetrized=False,
    )


def symmetrize(spectra: SpectraSet) -> SpectraSet:
    """Even combination S_AB(omega) -> [S_AB(omega) + S_BA(-omega)] / 2.

    Idempotent: symmetrized input comes back with equal values.
    """
    spectra.grid.require_symmetric("symmetrization")
    s_zz = spectra.s_zz.values
    s_ff = spectra.s_ff.values
    s_zf = spectra.s_zf.values
    return SpectraSet(
        grid=spectra.grid,
        s_zz=ComplexSpectrum(spectra.grid, 0.5 * (s_zz + s_zz[::-1])),
        s_zf=ComplexSpectrum(spectra.grid, 0.5 * (s_zf + np.conj(s_zf[::-1]))),
        s_ff=ComplexSpectrum(spectra.grid, 0.5 * (s_ff + s_ff[::-1])),
        symmetrized=True,
    )


def kubo_check(s_ff_unsym: ComplexSpectrum, chi_ff: ComplexSpectrum,
               units: UnitConvention = UnitConvention()) -> ComplexSpectrum:
    """Fluctuation-dissipation residual, near zero for any consistent network.

    residual(omega) = Im chi_ff(omega) - [S_ff(omega) - S_ff(-omega)] / (2 hbar)
    """
    if s_ff_unsym.grid != chi_ff.grid:
        raise GridMismatchError("spectrum and susceptibility grids differ")
    s_ff_unsym.grid.require_symmetric("the fluctuation-dissipation check")
    s = s_ff_unsym.values
    residual = chi_ff.values.imag - (s - s[::-1]).real / (2.0 * units.hbar)
    return ComplexSpectrum(chi_ff.grid, residual)
