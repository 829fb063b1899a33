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
Every unsymmetrized spectrum is one quadratic form in the input moments,

    S_AB(omega) = sum_l X_A,l K_l X_B,l^dag,   K_l = [[1 + N_l, M_l], [M_l*, N_l]],

with X_O = [row_O(omega), conj(row_O(-omega))], the moments (N_l, M_l) of line
l, and the 1 from the field commutator. The commutator part gives every
susceptibility in closed form through the controllability Gramian, with no
numerical Hilbert transforms.

Both solvers take a symmetric grid (``make_symmetric_grid``) and read the
value at -omega as the reversed array. Their rows differ only in the
right-hand side, B for the spectra and [v_z v_f] for the susceptibilities,
so one pass per network and grid solves rhs = [B | v_z v_f]. The first
solver on a grid computes it and leaves the other solver's half on the
network, keyed by the grid; the other solver takes that half and drops it.
The pass copies each block's product out into separate arrays per half,
so the network holds the other solver's rows alone (2 points lines complex
values for the spectra, 4 points for the susceptibilities), not the whole
pass. So once both have run the network holds nothing, and a repeated call
or a call on another grid computes the pass again. The drift is diagonalised
once per network, A = V diag(lambda) V^{-1}, so that

    R(omega) = V diag(1 / (-i omega - lambda)) V^{-1}

and a transfer row is a (points x modes) matrix product. Near an
exceptional point the audit's gap error, judged against each frequency's
own scale, grows as about cond(V) * 2e-14, so the eigen path is taken
only for cond(V) <= 40; otherwise, and for defective drifts, R is solved
at every grid point in batches, where it is 1-2e-15. Both
routes, and the spectra form, walk the grid in blocks of points, so their
temporaries do not grow with the grid: about 100 KB for g = 1/(-i omega -
lambda) or the batched solve's n x n systems with the block's product, and
for the spectra's block buffer. The spectra block of points [a, b) writes
its +omega rows and the mirrored rows [W - b, W - a), reversed, for -omega
straight into that buffer, forms its one kernel product into a second
buffer, conjugates the first in place and sums only the (z, z), (z, f)
and (f, f) entries of the form; the two buffers are allocated once and
reused by every block. The controllability Gramian of a non-passive
network is one dense solve of the vectorised Lyapunov equation, n^2
unknowns at O(n^6) time, and does not use the eigenvectors, so cond(V)
governs only the resolvent. Input states are
white: each line carries frequency-independent moments (N, M), derived from
its InputState.

Every result array is built once. Each solver, ``symmetrize`` and
``kubo_check`` wrap the buffer they have just filled with ``core._adopt``,
which freezes it in place instead of copying it; the spectra form writes
the real S_zz and S_ff into complex buffers, whose imaginary parts are set
to zero. An Observable's coefficients alpha and mu are computed once, as
read-only arrays.

This module is the independent oracle for the closed forms in ``cavity`` and
the only route to thermal/squeezed inputs and multi-mode networks. It holds
the networks, the two solvers, ``symmetrize`` and ``kubo_check``; the
records it returns, its float64-range guard and the Kubo residual come from
``core``, so it does not import the closed forms.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import (CavityParams, ComplexSpectrum, FrequencyGrid, InputState,
                   SpectraSet, SusceptibilitySet, UnitConvention, _adopt, _blocks,
                   _in_float64_range, _kubo_residual, _symmetrized)
from .errors import StabilityError

_SQRT2 = np.sqrt(2.0)
# Largest eigenvector condition number for which the resolvent is formed
# from the drift's eigen-decomposition: on a 2-mode detector near an
# exceptional point, the gap's error first exceeds 1e-12 of its scale at 47.
_MAX_MODE_COND = 40.0


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
            if not np.isfinite(arr).all():
                raise ValueError(f"{name} must be finite")
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @cached_property
    def alpha(self) -> np.ndarray:
        """Complex coefficients of the mode annihilation operators, read-only."""
        return _annihilation(self.mode_quad)

    @cached_property
    def mu(self) -> np.ndarray:
        """Complex coefficients of the output annihilation operators, read-only."""
        return _annihilation(self.output_quad)


def _annihilation(quad: np.ndarray) -> np.ndarray:
    """(X - i Y) / sqrt(2) of each (X, Y) pair, as a read-only array."""
    coeffs = (quad[0::2] - 1j * quad[1::2]) / _SQRT2
    coeffs.flags.writeable = False
    return coeffs


def _frozen_complex(x, name: str) -> np.ndarray:
    arr = np.atleast_2d(np.array(x, dtype=complex))
    if arr.ndim != 2:
        raise ValueError(f"{name} must be a matrix")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} must be finite")
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False)
class LinearNetwork:
    """Stable linear detector network with designated force/readout observables.

    input_states may be a single InputState applied to every input line or a
    tuple with one entry per line. A valid detector has its readout built from
    output quadratures only, so that the measurement record commutes with
    itself at unequal times. Between the two solvers' calls on one grid the
    network holds the second one's transfer rows (see the module docstring).
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
        object.__setattr__(self, "drift", a)
        object.__setattr__(self, "input_coupling", b)
        object.__setattr__(self, "output_coupling", c)
        object.__setattr__(self, "feedthrough", d)
        object.__setattr__(self, "input_states", states)
        rate = np.max(self._modes[0].real)
        if rate >= 0:
            raise StabilityError(
                f"drift eigenvalue with Re = {rate:.3g} >= 0; "
                "stationary spectra need a strictly decaying network")

    @property
    def n_modes(self) -> int:
        return self.drift.shape[0]

    @property
    def n_lines(self) -> int:
        return self.input_coupling.shape[1]

    @cached_property
    def _modes(self) -> tuple[np.ndarray, np.ndarray | None]:
        """Drift eigenvalues lambda, with V of A = V diag(lambda) V^{-1}.

        V is None when cond(V) exceeds _MAX_MODE_COND, as for a defective
        drift or one near an exceptional point.
        """
        lam, v = np.linalg.eig(self.drift)
        return lam, (v if np.linalg.cond(v) <= _MAX_MODE_COND else None)

    @cached_property
    def _gramian(self) -> np.ndarray:
        """Controllability Gramian M solving A M + M A^dag = -B B^dag.

        Passive networks built from a Hamiltonian and decay channels satisfy
        A + A^dag = -B B^dag identically, so M is the identity; that case is
        detected, to 1e-13 of the larger of max|A| and max|B B^dag| (no unit
        floor, so the test reads the same at every rate scale), and
        short-circuited to keep the zero-response identities of a valid
        detector exact in floating point. Otherwise M
        is one dense solve of the vectorised equation, with column-major vec,

            (I kron A + conj(A) kron I) vec(M) = -vec(B B^dag),

        refined once against its own residual: n^2 unknowns, an n^2 x n^2
        complex matrix (1 MB at 16 modes, 17 MB at 32) and O(n^6) time,
        paid once per network. M is symmetrised and checked again for the
        identity. Raises ValueError when B B^dag or the residual's scale
        overflows float64.
        """
        a, b, n = self.drift, self.input_coupling, self.n_modes
        with np.errstate(over="ignore", invalid="ignore"):
            bb = b @ b.conj().T
            resid0 = a + a.conj().T + bb
            scale = max(np.max(np.abs(a)), np.max(np.abs(bb)))
        if not (np.isfinite(resid0).all() and np.isfinite(scale)):
            raise ValueError("the Gramian overflows float64: the network's "
                             "couplings are out of range")
        if np.max(np.abs(resid0)) <= 1e-13 * scale:
            return np.eye(n, dtype=complex)
        lhs = np.kron(np.eye(n), a)
        lhs += np.kron(a.conj(), np.eye(n))
        m = np.zeros((n, n), dtype=complex)
        for _ in range(2):  # the solve, then one refinement step
            resid = a @ m + m @ a.conj().T + bb
            vec_dm = np.linalg.solve(lhs, resid.ravel(order="F"))
            m = m - vec_dm.reshape(n, n, order="F")
        m = 0.5 * (m + m.conj().T)
        if np.max(np.abs(m - np.eye(n))) <= 1e-12 * max(1.0, np.max(np.abs(m))):
            return np.eye(n, dtype=complex)
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


def _observable_rows(net: LinearNetwork, parts: list[np.ndarray],
                     grid: FrequencyGrid) -> list[tuple[np.ndarray, np.ndarray]]:
    """(alpha_O + C^T mu_O)^T R(omega) rhs for the readout and the force,
    for each right-hand side rhs in ``parts``, from one pass over the grid.

    With V well conditioned, R(omega) = V diag(g(omega)) V^{-1}, and each
    block of points is one product g @ [p_z q | p_f q] with p_O = row_O V
    and q = V^{-1} [rhs_1 | rhs_2 | ...]. Otherwise R(omega) = (-i omega I -
    A)^{-1} is solved at every grid point in batches. Either way the grid
    is walked in blocks sized by the larger of what a point holds: n values
    of g, or the batched solve's n x n system, and the 2k values of the
    block's product. That product goes into one block buffer, reused
    by every block, whose columns are copied out to a (points x columns)
    array per part and observable. So each part's rows own their memory,
    and one can be kept while the others are dropped. Callers on a
    symmetric grid read -omega as the reversed array.
    """
    w = grid.points
    rows = np.array([net._effective_mode_row(obs) for obs in (net.readout, net.force)])
    rhs = np.column_stack(parts)
    k = rhs.shape[1]
    edges = np.cumsum([0] + [part.shape[1] for part in parts])
    out = [tuple(np.empty((w.size, b - a), dtype=complex) for _ in rows)
           for a, b in zip(edges, edges[1:])]
    lam, v = net._modes
    if v is None:
        eye = np.eye(net.n_modes)
        blocks = _blocks(w.size, max(net.n_modes ** 2, 2 * k))
    else:
        q = np.linalg.solve(v, rhs)
        pq = np.hstack([(row @ v)[:, None] * q for row in rows])
        blocks = _blocks(w.size, max(net.n_modes, 2 * k))
    buf = np.empty((blocks[0][1] - blocks[0][0], 2 * k), dtype=complex)
    for a, b in blocks:
        if v is None:
            lhs = (-1j * w[a:b])[:, None, None] * eye - net.drift
            r_rhs = np.linalg.solve(lhs, np.broadcast_to(rhs, (b - a,) + rhs.shape))
            np.einsum("on,pnm->pom", rows, r_rhs, out=buf[:b - a].reshape(b - a, 2, k))
        else:
            np.matmul(1.0 / ((-1j * w[a:b])[:, None] - lam), pq, out=buf[:b - a])
        for part, c, d in zip(out, edges, edges[1:]):
            for o, dest in enumerate(part):
                dest[a:b] = buf[:b - a, o * k + c:o * k + d]
    return out


def _response_rhs(net: LinearNetwork) -> np.ndarray:
    """[v_z v_f], v_O = M conj(alpha_O + C^T mu_O) + B D^dag conj(mu_O): the
    right-hand side whose rows give the susceptibilities' s_AB."""
    b, d = net.input_coupling, net.feedthrough
    return np.column_stack([net._gramian @ np.conj(net._effective_mode_row(obs))
                            + b @ (d.conj().T @ np.conj(obs.mu))
                            for obs in (net.readout, net.force)])


def _shared_rows(net: LinearNetwork, grid: FrequencyGrid, half: int
                 ) -> tuple[np.ndarray, np.ndarray]:
    """The readout and force rows for rhs B (half 0, the spectra's) or for
    [v_z v_f] (half 1, the susceptibilities'), from one pass for both.

    A call whose half the network holds for this grid takes it and drops
    it. Any other call solves both right-hand sides in one _observable_rows
    pass, returns its half and leaves the other on the network, in place
    of whatever it held. Each half is arrays of its own, so the network
    holds only the other solver's rows: 2 points lines complex values for
    the spectra, 4 points for the susceptibilities. So the second solver
    on a grid reuses the first one's pass, and once both have run the
    network holds nothing. When the Gramian overflows, the spectra's call
    solves rhs = B alone and leaves nothing, and the susceptibilities'
    call raises its ValueError.
    """
    held = vars(net).pop("_held_rows", None)
    if held is not None and held[0] == half and held[1] == grid:
        return held[2]
    try:
        parts = [net.input_coupling, _response_rhs(net)]
    except ValueError:  # the Gramian overflows float64
        if half:
            raise
        return _observable_rows(net, [net.input_coupling], grid)[0]
    halves = _observable_rows(net, parts, grid)
    vars(net)["_held_rows"] = (1 - half, grid, halves[1 - half])
    return halves[half]


@_in_float64_range
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
    Raises ValueError when a result overflows float64.
    """
    grid.require_symmetric("susceptibilities")
    hbar = net.units.hbar
    d = net.feedthrough
    pair = (net.readout, net.force)
    s = _shared_rows(net, grid, 1)
    dd = d @ d.conj().T

    def chi(i: int, j: int) -> ComplexSpectrum:
        s_ij = s[i][:, j]
        dterm = pair[i].mu @ dd @ np.conj(pair[j].mu)
        vals = np.conjugate(s_ij[::-1])
        np.subtract(s_ij, vals, out=vals)
        vals *= 1j / hbar
        vals -= np.imag(dterm) / hbar
        return _adopt(grid, vals)

    return SusceptibilitySet(
        grid=grid,
        chi_zf=chi(0, 1),
        chi_ff=chi(1, 1),
        chi_zz=chi(0, 0),
        chi_fz=chi(1, 0),
        units=net.units,
    )


@_in_float64_range
def solve_unsym_spectra(net: LinearNetwork, grid: FrequencyGrid) -> SpectraSet:
    """Unsymmetrized spectra of the readout/force pair for the stored input state.

    Lines are uncorrelated, each weighted by the kernel K_l of its own
    InputState's moments (see the module docstring). Only the three entries
    S_zz, S_zf and S_ff of the (z, f) form are summed. Requires a symmetric
    grid, which supplies row_O(-omega) by reversal. Raises ValueError when a
    result overflows float64. The rows come from the pass shared with
    ``solve_susceptibilities``, or from rhs = B alone when the Gramian
    overflows, since the spectra do not read it.
    """
    grid.require_symmetric("unsymmetrized spectra")
    rows = _shared_rows(net, grid, 0)
    feed = [obs.mu @ net.feedthrough for obs in (net.readout, net.force)]
    n, m = (np.array(col) for col in
            zip(*(state.moments() for state in net.input_states)))
    kernel_t = np.block([[np.diag(1.0 + n), np.diag(m)],
                         [np.diag(np.conj(m)), np.diag(n)]]).T
    lines, size = net.n_lines, len(grid)
    s_zz, s_zf, s_ff = (np.empty(size, dtype=complex) for _ in range(3))
    blocks = _blocks(size, 4 * lines)
    # x and its kernel product each have one buffer, sized by the first
    # (widest) block and reused by every block
    x_buf, xk_buf = (np.empty(4 * lines * (blocks[0][1] - blocks[0][0]), dtype=complex)
                     for _ in range(2))
    # points [a, b) pair with their mirrors -omega, rows [size - b, size - a)
    # reversed; x[k, o, w]: channel k (the lines at +omega, then at -omega),
    # observable o
    for a, b in blocks:
        x = x_buf[:4 * lines * (b - a)].reshape(2 * lines, 2, b - a)
        for o, (row, offset) in enumerate(zip(rows, feed)):
            np.add(row[a:b].T, offset[:, None], out=x[:lines, o])
            np.add(row[size - b:size - a][::-1].T, offset[:, None], out=x[lines:, o])
        np.conjugate(x[lines:], out=x[lines:])
        xk = np.matmul(kernel_t, x.reshape(2 * lines, -1),
                       out=xk_buf[:x.size].reshape(2 * lines, -1)).reshape(x.shape)
        xc = np.conjugate(x, out=x)  # in place: the product above has read x
        for (i, j), out in (((0, 0), s_zz), ((0, 1), s_zf), ((1, 1), s_ff)):
            np.einsum("kw,kw->w", xk[:, i], xc[:, j], out=out[a:b])
    # the autos are real: their imaginary parts are round-off
    s_zz.imag = s_ff.imag = 0.0
    return SpectraSet(
        grid=grid,
        s_zz=_adopt(grid, s_zz),
        s_zf=_adopt(grid, s_zf),
        s_ff=_adopt(grid, s_ff),
        symmetrized=False,
    )


def symmetrize(spectra: SpectraSet) -> SpectraSet:
    """Even combination S_AB(omega) -> [S_AB(omega) + S_BA(-omega)] / 2.

    Idempotent: symmetrized input comes back with equal values. Each
    spectrum is formed by ``core._symmetrized``, which ``constraint_report``
    also calls: the audit keeps the autos' real parts alone and forms S_zf a
    block at a time, so it builds no record of its own.
    """
    spectra.grid.require_symmetric("symmetrization")
    s_zz, s_zf, s_ff = (_symmetrized(s.values, cross) for s, cross in (
        (spectra.s_zz, False), (spectra.s_zf, True), (spectra.s_ff, False)))
    return SpectraSet(
        grid=spectra.grid,
        s_zz=_adopt(spectra.grid, s_zz),
        s_zf=_adopt(spectra.grid, s_zf),
        s_ff=_adopt(spectra.grid, s_ff),
        symmetrized=True,
    )


def kubo_check(s_ff_unsym: ComplexSpectrum, chi_ff: ComplexSpectrum,
               units: UnitConvention) -> ComplexSpectrum:
    """Fluctuation-dissipation residual, near zero for any consistent network.

    residual(omega) = Im chi_ff(omega) - [S_ff(omega) - S_ff(-omega)] / (2 hbar)

    Bare spectra carry no hbar, so ``units`` is required: the model's own.
    The residual is ``core._kubo_residual``'s, which the audit reads too.
    """
    residual = _kubo_residual(s_ff_unsym, chi_ff, units)
    return _adopt(chi_ff.grid, residual.astype(complex))

