"""Seeded workload generators for the qdetnoise benchmark.

Every input a run gives the program is drawn here, from the run's seed and
outside any timed region: CLI argument vectors, the MIMO block file, and
the network matrices of the library workload. One seed always gives the
same inputs. A workload is a *cycle*: a fixed list of operations whose
kinds, sizes and output formats are the same for every seed, and whose
physical parameters come from the seed. A run repeats the cycle, so every
run measures the same mix and a repeated configuration can be checked for
byte-identical output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

DEFAULT_SEED = 0

# Grid sizes named in the workload descriptions.
SMALL_N_HALF = 64          # 129 points
SMALL_DRAWS = 1
BULK_N_HALF = 25_000       # 50,001 points
BULK_WINDOW_POINTS = 50_001
MIMO_N_HALF = 12_500       # 25,001 rows of 4x4 blocks
NETWORK_N_HALF = 5_000     # 10,001 points
NETWORK_MODES = (1, 4, 16)
NETWORK_LINES = 2
GENERIC_MODES = 4

# Smoke mode keeps every operation kind but shrinks the inputs.
SMOKE_SIZES = {"bulk_n_half": 200, "window_points": 801, "mimo_n_half": 100,
               "network_n_half": 200}

# The reference task timed next to every operation (reference.py): table
# rows to format and parse, and 16-mode systems to solve. CLI workloads run
# it as a process of about the size of their operations' import and work;
# lib-network calls it in its worker.
REFERENCE = {"cli-small": (500, 200), "cli-bulk": (20_000, 1_000),
             "lib-network": (200, 1_000)}

WHY = {
    "cli-small": "sequential CLI processes on 129-point inputs; interpreter "
                 "start-up and import are most of each operation",
    "cli-bulk": "sequential CLI processes at 50k points; output formatting "
                "and input parsing are about 40 % of each operation, import "
                "about half",
    "lib-network": "in-process library calls on 1-, 4- and 16-mode networks "
                   "at 10k points; the engine resolvent dominates",
}


@dataclass(frozen=True)
class CliOp:
    """One ``python -m qdetnoise`` process.

    ``key`` names the configuration: two operations with the same key must
    write byte-identical artifacts. ``argv`` follows ``qdetnoise`` on the
    command line; ``out`` and ``inputs`` are file names inside the work
    directory, so the echoed config never depends on where the run happens.
    """

    key: str
    argv: tuple[str, ...]
    out: str
    inputs: tuple[str, ...] = ()


@dataclass(frozen=True)
class NetworkOp:
    """One library operation on a generated network, as a JSON-ready spec."""

    key: str
    spec: dict


@dataclass(frozen=True)
class MimoInput:
    """A generated ``mimo-check`` input file and the facts its oracle needs."""

    name: str
    data: np.ndarray                 # (rows, 33): omega, then re/im of 16 cells
    pure: tuple[bool, ...]           # per detector pair: pure input state?

    @property
    def blocks(self) -> np.ndarray:
        flat = self.data[:, 1::2] + 1j * self.data[:, 2::2]
        return flat.reshape(len(self.data), 4, 4)

    def write(self, workdir: Path) -> None:
        np.savetxt(workdir / self.name, self.data, fmt="%.17g", delimiter=",",
                   header="omega,4x4 spectral matrix row-major as re,im pairs")


@dataclass
class Cycle:
    seed: int
    ops: list
    files: dict[str, MimoInput] = field(default_factory=dict)


def _rng(workload: str, seed: int) -> np.random.Generator:
    tag = sum(ord(ch) * 131 ** i for i, ch in enumerate(workload)) % 2 ** 32
    return np.random.default_rng([seed, tag])


def _cavity(rng: np.random.Generator) -> dict[str, float]:
    """Cavity working point with readout gain at zero frequency.

    The gain delta*cos(theta) - gamma*sin(theta) is kept away from zero:
    at zero gain chi_zf vanishes at omega = 0 and the referred spectra are
    undefined, which the CLI reports as a degenerate regime, not a result.
    """
    while True:
        gamma = float(rng.uniform(0.5, 3.0))
        delta = float(rng.uniform(-2.0, 2.0))
        theta = float(rng.uniform(-1.5, 1.5))
        gain = delta * math.cos(theta) - gamma * math.sin(theta)
        if abs(gain) >= 0.1 * math.hypot(gamma, delta):
            return {"gamma": gamma, "delta": delta, "theta": theta,
                    "gbar": float(rng.uniform(0.3, 2.0)),
                    "omega_max": float(rng.uniform(3.0, 8.0))}


def _state(rng: np.random.Generator, kind: str) -> str:
    if kind == "vacuum":
        return "vacuum"
    if kind == "thermal":
        return f"thermal:{float(rng.uniform(0.2, 2.0))!r}"
    r, phi = float(rng.uniform(0.1, 1.0)), float(rng.uniform(-math.pi, math.pi))
    return f"squeezed:{r!r},{phi!r}"


def _flags(values: dict) -> list[str]:
    names = {"omega_max": "omega-max", "n_half": "n-half", "n_occ": "n-occ",
             "window_points": "window-points", "input_state": "input"}
    return [f"--{names.get(k, k)}={v!r}" if isinstance(v, float)
            else f"--{names.get(k, k)}={v}" for k, v in values.items()]


def _cli_op(key: str, command: str, fmt: str, values: dict,
            inputs: tuple[str, ...] = ()) -> CliOp:
    out = f"{key}.{fmt}"
    argv = (command, *_flags(values), f"--format={fmt}", f"--out={out}")
    argv += tuple(f"--mimo-input={name}" for name in inputs)
    return CliOp(key=key, argv=argv, out=out, inputs=inputs)


def _mech_values(rng: np.random.Generator) -> dict:
    """Sideband thermometry deep in the resolved-sideband, weak-probe limit.

    The ratio reads (n+1)/n only there: the noise-interference term shifts
    it by about gamma/(4 n omega_m) and back-action damping by about
    4 gamma_opt/gamma_m, so gamma stays near 1e-3 omega_m and gbar near 1e-7.
    """
    return {"gamma": float(rng.uniform(1e-3, 2e-3)), "delta": 0.0,
            "gbar": float(rng.uniform(5e-8, 1.5e-7)),
            "theta": float(rng.uniform(-1.5, 1.5)),
            "n_occ": float(rng.uniform(1.0, 4.0))}


def cli_small(seed: int, smoke: bool = False) -> Cycle:
    """One draw of each of the 8 operation kinds. With the reference task
    timed before each, a cycle takes about 13 s, so a run repeats it and
    every configuration is timed, and checked for identical bytes, more
    than once."""
    rng = _rng("cli-small", seed)
    ops = []
    for draw in range(SMALL_DRAWS):
        fmt = ("csv", "json")[draw % 2]
        other = ("json", "csv")[draw % 2]
        ops.append(_cli_op(f"qubit-{draw}", "qubit", fmt,
                           {k: v for k, v in _cavity(rng).items() if k != "omega_max"}))
        for i, (command, kind) in enumerate(
                (c, k) for c in ("spectra", "check")
                for k in ("vacuum", "thermal", "squeezed")):
            values = {**_cavity(rng), "n_half": SMALL_N_HALF,
                      "input_state": _state(rng, kind)}
            ops.append(_cli_op(f"{command}-{kind}-{draw}", command,
                               (other, fmt)[i % 2], values))
        ops.append(_cli_op(f"mech-{draw}", "mech", other, _mech_values(rng)))
    return Cycle(seed, ops)


def _mimo_input(rng: np.random.Generator, n_half: int, name: str) -> MimoInput:
    """4x4 block-diagonal spectral matrices of two engine-solved cavities."""
    import qdetnoise as q
    from qdetnoise.cli import parse_input_state

    grid = q.make_symmetric_grid(5.0, n_half)
    kinds = [("thermal", "squeezed"), ("thermal", "thermal")][int(rng.integers(2))]
    sets, pure = [], []
    for kind in kinds:
        values = _cavity(rng)
        params = q.CavityParams(gamma=values["gamma"], delta=values["delta"],
                                gbar=values["gbar"], theta=values["theta"])
        state = parse_input_state(_state(rng, kind))
        sets.append(q.solve_unsym_spectra(q.build_one_sided_cavity(params, state), grid))
        pure.append(kind != "thermal")
    flat = q.assemble_mimo_matrix(sets).reshape(len(grid), 16)
    data = np.empty((len(grid), 33))
    data[:, 0] = grid.points
    data[:, 1::2] = flat.real
    data[:, 2::2] = flat.imag
    return MimoInput(name, data, tuple(pure))


def cli_bulk(seed: int, smoke: bool = False) -> Cycle:
    rng = _rng("cli-bulk", seed)
    n_half = SMOKE_SIZES["bulk_n_half"] if smoke else BULK_N_HALF
    window = SMOKE_SIZES["window_points"] if smoke else BULK_WINDOW_POINTS
    mimo = _mimo_input(rng, SMOKE_SIZES["mimo_n_half"] if smoke else MIMO_N_HALF,
                       f"blocks-{seed}.csv")
    ops = []
    # Operations of one kind sit apart in the cycle, so that the two that set
    # the median (the checks) and the tail (the spectra) fall in different
    # seconds of the run and a passing slowdown of the machine hits one of each.
    for key, command, kind, fmt in (("spectra-vacuum", "spectra", "vacuum", "json"),
                                    ("check-thermal", "check", "thermal", "csv"),
                                    ("mech", "mech", None, "csv"),
                                    ("spectra-squeezed", "spectra", "squeezed", "csv"),
                                    ("check-squeezed", "check", "squeezed", "json"),
                                    ("mimo-check", "mimo-check", None, "json")):
        if command == "mech":
            values = {**_mech_values(rng), "window_points": window}
        elif command == "mimo-check":
            values = {}
        else:
            values = {**_cavity(rng), "n_half": n_half, "input_state": _state(rng, kind)}
        ops.append(_cli_op(key, command, fmt, values,
                           (mimo.name,) if command == "mimo-check" else ()))
    return Cycle(seed, ops, {mimo.name: mimo})


def _complex(rng: np.random.Generator, shape) -> np.ndarray:
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def _encode(arr) -> dict:
    arr = np.asarray(arr, dtype=complex)
    return {"re": arr.real.tolist(), "im": arr.imag.tolist()}


def _state_spec(rng: np.random.Generator, kind: str) -> list:
    if kind == "vacuum":
        return ["vacuum"]
    if kind == "thermal":
        return ["thermal", float(rng.uniform(0.2, 2.0))]
    xi = complex(np.exp(1j * rng.uniform(-math.pi, math.pi)) * rng.uniform(0.1, 1.0))
    return ["squeezed", xi.real, xi.imag]


def _observables(rng: np.random.Generator, n_modes: int, n_lines: int):
    """Force on mode quadratures, readout on output quadratures only.

    A readout built from outputs commutes with itself at unequal times and
    never drives the force, which is what makes the network a valid
    detector for ``constraint_report``.
    """
    force = np.zeros(2 * n_modes)
    force[:2] = rng.normal(size=2)
    readout = np.zeros(2 * n_lines)
    theta = rng.uniform(-math.pi, math.pi)
    readout[:2] = [math.cos(theta), math.sin(theta)]
    return force.tolist(), readout.tolist()


def _passive_spec(rng: np.random.Generator, n_modes: int, kind: str,
                  n_half: int) -> dict:
    """A passive network whose slowest mode still decays at rate >= 0.005."""
    while True:
        h = _complex(rng, (n_modes, n_modes))
        h = 0.5 * (h + h.conj().T)
        lam = _complex(rng, (NETWORK_LINES, n_modes))
        drift = -1j * h - 0.5 * (lam.conj().T @ lam)
        if np.max(np.linalg.eigvals(drift).real) <= -0.005:
            break
    force, readout = _observables(rng, n_modes, NETWORK_LINES)
    return {"kind": "passive", "hamiltonian": _encode(h), "coupling": _encode(lam),
            "force": force, "readout": readout, "state": _state_spec(rng, kind),
            "omega_max": 5.0, "n_half": n_half}


def _generic_spec(rng: np.random.Generator, n_half: int) -> dict:
    """A stable network that is not passive, so its Gramian needs Lyapunov."""
    n, m = GENERIC_MODES, NETWORK_LINES
    a = _complex(rng, (n, n))
    a -= (np.max(a.real.diagonal()) + 1.0 + np.max(np.abs(a))) * np.eye(n)
    force = rng.normal(size=2 * n).tolist()
    readout = rng.normal(size=2 * m).tolist()
    return {"kind": "generic", "drift": _encode(a),
            "input_coupling": _encode(_complex(rng, (n, m))),
            "output_coupling": _encode(_complex(rng, (m, n))),
            "feedthrough": _encode(np.eye(m)), "force": force, "readout": readout,
            "state": _state_spec(rng, "thermal"), "omega_max": 5.0, "n_half": n_half}


def lib_network(seed: int, smoke: bool = False) -> Cycle:
    rng = _rng("lib-network", seed)
    n_half = SMOKE_SIZES["network_n_half"] if smoke else NETWORK_N_HALF
    ops = [NetworkOp(f"passive-{n}-{kind}", _passive_spec(rng, n, kind, n_half))
           for n in NETWORK_MODES for kind in ("thermal", "squeezed", "vacuum")]
    ops.append(NetworkOp(f"generic-{GENERIC_MODES}", _generic_spec(rng, n_half)))
    return Cycle(seed, ops)


def reference_size(workload: str, smoke: bool = False) -> tuple[int, int]:
    return (50, 20) if smoke else REFERENCE[workload]


BUILDERS = {"cli-small": cli_small, "cli-bulk": cli_bulk, "lib-network": lib_network}


def build(workload: str, seed: int, smoke: bool = False) -> Cycle:
    return BUILDERS[workload](seed, smoke)
