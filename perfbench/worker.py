"""Library-only worker process for the lib-network workload.

``python3 perfbench/worker.py [--trace SPANS]`` imports qdetnoise, prints
``ready``, then reads one JSON operation per line on stdin and answers each
with one JSON line on stdout. The timed part of an operation is library
calls only: grid, network construction, both engine solves and the
constraint report (or the Kubo check for a network that is not a detector).
A ``{"reference": [ROWS, SOLVES]}`` line runs ``reference.kernel`` instead
and answers with its wall time. Decoding the request and checking the result happen outside it. With
``--trace`` the layers' public functions are wrapped and all spans are
written to SPANS when stdin closes.
"""

import json
import sys
from time import perf_counter

import numpy as np


def _matrix(enc: dict) -> np.ndarray:
    return np.array(enc["re"]) + 1j * np.array(enc["im"])


def _state(q, spec: list):
    if spec[0] == "thermal":
        return q.InputState.thermal(spec[1])
    if spec[0] == "squeezed":
        return q.InputState.squeezed(complex(spec[1], spec[2]))
    return q.InputState.vacuum()


def peak_rss_mb() -> float:
    """This process's own peak RSS. ``getrusage`` would report at least the
    peak of the benchmark that spawned it, which ``exec`` keeps."""
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM in /proc/self/status")


def run_op(q, spec: dict) -> tuple[float, tuple]:
    """Run one operation; return its wall time and what the oracle checks."""
    passive = spec["kind"] == "passive"
    mats = {k: _matrix(v) for k, v in spec.items() if isinstance(v, dict)}
    start = perf_counter()
    grid = q.make_symmetric_grid(spec["omega_max"], spec["n_half"])
    force = q.Observable(mode_quad=spec["force"],
                         output_quad=np.zeros(len(spec["readout"])))
    readout = q.Observable(mode_quad=np.zeros(len(spec["force"])),
                           output_quad=spec["readout"])
    state = _state(q, spec["state"])
    if passive:
        net = q.passive_network(mats["hamiltonian"], mats["coupling"], force,
                                readout, input_state=state)
    else:
        net = q.LinearNetwork(drift=mats["drift"], input_coupling=mats["input_coupling"],
                              output_coupling=mats["output_coupling"],
                              feedthrough=mats["feedthrough"], force=force,
                              readout=readout, input_states=state)
    susc = q.solve_susceptibilities(net, grid)
    spectra = q.solve_unsym_spectra(net, grid)
    if passive:
        result = q.constraint_report(spectra, susc, units=net.units)
    else:
        result = q.kubo_check(spectra.s_ff, susc.chi_ff, net.units)
    return perf_counter() - start, (susc, spectra, result)


def main() -> int:
    trace_path = sys.argv[2] if sys.argv[1:2] == ["--trace"] else None
    import qdetnoise as q
    from oracles import OracleError, check_network
    from reference import kernel

    tracer = None
    if trace_path is not None:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
    print("ready", flush=True)
    for line in sys.stdin:
        msg = json.loads(line)
        if "reference" in msg:
            start = perf_counter()
            kernel(*msg["reference"])
            print(json.dumps({"elapsed": perf_counter() - start}), flush=True)
            continue
        if tracer is not None:
            tracer.op = msg["op"]
        reply = {"op": msg["op"], "ok": False, "elapsed": 0.0}
        try:
            reply["elapsed"], (susc, spectra, result) = run_op(q, msg["spec"])
            if tracer is not None:
                tracer.op = -1     # the check's own library calls are not the op's
            reply["digest"] = check_network(q, msg["spec"], susc, spectra, result)
            reply["ok"] = True
        except OracleError as exc:
            reply["reason"] = str(exc)
        except Exception as exc:  # an operation that raises counts as failed
            reply["reason"] = f"{type(exc).__name__}: {exc}"
        reply["rss_mb"] = peak_rss_mb()
        print(json.dumps(reply), flush=True)
    if tracer is not None:
        tracer.dump(trace_path)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
