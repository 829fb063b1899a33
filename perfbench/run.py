"""The qdetnoise benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a qdetnoise checkout; it uses the program in
``src/`` and writes only to ``.perfbench_work/``, which it removes at exit.
One client process runs the workload closed loop, one operation at a time,
checks every operation's output against an oracle, and prints one line per
metric followed by a JSON summary as the last line of standard output.

With ``--trace 0`` the metrics are the end-to-end ones. With ``--trace 1``
every operation runs twice, untraced and then traced, and the metrics are
the per-layer figures from the traced runs plus the tracing overhead; for
the CLI workloads the default-seed cycle first runs once untraced, so that
its artifacts can be compared with ``digests.json``. ``--smoke`` shrinks
the inputs and runs one cycle, to try every workload end to end in seconds.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DIGESTS = HERE / "digests.json"

sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from oracles import CliOracle, OracleError, sha256  # noqa: E402
from tracing import PER_LAYER, layer_metrics, scipy_import_s, split_by_op  # noqa: E402

# The metrics in the JSON result. ops_per_s, op_p50_s, op_tail_s and
# fail_ratio are printed too, but left out of it: on a 2-core shared machine
# whose speed drops by a third for up to a minute at a time, raw times moved
# by more than the largest allowed bound between runs (see README.md), and
# fail_ratio is 0 whenever the program is right. op_time_ref divides the
# operations' time by that of a reference task timed between them, which
# slows down with the machine.
END_TO_END = {
    "op_time_ref": "ref",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
SETUP_SPAWNS = 5
TAIL_BEYOND = 10


class SetupError(RuntimeError):
    """The program could not be started; the run prints no result."""


class WorkerExited(RuntimeError):
    """The lib-network worker died; the run ends with what it has."""


def load_program():
    """Import qdetnoise from the checkout's ``src``, and nowhere else."""
    package = SRC / "qdetnoise"
    if not (package / "__init__.py").is_file():
        raise SetupError(f"no qdetnoise package under {SRC}")
    sys.path.insert(0, str(SRC))
    import qdetnoise
    if Path(qdetnoise.__file__).resolve().parent != package.resolve():
        raise SetupError(f"qdetnoise was imported from {qdetnoise.__file__}")
    return qdetnoise


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


@contextmanager
def workspace(name: str):
    path = ROOT / ".perfbench_work" / f"{name}-{os.getpid()}"
    path.mkdir(parents=True, exist_ok=True)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        try:
            path.parent.rmdir()
        except OSError:
            pass


def tail(values: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond) at the highest percentile that has
    TAIL_BEYOND samples beyond it. Runs too short to place that percentile
    at or above the median report the 90th percentile, interpolated between
    the samples around it, with 0 samples beyond."""
    ordered = sorted(values)
    n = len(ordered)
    if n < 2 * TAIL_BEYOND:
        if n == 1:
            return ordered[0], 90.0, 0
        return statistics.quantiles(ordered, n=10, method="inclusive")[-1], 90.0, 0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, TAIL_BEYOND


class Bench:
    """State shared by both kinds of workload: records, digests, time budget."""

    def __init__(self, q, workload: str, seed: int, seconds: float, smoke: bool,
                 workdir: Path) -> None:
        self.q = q
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.smoke = smoke
        self.workdir = workdir
        self.env = child_env()
        self.trace = False
        self.records: list[dict] = []      # every operation run, traced or not
        self.reference_walls: list[float] = []
        self.digests: dict[tuple, str] = {}
        self.setup_samples: list[float] = []

    def finish(self, rec: dict, seed: int) -> dict:
        """Compare a passing record with earlier runs of its config, then keep it."""
        if rec["ok"]:
            first = self.digests.setdefault((seed, rec["key"]), rec["digest"])
            if first != rec["digest"]:
                rec["ok"] = False
                rec["reason"] = "output differs from an earlier run of the same config"
        self.records.append(rec)
        return rec

    def run_cycles(self, cycle) -> None:
        """Repeat whole cycles until the next would end more than half a
        cycle past ``seconds`` of operation and reference time; smoke runs
        stop after one. Untraced runs time the reference task before every
        operation."""
        busy, done = 0.0, 0
        while True:
            for op in cycle.ops:
                if not self.trace:
                    wall = self.reference()
                    self.reference_walls.append(wall)
                    busy += wall
                busy += sum(rec["wall"] for rec in self.run_op(op, cycle.seed))
            done += 1
            if self.smoke or busy * (done + 0.5) / done > self.seconds:
                return


class CliBench(Bench):
    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.oracle = CliOracle(self.q, {})
        self.traced: list[dict] = []
        self.untraced_wall = 0.0
        self.changed = 0
        self.recorded = json.loads(DIGESTS.read_text()).get(self.workload, {})

    def spawn(self, cmd: list[str]) -> tuple[int, float, float, str]:
        """Run one process to completion: exit code, wall s, peak RSS MB, stderr."""
        log = self.workdir / "stderr.log"
        line = self.spawner.request({"argv": cmd, "cwd": str(self.workdir), "log": str(log)})
        if not line:
            raise SetupError(f"the spawner exited with code {self.spawner.proc.wait()}")
        reply = json.loads(line)
        return reply["rc"], reply["wall"], reply["rss_mb"], log.read_text(errors="replace")

    def reference(self) -> float:
        rows, solves = workloads.reference_size(self.workload, self.smoke)
        rc, wall, _, log = self.spawn([sys.executable, str(HERE / "reference.py"),
                                       str(rows), str(solves)])
        if rc != 0:
            raise SetupError(f"the reference task failed: {log.strip()}")
        return wall

    def probe(self) -> float:
        start = perf_counter()
        proc = subprocess.Popen([sys.executable, str(HERE / "launcher.py"), "--probe"],
                                cwd=self.workdir, env=self.env, stdin=subprocess.DEVNULL,
                                stdout=subprocess.PIPE, text=True)
        line = proc.stdout.readline()
        ready = perf_counter() - start
        proc.stdout.close()
        if proc.wait(timeout=120) != 0 or line.strip() != "ready":
            raise SetupError("the qdetnoise import probe failed")
        return ready

    def setup(self, spawns: int) -> None:
        self.probe()                       # fills the bytecode and page caches
        self.setup_samples = [self.probe() for _ in range(spawns)]

    def write_inputs(self, cycle) -> None:
        for name, mimo in cycle.files.items():
            if name not in self.oracle.mimo_files:
                mimo.write(self.workdir)
                self.oracle.mimo_files[name] = mimo

    def cli_op(self, op, seed: int, traced: bool = False, op_id: int = 0) -> dict:
        out = self.workdir / op.out
        spans_path = self.workdir / "spans.json"
        out.unlink(missing_ok=True)
        spans_path.unlink(missing_ok=True)
        if traced:
            cmd = [sys.executable, "-X", "importtime", str(HERE / "launcher.py"),
                   "--trace", str(spans_path), str(op_id), "--", *op.argv]
        else:
            cmd = [sys.executable, "-m", "qdetnoise", *op.argv]
        rc, wall, rss, log = self.spawn(cmd)
        data = out.read_bytes() if out.exists() else None
        out.unlink(missing_ok=True)
        rec = {"key": op.key, "wall": wall, "rss_mb": rss, "ok": True, "traced": traced}
        try:
            digest = sha256(data) if rc == 0 and data is not None else None
            if digest is None or self.digests.get((seed, op.key)) != digest:
                # Bytes equal to an artifact of this config that already passed
                # need no second check.
                digest = self.oracle.check(op, rc, data)
            rec["digest"] = digest
            if traced:
                doc = json.loads(spans_path.read_text())
                rec["trace"] = {
                    "wall": wall, "spans": doc["spans"], "import_s": doc["import_s"],
                    "import_scipy_s": scipy_import_s(log),
                    "bytes_in": sum((self.workdir / n).stat().st_size for n in op.inputs),
                    "bytes_out": len(data)}
        except (OracleError, OSError, ValueError, KeyError) as exc:
            errors = [ln for ln in log.splitlines() if not ln.startswith("import time:")]
            rec.update(ok=False, reason=f"{exc}" + (f" [{errors[-1]}]" if errors else ""))
        return self.finish(rec, seed)

    def run_op(self, op, seed: int) -> list[dict]:
        plain = self.cli_op(op, seed)
        if not self.trace:
            return [plain]
        traced = self.cli_op(op, seed, traced=True, op_id=len(self.traced))
        if "trace" in traced:
            self.traced.append(traced["trace"])
            self.untraced_wall += plain["wall"]
        return [plain, traced]

    @contextmanager
    def spawning(self):
        """Keep the small process that runs the measured children (spawner.py)."""
        self.spawner = Child([sys.executable, str(HERE / "spawner.py")], self)
        try:
            yield
        finally:
            self.spawner.close()

    def run(self, trace: bool, spawns: int) -> None:
        with self.spawning():
            self.setup(spawns)
            if trace:
                default = workloads.build(self.workload, workloads.DEFAULT_SEED, self.smoke)
                self.write_inputs(default)
                for op in default.ops:
                    rec = self.cli_op(op, default.seed)
                    self.changed += rec.get("digest") != self.recorded.get(op.key)
            self.trace = trace
            cycle = workloads.build(self.workload, self.seed, self.smoke)
            self.write_inputs(cycle)
            self.run_cycles(cycle)

    def layers(self) -> dict:
        return layer_metrics(self.traced, self.untraced_wall, self.changed)


class Child:
    """A helper process of the benchmark, spoken to over JSON lines."""

    def __init__(self, cmd: list[str], bench: Bench) -> None:
        self.proc = subprocess.Popen(cmd, cwd=bench.workdir, env=bench.env, text=True,
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE)

    def request(self, msg: dict) -> str:
        """Send one request; return the reply line, or "" if the process exited."""
        try:
            self.proc.stdin.write(json.dumps(msg) + "\n")
            self.proc.stdin.flush()
            return self.proc.stdout.readline()
        except BrokenPipeError:
            return ""

    def close(self) -> None:
        if self.proc.stdin and not self.proc.stdin.closed:
            try:
                self.proc.stdin.close()
            except BrokenPipeError:
                pass
        try:
            self.proc.wait(timeout=120)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


class Worker(Child):
    """One lib-network worker process (worker.py)."""

    def __init__(self, bench: Bench, trace_path: Path | None = None) -> None:
        cmd = [sys.executable, str(HERE / "worker.py")]
        if trace_path is not None:
            cmd += ["--trace", str(trace_path)]
        start = perf_counter()
        super().__init__(cmd, bench)
        line = self.proc.stdout.readline()
        self.ready_s = perf_counter() - start
        if line.strip() != "ready":
            self.close()
            raise SetupError("the lib-network worker did not start")

    def call(self, op_id: int, spec: dict) -> dict:
        line = self.request({"op": op_id, "spec": spec})
        if not line:
            return {"ok": False, "elapsed": 0.0, "rss_mb": 0.0, "exited": True,
                    "reason": f"worker process exited with code {self.proc.wait()}"}
        return json.loads(line)

    def reference(self, rows: int, solves: int) -> float:
        line = self.request({"reference": [rows, solves]})
        if not line:
            raise SetupError(f"the worker exited in the reference task, "
                             f"with code {self.proc.wait()}")
        return json.loads(line)["elapsed"]


class NetworkBench(Bench):
    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.worker: Worker | None = None
        self.tracer_worker: Worker | None = None
        self.next_op = 0

    def setup(self, spawns: int) -> None:
        Worker(self).close()               # fills the bytecode and page caches
        for i in range(spawns):
            worker = Worker(self)
            self.setup_samples.append(worker.ready_s)
            if i + 1 < spawns:
                worker.close()
        self.worker = worker

    def reference(self) -> float:
        return self.worker.reference(*workloads.reference_size(self.workload, self.smoke))

    def network_op(self, worker: Worker, op, seed: int, traced: bool) -> dict:
        reply = worker.call(self.next_op, op.spec)
        rec = {"key": op.key, "wall": reply["elapsed"], "rss_mb": reply["rss_mb"],
               "ok": reply["ok"], "traced": traced, "op_id": self.next_op}
        rec.update({k: reply[k] for k in ("digest", "reason") if k in reply})
        self.finish(rec, seed)
        if reply.get("exited"):
            raise WorkerExited(reply["reason"])
        return rec

    def run_op(self, op, seed: int) -> list[dict]:
        recs = [self.network_op(self.worker, op, seed, False)]
        if self.tracer_worker is not None:
            recs.append(self.network_op(self.tracer_worker, op, seed, True))
        self.next_op += 1
        return recs

    def run(self, trace: bool, spawns: int) -> None:
        try:
            self.setup(spawns)
            if trace:
                self.spans_path = self.workdir / "spans.json"
                self.tracer_worker = Worker(self, self.spans_path)
            self.trace = trace
            self.run_cycles(workloads.build(self.workload, self.seed, self.smoke))
        except WorkerExited:
            pass                           # recorded as a failed operation
        finally:
            for worker in (self.worker, self.tracer_worker):
                if worker is not None:
                    worker.close()

    def layers(self) -> dict:
        doc = json.loads(self.spans_path.read_text()) if self.spans_path.exists() else {}
        spans = split_by_op(doc.get("spans", []))
        traced = [r for r in self.records if r["traced"] and r["ok"]]
        plain = {r["op_id"]: r["wall"] for r in self.records if not r["traced"]}
        ops = [{"wall": r["wall"], "spans": spans.get(r["op_id"], [])} for r in traced]
        return layer_metrics(ops, sum(plain[r["op_id"]] for r in traced), 0)


BENCHES = {"cli-small": CliBench, "cli-bulk": CliBench, "lib-network": NetworkBench}


def environment(q) -> dict:
    import numpy
    import scipy
    return {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "qdetnoise": q.__version__, "machine": platform.machine()}


def end_to_end(bench: Bench) -> tuple[dict, list[str]]:
    recs = bench.records
    walls = [r["wall"] for r in recs]
    ok = sum(r["ok"] for r in recs)
    busy = sum(walls)
    tail_value, pct, beyond = tail(walls)
    reference = statistics.fmean(bench.reference_walls)
    values = {
        "op_time_ref": statistics.fmean(walls) / reference,
        "ops_per_s": ok / busy if busy > 0 else 0.0,
        "op_p50_s": statistics.median(walls),
        "op_tail_s": tail_value,
        "peak_rss_mb": max(r["rss_mb"] for r in recs),
        "setup_s": statistics.median(bench.setup_samples),
    }
    notes = {
        "op_time_ref": f"mean operation time over mean reference time, "
                       f"{reference:.4f} s over n={len(bench.reference_walls)}",
        "ops_per_s": f"{ok} of {len(recs)} operations ok in {busy:.3f} s of operation time",
        "op_p50_s": f"n={len(walls)}",
        "op_tail_s": f"p{pct:.1f}, n={len(walls)}, {beyond} beyond"
                     + ("; fewer than 20 samples, interpolated" if not beyond else ""),
        "peak_rss_mb": f"n={len(recs)}",
        "setup_s": f"median of {len(bench.setup_samples)} spawns after one warm-up",
    }
    failed = len(recs) - ok
    values["fail_ratio"] = failed / len(recs)
    notes["fail_ratio"] = f"{failed} failed of {len(recs)} attempted"
    units = {**END_TO_END, "ops_per_s": "op/s", "op_p50_s": "s", "op_tail_s": "s",
             "fail_ratio": "1"}
    lines = [f"{name:<14} {value:.6g} {units[name]}  ({notes[name]})"
             for name, value in values.items()]
    return {k: {"value": values[k], "unit": unit} for k, unit in END_TO_END.items()}, lines


def per_layer(bench: Bench) -> tuple[dict, list[str]]:
    values = bench.layers()
    lines = [f"{name:<38} {values[name]:.6g} {unit}  ({meaning})"
             for name, (unit, meaning) in PER_LAYER.items()]
    return {k: {"value": values[k], "unit": PER_LAYER[k][0]} for k in PER_LAYER}, lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(BENCHES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="small inputs, one cycle, one set-up spawn")
    args = parser.parse_args(argv)
    try:
        q = load_program()
        with workspace(args.workload) as workdir:
            bench = BENCHES[args.workload](q, args.workload, args.seed, args.seconds,
                                           args.smoke, workdir)
            bench.run(bool(args.trace), 1 if args.smoke else SETUP_SPAWNS)
            metrics, lines = (per_layer if args.trace else end_to_end)(bench)
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    failed = [r for r in bench.records if not r["ok"]]
    for rec in failed[:20]:
        print(f"FAIL {rec['key']}{' (traced)' if rec['traced'] else ''}: "
              f"{rec.get('reason', '')}", file=sys.stderr)
    print("# env: " + json.dumps(environment(q), sort_keys=True))
    print(f"# workload {args.workload}, seed {args.seed}: {workloads.WHY[args.workload]}")
    for line in lines:
        print(line)
    print(json.dumps({"correct": not failed, "attempted": len(bench.records),
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
