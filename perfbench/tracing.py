"""Spans around the calls into qdetnoise's layers, and the figures they give.

The benchmark owns this tracing: :meth:`Tracer.install` replaces each
layer's public functions with timing wrappers in every ``qdetnoise`` module
namespace that holds them, which is where callers look them up (for example
``qdetnoise.cli.constraint_report`` and ``qdetnoise.constraints.symmetrize``).
Spans stay in memory as ``[name, start, end, parent, op, error, count]``
and are written out once, when the traced process ends.

A span's self time is its duration minus the durations of its direct
children. Every per-layer figure is per traced operation: its total over
the traced run divided by the number of traced operations.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
from collections import defaultdict
from time import perf_counter

LAYERS = ("core", "cavity", "netsolve", "constraints", "apps", "cli")

# Methods traced besides the modules' public functions.
METHODS = (("core", "InputState", "moments", "core.input_moments"),
           ("netsolve", "LinearNetwork", "__post_init__", "netsolve.build_network"))


def _mode_points(args, result) -> int:
    return args[0].n_modes * len(args[1])


# Work counted where it is done: modes x grid points per engine solve and
# frequencies classified per constraint report.
COUNTERS = {
    "netsolve.solve_susceptibilities": _mode_points,
    "netsolve.solve_unsym_spectra": _mode_points,
    "constraints.constraint_report": lambda args, result: len(result.verdicts),
}

NAME, START, END, PARENT, OP, ERROR, COUNT = range(7)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.op = 0
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        counter = COUNTERS.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, perf_counter(), None, stack[-1] if stack else -1,
                    self.op, False, 0]
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[ERROR] = True
                raise
            finally:
                span[END] = perf_counter()
                stack.pop()
            if counter is not None:
                span[COUNT] = counter(args, result)
            return result

        return traced

    def install(self) -> None:
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"qdetnoise.{layer}")
            for attr, obj in vars(module).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == module.__name__):
                    wrappers[obj] = self.wrap(f"{layer}.{attr}", obj)
        for name, module in list(sys.modules.items()):
            if name == "qdetnoise" or name.startswith("qdetnoise."):
                for attr, obj in list(vars(module).items()):
                    if inspect.isfunction(obj) and obj in wrappers:
                        setattr(module, attr, wrappers[obj])
        for layer, cls_name, method, span_name in METHODS:
            cls = getattr(importlib.import_module(f"qdetnoise.{layer}"), cls_name)
            setattr(cls, method, self.wrap(span_name, vars(cls)[method]))

    def dump(self, path: str, **extra) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, **extra}, fh)


def split_by_op(spans: list[list]) -> dict[int, list[list]]:
    """One process's spans grouped by operation, parents re-indexed per group."""
    groups: dict[int, list[list]] = defaultdict(list)
    local: list[int] = []
    for span in spans:
        group = groups[span[OP]]
        local.append(len(group))
        parent = local[span[PARENT]] if span[PARENT] >= 0 else -1
        group.append(span[:PARENT] + [parent] + span[PARENT + 1:])
    return dict(groups)


def scipy_import_s(importtime_log: str) -> float:
    """Cumulative time of the outermost scipy imports in ``-X importtime`` output.

    The log lists each import after its children, indented by depth, so
    reading it backwards visits every parent before its children.
    """
    stack: list[str] = []
    total_us = 0
    for line in reversed(importtime_log.splitlines()):
        if not line.startswith("import time:") or "|" not in line:
            continue
        fields = line[len("import time:"):].split("|")
        if len(fields) != 3 or not fields[1].strip().isdigit():
            continue
        name_field = fields[2].rstrip()
        package = name_field.strip()
        depth = (len(name_field) - len(name_field.lstrip())) // 2
        del stack[depth:]
        is_scipy = package == "scipy" or package.startswith("scipy.")
        if is_scipy and not any(p == "scipy" or p.startswith("scipy.") for p in stack):
            total_us += int(fields[1])
        stack.append(package)
    return total_us * 1e-6


class SpanTable:
    """Durations, self times and ancestry of one process's spans."""

    def __init__(self, spans: list[list]) -> None:
        self.spans = spans
        self.dur = [s[END] - s[START] for s in spans]
        self.self_time = list(self.dur)
        for i, s in enumerate(spans):
            if s[PARENT] >= 0:
                self.self_time[s[PARENT]] -= self.dur[i]

    def layer(self, i: int) -> str:
        return self.spans[i][NAME].split(".", 1)[0]

    def outermost(self, names) -> list[int]:
        """Spans named in ``names`` that no other such span encloses."""
        out = []
        for i, s in enumerate(self.spans):
            if s[NAME] not in names:
                continue
            parent = s[PARENT]
            while parent >= 0 and self.spans[parent][NAME] not in names:
                parent = self.spans[parent][PARENT]
            if parent < 0:
                out.append(i)
        return out

    def inclusive(self, *names: str) -> float:
        return sum(self.dur[i] for i in self.outermost(set(names)))


BUILD = ("netsolve.passive_network", "netsolve.build_one_sided_cavity",
         "netsolve.build_network")
SOLVE = ("netsolve.solve_susceptibilities", "netsolve.solve_unsym_spectra")

# name -> (unit, meaning); the order is the print order.
PER_LAYER = {
    "cli.import_s": ("s", "import of qdetnoise inside the CLI process"),
    "cli.import_scipy_s": ("s", "scipy's share of that import, from -X importtime"),
    "cli.self_s": ("s", "cli.main minus its library child spans"),
    "cli.process_other_s": ("s", "process wall minus import minus cli.main"),
    "cli.bytes_in": ("B", "input file bytes read"),
    "cli.bytes_out": ("B", "artifact bytes written"),
    "cli.bytes_per_s": ("B/s", "bytes in plus out per second of cli self time"),
    "cli.artifact_changed": ("count", "default-seed artifacts whose SHA-256 "
                                      "differs from the recorded digests"),
    "netsolve.build_s": ("s", "network construction with its stability check"),
    "netsolve.solve_susceptibilities_s": ("s", "solve_susceptibilities"),
    "netsolve.solve_unsym_spectra_s": ("s", "solve_unsym_spectra"),
    "netsolve.symmetrize_s": ("s", "symmetrize"),
    "netsolve.kubo_check_s": ("s", "kubo_check"),
    "netsolve.mode_points": ("count", "modes x grid points per engine solve"),
    "netsolve.mode_points_per_s": ("1/s", "mode points per second of solve time"),
    "constraints.constraint_report_self_s": ("s", "constraint_report minus its "
                                                  "children in other layers"),
    "constraints.verdict_points": ("count", "frequencies classified"),
    "constraints.mimo_quantum_limit_s": ("s", "mimo_quantum_limit"),
    "apps.sideband_asymmetry_s": ("s", "sideband_asymmetry"),
    "apps.qubit_rates_s": ("s", "qubit_rates"),
    "cavity.closed_form_s": ("s", "cavity_susceptibilities plus cavity_spectra"),
    "cavity.normalize_s": ("s", "normalize"),
    "core.make_symmetric_grid_s": ("s", "make_symmetric_grid"),
    "core.input_moments_s": ("s", "InputState.moments"),
    **{f"{layer}.{kind}": (unit, f"{what} in {layer}")
       for layer in LAYERS
       for kind, unit, what in (("self_s", "s", "self time of spans"),
                                ("calls", "count", "traced calls"),
                                ("errors", "count", "traced calls that raised"))
       if f"{layer}.{kind}" != "cli.self_s"},
    "trace.op_wall_s": ("s", "traced operation wall time"),
    "trace.accounted_ratio": ("1", "layer self times plus CLI import and "
                                   "process time, over operation wall time"),
    "trace.ops_per_s": ("op/s", "operations per second with tracing"),
    "trace.untraced_ops_per_s": ("op/s", "the same operations without tracing"),
    "trace.overhead_ratio": ("1", "untraced over traced ops_per_s"),
}


def layer_metrics(ops: list[dict], untraced_wall: float, artifact_changed: int) -> dict:
    """Per-layer figures from traced operations.

    Each op is a dict with ``wall`` and ``spans`` (one op's spans) and, for
    CLI processes, ``import_s``, ``import_scipy_s``, ``bytes_in`` and
    ``bytes_out``. ``untraced_wall`` is the wall time of the same operations
    run without tracing.
    """
    total = defaultdict(float)
    for op in ops:
        table = SpanTable(op["spans"])
        for i, span in enumerate(table.spans):
            layer = table.layer(i)
            total[f"{layer}.self_s"] += table.self_time[i]
            total[f"{layer}.calls"] += 1
            total[f"{layer}.errors"] += bool(span[ERROR])
            if span[NAME] in SOLVE:
                total["netsolve.mode_points"] += span[COUNT]
            elif span[NAME] == "constraints.constraint_report":
                total["constraints.verdict_points"] += span[COUNT]
                total["constraints.constraint_report_self_s"] += table.dur[i] - sum(
                    table.dur[j] for j, child in enumerate(table.spans)
                    if child[PARENT] == i and table.layer(j) != "constraints")
        total["netsolve.build_s"] += table.inclusive(*BUILD)
        total["trace.solve_s"] += table.inclusive(*SOLVE)
        for metric, names in (
                ("netsolve.solve_susceptibilities_s", ("netsolve.solve_susceptibilities",)),
                ("netsolve.solve_unsym_spectra_s", ("netsolve.solve_unsym_spectra",)),
                ("netsolve.symmetrize_s", ("netsolve.symmetrize",)),
                ("netsolve.kubo_check_s", ("netsolve.kubo_check",)),
                ("constraints.mimo_quantum_limit_s", ("constraints.mimo_quantum_limit",)),
                ("apps.sideband_asymmetry_s", ("apps.sideband_asymmetry",)),
                ("apps.qubit_rates_s", ("apps.qubit_rates",)),
                ("cavity.closed_form_s", ("cavity.cavity_susceptibilities",
                                          "cavity.cavity_spectra")),
                ("cavity.normalize_s", ("cavity.normalize",)),
                ("core.make_symmetric_grid_s", ("core.make_symmetric_grid",)),
                ("core.input_moments_s", ("core.input_moments",))):
            total[metric] += table.inclusive(*names)
        if "import_s" in op:
            main = table.inclusive("cli.main")
            total["cli.import_s"] += op["import_s"]
            total["cli.import_scipy_s"] += op["import_scipy_s"]
            total["cli.process_other_s"] += op["wall"] - op["import_s"] - main
            total["cli.bytes_in"] += op["bytes_in"]
            total["cli.bytes_out"] += op["bytes_out"]
        total["trace.op_wall_s"] += op["wall"]

    if not ops or untraced_wall <= 0:
        return {name: 0.0 for name in PER_LAYER} | {"cli.artifact_changed": artifact_changed}
    n = len(ops)
    traced_wall = total["trace.op_wall_s"]
    layer_sum = (total["cli.import_s"] + total["cli.process_other_s"]
                 + sum(total[f"{layer}.self_s"] for layer in LAYERS))
    out = {name: total[name] / n for name in PER_LAYER}
    out["cli.bytes_per_s"] = ((total["cli.bytes_in"] + total["cli.bytes_out"])
                              / total["cli.self_s"] if total["cli.self_s"] > 0 else 0.0)
    out["netsolve.mode_points_per_s"] = (total["netsolve.mode_points"] / total["trace.solve_s"]
                                         if total["trace.solve_s"] > 0 else 0.0)
    out["cli.artifact_changed"] = artifact_changed
    out["trace.accounted_ratio"] = layer_sum / traced_wall
    out["trace.ops_per_s"] = n / traced_wall
    out["trace.untraced_ops_per_s"] = n / untraced_wall
    out["trace.overhead_ratio"] = traced_wall / untraced_wall
    return out
