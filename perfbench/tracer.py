"""In-memory span tracer for the traced benchmark run.

The tracer replaces each public function of qmodadd at the name its
caller binds (for example `qmodadd.metrics.run_noisy`, the name
`run_experiment` looks up) with a wrapper that records one span per call:
name, start, end, parent span and operation id.  Spans stay in memory
and are written out when the run ends.  A layer's self time is its
spans' time minus the time of their child spans.

Later changes may move or rename call sites.  A binding that no longer
exists is reported as missing and skipped; it never fails the run.
"""
from __future__ import annotations

import contextlib
import functools
import gzip
import importlib
from time import perf_counter

#: (module that binds the name, attribute, span name "layer.function").
BINDINGS = (
    ("qmodadd.cli", "main", "cli.main"),
    ("qmodadd.cli", "run_sweep", "metrics.run_sweep"),
    ("qmodadd.cli", "run_exact", "sim.run_exact"),
    ("qmodadd.cli", "build_qma", "builders.build_qma"),
    ("qmodadd.cli", "analyze", "analyzer.analyze"),
    ("qmodadd.cli", "compare", "analyzer.compare"),
    ("qmodadd.cli", "export_qasm", "qasm.export_qasm"),
    ("qmodadd.cli", "parse_qasm", "qasm.parse_qasm"),
    ("qmodadd.cli", "mod_add_plus_one", "oracle.mod_add_plus_one"),
    ("qmodadd.metrics", "run_experiment", "metrics.run_experiment"),
    ("qmodadd.metrics", "run_noisy", "sim.run_noisy"),
    ("qmodadd.metrics", "most_frequent", "sim.most_frequent"),
    ("qmodadd.metrics", "build_qma", "builders.build_qma"),
    ("qmodadd.metrics", "analyze", "analyzer.analyze"),
    ("qmodadd.metrics", "mod_add_plus_one", "oracle.mod_add_plus_one"),
    ("qmodadd.metrics", "mod_add", "oracle.mod_add"),
    ("qmodadd.analyzer", "depth_by_kind", "circuits.depth_by_kind"),
    ("qmodadd.analyzer", "total_depth", "circuits.total_depth"),
    ("qmodadd", "parse_qasm", "qasm.parse_qasm"),
)

#: Work counted per call, from its arguments and result.
WORK = {
    "builders.build_qma": lambda args, result: len(result.circuit.gates),
    "sim.run_noisy": lambda args, result: len(args[0].gates) * result.shots,
    "sim.run_exact": lambda args, result: len(args[0].gates),
    "metrics.run_experiment": lambda args, result: result.n_inputs,
    "qasm.parse_qasm": lambda args, result: len(args[0].encode()),
}


class Tracer:
    """Records spans as [name, parent index, operation id, start, end, work]."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.warnings: set[str] = set()
        self._stack: list[int] = []
        self._op = -1

    def _wrap(self, name: str, fn):
        work = WORK.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            if parent < 0:
                self._op += 1
            span = [name, parent, self._op, 0.0, 0.0, 0]
            stack.append(len(spans))
            spans.append(span)
            span[3] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = perf_counter()
                stack.pop()
            if work is not None:
                try:
                    span[5] = work(args, result)
                except (AttributeError, IndexError, TypeError) as exc:
                    self.warnings.add(f"work count of {name} unavailable: {exc!r}")
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every binding that exists for the duration of the block."""
        originals = []
        try:
            for module_name, attr, name in BINDINGS:
                try:
                    module = importlib.import_module(module_name)
                    original = getattr(module, attr)
                except (ImportError, AttributeError):
                    self.warnings.add(f"binding {module_name}.{attr} missing")
                    continue
                originals.append((module, attr, original))
                setattr(module, attr, self._wrap(name, original))
            yield self
        finally:
            for module, attr, original in reversed(originals):
                setattr(module, attr, original)

    def summary(self) -> dict[str, dict]:
        """Per span name: calls, self time (s) and work."""
        child_time = [0.0] * len(self.spans)
        for _, parent, _, start, end, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict] = {}
        for index, (name, _, _, start, end, work) in enumerate(self.spans):
            row = out.setdefault(name, {"calls": 0, "self_s": 0.0, "work": 0})
            row["calls"] += 1
            row["self_s"] += end - start - child_time[index]
            row["work"] += work
        return out

    def write(self, path) -> None:
        """Write the spans as gzipped tab-separated lines, with a header."""
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            handle.write("id\tname\tparent\top\tstart_s\tend_s\twork\n")
            for index, (name, parent, op, start, end, work) in enumerate(self.spans):
                handle.write(f"{index}\t{name}\t{parent}\t{op}\t{start:.9f}\t{end:.9f}\t{work}\n")


def _total(summary: dict, field: str, *names: str) -> float:
    return sum(summary.get(name, {}).get(field, 0) for name in names)


def _rate(summary: dict, *names: str) -> float:
    busy = _total(summary, "self_s", *names)
    return _total(summary, "work", *names) / busy if busy > 0 else 0.0


_ORACLE = ("oracle.mod_add_plus_one", "oracle.mod_add")
_LAYERING = ("circuits.depth_by_kind", "circuits.total_depth")

#: Per-layer metrics: name -> (unit, better, value from a pass's summary and
#: the bytes the pass printed).  Self times are in seconds per pass.
PER_LAYER = {
    "sim.run_noisy.calls": ("count", "lower", lambda s, b: _total(s, "calls", "sim.run_noisy")),
    "sim.run_noisy.self_s": ("s", "lower", lambda s, b: _total(s, "self_s", "sim.run_noisy")),
    "sim.gate_lanes": ("count", "lower", lambda s, b: _total(s, "work", "sim.run_noisy")),
    "sim.gate_lanes_per_s": ("1/s", "higher", lambda s, b: _rate(s, "sim.run_noisy")),
    "sim.run_exact.calls": ("count", "lower", lambda s, b: _total(s, "calls", "sim.run_exact")),
    "sim.run_exact.self_s": ("s", "lower", lambda s, b: _total(s, "self_s", "sim.run_exact")),
    "sim.exact_gate_evals_per_s": ("1/s", "higher", lambda s, b: _rate(s, "sim.run_exact")),
    "sim.most_frequent.self_s": ("s", "lower", lambda s, b: _total(s, "self_s", "sim.most_frequent")),
    "metrics.run_experiment.self_s": ("s", "lower", lambda s, b: _total(s, "self_s", "metrics.run_experiment")),
    "metrics.inputs": ("count", "higher", lambda s, b: _total(s, "work", "metrics.run_experiment")),
    "builders.build_qma.calls": ("count", "lower", lambda s, b: _total(s, "calls", "builders.build_qma")),
    "builders.build_qma.self_s": ("s", "lower", lambda s, b: _total(s, "self_s", "builders.build_qma")),
    "builders.gates_emitted": ("count", "lower", lambda s, b: _total(s, "work", "builders.build_qma")),
    "circuits.layering.calls": ("count", "lower", lambda s, b: _total(s, "calls", *_LAYERING)),
    "circuits.layering.self_s": ("s", "lower", lambda s, b: _total(s, "self_s", *_LAYERING)),
    "analyzer.analyze.self_s": ("s", "lower", lambda s, b: _total(s, "self_s", "analyzer.analyze")),
    "analyzer.compare.self_s": ("s", "lower", lambda s, b: _total(s, "self_s", "analyzer.compare")),
    "qasm.export_qasm.self_s": ("s", "lower", lambda s, b: _total(s, "self_s", "qasm.export_qasm")),
    "qasm.parse_qasm.self_s": ("s", "lower", lambda s, b: _total(s, "self_s", "qasm.parse_qasm")),
    "qasm.bytes_parsed": ("B", "lower", lambda s, b: _total(s, "work", "qasm.parse_qasm")),
    "qasm.parse_bytes_per_s": ("B/s", "higher", lambda s, b: _rate(s, "qasm.parse_qasm")),
    "oracle.calls": ("count", "lower", lambda s, b: _total(s, "calls", *_ORACLE)),
    "oracle.self_s": ("s", "lower", lambda s, b: _total(s, "self_s", *_ORACLE)),
    "cli.main.self_s": ("s", "lower", lambda s, b: _total(s, "self_s", "cli.main")),
    "cli.output_bytes": ("B", "lower", lambda s, b: b),
}


def layer_metrics(summary: dict, output_bytes: int) -> dict[str, float]:
    return {name: value(summary, output_bytes) for name, (_, _, value) in PER_LAYER.items()}


def zero_call_layers(summary: dict, exercised: tuple[str, ...]) -> list[str]:
    """Layers (span-name prefixes) a workload should exercise that got no calls."""
    return [
        prefix for prefix in exercised
        if not any(name == prefix or name.startswith(prefix + ".") for name in summary)
    ]
