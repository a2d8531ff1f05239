"""Per-layer tracing from outside the program.

Each public function below is replaced, for the duration of one timed
operation, by a wrapper installed wherever its callers look it up:
methods and properties on their class, module functions in every
morseflow module that binds the same object (tracker binds crossings at
import, so morseflow.tracker.crossings is patched as well as
morseflow.piecewise.crossings).  Timed wrappers record spans in memory
(name, start, end, parent); hot leaf functions are only counted.  Self
time is a span's duration minus the time its direct child spans cover.
"""

import sys
import time

# (metric prefix, module, attribute path, timed)
TARGETS = [
    ("piecewise.value", "piecewise", "Piecewise.value", False),
    ("piecewise.common_knots", "piecewise", "common_knots", False),
    ("piecewise.crossings", "piecewise", "crossings", True),
    ("rings.zero", "rings", "Ring.zero", False),
    ("matrix.entry", "matrix", "SparseMatrix.entry", False),
    ("matrix.mul", "matrix", "SparseMatrix.mul", True),
    ("matrix.restrict", "matrix", "SparseMatrix.restrict", False),
    ("matrix.vec_apply", "matrix", "vec_apply", True),
    ("algebra.homology", "algebra", "homology", True),
    ("algebra.is_chain_map", "algebra", "is_chain_map", True),
    ("algebra.ordered_echelon", "algebra", "ordered_echelon", False),
    ("algebra.reduce_against", "algebra", "reduce_against", False),
    ("bifurcation.evolve", "bifurcation", "evolve", True),
    ("bifurcation.validate_axioms", "bifurcation", "validate_axioms", True),
    ("bifurcation.step_at", "bifurcation", "EvolutionLog.step_at", False),
    ("cerf.arc", "cerf", "CerfTuple.arc", False),
    ("cerf.arcs_alive", "cerf", "CerfTuple.arcs_alive", False),
    ("cerf.validate_cerf", "cerf", "validate_cerf", True),
    ("tracker.window_violation", "tracker", "window_violation", True),
    ("tracker.continuation_map", "tracker", "continuation_map", True),
    ("tracker.track_class", "tracker", "track_class", True),
    ("tracker.filtered_homology", "tracker", "filtered_homology", True),
    ("escape.check_H1", "escape", "check_H1", True),
    ("escape.escape_budget", "escape", "escape_budget", True),
    ("scenario.parse_scenario", "scenario", "parse_scenario", True),
    ("scenario.serialize_scenario", "scenario", "serialize_scenario", True),
    ("diagrams.family_svg", "diagrams", "family_svg", True),
    ("diagrams.trace_svg", "diagrams", "trace_svg", True),
    ("cli.run", "cli", "run", True),
]

# the per-layer metrics a traced run prints: (name, unit)
METRICS = [
    ("piecewise.value.calls", "calls"),
    ("piecewise.common_knots.calls", "calls"),
    ("piecewise.crossings.calls", "calls"),
    ("piecewise.crossings.self_ms", "ms"),
    ("rings.zero.calls", "calls"),
    ("matrix.entry.calls", "calls"),
    ("matrix.mul.calls", "calls"),
    ("matrix.mul.self_ms", "ms"),
    ("matrix.restrict.calls", "calls"),
    ("matrix.vec_apply.self_ms", "ms"),
    ("algebra.homology.calls", "calls"),
    ("algebra.homology.self_ms", "ms"),
    ("algebra.is_chain_map.calls", "calls"),
    ("algebra.is_chain_map.self_ms", "ms"),
    ("algebra.ordered_echelon.calls", "calls"),
    ("algebra.reduce_against.calls", "calls"),
    ("bifurcation.evolve.self_ms", "ms"),
    ("bifurcation.validate_axioms.self_ms", "ms"),
    ("bifurcation.step_at.calls", "calls"),
    ("cerf.arc.calls", "calls"),
    ("cerf.arcs_alive.calls", "calls"),
    ("cerf.validate_cerf.self_ms", "ms"),
    ("tracker.window_violation.calls", "calls"),
    ("tracker.window_violation.self_ms", "ms"),
    ("tracker.continuation_map.calls", "calls"),
    ("tracker.continuation_map.self_ms", "ms"),
    ("tracker.track_class.self_ms", "ms"),
    ("tracker.filtered_homology.self_ms", "ms"),
    ("tracker.segments", "slabs"),
    ("tracker.segments_certified", "slabs"),
    ("escape.check_H1.self_ms", "ms"),
    ("escape.escape_budget.self_ms", "ms"),
    ("scenario.parse_scenario.self_ms", "ms"),
    ("scenario.serialize_scenario.self_ms", "ms"),
    ("diagrams.family_svg.self_ms", "ms"),
    ("diagrams.trace_svg.self_ms", "ms"),
    ("cli.run.self_ms", "ms"),
]


class Tracer:
    """Counts and spans for one run; install() patches, remove() restores."""

    def __init__(self):
        self.counts = {name: 0 for name, *_ in TARGETS}
        self.spans = []          # [name, start, end, parent index]
        self.segments = 0
        self.certified = 0
        self._stack = []
        self._patches = []       # (owner, attribute, original, wrapper)
        mods = {m: sys.modules["morseflow." + m] for _, m, _, _ in TARGETS}
        self._bindings = [self._wrap(name, mods[m], path, timed)
                          for name, m, path, timed in TARGETS]

    def _wrap(self, name, module, path, timed):
        counts, spans, stack = self.counts, self.spans, self._stack
        owner_name, _, attr = path.rpartition(".")
        owner = getattr(module, owner_name) if owner_name else module
        orig = owner.__dict__[attr]
        func = orig.fget if isinstance(orig, property) else orig

        if timed:
            observe = self._observe_trace if name == "tracker.track_class" else None

            def wrapper(*args, **kwargs):
                counts[name] += 1
                idx = len(spans)
                spans.append([name, time.perf_counter(), None,
                              stack[-1] if stack else -1])
                stack.append(idx)
                try:
                    out = func(*args, **kwargs)
                finally:
                    spans[idx][2] = time.perf_counter()
                    stack.pop()
                if observe is not None:
                    observe(out)
                return out
        else:
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return func(*args, **kwargs)

        wrapper.__name__ = getattr(func, "__name__", attr)
        new = property(wrapper) if isinstance(orig, property) else wrapper
        if owner_name:
            return [(owner, attr, orig, new)]
        # module function: patch every morseflow module that binds it
        return [(mod, attr, orig, new)
                for key, mod in sorted(sys.modules.items())
                if key.startswith("morseflow.") and getattr(mod, attr, None) is orig]

    def _observe_trace(self, trace):
        self.segments += len(trace.segments)
        self.certified += sum(1 for s in trace.segments if s.certified)

    def install(self):
        for binding in self._bindings:
            for owner, attr, _, new in binding:
                setattr(owner, attr, new)

    def remove(self):
        for binding in self._bindings:
            for owner, attr, orig, _ in binding:
                setattr(owner, attr, orig)

    def self_ms(self):
        """Total self time per span name, in milliseconds."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out = {}
        for (name, start, end, _), child in zip(self.spans, covered):
            out[name] = out.get(name, 0.0) + (end - start - child) * 1000
        return out

    def metrics(self):
        selfs = self.self_ms()
        values = {"tracker.segments": self.segments,
                  "tracker.segments_certified": self.certified}
        for metric, unit in METRICS:
            if metric in values:
                continue
            layer, _, kind = metric.rpartition(".")
            values[metric] = self.counts[layer] if kind == "calls" else selfs.get(layer, 0.0)
        return {m: {"value": values[m], "unit": unit} for m, unit in METRICS}

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tname\tstart_ms\tend_ms\tparent\n")
            t0 = self.spans[0][1] if self.spans else 0.0
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write("%d\t%s\t%.4f\t%.4f\t%d\n" % (
                    i, name, (start - t0) * 1000, (end - t0) * 1000, parent))
