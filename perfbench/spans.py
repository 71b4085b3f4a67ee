"""Span tracing of lagrforge's layers, done entirely from the benchmark.

Each layer entry point is wrapped under the name its *caller* looks it up
by, e.g. `lagrforge.solver.differentiate`.  Nothing is wrapped in
`lagrforge.expr` or `lagrforge.printing` themselves: both recurse through
their own module globals, and a wrapper there would time every tree node.

Layer spans are kept whole (name, start, end, parent).  Kernel calls
(`expr.*`, `printing.*`) are leaves and can number tens of thousands per
job, so each is folded into its parent span as a call count and a total.
A span's self time is its duration minus the time its children cover, so
the self times of one job add up to the job's traced wall time by
construction; what the tests check is that each span gets the right parent.
"""

from __future__ import annotations

import importlib
import logging
from collections import Counter
from time import perf_counter

# (module the caller lives in, name it calls, span name)
LAYER_SPANS = (
    ("cli", "parse", "dsl.parse"),
    ("cli", "validate_axioms", "dsl.validate_axioms"),
    ("cli", "constraints", "lie.constraints"),
    ("cli", "build_ansatz", "solver.build_ansatz"),
    ("cli", "solve_family", "solver.solve_family"),
    ("solver", "weak_el_residual_of", "solver.residual"),
    ("solver", "collect_system", "solver.collect_system"),
    ("solver", "nullspace_vectors", "solver.nullspace"),
    ("verify", "forward_check", "verify.forward"),
    ("verify", "converse_check", "verify.converse"),
    ("verify", "degeneracy_scan", "verify.degeneracy"),
    ("verify", "kinetic_identity_check", "verify.kinetic"),
    ("verify", "numeric_orbit_check", "verify.orbit"),
)
# Kernel calls, under each name a layer module imported from expr.
LEAF_SPANS = tuple(
    (mod, fn, f"expr.{fn}")
    for mod, fns in (
        ("solver", ("canonicalize", "differentiate", "substitute")),
        ("verify", ("canonicalize", "differentiate", "equals",
                    "eval_numeric", "substitute")),
        ("lie", ("canonicalize", "differentiate", "equals", "substitute")),
        ("dsl", ("canonicalize", "substitute")),
    ) for fn in fns
) + (("cli", "prefix_expr", "printing.prefix_expr"),)

ROOT = "cli.job"
# A layer span entered from inside another, renamed after its parent:
# degeneracy_scan runs converse_check for every assignment it tries, and
# that work belongs to the scan, not to the job's own converse check.
NESTED = {("verify.degeneracy", "verify.converse"):
          "verify.degeneracy.converse"}
# Spans whose self time is reported under another name.
SELF_NAMES = {ROOT: "cli.render", "solver.solve_family": "solver.assembly",
              "verify.degeneracy.converse": "verify.degeneracy"}
# Spans whose return value is inspected after the job, outside the timing.
KEEP_RESULT = {"solver.solve_family", "dsl.validate_axioms", "verify.orbit"}


class Span:
    __slots__ = ("name", "parent", "start", "end", "child", "leaves",
                 "error", "result")

    def __init__(self, name, parent, start):
        self.name = name
        self.parent = parent      # index of the parent span in the job
        self.start = start
        self.end = None
        self.child = 0.0          # time covered by child spans and leaves
        self.leaves = {}          # leaf name -> [calls, seconds]
        self.error = None
        self.result = None

    @property
    def self_time(self):
        return self.end - self.start - self.child


class _AbortCounter(logging.Handler):
    def __init__(self, tracer):
        super().__init__(logging.WARNING)
        self.tracer = tracer

    def emit(self, record):
        if record.getMessage().startswith("sampling aborted"):
            self.tracer.counts["expr.sampling_aborts"] += 1


class Tracer:
    """Installs the wrappers and collects one job's spans at a time."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.counts = Counter()
        self._saved = []
        self._handler = _AbortCounter(self)

    # -- wrappers -------------------------------------------------------

    def _layer(self, fn, name):
        spans, stack = self.spans, self.stack

        def wrapper(*args, **kwargs):
            span = Span(name, stack[-1], perf_counter())
            spans.append(span)
            stack.append(len(spans) - 1)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = perf_counter()
                stack.pop()
                spans[stack[-1]].child += span.end - span.start
            if name in KEEP_RESULT:
                span.result = result
            return result
        return wrapper

    def _leaf(self, fn, name):
        spans, stack, counts = self.spans, self.stack, self.counts
        verdicts = name == "expr.equals"

        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                parent = spans[stack[-1]]
                parent.child += dt
                acc = parent.leaves.get(name)
                if acc is None:
                    parent.leaves[name] = [1, dt]
                else:
                    acc[0] += 1
                    acc[1] += dt
            if verdicts:
                counts[result.value] += 1
            return result
        return wrapper

    def install(self):
        """Wrap every entry point the tree has; return the ones it lacks,
        whose metrics then read 0."""
        missing = []
        for table, make in ((LAYER_SPANS, self._layer),
                            (LEAF_SPANS, self._leaf)):
            for mod, attr, name in table:
                module = importlib.import_module(f"lagrforge.{mod}")
                fn = getattr(module, attr, None)
                if fn is None:
                    missing.append(f"lagrforge.{mod}.{attr}")
                    continue
                self._saved.append((module, attr, fn))
                setattr(module, attr, make(fn, name))
        logging.getLogger("lagrforge.expr").addHandler(self._handler)
        return missing

    def uninstall(self):
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)
        logging.getLogger("lagrforge.expr").removeHandler(self._handler)

    # -- one job --------------------------------------------------------

    def begin_job(self):
        self.spans.clear()
        self.counts.clear()
        self.spans.append(Span(ROOT, None, perf_counter()))
        self.stack[:] = [0]

    def end_job(self):
        """Close the root span and return (spans, counts) of the job."""
        self.spans[0].end = perf_counter()
        self.stack.clear()
        spans, counts = list(self.spans), Counter(self.counts)
        self.spans.clear()
        return spans, counts


def job_layers(spans, counts) -> dict:
    """Per-layer numbers of one traced job: self seconds and call counts
    per span, plus the sizes read from the results the spans kept."""
    out = Counter()
    for span in spans:
        name = span.name
        if span.parent is not None:
            name = NESTED.get((spans[span.parent].name, name), name)
        out[f"{SELF_NAMES.get(name, name)}_s"] += span.self_time
        out[f"{name}_calls"] += 1
        out[f"{name}_incl_s"] += span.end - span.start
        for leaf, (calls, seconds) in span.leaves.items():
            out[f"{leaf}_s"] += seconds
            out[f"{leaf}_calls"] += calls
            if span.name == "verify.orbit" and leaf == "expr.eval_numeric":
                out["verify.orbit_evals"] += calls
        if span.name == "verify.degeneracy" and span.error == "ValueError":
            out["verify.degeneracy_skipped"] += 1
        result, span.result = span.result, None
        if result is None:
            continue
        if span.name == "solver.solve_family":
            system = result.system
            out["solver.unknowns"] += len(system.columns)
            out["solver.rows"] += len(system.rows)
            out["solver.cells"] += len(system.rows) * len(system.columns)
            # rows are dense lists today; a sparse {column: value} row
            # is counted the same way
            out["solver.nnz"] += sum(
                1 for row in system.rows
                for v in (row.values() if isinstance(row, dict) else row)
                if v)
            out["solver.rank"] += system.rank
            out["solver.dimension"] += result.dimension
        elif span.name == "dsl.validate_axioms":
            for c in result.checks:
                out[f"dsl.axioms_{c.verdict.lower()}"] += 1
        elif span.name == "verify.orbit":
            out["verify.orbit_steps"] += result.steps
    out["expr.equals.proved"] += counts["ProvedEqual"]
    out["expr.equals.numeric"] += counts["NumericallyEqual"]
    out["expr.equals.unequal"] += counts["ProvedUnequal"]
    out["expr.sampling_aborts"] += counts["expr.sampling_aborts"]
    return out
