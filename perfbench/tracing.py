"""Spans around the calls into each layer of ``tracebracket``, recorded from
outside the package by rebinding module globals, plus the rings
micro-measurement.

A layer is a module of ``src/tracebracket``.  A wrapped function opens a
span only when it is entered from another layer (or from the benchmark), so
recursion and calls inside one module cost no spans and their time stays
with the outermost call.  Spans are kept in memory as
(name, start, end, parent, job) and reduced to self time per span name when
the run ends: a span's self time is its duration minus its children's.
"""
from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict
from statistics import median
from typing import Callable, Dict, List, Optional, Tuple

_now = time.perf_counter


# (module, function, span name, counter or None, opens spans)
# A counter maps (args, result) to increments of the work counts.
SPECS: List[Tuple[str, str, str, Optional[Callable], bool]] = [
    ("cli", "main", "cli", None, True),
    ("biquandle", "parse_biquandle", "biquandle.load", None, True),
    ("biquandle", "biquandle_from_spec", "biquandle.load", None, True),
    ("diagram", "parse_diagram", "diagram.load",
     lambda a, r: {"diagram.crossings": len(r.crossings)}, True),
    ("diagram", "validate_diagram", "diagram.load", None, True),
    ("coloring", "enumerate_colorings", "coloring.enumerate",
     lambda a, r: {"coloring.calls": 1, "coloring.colorings": len(r)}, True),
    ("bracket", "parse_bracket", "bracket.load", None, True),
    ("bracket", "state_sum", "bracket.state_sum",
     lambda a, r: {"bracket.state_sums": 1, "bracket.states": 2 ** len(a[0].crossings)}, True),
    ("bracket", "verify_bracket", "bracket.verify", None, True),
    ("bracket", "classify_adequacy", "bracket.classify", None, True),
    ("search", "search_brackets", "search", None, True),
    ("trace", "parse_trace_diagram", "trace.load", None, True),
    ("trace", "evaluate_recursive", "trace.eval.full",
     lambda a, r: {"trace.leaves": 2 ** len(a[0].crossings())}, True),
    ("trace", "evaluate_recursive_parity", "trace.eval.parity_stop", None, True),
    ("trace", "evaluate_by_parity", "trace.eval.parity", None, True),
    ("trace", "magnetic_parity", "trace.parity_walk", None, True),
    ("trace", "diagrammatic_adequacy", "trace.move_check", None, True),
    ("trace", "diagrammatic_passthrough", "trace.move_check", None, True),
    ("trace", "trace_move_fixture_check", "", lambda a, r: {"trace.move_checks": 1}, False),
]

# per-layer metric name -> span name whose self time it reports
SELF_TIME_METRICS = {
    "cli.self_s": "cli",
    "biquandle.load_s": "biquandle.load",
    "diagram.load_s": "diagram.load",
    "coloring.enumerate_s": "coloring.enumerate",
    "bracket.load_s": "bracket.load",
    "bracket.state_sum_s": "bracket.state_sum",
    "bracket.verify_s": "bracket.verify",
    "bracket.classify_s": "bracket.classify",
    "search.s": "search",
    "trace.load_s": "trace.load",
    "trace.eval_s.full": "trace.eval.full",
    "trace.eval_s.parity_stop": "trace.eval.parity_stop",
    "trace.eval_s.parity": "trace.eval.parity",
    "trace.parity_walk_s": "trace.parity_walk",
    "trace.move_check_s": "trace.move_check",
}
COUNT_METRICS = ("diagram.crossings", "coloring.calls", "coloring.colorings",
                 "bracket.state_sums", "bracket.states", "search.emitted",
                 "trace.leaves", "trace.move_checks")



RING_METRICS = ("rings.op_ns.mod", "rings.op_ns.laurent")


def per_layer_names() -> list:
    """Every metric a traced run reports."""
    return [*SELF_TIME_METRICS, *COUNT_METRICS, *RING_METRICS, "tracing_overhead_s"]


def unit_of(metric: str) -> str:
    if metric in COUNT_METRICS:
        return "count"
    return "ns" if metric.startswith("rings.op_ns") else "s"


class Tracer:
    """Records spans while installed; ``install``/``uninstall`` rebind the
    wrapped functions in every loaded ``tracebracket`` module."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self.starts: List[float] = []
        self.ends: List[float] = []
        self.parents: List[int] = []
        self.jobs: List[str] = []
        self.stack: List[int] = []
        self.layers: List[str] = []
        self.counts: Counter = Counter()
        self.job = ""
        self._rebound: List[Tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def open(self, name: str) -> int:
        i = len(self.names)
        self.names.append(name)
        self.layers.append(name.split(".", 1)[0])
        self.parents.append(self.stack[-1] if self.stack else -1)
        self.jobs.append(self.job)
        self.ends.append(0.0)
        self.stack.append(i)
        self.starts.append(_now())
        return i

    def close(self, i: int) -> None:
        self.ends[i] = _now()
        self.stack.pop()

    def _enters_layer(self, layer: str) -> bool:
        return not self.stack or self.layers[self.stack[-1]] != layer

    def self_times(self) -> Dict[str, float]:
        own = [e - s for s, e in zip(self.starts, self.ends)]
        for i, p in enumerate(self.parents):
            if p >= 0:
                own[p] -= self.ends[i] - self.starts[i]
        out: Dict[str, float] = defaultdict(float)
        for name, t in zip(self.names, own):
            out[name] += t
        return out

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, orig, name: str, count, opens: bool):
        tracer = self
        layer = name.split(".", 1)[0]

        def add(args, result):
            for k, v in count(args, result).items():
                tracer.counts[k] += v

        if not opens:
            def counted(*args, **kwargs):
                result = orig(*args, **kwargs)
                add(args, result)
                return result
            return counted

        if name == "search":
            # search_brackets is a generator: one span per resumption keeps
            # the caller's work between items out of the search layer
            def generator(*args, **kwargs):
                inner = orig(*args, **kwargs)
                while True:
                    i = tracer.open(name)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        tracer.close(i)
                    tracer.counts["search.emitted"] += 1
                    yield item
            return generator

        def wrapper(*args, **kwargs):
            if not tracer._enters_layer(layer):
                return orig(*args, **kwargs)
            i = tracer.open(name)
            try:
                result = orig(*args, **kwargs)
            finally:
                tracer.close(i)
            if count is not None:
                add(args, result)
            return result
        return wrapper

    def install(self) -> None:
        mods = {k: v for k, v in sys.modules.items()
                if k == "tracebracket" or k.startswith("tracebracket.")}
        for mod_name, func, span, count, opens in SPECS:
            orig = getattr(mods[f"tracebracket.{mod_name}"], func)
            wrapped = self._wrap(orig, span, count, opens)
            for mod in mods.values():
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        self._rebound.append((mod, attr, orig))
                        setattr(mod, attr, wrapped)

    def uninstall(self) -> None:
        for mod, attr, orig in reversed(self._rebound):
            setattr(mod, attr, orig)
        self._rebound.clear()

    def layer_metrics(self, scale: float = 1.0) -> Dict[str, float]:
        """Self times, multiplied by ``scale``, and work counts."""
        times = self.self_times()
        out = {metric: times.get(span, 0.0) * scale for metric, span in SELF_TIME_METRICS.items()}
        out.update({metric: self.counts.get(metric, 0) for metric in COUNT_METRICS})
        return out


def ring_op_ns(tables: List[Tuple[tuple, tuple]], batches: int = 7,
               ops_per_batch: int = 20000) -> float:
    """Median ns for one multiply and one compare, ``a * b == c``, with the
    operands drawn from the given (A, B) coefficient tables; 0.0 without any.
    """
    triples = []
    for A, B in tables:
        entries = [e for row in A + B for e in row]
        for a in entries:
            for b in entries:
                triples.append((a, b, a * b))
    if not triples:
        return 0.0
    work = (triples * (ops_per_batch // len(triples) + 1))[:ops_per_batch]
    per_op = []
    for _ in range(batches):
        t0 = _now()
        for a, b, c in work:
            a * b == c
        per_op.append((_now() - t0) / len(work) * 1e9)
    return median(per_op)
