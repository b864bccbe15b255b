"""Per-layer tracing of ``contactpairs`` from outside the package.

``install()`` wraps the public boundary functions of each module.  A wrapped
call records a span (layer, start, end, parent span); the two hottest
constructors are counted only.  Modules bind names with ``from .x import y``,
so a function wrapper is installed at every binding site in every loaded
``contactpairs`` module, not only in the defining one.

Spans stay in memory; ``Tracer.summary()`` turns them into per-layer self
times (a span's duration minus its child spans) and call counts, and
``Tracer.dump()`` writes them out once, at the end of the traced item.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import Counter

# layer -> boundaries, each "module:attribute" or "module:Class.attribute"
SPANS = {
    "algebra.inverse": ("algebra:RfMatrix.inverse",),
    "algebra.det": ("algebra:RfMatrix.det",),
    "algebra.gcd": ("algebra:poly_gcd",),
    "algebra.generic_rank": ("algebra:generic_rank",),
    "algebra.solve": ("algebra:solve_linear_exact",),
    "algebra.kernel_basis": ("algebra:kernel_basis",),
    "exterior.d": ("exterior:Form.d",),
    "exterior.wedge": (
        "exterior:Form.wedge",
        "exterior:Form.wedge_power",
        "exterior:FrameForm.wedge",
        "exterior:FrameForm.wedge_power",
    ),
    "exterior.lie_derivative": ("exterior:lie_derivative",),
    "exterior.bracket": ("exterior:bracket",),
    "pair.dalpha": ("pair:ContactPair.dalpha",),
    "pair.verify_contact_pair": ("pair:verify_contact_pair",),
    "pair.verified_pair": ("pair:verified_pair",),
    "pair.verify_splittings": ("pair:verify_splittings",),
    "structure.verify_structure": ("structure:verify_structure",),
    "structure.is_decomposable": ("structure:is_decomposable",),
    "metric.is_compatible": ("metric:is_compatible",),
    "metric.is_associated": ("metric:is_associated",),
    "metric.orthogonal": ("metric:are_foliations_orthogonal",),
    "metric.killing": ("metric:killing_check",),
    "metric.leaves": ("metric:verify_restricted_contact_metric",),
    "metric.build_compatible": ("metric:build_compatible",),
    "metric.polarization": ("metric:build_associated_by_polarization",),
    "connection.christoffel": ("connection:christoffel",),
    "connection.reeb_geodesy": ("connection:reeb_geodesy",),
    "connection.rk4": ("connection:numeric_geodesic_residual",),
    "fixtures.load": ("fixtures:load_fixture",),
    "expressions.parse": ("expressions:parse_expression",),
    "report.render": ("report:render_report",),
}
# layer -> constructor, counted without a span
COUNTS = {
    "algebra.ratfun_new": "algebra:RatFun.__init__",
    "algebra.poly_const_new": "algebra:Poly.const",
}
# The verb's report before and after the verb keeps the verdicts it asked for.
VERDICT_FILTER = "cli:_filter_report"

PACKAGE = "contactpairs"


class Tracer:
    def __init__(self):
        self.spans: list = []  # [layer, start, end, parent index]
        self.stack: list[int] = []
        self.counts: Counter = Counter()

    def span(self, layer: str, fn):
        spans, stack = self.spans, self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = [layer, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(record)
            record[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()

        return wrapper

    def count(self, layer: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[layer] += 1
            return fn(*args, **kwargs)

        return wrapper

    def verdict_filter(self, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(report, verb):
            counts["cli.verdicts_computed"] += len(report.verdicts)
            kept = fn(report, verb)
            counts["cli.verdicts_reported"] += len(kept.verdicts)
            return kept

        return wrapper

    def summary(self) -> dict:
        """Per-layer self seconds and call counts, plus the raw counters."""
        child = [0.0] * len(self.spans)
        for layer, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_s: Counter = Counter()
        calls: Counter = Counter()
        for (layer, start, end, _), inner in zip(self.spans, child):
            self_s[layer] += end - start - inner
            calls[layer] += 1
        out = {f"{layer}_s": self_s[layer] for layer in SPANS}
        out.update({f"{layer}_calls": calls[layer] for layer in SPANS})
        out.update({layer: self.counts[layer] for layer in COUNTS})
        for key in ("cli.verdicts_computed", "cli.verdicts_reported"):
            out[key] = self.counts[key]
        out["trace.spans"] = len(self.spans)
        return out

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["layer", "start", "end", "parent"], "spans": self.spans}, fh)


def _resolve(boundary: str):
    """(owner, attribute, raw object) of a boundary "module:[Class.]name"."""
    module_name, path = boundary.split(":")
    owner = importlib.import_module(f"{PACKAGE}.{module_name}")
    *classes, attr = path.split(".")
    for name in classes:
        owner = getattr(owner, name)
    if classes:
        raw = owner.__dict__.get(attr)
    else:
        raw = getattr(owner, attr, None)
    if raw is None:
        raise LookupError(f"boundary {boundary} is missing")
    return owner, attr, raw


def _install(boundary: str, wrap) -> None:
    owner, attr, raw = _resolve(boundary)
    if isinstance(owner, type):
        if isinstance(raw, classmethod):
            setattr(owner, attr, classmethod(wrap(raw.__func__)))
        else:
            setattr(owner, attr, wrap(raw))
        return
    wrapper = wrap(raw)
    for name, module in list(sys.modules.items()):
        if module is None or not (name == PACKAGE or name.startswith(PACKAGE + ".")):
            continue
        for key, value in list(vars(module).items()):
            if value is raw:
                setattr(module, key, wrapper)


def check_boundaries() -> None:
    """Raise LookupError when a boundary the tracer wraps no longer exists."""
    for boundaries in SPANS.values():
        for boundary in boundaries:
            _resolve(boundary)
    for boundary in (*COUNTS.values(), VERDICT_FILTER):
        _resolve(boundary)


def install() -> Tracer:
    """Wrap every boundary of the loaded package and return the tracer."""
    tracer = Tracer()
    for layer, boundaries in SPANS.items():
        for boundary in boundaries:
            _install(boundary, functools.partial(tracer.span, layer))
    for layer, boundary in COUNTS.items():
        _install(boundary, functools.partial(tracer.count, layer))
    _install(VERDICT_FILTER, tracer.verdict_filter)
    return tracer
