"""In-memory spans at the eulersum layer boundaries, and the per-layer metrics
computed from them.

The benchmark wraps the package's public callables from the outside; nothing
under ``src/`` is changed.  A span is a list
``[name, ident, start_ns, end_ns, parent, case, count]``: ``ident`` is the
catalog id for the three ``Identity.*`` spans, ``parent`` the index of the
enclosing span (-1 at top level), ``case`` the per-case index set by the
workload loop, and ``count`` the terms or nodes a series or quadrature call
used.
"""
from __future__ import annotations

import dataclasses
import json
import math
import time

NAME, IDENT, START, END, PARENT, CASE, COUNT = range(7)

# How each identity's oracle computes its value.  Kept here rather than read
# from EvalResult.method: catalog._gf_oracle reports Method.TRUNCATED and
# work=60000 for every direct-sum generating-function oracle, whatever it summed.
ORACLE_KIND = {i: "series" for i in (
    "eq1.27", "eq1.28", "eq2.9", "eq2.13", "eq2.14", "eq2.18", "eq2.19", "eq2.20",
    "eq2.21", "eq2.22", "eq2.27", "eq2.28", "eq2.29", "eq2.36", "eq2.37", "eq3.9",
    "eq3.11", "eq3.13", "eq3.15", "eq3.16", "w110", "w111", "eq4.2", "eq4.3",
    "eq4.5", "eq4.7", "eq4.10", "eq4.11", "eq4.12", "eq4.13")}
ORACLE_KIND.update({i: "quad" for i in ("eq2.2", "eq1.19", "eq1.23")})
ORACLE_KIND.update({i: "gf" for i in ("eq1.24", "eq1.25", "eq1.29", "eq1.30", "eq1.31",
                                      "eq2.25")})

# The module that owns each identity's closed form; "catalog" marks the printed
# integer-shift displays implemented in catalog.py itself.
CLOSED_OWNER = {i: "linear_sums" for i in (
    "eq1.27", "eq1.28", "eq2.9", "eq2.13", "eq2.14", "eq2.20", "eq2.22", "eq2.27",
    "eq2.28", "eq2.29", "eq2.36", "eq2.37", "eq1.19", "eq1.23", "eq1.24", "eq1.25",
    "eq1.29", "eq1.30", "eq1.31", "eq2.25")}
CLOSED_OWNER.update({i: "alt_sums" for i in ("eq4.2", "eq4.3", "eq4.7")})
CLOSED_OWNER.update({i: "wsums" for i in (
    "eq3.9", "eq3.11", "eq3.13", "eq3.15", "eq3.16", "w110", "w111", "eq4.5",
    "eq4.12", "eq4.13")})
CLOSED_OWNER.update({"eq2.2": "harmonic"})
CLOSED_OWNER.update({i: "catalog" for i in ("eq2.18", "eq2.19", "eq2.21", "eq4.10",
                                            "eq4.11")})
OWNER_METRIC = {
    "linear_sums": "linear_sums.closed_ms",
    "alt_sums": "alt_sums.closed_ms",
    "wsums": "wsums.closed_ms",
    "harmonic": "harmonic.closed_ms",
    "catalog": "catalog.display_ms",
}


class Tracer:
    """Records spans around wrapped callables; one per traced process."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.case = -1

    def wrap(self, name, fn, ident=None, count=None):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            rec = [name, ident, clock(), 0, stack[-1] if stack else -1, self.case, 0]
            stack.append(len(spans))
            spans.append(rec)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                rec[END] = clock()
                stack.pop()
                if count is not None:
                    rec[COUNT] = count(args, kwargs, result)

        return traced

    def reset(self) -> None:
        self.spans.clear()     # in place: the wrappers hold this list
        self._stack.clear()
        self.case = -1


def write_spans(path: str, spans: list[list]) -> None:
    keys = ("name", "ident", "start_ns", "end_ns", "parent", "case", "count")
    with open(path, "w", encoding="utf-8") as fh:
        for rec in spans:
            fh.write(json.dumps(dict(zip(keys, rec))) + "\n")


def _series_terms(args, kwargs, result):
    # the series sums every term up to max_terms before it certifies, so the
    # work is known even when it raises
    config = kwargs.get("config", args[1] if len(args) > 1 else None)
    return int(config.max_terms)


def _quad_nodes(args, kwargs, result):
    return int(result.work) if result is not None else 0


def instrument(tracer: Tracer) -> None:
    """Patch the layer boundaries of the imported eulersum package in place."""
    from eulersum import catalog, linear_sums, oracle

    for ident_id, ident in list(catalog.CATALOG.items()):
        catalog.CATALOG[ident_id] = dataclasses.replace(
            ident,
            validate=tracer.wrap("Identity.validate", ident.validate, ident_id),
            closed=tracer.wrap("Identity.closed", ident.closed, ident_id),
            oracle=tracer.wrap("Identity.oracle", ident.oracle, ident_id),
        )
    catalog.truncated_series = tracer.wrap(
        "truncated_series", catalog.truncated_series, count=_series_terms)
    quad = tracer.wrap("quadrature", oracle.quadrature, count=_quad_nodes)
    catalog.quadrature = quad
    oracle.quadrature = quad          # linear_sums imports it from oracle at call time
    linear_sums.gf_two_sided = tracer.wrap("gf_two_sided", linear_sums.gf_two_sided)
    linear_sums.sum_shiftedH_over_nsq = tracer.wrap(
        "sum_shiftedH_over_nsq", linear_sums.sum_shiftedH_over_nsq)


def _has_ancestor(spans, rec, name) -> bool:
    p = rec[PARENT]
    while p >= 0:
        if spans[p][NAME] == name:
            return True
        p = spans[p][PARENT]
    return False


def summarize(spans: list[list]) -> dict[str, float]:
    """Per-layer totals for one traced run (times in ms unless named otherwise)."""
    ms = 1e-6
    dur = [r[END] - r[START] for r in spans]
    child = [0] * len(spans)
    for i, r in enumerate(spans):
        if r[PARENT] >= 0:
            child[r[PARENT]] += dur[i]

    def total(pred):
        return sum(d for r, d in zip(spans, dur) if pred(r))

    def count(pred):
        return sum(1 for r in spans if pred(r))

    series = lambda r: r[NAME] == "truncated_series"  # noqa: E731
    quad = lambda r: r[NAME] == "quadrature" and _has_ancestor(spans, r, "Identity.oracle")  # noqa: E731
    series_ns = total(series)
    series_terms = sum(r[COUNT] for r in spans if series(r))
    out = {
        "oracle.series.ms": series_ns * ms,
        "oracle.series.terms": series_terms,
        "oracle.series.calls": count(series),
        "oracle.series.ns_per_term": series_ns / series_terms if series_terms else 0.0,
        "oracle.quad.ms": total(quad) * ms,
        "oracle.quad.nodes": sum(r[COUNT] for r in spans if quad(r)),
        "oracle.quad.calls": count(quad),
        "oracle.gf.ms": total(lambda r: r[NAME] == "Identity.oracle"
                              and ORACLE_KIND[r[IDENT]] == "gf") * ms,
        "oracle.driver.self_ms": sum(d - c for r, d, c in zip(spans, dur, child)
                                     if r[NAME] == "verify_identity") * ms,
        "catalog.validate.ms": total(lambda r: r[NAME] == "Identity.validate") * ms,
        "catalog.closed.ms": total(lambda r: r[NAME] == "Identity.closed") * ms,
        "linear_sums.sum_shiftedH_over_nsq.ms":
            total(lambda r: r[NAME] == "sum_shiftedH_over_nsq") * ms,
        "linear_sums.gf_two_sided.calls": count(lambda r: r[NAME] == "gf_two_sided"),
        "linear_sums.gf_two_sided.ms": total(lambda r: r[NAME] == "gf_two_sided") * ms,
    }
    for metric in OWNER_METRIC.values():
        out[metric] = 0.0
    for ident in sorted(ORACLE_KIND):
        out[f"id.{ident}.closed_ms"] = 0.0
        out[f"id.{ident}.oracle_ms"] = 0.0
    for r, d in zip(spans, dur):
        if r[NAME] == "Identity.closed":
            out[OWNER_METRIC[CLOSED_OWNER[r[IDENT]]]] += d * ms
            out[f"id.{r[IDENT]}.closed_ms"] += d * ms
        elif r[NAME] == "Identity.oracle":
            out[f"id.{r[IDENT]}.oracle_ms"] += d * ms

    # cli: self time is cli.main minus its per-case children; the report time
    # is what cli.main spends after the last case returns (JSON file + console)
    mains = [i for i, r in enumerate(spans) if r[NAME] == "cli.main"]
    cases = [r for r in spans if r[NAME] == "verify_identity"]
    out["cli.self_ms"] = sum(dur[i] - child[i] for i in mains) * ms
    out["cli.report_ms"] = (
        sum(spans[i][END] for i in mains) - max(r[END] for r in cases)
    ) * ms if mains and cases else 0.0
    return out


def bound_over_target_max(bounds, tol_of) -> float:
    """Largest certified oracle bound divided by the oracle target tol/10.

    ``bounds`` holds (identity id, oracle_error_bound) pairs; INCONCLUSIVE
    records carry an infinite bound and are skipped.
    """
    worst = 0.0
    for ident, bound in bounds:
        if math.isfinite(bound):
            worst = max(worst, bound / (tol_of(ident) / 10.0))
    return worst
