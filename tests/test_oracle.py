"""Oracle engines: truncated summation, tanh-sinh quadrature, and the
verification driver's status logic."""
import ast
import dataclasses
import functools
import inspect
import math
import os
import pathlib
import subprocess
import sys
import time
import tracemalloc
import warnings

import numpy as np
import pytest

from eulersum import (
    ConvergenceError,
    DomainError,
    EvalResult,
    IdentityCase,
    Integrand,
    LN2,
    SeriesConfig,
    Status,
    Summand,
    Variant,
    grid_verify,
    quadrature,
    riemann_zeta,
    truncated_series,
    verify_identity,
)
from eulersum import catalog
from eulersum import oracle as oracle_mod


def test_series_config_guards():
    with pytest.raises(DomainError):
        SeriesConfig(max_terms=5)
    with pytest.raises(DomainError):
        SeriesConfig(min_terms=5)
    with pytest.raises(DomainError):
        SeriesConfig(target_tol=0.0)
    cfg = SeriesConfig()
    assert cfg.max_terms == 10**6 and cfg.min_terms == 4096 and cfg.target_tol == 1e-9


def test_eval_result_guard():
    with pytest.raises(DomainError):
        EvalResult(value=1.0, abs_error_estimate=-1.0, method="closed", work=0)


def test_truncated_basel():
    cfg = SeriesConfig(target_tol=1e-12)
    res = truncated_series(Summand(den=((0, 2),)), cfg)
    assert abs(res.value - riemann_zeta(2)) <= 1e-12
    assert res.abs_error_estimate <= 1e-12
    assert res.work < 10**6


def test_truncated_known_window():
    cfg = SeriesConfig(target_tol=1e-9)
    res = truncated_series(Summand((1,), ((1.0, 1), (2.0, 1))), cfg)
    assert abs(res.value - 1.0) <= 1e-9


def test_truncated_rejects_divergent():
    cfg = SeriesConfig()
    with pytest.raises(ConvergenceError):
        truncated_series(Summand(den=((0, 1),)), cfg)


_HONEST_SHAPES = [
    (Summand(den=((0, 2),)), riemann_zeta(2)),
    (Summand((1,), ((1.0, 1), (2.0, 1))), 1.0),
    (Summand((1,), ((1.0, 2),)), riemann_zeta(3)),
    (Summand((1,), ((1.0, 1), (2.0, 1)), alternating=True), 2.0 * LN2 - 1.0),
]


def test_truncated_error_estimate_is_honest():
    # true error must sit inside the reported estimate on assorted shapes; at
    # 1e-13 the float64 roundoff bound is a large part of the estimate
    cfg = SeriesConfig(target_tol=1e-6)
    for summand, truth in _HONEST_SHAPES:
        res = truncated_series(summand, cfg)
        assert abs(res.value - truth) <= res.abs_error_estimate
    # sum 1/(n^2 (n+1)) = zeta(2) - 1
    tight = SeriesConfig(target_tol=1e-13)
    for summand, truth in _HONEST_SHAPES + [(Summand(den=((0, 2), (1, 1))),
                                             riemann_zeta(2) - 1.0)]:
        res = truncated_series(summand, tight)
        assert abs(res.value - truth) <= res.abs_error_estimate <= 1e-13


def _harmonic_ref(n: int, m: int, alternating: bool):
    # H_n^(m) and H-bar_n^(m) at 40 digits from zeta and digamma values
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        if not alternating:
            return float(mpmath.harmonic(n) if m == 1 else mpmath.zeta(m) - mpmath.zeta(m, n + 1))
        lo, hi = mpmath.mpf(n + 1) / 2, mpmath.mpf(n + 2) / 2
        if m == 1:
            return float(mpmath.log(2) - (-1) ** n * (mpmath.digamma(hi) - mpmath.digamma(lo)) / 2)
        return float(mpmath.altzeta(m) - (-1) ** n * (mpmath.zeta(m, lo) - mpmath.zeta(m, hi)) / 2 ** m)


@pytest.mark.parametrize("alternating", [False, True])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_float64_harmonic_numerators_within_4_ulp(m, alternating):
    # the longdouble running sums, rounded once, across block boundaries
    # (2048 | 2049) and up to 10^6
    summand = Summand(orders=(m,), alternating=alternating)
    at = (1, 2048, 2049, 4096, 10**6)
    prefix = {m: np.longdouble(0.0)}
    got = {}
    for start in range(1, at[-1] + 1, oracle_mod._CHUNK):
        ns = np.arange(start, min(start + oracle_mod._CHUNK, at[-1] + 1), dtype=np.int64)
        h = oracle_mod._block_terms(summand, ns, prefix)
        assert h.dtype == np.float64
        got.update((n, h[n - start]) for n in at if start <= n <= ns[-1])
    for n in at:
        want = _harmonic_ref(n, m, alternating)
        assert abs(got[n] - want) <= 4 * np.spacing(want), (n, got[n], want)


def test_float64_terms_overflow_and_underflow_without_warnings():
    # the block's float64 arithmetic may overflow or underflow and must stay
    # silent: pyproject.toml turns a RuntimeWarning into an error.  Sixty
    # divisions in the reciprocal binomial; (n + 10^4)^80 overflows at every
    # n, so every term reads 0 and the bound is the per-term allowance
    for summand in (Summand((1, 1), binom=(60, 0.5)), Summand((1,), ((1e4, 80),))):
        res = truncated_series(summand, SeriesConfig())
        assert math.isfinite(res.value) and res.abs_error_estimate > 0
    # (n + 1/2)^200 overflows in the block from n = 35; then the tail model's
    # 4093.0**200 overflows as a Python float, as it did when the terms were
    # longdouble (the catalog reports it as a DomainError, exit 2 in the CLI)
    with pytest.raises(OverflowError):
        truncated_series(Summand((1,), ((0.5, 200),)), SeriesConfig())


def test_truncated_adaptive_doubling():
    # N doubles from min_terms and stops at the first certified N; a cap
    # below that N raises instead of returning an uncertified value
    for min_terms, tol in ((4096, 1e-10), (1000, 1e-12)):
        cfg = SeriesConfig(min_terms=min_terms, target_tol=tol)
        for summand, truth in _HONEST_SHAPES:
            res = truncated_series(summand, cfg)
            ratio = res.work // min_terms
            assert res.work == min_terms * ratio and ratio & (ratio - 1) == 0
            assert res.abs_error_estimate <= tol
            assert abs(res.value - truth) <= res.abs_error_estimate
            if res.work > min_terms:
                capped = SeriesConfig(min_terms=min_terms, max_terms=res.work // 2,
                                      target_tol=tol)
                with pytest.raises(ConvergenceError):
                    truncated_series(summand, capped)


def test_truncated_doubling_self_consistency():
    # the chosen N and a run forced to start at twice it agree within the
    # combined reported estimates
    summand = Summand((1, 1), ((0.5, 1), (2.5, 1)))
    r1 = truncated_series(summand, SeriesConfig(target_tol=1e-6))
    r2 = truncated_series(summand, SeriesConfig(min_terms=2 * r1.work, target_tol=1e-6))
    assert r2.work == 2 * r1.work
    assert abs(r1.value - r2.value) <= r1.abs_error_estimate + r2.abs_error_estimate


def test_truncated_block_size_moves_values_only_by_roundoff(monkeypatch):
    # the blocks are small to keep their arrays in the malloc heap; the work
    # is the same at the old 2^20 and the new block size, and the values
    # differ only in the float64 block sums' roundoff, far inside the
    # certified bound
    cfg = SeriesConfig(min_terms=10_000, target_tol=1e-10)
    chunk = oracle_mod._CHUNK
    small = [truncated_series(summand, cfg) for summand, _ in _HONEST_SHAPES]
    monkeypatch.setattr(oracle_mod, "_CHUNK", 1 << 20)
    large = [truncated_series(summand, cfg) for summand, _ in _HONEST_SHAPES]
    for s, g in zip(small, large):
        assert s.work == g.work and s.work // 2 > chunk
        assert abs(s.value - g.value) <= 1e-3 * g.abs_error_estimate
        assert s.abs_error_estimate == pytest.approx(g.abs_error_estimate, rel=1e-6)


def test_quadrature_values():
    res = quadrature(Integrand.LOG_POW_MOMENT, {"a": 1.0, "m": 2}, tol=1e-12)
    assert abs(res.value - 2.0) <= 1e-12
    res = quadrature(Integrand.LOG_POW_MOMENT, {"a": 2.0, "m": 1}, tol=1e-12)
    assert abs(res.value + 0.75) <= 1e-12


def test_quadrature_guards():
    with pytest.raises(DomainError):
        quadrature(Integrand.LOG_POW_MOMENT, {"a": 1.0, "m": 2}, tol=1e-14)
    with pytest.raises(DomainError):
        quadrature(Integrand.LOG_POW_MOMENT, {"a": -1.0, "m": 2})
    with pytest.raises(DomainError):
        quadrature("no_such_integrand", {})
    # a missing key, a non-numeric a, an m that is not an integer (a bool is
    # not one), an a past the float range
    for params in ({"a": 1.0}, {"a": "x", "m": 2}, {"a": 1.0, "m": 2.5},
                   {"a": 1.0, "m": True}, {"a": 10**400, "m": 2}):
        with pytest.raises(DomainError, match="a finite number a and an integer m"):
            quadrature(Integrand.LOG_POW_MOMENT, params)


def test_quadrature_non_finite_integrand_is_domain_error():
    # ln(1-x)^-1 divides by 0 at x = 0
    with pytest.raises(DomainError, match="not finite"):
        quadrature(Integrand.LOG_POW_MOMENT, {"a": 1.0, "m": -1})


@pytest.mark.parametrize("a", [0.3, 1.0, 4.0])
@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_log_pow_moment_bound_holds(a, m):
    # int_0^1 x^(a-1) ln^m(1-x) dx is the m-th derivative of B(a, s) at s = 1
    mpmath = pytest.importorskip("mpmath")
    res = quadrature(Integrand.LOG_POW_MOMENT, {"a": a, "m": m})
    with mpmath.workdps(30):
        want = float(mpmath.diff(lambda s: mpmath.beta(a, s), 1, m))
    assert abs(res.value - want) <= res.abs_error_estimate


_LEMMA_POINTS = [(x, n, 2) for x in (0.1, 0.5, 0.85, 0.999) for n in (1, 5)]
_LEMMA_POINTS += [(0.85, 1, 1), (0.85, 5, 3)]


@pytest.mark.parametrize("x, n, m", _LEMMA_POINTS)
def test_lemma_moment_bounds_hold(x, n, m, lemma_moment_ref):
    b = 0.5
    ref = functools.lru_cache(maxsize=None)(lemma_moment_ref)

    # the catalog oracles of eq1.19 (a > 0) and eq1.23 (a = 0) sum the
    # series term by term; the reference takes about 0.4 s at 0.999, so there
    # only the point's own n and m are checked
    moment, zero_moment = catalog.get("eq1.19"), catalog.get("eq1.23")
    cfg = SeriesConfig(target_tol=moment.tol / 10.0)

    def oracle(a, **p):
        return moment.oracle(cfg, a=a, **p) if a else zero_moment.oracle(cfg, **p)

    points = [(nn, mm) for nn in (n, 60) for mm in (1, 2, 3)] if x < 0.99 else [(n, m)]
    for nn, mm in points:
        for a in (0.7, 3.0, 0.0):
            res = oracle(a, x=x, b=b, n=nn, m=mm)
            assert res.method is oracle_mod.Method.TRUNCATED and res.work >= 1
            assert res.abs_error_estimate <= cfg.target_tol / 10.0
            assert abs(res.value - ref(x, nn + b, mm, a=a)) <= \
                res.abs_error_estimate, (nn, mm, a)

    # past the double range: every term underflows, or (k+a)^m overflows,
    # with no numpy warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for a in (0.7, 0.0):
            deep = oracle(a, x=x, b=b, n=10**5, m=m)
            assert deep.abs_error_estimate > 0.0
            if x ** 10**5 == 0.0:
                assert deep.value == 0.0
            try:
                steep = oracle(a, x=x, b=b, n=n, m=400)
            except DomainError:
                continue
            assert abs(steep.value - ref(x, n + b, 400, a=a)) <= \
                steep.abs_error_estimate
    for bad_x in (0.0, -0.5):
        for a in (0.7, 0.0):
            with pytest.raises(DomainError, match="0 < x < 1"):
                oracle(a, x=bad_x, b=b, n=n, m=m)


def test_quadrature_evaluates_each_node_once(monkeypatch):
    # one integrand call per level, no node twice; the nested levels sum to
    # one evaluation of the last level's full rule
    calls = []
    build = oracle_mod._build_integrand

    def counting(integrand_id, params):
        f = build(integrand_id, params)

        def counted(x, omx):
            calls.append(np.column_stack((x, omx)))  # x rounds to 1 where 1-x does not
            return f(x, omx)

        return counted

    monkeypatch.setattr(oracle_mod, "_build_integrand", counting)
    params = catalog.get("eq2.2").grid[0]
    res = oracle_mod.quadrature(Integrand.LOG_POW_MOMENT, params, tol=1e-11)
    assert res.work == 195
    assert [len(c) for c in calls] == [97, 98]
    assert len(np.unique(np.concatenate(calls), axis=0)) == 195

    f = build(Integrand.LOG_POW_MOMENT, params)
    x, omx, w = oracle_mod._tanh_sinh_nodes(4, nested=False)
    assert x.size == 195
    wf = w * f(x, omx)
    flat = math.fsum(wf) / 16.0
    assert abs(res.value - flat) <= 4.0 * np.finfo(float).eps * math.fsum(np.abs(wf)) / 16.0


def test_engine_blocks_do_not_fault_pages_back_in():
    # numpy temporaries of 64 KiB and more can push the malloc heap top past
    # glibc's trim threshold, so free() returns the pages and the next call
    # faults them in again.  A fresh interpreter with no MALLOC_* tuning runs
    # the three engines 20 times after a warm-up: a 32 768-term series, the
    # eq2.2 quadrature and eq1.19's moment series at x = 0.999.  On a 2-vCPU
    # x86-64 host the rounds took 6 or 7 minor faults with the current blocks
    # and about 8 400 with _CHUNK = 2^20.
    pytest.importorskip("resource")
    code = """
import resource
from eulersum import catalog
from eulersum.oracle import SeriesConfig
cfg = SeriesConfig(target_tol=1e-11)
calls = [
    lambda: catalog.get("eq2.13").oracle(cfg, a=0.5, k=3, m=2),
    lambda: catalog.get("eq2.2").oracle(cfg, m=4, a=2.5),
    lambda: catalog.get("eq1.19").oracle(cfg, x=0.999, a=0.5, b=0.5, n=1, m=2),
]
work = [call().work for call in calls]
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(20):
    for call in calls:
        call()
print(work[0], resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""
    src = str(pathlib.Path(oracle_mod.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if not k.startswith("MALLOC_")}
    env["PYTHONPATH"] = src
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    terms, faults = map(int, proc.stdout.split())
    assert terms == 32768
    assert faults < 500


def test_lemma_oracles_near_one():
    # x -> 1: the moment series run long but in bounded blocks
    lemma = catalog.get("eq1.19")
    cfg = SeriesConfig(target_tol=lemma.tol / 10.0)
    params = {"x": 0.999, "a": 0.5, "b": 0.5, "n": 1, "m": 2}
    start = time.perf_counter()
    lemma.oracle(cfg, **params)
    assert time.perf_counter() - start < 0.5
    tracemalloc.start()
    try:
        lemma.oracle(cfg, **params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20
    # closer to 1 the m = 2 power-law bound at the 200 000-term cap, about
    # 1/(2 * 200000^2), misses target/2 = 5e-12
    with pytest.raises(ConvergenceError):
        catalog.get("eq1.23").oracle(cfg, x=0.999999, b=0.5, n=1, m=2)
    # at 0.99999 the power-law tail bound stops both series near 1.5e5 terms;
    # mpmath's default nsum misses these sums by about 6e-9, Euler-Maclaurin
    # (method 'e') does not
    mpmath = pytest.importorskip("mpmath")
    x = 0.99999
    shifted = lemma.oracle(cfg, **dict(params, x=x))
    zero = catalog.get("eq1.23").oracle(cfg, x=x, b=0.5, n=1, m=2)
    for res, a in ((shifted, 0.5), (zero, 0.0)):
        with mpmath.workdps(25):
            xm, am, c = mpmath.mpf(x), mpmath.mpf(a), mpmath.mpf(1.5)
            want = mpmath.nsum(lambda k: xm ** (k + am + c) / ((k + am) ** 2 * (k + am + c)),
                               [1, mpmath.inf], method="e")
        assert abs(res.value - float(want)) <= res.abs_error_estimate


def test_verify_identity_statuses():
    ok = verify_identity(IdentityCase("eq2.13", {"a": 1.0, "k": 1, "m": 1}, tol=1e-8))
    assert ok.status is Status.CONFIRMED
    bad = verify_identity(IdentityCase("eq2.9", {"a": 1.0, "b": 2.0}, tol=1e-8,
                                       variant=Variant.AS_PRINTED))
    assert bad.status is Status.REFUTED
    assert bad.abs_residual == pytest.approx(1.25, abs=1e-9)
    assert bad.oracle_error_bound <= 1e-9
    guard = verify_identity(IdentityCase("eq3.9", {"a": 2.0, "b": 1.0, "k": 1, "p": 1},
                                         tol=1e-8))
    assert guard.status is Status.INCONCLUSIVE
    assert guard.reason.startswith(("DomainError: ", "PoleError: "))
    assert ok.reason == bad.reason == ""
    assert ok.terms >= 4096


def test_verify_unknown_identity_raises():
    with pytest.raises(DomainError):
        verify_identity(IdentityCase("eq9.9", {}, tol=1e-8))


def test_verify_inconclusive_when_oracle_cannot_meet_tol():
    # a tolerance far below what max_terms can certify must never refute
    cfg = SeriesConfig(max_terms=1000)
    rec = verify_identity(
        IdentityCase("eq2.22", {"a": 0.5, "k": 1}, tol=1e-10), cfg)
    assert rec.status is Status.INCONCLUSIVE
    assert rec.reason.startswith("ConvergenceError: ")
    assert "max_terms=1000" in rec.reason


def test_verify_inconclusive_when_oracle_too_loose_to_refute(monkeypatch):
    # a residual over tol with an oracle bound over tol/10 is neither verdict
    ident = catalog.get("eq2.13")
    loose = lambda cfg, **p: EvalResult(value=ident.closed(Variant.CORRECTED, **p) + 1e-3,
                                        abs_error_estimate=1e-4, method="truncated", work=7)
    monkeypatch.setitem(catalog.CATALOG, "eq2.13", dataclasses.replace(ident, oracle=loose))
    rec = verify_identity(IdentityCase("eq2.13", {"a": 1.0, "k": 1, "m": 1}, tol=1e-8))
    assert rec.status is Status.INCONCLUSIVE
    assert rec.terms == 7
    assert "oracle bound 1.000e-04 exceeds tol/10" in rec.reason


def test_grid_verify_order_counts_and_empty():
    assert grid_verify([]).records == ()
    cases = [
        IdentityCase("eq2.13", {"a": 1.0, "k": 1, "m": 1}, tol=1e-7),
        IdentityCase("eq2.9", {"a": 1.0, "b": 2.0}, tol=1e-7, variant=Variant.AS_PRINTED),
        IdentityCase("eq3.9", {"a": 2.0, "b": 1.0, "k": 1, "p": 1}, tol=1e-7),
    ]
    result = grid_verify(cases)
    assert [r.case.identity_id for r in result.records] == ["eq2.13", "eq2.9", "eq3.9"]
    assert (result.confirmed, result.refuted, result.inconclusive) == (1, 1, 1)


def test_verify_determinism():
    case = IdentityCase("eq2.14", {"a": 2.5, "m": 2}, tol=1e-7)
    a = verify_identity(case)
    b = verify_identity(case)
    assert a == b


def test_default_suite_shape():
    cases = catalog.default_cases(variant="both")
    assert 190 <= len(cases) <= 260
    printed = [c for c in cases if c.variant is Variant.AS_PRINTED]
    assert sorted({c.identity_id for c in printed}) == ["eq2.9", "eq3.15", "eq4.2"]
    corrected = [c for c in cases if c.variant is Variant.CORRECTED]
    assert {c.identity_id for c in corrected} >= {
        "eq1.27", "eq1.28", "eq2.13", "eq2.14", "eq2.18", "eq2.19", "eq2.20",
        "eq2.21", "eq2.22", "eq2.27", "eq2.28", "eq2.29", "eq2.36", "eq2.37",
        "eq3.9", "eq3.11", "eq3.13", "eq3.15", "eq3.16", "eq4.3", "eq4.5",
        "eq4.7", "eq4.10", "eq4.11", "eq4.12", "eq4.13",
    }


def test_catalog_validates_grids():
    # every default grid point satisfies its own identity's preconditions
    for ident_id in catalog.ids():
        ident = catalog.get(ident_id)
        for params in ident.grid:
            ident.validate(**params)


def test_oracle_takes_only_constants_and_zeta_values_from_specfun():
    # the oracles share no summation or special-function code with the closed
    # sides, which specfun's evaluators (alternating_sum, polylog, ...) feed
    tree = ast.parse(inspect.getsource(oracle_mod))
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module == "specfun":
                imported += [alias.name for alias in node.names]
            elif node.module is None:
                assert "specfun" not in [alias.name for alias in node.names]
    assert imported
    assert all(name.isupper() or "zeta" in name for name in imported), imported
