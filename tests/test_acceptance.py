"""Acceptance gate: every criterion at its stated tolerance, one printed
pass/fail line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete; the heavy verification suite runs once and is shared between the
criteria that need it.
"""
import math
import sys
import time
from fractions import Fraction

import numpy as np
import pytest

import eulersum as es
from eulersum import catalog
from eulersum.oracle import (
    IdentityCase,
    SeriesConfig,
    Status,
    Variant,
    grid_verify,
    verify_identity,
)

Z2 = es.riemann_zeta(2)
Z3 = es.riemann_zeta(3)


def _report(n, label, ok, detail=""):
    line = f"ACCEPTANCE {n} {label}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    if sys.stdout is not sys.__stdout__ and sys.__stdout__ is not None:
        # keep the line visible even under pytest's capture
        print(line, file=sys.__stdout__)
    assert ok, line


@pytest.fixture(scope="module")
def suite_result():
    # the terms of each truncated series, one entry per Summand part, are
    # recorded through the catalog's module global, which every series
    # oracle calls
    cases = catalog.default_cases(variant="both")
    parts = []
    series = catalog.truncated_series

    def recording(summand, config):
        res = series(summand, config)
        parts.append(res.work)
        return res

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(catalog, "truncated_series", recording)
        start = time.monotonic()
        result = grid_verify(cases, SeriesConfig())
        elapsed = time.monotonic() - start
    return cases, result, elapsed, parts


def test_criterion_1_building_block_exactness():
    start = time.monotonic()
    rng = np.random.default_rng(101)
    ok = True
    # digamma recurrence on 1000 random points
    for x in rng.uniform(0.01, 50.0, size=1000):
        x = float(x)
        if abs(es.digamma(x + 1.0) - es.digamma(x) - 1.0 / x) > 1e-12:
            ok = False
    # polygamma against the shifted-zeta route
    for m in range(1, 7):
        for x in rng.uniform(0.05, 100.0, size=40):
            x = float(x)
            want = (-1.0) ** (m + 1) * math.factorial(m) * es.hurwitz_zeta(m + 1, x)
            if abs(es.polygamma(m, x) - want) > 1e-11 * max(1.0, abs(want)):
                ok = False
    # zeta / shifted-zeta splitting and the window identity for shifted harmonics
    for s in (2, 3, 5, 9, 12):
        for n in (1, 5, 41, 400):
            lhs = es.riemann_zeta(s)
            rhs = es.hurwitz_zeta(s, n + 1.0) + es.harmonic_num(n, s)
            if abs(lhs - rhs) > 1e-11:
                ok = False
        for q in rng.uniform(0.02, 30.0, size=40):
            q = float(q)
            if abs(es.hurwitz_zeta(s, q) - es.hurwitz_zeta(s, q + 1.0) - q**-s) \
                    > 1e-13 * max(1.0, q**-s):
                ok = False
    for _ in range(200):
        alpha = float(rng.uniform(0.01, 5.0))
        n = int(rng.integers(1, 101))
        for m in (2, 3):
            lhs = es.shifted_harmonic(alpha + n, m)
            rhs = es.shifted_harmonic(alpha, m) + es.param_harmonic(n, m, alpha)
            if abs(lhs - rhs) > 1e-12:
                ok = False
    elapsed = time.monotonic() - start
    _report(1, "building-block exactness", ok and elapsed < 5.0,
            f"{elapsed:.2f}s of 5s budget")


def test_criterion_2_y_moment_suite():
    start = time.monotonic()
    worst = 0.0
    for m in (1, 2, 3, 4):
        for a in (0.5, 1.0, 2.5, math.pi):
            quad = es.quadrature(es.Integrand.LOG_POW_MOMENT, {"a": a, "m": m}, tol=1e-12)
            gap = abs(es.y_moment(m, a) - (-1.0) ** m * a * quad.value)
            worst = max(worst, gap)
    elapsed = time.monotonic() - start
    _report(2, "log-power moment recurrence vs quadrature",
            worst <= 1e-10 and elapsed < 2.0,
            f"worst abs gap {worst:.2e}, {elapsed:.2f}s of 2s budget")


def _exact_harm(n, s=1):
    return sum(Fraction(1, j**s) for j in range(1, n + 1))


def _log_series_coeffs(power, n_max):
    base = [Fraction(0)] + [Fraction(1, j) for j in range(1, n_max + 1)]
    coeffs = list(base)
    for _ in range(power - 1):
        out = [Fraction(0)] * (n_max + 1)
        for i in range(1, n_max + 1):
            if coeffs[i]:
                for j in range(1, n_max - i + 1):
                    out[i + j] += coeffs[i] * base[j]
        coeffs = out
    return coeffs


def test_criterion_3_stirling_exactness():
    ok = True
    for n in range(1, 21):
        f = math.factorial(n - 1)
        h1, h2 = _exact_harm(n - 1), _exact_harm(n - 1, 2)
        h3, h4 = _exact_harm(n - 1, 3), _exact_harm(n - 1, 4)
        closed = {
            1: Fraction(f),
            2: f * h1,
            3: Fraction(f, 2) * (h1**2 - h2),
            4: Fraction(f, 6) * (h1**3 - 3 * h1 * h2 + 2 * h3),
            5: Fraction(f, 24) * (h1**4 - 6 * h4 - 6 * h1**2 * h2 + 3 * h2**2 + 8 * h1 * h3),
        }
        for k, want in closed.items():
            if k <= n and Fraction(es.stirling1(n, k)) != want:
                ok = False
    for m in range(0, 5):
        coeffs = _log_series_coeffs(m + 1, 20)
        for n in range(m + 1, 21):
            want = Fraction(math.factorial(m + 1) * es.stirling1(n, m + 1),
                            math.factorial(n))
            if coeffs[n] != want:
                ok = False
    _report(3, "Stirling closed forms and generating coefficients exact", ok)


def test_criterion_4_identity_suite(suite_result):
    cases, result, elapsed, _ = suite_result
    corrected = [r for r in result.records if r.case.variant is Variant.CORRECTED]
    not_confirmed = [r for r in corrected if r.status is not Status.CONFIRMED]
    size_ok = 190 <= len(cases) <= 260
    ok = not not_confirmed and size_ok and elapsed < 10.0
    _report(4, "default identity suite all CONFIRMED",
            ok,
            f"{len(corrected)} corrected cases, {len(not_confirmed)} failures, "
            f"{elapsed:.1f}s of 10s budget")


def test_criterion_5_known_value_regressions():
    checks = [
        ("window telescoping", es.sum_Hm_window(1.0, 1, 1), 1.0),
        ("squared-denominator power sum", es.sum_H1_power(1.0, 2), Z3),
        ("squared window", es.sum_H1sq_window(1.0, 1), Z2 + 1.0),
        ("product window", es.sum_H1H2_window(1.0, 1), 2.0 * Z3 - 1.0),
        ("alternating power sum", es.alt_sum_H1_power(0.0, 2),
         math.pi**2 * es.LN2 / 4.0 - Z3 / 4.0),
        ("classical binomial value", es.classical_w110(2), 2.0 * Z2 + 2.0),
        ("binomial closed form matches classical", es.w_11_0(0.0, 2), 2.0 * Z2 + 2.0),
    ]
    worst = max(abs(got - want) / abs(want) for _, got, want in checks)
    _report(5, "known-value regressions", worst <= 1e-9, f"worst rel {worst:.2e}")


def test_criterion_6_errata_reproduction():
    ok = True
    details = []
    expectations = {
        "eq2.9": (1.25, 1e-9),
        "eq3.15": (2.0, 1e-9),
        "eq4.2": (0.0235, 5e-4),
    }
    for ident_id, params in catalog.REFUTATION_WITNESSES:
        tol = catalog.get(ident_id).tol
        printed = verify_identity(IdentityCase(ident_id, dict(params), tol=tol,
                                               variant=Variant.AS_PRINTED))
        fixed = verify_identity(IdentityCase(ident_id, dict(params), tol=tol,
                                             variant=Variant.CORRECTED))
        want_resid, resid_tol = expectations[ident_id]
        if printed.status is not Status.REFUTED:
            ok = False
        if abs(printed.abs_residual - want_resid) > resid_tol:
            ok = False
        if printed.abs_residual <= 1e-3:
            ok = False
        if printed.oracle_error_bound > tol / 10.0:
            ok = False
        if fixed.status is not Status.CONFIRMED:
            ok = False
        details.append(f"{ident_id} resid {printed.abs_residual:.3g}")
    _report(6, "printed variants refuted, corrected confirmed", ok, "; ".join(details))


def test_criterion_7_lemma_residuals():
    start = time.monotonic()
    bad = []
    for ident_id in ("eq1.19", "eq1.23", "eq1.24", "eq1.25", "eq1.29", "eq1.30",
                     "eq1.31", "eq2.25"):
        ident = catalog.get(ident_id)
        for params in ident.grid:
            rec = verify_identity(IdentityCase(ident_id, dict(params), tol=1e-9))
            if rec.status is not Status.CONFIRMED:
                bad.append((ident_id, params, rec.status.value))
    elapsed = time.monotonic() - start
    _report(7, "generating-function and moment identity residuals",
            not bad and elapsed < 10.0,
            f"{len(bad)} failures, {elapsed:.1f}s of 10s budget")


def test_criterion_8_oracle_certification(suite_result):
    cases, result, _, _ = suite_result
    ok = True
    for rec in result.records:
        if rec.status is Status.INCONCLUSIVE:
            ok = False
        if rec.oracle_error_bound > rec.case.tol / 10.0 * max(1.0, abs(rec.oracle_value)):
            ok = False
    # forcing every series to start at twice the terms it chose must change no
    # status, and the two values must agree within their combined bounds
    flips = 0
    disagreements = 0
    for rec in result.records:
        again = verify_identity(rec.case, SeriesConfig(min_terms=max(10, 2 * rec.terms)))
        flips += again.status is not rec.status
        disagreements += not (abs(again.oracle_value - rec.oracle_value)
                              <= rec.oracle_error_bound + again.oracle_error_bound)
    _report(8, "oracle error bounds certified and stable under doubling",
            ok and flips == 0 and disagreements == 0,
            f"{flips} status flips, {disagreements} values outside their combined bounds")


def test_criterion_9_series_parts_stop_by_4096_terms(suite_result):
    # every builtin identity is a series identity, and the tail expansion
    # certifies each of its Summand parts at the first N
    _, result, _, parts = suite_result
    ok = len(parts) >= len(result.records) and max(parts, default=0) <= 4096
    _report(9, "every builtin series part certified at N <= 4096", ok,
            f"{len(parts)} parts, largest N {max(parts, default=0)}")
