"""Linear/quadratic/cubic sum closed forms: exact regressions, oracle
agreement at spot points, and the generating-function identities."""
import ast
import math
import pathlib
import time

import numpy as np
import pytest

from eulersum import (
    DomainError,
    GfKind,
    LN2,
    cubic_stirling_window,
    gf_eval,
    gf_two_sided,
    polylog_moment,
    riemann_zeta,
    sum_H1_bilinear,
    sum_H1_power,
    sum_H1cubed_window,
    sum_H1H2_window,
    sum_H1sq_window,
    sum_Hm_window,
    sum_recip_shift,
    sum_shiftedH_over_nsq,
    sum_sq_diff_window,
)
from eulersum import catalog
from eulersum.oracle import SeriesConfig, TailParams, truncated_series

Z2 = riemann_zeta(2)
Z3 = riemann_zeta(3)
Z4 = riemann_zeta(4)


def _oracle(term, g, d, n=10**6, tol=1e-9):
    cfg = SeriesConfig(max_terms=n, target_tol=tol)
    return truncated_series(term, cfg, TailParams(growth=g, denom_degree=d)).value


class TestReciprocalShiftSum:
    def test_telescoping(self):
        assert sum_recip_shift(1.0, 1) == pytest.approx(1.0, rel=1e-13)

    def test_half_shift(self):
        assert sum_recip_shift(0.5, 1) == pytest.approx(4.0 - 4.0 * LN2, rel=1e-13)

    def test_shift_two_order_two(self):
        # 3/8 - zeta(2,3)/2 collapses to 1 - pi^2/12
        assert sum_recip_shift(2.0, 2) == pytest.approx(1.0 - math.pi**2 / 12.0, rel=1e-13)

    def test_against_oracle(self):
        for a in (0.5, 1.5, 10.0 / 3.0):
            for s in (1, 2, 3):
                want = _oracle(lambda ns, e: 1.0 / (ns * (ns + a) ** s), 0, s + 1)
                assert sum_recip_shift(a, s) == pytest.approx(want, rel=1e-10)

    def test_domain(self):
        with pytest.raises(DomainError):
            sum_recip_shift(-0.5, 2)


class TestPowerSum:
    def test_unit_shift_squares(self):
        assert sum_H1_power(1.0, 2) == pytest.approx(Z3, rel=1e-13)

    def test_unit_shift_cubes(self):
        # collapses to (3/2) zeta(4) - zeta(2)^2/2 = pi^4/360
        assert sum_H1_power(1.0, 3) == pytest.approx(math.pi**4 / 360.0, rel=1e-13)

    def test_against_oracle(self):
        for a in (0.5, 2.5):
            for s in (2, 3):
                want = _oracle(lambda ns, e: e.h1 / (ns + a) ** s, 1, s)
                assert sum_H1_power(a, s) == pytest.approx(want, rel=1e-8)


class TestPolylogMoment:
    def test_values(self):
        assert polylog_moment(1, 1.0) == pytest.approx(1.0, rel=1e-13)
        assert polylog_moment(2, 1.0) == pytest.approx(Z2 - 1.0, rel=1e-13)
        assert polylog_moment(3, 1.0) == pytest.approx(Z3 - Z2 + 1.0, rel=1e-13)

    def test_against_quadrature(self):
        from eulersum.oracle import Integrand, quadrature

        for m in (1, 2, 3, 4):
            for a in (0.5, 1.0, 2.5):
                q = quadrature(Integrand.POLYLOG_MOMENT, {"a": a, "m": m}, tol=1e-12)
                assert polylog_moment(m, a) == pytest.approx(q.value, abs=1e-10)


class TestBilinear:
    def test_unit_case(self):
        assert sum_H1_bilinear(1.0, 2.0) == pytest.approx(1.0, rel=1e-13)

    def test_printed_variant_is_wrong(self):
        assert sum_H1_bilinear(1.0, 2.0, as_printed=True) == pytest.approx(-0.25, abs=1e-12)

    def test_against_oracle(self):
        for (a, b) in ((0.5, 1.5), (2.5, 10.0 / 3.0)):
            want = _oracle(lambda ns, e: e.h1 / ((ns + a) * (ns + b)), 1, 2)
            assert sum_H1_bilinear(a, b) == pytest.approx(want, rel=1e-8)

    def test_requires_distinct_shifts(self):
        with pytest.raises(DomainError):
            sum_H1_bilinear(1.0, 1.0)


class TestWindows:
    def test_order_one_values(self):
        assert sum_Hm_window(1.0, 1, 1) == pytest.approx(1.0, rel=1e-13)
        assert sum_Hm_window(1.0, 2, 1) == pytest.approx(7.0 / 8.0, rel=1e-13)

    def test_order_two_reduction(self):
        assert sum_Hm_window(1.0, 1, 2) == pytest.approx(Z2 - 1.0, rel=1e-13)

    def test_squared_window(self):
        assert sum_H1sq_window(1.0, 1) == pytest.approx(Z2 + 1.0, rel=1e-13)

    def test_sq_diff_window(self):
        assert sum_sq_diff_window(1.0, 1) == pytest.approx(2.0, rel=1e-13)

    def test_product_window(self):
        assert sum_H1H2_window(1.0, 1) == pytest.approx(2.0 * Z3 - 1.0, rel=1e-10)

    def test_cubic_stirling_window_unit(self):
        assert cubic_stirling_window(1.0, 1) == pytest.approx(6.0, rel=1e-13)

    def test_cubic_window_unit(self):
        assert sum_H1cubed_window(1.0, 1) == pytest.approx(
            4.0 * Z3 + 2.0 * Z2 + 1.0, rel=1e-10)

    def test_consistency_chain(self):
        # squared window minus order-2 window equals the square-difference window
        for a in (0.5, 1.0, 2.5):
            for k in (1, 2, 3):
                lhs = sum_H1sq_window(a, k) - sum_Hm_window(a, k, 2)
                assert lhs == pytest.approx(sum_sq_diff_window(a, k), abs=1e-9)

    def test_against_oracle_spot(self):
        a, k = 0.5, 2
        want = _oracle(lambda ns, e: e.h1**2 / ((ns + a) * (ns + a + k)), 2, 2)
        assert sum_H1sq_window(a, k) == pytest.approx(want, rel=1e-7)
        want = _oracle(lambda ns, e: e.h1 * e.h2 / ((ns + a) * (ns + a + k)), 1, 2)
        assert sum_H1H2_window(a, k) == pytest.approx(want, rel=1e-7)


class TestShiftedHOverSquares:
    def test_integer_reductions(self):
        assert sum_shiftedH_over_nsq(0.0) == pytest.approx(2.0 * Z3, rel=1e-14)
        assert sum_shiftedH_over_nsq(1.0) == pytest.approx(2.0 * Z3 + Z2 - 1.0, rel=1e-14)
        for c in (2.0, 3.0):
            want = 2.0 * Z3 + sum(polylog_moment(2, float(j)) for j in range(1, int(c) + 1))
            assert sum_shiftedH_over_nsq(c) == pytest.approx(want, rel=1e-14)

    @pytest.mark.parametrize("c", [0.05, 0.3, 0.999, 15.9, 16.0, 25.5, 1e4 + 0.25, 1e6 + 0.5])
    def test_against_mpmath_integral(self, c):
        # sum H_(n+c)/n^2 = 2 zeta(3) + int_0^1 Li_2(x) (1 - x^c)/(1 - x) dx
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(25):
            mc = mpmath.mpf(c)
            integral = mpmath.quad(
                lambda x: mpmath.polylog(2, x) * (1 - x**mc) / (1 - x), [0, 0.5, 1])
            want = float(2 * mpmath.zeta(3) + integral)
        assert sum_shiftedH_over_nsq(c) == pytest.approx(want, rel=1e-13)

    def test_cost_does_not_grow_with_shift(self):
        # O(J) work: a shift of 10^12 costs what a shift of 20 does (about 0.2 ms)
        best = math.inf
        for _ in range(3):
            sum_shiftedH_over_nsq.cache_clear()
            start = time.perf_counter()
            sum_shiftedH_over_nsq(1e12 + 0.5)
            best = min(best, time.perf_counter() - start)
        assert best < 0.01

    def test_non_integer_against_bare_summation(self):
        from eulersum import digamma, EULER_GAMMA

        c = 0.5
        n = np.arange(1, 200001, dtype=float)
        hs = np.array([digamma(v + c + 1.0) + EULER_GAMMA for v in n[:2000]])
        head = float(np.sum(hs / n[:2000] ** 2))
        # crude independent tail from the asymptotic slope
        tail = float(np.sum((np.log(n[2000:] + c) + EULER_GAMMA + 0.5 / (n[2000:] + c))
                            / n[2000:] ** 2))
        crude = head + tail + (np.log(200001.5 + c) + EULER_GAMMA + 1.0) / 200000.5
        assert sum_shiftedH_over_nsq(c) == pytest.approx(crude, abs=1e-4)

    def test_domain(self):
        with pytest.raises(DomainError):
            sum_shiftedH_over_nsq(-0.5)
        for bad in (math.inf, math.nan):
            with pytest.raises(DomainError):
                sum_shiftedH_over_nsq(bad)


class TestGeneratingFunctions:
    def test_lemma13_residual(self):
        assert gf_eval(GfKind.LEMMA13, x=0.7, a=0.3, s=3) <= 1e-10

    def test_hn_h2_residual(self):
        assert gf_eval(GfKind.HN_H2, x=0.5) <= 1e-10

    def test_sq_diff_value(self):
        want = math.log(1.5) ** 2 / 1.5
        assert gf_eval(GfKind.SQ_DIFF, x=-0.5) == pytest.approx(want, rel=1e-12)
        two_sided = gf_two_sided(GfKind.SQ_DIFF, x=-0.5)
        assert two_sided.residual <= 1e-12

    def test_random_draw_residuals(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            x = float(rng.uniform(-0.89, 0.89))
            y = float(rng.uniform(-0.89, 0.89))
            a = float(rng.uniform(0.05, 3.0))
            s = int(rng.integers(2, 4))
            assert gf_eval(GfKind.LEMMA13, x=x, a=a, s=s) <= 1e-10
            assert gf_eval(GfKind.LEMMA13_TWO_VAR, x=x, y=y, a=a, s=s) <= 1e-10
            assert gf_eval(GfKind.NESTED_REFLECT, x=x, y=y, p=1, m=2) <= 1e-10
            assert gf_eval(GfKind.HN_HM, x=x, m=s) <= 1e-10
            assert gf_eval(GfKind.HN_H2, x=x) <= 1e-10
            assert gf_eval(GfKind.SQ_DIFF, x=x) >= 0.0

    def test_moment_identities(self):
        for x in (0.3, 0.8):
            for n in (1, 4):
                for m in (2, 3):
                    assert gf_eval(GfKind.MOMENT_IDENT,
                                   x=x, a=0.5, b=2.0, n=n, m=m) <= 1e-9
                    assert gf_eval(GfKind.MOMENT_IDENT_ZERO,
                                   x=x, b=0.5, n=n, m=m) <= 1e-9

    def test_work_counts(self):
        # direct sums report the terms they summed, moment kinds their
        # quadrature nodes, and the catalog's direct-sum oracles pass it on
        near, far = (gf_two_sided(GfKind.HN_H2, x=x).work for x in (0.1, -0.8))
        assert 0 < near < far < 1000
        moment = gf_two_sided(GfKind.MOMENT_IDENT, x=0.3, a=0.5, b=2.0, n=1, m=2)
        assert moment.work > 0
        params = catalog.get("eq1.24").grid[0]
        oracle = catalog.get("eq1.24").oracle(SeriesConfig(), **params)
        assert oracle.work == gf_two_sided(GfKind.LEMMA13_TWO_VAR, **params).work > 0

    def test_domain_guard(self):
        with pytest.raises(DomainError):
            gf_eval(GfKind.LEMMA13, x=1.0, a=0.3, s=3)


@pytest.mark.parametrize("module", ["specfun", "harmonic", "linear_sums", "alt_sums", "wsums"])
def test_closed_form_modules_import_no_numpy(module):
    # closed forms are finite formulas; an array import here means a
    # brute-force series has come back into the closed-form layer
    import eulersum

    path = pathlib.Path(eulersum.__file__).with_name(f"{module}.py")
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            imported.add(node.module.split(".")[0])
    assert "numpy" not in imported
