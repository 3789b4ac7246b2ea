"""The catalog's declarations: parameter kinds and their derived validation,
and summand specs with the terms and tail models derived from them."""
import numpy as np
import pytest

from eulersum import DomainError, TailParams, catalog
from eulersum.catalog import Summand, _window
from eulersum.oracle import SeriesEnv

# values outside each real kind; an Integer(n) kind is broken by n - 1 and n + 1/2
_BREAKING = {
    catalog.positive: (0.0, -1.5),
    catalog.nonnegative: (-0.5,),
    catalog.inside_unit: (1.0, -1.0),
    catalog.unconstrained: (),
}


def _breaking(kind):
    if isinstance(kind, catalog.Integer):
        return (kind.minimum - 1, kind.minimum + 0.5)
    return _BREAKING[kind]


@pytest.mark.parametrize("ident_id", catalog.ids())
def test_validate_rejects_a_value_outside_each_declared_kind(ident_id):
    ident = catalog.get(ident_id)
    base = ident.grid[0]
    assert set(ident.params) == set(base)
    for name, kind in ident.params.items():
        for bad in _breaking(kind):
            with pytest.raises(DomainError, match=f"^{name}={bad} must "):
                ident.validate(**dict(base, **{name: bad}))


@pytest.mark.parametrize("ident_id, params, message", [
    ("eq2.9", {"a": 1.5, "b": 1.5}, "a and b must differ"),
    ("eq4.2", {"a": 2.0, "b": 2.0}, "a and b must differ"),
    ("eq2.19", {"r": 2, "k": 2, "m": 1}, "k=2 must be an integer >= 3"),
    ("eq4.11", {"r": 3, "k": 1, "m": 2}, "k=1 must be an integer >= 4"),
    ("eq3.9", {"a": 2.0, "b": 1.0, "k": 1, "p": 1}, "resonance"),
    ("eq4.5", {"a": 2.5, "b": 0.5, "k": 2, "p": 2}, "resonance"),
])
def test_validate_runs_the_cross_parameter_check(ident_id, params, message):
    with pytest.raises(DomainError, match=message):
        catalog.get(ident_id).validate(**params)


@pytest.mark.parametrize("summand, growth, degree", [
    (Summand((), ((0, 1), (0.5, 3))), 0, 4),                       # 1
    (Summand((1,), ((0.5, 1), (2.0, 1))), 1, 2),                   # H_n
    (Summand((3,), _window(0.5, 2)), 0, 2),                        # H_n^(m), m > 1
    (Summand((1, 1), binom=(3, 0.5)), 2, 3),                       # H_n^2
    (Summand((1, 2), _window(2.5, 1)), 1, 2),                      # H_n H_n^(2)
    (Summand((1, 1, 1), ((0.5, 1),), binom=(2, 0.5)), 3, 3),       # H_n^3
    (Summand((1,), ((1.0, 2),), binom=(2, 0.5), alternating=True), 0, 4),  # H-bar_n
])
def test_summand_tail_rule(summand, growth, degree):
    assert summand.tail() == TailParams(growth=growth, denom_degree=degree)


# each spec against the hand-written term it replaced, with the same operations
_TERMS = [
    (Summand((), ((0, 1), (10 / 3, 1))), lambda ns, e: 1.0 / (ns * (ns + 10 / 3) ** 1)),
    (Summand((), ((0, 2), (0.3, 1))), lambda ns, e: 1.0 / (ns ** 2 * (ns + 0.3))),
    (Summand((1,), ((0.7, 3),)), lambda ns, e: e.h1 / (ns + 0.7) ** 3),
    (Summand((2,), _window(10 / 3, 2)),
     lambda ns, e: e.h2 / ((ns + 10 / 3) * (ns + 10 / 3 + 2))),
    (Summand((1, 1), _window(0.3, 1)), lambda ns, e: e.h1 ** 2 / ((ns + 0.3) * (ns + 0.3 + 1))),
    (Summand((1, 2), ((0, 1), (5, 1))), lambda ns, e: e.h1 * e.h2 / (ns * (ns + 5))),
    (Summand((1, 1, 1), _window(0.5, 1)), lambda ns, e: e.h1 ** 3 / ((ns + 0.5) * (ns + 1.5))),
    (Summand((1,), ((1.1, 1),), binom=(3, 0.3)),
     lambda ns, e: e.h1 * catalog._rbinom(ns, 3, 0.3) / (ns + 1.1)),
    (Summand((2,), ((0, 1), (3, 1)), alternating=True), lambda ns, e: e.hb2 / (ns * (ns + 3))),
]


@pytest.mark.parametrize("summand, term", _TERMS)
def test_summand_term_matches_hand_written_term(summand, term):
    env, ref = SeriesEnv(), SeriesEnv()
    for start in (1, 5001):
        ns_int = np.arange(start, start + 5000, dtype=np.int64)
        ns = ns_int.astype(np.longdouble)
        env._set_chunk(ns_int, ns)
        ref._set_chunk(ns_int, ns)
        assert np.array_equal(summand(ns, env), term(ns, ref))

