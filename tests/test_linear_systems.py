"""Dimension counts, point conditions, multiplicity budgets."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from dpcylinders.divisors import DivisorClass, GramTable, dim_complete
from dpcylinders.linear_systems import conditions, max_multiplicity_budget


def test_anticanonical_multiples():
    # dim |m*(-K)| = m(m+1)/2 * d, for every degree and small multiple
    for d in range(1, 10):
        table = GramTable(d)
        for m in range(1, 5):
            assert dim_complete(table, m * table.minus_k()) == m * (m + 1) * d // 2


def test_dimension_fixtures():
    t5 = GramTable(5)
    assert dim_complete(t5, 4 * t5.minus_k()) == 50
    t3 = GramTable(3)
    assert dim_complete(t3, 4 * t3.minus_k()) == 30
    for d in (1, 4, 9):
        t = GramTable(d)
        assert dim_complete(t, 2 * t.minus_k()) == 3 * d
        assert dim_complete(t, t.minus_k()) == d
    t6 = GramTable(6)
    e = t6.add_minus_one_curve()
    cls = 3 * t6.minus_k() - DivisorClass.of({e: 2})
    assert dim_complete(t6, cls) == 27  # 6d - 9 at degree 6


def test_dimension_rejects_odd_parity():
    table = GramTable(3)
    half = Fraction(1, 2) * table.minus_k()
    with pytest.raises(ValueError):
        dim_complete(table, half)


def test_conditions_sequence():
    assert [conditions(m) for m in range(7)] == [0, 1, 3, 6, 10, 15, 21]
    with pytest.raises(ValueError):
        conditions(-1)


def test_budget_fixtures():
    assert max_multiplicity_budget(0) == 0
    assert max_multiplicity_budget(5) == 2
    assert max_multiplicity_budget(9) == 3
    assert max_multiplicity_budget(14) == 4
    assert max_multiplicity_budget(30) == 7
    with pytest.raises(ValueError):
        max_multiplicity_budget(-1)


@given(st.integers(min_value=0, max_value=10_000))
def test_budget_is_inverse_of_conditions(dim):
    m = max_multiplicity_budget(dim)
    assert conditions(m) <= dim < conditions(m + 1)


@given(st.integers(min_value=0, max_value=500))
def test_budget_roundtrip(m):
    assert max_multiplicity_budget(conditions(m)) == m
