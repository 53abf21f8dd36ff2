"""Dimension counts, point conditions, multiplicity budgets."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from dpcylinders.divisors import PairingTable
from dpcylinders.linear_systems import conditions, max_multiplicity_budget


def test_anticanonical_multiples():
    # dim |m*(-K)| = m(m+1)/2 * d, for every degree and small multiple
    for d in range(1, 10):
        table = PairingTable(d)
        for m in range(1, 5):
            assert table.dim(table.part(m, {})) == m * (m + 1) * d // 2


def test_dimension_fixtures():
    t5 = PairingTable(5)
    assert t5.dim(t5.part(4, {})) == 50
    t3 = PairingTable(3)
    assert t3.dim(t3.part(4, {})) == 30
    for d in (1, 4, 9):
        t = PairingTable(d)
        assert t.dim(t.part(2, {})) == 3 * d
        assert t.dim(t.part(1, {})) == d
    t6 = PairingTable(6, with_e=True)
    assert t6.dim(t6.part(3, {"E": 2})) == 27  # 6d - 9 at degree 6


def test_dimension_rejects_odd_parity():
    table = PairingTable(3)
    half = table.part(Fraction(1, 2), {})
    with pytest.raises(ValueError):
        table.dim(half)


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
