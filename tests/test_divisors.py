"""Pairing tables, divisor class arithmetic, residual solving."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from dpcylinders import DynkinType
from dpcylinders.divisors import DivisorClass, Generator, GramTable, Relation, UndefinedPairing


def table_with(degree, *types, minus_one=False):
    table = GramTable(degree)
    groups = []
    for i, t in enumerate(types):
        suffix = "" if i == 0 else f"_{i + 1}"
        groups.append(table.add_singularity(DynkinType.parse(t), suffix))
    e = table.add_minus_one_curve() if minus_one else None
    return table, groups, e


def test_degree_bounds():
    with pytest.raises(ValueError):
        GramTable(0)
    with pytest.raises(ValueError):
        GramTable(10)


def test_canonical_square_is_degree():
    for d in range(1, 10):
        table = GramTable(d)
        assert table.intersect(table.canonical_class(), table.canonical_class()) == d
        assert table.intersect(table.minus_k(), table.minus_k()) == d
        assert table.intersect(table.minus_k(), table.canonical_class()) == -d


def test_exceptional_pairings():
    table, (a2,), _ = table_with(5, "A2")
    d1, d2 = a2
    assert table.pair(d1, d1) == -2
    assert table.pair(d2, d2) == -2
    assert table.pair(d1, d2) == 1  # adjacent in the chain
    k = table.find("K")
    assert table.pair(d1, k) == 0


def test_a3_chain_pairings():
    table, (a3,), _ = table_with(2, "A3")
    d1, d2, d3 = a3
    assert table.pair(d1, d2) == 1
    assert table.pair(d2, d3) == 1
    assert table.pair(d1, d3) == 0


def test_d4_star_pairings():
    table, (d4,), _ = table_with(2, "D4")
    center, *leaves = d4
    for leaf in leaves:
        assert table.pair(center, leaf) == 1
    assert table.pair(leaves[0], leaves[1]) == 0
    assert table.pair(leaves[1], leaves[2]) == 0


def test_two_singularities_disjoint_and_labeled():
    table, (first, second), _ = table_with(1, "A1", "A3")
    assert [g.label for g in first] == ["D1"]
    assert [g.label for g in second] == ["D1_2", "D2_2", "D3_2"]
    for a in first:
        for b in second:
            assert table.pair(a, b) == 0
    # second instance still follows its own Gram matrix
    assert table.pair(second[0], second[1]) == 1


def test_duplicate_labels_rejected():
    table, _, _ = table_with(1, "A1")
    with pytest.raises(ValueError):
        table.add_singularity(DynkinType.parse("A2"))  # D1 again


def test_minus_one_curve():
    table = GramTable(6)
    curves = table.add_singularity(DynkinType.parse("A1"))
    e = table.add_minus_one_curve()
    k = table.find("K")
    assert table.pair(e, e) == -1
    assert table.pair(e, k) == -1
    assert table.pair(e, curves[0]) == 0
    with pytest.raises(ValueError):
        table.add_minus_one_curve("E2")


def test_pairing_undefined_for_late_curves():
    table = GramTable(3)
    gen = table.solve_residual(Relation(2, DivisorClass()))
    late = table.add_singularity(DynkinType.parse("A1"))
    with pytest.raises(UndefinedPairing):
        table.pair(gen, late[0])


def test_residual_vs_residual_is_derived():
    # a second relation only involves K, so its pairing with the first
    # residual is determined
    table = GramTable(4)
    n1 = table.solve_residual(Relation(1, DivisorClass(), "N1"))
    n2 = table.solve_residual(Relation(2, DivisorClass(), "N2"))
    assert table.pair(n1, n2) == 8  # (-K).(−2K) = 2d


def test_solve_residual_quartic_relation():
    # 4*(-K) ~ 3*D1 + N  on the degree 3 surface with one node
    table = GramTable(3)
    (d1,) = table.add_singularity(DynkinType.parse("A1"))
    config = DivisorClass.of({d1: 3})
    n = table.solve_residual(Relation(4, config, "N"))
    k = table.find("K")
    assert table.pair(n, d1) == 6
    assert table.pair(n, k) == -12
    assert table.pair(n, n) == 30


def test_solve_residual_with_minus_one_curve():
    # 3*(-K) ~ 2*E + N  at degree 6
    table = GramTable(6)
    e = table.add_minus_one_curve()
    n = table.solve_residual(Relation(3, DivisorClass.of({e: 2}), "N"))
    k = table.find("K")
    assert table.pair(n, e) == 5
    assert table.pair(n, k) == -16
    assert table.pair(n, n) == 38  # 9*6 - 16


def test_trivial_relation_residual_is_minus_k():
    for d in (1, 5, 9):
        table = GramTable(d)
        n = table.solve_residual(Relation(1, DivisorClass()))
        k = table.find("K")
        assert table.pair(n, k) == -d
        assert table.pair(n, n) == d


def test_residual_label_collision():
    table = GramTable(2)
    table.solve_residual(Relation(1, DivisorClass(), "N"))
    with pytest.raises(ValueError):
        table.solve_residual(Relation(2, DivisorClass(), "N"))


def test_divisor_class_arithmetic():
    g = Generator("canonical", "K")
    h = Generator("minus_one", "E")
    a = DivisorClass.of({g: 2, h: Fraction(1, 2)})
    b = DivisorClass.of({g: -2, h: Fraction(1, 2)})
    assert (a + b).coefficient(g) == 0
    assert (a + b).coefficient(h) == 1
    assert (a - a).terms == ()
    assert (3 * a).coefficient(h) == Fraction(3, 2)
    assert (a * 0).terms == ()
    assert str(DivisorClass()) == "0"
    assert "K" in str(a)


def test_divisor_class_strips_zeros_and_sorts():
    g = Generator("canonical", "K")
    h = Generator("exceptional", "D1", sing=1, node=1)
    c = DivisorClass.of({h: 1, g: 0})
    assert c.generators == (h,)
    c2 = DivisorClass.of({h: 2, g: 1})
    assert c2.generators[0].label == "K"  # canonical sorts first


@st.composite
def small_classes(draw, gens):
    coeffs = {
        g: Fraction(draw(st.integers(-4, 4)), draw(st.integers(1, 3)))
        for g in draw(st.lists(st.sampled_from(gens), max_size=3))
    }
    return DivisorClass.of(coeffs)


@given(data=st.data())
def test_intersect_is_bilinear_and_symmetric(data):
    table = GramTable(4)
    curves = table.add_singularity(DynkinType.parse("A3"))
    e = table.add_minus_one_curve()
    gens = [table.find("K"), *curves, e]
    a = data.draw(small_classes(gens))
    b = data.draw(small_classes(gens))
    c = data.draw(small_classes(gens))
    s = data.draw(st.integers(-3, 3))
    assert table.intersect(a, b) == table.intersect(b, a)
    assert table.intersect(a + b, c) == table.intersect(a, c) + table.intersect(b, c)
    assert table.intersect(s * a, b) == s * table.intersect(a, b)
