"""The pairing table: labels, the integer matrix, relation residuals."""

import ast
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from dpcylinders import DynkinType

import pairing_reference
from pairing_reference import PairingTable


def table_with(degree, *types, with_e=False):
    return PairingTable(degree, tuple(DynkinType.parse(t) for t in types), with_e)


def pair(table, a, b):
    """The pairing of two labelled generators."""
    return table.pair(table.vector({a: 1}), table.vector({b: 1}))


def test_degree_bounds():
    with pytest.raises(ValueError):
        PairingTable(0)
    with pytest.raises(ValueError):
        PairingTable(10)


def test_canonical_square_is_degree():
    for d in range(1, 10):
        table = PairingTable(d)
        k, minus_k = table.vector({"K": 1}), table.part(1, {})
        assert table.pair(k, k) == d
        assert table.pair(minus_k, minus_k) == d
        assert table.pair(minus_k, k) == -d


def test_exceptional_pairings():
    table = table_with(5, "A2")
    assert table.labels == ("K", "D1", "D2")
    assert pair(table, "D1", "D1") == -2
    assert pair(table, "D2", "D2") == -2
    assert pair(table, "D1", "D2") == 1  # adjacent in the chain
    assert pair(table, "D1", "K") == 0


def test_a3_chain_pairings():
    table = table_with(2, "A3")
    assert pair(table, "D1", "D2") == 1
    assert pair(table, "D2", "D3") == 1
    assert pair(table, "D1", "D3") == 0


def test_d4_star_pairings():
    table = table_with(2, "D4")
    for leaf in ("D2", "D3", "D4"):
        assert pair(table, "D1", leaf) == 1
    assert pair(table, "D2", "D3") == 0
    assert pair(table, "D3", "D4") == 0


def test_two_singularities_disjoint_and_labeled():
    table = table_with(1, "A1", "A3")
    assert table.labels == ("K", "D1", "D1_2", "D2_2", "D3_2")
    for b in ("D1_2", "D2_2", "D3_2"):
        assert pair(table, "D1", b) == 0
    # the second point still follows its own Gram matrix
    assert pair(table, "D1_2", "D2_2") == 1


def test_minus_one_curve():
    table = table_with(6, "A1", with_e=True)
    assert table.labels == ("K", "D1", "E")
    assert pair(table, "E", "E") == -1
    assert pair(table, "E", "K") == -1
    assert pair(table, "E", "D1") == 0


def test_residual_of_quartic_relation():
    # 4*(-K) ~ 3*D1 + N  on the degree 3 surface with one node
    table = table_with(3, "A1")
    n = table.part(4, {"D1": 3})
    assert table.pair(n, table.vector({"D1": 1})) == 6
    assert table.pair(n, table.vector({"K": 1})) == -12
    assert table.pair(n, n) == 30


def test_residual_of_relation_with_minus_one_curve():
    # 3*(-K) ~ 2*E + N  at degree 6
    table = PairingTable(6, with_e=True)
    n = table.part(3, {"E": 2})
    assert table.pair(n, table.vector({"E": 1})) == 5
    assert table.pair(n, table.vector({"K": 1})) == -16
    assert table.pair(n, n) == 38  # 9*6 - 16


def test_trivial_relation_residual_is_minus_k():
    for d in (1, 5, 9):
        table = PairingTable(d)
        n = table.part(1, {})
        assert table.pair(n, table.vector({"K": 1})) == -d
        assert table.pair(n, n) == d


def test_unknown_label_is_refused():
    with pytest.raises(KeyError):
        table_with(3, "A1").vector({"D2": 1})


@given(data=st.data())
def test_intersect_is_bilinear_and_symmetric(data):
    table = table_with(4, "A3", with_e=True)
    rational = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))
    a, b, c = (
        data.draw(st.tuples(*[rational] * len(table.labels))) for _ in range(3)
    )
    s = data.draw(st.integers(-3, 3))
    assert table.pair(a, b) == table.pair(b, a)
    a_plus_b = tuple(x + y for x, y in zip(a, b))
    assert table.pair(a_plus_b, c) == table.pair(a, c) + table.pair(b, c)
    assert table.pair(tuple(s * x for x in a), b) == s * table.pair(a, b)


def test_reference_imports_only_the_lattice():
    # the reference must not reuse the closed form it checks
    tree = ast.parse(Path(pairing_reference.__file__).read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add(node.module)
    package = {name for name in imported if name.split(".")[0] == "dpcylinders"}
    assert package == {"dpcylinders.lattice"}
