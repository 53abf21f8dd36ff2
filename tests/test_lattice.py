"""Dynkin data, Gram matrices, spec validation, spec enumeration."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from dpcylinders import DynkinType, InvalidSpec, SurfaceSpec, enumerate_specs
from dpcylinders.lattice import adjacency, all_types, gram_table, picard_rank


def det(matrix) -> Fraction:
    """Fraction-exact determinant via Gaussian elimination."""
    m = [[Fraction(x) for x in row] for row in matrix]
    n = len(m)
    result = Fraction(1)
    for col in range(n):
        pivot_row = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot_row is None:
            return Fraction(0)
        if pivot_row != col:
            m[col], m[pivot_row] = m[pivot_row], m[col]
            result = -result
        result *= m[col][col]
        for r in range(col + 1, n):
            factor = m[r][col] / m[col][col]
            for c in range(col, n):
                m[r][c] -= factor * m[col][c]
    return result


types_param = pytest.mark.parametrize("t", all_types(), ids=str)


def test_exactly_sixteen_types():
    types = all_types()
    assert len(types) == 16
    families = [t.family for t in types]
    assert families.count("A") == 8
    assert families.count("D") == 5
    assert families.count("E") == 3
    assert list(types) == sorted(types)


def test_parse_roundtrip():
    for t in all_types():
        assert DynkinType.parse(str(t)) == t
    assert DynkinType.parse("D5") == DynkinType("D", 5)


@pytest.mark.parametrize("bad", ["A0", "A9", "D3", "D9", "E5", "E9", "B2", "F4", "A", "4A1", ""])
def test_parse_rejects(bad):
    with pytest.raises(InvalidSpec):
        DynkinType.parse(bad)


def test_adjacency_fixtures():
    assert adjacency(DynkinType("A", 1)) == frozenset()
    assert adjacency(DynkinType("A", 4)) == frozenset({(1, 2), (2, 3), (3, 4)})
    assert adjacency(DynkinType("D", 4)) == frozenset({(1, 2), (1, 3), (1, 4)})
    assert adjacency(DynkinType("D", 5)) == frozenset({(1, 3), (2, 3), (3, 4), (4, 5)})
    assert adjacency(DynkinType("E", 6)) == frozenset(
        {(1, 4), (2, 3), (3, 4), (4, 5), (5, 6)}
    )
    assert adjacency(DynkinType("E", 8)) == frozenset(
        {(1, 4), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (7, 8)}
    )


@types_param
def test_adjacency_is_a_tree(t):
    edges = adjacency(t)
    assert len(edges) == t.rank - 1
    # connectivity by flood fill
    reached = {1}
    frontier = [1]
    while frontier:
        node = frontier.pop()
        for i, j in edges:
            other = j if i == node else i if j == node else None
            if other is not None and other not in reached:
                reached.add(other)
                frontier.append(other)
    assert reached == set(range(1, t.rank + 1))


@types_param
def test_gram_matches_adjacency(t):
    g = gram_table(t)
    edges = adjacency(t)
    for i in range(t.rank):
        for j in range(t.rank):
            expected = -2 if i == j else (1 if (min(i, j) + 1, max(i, j) + 1) in edges else 0)
            assert g[i][j] == expected
            assert g[i][j] == g[j][i]


@types_param
def test_gram_negative_definite(t):
    g = gram_table(t)
    neg = [[-x for x in row] for row in g]
    for size in range(1, t.rank + 1):
        minor = det([row[:size] for row in neg[:size]])
        assert minor > 0, f"{t}: leading minor of size {size} is {minor}"


def test_gram_determinants():
    # the classical discriminants pin the matrices beyond definiteness
    for t in all_types():
        d = det([[-x for x in row] for row in gram_table(t)])
        if t.family == "A":
            assert d == t.rank + 1
        elif t.family == "D":
            assert d == 4
        else:
            assert d == {6: 3, 7: 2, 8: 1}[t.rank]


def fundamental_cycle(g) -> tuple[int, ...]:
    """Artin's fundamental cycle of a Gram matrix: the smallest z >= (1,...,1)
    with (G z)_i <= 0 for every node, by the usual increment loop, which
    terminates for negative definite G."""
    k = len(g)
    z = [1] * k
    while True:
        for i in range(k):
            if sum(g[i][j] * z[j] for j in range(k)) > 0:
                z[i] += 1
                break
        else:
            return tuple(z)


def test_fundamental_cycle_fixtures():
    # the highest-root coefficients pin each table's node labeling
    cases = {
        ("A", 1): (1,),
        ("A", 5): (1, 1, 1, 1, 1),
        ("D", 4): (2, 1, 1, 1),
        ("D", 5): (1, 1, 2, 2, 1),
        ("D", 8): (1, 1, 2, 2, 2, 2, 2, 1),
        ("E", 6): (2, 1, 2, 3, 2, 1),
        ("E", 7): (2, 2, 3, 4, 3, 2, 1),
        ("E", 8): (3, 2, 4, 6, 5, 4, 3, 2),
    }
    for (fam, rank), expected in cases.items():
        assert fundamental_cycle(gram_table(DynkinType(fam, rank))) == expected


@types_param
def test_fundamental_cycle_antinef(t):
    g = gram_table(t)
    z = fundamental_cycle(g)
    assert all(c >= 1 for c in z)
    gz = [sum(g[i][j] * z[j] for j in range(t.rank)) for i in range(t.rank)]
    assert all(v <= 0 for v in gz)
    # Artin's criterion: the configuration contracts to a rational double point
    assert sum(z[i] * gz[i] for i in range(t.rank)) == -2


def test_validate_spec_sorts_and_accepts():
    # construction validates: tokens parse and sort into canonical order
    spec = SurfaceSpec(1, ("D4", "A1", "A2"))
    assert [str(t) for t in spec.singularities] == ["A1", "A2", "D4"]
    assert spec.degree == 1
    assert SurfaceSpec(9, ()).singularities == ()
    # duplicates are fine while the rank budget holds
    assert len(SurfaceSpec(1, ("A1",) * 8).singularities) == 8
    assert SurfaceSpec(2, [DynkinType("D", 4), "A1"]) == SurfaceSpec(2, ("A1", "D4"))


def test_validate_spec_rejects():
    # every construction checks, not only the parser's
    with pytest.raises(InvalidSpec):
        SurfaceSpec(0, ())
    with pytest.raises(InvalidSpec):
        SurfaceSpec(10, ())
    with pytest.raises(InvalidSpec):
        SurfaceSpec(3, ("E7",))  # rank 7 > 6
    with pytest.raises(InvalidSpec):
        SurfaceSpec(9, ("A1",))  # no room at degree 9
    with pytest.raises(InvalidSpec):
        SurfaceSpec(5, ("A1", "A4"))  # 5 > 4
    # a bare string is not a sequence of tokens, and a bool is not a degree
    with pytest.raises(InvalidSpec, match="not the string 'A1'"):
        SurfaceSpec(3, "A1")
    with pytest.raises(InvalidSpec, match="not the string ''"):
        SurfaceSpec(3, "")
    with pytest.raises(InvalidSpec, match="not the boolean True"):
        SurfaceSpec(True)
    # singularities that are no sequence at all
    with pytest.raises(InvalidSpec, match="not None"):
        SurfaceSpec(3, None)
    with pytest.raises(InvalidSpec, match="not 5"):
        SurfaceSpec(3, 5)


def test_picard_rank_fixtures():
    assert picard_rank(SurfaceSpec(9, ())) == 1
    assert picard_rank(SurfaceSpec(1, ())) == 9
    assert picard_rank(SurfaceSpec(1, ("E8",))) == 1
    assert picard_rank(SurfaceSpec(3, ("A1",))) == 6
    assert picard_rank(SurfaceSpec(1, ("A1", "A1", "A3", "A3"))) == 1


def test_singularity_label():
    assert SurfaceSpec(5, ()).singularity_label == "smooth"
    assert SurfaceSpec(1, ("A1", "A3", "A1", "A3")).singularity_label == "2A1+2A3"
    assert SurfaceSpec(2, ("D4",)).singularity_label == "D4"


def test_enumerate_specs_census():
    specs = list(enumerate_specs())
    assert len(specs) == 250
    assert len(set(specs)) == 250
    per_degree = {d: sum(1 for s in specs if s.degree == d) for d in range(1, 10)}
    assert per_degree == {9: 1, 8: 2, 7: 4, 6: 7, 5: 13, 4: 22, 3: 38, 2: 62, 1: 101}
    for s in specs:
        # re-validation is the identity
        assert SurfaceSpec(s.degree, s.singularities) == s


def test_enumerate_specs_deterministic():
    assert list(enumerate_specs()) == list(enumerate_specs())


@given(st.sampled_from(all_types()), st.sampled_from(all_types()))
def test_type_ordering_consistent(a, b):
    assert (a < b) == ((a.family, a.rank) < (b.family, b.rank))


@given(st.integers(min_value=1, max_value=9), st.data())
def test_budget_boundary(degree, data):
    # any collection at the exact budget validates; one more A1 never does
    budget = 9 - degree
    ranks = []
    while sum(ranks) < budget:
        ranks.append(data.draw(st.integers(min_value=1, max_value=budget - sum(ranks))))
    names = []
    for r in ranks:
        fam = data.draw(st.sampled_from([f for f, lo in [("A", 1), ("D", 4), ("E", 6)] if lo <= r <= 8]))
        names.append(f"{fam}{r}")
    if budget:
        spec = SurfaceSpec(degree, tuple(names))
        assert sum(t.rank for t in spec.singularities) == budget
    with pytest.raises(InvalidSpec):
        SurfaceSpec(degree, tuple(names) + ("A1",))
