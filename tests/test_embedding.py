"""Coordinate oracle: independent verification of every pairing table."""

import math

import pytest

from dpcylinders import SurfaceSpec, case_tables, enumerate_decompositions
from dpcylinders.lattice import gram_table

from coordinate_oracle import (
    OracleUnavailable,
    assert_table_matches,
    canonical_vector,
    check_row,
    class_vector,
    classes,
    oracle_embed,
    pairing,
)
from pairing_reference import PairingTable
from residual_fixtures import minimal_spec_args, row_by_id


def test_canonical_vector_squares():
    for d in range(1, 9):
        n = 9 - d
        k = canonical_vector(n)
        assert pairing(k, k) == d


def test_root_census():
    # ranks of the full (-2)-root systems: A1, A1xA2, A4, D5, E6, E7, E8
    expected = {1: 0, 2: 2, 3: 8, 4: 20, 5: 40, 6: 72, 7: 126, 8: 240}
    for n, count in expected.items():
        roots = classes(n, -2, 0)
        assert len(roots) == count
        assert len(set(roots)) == count
        k = canonical_vector(n)
        for r in roots:
            assert pairing(r, r) == -2
            assert pairing(r, k) == 0


def test_minus_one_census():
    expected = {1: 1, 2: 3, 3: 6, 4: 10, 5: 16, 6: 27, 7: 56, 8: 240}
    for n, count in expected.items():
        vectors = classes(n, -1, -1)
        assert len(vectors) == count
        assert len(set(vectors)) == count
        k = canonical_vector(n)
        for v in vectors:
            assert pairing(v, v) == -1
            assert pairing(v, k) == -1


def test_oracle_is_deterministic():
    spec = SurfaceSpec(1, ("A2", "A2", "A2", "A2"))
    assert oracle_embed(spec) == oracle_embed(spec)


# A full-rank configuration (type rank == 9 - degree) embeds only if the
# product of the type discriminants is the degree times a perfect square.
# These three fail that test (7 != 3m^2, 4 != 3m^2, 4 != 2m^2), so the
# oracle must refuse them outright rather than search forever.
UNEMBEDDABLE = {("A6", 3), ("D6", 3), ("D7", 2)}


@pytest.mark.acceptance(4)
@pytest.mark.parametrize(
    "row", case_tables(), ids=lambda r: r.case_id
)
def test_case_tables_agree_with_coordinates(row):
    """Every case's pairing table, and its residual class expanded in
    coordinates, is reproduced by an actual root placement."""
    for degree in row.degrees:
        if (row.case_id, degree) in UNEMBEDDABLE:
            with pytest.raises(OracleUnavailable, match="perfect square"):
                check_row(row, degree)
            # the provable refusal: full rank, and a discriminant that is not
            # the degree times a square (A_k: k + 1, D_k: 4, E6/E7/E8: 3/2/1)
            t = row.singularity
            assert t.rank == 9 - degree
            disc = {"A": t.rank + 1, "D": 4, "E": 9 - t.rank}[t.family]
            quotient, remainder = divmod(disc, degree)
            assert remainder or math.isqrt(quotient) ** 2 != quotient
        else:
            check_row(row, degree)


def nef_defects(row, degree, nodes):
    """Where the residual  N = m(-K) - sum c_i D_i  of a singular row fails
    to be nef on an embedding of the row's nodes, given as the vectors of
    D1..Dk, as (curve, N.C, bound) with N.C < bound: the bound is 0 on each
    node and on each (-1)-class that pairs >= 0 with every node, a
    (-1)-curve, and the point's multiplicity on each curve through the
    marked point, lest a member with that multiplicity there contain the
    curve."""
    coords = {"K": canonical_vector(9 - degree), **dict(zip(row.curves, nodes))}
    n = class_vector(coords, row.multiple, dict(row.configuration))
    minus_one_curves = [
        e for e in classes(9 - degree, -1, -1) if all(pairing(e, v) >= 0 for v in nodes)
    ]
    bounds = [(label, coords[label], 0) for label in row.curves]
    bounds += [(e, e, 0) for e in minus_one_curves]
    bounds += [(label, coords[label], row.residual_multiplicity) for label in row.point]
    return [(curve, pairing(n, v), b) for curve, v, b in bounds if pairing(n, v) < b]


# The relation 4(-K) ~ 5D1 + 3D2 + 3D3 + 3D4 + N on degree 1 D4, where the
# paper finds no cylinder, with its marked point D1 n D2 and mu = 1: every
# split is obstructed, yet N meets one (-1)-curve negatively.
NO_CYLINDER_D4 = row_by_id("D4")._replace(
    multiple=4, node_coefficients=(5, 3, 3, 3), degrees=(1,), residual_multiplicity=1
)
NEF_CASES = [
    (row, d) for row in case_tables() if row.singularity for d in row.degrees
    if (row.case_id, d) not in UNEMBEDDABLE
] + [(NO_CYLINDER_D4, 1)]


@pytest.mark.parametrize(
    "row,d", NEF_CASES,
    ids=[f"{row.case_id}-d{d}" + ("-no-cylinder" if row is NO_CYLINDER_D4 else "")
         for row, d in NEF_CASES],
)
def test_residual_is_nef_on_the_oracles_embedding(row, d):
    """Every embeddable singular row's residual is nef on the nodes and the
    (-1)-curves, and meets each curve through the marked point at least mu
    times, so |N| has none of them as a fixed component.  The numeric pass
    alone certifies the degree 1 D4 relation above; this check refuses it."""
    coords = oracle_embed(SurfaceSpec(*minimal_spec_args(row.case_id, d)))
    defects = nef_defects(row, d, [coords[label] for label in row.curves])
    if row is not NO_CYLINDER_D4:
        assert defects == []
        return
    assert all(split.obstruction for split in enumerate_decompositions.__wrapped__(row, d))
    assert row.local_multiplicity == 9 > 2 * row.multiple
    ((curve, value, bound),) = defects
    assert curve in classes(8, -1, -1) and (value, bound) == (-1, 0)


def root_embeddings(gram, roots):
    """Every tuple of roots that pairs by the Gram table, D1 the first root."""
    def grow(placed):
        if len(placed) == len(gram):
            yield placed
            return
        wanted = gram[len(placed)]
        for r in roots:
            if all(pairing(r, v) == w for v, w in zip(placed, wanted)):
                yield from grow(placed + (r,))
    return grow((roots[0],))


def test_every_degree_3_embedding_leaves_the_residual_nef():
    """At degree 3 each embeddable singular row's residual is nef on every
    embedding of its type's simple roots among the 72 roots of E6, not only
    the oracle's.  W(E6) is transitive on the roots and the check is
    W-invariant, so D1 is fixed to the first root."""
    roots = classes(6, -2, 0)
    checked = 0
    for row in case_tables():
        if row.singularity and 3 in row.degrees and (row.case_id, 3) not in UNEMBEDDABLE:
            for nodes in root_embeddings(gram_table(row.singularity), roots):
                assert nef_defects(row, 3, nodes) == [], (row.case_id, nodes)
                checked += 1
    assert checked == 5241


@pytest.mark.parametrize(
    "sings",
    [
        ("A2", "A2", "A2", "A2"),
        ("A1", "A1", "A3", "A3"),
        ("D4", "D4"),
        ("A1", "A2", "A5"),
        ("A4", "A4"),
        ("E6", "A2"),
        ("E7", "A1"),
        ("A8",),
    ],
    ids=lambda s: "+".join(s),
)
def test_multi_singularity_collections_embed(sings):
    spec = SurfaceSpec(1, sings)
    coords = oracle_embed(spec)

    table = PairingTable(1, spec.singularities)
    assert sorted(coords) == sorted(table.labels)
    assert_table_matches(table, coords)


def test_oracle_reports_impossible_configuration():
    # rank 2 leaves no room for an A2 root pair at degree 7
    with pytest.raises(OracleUnavailable):
        oracle_embed(SurfaceSpec(7, ("A2",)))


def test_oracle_rejects_degree_nine_minus_one_curve():
    with pytest.raises(OracleUnavailable):
        oracle_embed(SurfaceSpec(9, ()), with_minus_one_curve=True)


def test_minus_one_curve_disjoint_from_roots():
    spec = SurfaceSpec(4, ("A1", "A2"))
    coords = oracle_embed(spec, with_minus_one_curve=True)
    e = coords["E"]
    assert pairing(e, e) == -1
    for label, v in coords.items():
        if label.startswith("D"):
            assert pairing(e, v) == 0
