"""Coordinate oracle: independent verification of every pairing table."""

import math

import pytest

from dpcylinders import SurfaceSpec, case_tables, enumerate_decompositions
from dpcylinders.lattice import gram_table
from dpcylinders.tigers import conditions

from coordinate_oracle import (
    OracleUnavailable,
    assert_table_matches,
    canonical_vector,
    check_row,
    classes,
    embeddings,
    nef_defects,
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


# The search's counts are checked without a second search: the ordered
# simple-root tuples of a type T in a root system number (its subsystems of
# type T) * |W(T)| * (automorphisms of T's diagram), and fixing D1 keeps
# 1/(number of roots) of them where the Weyl group is transitive on roots.


def test_every_degree_3_embedding_leaves_the_residual_nef():
    """At degree 3 each embeddable singular row's residual is nef on every
    embedding of its type's simple roots among the 72 roots of E6, not only
    the oracle's.  W(E6) is transitive on the roots and the check is
    W-invariant, so D1 is fixed to the first root.  E6 lies once in E6,
    with |W(E6)| = 51,840 and 2 diagram automorphisms."""
    roots = classes(6, -2, 0)
    counts = {}
    for row in case_tables():
        if row.singularity and 3 in row.degrees and (row.case_id, 3) not in UNEMBEDDABLE:
            counts[row.case_id] = 0
            for nodes in embeddings(gram_table(row.singularity), roots, roots[:1]):
                assert nef_defects(row, 3, nodes) == [], (row.case_id, nodes)
                counts[row.case_id] += 1
    assert counts == {
        "A1deg3": 1, "A2": 20, "A3": 180, "D4": 720, "A4": 720, "A5": 720,
        "D5": 1440, "E6": 1440,
    }
    assert counts["E6"] * len(roots) == 51_840 * 2


# Table rows whose relation, unchanged, also certifies at a degree the row
# does not list (ROADMAP item 19), with the embeddings of the row's type:
# with D1 fixed to the first of D5's 40 roots at degree 4, and every one at
# degree 6, where K^perp = A2 + A1 is reducible.
NEW_DEGREES = {
    ("A2", 4): 12, ("A3", 4): 60, ("D4", 4): 144, ("A4", 4): 96, ("D5", 4): 96,
    ("A1deg3", 6): 8, ("A2", 6): 12,
}


def test_rows_also_certify_with_a_nef_residual_at_degrees_4_and_6():
    """Each relation above obstructs every split at its new degree, affords
    its marked point's multiplicity, and leaves a residual that is nef on
    every embedding of its type, so on every spec that contains the type.
    D4 lies 5 times in D5, with |W(D4)| = 192 and 6 diagram automorphisms;
    D5 once, with |W(D5)| = 1,920 and 2.  A1deg3's relation leaves split
    (1,) unobstructed at degree 4."""
    counts = {}
    for case_id, d in NEW_DEGREES:
        row = row_by_id(case_id)._replace(degrees=(d,))
        assert all(split.obstruction for split in enumerate_decompositions.__wrapped__(row, d))
        assert row.residual(d).dim >= conditions(row.residual_multiplicity)
        roots = classes(9 - d, -2, 0)
        found = list(embeddings(gram_table(row.singularity), roots, roots[:1] if d == 4 else ()))
        for nodes in found:
            assert nef_defects(row, d, nodes) == [], (case_id, d, nodes)
        counts[case_id, d] = len(found)
    assert counts == NEW_DEGREES
    assert counts["D4", 4] * 40 == 5 * 192 * 6
    assert counts["D5", 4] * 40 == 1_920 * 2
    a1 = row_by_id("A1deg3")._replace(degrees=(4,))
    splits = enumerate_decompositions.__wrapped__(a1, 4)
    assert [split.part1 for split in splits if split.obstruction is None] == [(1,)]


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
    # rank 3 < 4 passes the discriminant test, but A4 holds at most two
    # orthogonal roots, so the search itself runs out
    with pytest.raises(OracleUnavailable, match="no root embedding exists"):
        oracle_embed(SurfaceSpec(5, ("A1", "A1", "A1")))


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
