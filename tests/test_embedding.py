"""Coordinate oracle: independent verification of every pairing table."""

import pytest

from dpcylinders import SurfaceSpec, case_tables
from dpcylinders.divisors import PairingTable

from coordinate_oracle import (
    OracleUnavailable,
    assert_table_matches,
    canonical_vector,
    check_row,
    classes,
    oracle_embed,
    pairing,
)


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


@pytest.mark.parametrize(
    "row", case_tables(), ids=lambda r: r.case_id
)
def test_case_tables_agree_with_coordinates(row):
    """Every case's pairing table, and its residual class expanded in
    coordinates, is reproduced by an actual root placement."""
    for degree in row.degrees:
        if (row.case_id, degree) in UNEMBEDDABLE:
            with pytest.raises(OracleUnavailable):
                check_row(row, degree)
        else:
            check_row(row, degree)


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
