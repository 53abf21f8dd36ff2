"""Coordinate oracle: independent verification of every pairing table."""

import pytest

from dpcylinders import SurfaceSpec, case_tables
from dpcylinders.divisors import PairingTable
from dpcylinders.embedding import (
    OracleUnavailable,
    canonical_vector,
    minus_one_vectors,
    oracle_embed,
    pairing,
    root_vectors,
)

from pairing_reference import pairings, row_reference


def vscale(s, v):
    return tuple(s * x for x in v)


def vsub(a, b):
    return tuple(x - y for x, y in zip(a, b))


def test_canonical_vector_squares():
    for d in range(1, 9):
        n = 9 - d
        k = canonical_vector(n)
        assert pairing(k, k) == d


def test_root_census():
    # ranks of the full (-2)-root systems: A1, A1xA2, A4, D5, E6, E7, E8
    expected = {1: 0, 2: 2, 3: 8, 4: 20, 5: 40, 6: 72, 7: 126, 8: 240}
    for n, count in expected.items():
        roots = root_vectors(n)
        assert len(roots) == count
        assert len(set(roots)) == count
        k = canonical_vector(n)
        for r in roots:
            assert pairing(r, r) == -2
            assert pairing(r, k) == 0


def test_minus_one_census():
    expected = {1: 1, 2: 3, 3: 6, 4: 10, 5: 16, 6: 27, 7: 56, 8: 240}
    for n, count in expected.items():
        vectors = minus_one_vectors(n)
        assert len(vectors) == count
        assert len(set(vectors)) == count
        k = canonical_vector(n)
        for v in vectors:
            assert pairing(v, v) == -1
            assert pairing(v, k) == -1


def test_oracle_is_deterministic():
    spec = SurfaceSpec(1, ("A2", "A2", "A2", "A2"))
    assert oracle_embed(spec).coordinates == oracle_embed(spec).coordinates


def _assert_table_matches_embedding(table, embedding):
    for i, a in enumerate(table.labels):
        for j, b in enumerate(table.labels):
            assert embedding.pair(a, b) == table.matrix[i][j], (a, b)


# A full-rank configuration (type rank == 9 - degree) embeds only if the
# product of the type discriminants is the degree times a perfect square.
# These three fail that test (7 != 3m^2, 4 != 3m^2, 4 != 2m^2), so the
# oracle must refuse them outright rather than search forever.
UNEMBEDDABLE = {("A6", 3), ("D6", 3), ("D7", 2)}


@pytest.mark.parametrize(
    "row", case_tables(), ids=lambda r: r.case_id
)
def test_case_tables_agree_with_coordinates(row):
    """Every case's pairing table is reproduced by an actual root placement."""
    for degree in row.degrees:
        spec = SurfaceSpec(
            degree, (str(row.singularity),) if row.singularity else ()
        )
        with_e = bool(row.e_coefficient)
        if (row.case_id, degree) in UNEMBEDDABLE:
            with pytest.raises(OracleUnavailable):
                oracle_embed(spec, with_minus_one_curve=with_e)
            continue
        embedding = oracle_embed(spec, with_minus_one_curve=with_e)
        table, config = row_reference(row, degree)
        _assert_table_matches_embedding(table, embedding)

        # the residual class, expanded in coordinates, has the same numbers
        n = table.part(row.multiple, config)
        n_vec = vscale(-row.multiple, embedding.vector("K"))
        for label, coeff in config.items():
            n_vec = vsub(n_vec, vscale(coeff, embedding.vector(label)))
        assert pairing(n_vec, n_vec) == table.pair(n, n)
        assert {
            label: pairing(n_vec, embedding.vector(label)) for label in table.labels
        } == pairings(table, n)


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
    embedding = oracle_embed(spec)

    table = PairingTable(1, spec.singularities)
    assert sorted(embedding.coordinates) == sorted(table.labels)
    _assert_table_matches_embedding(table, embedding)


def test_oracle_reports_impossible_configuration():
    # rank 2 leaves no room for an A2 root pair at degree 7
    with pytest.raises(OracleUnavailable):
        oracle_embed(SurfaceSpec(7, ("A2",)))


def test_oracle_rejects_degree_nine_minus_one_curve():
    with pytest.raises(OracleUnavailable):
        oracle_embed(SurfaceSpec(9, ()), with_minus_one_curve=True)


def test_minus_one_curve_disjoint_from_roots():
    spec = SurfaceSpec(4, ("A1", "A2"))
    embedding = oracle_embed(spec, with_minus_one_curve=True)
    e = embedding.vector("E")
    assert pairing(e, e) == -1
    for label, v in embedding.coordinates.items():
        if label.startswith("D"):
            assert pairing(e, v) == 0
