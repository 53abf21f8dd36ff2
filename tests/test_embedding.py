"""Coordinate oracle: independent verification of every pairing table."""

import pytest

from dpcylinders import DynkinType, SurfaceSpec, case_tables
from dpcylinders.divisors import DivisorClass, GramTable, Relation
from dpcylinders.embedding import (
    OracleUnavailable,
    canonical_vector,
    minus_one_vectors,
    oracle_embed,
    pairing,
    root_vectors,
)


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


def _assert_table_matches_embedding(table, embedding, labels):
    for i, a in enumerate(labels):
        for b in labels[i:]:
            expected = table.pair(table.find(a), table.find(b))
            assert embedding.pair(a, b) == expected, (a, b)


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

        table = GramTable(degree)
        labels = ["K"]
        coeffs = {}
        if row.singularity is not None:
            curves = table.add_singularity(row.singularity)
            labels += [c.label for c in curves]
            coeffs = {c: n for c, n in zip(curves, row.node_coefficients)}
        if with_e:
            e = table.add_minus_one_curve()
            labels.append(e.label)
            coeffs[e] = row.e_coefficient
        _assert_table_matches_embedding(table, embedding, labels)

        # the residual class, expanded in coordinates, has the same numbers
        n_gen = table.solve_residual(Relation(row.multiple, DivisorClass.of(coeffs)))
        n_vec = vscale(-row.multiple, embedding.vector("K"))
        for label in labels[1:]:
            coeff = next(c for g, c in coeffs.items() if g.label == label)
            n_vec = vsub(n_vec, vscale(coeff, embedding.vector(label)))
        assert pairing(n_vec, n_vec) == table.pair(n_gen, n_gen)
        for label in labels:
            assert pairing(n_vec, embedding.vector(label)) == table.pair(
                n_gen, table.find(label)
            )


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

    table = GramTable(1)
    labels = ["K"]
    for i, t in enumerate(spec.singularities):
        suffix = "" if i == 0 else f"_{i + 1}"
        labels += [c.label for c in table.add_singularity(t, suffix)]
    assert sorted(embedding.coordinates) == sorted(labels)
    _assert_table_matches_embedding(table, embedding, labels)


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
