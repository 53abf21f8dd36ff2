"""Classification tests: the exclusion lists and reason tags.  Verdicts are
reconciled with the construction engine in ``test_acceptance_5``."""

import pytest

from dpcylinders import SurfaceSpec, classify, enumerate_specs
from dpcylinders.classify import NO_POLAR_COLLECTIONS
from dpcylinders.lattice import picard_rank

# degree, singularities, anticanonical cylinder, polar cylinder
FIXTURES = [
    (9, (), True, True),
    (8, ("A1",), True, True),
    (7, (), True, True),
    (6, ("A1",), True, True),
    (5, ("A4",), True, True),
    (4, ("D4",), True, True),
    (3, (), False, True),
    (3, ("A1",), True, True),
    (3, ("E6",), True, True),
    (2, (), False, True),
    (2, ("A1",), False, True),
    (2, ("A1",) * 7, False, True),
    (2, ("A2",), True, True),
    (2, ("E7",), True, True),
    (1, (), False, True),
    (1, ("A1", "A1", "A3", "A3"), False, False),
    (1, ("A2", "A2", "A2", "A2"), False, False),
    (1, ("D4", "D4"), False, False),
    (1, ("A1", "A3", "D4"), False, True),
    (1, ("A4",), True, True),
]


@pytest.mark.parametrize(
    "degree,sings,anticanonical,polar",
    FIXTURES,
    ids=[f"d{d}-{'+'.join(s) or 'smooth'}" for d, s, _, _ in FIXTURES],
)
def test_fixture_verdicts(degree, sings, anticanonical, polar):
    spec = SurfaceSpec(degree, sings)
    verdict = classify(spec)
    assert verdict.anticanonical_cylinder is anticanonical
    assert verdict.h_polar_cylinder is polar
    assert verdict.picard_rank == picard_rank(spec)


def test_reason_tags():
    assert classify(SurfaceSpec(3, ())).anticanonical_reason == "smooth-cubic"
    assert (
        classify(SurfaceSpec(2, ("A1", "A1", "A1"))).anticanonical_reason
        == "only-A1-at-degree-2"
    )
    v = classify(SurfaceSpec(1, ("A1", "A3", "D4")))
    assert v.anticanonical_reason == "only-small-singularities-at-degree-1"
    assert v.polar_reason == "ample-polarization-exists"
    assert v.picard_rank == 1  # rank 8 collection, yet not in the excluded list

    v = classify(SurfaceSpec(1, ("A2", "A2", "A2", "A2")))
    assert v.polar_reason == "rank-one-excluded-collection"

    v = classify(SurfaceSpec(5, ()))
    assert v.anticanonical_reason == "outside-excluded-list"
    assert v.polar_reason == "anticanonical-cylinder-transfers"


def test_smooth_surfaces_refuse_at_low_degree_only():
    expected = {1: False, 2: False, 3: False}
    for d in range(1, 10):
        got = classify(SurfaceSpec(d, ())).anticanonical_cylinder
        assert got is expected.get(d, True), d


def test_excluded_collections_are_rank_eight():
    assert len(NO_POLAR_COLLECTIONS) == 3
    for collection in NO_POLAR_COLLECTIONS:
        assert sum(t.rank for t in collection) == 8
        assert tuple(sorted(collection)) == collection  # canonical order


def test_sweep_finds_exactly_three_polar_refusals():
    refused = [
        spec for spec in enumerate_specs()
        if not classify(spec).h_polar_cylinder
    ]
    assert [
        (spec.degree, tuple(str(t) for t in spec.singularities))
        for spec in refused
    ] == [
        (1, ("A1", "A1", "A3", "A3")),
        (1, ("A2", "A2", "A2", "A2")),
        (1, ("D4", "D4")),
    ]
    assert all(picard_rank(spec) == 1 for spec in refused)


def test_sweep_anticanonical_refusal_count():
    refused = sum(
        1 for spec in enumerate_specs()
        if not classify(spec).anticanonical_cylinder
    )
    assert refused == 62


def test_classification_is_deterministic():
    spec = SurfaceSpec(2, ("A3", "A1"))
    assert classify(spec) == classify(spec)
