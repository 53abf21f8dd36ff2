"""Construction engine tests.

The heart of the suite, with one check per derivation: every case row is
checked against hand-derived numbers, the hand-worked split outcomes sit in
one table, the walk is compared with a plain walk of the whole box, every
decomposition outcome is recomputed from scratch, and the certificate
assembly is exercised end to end including the forced-failure path.  The
tests that read the v1 document or its renderer's box halves are in
``test_certificate``.
"""

from fractions import Fraction
from string import Formatter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dpcylinders import (
    NoCaseApplies,
    SurfaceSpec,
    build_tiger,
    case_tables,
    classify,
    enumerate_decompositions,
    enumerate_specs,
    select_case,
)
from dpcylinders.lattice import gram_table
from dpcylinders import certificate, tigers
from dpcylinders.tigers import (
    DIMENSION_GAP,
    DISJOINTNESS,
    MULTIPLICITY_BUDGET,
    NEGATIVE_SELF_INTERSECTION,
    Obstruction,
    complement,
    conditions,
    fraction_text,
    max_multiplicity_budget,
    part_numbers,
    square_survivors,
)

from box_walk import box_walk, every_outcome, redrawn_boxes, split_parts
from certificate_reference import WORDING
from conftest import forced_discrepancy
from pairing_reference import pairings, row_reference
from residual_fixtures import RESIDUAL_FIXTURES, ev, minimal_spec_args, row_by_id

CASE_IDS = [
    "deg7plus", "deg4or6", "deg5", "A1deg3",
    "A2", "A3", "D4",
    "A4", "A5", "A6", "A7", "A8",
    "D5", "D6", "D7", "D8",
    "E6", "E7", "E8",
]

# every (case row, degree) pair
SPLIT_CASES = [(row, d) for row in case_tables() for d in row.degrees]


def labelled(row, part):
    """A part's pairings by label: K, then the row's curves."""
    return dict(zip(("K",) + row.curves, part.pairings, strict=True))


def curve_pairings(row, part):
    """A part's pairings with the row's curves, K left out."""
    return [v for lbl, v in labelled(row, part).items() if lbl != "K"]


def reference_class(table, row, part):
    """The part as a class of the pairing table, read by curve label."""
    return table.part(part.multiple, dict(zip(row.curves, part.coefficients, strict=True)))


def point_caps(row, parts):
    """Recompute the multiplicity each part can carry at the marked point."""
    caps = []
    for part in parts:
        cap = max_multiplicity_budget(part.dim)
        for label in row.point:
            cap = min(cap, labelled(row, part)[label])
        caps.append(cap)
    return tuple(caps)


# ---------------------------------------------------------------- case rows

def test_case_rows_in_dispatch_order():
    assert [r.case_id for r in case_tables()] == CASE_IDS


def test_case_rows_are_internally_consistent():
    for row in case_tables():
        rank = row.singularity.rank if row.singularity else 0
        assert len(row.node_coefficients) == rank
        assert row.multiple >= 2
        assert all(1 <= d <= 9 for d in row.degrees)
        assert row.residual_multiplicity >= 0
        for label in row.point:
            if label == "E":
                assert row.e_coefficient > 0
            else:
                assert 1 <= int(label[1:]) <= rank
        # the only auxiliary-curve case is the degree 4/6 construction
        assert (row.e_coefficient > 0) == (row.case_id == "deg4or6")
        for tag, degrees in row.notes:
            # a tag that names no text would fail only where its document is built
            assert tag in certificate.ASSUMPTIONS, (row.case_id, tag)
            assert set(degrees) <= set(row.degrees)
        if row.balanced_split is not None:
            assert len(row.balanced_split) == len(row.curves)
        # one ordered list of curves: the nodes, then E when the row uses it
        assert row.curves == tuple(f"D{i}" for i in range(1, rank + 1)) + (
            ("E",) if row.e_coefficient else ()
        )
        assert len(row.coefficients) == len(row.form) == len(row.curves)
        assert row.coefficients[:rank] == row.node_coefficients
        assert row.coefficients[rank:] == ((row.e_coefficient,) if row.e_coefficient else ())
        assert [row.curves[i] for i in row.point_indices] == list(row.point)
        for d in row.degrees:
            # X^2 = X.K (mod 2) for -K, with K.K = d, and for every curve X,
            # (square, K-degree) read from the form.  So P^2 - P.K is even
            # for every class P = sum a X, and its dim an integer: mod 2 the
            # cross terms 2 a b X.Y drop and a^2 = a, leaving sum a (X^2 - X.K).
            generators = [(d, -d)] + [(pairs[1 + j], pairs[0])
                                      for j, pairs in enumerate(row.form)]
            assert all((square - k) % 2 == 0 for square, k in generators), (row.case_id, d)


def test_marked_points_lie_on_the_configuration():
    """The local multiplicity adds the row's coefficient on each curve
    through the marked point, so each such curve must carry one, and the
    two curves of an intersection point must meet."""
    for row in case_tables():
        for label in row.point:
            coeff = (row.e_coefficient if label == "E"
                     else row.node_coefficients[int(label[1:]) - 1])
            assert isinstance(coeff, int) and coeff > 0, (row.case_id, label)
        if len(row.point) == 2:
            i, j = (int(label[1:]) - 1 for label in row.point)
            assert gram_table(row.singularity)[i][j] == 1, row.case_id


# ----------------------------------------------------- residual class numbers

@pytest.mark.acceptance(3)
@pytest.mark.parametrize("case_id", CASE_IDS)
def test_residual_formulas_match_fixtures(case_id):
    """The walk's numbers for the full split, the residual itself, equal the
    hand-derived fixtures: pairings with K, the nodes and E, square and dim."""
    row = row_by_id(case_id)
    fix = RESIDUAL_FIXTURES[case_id]
    e = () if fix.e_pairing is None else (fix.e_pairing,)
    for d in row.degrees:
        numbers = part_numbers(row, d, row.multiple, row.coefficients)
        assert numbers.pairings == (ev(fix.k_pairing, d), *fix.node_pairings, *e), d
        assert numbers.square == ev(fix.square, d)
        assert numbers.dim == ev(fix.dim, d)


# a certified status means that no walked split is unobstructed, and every
# other split of the box dies on part 1's square
@pytest.mark.acceptance(3, 6)
@pytest.mark.parametrize("case_id", CASE_IDS)
def test_certificates_match_fixtures(case_id):
    row = row_by_id(case_id)
    fix = RESIDUAL_FIXTURES[case_id]
    for d in row.degrees:
        cert = build_tiger(SurfaceSpec(*minimal_spec_args(case_id, d)))
        assert cert.row == row
        assert cert.spec.degree == d
        assert not cert.unobstructed
        # pairings with K, then the nodes, then E
        residual = row.residual(d)
        e = () if fix.e_pairing is None else (fix.e_pairing,)
        assert residual.pairings == (ev(fix.k_pairing, d), *fix.node_pairings, *e), d
        assert residual.square == ev(fix.square, d)
        assert residual.dim == ev(fix.dim, d)
        # the residual system affords the marked point's multiplicity
        assert residual.dim >= conditions(row.residual_multiplicity)
    assert row.local_multiplicity == fix.local_multiplicity
    assert row.ratio == str(fix.ratio)
    assert row.local_multiplicity > 2 * row.multiple
    # configuration records the row coefficients verbatim
    config = dict(row.configuration)
    for i, c in enumerate(row.node_coefficients):
        assert config.get(f"D{i + 1}", 0) == c
    if row.e_coefficient:
        assert config["E"] == row.e_coefficient
    # the tiger's N share, read off the document's head
    head = certificate._certificate_shell(cert)
    assert head["tiger_components"][0] == ["N", str(Fraction(1, row.multiple))]


@pytest.mark.acceptance(3)
@pytest.mark.parametrize(
    "row,d", SPLIT_CASES, ids=[f"{row.case_id}-d{d}" for row, d in SPLIT_CASES]
)
def test_certificate_residual_matches_symbolic_solve(row, d):
    """The certificate's closed-form residual and configuration equal the
    ones the pairing table derives from the relation: ordered labelled
    pairings, square and dim."""
    table, config = row_reference(row, d)
    n = table.part(row.multiple, config)
    residual = row.residual(d)
    assert select_case(SurfaceSpec(*minimal_spec_args(row.case_id, d)))[0] == row
    assert tuple(labelled(row, residual).items()) == tuple(pairings(table, n).items())
    assert residual.square == table.pair(n, n)
    assert residual.dim == table.dim(n)
    assert (residual.multiple, residual.coefficients) == (row.multiple, row.coefficients)
    assert row.configuration == tuple((label, c) for label, c in config.items() if c)


@pytest.mark.acceptance(3)
def test_a1_cubic_split_squares():
    """Part 1's square at each split of 4(-K) ~ 3D1 + N, as worked by hand."""
    assert box_walk(row_by_id("A1deg3"), 3).squares.tolist() == [3, 1, -5, -15]


def test_residual_parity_guard():
    """Integer inputs give every class an even  P^2 - P.K,  so a dim is
    exact, never floored: every row's residual at each of its degrees
    shows it."""
    for row, d in SPLIT_CASES:
        residual = row.residual(d)
        assert residual.square - residual.pairings[0] == 2 * residual.dim


# ------------------------------------------------------- split enumeration

# (case id, degree) -> {part 1: (kind, witness)}, each worked by hand.  A box
# lists every split, or under OTHERS the one kind its other splits die of.
OTHERS = "others"
HAND_CHECKED = {
    # the four splits of 4(-K) ~ 3D1 + N and their four distinct failures
    ("A1deg3", 3): {
        (0,): (DISJOINTNESS, {"part": 1, "required": 6, "cap_part1": 0, "cap_part2": 3}),
        (1,): (MULTIPLICITY_BUDGET, {"required": 6, "cap_part1": 1, "cap_part2": 4}),
        (2,): (NEGATIVE_SELF_INTERSECTION, {"part": 1, "square": -5}),
        (3,): (NEGATIVE_SELF_INTERSECTION, {"part": 1, "square": -15}),
    },
    # no curves, so the box is the zero split alone
    **{("deg7plus", d): {(): (DIMENSION_GAP, {"candidate_dim": 3 * d - 15,
                                              "parts_dim": 2 * d - 9})} for d in (7, 8, 9)},
    ("deg5", 5): {(): (DIMENSION_GAP, {"candidate_dim": 5, "parts_dim": 4})},
    # the row's only curve is E, so a split is its coefficient on E
    ("deg4or6", 4): {
        (0,): (MULTIPLICITY_BUDGET, {"required": 5, "cap_part1": 1, "cap_part2": 2}),
        (1,): (MULTIPLICITY_BUDGET, {"required": 5, "cap_part1": 1, "cap_part2": 3}),
        (2,): (NEGATIVE_SELF_INTERSECTION, {"part": 1, "square": -4}),
    },
    ("deg4or6", 6): {
        (0,): (DIMENSION_GAP, {"candidate_dim": 12, "parts_dim": 6}),
        (1,): (DIMENSION_GAP, {"candidate_dim": 12, "parts_dim": 10}),
        (2,): (NEGATIVE_SELF_INTERSECTION, {"part": 1, "square": -2}),
    },
    # eight splits die on negativity, three of them spot values; the balanced
    # one needs the dimension count against the one-part family through the
    # marked point
    **{("A2", d): {
        (1, 1): (DIMENSION_GAP, {"candidate_dim": 3 * d - 5, "parts_dim": d - 2}),
        (0, 0): (NEGATIVE_SELF_INTERSECTION, {"part": 2, "square": d - 8}),
        (0, 1): (NEGATIVE_SELF_INTERSECTION, {"part": 1, "pairing": -1}),
        (2, 2): (NEGATIVE_SELF_INTERSECTION, {"part": 1, "square": d - 8}),
        OTHERS: NEGATIVE_SELF_INTERSECTION,
    } for d in (2, 3)},
}


@pytest.mark.acceptance(6)
@pytest.mark.parametrize(
    "case_id,d", HAND_CHECKED, ids=[f"{case_id}-d{d}" for case_id, d in HAND_CHECKED]
)
def test_hand_checked_outcomes(case_id, d):
    expected = dict(HAND_CHECKED[case_id, d])
    others = expected.pop(OTHERS, None)
    for o in every_outcome(row_by_id(case_id), d):
        if o.part1 in expected:
            assert (o.obstruction.kind, dict(o.obstruction.witness)) == expected.pop(o.part1)
        else:
            assert o.obstruction.kind == others, o.part1
    assert expected == {}


def test_a_balanced_split_needs_a_true_gap():
    """The balanced split is compared against the one-part family through
    the marked point, and is obstructed only where that family's dimension
    falls below the candidate family's.  On a hand-made A2 row at degree 1
    with no multiplicity at the point, the residual has dim -1 and the
    balanced part 1 dim 0, so (1, 1) keeps no obstruction; the other three
    splits keep their kills."""
    row = row_by_id("A2")._replace(degrees=(1,), residual_multiplicity=0)
    assert row.residual(1).dim == -1
    splits = enumerate_decompositions.__wrapped__(row, 1)
    assert {split.part1: split.obstruction for split in splits} == {
        (0, 0): Obstruction(NEGATIVE_SELF_INTERSECTION, (("part", 2), ("square", -7))),
        (0, 1): Obstruction(NEGATIVE_SELF_INTERSECTION, (("part", 1), ("pairing", -1))),
        (1, 0): Obstruction(NEGATIVE_SELF_INTERSECTION, (("part", 1), ("pairing", -1))),
        (1, 1): None,
    }


def assert_walk_matches_the_box_walk(row, d):
    """The growth from the zero split finds the box walk's survivors, in box
    order, each part 1 with the numbers of ``part_numbers``, its running
    square among them, and the obstruction pass has ``complement`` build
    part 2, equal to ``split_parts``'s, for exactly the survivors whose part
    1 pairs with no configuration curve negatively, the one kill part 1 has
    left.  Its premises hold: a part that passes the square test has
    dim >= 0, and every survivor but the zero split has a survivor one unit
    below it, with a square no smaller.  The walk goes round the memo of
    walked boxes, so every derivation is seen; its splits are returned."""
    parts = []

    def spy(residual, first):
        parts.append((first, complement(residual, first)))
        return parts[-1][1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(tigers, "complement", spy)
        splits = enumerate_decompositions.__wrapped__(row, d)
    survivors = box_walk(row, d).survivors
    firsts = square_survivors(row, d)
    assert [split.part1 for split in splits] == [p.coefficients for p in firsts] == list(survivors)
    assert parts == [
        (first, second) for first, second in survivors.values()
        if min(first.pairings[1:], default=0) >= 0
    ]
    residual = row.residual(d)
    assert [(p, complement(residual, p)) for p in firsts] == list(survivors.values())
    # the walk's running square is the dot product's
    assert firsts == [part_numbers(row, d, 1, part.coefficients) for part in firsts]
    for part1, (part, second) in survivors.items():
        # so the obstruction pass needs no dim test (see ``_part_kill``)
        assert all(p.dim >= 0 for p in (part, second) if p.square >= -1), part1
        if not any(part1):
            continue
        lower = (part1[:j] + (c - 1,) + part1[j + 1:] for j, c in enumerate(part1) if c)
        below = [survivors[p][0].square for p in lower if p in survivors]
        assert below and max(below) >= part.square, part1
    return splits


@pytest.mark.parametrize(
    "row,d", SPLIT_CASES, ids=[f"{row.case_id}-d{d}" for row, d in SPLIT_CASES]
)
def test_walk_finds_the_box_walks_survivors(row, d):
    """The walk of each table box, and every split it finds obstructed."""
    splits = assert_walk_matches_the_box_walk(row, d)
    assert all(split.obstruction is not None for split in splits)


@settings(max_examples=60, deadline=None)
@given(redrawn_boxes(cap=5000))
# no curves, so the box is the zero split alone
@example((row_by_id("deg5"), 5))
# nodes and E together at degree 1
@example((row_by_id("A3")._replace(e_coefficient=2, degrees=(1,)), 1))
# a middle node with coefficient 0 parts the chain
@example((row_by_id("A5")._replace(node_coefficients=(1, 2, 0, 3, 2)), 1))
def test_walk_matches_the_box_walk_beyond_the_table(case):
    """The walk of a redrawn box, whose splits may go unobstructed."""
    assert_walk_matches_the_box_walk(*case)


def test_enumeration_rejects_wrong_degree():
    with pytest.raises(ValueError, match="does not apply"):
        enumerate_decompositions(row_by_id("A8"), 2)


def test_every_witness_recomputes():
    """Each stored obstruction is re-derived here from the part numbers.

    This is a full reimplementation of the obstruction logic as a check;
    any drift between the two is a real bug in one of them.  The numbers
    are the box walk's: part 1's square at every split, both parts at each
    split that survives it.  The document words each obstruction with the
    template of its shape, the kind or the witness that fired, which takes
    exactly the witness's names.
    """
    fields = {shape: {name for _, name, _, _ in Formatter().parse(template) if name}
              for shape, template in certificate._DESCRIPTIONS.items()}
    for row in case_tables():
        mu = row.residual_multiplicity
        for d in row.degrees:
            full = part_numbers(row, d, row.multiple, row.coefficients)
            walk = box_walk(row, d)
            for o, square in zip(every_outcome(row, d), walk.squares, strict=True):
                obs = o.obstruction
                shape = obs.witness[1][0] if obs.kind == NEGATIVE_SELF_INTERSECTION else obs.kind
                assert fields[shape] == {name for name, _ in obs.witness}
                if square <= -2:
                    # killed on part 1's square, the one number the walk keeps
                    assert obs.kind == NEGATIVE_SELF_INTERSECTION
                    assert obs.witness == (("part", 1), ("square", square))
                    continue
                w = dict(obs.witness)
                parts = walk.survivors[o.part1]

                if obs.kind == NEGATIVE_SELF_INTERSECTION:
                    r = parts[w["part"] - 1]
                    if w["part"] == 2:
                        # part 1 must have passed both checks first, so its dim is >= 0
                        r1 = parts[0]
                        assert r1.square > -2
                        assert all(v >= 0 for v in curve_pairings(row, r1))
                        assert r1.dim >= 0
                    if "square" in w:
                        assert r.square == w["square"] <= -2
                    else:
                        assert r.square > -2
                        assert min(curve_pairings(row, r)) == w["pairing"] < 0
                    continue

                # beyond this point both parts are effective-looking
                for part in parts:
                    assert part.square > -2
                    assert part.dim >= 0
                caps = point_caps(row, parts)

                if obs.kind in (DISJOINTNESS, MULTIPLICITY_BUDGET):
                    assert caps == (w["cap_part1"], w["cap_part2"])
                    assert w["required"] == mu
                    assert caps[0] + caps[1] < mu
                    if obs.kind == DISJOINTNESS:
                        part = parts[w["part"] - 1]
                        coefficients = dict(zip(row.curves, part.coefficients))
                        assert row.point
                        assert all(coefficients[lbl] == 0 for lbl in row.point)
                        assert any(labelled(row, part)[lbl] == 0 for lbl in row.point)
                    continue

                assert obs.kind == DIMENSION_GAP
                assert caps[0] + caps[1] >= mu
                assert w["candidate_dim"] == full.dim - conditions(mu)
                if o.part1 == row.balanced_split:
                    expected = parts[0].dim - conditions(mu)
                else:
                    expected = max(
                        parts[0].dim - conditions(t1)
                        + parts[1].dim - conditions(mu - t1)
                        for t1 in range(max(0, mu - caps[1]), min(caps[0], mu) + 1)
                    )
                assert w["parts_dim"] == expected
                assert w["parts_dim"] < w["candidate_dim"]


def draw_part1(draw, row):
    """An arbitrary first-part coefficient vector of one of the row's splits."""
    return tuple(draw(st.integers(0, c)) for c in row.coefficients)


@st.composite
def arbitrary_splits(draw):
    row, d = draw(st.sampled_from(SPLIT_CASES))
    return row, d, draw_part1(draw, row)


@given(arbitrary_splits())
def test_parts_reassemble_to_the_residual(case):
    row, d, part1 = case
    first, second = split_parts(row, d, part1)
    full = row.residual(d)
    assert (first.multiple, second.multiple) == (1, row.multiple - 1)
    assert first.coefficients == part1
    assert tuple(
        a + b for a, b in zip(first.coefficients, second.coefficients, strict=True)
    ) == row.coefficients
    # the pairing is bilinear, so the parts' numbers sum to the residual's
    for v1, v2, vf in zip(first.pairings, second.pairings, full.pairings, strict=True):
        assert v1 + v2 == vf


@pytest.mark.parametrize(
    "row,d", SPLIT_CASES, ids=[f"{row.case_id}-d{d}" for row, d in SPLIT_CASES]
)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_split_parts_match_the_pairing_table(row, d, data):
    """Both parts of an arbitrary split, closed form against the literal
    pairing table: square, K-pairing, each labelled curve pairing, dim."""
    table, _ = row_reference(row, d)
    for part in split_parts(row, d, draw_part1(data.draw, row)):
        cls = reference_class(table, row, part)
        assert table.pair(cls, cls) == part.square
        assert pairings(table, cls) == labelled(row, part)
        assert table.dim(cls) == part.dim


# ------------------------------------------------------------ dispatching

def test_select_case_fixtures():
    picks = [
        ((3, ("D4", "A1")), "A1deg3", 0),
        ((1, ("A4", "A3")), "A4", 1),
        ((2, ("E6", "A1")), "E6", 1),
        ((2, ("A3", "A4")), "A3", 0),
        # the first instance of the row's type
        ((2, ("A1", "A3", "A3")), "A3", 1),
        ((6, ("A1",)), "deg4or6", None),
        ((8, ()), "deg7plus", None),
        ((5, ()), "deg5", None),
    ]
    for (d, sings), case_id, index in picks:
        row, idx = select_case(SurfaceSpec(d, sings))
        assert (row.case_id, idx) == (case_id, index), (d, sings)


def test_select_case_coverage_gap_message():
    with pytest.raises(NoCaseApplies, match="coverage gap"):
        select_case(SurfaceSpec(1, ("A1",)))


@pytest.mark.acceptance(5)
def test_build_refuses_specs_without_cylinder():
    # the case table alone refuses every spec the classification excludes
    refused = [s for s in enumerate_specs() if not classify(s).anticanonical_cylinder]
    assert len(refused) == 62
    for spec in refused:
        with pytest.raises(NoCaseApplies, match="no construction case covers"):
            build_tiger(spec)


@pytest.mark.acceptance(5)
def test_every_cylinder_spec_certifies():
    """Each spec the classification gives a cylinder is certified, with its
    row's hand-checked ratio and a local multiplicity past 2m."""
    covered = [s for s in enumerate_specs() if classify(s).anticanonical_cylinder]
    assert len(covered) == 188
    for spec in covered:
        cert = build_tiger(spec)
        assert not cert.unobstructed, spec
        assert cert.row.ratio == str(RESIDUAL_FIXTURES[cert.row.case_id].ratio), spec
        assert cert.row.local_multiplicity > 2 * cert.row.multiple, spec


# ------------------------------------------------------------ certificates

def test_certificate_e8():
    cert = build_tiger(SurfaceSpec(1, ("E8",)))
    row = cert.row
    assert row.case_id == "E8"
    assert str(row.singularity) == "E8"
    assert cert.singularity_index == 0
    assert row.multiple == 2
    assert dict(row.configuration) == {
        "D1": 3, "D2": 2, "D3": 4, "D4": 6, "D5": 5, "D6": 4, "D7": 3, "D8": 2,
    }
    assert row.point == ("D4", "D5")
    assert row.local_multiplicity == 11
    assert row.ratio == str(Fraction(11, 2))
    head = certificate._certificate_shell(cert)
    assert head["tiger_components"] == [["N", str(Fraction(1, 2))]]
    assert WORDING["multiplicity-recount"] in head["assumptions"]
    assert not cert.unobstructed


def test_certificate_degree_six_smooth():
    cert = build_tiger(SurfaceSpec(6, ()))
    row = cert.row
    assert row.case_id == "deg4or6"
    assert row.singularity is None
    assert cert.singularity_index is None
    assert dict(row.configuration) == {"E": 2}
    head = certificate._certificate_shell(cert)
    assert head["tiger_components"] == [
        ["N", str(Fraction(1, 3))], ["E", str(Fraction(2, 3))],
    ]
    assert WORDING["minus-one-curve"] in head["assumptions"]
    assert row.ratio == str(Fraction(7, 3))


@given(st.integers(-60, 60), st.integers(1, 12), st.integers(1, 6))
@example(9, 4, 1)
@example(0, 5, 1)
def test_fraction_text_writes_what_str_fraction_writes(n, d, k):
    # as drawn, with a common factor k, and with d dividing the numerator
    for num, den in ((n, d), (n * k, d * k), (n * d, d)):
        assert fraction_text(num, den) == str(Fraction(num, den))


def test_unobstructed_split_forces_discrepancy():
    # nothing in the real tables is unobstructed, so simulate the failure
    with forced_discrepancy():
        cert = build_tiger(SurfaceSpec(5, ()))
    assert cert.unobstructed
    assert all(o.obstruction is None for o in cert.decompositions)
    assert cert.unobstructed == cert.decompositions
    lines = list(certificate.narrate(cert))
    assert lines[-2:] == [
        "split nodes=() e=0: NO OBSTRUCTION",
        "decompositions: 1 splits, 1 unobstructed",
    ]
