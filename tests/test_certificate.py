"""The streamed certificate document against the plain dict builder.

``certificate_chunks`` renders a certificate from per-half templates;
``certificate_reference`` builds the same document as one dict.  The two
must agree byte for byte, wherever the stream cuts its chunks.  Then the
document's fields against the pairing table, and the renderer's box
halves against ``split_parts``.
"""

import collections
import gc
import tracemalloc
from contextlib import contextmanager
from itertools import islice, product, zip_longest
from math import prod
from operator import mul

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dpcylinders import SurfaceSpec, build_tiger, case_tables, enumerate_decompositions
from dpcylinders import certificate
from dpcylinders.certificate import BoxHalves, certificate_chunks, certificate_document, narrate
from dpcylinders.tigers import TigerCertificate

from box_walk import box, redrawn_boxes, smallest_certificate, split_parts
from certificate_reference import assumptions, reference_document, reference_text
from conftest import forced_discrepancy
from pairing_reference import pairings, row_reference
from residual_fixtures import minimal_spec_args, row_by_id

# every (case row, degree) pair whose box the dict builder renders quickly;
# the pin gate (bench/pin.py) covers the larger ones, D8 and E8 included
SMALL_CASES = [
    (row, d) for row in case_tables() for d in row.degrees
    if prod(c + 1 for c in row.coefficients) <= 10**4
]


def redrawn(row, degree):
    """The certificate of a row with redrawn numbers, at one of its degrees."""
    return TigerCertificate(
        SurfaceSpec(degree, ()), row, None, enumerate_decompositions(row, degree)
    )


@contextmanager
def collector_paused():
    """Pause the cyclic garbage collector.  A reference document is about
    200,000 acyclic dicts and lists on A7, which reference counting
    frees; each pass of the collector would walk them all again."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def assert_same_text(found, expected):
    """Text equality that fails naming the first differing line: pytest's
    own report of two unequal strings diffs them whole, for minutes on a
    14 MB document."""
    if found != expected:
        lines = zip_longest(found.splitlines(), expected.splitlines())
        number, pair = next((n, p) for n, p in enumerate(lines, 1) if p[0] != p[1])
        raise AssertionError("line %d: %r != %r" % (number, *pair))


@pytest.mark.parametrize(
    "row,d", SMALL_CASES, ids=[f"{row.case_id}-d{d}" for row, d in SMALL_CASES]
)
def test_stream_matches_the_dict_builder(row, d):
    cert = smallest_certificate(row, d)
    with collector_paused():
        expected = reference_text(reference_document(cert))
        assert_same_text("".join(certificate_chunks(cert)), expected)


def test_every_head_states_the_references_assumptions():
    """The assumption list of every (case row, degree) pair, D8 and E8
    included, against the dict builder's rule and its own record of each
    case's notes: the head alone, as the largest documents are 333 MB."""
    pairs = [(row, d) for row in case_tables() for d in row.degrees]
    assert len(pairs) == 40
    wrong = [f"{row.case_id}-d{d}" for row, d in pairs
             if certificate._certificate_shell(smallest_certificate(row, d))["assumptions"]
             != assumptions(row, d)]
    assert not wrong


@settings(max_examples=60, deadline=None)
@given(redrawn_boxes(cap=300).map(lambda case: redrawn(*case)), st.integers(1, 5))
@example(smallest_certificate(row_by_id("deg5"), 5), 1)  # no curves, one split
# E alone, so the leading half is empty
@example(redrawn(row_by_id("deg4or6"), 6), 2)
# E in the trailing half beside two nodes
@example(redrawn(row_by_id("A3")._replace(e_coefficient=2), 2), 3)
# the branch node D1 leads and meets D3 and D4 across the cut
@example(redrawn(row_by_id("D4"), 2), 4)
# the branch node D3 trails and meets D1 and D2 across the cut
@example(redrawn(row_by_id("D5"), 1), 5)
# the branch node D4 trails and meets D1 and D3 across the cut
@example(redrawn(row_by_id("E6"), 1), 1)
def test_stream_matches_the_dict_builder_beyond_the_table(cert, batch):
    """The stream and the dict builder agree on a redrawn box, wherever the
    chunks are cut.  The builder takes each part's numbers from
    ``split_parts`` and each survivor's obstruction from the certificate,
    so the agreement checks the numbers across the cut of every split and
    that the survivors ride along exactly where part 1's square is > -2."""
    # small batches cut the chunks at every place an entry can end
    with pytest.MonkeyPatch.context() as patch, collector_paused():
        patch.setattr(certificate, "_BATCH", batch)
        chunks = list(certificate_chunks(cert))
        assert_same_text("".join(chunks), reference_text(reference_document(cert)))
    splits = prod(c + 1 for c in cert.row.coefficients)
    # the head, a chunk per batch of splits, and the tail
    assert len(chunks) == 2 + splits // batch


def test_stream_renders_an_unobstructed_split():
    with forced_discrepancy():
        cert = build_tiger(SurfaceSpec(2, ("A2",)))
    assert cert.unobstructed
    reference = reference_document(cert)
    assert "".join(certificate_chunks(cert)) == reference_text(reference)
    # and parsed, every entry kept: the one whole-document check of
    # certificate_document, whose other callers read single fields
    assert certificate_document(cert) == reference


def test_interleaved_streams_render_their_own_documents():
    """D6 at degrees 1 and 2 share a case row and its 1,080-split box but
    not the residual, so the numbers of their splits differ; A5 at degree
    1 has another row and box, whose columns differ under the keys it
    shares with D6.  Drawn chunk by chunk in turn, each stream renders its
    own document: what one certificate's stream has made is not served to
    another."""
    certs = [build_tiger(SurfaceSpec(d, (t,))) for d, t in ((1, "D6"), (2, "D6"), (1, "A5"))]
    assert certs[0].row == certs[1].row
    assert prod(c + 1 for c in certs[0].row.coefficients) == 1080
    assert certs[0].row.residual(1) != certs[1].row.residual(2)
    # zip_longest draws a chunk of each stream in turn; zip(*) regroups them
    texts = zip(*zip_longest(*map(certificate_chunks, certs), fillvalue=""))
    with collector_paused():
        for cert, text in zip(certs, texts):
            assert_same_text("".join(text), reference_text(reference_document(cert)))


def test_a_certificate_missing_a_survivor_is_not_rendered():
    """A split whose part-1 square is > -2 must come from the certificate's
    walked splits; rendering it as killed by that square would state a
    false obstruction ("square 2 <= -2") under a certified status."""
    cert = build_tiger(SurfaceSpec(2, ("A2",)))
    assert cert.decompositions[0].part1 == (0, 0)
    cert = cert._replace(decompositions=cert.decompositions[1:])
    assert not cert.unobstructed
    with pytest.raises(KeyError):
        collections.deque(certificate_chunks(cert), 0)


def test_streaming_memory_does_not_grow_with_the_document():
    """A8 at degree 1: 14,400 splits, a 31.7 MB document.  Then the first
    chunks of the largest half tables, E8 and D8 at degree 1 (420 leading
    and 360 trailing points, 672 and 120): they need the trailing half's
    numbers and runs and one leading template, not a template per leading
    point (about 0.8 MiB more on E8 and 1.1 MiB on D8)."""
    cert = build_tiger(SurfaceSpec(1, ("A8",)))
    assert prod(c + 1 for c in cert.row.coefficients) >= 5000
    bound = 8 * 2**20
    tracemalloc.start()
    try:
        sizes = collections.deque(map(len, certificate_chunks(cert)))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sum(sizes) > 3 * bound
    assert peak < bound

    for singularity in ("E8", "D8"):
        cert = build_tiger(SurfaceSpec(1, (singularity,)))
        tracemalloc.start()
        try:
            chunks = certificate_chunks(cert)
            sizes = collections.deque(map(len, islice(chunks, 4)))
            chunks.close()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert sum(sizes) > 3 * 10**5
        assert peak < 1.5 * 2**20, singularity


# ----------------------------------- the document's fields and the box halves

def test_point_kind_follows_its_curves():
    # no curve, one curve and two curves through the marked point: the
    # document names the kind, the trace says where the point is
    for spec, kind, curves, where in (
        (SurfaceSpec(5, ()), "general", [], "a general smooth point"),
        (SurfaceSpec(6, ()), "on_curve", ["E"], "a general point on E"),
        (SurfaceSpec(2, ("A2",)), "node_intersection", ["D1", "D2"],
         "the intersection of D1 and D2"),
    ):
        cert = build_tiger(spec)
        assert certificate_document(cert)["point"] == {"kind": kind, "curves": curves}
        assert next(narrate(cert)).endswith(f", marked point {where}"), spec


def test_part_numbers_match_pairing_table():
    # closed forms against the literal pairing table, for every split of a
    # few structurally different cases
    checks = [("A2", 3), ("A3", 2), ("D4", 3), ("A1deg3", 3), ("E6", 1), ("deg4or6", 6)]
    for case_id, d in checks:
        row = row_by_id(case_id)
        table, _ = row_reference(row, d)
        # both parts of every split, as the v1 document lists them
        cert = build_tiger(SurfaceSpec(*minimal_spec_args(case_id, d)))
        for entry in certificate_document(cert)["decompositions"]:
            for block in (entry["part1"], entry["part2"]):
                coefficients = block["node_coefficients"] + (
                    [block["e_coefficient"]] if row.e_coefficient else []
                )
                cls = table.part(
                    block["multiple"], dict(zip(row.curves, coefficients, strict=True))
                )
                numbers = block["residual"]
                assert table.pair(cls, cls) == numbers["square"]
                assert pairings(table, cls) == dict(numbers["pairings"])
                assert table.dim(cls) == numbers["dim"]


@pytest.mark.parametrize(
    "args,curve,half",
    [
        ((2, ("A3",)), "D2", "trailing"),
        ((1, ("D5",)), "D4", "trailing"),
        ((2, ("A3",)), "D1", "leading"),
        ((1, ("D5",)), "D2", "leading"),
    ],
    # part1 and part2 name the two boxes, and the suffix the half of the box
    # that holds the named curve's coefficient
    ids=["part1", "part2", "part1-leading", "part2-leading"],
)
def test_half_walk_checks_parity_at_every_split(args, curve, half):
    """Each curve of a row has an even  C^2 + C.K,  whichever half of the
    box it falls in, so every class has an even  P^2 - P.K:  both parts of
    every split the certificate stream writes, its squares and dims summed
    from the two halves, state an exact dim."""
    cert = build_tiger(SurfaceSpec(*args))
    row = cert.row
    k, cut = row.curves.index(curve), len(row.curves) // 2
    assert (k < cut) == (half == "leading")
    assert (row.form[k][1 + k] + row.form[k][0]) % 2 == 0
    for entry in certificate_document(cert)["decompositions"]:
        for block in (entry["part1"]["residual"], entry["part2"]["residual"]):
            assert block["square"] - dict(block["pairings"])["K"] == 2 * block["dim"], entry


@settings(max_examples=60, deadline=None)
@given(redrawn_boxes(cap=2000))
# E alone, so the leading half is empty
@example((row_by_id("deg4or6"), 6))
# E in the trailing half beside two nodes
@example((row_by_id("A3")._replace(e_coefficient=2), 2))
# the branch node D1 leads and meets D3 and D4 across the cut
@example((row_by_id("D4"), 2))
# the branch node D3 trails and meets D1 and D2 across the cut
@example((row_by_id("D5"), 1))
# the branch node D4 trails and meets D1 and D3 across the cut
@example((row_by_id("E6"), 1))
def test_running_sums_match_the_closed_form_beyond_the_table(case):
    """The box halves' numbers add up to ``split_parts`` at every split of
    a redrawn box, and the two halves run through the box in its
    lexicographic order.

    Each number is the leading point's plus the trailing point's less the
    zero split's, and each square adds 2 A.B and each dim A.B, for the
    pairing A.B of the halves' curves, here summed from the row's form;
    the halves' ``across`` give it as a dot product, and ``crossing``
    gives these multiples.  Outside ``crossing`` one half holds the zero
    split's number at every point, the trailing half's or, in
    ``trailing_only``, the leading half's, so the stream reads each such
    number off the other half.  How the certificate stream puts these
    numbers into a document, survivors included, is checked against the
    dict builder above."""
    row, d = case
    halves = BoxHalves(row, d)
    leading = list(halves.leading())
    splits = list(product(leading, halves.trailing))
    assert [lead.coefficients + trail.coefficients for lead, trail in splits] == list(box(row))
    # a part's coefficients and pairings take no A.B, its square two, its dim one
    width = 2 * len(row.curves) + 3
    weights = ((0,) * (width - 2) + (2, 1)) * 2
    assert all(halves.crossing.get(i, k) == k for i, k in enumerate(weights))
    for lead, trail in splits:
        a, b = lead.coefficients, trail.coefficients
        ab = sum(x * y * row.form[i][1 + halves.cut + j]
                 for i, x in enumerate(a) for j, y in enumerate(b))
        assert sum(map(mul, lead.across, trail.across)) == ab
        numbers = [v for part in split_parts(row, d, a + b)
                   for v in (*part.coefficients, *part.pairings, part.square, part.dim)]
        assert [x + y - z + k * ab for x, y, z, k in
                zip(lead.numbers, trail.numbers, halves.zero, weights, strict=True)] == numbers
    for i in set(range(2 * width)) - set(halves.crossing):
        still = leading if i in halves.trailing_only else halves.trailing
        assert all(point.numbers[i] == halves.zero[i] for point in still)
