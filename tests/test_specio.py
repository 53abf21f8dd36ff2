"""The streamed certificate document against the plain dict builder.

``certificate_chunks`` renders a certificate from per-half templates;
``certificate_reference`` builds the same document as one dict.  The two
must agree byte for byte, wherever the stream cuts its chunks.
"""

import collections
import gc
import json
import tracemalloc
from contextlib import contextmanager
from itertools import islice, zip_longest
from math import prod

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dpcylinders import SurfaceSpec, build_tiger, case_tables, enumerate_decompositions
from dpcylinders import certificate
from dpcylinders.certificate import certificate_chunks, certificate_document
from dpcylinders.tigers import TigerCertificate

from box_walk import redrawn_boxes, smallest_certificate
from certificate_reference import assumptions, reference_document, reference_text
from conftest import forced_discrepancy
from residual_fixtures import row_by_id

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
    """Pause the cyclic garbage collector.  A reference document and a
    parsed stream are a million acyclic dicts and lists on A7, which
    reference counting frees; each pass of the collector would walk them
    all again, about 0.8 s of an A7 case."""
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
        reference = reference_document(cert)
        assert_same_text("".join(certificate_chunks(cert)), reference_text(reference))
        # a bool, so that a failure does not print the two documents whole
        same = certificate_document(cert) == reference
        assert same


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
    assert cert.status == "discrepancy"
    assert "".join(certificate_chunks(cert)) == reference_text(reference_document(cert))


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
    texts = ([], [], [])
    for chunks in zip_longest(*map(certificate_chunks, certs), fillvalue=""):
        for text, chunk in zip(texts, chunks):
            text.append(chunk)
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
    assert cert.status == "certified"
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


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=8),
    lambda values: st.lists(values, max_size=4)
    | st.dictionaries(st.text(max_size=8), values, max_size=4),
    max_leaves=12,
)


@given(json_values)
@example(reference_document(smallest_certificate(row_by_id("A2"), 2)))  # 9 splits
def test_the_reference_renders_as_json_dumps(value):
    assert reference_text(value) == json.dumps(value, indent=2, sort_keys=True) + "\n"
