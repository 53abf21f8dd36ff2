"""The streamed certificate document against the plain dict builder.

``certificate_chunks`` renders a certificate from per-half templates;
``certificate_reference`` builds the same document as one dict.  The two
must agree byte for byte, wherever the stream cuts its chunks.
"""

import collections
import dataclasses
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
from dpcylinders import specio, tigers
from dpcylinders.specio import (
    certificate_chunks,
    certificate_document,
    certificate_from_document,
)
from dpcylinders.tigers import PointSpec, TigerCertificate

from certificate_reference import reference_document, reference_text
from residual_fixtures import minimal_spec_args

# every (case row, degree) pair whose box the dict builder renders quickly;
# the pin gate (bench/pin.py) covers the larger ones, D8 and E8 included
SMALL_CASES = [
    (row, d) for row in case_tables() for d in row.degrees
    if prod(c + 1 for c in row.coefficients) <= 10**4
]


def certificate_of(row, degree):
    return build_tiger(SurfaceSpec(*minimal_spec_args(row.case_id, degree)))


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
    cert = certificate_of(row, d)
    with collector_paused():
        reference = reference_document(cert)
        assert_same_text("".join(certificate_chunks(cert)), reference_text(reference))
        # a bool, so that a failure does not print the two documents whole
        same = certificate_document(cert) == reference
        assert same


@st.composite
def redrawn_certificates(draw, cap=300):
    """A certificate of a case row with its coefficients redrawn, up to 5
    per curve and at most ``cap`` splits in its box, at any degree: rows
    gain or lose E, and a row without nodes and E has no curves at all."""
    row = draw(st.sampled_from(case_tables()))
    curves = len(row.node_coefficients) + 1  # the nodes, then E
    coefficients = [0] * curves
    size = 1
    for i in draw(st.permutations(range(curves))):
        coefficients[i] = draw(st.integers(0, min(5, cap // size - 1)))
        size *= coefficients[i] + 1
    e = coefficients[-1]
    degree = draw(st.integers(1, 9))
    row = dataclasses.replace(
        row, node_coefficients=tuple(coefficients[:-1]), e_coefficient=e, degrees=(degree,),
        # a marked point on E needs E among the row's curves
        point=PointSpec(tuple(c for c in row.point.curves if e or c != "E")),
    )
    return TigerCertificate(
        SurfaceSpec(degree, ()), row, None, enumerate_decompositions(row, degree)
    )


@settings(max_examples=60, deadline=None)
@given(redrawn_certificates(), st.integers(1, 5))
@example(certificate_of(case_tables()[2], 5), 1)  # deg5: no curves, one split
def test_stream_matches_the_dict_builder_beyond_the_table(cert, batch):
    # small batches cut the chunks at every place an entry can end
    with pytest.MonkeyPatch.context() as patch, collector_paused():
        patch.setattr(specio, "_BATCH", batch)
        chunks = list(certificate_chunks(cert))
        assert_same_text("".join(chunks), reference_text(reference_document(cert)))
    splits = prod(c + 1 for c in cert.row.coefficients)
    # the head, a chunk per batch of splits, and the tail
    assert len(chunks) == 2 + splits // batch


def test_stream_renders_an_unobstructed_split(monkeypatch):
    monkeypatch.setattr(tigers, "_obstruction_for", lambda row, degree, part1: None)
    cert = build_tiger(SurfaceSpec(2, ("A2",)))
    assert cert.status == "discrepancy"
    assert "".join(certificate_chunks(cert)) == reference_text(reference_document(cert))


def test_a_certificate_missing_a_survivor_is_not_rendered():
    """A split whose part-1 square is > -2 must come from the certificate's
    walked splits; rendering it as killed by that square would state a
    false obstruction ("square 2 <= -2") under a certified status."""
    cert = build_tiger(SurfaceSpec(2, ("A2",)))
    assert cert.decompositions[0].part1 == (0, 0)
    cert = dataclasses.replace(cert, decompositions=cert.decompositions[1:])
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


def test_a_document_with_a_key_json_cannot_sort_is_refused():
    # sort_keys compares the keys of one object, and an int is not a str
    doc = {"kind": "tiger_certificate", "spec": {"degree": 5, "singularities": []}, 1: 2}
    with pytest.raises(ValueError, match="not a JSON document: line 2 holds a key or value"):
        certificate_from_document(doc)


def test_a_key_or_value_json_cannot_render_is_refused_at_its_line():
    cert = certificate_of(case_tables()[2], 5)
    lines = "".join(certificate_chunks(cert)).splitlines()
    doc = certificate_document(cert)
    doc["decompositions"][0]["part1"][("a", "tuple")] = 0
    with pytest.raises(ValueError, match="not a JSON document: line "):
        certificate_from_document(doc)
    doc = certificate_document(cert)
    doc["status"] = {"certified"}
    status = next(n for n, line in enumerate(lines, start=1) if '"status"' in line)
    with pytest.raises(ValueError, match=f"line {status} holds a key or value .*set"):
        certificate_from_document(doc)


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=8),
    lambda values: st.lists(values, max_size=4)
    | st.dictionaries(st.text(max_size=8), values, max_size=4),
    max_leaves=12,
)


@given(json_values)
@example(reference_document(certificate_of(case_tables()[4], 2)))  # A2: 9 splits
def test_the_reference_renders_as_json_dumps(value):
    assert reference_text(value) == json.dumps(value, indent=2, sort_keys=True) + "\n"
