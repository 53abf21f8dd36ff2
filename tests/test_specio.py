"""The streamed certificate document against the plain dict builder.

``certificate_chunks`` renders a certificate from per-row templates;
``certificate_reference`` builds the same document as one dict.  The two
must agree byte for byte, wherever the stream cuts its chunks.
"""

import collections
import dataclasses
import tracemalloc
from math import prod

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dpcylinders import SurfaceSpec, build_tiger, case_tables, enumerate_decompositions
from dpcylinders import specio, tigers
from dpcylinders.specio import certificate_chunks, certificate_document
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


@pytest.mark.parametrize(
    "row,d", SMALL_CASES, ids=[f"{row.case_id}-d{d}" for row, d in SMALL_CASES]
)
def test_stream_matches_the_dict_builder(row, d):
    cert = certificate_of(row, d)
    reference = reference_document(cert)
    assert "".join(certificate_chunks(cert)) == reference_text(reference)
    assert certificate_document(cert) == reference


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
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(specio, "_BATCH", batch)
        chunks = list(certificate_chunks(cert))
    assert "".join(chunks) == reference_text(reference_document(cert))
    splits = prod(c + 1 for c in cert.row.coefficients)
    # the head, a chunk per batch of splits, and the tail
    assert len(chunks) == 2 + splits // batch


def test_stream_renders_an_unobstructed_split(monkeypatch):
    monkeypatch.setattr(tigers, "_obstruction_for", lambda row, degree, part1: None)
    cert = build_tiger(SurfaceSpec(2, ("A2",)))
    assert cert.status == "discrepancy"
    assert "".join(certificate_chunks(cert)) == reference_text(reference_document(cert))


def test_streaming_memory_does_not_grow_with_the_document():
    """A8 at degree 1: 14,400 splits, a 31.7 MB document."""
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
