"""Text formats: surface spec files and JSON result documents.

Spec files are two-line key/value text ("degree: 3", "singularities: A1, A4");
documents are JSON with sorted keys and a trailing newline, so identical
inputs always render byte-identical output.  Rational values travel as
strings in lowest terms ("9/4").  A certificate document is rendered as a
stream of chunks, since it lists every split of its box.
"""

from __future__ import annotations

import json
import re
from itertools import count, zip_longest
from operator import itemgetter
from typing import Any, Callable, Iterable, Iterator, Optional

from .classify import Verdict
from .lattice import InvalidSpec, SurfaceSpec, excerpt
from .tigers import (
    CaseTable,
    Obstruction,
    Part,
    TigerCertificate,
    build_tiger,
    every_split,
)


class SpecFileError(ValueError):
    """Malformed spec file: structure, not semantics."""


# ASCII digits only: int() alone would also take "0_3" and non-ASCII digits
_DEGREE_RE = re.compile(r"([+-]?)0*([0-9]+)")


def parse_spec_text(text: str) -> SurfaceSpec:
    """Parse spec file content.

    Structure problems raise SpecFileError; semantically invalid content
    (unknown type token, degree/rank out of range) raises InvalidSpec, most
    of it from the SurfaceSpec constructor.  '#' starts a comment.
    """
    degree: Optional[int] = None
    tokens: Optional[list[str]] = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition(":")
        if not sep:
            raise SpecFileError(f"line {lineno}: expected 'key: value', got {excerpt(raw.strip())}")
        key = key.strip().lower()
        value = value.strip()
        if key == "degree":
            if degree is not None:
                raise SpecFileError(f"line {lineno}: duplicate 'degree'")
            m = _DEGREE_RE.fullmatch(value)
            if m is None:
                raise SpecFileError(
                    f"line {lineno}: degree must be an integer, got {excerpt(value)}"
                )
            sign, digits = m.groups()
            if len(digits) > 1:
                # every valid degree has one digit, and int() refuses thousands
                raise InvalidSpec(
                    f"degree must be an integer in [1, 9], got a {len(digits)}-digit number"
                )
            degree = int(sign + digits)
        elif key == "singularities":
            if tokens is not None:
                raise SpecFileError(f"line {lineno}: duplicate 'singularities'")
            tokens = [tok.strip() for tok in value.split(",") if tok.strip()]
        else:
            raise SpecFileError(f"line {lineno}: unknown key {excerpt(key)}")
    if degree is None:
        raise SpecFileError("missing 'degree' line")
    return SurfaceSpec(degree, tuple(tokens or ()))


# every document's layout
_ENCODER = json.JSONEncoder(indent=2, sort_keys=True)


def render_document(doc: dict[str, Any]) -> str:
    return _ENCODER.encode(doc) + "\n"


def _spec_block(spec: SurfaceSpec) -> dict[str, Any]:
    return {"degree": spec.degree, "singularities": [str(t) for t in spec.singularities]}


def verdict_document(spec: SurfaceSpec, verdict: Verdict) -> dict[str, Any]:
    return {
        "kind": "classification",
        "spec": _spec_block(spec),
        "picard_rank": verdict.picard_rank,
        "anticanonical_cylinder": {
            "exists": verdict.anticanonical_cylinder,
            "reason": verdict.anticanonical_reason,
        },
        "h_polar_cylinder": {
            "exists": verdict.h_polar_cylinder,
            "reason": verdict.polar_reason,
        },
    }


def _numbers_block(row: CaseTable, label: str, part: Part) -> dict[str, Any]:
    return {
        "label": label,
        "pairings": [[lbl, v] for lbl, v in zip(("K",) + row.curves, part.pairings)],
        "square": part.square,
        "dim": part.dim,
    }


def _part_block(row: CaseTable, label: str, part: Part) -> dict[str, Any]:
    # the coefficient vector runs over the nodes, then E when the row uses it
    k = len(row.node_coefficients)
    return {
        "multiple": part.multiple,
        "node_coefficients": list(part.coefficients[:k]),
        "e_coefficient": part.coefficients[k] if row.e_coefficient else 0,
        "residual": _numbers_block(row, label, part),
    }


# A split entry sits at depth 2 of a certificate document (the top-level
# object, then the "decompositions" array), its keys at depth 3.
_ENTRY_INDENT = " " * 4
# A field of an entry skeleton: "\0" and the index of its value.
_FIELD = "\0"
_FIELD_RE = re.compile(r'"\\u0000(\d+)"')


def _entry_template(row: CaseTable) -> tuple[str, Callable[[tuple], tuple]]:
    """A split entry of the row's certificates as a %-template, and the
    picker of the template's values, in template order, from
    (obstruction text, part 1 numbers, part 2 numbers).

    A part's numbers are its coefficients, its pairings, its square and its
    dim.  Every entry of a row has one key layout, so the template is the
    rendering of one skeleton entry whose integers are numbered fields.
    """
    fields = (f"{_FIELD}{i}" for i in count(1))
    n = len(row.curves)

    def blank(multiple: int) -> Part:
        numbers = [next(fields) for _ in range(2 * n + 3)]
        return Part(multiple, tuple(numbers[:n]), tuple(numbers[n:-2]), *numbers[-2:])

    skeleton = _ENCODER.encode({
        "obstruction": f"{_FIELD}0",
        "part1": _part_block(row, "F1", blank(1)),
        "part2": _part_block(row, "F2", blank(row.multiple - 1)),
    })
    text = _ENTRY_INDENT + skeleton.replace("\n", "\n" + _ENTRY_INDENT)
    order = [int(i) for i in _FIELD_RE.findall(text)]
    return _FIELD_RE.sub("%s", text.replace("%", "%%")), itemgetter(*order)


def _obstruction_text(obstruction: Optional[Obstruction]) -> str:
    """An entry's "obstruction" value, indented for its place in the entry."""
    if obstruction is None:
        return "null"
    block = {
        "kind": obstruction.kind,
        "witness": [[k, v] for k, v in obstruction.witness],
        "description": obstruction.describe(),
    }
    return _ENCODER.encode(block).replace("\n", "\n" + _ENTRY_INDENT + "  ")


def _certificate_shell(cert: TigerCertificate) -> dict[str, Any]:
    """A certificate's document with an empty "decompositions" array."""
    row, degree = cert.row, cert.spec.degree
    return {
        "kind": "tiger_certificate",
        "spec": _spec_block(cert.spec),
        "case": row.case_id,
        "singularity": str(row.singularity) if row.singularity else None,
        "singularity_index": cert.singularity_index,
        "multiple": row.multiple,
        "configuration": [[lbl, c] for lbl, c in row.configuration],
        "residual": _numbers_block(row, "N", row.residual(degree)),
        "point": {"kind": row.point.kind, "curves": list(row.point.curves)},
        "residual_multiplicity": row.residual_multiplicity,
        "local_multiplicity": row.local_multiplicity,
        "ratio": str(row.ratio),
        "tiger_components": [[lbl, str(c)] for lbl, c in row.tiger_components],
        "decompositions": [],
        "assumptions": list(row.assumptions(degree)),
        "status": cert.status,
    }


# split entries per chunk of a streamed certificate
_BATCH = 1000


def certificate_chunks(cert: TigerCertificate) -> Iterator[str]:
    """A certificate's JSON document, rendered as ``render_document`` would
    render it, in chunks: the head, one chunk per ``_BATCH`` split entries,
    and the remaining entries with the tail.

    The document lists every split of the box with both parts' numbers, so
    it is checkable on its own; its size grows with the box, the memory
    used here does not.
    """
    empty = '"decompositions": []'
    head, _, tail = render_document(_certificate_shell(cert)).partition(empty)
    template, pick = _entry_template(cert.row)
    obstructions: dict[Optional[Obstruction], str] = {}
    # a box always holds the split with first part 0, so the array is never empty
    yield head + empty[:-1] + "\n"
    entries: list[str] = []
    # every entry after the first starts with the separator
    form, following = template, ",\n" + template
    for split, (part1, part2) in every_split(cert):
        obstruction = obstructions.get(split.obstruction)
        if obstruction is None:
            obstruction = obstructions[split.obstruction] = _obstruction_text(split.obstruction)
        entries.append(form % pick((
            obstruction, *part1.coefficients, *part1.pairings, part1.square, part1.dim,
            *part2.coefficients, *part2.pairings, part2.square, part2.dim,
        )))
        form = following
        if len(entries) == _BATCH:
            yield "".join(entries)
            entries = []
    yield "".join(entries) + "\n  ]" + tail


def certificate_document(cert: TigerCertificate) -> dict[str, Any]:
    """Full JSON form of a certificate: its document, parsed."""
    return json.loads("".join(certificate_chunks(cert)))


def _lines(chunks: Iterable[str]) -> Iterator[str]:
    """The lines of a text given in chunks, without their line breaks."""
    rest = ""
    for chunk in chunks:
        *lines, rest = (rest + chunk).split("\n")
        yield from lines
    if rest:
        yield rest


def certificate_from_document(doc: Any) -> TigerCertificate:
    """Re-derive the certificate a document states from its spec block.

    The document must render exactly as that certificate's own document,
    value for value and type for type; anything else raises ValueError
    naming the first line where the two renderings differ.  The renderings
    are compared line by line as they are made, so neither is built whole.
    """
    if type(doc) is not dict or doc.get("kind") != "tiger_certificate":
        raise ValueError("not a tiger certificate document")
    block = doc.get("spec")
    if (type(block) is not dict or type(block.get("degree")) is not int
            or type(block.get("singularities")) is not list):
        raise ValueError(
            "field 'spec' must be an object with an integer 'degree' "
            "and a 'singularities' array"
        )
    cert = build_tiger(SurfaceSpec(block["degree"], tuple(block["singularities"])))
    lines = zip_longest(
        _lines(certificate_chunks(cert)), _lines(_ENCODER.iterencode(doc)), fillvalue=""
    )
    for number, (should, found) in enumerate(lines, start=1):
        if should != found:
            raise ValueError(
                f"not the certificate's own rendering: line {number} "
                f"should read {excerpt(should.strip())}, not {excerpt(found.strip())}"
            )
    return cert
