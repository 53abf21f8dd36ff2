"""Text formats: surface spec files and JSON result documents.

Spec files are two-line key/value text ("degree: 3", "singularities: A1, A4");
documents are JSON with sorted keys and a trailing newline, so identical
inputs always render byte-identical output.  Rational values travel as
strings in lowest terms ("9/4").  A certificate document is rendered as a
stream of chunks, since it lists every split of its box: its entries are
filled from per-half templates, text rendered once for each point of the
box's trailing half and once for each point of its leading half, so that
a split renders only the numbers that cross the cut between the halves.
"""

from __future__ import annotations

import json
import re
from itertools import groupby, zip_longest
from operator import itemgetter
from typing import Any, Callable, Iterable, Iterator, Optional, Union

from .classify import Verdict
from .lattice import InvalidSpec, SurfaceSpec, excerpt
from .tigers import (
    BoxHalves,
    CaseTable,
    HalfPoint,
    Obstruction,
    Part,
    TigerCertificate,
    build_tiger,
    half_walk,
    killed_by_square,
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
# A field of an entry skeleton: "\0" and the index of its source.
_FIELD = "\0"
_FIELD_RE = re.compile(r'"\\u0000(\d+)"')


def _entry_form(row: CaseTable, halves: BoxHalves) -> tuple[
    Callable[[HalfPoint], list[str]],
    Callable[[HalfPoint], tuple[str, ...]],
    Callable[[tuple], tuple],
]:
    """A split entry of the row's certificates, cut by where its text
    comes from.

    Every entry of a row has one key layout: the rendering of a skeleton
    entry whose values are numbered fields.  Its text is the leading
    point's numbers with the text around them, and between them the values
    of a split: its obstruction text, each run of the trailing point's
    numbers with the text between them, and each of ``half_walk``'s numbers
    across the cut.  Returns the entry template of a leading point, a list
    whose odd places take a split's values; the runs of a trailing point;
    and the picker of a split's values, in template order, from (numbers
    across the cut as text, obstruction text, trailing runs).
    """
    sources: list[tuple] = []

    def field(*source: object) -> str:
        sources.append(source)
        return f"{_FIELD}{len(sources) - 1}"

    at_cut = {k: c for c, k in enumerate(halves.at_cut)}

    def number(p: int, k: int) -> str:
        if k in at_cut:
            return field("crossing", 4 + p * len(at_cut) + at_cut[k])
        return field("trailing" if k in halves.trailing_only else "leading", p, k)

    n = len(row.curves)
    blank = [
        Part(multiple, tuple(number(p, k) for k in range(n)),
             tuple(number(p, k) for k in range(n, 2 * n + 1)),
             field("crossing", 2 * p), field("crossing", 2 * p + 1))
        for p, multiple in enumerate((1, row.multiple - 1))
    ]
    skeleton = _ENCODER.encode({
        "obstruction": field("obstruction"),
        "part1": _part_block(row, "F1", blank[0]),
        "part2": _part_block(row, "F2", blank[1]),
    })
    text = _ENTRY_INDENT + skeleton.replace("\n", "\n" + _ENTRY_INDENT)
    # the text between fields, then each field's source, in text order
    pieces = _FIELD_RE.split(text)
    items = [("text", piece) if i % 2 == 0 else sources[int(piece)]
             for i, piece in enumerate(pieces)]

    def holder(i: int) -> object:
        kind = items[i][0]
        if kind == "text":
            # text between two trailing numbers joins their run
            inside = 0 < i < len(items) - 1 and items[i - 1][0] == items[i + 1][0] == "trailing"
            return "trailing" if inside else "leading"
        return kind if kind in ("leading", "trailing") else i

    fixed: list[list[tuple]] = []
    runs: list[list[tuple]] = []
    # each value's place in (*crossing, obstruction text, *runs)
    crossing = 4 + 2 * len(at_cut)
    order: list[int] = []
    for kind, group in groupby(range(len(items)), holder):
        members = [items[i] for i in group]
        if kind == "leading":
            fixed.append(members)
        elif kind == "trailing":
            order.append(crossing + 1 + len(runs))
            runs.append(members)
        else:
            (source,) = members
            order.append(crossing if source[0] == "obstruction" else source[1])

    def fill(members: list[tuple], point: HalfPoint) -> str:
        return "".join(m[1] if m[0] == "text" else str(point.numbers[m[1]][m[2]])
                       for m in members)

    def template(point: HalfPoint) -> list[str]:
        entry = [""] * (2 * len(fixed) - 1)
        entry[::2] = [fill(members, point) for members in fixed]
        return entry

    return template, lambda point: tuple(fill(run, point) for run in runs), itemgetter(*order)


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


class _Texts(dict):
    """Each integer's decimal text, made once: a lookup takes a quarter
    of the time of ``str`` on an int."""

    def __missing__(self, value: int) -> str:
        text = self[value] = str(value)
        return text


# split entries per chunk of a streamed certificate.  An entry is at most
# about 2.2 KB, so a chunk and its encoding stay near 110 KB and are served
# again and again from the heap; megabyte chunks were mapped and faulted in
# afresh each time (87,000 page faults and 0.2 s of kernel time for D8 at
# degree 1, against 3,000 faults at 50 entries).  An entry is one join of
# its leading point's template, and a chunk one join of its entries.
_BATCH = 50


def certificate_chunks(cert: TigerCertificate) -> Iterator[str]:
    """A certificate's JSON document, rendered as ``render_document`` would
    render it, in chunks: the head, one chunk per ``_BATCH`` split entries,
    and the remaining entries with the tail.

    The document lists every split of the box with both parts' numbers, so
    it is checkable on its own; its size grows with the box, the memory
    used here does not.  The box is walked in two halves (``BoxHalves``):
    each trailing point's runs of numbers are rendered once, each leading
    point's entry template when the walk reaches it, and a split fills in
    its obstruction text, the runs and the numbers across the cut.
    """
    empty = '"decompositions": []'
    head, _, tail = render_document(_certificate_shell(cert)).partition(empty)
    halves = BoxHalves(cert.row, cert.spec.degree)
    template, trail_runs, pick = _entry_form(cert.row, halves)
    runs = [trail_runs(point) for point in halves.trailing]
    # obstruction texts by the walked obstruction, or by the part-1 square
    # that kills a split
    texts: dict[Union[Optional[Obstruction], int], str] = {}
    decimal = _Texts().__getitem__
    # a box always holds the split with first part 0, so the array is never empty
    yield head + empty[:-1] + "\n"
    entries: list[str] = []
    separator, current = "", None
    for survivor, lead, j, crossing in half_walk(cert, halves):
        if lead is not current:
            entry, current = template(lead), lead
        key = crossing[0] if survivor is None else survivor.obstruction
        text = texts.get(key)
        if text is None:
            text = texts[key] = _obstruction_text(
                killed_by_square(key) if survivor is None else key
            )
        entry[1::2] = pick((*map(decimal, crossing), text, *runs[j]))
        entries.append("".join(entry))
        if len(entries) == _BATCH:
            yield separator + ",\n".join(entries)
            entries, separator = [], ",\n"
    yield (separator + ",\n".join(entries) if entries else "") + "\n  ]" + tail


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


def _json_lines(doc: dict[Any, Any]) -> Iterator[str]:
    """The lines of a document's rendering, as they are made.  A key or
    value JSON cannot render (a key that is not a string beside string
    keys, a set) raises ValueError naming its line."""
    number = 0
    try:
        for number, line in enumerate(_lines(_ENCODER.iterencode(doc)), start=1):
            yield line
    except TypeError as error:
        raise ValueError(
            f"not a JSON document: line {number + 1} holds a key or value "
            f"JSON cannot render ({excerpt(str(error))})"
        ) from None


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
    lines = zip_longest(_lines(certificate_chunks(cert)), _json_lines(doc), fillvalue="")
    for number, (should, found) in enumerate(lines, start=1):
        if should != found:
            raise ValueError(
                f"not the certificate's own rendering: line {number} "
                f"should read {excerpt(should.strip())}, not {excerpt(found.strip())}"
            )
    return cert
