"""The v1 certificate document: every split of a tiger's box, written out.

A certificate holds only the splits that survive part 1's square test; its
document lists every split of the box with both parts' numbers and its
obstruction, so it is checkable on its own.  It streams in chunks, each
entry ``specio``'s encoding of a skeleton cut by one regular expression
into templates, filled once per point of each half of the box (``BoxHalves``).
"""

from __future__ import annotations

import json
import re
from itertools import count, product, zip_longest
from operator import add, itemgetter, mul
from typing import Any, Callable, Iterable, Iterator, NamedTuple, Optional, Union

from .lattice import SurfaceSpec, excerpt
from .specio import _ENCODER, _spec_block, render_document
from .tigers import (
    NEGATIVE_SELF_INTERSECTION,
    CaseTable,
    Obstruction,
    Part,
    TigerCertificate,
    _pairings,
    build_tiger,
)


class HalfPoint(NamedTuple):
    """One point of a half of a certificate's box, with the numbers of its
    splits that depend on that half alone.

    ``numbers`` holds each part's coefficients over the row's curves, 0 off
    the half, then its pairings (P.K, P.C_1, ..., P.C_n) as this half's
    share: a pairing is the leading share plus the trailing one, and a
    share is 0 where only the other half moves the pairing.  ``at_cut`` is
    the shares of the pairings both halves move, part 1's then part 2's.
    ``terms`` are this half's shares of part 1's square and of
    P^2 - P.K (twice its dim), then of part 2's; a split adds the leading
    share, the trailing share and the term across the cut, the dot product
    of the two halves' ``across``.
    """

    coefficients: tuple[int, ...]
    numbers: tuple[tuple[int, ...], tuple[int, ...]]
    terms: tuple[int, int, int, int]
    across: tuple[int, ...]
    at_cut: tuple[int, ...]


class BoxHalves:
    """A (case row, degree) box cut into a leading and a trailing half of
    its coordinates: the first ``n // 2`` of its n curves, and the rest.

    Part 1 is  P = -K - A - B,  A and B the two halves' curves with their
    coefficients, so  P^2 = (-K - A)^2 + (B^2 + 2 K.B) + 2 A.B,  and A.B
    pairs only the curves that meet across the cut.  Part 2 is  N - P  for
    the residual N, so its square  N^2 - 2 N.P + P^2  adds one more share
    of each half, from the linear  N.P.  The coefficients and pairings are
    linear too; the constants, those of -K and of N, go to the trailing
    half for the numbers that only it moves, else to the leading half.  A
    half moves the pairings where its curves' rows of the case row's
    ``form`` are nonzero.

    ``at_cut`` and ``trailing_only`` index a part's ``HalfPoint.numbers``:
    the numbers that take both halves, in ``HalfPoint.at_cut`` order, and
    the ones the trailing half holds alone.  The leading half holds the
    rest.  ``trailing`` lists the trailing half's points; ``leading()``
    makes the leading half's, as a walk reaches them.  Both run in
    ascending lexicographic order.
    """

    def __init__(self, row: CaseTable, degree: int) -> None:
        box = row.coefficients
        n = len(box)
        self.row, self.degree, self.cut = row, degree, n // 2
        # the pairings each half moves
        lead, trail = ({i for pairs in half for i, v in enumerate(pairs) if v}
                       for half in (row.form[:self.cut], row.form[self.cut:]))
        self.at_cut = tuple(n + i for i in sorted(lead & trail))
        self.trailing_only = frozenset(range(self.cut, n)) | {n + i for i in trail - lead}
        # the trailing curves that meet a leading one
        self._meeting = [k - n - 1 for k in self.at_cut if k - n - 1 >= self.cut]
        # the numbers of -K, as part 1's constant share, and of N
        self._minus_k = (0,) * n + _pairings(row, degree, 1, ())
        self._residual = row.residual(degree)
        self._residual_numbers = box + self._residual.pairings
        self.trailing = tuple(
            self._point(b, False) for b in product(*(range(c + 1) for c in box[self.cut:]))
        )

    def leading(self) -> Iterator[HalfPoint]:
        for a in product(*(range(c + 1) for c in self.row.coefficients[:self.cut])):
            yield self._point(a, True)

    def _point(self, a: tuple[int, ...], leading: bool) -> HalfPoint:
        row, degree, cut, residual = self.row, self.degree, self.cut, self._residual
        n = len(row.coefficients)
        full = a + (0,) * (n - cut) if leading else (0,) * cut + a
        moves = _pairings(row, degree, 0, full)  # of -A, or -B
        # where this half holds the constant share
        owned = [(k in self.trailing_only) != leading for k in range(2 * n + 1)]
        part1 = tuple(v + c * o for v, c, o in zip(full + moves, self._minus_k, owned))
        part2 = tuple(r * o - v for v, r, o in zip(part1, self._residual_numbers, owned))
        # the half's class H is -K - A, or -B: its K-degree, its share of
        # part 1's square, (-K - A)^2 or B^2 + 2 K.B, and N.H
        m = int(leading)
        k_degree = moves[0] - m * degree
        square = m * degree - 2 * moves[0] - sum(map(mul, full, moves[1:]))
        n_dot = -m * residual.pairings[0] - sum(map(mul, full, residual.pairings[1:]))
        share2 = m * residual.square - 2 * n_dot + square
        return HalfPoint(
            a,
            (part1, part2),
            (square, square - k_degree, share2, share2 + k_degree - m * residual.pairings[0]),
            # 2 A.C_j, or the coefficient b_j, for each trailing curve C_j met across the cut
            tuple(-2 * moves[1 + j] if leading else full[j] for j in self._meeting),
            tuple(part[k] for part in (part1, part2) for k in self.at_cut),
        )


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
# A field of an entry skeleton, as JSON renders it: "\0", its kind and its
# index.  A leading ("L") or trailing ("T") number indexes a half point's
# numbers of both parts, flattened; a split's value ("X") its values.
_FIELD_RE = re.compile(r'"\\u0000[LTX](\d+)"')
# The cuts of an entry: each value, and each run of trailing numbers with
# only text between them.  That text holds no backslash, so a run stops at
# any other field.
_CUT_RE = re.compile(r'"\\u0000X(\d+)"|("\\u0000T\d+"(?:[^\\]*"\\u0000T\d+")*)')


def _format(piece: str) -> str:
    """A piece of an entry as a ``str.format`` template of the numbers."""
    return _FIELD_RE.sub(r"{\1}", piece.replace("{", "{{").replace("}", "}}"))


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
    numbers with the text between them, and each number across the cut.
    A split's values come as one tuple: part 1's square and dim, part 2's,
    then the pairings at the cut of part 1 and of part 2 (``at_cut``
    order), all as text, then the obstruction text, then the trailing
    runs.  Returns the entry template of a leading point, a list whose odd
    places take a split's values; the runs of a trailing point; and the
    picker of a split's values in template order.
    """
    at_cut = {k: c for c, k in enumerate(halves.at_cut)}
    n = len(row.curves)

    def number(p: int, k: int) -> str:
        if k in at_cut:
            return f"\0X{4 + p * len(at_cut) + at_cut[k]}"
        return f"\0{'T' if k in halves.trailing_only else 'L'}{p * (2 * n + 1) + k}"

    blank = [
        Part(multiple, tuple(number(p, k) for k in range(n)),
             tuple(number(p, k) for k in range(n, 2 * n + 1)), f"\0X{2 * p}", f"\0X{2 * p + 1}")
        for p, multiple in enumerate((1, row.multiple - 1))
    ]
    obstruction = 4 + 2 * len(at_cut)
    skeleton = _ENCODER.encode({
        "obstruction": f"\0X{obstruction}",
        "part1": _part_block(row, "F1", blank[0]),
        "part2": _part_block(row, "F2", blank[1]),
    })
    # text, then a value's index or a run, in text order
    pieces = _CUT_RE.split(_ENTRY_INDENT + skeleton.replace("\n", "\n" + _ENTRY_INDENT))
    fixed = [_format(piece) for piece in pieces[::3]]
    runs = [_format(run) for run in pieces[2::3] if run]
    later = count(obstruction + 1)
    order = [int(value) if value else next(later) for value in pieces[1::3]]

    def template(point: HalfPoint) -> list[str]:
        entry = [""] * (2 * len(fixed) - 1)
        entry[::2] = [t.format(*point.numbers[0], *point.numbers[1]) for t in fixed]
        return entry

    def trail_runs(point: HalfPoint) -> tuple[str, ...]:
        return tuple(t.format(*point.numbers[0], *point.numbers[1]) for t in runs)

    return template, trail_runs, itemgetter(*order)


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
        "ratio": row.ratio,
        "tiger_components": [[lbl, c] for lbl, c in row.tiger_components],
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

    The splits come in ascending lexicographic order of part 1's
    coefficients: each leading point, then each trailing point under it.
    A split computes only what crosses the cut: both squares and dims,
    each the leading share plus the trailing share plus the term across
    the cut (the odd-parity check runs at every split), and the pairings
    at the cut.  A survivor of part 1's square test renders its walked
    obstruction; every other split dies on that square.  A certificate
    whose splits lack a survivor raises KeyError rather than state a
    false kill.  The document's size grows with the box, the memory used
    here does not.
    """
    empty = '"decompositions": []'
    head, _, tail = render_document(_certificate_shell(cert)).partition(empty)
    halves = BoxHalves(cert.row, cert.spec.degree)
    template, trail_runs, pick = _entry_form(cert.row, halves)
    trailing = [(point.coefficients, point.terms, point.across, point.at_cut, trail_runs(point))
                for point in halves.trailing]
    walked = {split.part1: split.obstruction for split in cert.decompositions}
    # obstruction texts by the walked obstruction of a survivor (None when
    # unobstructed), or by the part-1 square that kills a split
    texts: dict[Union[Optional[Obstruction], int], str] = {}
    decimal = _Texts().__getitem__
    # a box always holds the split with first part 0, so the array is never empty
    yield head + empty[:-1] + "\n"
    entries: list[str] = []
    separator = ""
    for lead in halves.leading():
        entry = template(lead)
        a, _, (lead1, twice_lead1, lead2, twice_lead2), lead_across, lead_cut = lead
        for (b, (trail1, twice_trail1, trail2, twice_trail2), trail_across, trail_cut,
             runs) in trailing:
            cross = sum(map(mul, lead_across, trail_across))
            square1 = lead1 + trail1 + cross
            twice1 = twice_lead1 + twice_trail1 + cross
            twice2 = twice_lead2 + twice_trail2 + cross
            if (twice1 | twice2) & 1:
                raise ValueError("residual class has odd self-pairing parity")
            key = walked[a + b] if square1 > -2 else square1
            text = texts.get(key)
            if text is None:
                text = texts[key] = _obstruction_text(key if square1 > -2 else Obstruction(
                    NEGATIVE_SELF_INTERSECTION, (("part", 1), ("square", square1))
                ))
            entry[1::2] = pick((
                decimal(square1), decimal(twice1 >> 1),
                decimal(lead2 + trail2 + cross), decimal(twice2 >> 1),
                *map(decimal, map(add, lead_cut, trail_cut)), text, *runs,
            ))
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
