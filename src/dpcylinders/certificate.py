"""What a certificate says: its v1 document, every split of a tiger's box
written out, its assumptions and its ``--trace`` lines.

A certificate holds only the splits that survive part 1's square test; its
document lists every split of the box with both parts' numbers and its
obstruction, so it is checkable on its own.  It streams in chunks.  A
split's numbers come from the parts ``tigers`` derives for three splits:
its two half splits, each 0 on one half, and the zero split (``BoxHalves``).
An entry is a skeleton in the encoding of ``lattice``'s one encoder, cut
by one regular expression into templates: the texts of a point of the box's
leading half, and between them columns over the trailing half, each of the
trailing points' runs of numbers and each value a split fills in.  A value's
column is made once per certificate for each leading number it takes; a
leading point's entries are the rows of its texts and its columns, and a
chunk is one join of the pieces of its entries.  Each obstruction is worded
here, from one template per witness shape (``_DESCRIPTIONS``), and so is
its derivation (``narrate``) and what the construction leans on: one table
(``ASSUMPTIONS``) words each tag, whether the certificate states it for
every construction or a case row names it.  ``tigers`` computes the
numbers and obstructions and words none of them."""

from __future__ import annotations

import json
import re
from functools import cache
from itertools import chain, count, islice, product, repeat
from math import prod
from operator import mul
from typing import Any, Iterable, Iterator, NamedTuple, Optional

from .lattice import _ENCODER, _spec_block, render_document
from .tigers import (
    DIMENSION_GAP,
    DISJOINTNESS,
    MULTIPLICITY_BUDGET,
    NEGATIVE_SELF_INTERSECTION,
    CaseTable,
    Obstruction,
    Part,
    TigerCertificate,
    complement,
    conditions,
    fraction_text,
    part_numbers,
    square_kill,
)


class HalfPoint(NamedTuple):
    """One point of a half of a certificate's box, with its shares of the
    numbers of the splits it takes part in.

    ``numbers`` is one flat row: part 1's coefficients over the row's
    curves, its pairings (P.K, P.C_1, ..., P.C_n), square and dim, then
    part 2's: those of the point's half split, which takes the point's
    coefficients and 0 on the other half.  ``across`` is the point's side
    of A.B, the pairing of the two halves' curves: the dot product of a
    leading and a trailing point's ``across``.
    """

    coefficients: tuple[int, ...]
    numbers: tuple[int, ...]
    across: tuple[int, ...]


class BoxHalves:
    """A (case row, degree) box cut into a leading and a trailing half of
    its coordinates: the first ``n // 2`` of its n curves, and the rest.

    A split takes A, the leading curves with their coefficients, and B,
    the trailing ones.  Each of its numbers is that of the half split A,
    plus that of B, less that of the zero split; squares add 2 A.B and dims
    A.B.  For part 1,  P = -K - A - B,  the coefficients and pairings are
    linear and  P^2 = (-K - A)^2 + (-K - B)^2 - K^2 + 2 A.B;  part 2,
    N - P  for the residual N, has linear pairings and the square
    N^2 - 2 N.P + P^2;  and  2 dim = P^2 - P.K  for either part.  A half
    moves the pairings where its curves' rows of the row's ``form`` are
    nonzero.

    ``width`` counts a part's numbers.  ``crossing`` maps each index of
    ``HalfPoint.numbers`` that both halves move to its multiple of A.B: 2
    for a square, 1 for a dim, 0 for a pairing.  Elsewhere one half moves
    the number alone, the leading half or, in ``trailing_only``, the
    trailing half, and the other half holds the ``zero`` split's there.
    ``trailing`` lists the trailing half's points; ``leading()`` makes the
    leading half's as a walk reaches them, both in ascending
    lexicographic order.
    """

    def __init__(self, row: CaseTable, degree: int) -> None:
        n = len(row.coefficients)
        self.row, self.degree, self.cut = row, degree, n // 2
        # the pairings each half moves
        lead, trail = ({i for pairs in half for i, v in enumerate(pairs) if v}
                       for half in (row.form[:self.cut], row.form[self.cut:]))
        # a part's numbers: its coefficients, pairings, square and dim
        self.width = width = 2 * n + 3
        self.crossing = {p * width + k: weight for p in (0, 1) for k, weight in
                         [*((n + i, 0) for i in lead & trail), (width - 2, 2), (width - 1, 1)]}
        self.trailing_only = frozenset(p * width + k for p in (0, 1) for k in
                                       [*range(self.cut, n), *(n + i for i in trail - lead)])
        # the trailing curves that meet a leading one
        self._meeting = [i - 1 for i in sorted(lead & trail) if i > self.cut]
        self._residual = row.residual(degree)
        self.zero = self._split((0,) * n)
        self.trailing = tuple(self._point(b, False)
                              for b in product(*(range(c + 1) for c in row.coefficients[self.cut:])))

    def leading(self) -> Iterator[HalfPoint]:
        for a in product(*(range(c + 1) for c in self.row.coefficients[:self.cut])):
            yield self._point(a, True)

    def _split(self, coefficients: tuple[int, ...]) -> tuple[int, ...]:
        """The numbers of the split whose first part has these coefficients."""
        part1 = part_numbers(self.row, self.degree, 1, coefficients)
        return tuple(chain.from_iterable(
            (*part.coefficients, *part.pairings, part.square, part.dim)
            for part in (part1, complement(self._residual, part1))
        ))

    def _point(self, a: tuple[int, ...], leading: bool) -> HalfPoint:
        n = len(self.row.coefficients)
        zeros = (0,) * (n - len(a))
        numbers = self._split(a + zeros if leading else zeros + a)
        # A.C_j, the zero split's P.C_j less the leading half split's, or
        # the coefficient b_j, for each trailing curve C_j met across the cut
        return HalfPoint(a, numbers, tuple(
            self.zero[n + 1 + j] - numbers[n + 1 + j] if leading else numbers[j]
            for j in self._meeting
        ))


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
# index in a half point's numbers.  A leading ("L") or trailing ("T") number
# is read off that half's point; a split's value ("X") is a number both
# halves move or, one past the numbers, the obstruction.
_FIELD_RE = re.compile(r'"\\u0000[LTX](\d+)"')
# The cuts of an entry: each value, and each run of trailing numbers with
# only text between them.  That text holds no backslash, so a run stops at
# any other field.
_CUT_RE = re.compile(r'"\\u0000X(\d+)"|("\\u0000T\d+"(?:[^\\]*"\\u0000T\d+")*)')


def _format(piece: str) -> str:
    """A piece of an entry as a ``str.format`` template of the numbers."""
    return _FIELD_RE.sub(r"{\1}", piece.replace("{", "{{").replace("}", "}}"))


def _entry_form(row: CaseTable, halves: BoxHalves) -> tuple[list[str], list[str], list[int]]:
    """A split entry of the row's certificates, cut by where its text
    comes from.

    Every entry of a row has one key layout: the rendering of a skeleton
    entry whose values are fields numbered by their place in
    ``HalfPoint.numbers``, with the obstruction one past them.  Its text,
    after the separator from the entry before it, is the leading point's
    numbers with the text around them, and between them the values of a
    split: each number both halves move, the obstruction text, and each
    run of the trailing point's numbers with the text between them.
    Returns the templates of a leading point's texts around a split's
    values; the templates of a trailing point's runs; and the key of each
    value in text order: its field's index, and for the runs the indices
    after the obstruction's.
    """
    n, width = len(row.curves), halves.width
    fields = tuple(
        f"\0{'X' if i in halves.crossing else 'T' if i in halves.trailing_only else 'L'}{i}"
        for i in range(2 * width)
    )
    part1, part2 = (
        Part(multiple, f[:n], f[n:-2], *f[-2:])
        for multiple, f in ((1, fields[:width]), (row.multiple - 1, fields[width:]))
    )
    skeleton = _ENCODER.encode({
        "obstruction": f"\0X{2 * width}",
        "part1": _part_block(row, "F1", part1),
        "part2": _part_block(row, "F2", part2),
    })
    # text, then a value's index or a run, in text order
    pieces = _CUT_RE.split(",\n" + _ENTRY_INDENT + skeleton.replace("\n", "\n" + _ENTRY_INDENT))
    fixed = [_format(piece) for piece in pieces[::3]]
    runs = [_format(run) for run in pieces[2::3] if run]
    later = count(2 * width + 1)
    order = [int(value) if value else next(later) for value in pieces[1::3]]
    return fixed, runs, order


# An obstruction's description, one template per witness shape: keyed by
# the kind or, for a negative self-intersection, by the witness that fired
# (its second name, "square" or "pairing"), filled from the witness values.
_DESCRIPTIONS = {
    "square": "part {part} residual has square {square} <= -2",
    "pairing": "part {part} residual pairs {pairing} < 0 with a configuration curve",
    DISJOINTNESS: "part {part} cannot meet the marked point's curves at all, and the parts "
                  "can carry at most {cap_part1}+{cap_part2} < {required} there",
    MULTIPLICITY_BUDGET: "parts can carry multiplicity at most {cap_part1}+{cap_part2} "
                         "< {required} at the marked point",
    DIMENSION_GAP: "every split family has dimension {parts_dim}, below the candidate "
                   "family's {candidate_dim}, so a general candidate avoids all such splits",
}


def _obstruction_text(obstruction: Optional[Obstruction]) -> str:
    """An entry's "obstruction" value, indented for its place in the entry."""
    if obstruction is None:
        return "null"
    kind, witness = obstruction
    shape = witness[1][0] if kind == NEGATIVE_SELF_INTERSECTION else kind
    block = {
        "kind": kind,
        "witness": [[k, v] for k, v in witness],
        "description": _DESCRIPTIONS[shape].format_map(dict(witness)),
    }
    return _ENCODER.encode(block).replace("\n", "\n" + _ENTRY_INDENT + "  ")


# What a construction leans on, each text by its tag, the text before the
# colon: the two assumptions of every construction, E's, the balanced
# split's and the notes a case row names by tag.
ASSUMPTIONS = {text.partition(":")[0]: text for text in (
    "expected-dimension: linear system dimensions come from Riemann-Roch "
    "with vanishing higher cohomology assumed throughout",
    "asserted-generality: existence and generality of members of the counted "
    "families is asserted by dimension budget, not constructed",
    "minus-one-curve: E is taken disjoint from every exceptional curve",
    "balanced-split: the even split is excluded by comparing point-constrained "
    "family dimensions, candidate against one anticanonical part",
    "degree-4-budget: at degree 4 two splits fail the multiplicity budget "
    "outright; the dimension comparison only bites at degree 6",
    "exact-budget: the candidate family at the marked point has dimension "
    "exactly 0 (21 conditions against a 21-dimensional system)",
    "multiplicity-recount: the local multiplicity uses this configuration's "
    "own coefficients at the marked point",
)}


def _certificate_shell(cert: TigerCertificate) -> dict[str, Any]:
    """A certificate's document with an empty "decompositions" array.

    Its tiger is N, and E where the row uses it, each over the multiple.
    What the construction leans on, by tag, comes before the row's notes at
    the degree: the two assumptions of every construction; E's when the row
    uses it, as ``CaseTable.form`` places E disjoint from every node; and
    the balanced split's when the row has one, which ``tigers`` compares
    against the one-part family.  Each tag is worded by ``ASSUMPTIONS``."""
    row, degree = cert.row, cert.spec.degree
    components = [["N", fraction_text(1, row.multiple)]]
    tags = ["expected-dimension", "asserted-generality"]
    if row.e_coefficient:
        components.append(["E", fraction_text(row.e_coefficient, row.multiple)])
        tags.append("minus-one-curve")
    if row.balanced_split is not None:
        tags.append("balanced-split")
    tags.extend(tag for tag, degrees in row.notes if degree in degrees)
    return {
        "kind": "tiger_certificate",
        "spec": _spec_block(cert.spec),
        "case": row.case_id,
        "singularity": str(row.singularity) if row.singularity else None,
        "singularity_index": cert.singularity_index,
        "multiple": row.multiple,
        "configuration": [[lbl, c] for lbl, c in row.configuration],
        "residual": _numbers_block(row, "N", row.residual(degree)),
        "point": {"kind": ("general", "on_curve", "node_intersection")[len(row.point)],
                  "curves": list(row.point)},
        "residual_multiplicity": row.residual_multiplicity,
        "local_multiplicity": row.local_multiplicity,
        "ratio": row.ratio,
        "tiger_components": components,
        "decompositions": [],
        "assumptions": [ASSUMPTIONS[tag] for tag in tags],
        "status": cert.status,
    }


# split entries per chunk of a streamed certificate.  An entry is at most
# about 2.2 KB, so a chunk and its encoding stay near 110 KB and are served
# again and again from the heap; megabyte chunks were mapped and faulted in
# afresh each time (87,000 page faults and 0.2 s of kernel time for D8 at
# degree 1, against 3,000 faults at 50 entries).  An entry is a row of a
# leading point's texts, its columns and the trailing point's runs, and a
# chunk one join of the pieces of its entries, cut across leading points.
_BATCH = 50


def certificate_chunks(cert: TigerCertificate) -> Iterator[str]:
    """A certificate's JSON document, rendered as ``render_document`` would
    render it, in chunks: the head, one chunk per ``_BATCH`` split entries,
    and the remaining entries with the tail.

    The splits come in ascending lexicographic order of part 1's
    coefficients: each leading point, then each trailing point under it.
    Each value a split fills in, a number both halves move, is the leading
    point's number plus the trailing point's less the zero split's, and the
    squares and dims add A.B, the dot product of the halves' ``across``,
    twice and once.  So a value's text over the whole trailing half, a
    column, depends only on the value, the leading point's number and, for
    squares and dims, its ``across``: each column is made once per
    certificate, when a leading point first reads it.  Every number is a
    sum of integers: K is characteristic, so every class has an even
    P^2 - P.K  and an integer dim (``CaseTable.form``).  A split's
    obstruction is the kill its part-1 square states (``square_kill``) or,
    where that square kills nothing, its walked obstruction; a certificate
    whose splits lack a survivor raises KeyError rather than state a false
    kill.  A leading point's entries are the rows of its own texts, its
    columns and the trailing half's runs.  The document's size grows with
    the box, the memory used here does not.
    """
    empty = '"decompositions": []'
    head, _, tail = render_document(_certificate_shell(cert)).partition(empty)
    halves = BoxHalves(cert.row, cert.spec.degree)
    fixed, runs, order = _entry_form(cert.row, halves)
    trailing, crossing = halves.trailing, halves.crossing
    # part 1's square, before its dim, and the obstruction, one past the numbers
    square, obstruction = halves.width - 2, 2 * halves.width
    # the runs of the trailing points, made once, by their keys after the obstruction's
    trailing_runs = dict(enumerate(
        zip(*([t.format(*point.numbers) for t in runs] for point in trailing)), obstruction + 1
    ))
    walked = {split.part1: split.obstruction for split in cert.decompositions}
    # the trailing points' shares of each number both halves move, less the zero split's
    shares = {i: [point.numbers[i] - halves.zero[i] for point in trailing] for i in crossing}
    # each integer's text, shared by the columns
    decimal = cache(str)
    # A.B at each trailing point, by the leading point's ``across``
    crossed = cache(lambda across: [sum(map(mul, across, point.across)) for point in trailing])

    @cache
    def column(index: int, share: int, across: tuple[int, ...]) -> list[str]:
        weight = crossing[index]
        return [decimal(share + s + weight * c) for s, c in zip(shares[index], crossed(across))]

    @cache
    def kill_text(square: str) -> Optional[str]:
        """The obstruction text of a split whose part-1 square reads
        ``square``, or None where the split survives that square."""
        kill = square_kill(1, int(square))
        return None if kill is None else _obstruction_text(kill)

    def entries(lead: HalfPoint) -> Iterator[tuple[str, ...]]:
        """A leading point's entries, each as its pieces in text order."""
        numbers, across = lead.numbers, lead.across
        # the pairings take no A.B, so their columns do not depend on ``across``
        values: dict[int, Iterable[str]] = {
            i: column(i, numbers[i], across if weight else ()) for i, weight in crossing.items()
        }
        values[obstruction] = [
            kill_text(text) or _obstruction_text(walked[lead.coefficients + point.coefficients])
            for text, point in zip(values[square], trailing)
        ]
        values.update(trailing_runs)
        pieces: list[Iterable[str]] = [()] * (2 * len(order) + 1)
        pieces[::2] = [repeat(t.format(*numbers)) for t in fixed]
        pieces[1::2] = [values[i] for i in order]
        return zip(*pieces)

    # a box always holds the split with first part 0, so the array is never empty
    yield head + empty[:-1] + "\n"
    stream = chain.from_iterable(map(entries, halves.leading()))
    cut = len(",\n")  # the first entry takes no separator
    while len(batch := list(islice(stream, _BATCH))) == _BATCH:
        yield "".join(chain.from_iterable(batch))[cut:]
        cut = 0
    yield "".join(chain.from_iterable(batch))[cut:] + "\n  ]" + tail


def certificate_document(cert: TigerCertificate) -> dict[str, Any]:
    """Full JSON form of a certificate: its document, parsed."""
    return json.loads("".join(certificate_chunks(cert)))


def narrate(cert: TigerCertificate) -> Iterator[str]:
    """The derivation behind a certificate, one line per step, as
    ``dpcyl tiger --trace`` prints it."""
    row, d, m = cert.row, cert.spec.degree, cert.row.multiple
    point = (f"the intersection of {row.point[0]} and {row.point[1]}" if len(row.point) == 2
             else f"a general point on {row.point[0]}" if row.point
             else "a general smooth point")
    yield f"case {row.case_id}: degree {d}, multiple {m}, marked point {point}"
    terms = [lbl if c == 1 else f"{c}*{lbl}" for lbl, c in row.configuration]
    yield f"relation: {m}*(-K) = {' + '.join(terms + ['N'])}"

    residual = row.residual(d)
    square, dim = residual.square, residual.dim
    for lbl, v in zip(("K",) + row.curves, residual.pairings):
        yield f"N.{lbl} = {v}"
    yield f"N^2 = {square}"
    yield f"dim|N| = (N^2 - N.K)/2 = ({square} - ({residual.pairings[0]}))/2 = {dim}"
    mu = row.residual_multiplicity
    yield f"conditions({mu}) = {conditions(mu)}; candidate family dim = {dim - conditions(mu)}"
    yield f"local multiplicity = {row.local_multiplicity}; ratio = {row.ratio}"

    unobstructed = cert.unobstructed
    k = len(row.node_coefficients)
    for split in unobstructed:
        e = split.part1[k] if row.e_coefficient else 0
        yield f"split nodes={split.part1[:k]} e={e}: NO OBSTRUCTION"
    # every split of the box, as the document lists them
    splits = prod(c + 1 for c in row.coefficients)
    yield f"decompositions: {splits} splits, {len(unobstructed)} unobstructed"
