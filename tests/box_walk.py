"""The whole coefficient box of a (case row, degree) pair, walked plainly.

The engine walks only the splits whose first part has square > -2, and
lists the box for a v1 document by running sums over two halves of it.
This module is the tests' second route: a plain product over the box, with
both parts of a split built from scratch by :func:`split_parts`.

Each box is walked once per session, by :func:`box_walk`.  It computes part
1's square at every split with ``part_numbers``, keeps the squares in one
integer array in box order, and calls ``split_parts`` only for the splits
whose part-1 square is > -2, keeping both of their parts.  Its survivors
are a dict in box order.  :func:`every_outcome` reads the walk: it pairs
each split with the obstruction the row's smallest certificate gives it, a
survivor's walked obstruction, or the walk's part-1 square for every other
split.  It is rebuilt on each call from the walk and the certificate, both
kept for the session, so the session holds one array per box, not a
``Split`` per split.

:func:`plain_splits` is a separate walk, with both parts of every split from
``split_parts``, as a v1 document lists them.  It feeds the reference
document and the redrawn boxes, not the table's.

:func:`redrawn_boxes` draws boxes beyond the table: a case row with its
coefficients redrawn, for the walk, the box halves and the stream alike.
"""

from array import array
from functools import cache
from itertools import product
from typing import NamedTuple

from hypothesis import strategies as st

from dpcylinders import SurfaceSpec, build_tiger, case_tables
from dpcylinders.tigers import (
    NEGATIVE_SELF_INTERSECTION,
    Obstruction,
    Part,
    Split,
    part_numbers,
)

from residual_fixtures import minimal_spec_args


@cache
def killed(square):
    """The obstruction of a split that dies on part 1's square, one shared
    by every split with that square."""
    return Obstruction(NEGATIVE_SELF_INTERSECTION, (("part", 1), ("square", square)))


def split_parts(row, degree, part1):
    """Both parts of the split whose first part has coefficients ``part1``,
    each built from scratch with ``part_numbers``: a split always takes one
    anticanonical part off the candidate."""
    part2 = tuple(c - a for c, a in zip(row.coefficients, part1))
    return (
        part_numbers(row, degree, 1, part1),
        part_numbers(row, degree, row.multiple - 1, part2),
    )


def box(row):
    """Every first part of the row's splits, in ascending lexicographic order."""
    return product(*(range(c + 1) for c in row.coefficients))


def box_index(row, part1):
    """Where a first part comes in the row's box."""
    index = 0
    for c, a in zip(row.coefficients, part1, strict=True):
        index = index * (c + 1) + a
    return index


class BoxWalk(NamedTuple):
    """One walk of a box: part 1's square at every split, in box order, and
    both parts of each split whose part-1 square is > -2, in box order."""

    squares: array
    survivors: dict[tuple[int, ...], tuple[Part, Part]]


@cache
def box_walk(row, degree):
    """Walk the row's box at a degree once: every split's part-1 square, and
    both parts of the splits that survive it."""
    squares = array("q")
    survivors = {}
    for part1 in box(row):
        # part_numbers with multiple 1 is the first part split_parts makes
        square = part_numbers(row, degree, 1, part1).square
        squares.append(square)
        if square > -2:
            survivors[part1] = split_parts(row, degree, part1)
    return BoxWalk(squares, survivors)


@cache
def smallest_certificate(row, degree):
    """The certificate of the row's smallest spec at a degree."""
    return build_tiger(SurfaceSpec(*minimal_spec_args(row.case_id, degree)))


def every_outcome(row, degree):
    """Every split of the row's box at a degree, as the certificate of the
    row's smallest spec lists it, without its parts."""
    cert = smallest_certificate(row, degree)
    outcomes = list(map(Split, box(row), map(killed, box_walk(row, degree).squares)))
    for split in cert.decompositions:
        outcomes[box_index(row, split.part1)] = split
    return tuple(outcomes)


def plain_splits(cert):
    """Every split of the certificate's box with both its parts: a survivor
    of part 1's square test with its walked obstruction, every other split
    with the square that kills it."""
    row, degree = cert.row, cert.spec.degree
    walked = {split.part1: split for split in cert.decompositions}
    for part1 in box(row):
        parts = split_parts(row, degree, part1)
        yield walked.get(part1) or Split(part1, killed(parts[0].square)), parts


@st.composite
def redrawn_boxes(draw, cap):
    """A case row with its coefficients redrawn, up to 5 per curve and at
    most ``cap`` splits in its box, and any degree, the row's only one:
    rows gain or lose E, and a row without nodes and E has no curves at
    all.  The marked point keeps only the curves the row still has."""
    row = draw(st.sampled_from(case_tables()))
    curves = len(row.node_coefficients) + 1  # the nodes, then E
    coefficients = [0] * curves
    size = 1
    for i in draw(st.permutations(range(curves))):
        coefficients[i] = draw(st.integers(0, min(5, cap // size - 1)))
        size *= coefficients[i] + 1
    e = coefficients[-1]
    degree = draw(st.integers(1, 9))
    return row._replace(
        node_coefficients=tuple(coefficients[:-1]), e_coefficient=e, degrees=(degree,),
        # a marked point on E needs E among the row's curves
        point=tuple(c for c in row.point if e or c != "E"),
    ), degree
