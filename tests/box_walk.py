"""The whole coefficient box of a (case row, degree) pair, walked plainly.

The engine walks only the splits whose first part has square > -2, and
lists the box for a v1 document by running sums over two halves of it.
This module is the tests' second route: a plain product over the box.

Each box is walked once per session, by :func:`box_walk`.  It computes part
1's square at every split with ``part_numbers``, keeps the squares in one
integer array in box order, and calls ``split_parts`` only for the splits
whose part-1 square is > -2, keeping both of their parts.  The helpers read
that walk:

- :func:`box_survivors` is the walk's survivors, in box order;
- :func:`every_outcome` pairs each split with the obstruction the row's
  smallest certificate gives it: a survivor's walked obstruction, or the
  walk's part-1 square for every other split.  It is rebuilt on each call
  from the walk and the certificate, both kept for the session, so the
  session holds one array per box, not a ``Split`` per split.

:func:`plain_splits` is a separate walk, with both parts of every split from
``split_parts``, as a v1 document lists them.  It feeds the reference
document and the redrawn boxes, not the table's.
"""

from array import array
from functools import cache
from itertools import product
from typing import NamedTuple

from dpcylinders import SurfaceSpec, build_tiger
from dpcylinders.tigers import (
    NEGATIVE_SELF_INTERSECTION,
    Obstruction,
    Part,
    Split,
    part_numbers,
    split_parts,
)

from residual_fixtures import minimal_spec_args


@cache
def killed(square):
    """The obstruction of a split that dies on part 1's square, one shared
    by every split with that square."""
    return Obstruction(NEGATIVE_SELF_INTERSECTION, (("part", 1), ("square", square)))


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


def box_survivors(row, degree):
    """The first parts whose square is > -2, from the walk of the whole box."""
    return list(box_walk(row, degree).survivors)


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
