"""The whole coefficient box of a (case row, degree) pair, walked plainly.

The engine walks only the splits whose first part has square > -2, and
lists the box for a v1 document by running sums over two halves of it.
This module is the tests' second route: a plain product over the box, each
split's parts from ``split_parts``, as a v1 document lists them.
"""

from functools import cache
from itertools import product

from dpcylinders import SurfaceSpec, build_tiger
from dpcylinders.tigers import (
    NEGATIVE_SELF_INTERSECTION,
    Obstruction,
    Split,
    part_numbers,
    split_parts,
)

from residual_fixtures import minimal_spec_args


def box(row):
    """Every first part of the row's splits, in ascending lexicographic order."""
    return product(*(range(c + 1) for c in row.coefficients))


def box_survivors(row, degree):
    """The first parts whose square is > -2, by walking the whole box."""
    # part_numbers with multiple 1 is the first part split_parts makes
    return [p for p in box(row) if part_numbers(row, degree, 1, p).square > -2]


def plain_splits(cert):
    """Every split of the certificate's box with both its parts: a survivor
    of part 1's square test with its walked obstruction, every other split
    with the square that kills it."""
    row, degree = cert.row, cert.spec.degree
    walked = {split.part1: split for split in cert.decompositions}
    for part1 in box(row):
        parts = split_parts(row, degree, part1)
        split = walked.get(part1) or Split(part1, Obstruction(
            NEGATIVE_SELF_INTERSECTION, (("part", 1), ("square", parts[0].square))
        ))
        yield split, parts


@cache
def every_outcome(row, degree):
    """Every split of the row's box at a degree, as the certificate of the
    row's smallest spec lists it, without its parts.

    Kept for the session: several tests read all 358,232 splits of the 40
    (row, degree) pairs, and one walk of them takes seconds.
    """
    cert = build_tiger(SurfaceSpec(*minimal_spec_args(row.case_id, degree)))
    return tuple(split for split, _ in plain_splits(cert))
