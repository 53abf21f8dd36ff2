"""The whole coefficient box of a (case row, degree) pair, walked plainly.

The engine walks only the splits whose first part has square > -2 and
derives every other split's witness from the closed form.  This module is
the tests' second route: the box walk the engine no longer takes, and every
split of the box as a v1 document lists it.
"""

from functools import cache
from itertools import product

from dpcylinders import SurfaceSpec, build_tiger
from dpcylinders.tigers import every_split, part_numbers

from residual_fixtures import minimal_spec_args


def box_survivors(row, degree):
    """The first parts whose square is > -2, by walking the whole box in
    ascending lexicographic order."""
    box = product(*(range(c + 1) for c in row.coefficients))
    # part_numbers with multiple 1 is the first part split_parts makes
    return [p for p in box if part_numbers(row, degree, 1, p).square > -2]


def every_split_of(row, degree):
    """Every split of the row's box at a degree with both its parts, as the
    certificate of the row's smallest spec lists them."""
    return every_split(build_tiger(SurfaceSpec(*minimal_spec_args(row.case_id, degree))))


@cache
def every_outcome(row, degree):
    """Every split of the row's box at a degree, without its parts.

    Kept for the session: several tests read all 358,232 splits of the 40
    (row, degree) pairs, and one walk of them takes seconds.
    """
    return tuple(split for split, _ in every_split_of(row, degree))
