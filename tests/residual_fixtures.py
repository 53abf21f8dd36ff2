"""Hand-checked expected values for every case's residual class.

Degree-dependent quantities are linear polynomials in the degree, stored as
(d_coefficient, constant).  These numbers were derived independently by
hand from the Gram matrices and the defining relations; the tests compare
both computation routes (closed formulas and the pairing table) against
them.
"""

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from dpcylinders import case_tables

Poly = tuple[int, int]  # value at degree d is  a*d + b


def ev(poly: Poly, d: int) -> int:
    return poly[0] * d + poly[1]


@dataclass(frozen=True)
class CaseFixture:
    k_pairing: Poly
    node_pairings: tuple[int, ...]  # degree-independent
    e_pairing: Optional[int]
    square: Poly
    dim: Poly
    local_multiplicity: int
    ratio: Fraction


RESIDUAL_FIXTURES: dict[str, CaseFixture] = {
    "deg7plus": CaseFixture((-2, 0), (), None, (4, 0), (3, 0), 5, Fraction(5, 2)),
    "deg4or6": CaseFixture((-3, 2), (), 5, (9, -16), (6, -9), 7, Fraction(7, 3)),
    "deg5": CaseFixture((-4, 0), (), None, (16, 0), (10, 0), 9, Fraction(9, 4)),
    "A1deg3": CaseFixture((-4, 0), (6,), None, (16, -18), (10, -9), 9, Fraction(9, 4)),
    "A2": CaseFixture((-2, 0), (2, 2), None, (4, -8), (3, -4), 5, Fraction(5, 2)),
    "A3": CaseFixture((-2, 0), (2, 1, 0), None, (4, -6), (3, -3), 5, Fraction(5, 2)),
    "D4": CaseFixture((-3, 0), (1, 2, 0, 0), None, (9, -10), (6, -5), 7, Fraction(7, 3)),
    "A4": CaseFixture((-2, 0), (0, 1, 1, 0), None, (4, -4), (3, -2), 5, Fraction(5, 2)),
    "A5": CaseFixture((-3, 0), (0, 0, 1, 1, 1), None, (9, -8), (6, -4), 7, Fraction(7, 3)),
    "A6": CaseFixture((-3, 0), (0, 0, 1, 1, 0, 0), None, (9, -6), (6, -3), 7, Fraction(7, 3)),
    "A7": CaseFixture((-4, 0), (0, 0, 0, 1, 1, 0, 1), None, (16, -10), (10, -5), 9, Fraction(9, 4)),
    "A8": CaseFixture((-4, 0), (0, 0, 0, 1, 1, 0, 0, 0), None, (16, -8), (10, -4), 9, Fraction(9, 4)),
    "D5": CaseFixture((-2, 0), (1, 1, 0, 0, 0), None, (4, -4), (3, -2), 5, Fraction(5, 2)),
    "D6": CaseFixture((-2, 0), (0, 0, 1, 0, 0, 0), None, (4, -4), (3, -2), 7, Fraction(7, 2)),
    "D7": CaseFixture((-3, 0), (0, 0, 1, 0, 0, 0, 1), None, (9, -8), (6, -4), 11, Fraction(11, 3)),
    "D8": CaseFixture((-3, 0), (0, 0, 1, 0, 0, 0, 0, 0), None, (9, -6), (6, -3), 11, Fraction(11, 3)),
    "E6": CaseFixture((-2, 0), (1, 0, 0, 0, 0, 0), None, (4, -2), (3, -1), 5, Fraction(5, 2)),
    "E7": CaseFixture((-2, 0), (0, 1, 0, 0, 0, 0, 0), None, (4, -2), (3, -1), 7, Fraction(7, 2)),
    "E8": CaseFixture((-2, 0), (0, 0, 0, 0, 0, 0, 0, 1), None, (4, -2), (3, -1), 11, Fraction(11, 2)),
}


def row_by_id(case_id: str):
    """The case row with this id."""
    return next(r for r in case_tables() if r.case_id == case_id)


def minimal_spec_args(case_id: str, degree: int):
    """Smallest spec exercising a case at a degree."""
    row = row_by_id(case_id)
    if row.singularity is None:
        return degree, ()
    return degree, (str(row.singularity),)
