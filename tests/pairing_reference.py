"""The reference route shared by the tests: the intersection pairing on
<K, exceptional curves, E> as one integer matrix, and a case row's table.

The tests' independent route to the numbers the engine derives in closed
form: it is built from the singularity types alone and shares nothing with
:mod:`dpcylinders.tigers`.  The labels are K, the (-2)-curves ``D1``..``Dk``
of the first singular point (``D1_2``.. for the second, and so on), then the
(-1)-curve ``E`` when the table has one.  K.K is the degree, the curves of a
point pair by their Dynkin Gram matrix and are orthogonal to K, curves of
different points are disjoint, E.E = E.K = -1 and E is disjoint from every
exceptional curve.  A class is its coefficient vector in label order.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, Sequence

from dpcylinders.lattice import DynkinType, gram_table


class PairingTable:
    """The labels and the integer Gram matrix of one degree and its points."""

    def __init__(
        self, degree: int, singularities: Sequence[DynkinType] = (), with_e: bool = False
    ):
        if not 1 <= degree <= 9:
            raise ValueError(f"degree must be in [1, 9], got {degree}")
        labels = ["K"]
        for s, t in enumerate(singularities, start=1):
            labels += [f"D{i}{'' if s == 1 else f'_{s}'}" for i in range(1, t.rank + 1)]
        self.labels = tuple(labels) + (("E",) if with_e else ())
        matrix = [[0] * len(self.labels) for _ in self.labels]
        matrix[0][0] = degree
        start = 1
        for t in singularities:
            for i, row in enumerate(gram_table(t)):
                matrix[start + i][start:start + t.rank] = row
            start += t.rank
        if with_e:
            matrix[0][-1] = matrix[-1][0] = matrix[-1][-1] = -1
        self.matrix = tuple(map(tuple, matrix))

    def vector(self, coefficients: Mapping[str, Fraction | int]) -> tuple:
        """The class sum(c_X X); labels not named get 0."""
        unknown = set(coefficients) - set(self.labels)
        if unknown:
            raise KeyError(f"no curves labelled {sorted(unknown)}")
        return tuple(coefficients.get(label, 0) for label in self.labels)

    def part(self, multiple: Fraction | int, coefficients: Mapping[str, Fraction | int]) -> tuple:
        """The class multiple*(-K) - sum(c_X X)."""
        minus_k = self.vector({"K": -multiple})
        return tuple(a - c for a, c in zip(minus_k, self.vector(coefficients)))

    def pair(self, u: tuple, v: tuple) -> Fraction | int:
        return sum(a * g * b for a, row in zip(u, self.matrix) for g, b in zip(row, v))

    def dim(self, c: tuple) -> int:
        """Expected dimension c.(c - K)/2 of the complete linear system of c.

        Every integral class has even c.(c - K), so an odd or fractional value
        means the input was not an honest integral class.
        """
        value = Fraction(self.pair(c, (c[0] - 1,) + c[1:]))
        if value.denominator != 1 or value.numerator % 2 != 0:
            raise ValueError(
                f"c.(c - K) = {value} is not an even integer; "
                "not the class of an integral divisor"
            )
        return value.numerator // 2


def row_reference(row, degree):
    """The pairing table of a case row at a degree, and the row's relation
    configuration by label (D1..Dk, then E when the row uses it), read from
    the row's node and E coefficients."""
    table = PairingTable(
        degree, (row.singularity,) if row.singularity else (), bool(row.e_coefficient)
    )
    coefficients = row.node_coefficients + (
        (row.e_coefficient,) if row.e_coefficient else ()
    )
    return table, dict(zip(table.labels[1:], coefficients, strict=True))


def pairings(table, c):
    """The class c's pairing with each label, in label order."""
    return {label: table.pair(c, table.vector({label: 1})) for label in table.labels}
