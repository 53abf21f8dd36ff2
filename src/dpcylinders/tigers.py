"""Tiger construction: case tables, decomposition obstructions, certificates.

Each case starts from a relation  m*(-K) ~ configuration + N  on the minimal
resolution, where the configuration collects exceptional curves of one
singular point (or one auxiliary (-1)-curve) with fixed coefficients and N is
the residual class.  A member of |N| with prescribed multiplicity at a marked
point pushes forward to an effective Q-divisor whose m-th fraction is
numerically anticanonical and has local multiplicity above 2 at the point,
which certifies a non-log-canonical pair.

The certificate additionally rules out that such a member is forced to
contain an anticanonical part: every coefficientwise split of the relation
into an anticanonical piece and a complementary piece must carry a numeric
obstruction.  Almost every split dies on its anticanonical piece's square
alone; growing the first parts from the zero split finds the few that do
not, with their numbers, and only those are checked further, each against
the residual less its first part.  A split with no obstruction found
downgrades the certificate to a discrepancy report; it never passes
silently.  This module computes numbers and obstructions; everything a
certificate says in words, its document, its ``--trace`` lines and its
assumptions, is written by :mod:`dpcylinders.certificate`.  Its only texts
are the ratio, which ``sweep`` prints without loading ``certificate``, and
its error messages: a case row names its notes by tag.
"""

from __future__ import annotations

from functools import cache, cached_property
from math import gcd, isqrt
from operator import mul, sub
from typing import NamedTuple, Optional

from .lattice import DynkinType, SurfaceSpec, gram_table

# Obstruction kinds
NEGATIVE_SELF_INTERSECTION = "negative_self_intersection"
DIMENSION_GAP = "dimension_gap"
MULTIPLICITY_BUDGET = "multiplicity_budget"
DISJOINTNESS = "disjointness"


def fraction_text(n: int, d: int) -> str:
    """n/d in lowest terms for d >= 1: "9/4", or "3" when d divides n."""
    g = gcd(n, d)
    return f"{n // g}" if g == d else f"{n // g}/{d // g}"


class NoCaseApplies(ValueError):
    """No row of the case table covers the given spec.

    The rows cover exactly the specs with an anticanonical cylinder, so
    this is the expected answer for a spec without one and a coverage gap
    for any other.
    """


class _CaseFields(NamedTuple):
    case_id: str
    degrees: tuple[int, ...]
    singularity: Optional[DynkinType]
    multiple: int
    node_coefficients: tuple[int, ...]
    e_coefficient: int
    point: tuple[str, ...]
    residual_multiplicity: int
    balanced_split: Optional[tuple[int, ...]] = None
    notes: tuple[tuple[str, tuple[int, ...]], ...] = ()


class CaseTable(_CaseFields):
    """One construction case: where it applies and what it builds.

    The row's curves are D1..Dk of the singular point, then E when the row
    uses it; coefficient vectors and pairings run over them in that order.
    ``point`` names the curves through the marked point: none for a general
    smooth point, one for a general point on that curve, two for their
    intersection point.
    ``balanced_split`` is the first part's coefficient vector of the one
    split whose dimension gap is taken against the one-part family through
    the marked point; ``notes`` are the row's own certificate notes, each a
    (tag, degrees) pair, such as ``(("exact-budget", (3,)),)``: the tag of
    a text of ``certificate.ASSUMPTIONS`` and the degrees it applies at.
    A row keeps no ``__slots__``: its derived numbers are cached in its
    ``__dict__``.
    """

    @cached_property
    def curves(self) -> tuple[str, ...]:
        """The curve labels, in coefficient order."""
        rank = self.singularity.rank if self.singularity else 0
        return tuple(f"D{i}" for i in range(1, rank + 1)) + (
            ("E",) if self.e_coefficient else ()
        )

    @cached_property
    def coefficients(self) -> tuple[int, ...]:
        """The relation's coefficient vector over the row's curves."""
        return self.node_coefficients + (
            (self.e_coefficient,) if self.e_coefficient else ()
        )

    @cached_property
    def form(self) -> tuple[tuple[int, ...], ...]:
        """Each curve's pairings (C_j.K, C_j.C_1, ..., C_j.C_n): the nodes
        are (-2)-curves of K-degree 0 that pair by the Dynkin Gram matrix, E
        is a (-1)-curve of K-degree -1 taken disjoint from them.

        Every class  P = m(-K) - sum c_j C_j  has an even  P^2 - P.K,  so
        an integer dim: K is characteristic.  On the lattice  I_{1,n}  of
        the plane blown up n times,  x = hH + sum a_i E_i  has
        x^2 + x.K = h(h - 3) - sum a_i (a_i + 1),  which is even.  So are a
        node, (C^2, C.K) = (-2, 0), E, (-1, -1), and -K, (d, -d);  and mod
        2 the cross terms of P drop and  c_j^2 = c_j."""
        gram = gram_table(self.singularity) if self.singularity else ()
        e = (0,) if self.e_coefficient else ()
        return tuple((0, *row, *e) for row in gram) + (
            ((-1, *(0,) * len(gram), -1),) if e else ()
        )

    @cached_property
    def point_indices(self) -> tuple[int, ...]:
        """Where the curves through the marked point sit among the row's curves."""
        return tuple(self.curves.index(label) for label in self.point)

    @property
    def configuration(self) -> tuple[tuple[str, int], ...]:
        """The curves of the relation with nonzero coefficients, E last."""
        return tuple((lbl, c) for lbl, c in zip(self.curves, self.coefficients) if c)

    @property
    def local_multiplicity(self) -> int:
        # the curves through the marked point add their configuration coefficients
        return self.residual_multiplicity + sum(
            self.coefficients[i] for i in self.point_indices
        )

    @property
    def ratio(self) -> str:
        return fraction_text(self.local_multiplicity, self.multiple)

    def residual(self, degree: int) -> Part:
        """The relation's residual class N at a degree."""
        return part_numbers(self, degree, self.multiple, self.coefficients)


def case_tables() -> tuple[CaseTable, ...]:
    """All construction cases, in dispatch order.

    The first three rows are selected purely by degree; the rest fire on the
    presence of one singularity type at the remaining degrees.  Coefficients
    follow the node labeling fixed in :mod:`dpcylinders.lattice`.
    """
    return _CASE_ROWS


_CASE_ROWS = (
    CaseTable("deg7plus", (7, 8, 9), None, 2, (), 0, (), 5),
    CaseTable("deg4or6", (4, 6), None, 3, (), 2, ("E",), 5,
              notes=(("degree-4-budget", (4,)),)),
    CaseTable("deg5", (5,), None, 4, (), 0, (), 9),
    CaseTable("A1deg3", (3,), DynkinType("A", 1), 4, (3,), 0, ("D1",), 6,
              notes=(("exact-budget", (3,)),)),
    CaseTable("A2", (2, 3), DynkinType("A", 2), 2, (2, 2), 0, ("D1", "D2"), 1,
              balanced_split=(1, 1)),
    CaseTable("A3", (2, 3), DynkinType("A", 3), 2, (2, 2, 1), 0, ("D1", "D2"), 1),
    CaseTable("D4", (2, 3), DynkinType("D", 4), 3, (4, 3, 2, 2), 0, ("D1", "D2"), 0),
    CaseTable("A4", (1, 2, 3), DynkinType("A", 4), 2, (1, 2, 2, 1), 0, ("D2", "D3"), 1),
    CaseTable("A5", (1, 2, 3), DynkinType("A", 5), 3, (1, 2, 3, 3, 2), 0, ("D3", "D4"), 1),
    CaseTable("A6", (1, 2, 3), DynkinType("A", 6), 3, (1, 2, 3, 3, 2, 1), 0, ("D3", "D4"), 1),
    CaseTable("A7", (1, 2), DynkinType("A", 7), 4, (1, 2, 3, 4, 4, 3, 2), 0, ("D4", "D5"), 1),
    CaseTable("A8", (1,), DynkinType("A", 8), 4, (1, 2, 3, 4, 4, 3, 2, 1), 0, ("D4", "D5"), 1),
    CaseTable("D5", (1, 2, 3), DynkinType("D", 5), 2, (2, 2, 3, 2, 1), 0, ("D3", "D4"), 0),
    CaseTable("D6", (1, 2, 3), DynkinType("D", 6), 2, (2, 2, 4, 3, 2, 1), 0, ("D3", "D4"), 0),
    CaseTable("D7", (1, 2), DynkinType("D", 7), 3, (3, 3, 6, 5, 4, 3, 2), 0, ("D3", "D4"), 0),
    CaseTable("D8", (1,), DynkinType("D", 8), 3, (3, 3, 6, 5, 4, 3, 2, 1), 0, ("D3", "D4"), 0),
    CaseTable("E6", (1, 2, 3), DynkinType("E", 6), 2, (2, 1, 2, 3, 2, 1), 0, ("D4", "D5"), 0),
    CaseTable("E7", (1, 2), DynkinType("E", 7), 2, (2, 2, 3, 4, 3, 2, 1), 0, ("D4", "D5"), 0),
    CaseTable("E8", (1,), DynkinType("E", 8), 2, (3, 2, 4, 6, 5, 4, 3, 2), 0, ("D4", "D5"), 0,
              notes=(("multiplicity-recount", (1,)),)),
)


class Part(NamedTuple):
    """The class  multiple*(-K) - sum(coefficients[i] * C_i)  over the row's
    curves C_i, with its intersection numbers: ``pairings`` against K, then
    against each of the row's curves in order."""

    multiple: int
    coefficients: tuple[int, ...]
    pairings: tuple[int, ...]
    square: int
    dim: int


class Obstruction(NamedTuple):
    """Why one split cannot produce an anticanonical part inside a general
    candidate: its kind, and the witness values that recompute to the
    stated contradiction.  The certificate document words it."""

    kind: str
    witness: tuple[tuple[str, int], ...]


class Split(NamedTuple):
    """One coefficientwise split of a case's configuration: the first
    part's coefficient vector over the row's curves (the second part is the
    complement, the part multiples are (1, m-1)), with its obstruction."""

    part1: tuple[int, ...]
    obstruction: Optional[Obstruction]


def part_numbers(
    row: CaseTable, degree: int, multiple: int, coefficients: tuple[int, ...]
) -> Part:
    """Intersection numbers of  P = multiple*(-K) - sum(c_j C_j).

    Its pairings (P.K, P.C_1, ..., P.C_n) are those of multiple*(-K), less
    each curve's row of the row's form times its coefficient; the rest
    follows from them (``_part``).  The relation residual itself
    is  row.residual(degree).
    """
    pairings = [-multiple * degree, *(-multiple * pairs[0] for pairs in row.form)]
    for c, pairs in zip(coefficients, row.form):
        if c:
            for i, v in enumerate(pairs):
                pairings[i] -= c * v
    return _part(multiple, coefficients, tuple(pairings))


def _part(
    multiple: int, coefficients: tuple[int, ...], pairings: tuple[int, ...],
    square: Optional[int] = None,
) -> Part:
    """The part  P = m*(-K) - sum(c_j C_j)  with these weights (m, c) and
    pairings (P.K, P.C_1, ..., P.C_n); its square, unless the caller has it
    already, and expected dimension follow:  P^2 = -m (P.K) - sum c_j (P.C_j)
    and  dim = (P^2 - P.K)/2."""
    if square is None:
        square = -sum(map(mul, (multiple, *coefficients), pairings))
    return Part(multiple, coefficients, pairings, square, (square - pairings[0]) // 2)


def complement(residual: Part, part: Part) -> Part:
    """The second part of a split,  N - P  for the residual N and the
    first part P: its weights and pairings are N's less P's."""
    return _part(residual.multiple - part.multiple,
                 tuple(map(sub, residual.coefficients, part.coefficients)),
                 tuple(map(sub, residual.pairings, part.pairings)))


# Multiplicity m at a point cuts at most m(m+1)/2 dimensions from a linear
# system on a rational surface with vanishing higher cohomology: exact
# integer bookkeeping of expected dimensions, which the certificate lists
# among its assumptions as expected-dimension.
def conditions(m: int) -> int:
    """Number of linear conditions imposed by multiplicity >= m at a point."""
    if m < 0:
        raise ValueError(f"multiplicity must be nonnegative, got {m}")
    return m * (m + 1) // 2


def max_multiplicity_budget(dim: int) -> int:
    """Largest m with conditions(m) <= dim, i.e. the biggest multiplicity a
    system of that dimension can afford at one point."""
    if dim < 0:
        raise ValueError(f"dimension must be nonnegative, got {dim}")
    # m(m+1)/2 <= dim  <=>  m <= (sqrt(8*dim + 1) - 1)/2, exactly in integers
    return (isqrt(8 * dim + 1) - 1) // 2


def _point_cap(row: CaseTable, part: Part) -> int:
    """Largest multiplicity the part can carry at the marked point: bounded
    by the dimension budget and by its pairing with each curve through the
    point."""
    return min((
        max_multiplicity_budget(part.dim),
        *(part.pairings[1 + i] for i in row.point_indices),
    ))


# over the 40 (case row, degree) boxes, the walk asks 6,992 times, at every
# step it could take, and the obstruction pass 1,373 times; they ask of 37
# distinct (part, square) keys, 22 distinct squares
@cache
def square_kill(part: int, square: int) -> Optional[Obstruction]:
    """The obstruction of a split whose part numbered ``part`` has this
    square: such a part cannot occur when its square is <= -2.  None where
    the square kills nothing."""
    if square <= -2:
        return Obstruction(NEGATIVE_SELF_INTERSECTION, (("part", part), ("square", square)))
    return None


def _part_kill(idx: int, part: Part) -> Optional[Obstruction]:
    """The obstruction of a split whose part numbered ``idx`` cannot occur:
    its square is <= -2, or it pairs negatively with a configuration curve.
    None where the part passes both.

    A part past these has dim >= 0, so no check of it is needed: for
    P = m(-K) - sum c_j C_j  with m, d >= 1 (part 2 has m = multiple - 1),
    P^2 = m^2 d - 2m c_E - c_E^2 - (c, c)  for the positive definite form
    (,) of the nodes, and  2 dim = P^2 + md - c_E.  So  c_E >= md  would
    give  P^2 <= -m^2 d (d + 1) <= -2,  and  P^2 >= -1  forces
    c_E <= md - 1  and  2 dim >= 0."""
    if kill := square_kill(idx, part.square):
        return kill
    worst = min(part.pairings[1:], default=0)
    if worst < 0:
        return Obstruction(NEGATIVE_SELF_INTERSECTION, (("part", idx), ("pairing", worst)))
    return None


def _obstruction_for(row: CaseTable, residual: Part, first: Part) -> Optional[Obstruction]:
    """Find the numeric contradiction for the split of the residual whose
    first part is given, or None if there is none (which downgrades the
    certificate).

    Part 1 is checked before part 2 is derived: over the sweep's 40 boxes,
    1,203 of the 1,288 survivors die on part 1's pairing, and only the
    other 85 have ``complement`` build their part 2."""
    if kill := _part_kill(1, first):
        return kill
    second = complement(residual, first)
    if kill := _part_kill(2, second):
        return kill
    parts = (first, second)

    mu = row.residual_multiplicity
    caps = tuple(_point_cap(row, part) for part in parts)
    if caps[0] + caps[1] < mu:
        # Distinguish the part that cannot touch the point's curves at all.
        for idx, part in enumerate(parts, start=1):
            carries_nothing = all(part.coefficients[i] == 0 for i in row.point_indices)
            pairs_zero = any(part.pairings[1 + i] == 0 for i in row.point_indices)
            if carries_nothing and pairs_zero:
                return Obstruction(
                    DISJOINTNESS,
                    (("part", idx), ("required", mu),
                     ("cap_part1", caps[0]), ("cap_part2", caps[1])),
                )
        return Obstruction(
            MULTIPLICITY_BUDGET,
            (("required", mu), ("cap_part1", caps[0]), ("cap_part2", caps[1])),
        )

    candidate_dim = residual.dim - conditions(mu)
    if first.coefficients == row.balanced_split:
        # a row's balanced split is compared against the one-part family
        # through the point, matching the recorded analysis for that case
        best = first.dim - conditions(mu)
    else:
        # the best share of the multiplicity between the parts; as the caps
        # are >= 0 and add up to >= mu here, there is at least one share
        best = max(
            parts[0].dim - conditions(t1) + parts[1].dim - conditions(mu - t1)
            for t1 in range(max(0, mu - caps[1]), min(caps[0], mu) + 1)
        )
    if best < candidate_dim:
        return Obstruction(
            DIMENSION_GAP,
            (("candidate_dim", candidate_dim), ("parts_dim", best)),
        )
    return None


def square_survivors(row: CaseTable, degree: int) -> list[Part]:
    """The first parts of the splits in the row's box whose square is > -2,
    so that ``square_kill`` spares them, in ascending lexicographic order of
    their coefficients.

    They are grown from the zero split, one curve at a time:  P - C_j  has
    square  P^2 - 2 P.C_j + C_j^2,  and its pairings are P's less C_j's,
    row j of ``form``.  Every survivor is found.  The zero split's first
    part is -K, of square degree >= 1.  Any other survivor P has a survivor
    one unit below it, with a square no smaller, so each is reached through
    survivors alone:

    - if it takes E, with coefficient e > 0, then  P.E = 1 + e  (E is a
      (-1)-curve of K-degree -1 that meets no node), and  P + E  has
      square  P^2 + 2 P.E - 1 > P^2;
    - else its node coefficients c are not all 0 and, a node having
      K-degree 0,  P.C_j = (c, a_j)  for the positive definite form (,) of
      the root lattice and its simple roots a_j.  As
      (c, c) = sum_j c_j (c, a_j) > 0,  some j with c_j > 0 has
      (c, a_j) >= 1,  and  P + C_j  has square  P^2 + 2 (c, a_j) - 2 >= P^2.

    Every other split of the box dies on that square.  Each survivor's
    ``Part`` is made by ``_part`` from the running square the prune has
    already computed, with no second dot product; ``_part`` adds its dim,
    an integer, as every class has an even  P^2 - P.K  (``CaseTable.form``).
    """
    form, box = row.form, row.coefficients
    zero = (0,) * len(box)
    found = {zero: part_numbers(row, degree, 1, zero)}
    grow = [found[zero]]
    while grow:
        _, point, pairings, square, _ = grow.pop()
        for j, pairs in enumerate(form):
            if point[j] == box[j]:
                continue
            grown_square = square - 2 * pairings[1 + j] + pairs[1 + j]
            if square_kill(1, grown_square):
                continue
            grown = point[:j] + (point[j] + 1,) + point[j + 1:]
            if grown not in found:
                found[grown] = _part(1, grown, tuple(map(sub, pairings, pairs)), grown_square)
                grow.append(found[grown])
    return [found[point] for point in sorted(found)]


@cache
def enumerate_decompositions(row: CaseTable, degree: int) -> tuple[Split, ...]:
    """The splits that survive part 1's square test, each paired with its
    obstruction (or None, which later surfaces as a discrepancy).

    Splits run in ascending lexicographic order of the first part's
    coefficient vector over the row's curves, E last.  Every other split of
    the box has part-1 square <= -2; the certificate document lists them
    all.

    The splits depend on the (row, degree) box alone, so each box is
    walked once per process: ``sweep``'s 188 certified specs fall into 40
    boxes, and the other 148 calls are served from the memo.  A row is a
    tuple, so it keys the memo by value.
    """
    if degree not in row.degrees:
        raise ValueError(f"case {row.case_id} does not apply at degree {degree}")
    residual = row.residual(degree)
    return tuple(
        Split(first.coefficients, _obstruction_for(row, residual, first))
        for first in square_survivors(row, degree)
    )


class TigerCertificate(NamedTuple):
    """Complete, re-checkable record of one construction: its ``spec``,
    the case ``row`` that builds its tiger, the ``singularity_index`` of the
    matched singularity instance (None for the degree-driven rows) and the
    ``decompositions``, the splits that survive part 1's square test, each
    with its obstruction.

    Every other split dies on part 1's square (the certificate document
    lists them all), and every other number of the certificate is read off
    the case row.  ``unobstructed`` holds the walked splits with no
    obstruction: the certificate holds exactly when it is empty, and the
    document's status is worded from it by :mod:`dpcylinders.certificate`.
    """

    spec: SurfaceSpec
    row: CaseTable
    singularity_index: Optional[int]
    decompositions: tuple[Split, ...]

    @property
    def unobstructed(self) -> tuple[Split, ...]:
        return tuple(s for s in self.decompositions if s.obstruction is None)


def select_case(spec: SurfaceSpec) -> tuple[CaseTable, Optional[int]]:
    """First case row applying to the spec, plus the index of the spec's
    first instance of the row's singularity type (None for the
    degree-driven rows)."""
    for row in _CASE_ROWS:
        if spec.degree not in row.degrees:
            continue
        if row.singularity is None:
            return row, None
        if row.singularity in spec.singularities:
            return row, spec.singularities.index(row.singularity)
    raise NoCaseApplies(
        f"no construction case covers {spec}; "
        "this is a coverage gap if the surface has an anticanonical cylinder"
    )


def build_tiger(spec: SurfaceSpec) -> TigerCertificate:
    """Select the case for a spec and enumerate its splits.

    Raises :class:`NoCaseApplies` when no case row covers the spec, which
    is the case exactly for the specs without an anticanonical cylinder.
    """
    row, sing_index = select_case(spec)
    return TigerCertificate(
        spec, row, sing_index, enumerate_decompositions(row, spec.degree)
    )
