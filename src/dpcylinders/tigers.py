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
into an anticanonical piece and a complementary piece is enumerated, and each
split must carry a numeric obstruction.  A split with no obstruction found
downgrades the certificate to a discrepancy report; it never passes silently.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product
from typing import Iterator, Optional

from .lattice import DynkinType, SurfaceSpec, gram_table
from .linear_systems import conditions, max_multiplicity_budget

# Obstruction kinds
NEGATIVE_SELF_INTERSECTION = "negative_self_intersection"
DIMENSION_GAP = "dimension_gap"
MULTIPLICITY_BUDGET = "multiplicity_budget"
DISJOINTNESS = "disjointness"


class NoCaseApplies(ValueError):
    """No row of the case table covers the given spec.

    The rows cover exactly the specs with an anticanonical cylinder, so
    this is the expected answer for a spec without one and a coverage gap
    for any other.
    """


@dataclass(frozen=True)
class PointSpec:
    """Marked point of a case, by the named curves through it: none for a
    general smooth point, one for a general point on that curve, two for
    their intersection point."""

    curves: tuple[str, ...] = ()

    @property
    def kind(self) -> str:
        return ("general", "on_curve", "node_intersection")[len(self.curves)]

    def describe(self) -> str:
        if not self.curves:
            return "a general smooth point"
        if len(self.curves) == 1:
            return f"a general point on {self.curves[0]}"
        return f"the intersection of {self.curves[0]} and {self.curves[1]}"


@dataclass(frozen=True)
class CaseTable:
    """One construction case: where it applies and what it builds.

    ``balanced_split`` names the first part's node coefficients of the one
    split whose dimension gap is taken against the one-part family through
    the marked point; ``notes`` are certificate notes, each with the degrees
    it applies at.
    """

    case_id: str
    degrees: tuple[int, ...]
    singularity: Optional[DynkinType]
    multiple: int
    node_coefficients: tuple[int, ...]
    e_coefficient: int
    point: PointSpec
    residual_multiplicity: int
    balanced_split: Optional[tuple[int, ...]] = None
    notes: tuple[tuple[str, tuple[int, ...]], ...] = ()

    @property
    def part_multiples(self) -> tuple[int, int]:
        # splits always take one anticanonical part off the candidate
        return (1, self.multiple - 1)

    @property
    def configuration(self) -> tuple[tuple[str, int], ...]:
        """The curves of the relation with nonzero coefficients, E last."""
        nodes = tuple(
            (f"D{i}", c) for i, c in enumerate(self.node_coefficients, start=1) if c
        )
        return nodes + ((("E", self.e_coefficient),) if self.e_coefficient else ())

    @property
    def local_multiplicity(self) -> int:
        # the curves through the marked point add their configuration coefficients
        return self.residual_multiplicity + sum(
            _coefficient_on(lbl, self.node_coefficients, self.e_coefficient)
            for lbl in self.point.curves
        )

    @property
    def ratio(self) -> Fraction:
        return Fraction(self.local_multiplicity, self.multiple)

    @property
    def tiger_components(self) -> tuple[tuple[str, Fraction], ...]:
        components = (("N", Fraction(1, self.multiple)),)
        if self.e_coefficient:
            components += (("E", Fraction(self.e_coefficient, self.multiple)),)
        return components

    def residual(self, degree: int) -> ResidualNumbers:
        """The relation's residual class N at a degree, by the closed form."""
        return part_residual_numbers(
            self, degree, self.multiple, self.node_coefficients, self.e_coefficient, "N"
        )

    def assumptions(self, degree: int) -> tuple[str, ...]:
        """What the construction leans on at a degree, notes last."""
        assumptions = [ASSUME_VANISHING, ASSUME_GENERALITY]
        if self.e_coefficient:
            assumptions.append(ASSUME_E_DISJOINT)
        if self.balanced_split is not None:
            assumptions.append(NOTE_BALANCED_SPLIT)
        assumptions.extend(text for text, degrees in self.notes if degree in degrees)
        return tuple(assumptions)


def case_tables() -> tuple[CaseTable, ...]:
    """All construction cases, in dispatch order.

    The first three rows are selected purely by degree; the rest fire on the
    presence of one singularity type at the remaining degrees.  Coefficients
    follow the node labeling fixed in :mod:`dpcylinders.lattice`.
    """
    return _CASE_ROWS


def _point(*curves: str) -> PointSpec:
    return PointSpec(curves)


ASSUME_VANISHING = (
    "expected-dimension: linear system dimensions come from Riemann-Roch "
    "with vanishing higher cohomology assumed throughout"
)
ASSUME_GENERALITY = (
    "asserted-generality: existence and generality of members of the counted "
    "families is asserted by dimension budget, not constructed"
)
ASSUME_E_DISJOINT = (
    "minus-one-curve: E is taken disjoint from every exceptional curve"
)


NOTE_DEG4_BUDGET = (
    "degree-4-budget: at degree 4 two splits fail the multiplicity budget "
    "outright; the dimension comparison only bites at degree 6"
)
NOTE_EXACT_BUDGET = (
    "exact-budget: the candidate family at the marked point has dimension "
    "exactly 0 (21 conditions against a 21-dimensional system)"
)
NOTE_BALANCED_SPLIT = (
    "balanced-split: the even split is excluded by comparing point-constrained "
    "family dimensions, candidate against one anticanonical part"
)
NOTE_OWN_COEFFICIENTS = (
    "multiplicity-recount: the local multiplicity uses this configuration's "
    "own coefficients at the marked point"
)

_CASE_ROWS = (
    CaseTable("deg7plus", (7, 8, 9), None, 2, (), 0, _point(), 5),
    CaseTable("deg4or6", (4, 6), None, 3, (), 2, _point("E"), 5,
              notes=((NOTE_DEG4_BUDGET, (4,)),)),
    CaseTable("deg5", (5,), None, 4, (), 0, _point(), 9),
    CaseTable("A1deg3", (3,), DynkinType("A", 1), 4, (3,), 0, _point("D1"), 6,
              notes=((NOTE_EXACT_BUDGET, (3,)),)),
    CaseTable("A2", (2, 3), DynkinType("A", 2), 2, (2, 2), 0, _point("D1", "D2"), 1,
              balanced_split=(1, 1)),
    CaseTable("A3", (2, 3), DynkinType("A", 3), 2, (2, 2, 1), 0, _point("D1", "D2"), 1),
    CaseTable("D4", (2, 3), DynkinType("D", 4), 3, (4, 3, 2, 2), 0, _point("D1", "D2"), 0),
    CaseTable("A4", (1, 2, 3), DynkinType("A", 4), 2, (1, 2, 2, 1), 0, _point("D2", "D3"), 1),
    CaseTable("A5", (1, 2, 3), DynkinType("A", 5), 3, (1, 2, 3, 3, 2), 0, _point("D3", "D4"), 1),
    CaseTable("A6", (1, 2, 3), DynkinType("A", 6), 3, (1, 2, 3, 3, 2, 1), 0, _point("D3", "D4"), 1),
    CaseTable("A7", (1, 2), DynkinType("A", 7), 4, (1, 2, 3, 4, 4, 3, 2), 0, _point("D4", "D5"), 1),
    CaseTable("A8", (1,), DynkinType("A", 8), 4, (1, 2, 3, 4, 4, 3, 2, 1), 0, _point("D4", "D5"), 1),
    CaseTable("D5", (1, 2, 3), DynkinType("D", 5), 2, (2, 2, 3, 2, 1), 0, _point("D3", "D4"), 0),
    CaseTable("D6", (1, 2, 3), DynkinType("D", 6), 2, (2, 2, 4, 3, 2, 1), 0, _point("D3", "D4"), 0),
    CaseTable("D7", (1, 2), DynkinType("D", 7), 3, (3, 3, 6, 5, 4, 3, 2), 0, _point("D3", "D4"), 0),
    CaseTable("D8", (1,), DynkinType("D", 8), 3, (3, 3, 6, 5, 4, 3, 2, 1), 0, _point("D3", "D4"), 0),
    CaseTable("E6", (1, 2, 3), DynkinType("E", 6), 2, (2, 1, 2, 3, 2, 1), 0, _point("D4", "D5"), 0),
    CaseTable("E7", (1, 2), DynkinType("E", 7), 2, (2, 2, 3, 4, 3, 2, 1), 0, _point("D4", "D5"), 0),
    CaseTable("E8", (1,), DynkinType("E", 8), 2, (3, 2, 4, 6, 5, 4, 3, 2), 0, _point("D4", "D5"), 0,
              notes=((NOTE_OWN_COEFFICIENTS, (1,)),)),
)


@dataclass(frozen=True, slots=True)
class ResidualNumbers:
    """All derived intersection data of one residual class."""

    label: str
    pairings: tuple[tuple[str, int], ...]
    square: int
    dim: int

    def pairing(self, label: str) -> int:
        for lbl, value in self.pairings:
            if lbl == label:
                return value
        raise KeyError(f"no pairing recorded against {label!r}")


@dataclass(frozen=True, slots=True)
class Decomposition:
    """One coefficientwise split of a case's configuration.

    Only the first part's coefficients are stored; the second part is the
    complement and the part multiples are (1, m-1).  Full per-part data is
    recovered with :func:`decomposition_parts`.
    """

    nodes_part1: tuple[int, ...]
    e_part1: int


@dataclass(frozen=True, slots=True)
class Obstruction:
    """Why one split cannot produce an anticanonical part inside a general
    candidate.  Witness values recompute to the stated contradiction."""

    kind: str
    witness: tuple[tuple[str, int], ...]

    def describe(self) -> str:
        w = dict(self.witness)
        if self.kind == NEGATIVE_SELF_INTERSECTION:
            if "square" in w:
                return f"part {w['part']} residual has square {w['square']} <= -2"
            if "pairing" in w:
                return (
                    f"part {w['part']} residual pairs {w['pairing']} < 0 "
                    "with a configuration curve"
                )
            return f"part {w['part']} residual has negative expected dimension {w['dim']}"
        if self.kind == DISJOINTNESS:
            return (
                f"part {w['part']} cannot meet the marked point's curves at all, "
                f"and the parts can carry at most {w['cap_part1']}+{w['cap_part2']} "
                f"< {w['required']} there"
            )
        if self.kind == MULTIPLICITY_BUDGET:
            return (
                f"parts can carry multiplicity at most {w['cap_part1']}+{w['cap_part2']} "
                f"< {w['required']} at the marked point"
            )
        return (
            f"every split family has dimension {w['parts_dim']}, below the "
            f"candidate family's {w['candidate_dim']}, so a general candidate "
            "avoids all such splits"
        )


@dataclass(frozen=True, slots=True)
class DecompositionOutcome:
    decomposition: Decomposition
    obstruction: Optional[Obstruction]


@dataclass(frozen=True, slots=True)
class PartRecord:
    """One side of a split, with its residual's derived numbers."""

    multiple: int
    node_coefficients: tuple[int, ...]
    e_coefficient: int
    residual: ResidualNumbers


@lru_cache(maxsize=None)
def _row_neighbors(t: Optional[DynkinType]) -> tuple[tuple[int, ...], ...]:
    g = gram_table(t) if t is not None else ()
    k = len(g)
    return tuple(
        tuple(j for j in range(k) if j != i and g[i][j] != 0) for i in range(k)
    )


def part_residual_numbers(
    row: CaseTable, degree: int, part_multiple: int,
    nodes: tuple[int, ...], e_coefficient: int, label: str = "F",
) -> ResidualNumbers:
    """Intersection data of  part_multiple*(-K) - sum(nodes) - e*E.

    Closed forms over the Gram table; the relation residual itself is the
    special case part_multiple = row.multiple with the full configuration.
    """
    if len(nodes) != len(row.node_coefficients):
        raise ValueError("node coefficient length does not match the case")
    nbrs = _row_neighbors(row.singularity)
    k = len(nodes)
    ga = [sum(nodes[j] for j in nbrs[i]) - 2 * nodes[i] for i in range(k)]
    square = (
        part_multiple * part_multiple * degree
        - 2 * part_multiple * e_coefficient
        - e_coefficient * e_coefficient
        + sum(nodes[i] * ga[i] for i in range(k))
    )
    k_pairing = -part_multiple * degree + e_coefficient
    pairings = [("K", k_pairing)]
    pairings.extend((f"D{i + 1}", -ga[i]) for i in range(k))
    if row.e_coefficient:
        pairings.append(("E", part_multiple + e_coefficient))
    numerator = square - k_pairing
    if numerator % 2 != 0:
        raise ValueError("residual class has odd self-pairing parity")
    return ResidualNumbers(label, tuple(pairings), square, numerator // 2)


def decomposition_parts(
    row: CaseTable, degree: int, dec: Decomposition
) -> tuple[PartRecord, PartRecord]:
    """Expand a stored split into its two full part records."""
    m1, m2 = row.part_multiples
    nodes2 = tuple(
        c - a for c, a in zip(row.node_coefficients, dec.nodes_part1)
    )
    e2 = row.e_coefficient - dec.e_part1
    return (
        PartRecord(m1, dec.nodes_part1, dec.e_part1,
                   part_residual_numbers(row, degree, m1, dec.nodes_part1, dec.e_part1, "F1")),
        PartRecord(m2, nodes2, e2,
                   part_residual_numbers(row, degree, m2, nodes2, e2, "F2")),
    )


def _point_cap(row: CaseTable, part: PartRecord) -> int:
    """Largest multiplicity the part's residual can carry at the marked point:
    bounded by the dimension budget and by its pairing with each curve
    through the point."""
    cap = max_multiplicity_budget(part.residual.dim)
    for label in row.point.curves:
        cap = min(cap, part.residual.pairing(label))
    return cap


def _coefficient_on(label: str, nodes: tuple[int, ...], e_coefficient: int) -> int:
    """A configuration's coefficient on one of its curves (D1.., or E)."""
    if label == "E":
        return e_coefficient
    return nodes[int(label[1:]) - 1]


def _obstruction_for(
    row: CaseTable, degree: int, dec: Decomposition
) -> Optional[Obstruction]:
    """Find the numeric contradiction for one split, or None if there is
    none (which downgrades the certificate)."""
    parts = decomposition_parts(row, degree, dec)

    # A part whose residual has square <= -2, a negative pairing with a
    # configuration curve, or negative expected dimension cannot occur.
    for idx, part in enumerate(parts, start=1):
        r = part.residual
        if r.square <= -2:
            return Obstruction(
                NEGATIVE_SELF_INTERSECTION,
                (("part", idx), ("square", r.square)),
            )
        worst = min((v for lbl, v in r.pairings if lbl != "K"), default=0)
        if worst < 0:
            return Obstruction(
                NEGATIVE_SELF_INTERSECTION,
                (("part", idx), ("pairing", worst)),
            )
        if r.dim < 0:
            return Obstruction(
                NEGATIVE_SELF_INTERSECTION,
                (("part", idx), ("dim", r.dim)),
            )

    mu = row.residual_multiplicity
    caps = tuple(_point_cap(row, part) for part in parts)
    if caps[0] + caps[1] < mu:
        # Distinguish the part that cannot touch the point's curves at all.
        for idx, part in enumerate(parts, start=1):
            carries_nothing = all(
                _coefficient_on(lbl, part.node_coefficients, part.e_coefficient) == 0
                for lbl in row.point.curves
            )
            pairs_zero = any(
                part.residual.pairing(lbl) == 0 for lbl in row.point.curves
            )
            if row.point.curves and carries_nothing and pairs_zero:
                return Obstruction(
                    DISJOINTNESS,
                    (("part", idx), ("required", mu),
                     ("cap_part1", caps[0]), ("cap_part2", caps[1])),
                )
        return Obstruction(
            MULTIPLICITY_BUDGET,
            (("required", mu), ("cap_part1", caps[0]), ("cap_part2", caps[1])),
        )

    full = part_residual_numbers(
        row, degree, row.multiple, row.node_coefficients, row.e_coefficient, "N"
    )
    candidate_dim = full.dim - conditions(mu)

    # A row's balanced split is compared against the one-part family
    # through the point, matching the recorded analysis for that case.
    if dec.nodes_part1 == row.balanced_split:
        part_dim = parts[0].residual.dim - conditions(mu)
        return Obstruction(
            DIMENSION_GAP,
            (("candidate_dim", candidate_dim), ("parts_dim", part_dim)),
        )

    best = None
    for t1 in range(max(0, mu - caps[1]), min(caps[0], mu) + 1):
        t2 = mu - t1
        total = (
            parts[0].residual.dim - conditions(t1)
            + parts[1].residual.dim - conditions(t2)
        )
        if best is None or total > best:
            best = total
    if best is not None and best < candidate_dim:
        return Obstruction(
            DIMENSION_GAP,
            (("candidate_dim", candidate_dim), ("parts_dim", best)),
        )
    return None


@lru_cache(maxsize=None)
def enumerate_decompositions(
    row: CaseTable, degree: int
) -> tuple[DecompositionOutcome, ...]:
    """Every coefficientwise split of the configuration, each paired with
    its obstruction (or None, which later surfaces as a discrepancy).

    Splits run in ascending lexicographic order of the first part's
    coefficient vector, the (-1)-curve coefficient last.
    """
    if degree not in row.degrees:
        raise ValueError(f"case {row.case_id} does not apply at degree {degree}")
    ranges = [range(c + 1) for c in row.node_coefficients]
    ranges.append(range(row.e_coefficient + 1))
    outcomes = []
    for split in product(*ranges):
        dec = Decomposition(split[:-1], split[-1])
        outcomes.append(
            DecompositionOutcome(dec, _obstruction_for(row, degree, dec))
        )
    return tuple(outcomes)


@dataclass(frozen=True)
class TigerCertificate:
    """Complete, re-checkable record of one construction: the spec, the
    case row that builds its tiger, the matched singularity instance (None
    for the degree-driven rows) and every split with its obstruction.

    Every other number of the certificate is read off the case row.
    """

    spec: SurfaceSpec
    row: CaseTable
    singularity_index: Optional[int]
    decompositions: tuple[DecompositionOutcome, ...]

    @property
    def unobstructed(self) -> tuple[Decomposition, ...]:
        return tuple(
            o.decomposition for o in self.decompositions if o.obstruction is None
        )

    @property
    def status(self) -> str:
        return "discrepancy" if self.unobstructed else "certified"


def select_case(spec: SurfaceSpec) -> tuple[CaseTable, Optional[int]]:
    """First case row applying to the spec, plus the index of the matched
    singularity instance (None for the degree-driven rows)."""
    for row in _CASE_ROWS:
        if spec.degree not in row.degrees:
            continue
        if row.singularity is None:
            return row, None
        for idx, t in enumerate(spec.singularities):
            if t == row.singularity:
                return row, idx
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
    mu = row.residual_multiplicity
    dim = row.residual(spec.degree).dim
    if dim < conditions(mu):
        raise AssertionError(
            f"case {row.case_id} cannot afford multiplicity {mu}: "
            f"{dim} < {conditions(mu)}"
        )
    if row.ratio <= 2:
        raise AssertionError(f"ratio {row.ratio} fails the > 2 threshold")
    return TigerCertificate(
        spec, row, sing_index, enumerate_decompositions(row, spec.degree)
    )


def narrate(cert: TigerCertificate) -> Iterator[str]:
    """The derivation behind a certificate, one line per step, as
    ``dpcyl tiger --trace`` prints it."""
    row, d, m = cert.row, cert.spec.degree, cert.row.multiple
    yield (f"case {row.case_id}: degree {d}, multiple {m}, "
           f"marked point {row.point.describe()}")
    terms = [lbl if c == 1 else f"{c}*{lbl}" for lbl, c in row.configuration]
    yield f"relation: {m}*(-K) = {' + '.join(terms + ['N'])}"

    residual = row.residual(d)
    square, dim = residual.square, residual.dim
    for lbl, v in residual.pairings:
        yield f"N.{lbl} = {v}"
    yield f"N^2 = {square}"
    yield f"dim|N| = (N^2 - N.K)/2 = ({square} - ({residual.pairing('K')}))/2 = {dim}"
    mu = row.residual_multiplicity
    yield f"conditions({mu}) = {conditions(mu)}; candidate family dim = {dim - conditions(mu)}"
    yield f"local multiplicity = {row.local_multiplicity}; ratio = {row.local_multiplicity}/{m}"

    unobstructed = cert.unobstructed
    for dec in unobstructed:
        yield f"split nodes={dec.nodes_part1} e={dec.e_part1}: NO OBSTRUCTION"
    yield f"decompositions: {len(cert.decompositions)} splits, {len(unobstructed)} unobstructed"
