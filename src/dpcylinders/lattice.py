"""ADE singularity types, their Gram matrices, and surface specifications.

Each du Val singularity resolves into a configuration of (-2)-curves whose
dual graph is a Dynkin diagram of type A, D or E.  The Gram matrix of the
configuration is the negated Cartan matrix under a fixed node labeling, and
everything downstream (residual classes, decomposition budgets) is computed
against that labeling, so it is pinned here once and for all:

* ``A_k``: a chain, node ``i`` meets node ``i+1``.
* ``D_4``: node 1 is the central node, meeting nodes 2, 3, 4.
* ``D_k`` (k >= 5): node 3 is central; nodes 1 and 2 hang off it and the
  chain 3-4-...-k continues outward.
* ``E_k``: node 4 is central; node 1 hangs off node 4, node 2 hangs off
  node 3, and the chain 3-4-...-k runs through the center.
"""

from __future__ import annotations

import itertools
import re
from collections.abc import Iterable, Iterator
from dataclasses import dataclass


class InvalidSpec(ValueError):
    """Raised for malformed singularity types or over-budget surface specs."""


# The longest quotation of an input that an error message carries whole.
EXCERPT_LIMIT = 80


def excerpt(value: object) -> str:
    """repr(value) for an error message, cut after EXCERPT_LIMIT characters
    so that an overlong input still gives a short message."""
    quoted = repr(value)
    if len(quoted) <= EXCERPT_LIMIT:
        return quoted
    return f"{quoted[:EXCERPT_LIMIT]}... ({len(quoted)} characters in full)"


_TYPE_RE = re.compile(r"^([ADE])0*([0-9]+)$")

_RANK_BOUNDS = {
    "A": range(1, 9),
    "D": range(4, 9),
    "E": range(6, 9),
}


@dataclass(frozen=True, order=True)
class DynkinType:
    """One ADE singularity type, e.g. ``A4`` or ``E8``."""

    family: str
    rank: int

    def __post_init__(self) -> None:
        if self.family not in _RANK_BOUNDS:
            raise InvalidSpec(f"unknown family {excerpt(self.family)}, expected A, D or E")
        if self.rank not in _RANK_BOUNDS[self.family]:
            lo = _RANK_BOUNDS[self.family][0]
            raise InvalidSpec(
                f"{self.family}{self.rank} is not a valid type "
                f"(need {lo} <= rank <= 8 for family {self.family})"
            )

    @classmethod
    def parse(cls, text: str) -> "DynkinType":
        m = _TYPE_RE.match(text.strip()) if isinstance(text, str) else None
        if m is None:
            raise InvalidSpec(f"cannot parse singularity type {excerpt(text)}")
        family, digits = m.groups()
        if len(digits) > 1:
            # every valid rank has one digit, and int() refuses thousands
            raise InvalidSpec(f"{family} with a {len(digits)}-digit rank is not a valid type")
        return cls(family, int(digits))

    def __str__(self) -> str:
        return f"{self.family}{self.rank}"


def all_types() -> tuple[DynkinType, ...]:
    """Every valid type of rank <= 8, in canonical (family, rank) order."""
    return tuple(
        DynkinType(fam, r) for fam in "ADE" for r in _RANK_BOUNDS[fam]
    )


def adjacency(t: DynkinType) -> frozenset[tuple[int, int]]:
    """Edge set of the Dynkin diagram under the module's labeling.

    Nodes are numbered 1..rank; each edge is returned once as (i, j), i < j.
    """
    k = t.rank
    if t.family == "A":
        edges = {(i, i + 1) for i in range(1, k)}
    elif t.family == "D" and k == 4:
        edges = {(1, 2), (1, 3), (1, 4)}
    elif t.family == "D":
        edges = {(1, 3), (2, 3)} | {(i, i + 1) for i in range(3, k)}
    else:  # E6, E7, E8
        edges = {(1, 4), (2, 3)} | {(i, i + 1) for i in range(3, k)}
    return frozenset(edges)


def gram_table(t: DynkinType) -> tuple[tuple[int, ...], ...]:
    """Gram matrix of the (-2)-curve configuration: -2 on the diagonal, 1
    for meeting curves, 0 otherwise (the negated Cartan matrix)."""
    k = t.rank
    edges = adjacency(t)
    rows = []
    for i in range(1, k + 1):
        row = []
        for j in range(1, k + 1):
            if i == j:
                row.append(-2)
            elif (min(i, j), max(i, j)) in edges:
                row.append(1)
            else:
                row.append(0)
        rows.append(tuple(row))
    return tuple(rows)


@dataclass(frozen=True)
class SurfaceSpec:
    """A degree together with a multiset of singularity types.

    Construction validates: type tokens such as ``"A1"`` are parsed, the
    singularities are sorted into canonical order, and the degree and rank
    budget are checked, so every instance is a valid spec.  The exceptional
    curves all live in the orthogonal complement of the canonical class
    inside a unimodular lattice of rank 10 - degree, so the total number of
    nodes can be at most 9 - degree.
    """

    degree: int
    singularities: tuple[DynkinType, ...] = ()

    def __post_init__(self) -> None:
        degree = self.degree
        if isinstance(degree, bool):
            raise InvalidSpec(f"degree must be an integer, not the boolean {degree!r}")
        if not isinstance(degree, int) or not 1 <= degree <= 9:
            raise InvalidSpec(f"degree must be an integer in [1, 9], got {excerpt(degree)}")
        tokens = self.singularities
        if isinstance(tokens, str) or not isinstance(tokens, Iterable):
            what = "the string " if isinstance(tokens, str) else ""
            raise InvalidSpec(
                f"singularities must be a sequence of type tokens, not {what}{excerpt(tokens)}"
            )
        resolved = tuple(sorted(
            t if isinstance(t, DynkinType) else DynkinType.parse(t)
            for t in tokens
        ))
        object.__setattr__(self, "singularities", resolved)
        budget = 9 - degree
        if self.total_rank > budget:
            raise InvalidSpec(
                f"rank budget exceeded: total rank {self.total_rank} > {budget} "
                f"allowed at degree {degree} (over by {self.total_rank - budget})"
            )

    @property
    def total_rank(self) -> int:
        return sum(t.rank for t in self.singularities)

    @property
    def singularity_label(self) -> str:
        """Human-readable multiset, e.g. ``2A1+2A3`` or ``smooth``."""
        if not self.singularities:
            return "smooth"
        parts = []
        for t, group in itertools.groupby(self.singularities):
            n = len(list(group))
            parts.append(f"{n}{t}" if n > 1 else str(t))
        return "+".join(parts)

    def __str__(self) -> str:
        return f"degree {self.degree}, {self.singularity_label}"


def picard_rank(spec: SurfaceSpec) -> int:
    """10 - degree - (number of exceptional curves); always >= 1."""
    return 10 - spec.degree - spec.total_rank


def enumerate_specs() -> Iterator[SurfaceSpec]:
    """All valid specs, degree ascending, singularities in canonical order.

    Multisets are generated with types nondecreasing, which yields each
    collection exactly once and in sorted order.
    """
    types = all_types()

    def collections(budget: int, start: int) -> Iterator[tuple[DynkinType, ...]]:
        yield ()
        for idx in range(start, len(types)):
            t = types[idx]
            if t.rank > budget:
                continue
            for rest in collections(budget - t.rank, idx):
                yield (t,) + rest

    for degree in range(1, 10):
        for coll in collections(9 - degree, 0):
            yield SurfaceSpec(degree, coll)
