"""ADE singularity types, their Gram matrices, surface specifications and
their cylinder verdicts, with the text form of a spec and the JSON form of a
verdict.

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

A spec's verdicts answer two questions: does the anticanonical class admit
a cylinder, and does any ample polarization admit one.  Both answers are
governed by short exclusion lists over the degree and the singularity
collection; everything outside the lists has a cylinder.

Spec files are two-line key/value text ("degree: 3", "singularities: A1, A4");
documents are JSON with sorted keys and a trailing newline, so identical
inputs always render byte-identical output.  Rational values travel as
strings in lowest terms ("9/4").  Every document, the certificate documents
of ``certificate`` included, renders through the one encoder here.
"""

from __future__ import annotations

import json
import re
from collections import Counter, namedtuple
from collections.abc import Iterable, Iterator
from typing import Any, NamedTuple, Optional


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


class DynkinType(namedtuple("DynkinType", "family rank")):
    """One ADE singularity type, e.g. ``A4`` or ``E8``.  Types compare and
    sort as their (family, rank) pairs."""

    __slots__ = ()

    def __new__(cls, family: str, rank: int) -> "DynkinType":
        if not isinstance(family, str) or family not in _RANK_BOUNDS:
            raise InvalidSpec(f"unknown family {excerpt(family)}, expected A, D or E")
        if isinstance(rank, bool) or not isinstance(rank, int):
            raise InvalidSpec(f"rank must be an integer, got {excerpt(rank)}")
        if rank not in _RANK_BOUNDS[family]:
            lo = _RANK_BOUNDS[family][0]
            raise InvalidSpec(
                f"{family}{rank} is not a valid type "
                f"(need {lo} <= rank <= 8 for family {family})"
            )
        return super().__new__(cls, family, rank)

    @classmethod
    def _make(cls, iterable: Iterable) -> "DynkinType":
        # namedtuple's _make, and _replace through it, would skip __new__
        return cls(*iterable)

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


class SurfaceSpec(namedtuple("SurfaceSpec", "degree singularities")):
    """A degree together with a multiset of singularity types.

    Construction validates: type tokens such as ``"A1"`` are parsed, the
    singularities are sorted into canonical order, and the degree and rank
    budget are checked, so every instance is a valid spec.  The exceptional
    curves all live in the orthogonal complement of the canonical class
    inside a unimodular lattice of rank 10 - degree, so the total number of
    nodes can be at most 9 - degree.
    """

    __slots__ = ()

    def __new__(cls, degree: int, singularities: Iterable = ()) -> "SurfaceSpec":
        if isinstance(degree, bool):
            raise InvalidSpec(f"degree must be an integer, not the boolean {degree!r}")
        if not isinstance(degree, int) or not 1 <= degree <= 9:
            raise InvalidSpec(f"degree must be an integer in [1, 9], got {excerpt(degree)}")
        tokens = singularities
        # a type is a pair, but one type is not a sequence of them
        if isinstance(tokens, (str, DynkinType)) or not isinstance(tokens, Iterable):
            what = "the string " if isinstance(tokens, str) else ""
            raise InvalidSpec(
                f"singularities must be a sequence of type tokens, not {what}{excerpt(tokens)}"
            )
        resolved = tuple(sorted(
            t if isinstance(t, DynkinType) else DynkinType.parse(t)
            for t in tokens
        ))
        total, budget = sum(t.rank for t in resolved), 9 - degree
        if total > budget:
            raise InvalidSpec(
                f"rank budget exceeded: total rank {total} > {budget} "
                f"allowed at degree {degree} (over by {total - budget})"
            )
        return super().__new__(cls, degree, resolved)

    @classmethod
    def _make(cls, iterable: Iterable) -> "SurfaceSpec":
        # namedtuple's _make, and _replace through it, would skip __new__
        return cls(*iterable)

    @property
    def total_rank(self) -> int:
        return sum(t.rank for t in self.singularities)

    @property
    def singularity_label(self) -> str:
        """Human-readable multiset, e.g. ``2A1+2A3`` or ``smooth``."""
        if not self.singularities:
            return "smooth"
        # the singularities are sorted, so each type's count comes in order
        counts = Counter(self.singularities)
        return "+".join(f"{n}{t}" if n > 1 else str(t) for t, n in counts.items())

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


_A1 = DynkinType("A", 1)
_A2 = DynkinType("A", 2)
_A3 = DynkinType("A", 3)
_D4 = DynkinType("D", 4)

# Degree-1 collections built from these types never yield an anticanonical
# cylinder; anything containing a bigger type does.
_SMALL_TYPES = frozenset({_A1, _A2, _A3, _D4})

# The only collections (all of rank 8, forcing Picard rank one at degree 1)
# without a cylinder for any polarization.
NO_POLAR_COLLECTIONS: tuple[tuple[DynkinType, ...], ...] = (
    (_A2, _A2, _A2, _A2),
    (_A1, _A1, _A3, _A3),
    (_D4, _D4),
)


class Verdict(NamedTuple):
    anticanonical_cylinder: bool
    h_polar_cylinder: bool
    picard_rank: int
    anticanonical_reason: str
    polar_reason: str


def classify_anticanonical(spec: SurfaceSpec) -> tuple[bool, str]:
    """Whether the anticanonical class admits a cylinder, with a reason tag."""
    types = spec.singularities
    if spec.degree == 3 and not types:
        return False, "smooth-cubic"
    if spec.degree == 2 and all(t == _A1 for t in types):
        return False, "only-A1-at-degree-2"
    if spec.degree == 1 and all(t in _SMALL_TYPES for t in types):
        return False, "only-small-singularities-at-degree-1"
    return True, "outside-excluded-list"


def classify(spec: SurfaceSpec) -> Verdict:
    """Both verdicts with their reason tags: an anticanonical cylinder is
    also an H-polar one, and otherwise only the rank-one excluded
    collections have no cylinder for any polarization."""
    anticanonical, a_reason = classify_anticanonical(spec)
    rank = picard_rank(spec)
    if anticanonical:
        polar, p_reason = True, "anticanonical-cylinder-transfers"
    elif rank == 1 and spec.singularities in NO_POLAR_COLLECTIONS:
        polar, p_reason = False, "rank-one-excluded-collection"
    else:
        polar, p_reason = True, "ample-polarization-exists"
    return Verdict(
        anticanonical_cylinder=anticanonical,
        h_polar_cylinder=polar,
        picard_rank=rank,
        anticanonical_reason=a_reason,
        polar_reason=p_reason,
    )


class SpecFileError(ValueError):
    """Malformed spec file: structure, not semantics."""


# ASCII digits only: int() alone would also take "0_3" and non-ASCII digits
_DEGREE_RE = re.compile(r"([+-]?)0*([0-9]+)")


def parse_spec_text(text: str) -> SurfaceSpec:
    """Parse spec file content.

    Structure problems raise SpecFileError; semantically invalid content
    (unknown type token, degree/rank out of range) raises InvalidSpec, most
    of it from the SurfaceSpec constructor.  '#' starts a comment.
    """
    degree: Optional[int] = None
    tokens: Optional[list[str]] = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition(":")
        if not sep:
            raise SpecFileError(f"line {lineno}: expected 'key: value', got {excerpt(raw.strip())}")
        key = key.strip().lower()
        value = value.strip()
        if key == "degree":
            if degree is not None:
                raise SpecFileError(f"line {lineno}: duplicate 'degree'")
            m = _DEGREE_RE.fullmatch(value)
            if m is None:
                raise SpecFileError(
                    f"line {lineno}: degree must be an integer, got {excerpt(value)}"
                )
            sign, digits = m.groups()
            if len(digits) > 1:
                # every valid degree has one digit, and int() refuses thousands
                raise InvalidSpec(
                    f"degree must be an integer in [1, 9], got a {len(digits)}-digit number"
                )
            degree = int(sign + digits)
        elif key == "singularities":
            if tokens is not None:
                raise SpecFileError(f"line {lineno}: duplicate 'singularities'")
            tokens = [tok.strip() for tok in value.split(",") if tok.strip()]
        else:
            raise SpecFileError(f"line {lineno}: unknown key {excerpt(key)}")
    if degree is None:
        raise SpecFileError("missing 'degree' line")
    return SurfaceSpec(degree, tuple(tokens or ()))


# every document's layout
_ENCODER = json.JSONEncoder(indent=2, sort_keys=True)


def render_document(doc: dict[str, Any]) -> str:
    return _ENCODER.encode(doc) + "\n"


def _spec_block(spec: SurfaceSpec) -> dict[str, Any]:
    return {"degree": spec.degree, "singularities": [str(t) for t in spec.singularities]}


def verdict_document(spec: SurfaceSpec, verdict: Verdict) -> dict[str, Any]:
    return {
        "kind": "classification",
        "spec": _spec_block(spec),
        "picard_rank": verdict.picard_rank,
        "anticanonical_cylinder": {
            "exists": verdict.anticanonical_cylinder,
            "reason": verdict.anticanonical_reason,
        },
        "h_polar_cylinder": {
            "exists": verdict.h_polar_cylinder,
            "reason": verdict.polar_reason,
        },
    }
