"""Cylinder existence classification.

Two questions per surface spec: does the anticanonical class admit a
cylinder, and does any ample polarization admit one.  Both answers are
governed by short exclusion lists over the degree and the singularity
collection; everything outside the lists has a cylinder.
"""

from __future__ import annotations

from dataclasses import dataclass

from .lattice import DynkinType, SurfaceSpec, picard_rank

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


@dataclass(frozen=True)
class Verdict:
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
