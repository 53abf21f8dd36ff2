"""Point conditions and multiplicity budgets for linear systems.

On a rational surface with vanishing higher cohomology, imposing
multiplicity >= m at a point cuts at most m(m+1)/2 dimensions from a linear
system.  This is used as exact integer bookkeeping; nothing here verifies
the vanishing hypotheses, and the dimensions are expected dimensions.
"""

from __future__ import annotations

from math import isqrt


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
