"""Independent coordinate oracle for the tests' pairing tables.

:mod:`pairing_reference` writes the pairing down from the Dynkin types.
This module checks it against explicit coordinates in the standard odd
unimodular lattice of rank 10 - degree, with basis (H, e_1, ..., e_n),
H.H = 1, e_i.e_i = -1, n = 9 - degree, and K = -3H + e_1 + ... + e_n.

Exceptional curves are searched among the roots of the orthogonal
complement of K (square -2, K-degree 0); a (-1)-curve among the classes of
square -1 and K-degree -1 that avoid every placed root.  The search is a
deterministic depth-first walk over sorted candidate lists that checks each
node against every node placed before it, so a given spec always produces
the same coordinates and no node order can make them wrong.  That walk,
``embeddings``, is the tests' one search over roots, and ``nef_defects``
reads a row's residual on the embeddings it finds.

A full-rank singularity configuration (total rank 9 - d) embeds in the
orthogonal complement of K only if the product of the type discriminants
equals d times a perfect square.  The three case rows that fail this test
(A6 at degree 3, D6 at degree 3, D7 at degree 2) are refused at once with
that argument instead of timing out; their pairing tables are unaffected.
"""

from __future__ import annotations

import math
from functools import cache

from dpcylinders import SurfaceSpec
from dpcylinders.lattice import DynkinType, gram_table

from pairing_reference import pairings, row_reference
from residual_fixtures import minimal_spec_args

Vector = tuple[int, ...]

# Candidate placements the embedding search may try before it gives up.
STEP_LIMIT = 500_000


class OracleUnavailable(RuntimeError):
    """No embedding was found within the search budget.

    This is an explicit negative answer, never a silent pass.  It can be a
    genuine impossibility (the root lattice may be too small even when the
    rank budget holds) or an exhausted step limit; the message says which.
    """


def pairing(u: Vector, v: Vector) -> int:
    """Signature (1, n) inner product: first coordinate positive."""
    if len(u) != len(v):
        raise ValueError("vector length mismatch")
    return u[0] * v[0] - sum(a * b for a, b in zip(u[1:], v[1:]))


def canonical_vector(n: int) -> Vector:
    return (-3,) + (1,) * n


@cache
def classes(n: int, square: int, k_degree: int) -> tuple[Vector, ...]:
    """All v = (h, a_1..a_n) with v.v = square and v.K = k_degree, sorted.

    The conditions read sum(a) = -3h - k_degree and sum(a^2) = h^2 - square.
    The coordinates are walked depth first, each in ascending order, and a
    branch stops once (sum left)^2 > (coordinates left) * (squares left),
    which Cauchy-Schwarz forbids.  For n <= 8 it also bounds h, as
    (9 - n)h^2 + 6h*k_degree + k_degree^2 + n*square <= 0 needs
    |h| <= 6|k_degree| + n|square|.
    """
    found: list[Vector] = []

    def walk(prefix: Vector, total: int, squares: int) -> None:
        left = n + 1 - len(prefix)
        if squares < 0 or total * total > left * squares:
            return
        if left == 0:
            if squares == 0:
                found.append(prefix)
            return
        r = math.isqrt(squares)
        for a in range(-r, r + 1):
            walk(prefix + (a,), total - a, squares - a * a)

    bound = 6 * abs(k_degree) + n * abs(square)
    for h in range(-bound, bound + 1):
        walk((h,), -3 * h - k_degree, h * h - square)
    return tuple(found)


def embeddings(gram, roots, placed: tuple[Vector, ...] = ()):
    """Every tuple of roots that extends ``placed`` and pairs by the Gram
    table ``gram``, depth first, taking the roots in order at each node.

    Each check built on this is invariant under the Weyl group W of K^perp,
    which preserves K, the pairing and the (-1)-classes.  Fixing D1 to the
    first root, ``placed=roots[:1]``, still meets every W-orbit only where
    K^perp is irreducible, so that W is transitive on its roots: every
    degree but 6.  At degree 6, K^perp = A2 + A1, the first root lies in
    the A1, and no embedding of A2 contains it.
    """
    if len(placed) == len(gram):
        yield placed
        return
    wanted = gram[len(placed)]
    for r in roots:
        if all(pairing(r, v) == w for v, w in zip(placed, wanted)):
            yield from embeddings(gram, roots, placed + (r,))


class _Counted:
    """The roots, each one handed to the search counted against
    STEP_LIMIT."""

    def __init__(self, roots: tuple[Vector, ...], spec: SurfaceSpec):
        self.roots, self.spec, self.steps = roots, spec, 0

    def __iter__(self):
        for r in self.roots:
            self.steps += 1
            if self.steps > STEP_LIMIT:
                raise OracleUnavailable(
                    f"embedding search for {self.spec} exceeded {STEP_LIMIT} steps"
                )
            yield r


def _type_discriminant(t: DynkinType) -> int:
    """Determinant of the positive definite form of the type's root lattice."""
    if t.family == "A":
        return t.rank + 1
    if t.family == "D":
        return 4
    return {6: 3, 7: 2, 8: 1}[t.rank]


def oracle_embed(spec: SurfaceSpec, with_minus_one_curve: bool = False) -> dict[str, Vector]:
    """Explicit coordinates for K, every exceptional curve of the spec, and
    optionally one (-1)-curve disjoint from all of them, by label.

    Labels match the ones a :class:`~pairing_reference.PairingTable` gives
    the spec's singularities, in spec order: the curves of singularity
    number s (1-based) are ``D1``..``Dk`` for s = 1 and carry the suffix
    ``_s`` afterwards; the (-1)-curve is ``E``.
    """
    n = 9 - spec.degree

    # Fast impossibility proof for full-rank configurations: a finite-index
    # sublattice multiplies the ambient discriminant (here the degree) by a
    # perfect square, so the product of the type discriminants must be the
    # degree times a square.  Catching this here turns a hopeless exhaustive
    # search into an immediate, provable refusal.
    if spec.total_rank == n and spec.singularities:
        product = math.prod(_type_discriminant(t) for t in spec.singularities)
        quotient, remainder = divmod(product, spec.degree)
        if remainder != 0 or math.isqrt(quotient) ** 2 != quotient:
            raise OracleUnavailable(
                f"no embedding exists for {spec}: a full-rank sublattice needs "
                f"discriminant {spec.degree} times a perfect square, "
                f"got {product}"
            )

    # the exceptional curves in label order, as (point, node); curves over
    # different singular points are disjoint
    grams = [gram_table(t) for t in spec.singularities]
    nodes = [(s, i) for s, gram in enumerate(grams) for i in range(len(gram))]
    gram = [[grams[s][i][j] if s == t else 0 for t, j in nodes] for s, i in nodes]
    placed = next(embeddings(gram, _Counted(classes(n, -2, 0), spec)), None)
    if placed is None:
        raise OracleUnavailable(
            f"no root embedding exists for {spec} in rank {n} "
            "(the orthogonal complement of K is too small)"
        )
    coords = {"K": canonical_vector(n)}
    coords.update(
        (f"D{i + 1}{'' if s == 0 else f'_{s + 1}'}", v) for (s, i), v in zip(nodes, placed)
    )

    if with_minus_one_curve:
        for candidate in classes(n, -1, -1):
            if all(pairing(candidate, v) == 0 for v in placed):
                coords["E"] = candidate
                break
        else:
            raise OracleUnavailable(
                f"no (-1)-class disjoint from the exceptional curves of {spec}"
            )
    return coords


def assert_table_matches(table, coords: dict[str, Vector]) -> None:
    """Every entry of a pairing table equals the pairing of its coordinates."""
    for i, a in enumerate(table.labels):
        for j, b in enumerate(table.labels):
            assert pairing(coords[a], coords[b]) == table.matrix[i][j], (a, b)


def class_vector(coords: dict[str, Vector], multiple: int, config: dict[str, int]) -> Vector:
    """The class  multiple*(-K) - sum c C  of a configuration {label: c} in
    the embedding's coordinates."""
    v = tuple(-multiple * x for x in coords["K"])
    for label, c in config.items():
        v = tuple(a - c * b for a, b in zip(v, coords[label]))
    return v


def nef_defects(row, degree, nodes):
    """Where the residual  N = m(-K) - sum c_i D_i  of a singular row fails
    to be nef on an embedding of the row's nodes, given as the vectors of
    D1..Dk, as (curve, N.C, bound) with N.C < bound: the bound is 0 on each
    node and on each (-1)-class that pairs >= 0 with every node, a
    (-1)-curve, and the point's multiplicity on each curve through the
    marked point, lest a member with that multiplicity there contain the
    curve."""
    coords = {"K": canonical_vector(9 - degree), **dict(zip(row.curves, nodes))}
    n = class_vector(coords, row.multiple, dict(row.configuration))
    minus_one_curves = [
        e for e in classes(9 - degree, -1, -1) if all(pairing(e, v) >= 0 for v in nodes)
    ]
    bounds = [(label, coords[label], 0) for label in row.curves]
    bounds += [(e, e, 0) for e in minus_one_curves]
    bounds += [(label, coords[label], row.residual_multiplicity) for label in row.point]
    return [(curve, pairing(n, v), b) for curve, v, b in bounds if pairing(n, v) < b]


def check_row(row, degree: int) -> None:
    """Check a case row's pairing table at a degree, and its residual class
    expanded in coordinates, against an embedding of the row's minimal spec.
    Raises :class:`OracleUnavailable` when that spec has no embedding."""
    spec = SurfaceSpec(*minimal_spec_args(row.case_id, degree))
    coords = oracle_embed(spec, with_minus_one_curve=bool(row.e_coefficient))
    table, config = row_reference(row, degree)
    assert_table_matches(table, coords)
    n = table.part(row.multiple, config)
    n_vec = class_vector(coords, row.multiple, config)
    assert pairing(n_vec, n_vec) == table.pair(n, n), (row.case_id, degree)
    by_label = {label: pairing(n_vec, coords[label]) for label in table.labels}
    assert by_label == pairings(table, n), (row.case_id, degree)
