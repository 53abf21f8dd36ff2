"""Independent coordinate oracle for generator configurations.

:mod:`dpcylinders.divisors` writes the pairing down from the Dynkin types.
This module checks it against explicit coordinates in the standard odd
unimodular lattice of rank 10 - degree, with basis (H, e_1, ..., e_n),
H.H = 1, e_i.e_i = -1, n = 9 - degree, and K = -3H + e_1 + ... + e_n.

Exceptional curves are searched among the roots of the orthogonal
complement of K (square -2, K-degree 0); a (-1)-curve among the classes of
square -1 and K-degree -1 that avoid every placed root.  The search is a
deterministic depth-first walk over sorted candidate lists, so a given spec
always produces the same embedding.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .lattice import DynkinType, SurfaceSpec, gram_table

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


def root_vectors(n: int) -> tuple[Vector, ...]:
    """All classes r with r.r = -2 and r.K = 0, sorted for determinism."""
    roots: set[Vector] = set()
    for i, j in itertools.permutations(range(n), 2):
        v = [0] * (n + 1)
        v[1 + i] = 1
        v[1 + j] = -1
        roots.add(tuple(v))
    if n >= 3:
        for combo in itertools.combinations(range(n), 3):
            v = [0] * (n + 1)
            v[0] = 1
            for i in combo:
                v[1 + i] = -1
            roots.add(tuple(v))
            roots.add(tuple(-x for x in v))
    if n >= 6:
        for combo in itertools.combinations(range(n), 6):
            v = [0] * (n + 1)
            v[0] = 2
            for i in combo:
                v[1 + i] = -1
            roots.add(tuple(v))
            roots.add(tuple(-x for x in v))
    if n >= 8:
        for i in range(n):
            v = [-1] * (n + 1)
            v[0] = 3
            v[1 + i] = -2
            roots.add(tuple(v))
            roots.add(tuple(-x for x in v))
    return tuple(sorted(roots))


def minus_one_vectors(n: int) -> tuple[Vector, ...]:
    """All classes L with L.L = -1 and L.K = -1, sorted for determinism."""
    out: set[Vector] = set()

    def add(h: int, doubles: tuple[int, ...], singles: tuple[int, ...], triple: int = -1) -> None:
        v = [0] * (n + 1)
        v[0] = h
        for i in doubles:
            v[1 + i] = -2
        for i in singles:
            v[1 + i] = -1
        if triple >= 0:
            v[1 + triple] = -3
        out.add(tuple(v))

    for i in range(n):
        v = [0] * (n + 1)
        v[1 + i] = 1
        out.add(tuple(v))
    for combo in itertools.combinations(range(n), 2):
        add(1, (), combo)
    if n >= 5:
        for combo in itertools.combinations(range(n), 5):
            add(2, (), combo)
    if n >= 7:
        for combo in itertools.combinations(range(n), 7):
            for double in combo:
                singles = tuple(i for i in combo if i != double)
                add(3, (double,), singles)
    if n >= 8:
        for doubles in itertools.combinations(range(n), 3):
            singles = tuple(i for i in range(n) if i not in doubles)
            add(4, doubles, singles)
        for doubles in itertools.combinations(range(n), 6):
            singles = tuple(i for i in range(n) if i not in doubles)
            add(5, doubles, singles)
        for triple in range(n):
            doubles = tuple(i for i in range(n) if i != triple)
            add(6, doubles, (), triple)
    return tuple(sorted(out))


def _type_discriminant(t: DynkinType) -> int:
    """Determinant of the positive definite form of the type's root lattice."""
    if t.family == "A":
        return t.rank + 1
    if t.family == "D":
        return 4
    return {6: 3, 7: 2, 8: 1}[t.rank]

def _placement_order(t: DynkinType) -> tuple[int, ...]:
    """Node order for the search: central nodes first so each later node is
    constrained by at least one already-placed neighbor."""
    k = t.rank
    if t.family == "A":
        return tuple(range(1, k + 1))
    if t.family == "D" and k == 4:
        return (1, 2, 3, 4)
    if t.family == "D":
        return (3, 1, 2) + tuple(range(4, k + 1))
    return (4, 1, 3, 2) + tuple(range(5, k + 1))


@dataclass(frozen=True)
class Embedding:
    """Coordinates for each generator label."""

    degree: int
    coordinates: dict[str, Vector]

    def vector(self, label: str) -> Vector:
        return self.coordinates[label]

    def pair(self, label_a: str, label_b: str) -> int:
        return pairing(self.coordinates[label_a], self.coordinates[label_b])


def oracle_embed(
    spec: SurfaceSpec,
    with_minus_one_curve: bool = False,
) -> Embedding:
    """Find explicit coordinates for K, every exceptional curve of the spec,
    and optionally one (-1)-curve disjoint from all of them.

    Labels match the ones a :class:`~dpcylinders.divisors.PairingTable` gives
    the spec's singularities, in spec order: the curves of singularity
    number s (1-based) are ``D1``..``Dk`` for s = 1 and carry the suffix
    ``_s`` afterwards; the (-1)-curve is ``E``.
    """
    n = 9 - spec.degree
    k_vec = canonical_vector(n)
    roots = root_vectors(n)

    # Fast impossibility proof for full-rank configurations: a finite-index
    # sublattice multiplies the ambient discriminant (here the degree) by a
    # perfect square, so the product of the type discriminants must be the
    # degree times a square.  Catching this here turns a hopeless exhaustive
    # search into an immediate, provable refusal.
    total_rank = sum(t.rank for t in spec.singularities)
    if total_rank == n and spec.singularities:
        product = math.prod(_type_discriminant(t) for t in spec.singularities)
        quotient, remainder = divmod(product, spec.degree)
        if remainder != 0 or math.isqrt(quotient) ** 2 != quotient:
            raise OracleUnavailable(
                f"no embedding exists for {spec}: a full-rank sublattice needs "
                f"discriminant {spec.degree} times a perfect square, "
                f"got {product}"
            )

    # One flat list of (label, type-local node, required pairings) jobs.
    # Larger singularities go first: they are the most constrained and
    # pruning earlier keeps the walk short.
    jobs: list[tuple[str, tuple[tuple[str, int], ...]]] = []
    placed_labels_by_sing: list[list[str]] = []
    order_of_sings = sorted(
        range(len(spec.singularities)),
        key=lambda i: (-spec.singularities[i].rank, i),
    )
    suffix = {i: "" if i == 0 else f"_{i + 1}" for i in range(len(spec.singularities))}
    for si in order_of_sings:
        t = spec.singularities[si]
        g = gram_table(t)
        local_done: list[int] = []
        for node in _placement_order(t):
            label = f"D{node}{suffix[si]}"
            wanted = [(f"D{other}{suffix[si]}", g[node - 1][other - 1]) for other in local_done]
            # curves over other singular points are disjoint
            for group in placed_labels_by_sing:
                wanted.extend((lbl, 0) for lbl in group)
            jobs.append((label, tuple(wanted)))
            local_done.append(node)
        placed_labels_by_sing.append([f"D{node}{suffix[si]}" for node in local_done])

    coords: dict[str, Vector] = {"K": k_vec}
    steps = 0

    def walk(job_index: int) -> bool:
        nonlocal steps
        if job_index == len(jobs):
            return True
        label, wanted = jobs[job_index]
        for candidate in roots:
            steps += 1
            if steps > STEP_LIMIT:
                raise OracleUnavailable(
                    f"embedding search for {spec} exceeded {STEP_LIMIT} steps"
                )
            if any(pairing(candidate, coords[lbl]) != want for lbl, want in wanted):
                continue
            if any(candidate == v for v in coords.values()):
                continue
            coords[label] = candidate
            if walk(job_index + 1):
                return True
            del coords[label]
        return False

    if not walk(0):
        raise OracleUnavailable(
            f"no root embedding exists for {spec} in rank {n} "
            "(the orthogonal complement of K is too small)"
        )

    if with_minus_one_curve:
        placed = [v for lbl, v in coords.items() if lbl != "K"]
        for candidate in minus_one_vectors(n):
            if all(pairing(candidate, v) == 0 for v in placed):
                coords["E"] = candidate
                break
        else:
            raise OracleUnavailable(
                f"no (-1)-class disjoint from the exceptional curves of {spec}"
            )

    return Embedding(spec.degree, dict(coords))
