"""Formal Q-divisor classes over a named generator set with a partial Gram table.

The generator set is built up per surface: the canonical class K (K.K equals
the degree), the (-2)-curves of each singularity, optionally one (-1)-curve,
and residual classes introduced by relations of the shape

    m * (-K)  ~  configuration + residual.

Residuals are opaque: their pairings are derived from the relation, never
from coordinates.  Pairings that were never defined (e.g. between residuals
of two unrelated relations) raise rather than guess.  The expected
dimension F.(F - K)/2 of a complete linear system, which assumes vanishing
higher cohomology, is read off the same table (:func:`dim_complete`).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from .lattice import DynkinType, gram_table


class UndefinedPairing(ValueError):
    """Raised when two generators have no defined intersection number."""


_KIND_ORDER = {"canonical": 0, "exceptional": 1, "minus_one": 2, "residual": 3}


@dataclass(frozen=True)
class Generator:
    """A named generator class: K, an exceptional curve, a (-1)-curve, or a
    residual introduced by a relation."""

    kind: str
    label: str
    sing: int = 0  # singularity instance, exceptional curves only
    node: int = 0  # node index within the instance, exceptional curves only

    def __post_init__(self) -> None:
        if self.kind not in _KIND_ORDER:
            raise ValueError(f"unknown generator kind {self.kind!r}")

    @property
    def sort_key(self) -> tuple[int, int, int, str]:
        return (_KIND_ORDER[self.kind], self.sing, self.node, self.label)

    def __str__(self) -> str:
        return self.label


@dataclass(frozen=True)
class DivisorClass:
    """Finite rational combination of generators, stored sorted and reduced."""

    terms: tuple[tuple[Generator, Fraction], ...] = ()

    @classmethod
    def of(cls, coefficients: Mapping[Generator, Fraction | int | str]) -> "DivisorClass":
        terms = tuple(
            sorted(
                ((g, Fraction(c)) for g, c in coefficients.items() if Fraction(c) != 0),
                key=lambda item: item[0].sort_key,
            )
        )
        return cls(terms)

    def coefficient(self, g: Generator) -> Fraction:
        for gen, c in self.terms:
            if gen == g:
                return c
        return Fraction(0)

    @property
    def generators(self) -> tuple[Generator, ...]:
        return tuple(g for g, _ in self.terms)

    def __add__(self, other: "DivisorClass") -> "DivisorClass":
        merged = {g: c for g, c in self.terms}
        for g, c in other.terms:
            merged[g] = merged.get(g, Fraction(0)) + c
        return DivisorClass.of(merged)

    def __neg__(self) -> "DivisorClass":
        return DivisorClass(tuple((g, -c) for g, c in self.terms))

    def __sub__(self, other: "DivisorClass") -> "DivisorClass":
        return self + (-other)

    def __mul__(self, scalar: Fraction | int) -> "DivisorClass":
        s = Fraction(scalar)
        if s == 0:
            return DivisorClass()
        return DivisorClass(tuple((g, c * s) for g, c in self.terms))

    __rmul__ = __mul__

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        return " + ".join(
            f"{g}" if c == 1 else f"{c}*{g}" for g, c in self.terms
        )


@dataclass(frozen=True)
class Relation:
    """``multiple * (-K) ~ configuration + <residual_label>``."""

    multiple: int
    configuration: DivisorClass
    residual_label: str = "N"

    def __post_init__(self) -> None:
        if self.multiple < 1:
            raise ValueError("relation multiple must be a positive integer")


class GramTable:
    """Mutable registry of generators plus their symmetric integer pairings.

    Every pairing stored here is an integer; rational values only appear in
    :meth:`intersect` through rational coefficients of divisor classes.
    """

    def __init__(self, degree: int):
        if not 1 <= degree <= 9:
            raise ValueError(f"degree must be in [1, 9], got {degree}")
        self.degree = degree
        self._generators: list[Generator] = []
        self._pairs: dict[frozenset[str], int] = {}
        self._sing_count = 0
        k = Generator("canonical", "K")
        self._generators.append(k)
        self._pairs[frozenset(["K"])] = degree
        self._canonical = k

    @property
    def generators(self) -> tuple[Generator, ...]:
        return tuple(self._generators)

    def find(self, label: str) -> Generator:
        for g in self._generators:
            if g.label == label:
                return g
        raise KeyError(f"no generator labeled {label!r}")

    def _set(self, a: Generator, b: Generator, value: int) -> None:
        self._pairs[frozenset([a.label, b.label])] = value

    def canonical_class(self) -> DivisorClass:
        return DivisorClass.of({self._canonical: 1})

    def minus_k(self) -> DivisorClass:
        return DivisorClass.of({self._canonical: -1})

    def add_singularity(self, t: DynkinType, label_suffix: str = "") -> tuple[Generator, ...]:
        """Register the (-2)-curves of one singular point.

        Curves are labeled D1..Dk (plus an optional suffix to keep labels
        unique when a table carries several singular points).  They pair to 0
        with K, with every previously added exceptional curve, and with any
        (-1)-curve already present; among themselves they follow the Dynkin
        Gram matrix.
        """
        self._sing_count += 1
        instance = self._sing_count
        g = gram_table(t)
        curves = [
            Generator("exceptional", f"D{i}{label_suffix}", sing=instance, node=i)
            for i in range(1, t.rank + 1)
        ]
        for c in curves:
            if any(c.label == existing.label for existing in self._generators):
                raise ValueError(f"generator label {c.label!r} already in use")
        for i, c in enumerate(curves):
            for j in range(i + 1):
                self._set(c, curves[j], g[i][j])
            for existing in self._generators:
                if existing.kind == "residual":
                    continue  # stays undefined
                if existing.kind == "exceptional" and existing.sing == instance:
                    continue  # same point: the Gram matrix above is authoritative
                # K, curves of other points, and any (-1)-curve: disjoint
                self._set(c, existing, 0)
            self._generators.append(c)
        return tuple(curves)

    def add_minus_one_curve(self, label: str = "E") -> Generator:
        """Register a (-1)-curve: E.E = -1, K.E = -1, disjoint from all
        exceptional curves (an assumption, surfaced in certificates)."""
        e = Generator("minus_one", label)
        if any(label == g.label for g in self._generators):
            raise ValueError(f"generator label {label!r} already in use")
        self._set(e, e, -1)
        for existing in self._generators:
            if existing.kind == "canonical":
                self._set(e, existing, -1)
            elif existing.kind == "exceptional":
                self._set(e, existing, 0)
            elif existing.kind == "minus_one":
                raise ValueError("only one (-1)-curve per table is supported")
        self._generators.append(e)
        return e

    def pair(self, a: Generator, b: Generator) -> int:
        key = frozenset([a.label, b.label])
        if key not in self._pairs:
            raise UndefinedPairing(
                f"no defined pairing between {a.label} and {b.label}"
            )
        return self._pairs[key]

    def intersect(self, a: DivisorClass, b: DivisorClass) -> Fraction:
        """Bilinear expansion of the pairing over the stored table."""
        total = Fraction(0)
        for g1, c1 in a.terms:
            for g2, c2 in b.terms:
                total += c1 * c2 * self.pair(g1, g2)
        return total

    def solve_residual(self, relation: Relation) -> Generator:
        """Register the residual class of ``m*(-K) ~ configuration + R``.

        The residual's pairing with every existing generator X follows from
        the relation: R.X = m*(-K.X) - configuration.X, and R.R by pairing
        the defining combination with itself.  All results are integers for
        the integer configurations used here; a fractional value means the
        relation was malformed.
        """
        m = relation.multiple
        config = relation.configuration
        residual = Generator("residual", relation.residual_label)
        if any(residual.label == g.label for g in self._generators):
            raise ValueError(f"generator label {residual.label!r} already in use")
        as_class = m * self.minus_k() - config
        derived: dict[Generator, int] = {}
        for existing in self._generators:
            value = self.intersect(as_class, DivisorClass.of({existing: 1}))
            if value.denominator != 1:
                raise ValueError(
                    f"non-integral pairing {value} for {residual.label}.{existing.label}"
                )
            derived[existing] = int(value)
        self_pairing = self.intersect(as_class, as_class)
        if self_pairing.denominator != 1:
            raise ValueError(f"non-integral self-intersection {self_pairing}")
        for existing, value in derived.items():
            self._set(residual, existing, value)
        self._set(residual, residual, int(self_pairing))
        self._generators.append(residual)
        return residual


def dim_complete(table: GramTable, c: DivisorClass) -> int:
    """Expected dimension c.(c - K)/2 of the complete linear system of ``c``.

    Rejects classes where c.(c - K) comes out odd or fractional; every
    integral class on a smooth surface has even c.(c - K), so a violation
    means the input was not an honest integral class.
    """
    k = table.canonical_class()
    value = table.intersect(c, c - k)
    if value.denominator != 1 or value.numerator % 2 != 0:
        raise ValueError(
            f"c.(c - K) = {value} is not an even integer; "
            "not the class of an integral divisor"
        )
    return int(value) // 2
