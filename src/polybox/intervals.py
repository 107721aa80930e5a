"""Boxes in F_q[T]: an interval is base + {Y : deg Y <= n}.

An interval holds q**(n+1) distinct polynomials.  Enumeration order is
lexicographic on the added coefficient vector (c_0, ..., c_n), low degree
first, with field elements in their canonical order; the order is part of
the public contract (golden files depend on it).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .poly import Poly, zero


@dataclass(frozen=True)
class Interval:
    """The set base + {Y : deg Y <= bound}."""

    base: Poly
    bound: int

    def __post_init__(self):
        if self.bound < 0:
            raise ValueError("interval bound must be >= 0")

    @property
    def field(self):
        return self.base.field

    @property
    def size(self) -> int:
        return self.field.q ** (self.bound + 1)

    def contains(self, X: Poly) -> bool:
        d = (X - self.base).degree
        return d <= self.bound

    def enumerate(self):
        """Yield all members in the documented order."""
        F = self.field
        base = self.base
        for tail in product(F.elements(), repeat=self.bound + 1):
            yield base + Poly(F, tail)

    def max_degree(self) -> int:
        """Upper bound for deg X over members (NEG_INF-free: >= 0 sets)."""
        d = self.base.degree
        return max(self.bound, d if d != float("-inf") else 0)

    def __iter__(self):
        return self.enumerate()


def zero_interval(field, bound: int) -> Interval:
    """Box centred at 0: all polynomials of degree <= bound."""
    return Interval(zero(field), bound)
