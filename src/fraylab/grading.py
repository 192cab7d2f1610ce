"""Tri-graded degrees (a, q, t), the sign form, and shift conventions.

Degrees live in Z_a x Z_q x Z_t.  The symmetric bilinear form

    <(a,q,t), (a',q',t')> = a*a' + t*t'   (mod 2)

drives every homological sign in the engine: graded commutators, the
tensor interchange law, and the sign a grading shift inflicts on a
differential.  The Hochschild exponent participates with coefficient 1;
the quantum exponent is sign-inert.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class MultiDegree:
    """An element of Z_a x Z_q x Z_t, written multiplicatively as a^i q^j t^k."""

    a: int = 0
    q: int = 0
    t: int = 0

    def __add__(self, other: "MultiDegree") -> "MultiDegree":
        return MultiDegree(self.a + other.a, self.q + other.q, self.t + other.t)

    def __sub__(self, other: "MultiDegree") -> "MultiDegree":
        return MultiDegree(self.a - other.a, self.q - other.q, self.t - other.t)

    def scaled(self, n: int) -> "MultiDegree":
        return MultiDegree(n * self.a, n * self.q, n * self.t)

    def as_tuple(self) -> tuple[int, int, int]:
        return (self.a, self.q, self.t)

    def to_json(self) -> list[int]:
        # degrees serialize as JSON triples [a, q, t]
        return [self.a, self.q, self.t]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"a^{self.a} q^{self.q} t^{self.t}"


def parity(d1: MultiDegree, d2: MultiDegree) -> int:
    """The sign form <d1, d2> = a1*a2 + t1*t2 mod 2."""
    return (d1.a * d2.a + d1.t * d2.t) % 2


def shift_parity(delta: MultiDegree) -> int:
    """(t + a)-parity of a shift; odd shifts negate a differential."""
    return (delta.t + delta.a) % 2


def shift_sign(delta: MultiDegree) -> int:
    return -1 if shift_parity(delta) else 1

