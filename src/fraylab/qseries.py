"""Quantum integers and truncated Laurent series in a, q, t.

Series are exact: Laurent coefficients are Fractions, TriSeries
coefficients follow ``linalg._exact`` (an int when integral, else a
Fraction), windows are explicit, and equality is coefficientwise on the
window intersection.  Rational expressions (products of monomial numerator
factors over factors 1 - M) are expanded geometrically in a declared
direction; every denominator factor used here has positive weight in q or
in t, so truncation to a window needs finitely many terms.  The product
starts at the origin, so the working window of an expansion holds the
origin as well as the requested window, whatever that window's position.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from .linalg import _exact
from .symfun import Composition

# ---------------------------------------------------------------------------
# one-variable Laurent polynomials in q


class Laurent:
    """Laurent polynomial in q with Fraction coefficients."""

    __slots__ = ("c",)

    def __init__(self, coeffs: Mapping[int, Fraction] | None = None):
        self.c: dict[int, Fraction] = {}
        if coeffs:
            for k, v in coeffs.items():
                v = Fraction(v)
                if v:
                    self.c[k] = v

    @staticmethod
    def one() -> "Laurent":
        return Laurent({0: Fraction(1)})

    def __add__(self, other: "Laurent") -> "Laurent":
        out = dict(self.c)
        for k, v in other.c.items():
            s = out.get(k, Fraction(0)) + v
            if s:
                out[k] = s
            else:
                out.pop(k, None)
        return Laurent(out)

    def __neg__(self) -> "Laurent":
        return Laurent({k: -v for k, v in self.c.items()})

    def __sub__(self, other: "Laurent") -> "Laurent":
        return self + (-other)

    def __mul__(self, other: "Laurent") -> "Laurent":
        out: dict[int, Fraction] = {}
        for k1, v1 in self.c.items():
            for k2, v2 in other.c.items():
                k = k1 + k2
                s = out.get(k, Fraction(0)) + v1 * v2
                if s:
                    out[k] = s
                else:
                    out.pop(k, None)
        return Laurent(out)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Laurent):
            return NotImplemented
        return self.c == other.c

    def is_zero(self) -> bool:
        return not self.c

    def bar(self) -> "Laurent":
        """The bar involution q -> q^{-1}."""
        return Laurent({-k: v for k, v in self.c.items()})

    def top(self) -> int:
        return max(self.c) if self.c else 0

    def divide_exact(self, other: "Laurent") -> "Laurent":
        """Exact division; raises if a remainder survives."""
        if other.is_zero():
            raise ZeroDivisionError("division by zero Laurent polynomial")
        rem = Laurent(self.c)
        out: dict[int, Fraction] = {}
        dtop = other.top()
        dlead = other.c[dtop]
        while not rem.is_zero():
            rtop = rem.top()
            k = rtop - dtop
            coeff = rem.c[rtop] / dlead
            out[k] = out.get(k, Fraction(0)) + coeff
            rem = rem - Laurent({k: coeff}) * other
            if not rem.is_zero() and rem.top() >= rtop:
                raise ArithmeticError("non-terminating Laurent division")
        return Laurent({k: v for k, v in out.items() if v})

    def __repr__(self) -> str:  # pragma: no cover
        if not self.c:
            return "0"
        return " + ".join(f"{v}*q^{k}" for k, v in sorted(self.c.items()))


def quantum_int(j: int) -> Laurent:
    """[j] = q^{j-1} + q^{j-3} + ... + q^{1-j}; [-j] = -[j]; [0] = 0."""
    if j == 0:
        return Laurent()
    if j < 0:
        return -quantum_int(-j)
    return Laurent({j - 1 - 2 * i: Fraction(1) for i in range(j)})


def quantum_factorial(j: int) -> Laurent:
    if j < 0:
        raise ValueError("quantum factorial of a negative integer")
    out = Laurent.one()
    for i in range(1, j + 1):
        out = out * quantum_int(i)
    return out


def quantum_binomial(j: int, k: int) -> Laurent:
    """[j choose k] = [j]!/([k]![j-k]!), expanded exactly."""
    if not (0 <= k <= j):
        raise ValueError(f"binomial index out of range: ({j}, {k})")
    num = quantum_factorial(j)
    den = quantum_factorial(k) * quantum_factorial(j - k)
    return num.divide_exact(den)


def f_factor(n: int, lam: Composition) -> Laurent:
    """f_{n,lambda}(q) = [n]! / prod_j [lambda_j]!."""
    if lam.total != n:
        raise ValueError(f"{lam.parts} does not sum to {n}")
    den = Laurent.one()
    for p in lam:
        den = den * quantum_factorial(p)
    return quantum_factorial(n).divide_exact(den)


# ---------------------------------------------------------------------------
# truncated tri-graded series


@dataclass(frozen=True)
class Window:
    """Inclusive bounds for (a, q, t) exponents."""

    a: tuple[int, int]
    q: tuple[int, int]
    t: tuple[int, int]

    def contains(self, d: tuple[int, int, int]) -> bool:
        return (
            self.a[0] <= d[0] <= self.a[1]
            and self.q[0] <= d[1] <= self.q[1]
            and self.t[0] <= d[2] <= self.t[1]
        )

    def intersect(self, other: "Window") -> "Window":
        return Window(
            (max(self.a[0], other.a[0]), min(self.a[1], other.a[1])),
            (max(self.q[0], other.q[0]), min(self.q[1], other.q[1])),
            (max(self.t[0], other.t[0]), min(self.t[1], other.t[1])),
        )

    def to_json(self):
        return {"a": list(self.a), "q": list(self.q), "t": list(self.t)}


class TriSeries:
    """Exact truncated Laurent series in a, q, t on an explicit window.

    ``coeffs`` holds only the nonzero coefficients inside the window, each
    under the one rule of ``linalg._exact``: an int when integral, else a
    Fraction.  Every constructor goes through ``__init__``, which applies
    it; the unknot series are integral, so their arithmetic stays in ints."""

    __slots__ = ("window", "coeffs")

    def __init__(self, window: Window, coeffs: Mapping[tuple, Fraction] | None = None):
        self.window = window
        self.coeffs: dict[tuple[int, int, int], int | Fraction] = {}
        if coeffs:
            for d, c in coeffs.items():
                if c and window.contains(d):
                    self.coeffs[d] = _exact(c)

    @staticmethod
    def one(window: Window) -> "TriSeries":
        return TriSeries(window, {(0, 0, 0): 1})

    def __add__(self, other: "TriSeries") -> "TriSeries":
        out = dict(self.coeffs)
        for d, c in other.coeffs.items():
            out[d] = out.get(d, 0) + c
        return TriSeries(self.window, out)

    def __mul__(self, other) -> "TriSeries":
        if not isinstance(other, TriSeries):
            k = _exact(other)
            return TriSeries(self.window, {d: c * k for d, c in self.coeffs.items()})
        w = self.window
        (a0, a1), (q0, q1), (t0, t1) = w.a, w.q, w.t
        out: dict[tuple[int, int, int], int | Fraction] = {}
        for (a, q, t), c1 in self.coeffs.items():
            for (da, dq, dt), c2 in other.coeffs.items():
                if a0 <= a + da <= a1 and q0 <= q + dq <= q1 and t0 <= t + dt <= t1:
                    d = (a + da, q + dq, t + dt)
                    out[d] = out.get(d, 0) + c1 * c2
        return TriSeries(w, out)

    __rmul__ = __mul__

    def restrict(self, window: Window) -> "TriSeries":
        return TriSeries(window, self.coeffs)

    def equal_on(self, other: "TriSeries", window: Window | None = None) -> bool:
        return not self.mismatches(other, window)

    def mismatches(self, other: "TriSeries", window: Window | None = None):
        w = self.window.intersect(other.window)
        if window is not None:
            w = w.intersect(window)
        out = []
        for d in sorted(set(self.coeffs) | set(other.coeffs)):
            if not w.contains(d):
                continue
            got = self.coeffs.get(d, 0)
            exp = other.coeffs.get(d, 0)
            if got != exp:
                out.append({"degree": list(d), "got": str(got), "expected": str(exp)})
        return out

    def to_json(self):
        return {
            "window": self.window.to_json(),
            "terms": [
                {"a": d[0], "q": d[1], "t": d[2], "coeff": str(c)}
                for d, c in sorted(self.coeffs.items())
            ],
        }

    def __repr__(self) -> str:  # pragma: no cover
        terms = sorted(self.coeffs.items())
        return " + ".join(f"{c}*a^{d[0]}q^{d[1]}t^{d[2]}" for d, c in terms) or "0"


# ---------------------------------------------------------------------------
# rational expressions and their expansion


@dataclass
class RationalSeriesExpr:
    """prod(numerator factors) / prod(1 - monomial) with exact expansion.

    numerator: list of {degree-triple: coeff} finite Laurent polynomials.
    denominator: list of degree triples M, each standing for (1 - a^i q^j t^k),
    expanded as a geometric series in its own monomial.  Every monomial must
    have positive q-weight or positive t-weight so expansion terminates on a
    window, and no factor may carry a negative a-exponent.
    """

    numerator: list[dict[tuple[int, int, int], Fraction]]
    denominator: list[tuple[int, int, int]]

    def __mul__(self, other: "RationalSeriesExpr") -> "RationalSeriesExpr":
        return RationalSeriesExpr(
            self.numerator + other.numerator, self.denominator + other.denominator
        )

    def times_laurent(self, l: Laurent) -> "RationalSeriesExpr":
        return RationalSeriesExpr(
            self.numerator + [{(0, k, 0): v for k, v in l.c.items()}],
            list(self.denominator),
        )

    def expand(self, window: Window) -> TriSeries:
        # slack: how far outside the window intermediate products may reach
        neg_q = pos_q = neg_t = 0
        for f in self.numerator:
            if f:
                neg_q += max(0, -min(d[1] for d in f))
                pos_q += max(0, max(d[1] for d in f))
                neg_t += max(0, -min(d[2] for d in f))
        t_top = max(0, window.t[1]) + neg_t
        for m in self.denominator:
            if m[2] > 0:
                steps = t_top // m[2]
                if m[1] < 0:
                    neg_q += steps * (-m[1])
                else:
                    pos_q += steps * m[1]
            elif m[1] <= 0:
                raise ValueError(f"denominator factor 1 - a^{m[0]}q^{m[1]}t^{m[2]} "
                                 "has no valid expansion direction")
        # the product starts at the origin, so the working window holds it
        slack = neg_q + pos_q
        big = Window((min(0, window.a[0]), max(0, window.a[1])),
                     (min(0, window.q[0]) - slack, max(0, window.q[1]) + slack),
                     (min(0, window.t[0]) - neg_t, t_top))
        out = TriSeries.one(big)
        for m in self.denominator:
            out = out * _geometric(big, m)
        for f in self.numerator:
            out = out * TriSeries(big, f)
        return out.restrict(window)


def _geometric(window: Window, m: tuple[int, int, int]) -> TriSeries:
    """1/(1 - a^i q^j t^k) expanded in nonnegative powers of the monomial,
    up to the top of a window that holds the origin: in t when the monomial
    has positive t-weight, else in q (``expand`` admits no other)."""
    steps = window.t[1] // m[2] if m[2] > 0 else window.q[1] // m[1]
    return TriSeries(window, {(n * m[0], n * m[1], n * m[2]): 1 for n in range(steps + 1)})


# ---------------------------------------------------------------------------
# the colored-unknot tables


# variant: (deformed, times [k]!, extra numerator factor per j), the rows of
# unknot_table's docstring; a deformed row has one more denominator factor
# 1 - t^2 q^{-2j} per j.
UNKNOT_ROWS = {
    "intrinsic": (False, False, None),
    "finite": (False, True, {(0, 0, 0): 1, (0, -2, 1): 1}),
    "def_intrinsic": (True, False, None),
    "def_finite": (False, True, None),
    "infinite": (True, True, {(0, 0, 0): 1, (0, -2, 2): -1}),
    "def_infinite": (True, True, None),
}


def unknot_table(variant: str, k: int) -> RationalSeriesExpr:
    """Closed form of the table row for the column-colored unknot.

    intrinsic        prod_j (1 + a q^{-2j}) / (1 - q^{2j})
    finite           [k]! prod_j (1 + t q^{-2})(1 + a q^{-2j}) / (1 - q^{2j})
    infinite         [k]! prod_j (1 - t^2 q^{-2})(1 + a q^{-2j}) / ((1 - t^2 q^{-2j})(1 - q^{2j}))
    def_intrinsic    prod_j (1 + a q^{-2j}) / ((1 - t^2 q^{-2j})(1 - q^{2j}))
    def_finite       [k]! prod_j (1 + a q^{-2j}) / (1 - q^{2j})
    def_infinite     [k]! prod_j (1 + a q^{-2j}) / ((1 - t^2 q^{-2j})(1 - q^{2j}))

    The finite row departs from the printed one, whose t-factors read
    prod_j (1 + t q^{-2j}).  Those are the t-factors of the one-block
    projector on (k); the [k]! belongs to the frayed projector on (1^k),
    whose Koszul generators theta_j1 all have degree q^{-2} t, so the row
    carries one factor (1 + t q^{-2}) per theta.

    The infinite row is the def_infinite row times (1 - t^2 q^{-2})^k, one
    factor per relation theta_j -> sum_i a_ij u_i of degree q^{-2} t^2.  The
    printed row, ((1 - t^2 q^{-2})/(1 - q^2))^k prod_j (1 + a q^{-2j}) /
    (1 - t^2 q^{-2j}), takes 1/(1 - q^2)^k in place of the frayed
    [k]!/prod_j (1 - q^{2j}) = q^{-k(k-1)/2}/(1 - q^2)^k, so this row is
    q^{-k(k-1)/2} times the printed one.  DISCREPANCIES.md holds the
    evidence for both rows.
    """
    if k < 1:
        raise ValueError("color must be a positive integer")
    if variant not in UNKNOT_ROWS:
        raise ValueError(f"unknown table variant {variant!r}")
    deformed, factorial, extra = UNKNOT_ROWS[variant]
    num: list[dict] = []
    den: list[tuple[int, int, int]] = []
    for j in range(1, k + 1):
        num.append({(0, 0, 0): 1, (1, -2 * j, 0): 1})
        if extra:
            num.append(dict(extra))
        if deformed:
            den.append((0, -2 * j, 2))
        den.append((0, 2 * j, 0))
    expr = RationalSeriesExpr(num, den)
    return expr.times_laurent(quantum_factorial(k)) if factorial else expr
