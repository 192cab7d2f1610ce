"""Exact symmetric-polynomial arithmetic in elementary-symmetric coordinates.

Polynomials are sparse sums of monomials in generator symbols.  A coefficient
is an int if integral and a Fraction otherwise (``linalg._exact``, the rule
vectors and Gröbner bases follow too).  Three kinds of symbol occur:

    ("e", side, j, k)      e_k of the j-th block alphabet on the given side
                           (side 0 = X, side 1 = X', side 2 the middle
                           alphabet of a composite bimodule); degree q^{2k}.
                           These are the generators of every presented
                           ring, numbered by block within their side
    ("x", side, i)         the raw variable x_i / x'_i; degree q^2
    ("v", name, (a,q,t))   an auxiliary symbol with an explicit degree
                           (deformation parameters u_k, v-dot_k inside
                           change-of-variable formulas)

Everything downstream (presented rings, curved complexes, Hochschild
homology) manipulates these polynomials.  Raw expansion and evaluation read
side-0 blocks from the top composition and side-1 blocks from the bottom
one.  The partially symmetric families of the source constructions live
here: block decompositions of total elementary polynomials, the blockwise
differences xi_jk = e_k(X_j) - e_k(X'_j) (``block_differences``), the a_ijk
telescoping family and its thin recursion, the g_i polynomials of the
two-strand collapse, and the psi/rho change of deformation variables: one
triangular matrix R (``rho_matrix``) gives rho, and psi is its inverse.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from .grading import MultiDegree
from .linalg import _exact

# ---------------------------------------------------------------------------
# generator symbols

TOP = 0      # unprimed alphabets X
BOTTOM = 1   # primed alphabets X'
MIDDLE = 2   # the middle alphabet of a composite bimodule


@functools.cache
def e_gen(j: int, k: int, side: int = TOP) -> tuple:
    """e_k of block alphabet X_j (side 0) or X'_j (side 1).  Interned:
    polynomials share one tuple per generator."""
    if k < 1:
        raise ValueError("e_0 is the constant 1; use Poly.one()")
    return ("e", side, j, k)


def alphabet_gens(b: Composition, side: int) -> list[tuple]:
    """e_k(X_j) of every block j of b, 1 <= k <= its size, on the side."""
    return [e_gen(j, k, side)
            for j, size in enumerate(b.parts, start=1) for k in range(1, size + 1)]


def x_gen(i: int, side: int = TOP) -> tuple:
    return ("x", side, i)


def v_gen(name, degree: MultiDegree) -> tuple:
    return ("v", name, degree.as_tuple())


# ---------------------------------------------------------------------------
# sparse polynomials

Mono = tuple  # sorted tuple of (gen, exponent) pairs

_ONE_MONO: Mono = ()


def _mono_mul(m1: Mono, m2: Mono) -> Mono:
    """The product of two monomials, merging their sorted factors."""
    if not m1:
        return m2
    if not m2:
        return m1
    out = []
    i = j = 0
    n1, n2 = len(m1), len(m2)
    while i < n1 and j < n2:
        a, b = m1[i], m2[j]
        if a[0] == b[0]:
            out.append((a[0], a[1] + b[1]))
            i += 1
            j += 1
        elif a[0] < b[0]:
            out.append(a)
            i += 1
        else:
            out.append(b)
            j += 1
    return (*out, *m1[i:], *m2[j:])


def mono_degree(m: Mono) -> MultiDegree:
    """The multidegree of a monomial, by the rule of ``Poly.degree``."""
    return Poly._of({m: 1}).degree()


def _add_into(out: dict, terms) -> None:
    """Add the (monomial, coefficient) pairs into out, dropping zeros."""
    for m, c in terms:
        s = out.get(m)
        if s is None:
            out[m] = c
        else:
            s += c
            if s:
                out[m] = s
            else:
                del out[m]


class Poly:
    """Sparse polynomial in generator symbols, coefficients by ``linalg._exact``.
    Only constructors write ``terms``: a Poly never changes once made."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Mono, Fraction] | None = None):
        self.terms: dict[Mono, Fraction] = {}
        if terms:
            for m, c in terms.items():
                c = _exact(c)
                if c:
                    self.terms[m] = c

    @staticmethod
    def _of(terms: dict) -> "Poly":
        """The Poly on terms (all nonzero), integral Fractions made ints."""
        for m, c in terms.items():
            if c.__class__ is not int:
                terms[m] = _exact(c)
        p = object.__new__(Poly)
        p.terms = terms
        return p

    # -- constructors ------------------------------------------------------
    @staticmethod
    def zero() -> "Poly":
        return Poly()

    @staticmethod
    def one() -> "Poly":
        return Poly({_ONE_MONO: 1})

    @staticmethod
    def const(c) -> "Poly":
        return Poly({_ONE_MONO: c})

    @staticmethod
    def gen(g: tuple, exp: int = 1) -> "Poly":
        return Poly({((g, exp),): 1})

    # -- arithmetic ---------------------------------------------------------
    def __add__(self, other: "Poly") -> "Poly":
        out = dict(self.terms)
        _add_into(out, other.terms.items())
        return Poly._of(out)

    def __neg__(self) -> "Poly":
        return Poly._of({m: -c for m, c in self.terms.items()})

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other) -> "Poly":
        if not isinstance(other, Poly):
            c = _exact(other)
            return self if c == 1 else Poly({m: c * v for m, v in self.terms.items()})
        out: dict[Mono, Fraction] = {}
        right = other.terms.items()
        for m1, c1 in self.terms.items():
            for m2, c2 in right:
                m = _mono_mul(m1, m2)
                s = out.get(m)
                if s is None:
                    out[m] = c1 * c2
                else:
                    s += c1 * c2
                    if s:
                        out[m] = s
                    else:
                        del out[m]
        return Poly._of(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        if n == 0:
            return Poly.one()
        out, base = None, self
        while True:  # floor(log2 n) squarings, popcount(n) - 1 products
            if n & 1:
                out = base if out is None else out * base
            n >>= 1
            if not n:
                return out
            base = base * base

    def __eq__(self, other) -> bool:
        if not isinstance(other, Poly):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def is_zero(self) -> bool:
        return not self.terms

    # -- structure ----------------------------------------------------------
    def degree(self) -> MultiDegree:
        """The common multidegree of all terms; raises on inhomogeneity.
        An e_k has degree q^{2k}, an x q^2, and a v symbol the one it names."""
        degs = set()
        for m in self.terms:
            a = q = t = 0
            for g, e in m:
                kind = g[0]
                if kind == "e":
                    q += 2 * g[3] * e
                elif kind == "x":
                    q += 2 * e
                elif kind == "v":
                    a, q, t = a + g[2][0] * e, q + g[2][1] * e, t + g[2][2] * e
                else:
                    raise ValueError(f"unknown generator {g!r}")
            degs.add((a, q, t))
        if not degs:
            return MultiDegree(0, 0, 0)
        if len(degs) > 1:
            raise ValueError(f"inhomogeneous polynomial, degrees {sorted(degs)}")
        return MultiDegree(*degs.pop())

    def gens(self) -> set:
        out = set()
        for m in self.terms:
            for g, _ in m:
                out.add(g)
        return out

    def constant_value(self):
        """The value if the polynomial is a constant, else None."""
        if not self.terms:
            return 0
        if len(self.terms) == 1 and _ONE_MONO in self.terms:
            return self.terms[_ONE_MONO]
        return None

    def substitute(self, table: Mapping[tuple, "Poly"]) -> "Poly":
        """Replace each generator appearing in table by a polynomial."""
        powers: dict[tuple, list] = {}  # (generator, exponent) -> its power's terms
        out: dict[Mono, Fraction] = {}
        for m, c in self.terms.items():
            # the terms of the image of m's factors in table, repeats summed
            # only in out
            piece, kept = None, []
            for g, e in m:
                if g not in table:
                    kept.append((g, e))
                    continue
                power = powers.get((g, e))
                if power is None:
                    power = powers[(g, e)] = list((table[g] ** e).terms.items())
                piece = power if piece is None else [
                    (_mono_mul(pm, m2), pc * c2) for pm, pc in piece for m2, c2 in power]
            if piece is None:
                _add_into(out, ((m, c),))
                continue
            kept = tuple(kept)
            _add_into(out, ((_mono_mul(pm, kept), pc * c) for pm, pc in piece))
        return Poly._of(out)

    def evaluate(self, point: Mapping[tuple, Fraction]) -> Fraction:
        """Evaluate at a full assignment of generator values."""
        total = 0
        for m, c in self.terms.items():
            val = c
            for g, e in m:
                val *= point[g] ** e
            total += val
        return total

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda mc: repr(mc[0]))

    def to_json(self):
        return [
            {"monomial": [[list(g), e] for g, e in m], "coeff": str(c)}
            for m, c in self.sorted_terms()
        ]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if not self.terms:
            return "0"
        bits = []
        for m, c in self.sorted_terms():
            factors = "*".join(
                f"{g}^{e}" if e != 1 else f"{g}" for g, e in m
            )
            bits.append(f"{c}*{factors}" if factors else f"{c}")
        return " + ".join(bits)


# ---------------------------------------------------------------------------
# compositions

@dataclass(frozen=True)
class Composition:
    """An ordered sequence of positive integers summing to its total."""

    parts: tuple[int, ...]

    def __post_init__(self):
        if not all(isinstance(p, int) and p >= 1 for p in self.parts):
            raise ValueError(f"composition parts must be positive integers: {self.parts}")

    @staticmethod
    def of(*parts: int) -> "Composition":
        return Composition(tuple(parts))

    @staticmethod
    def thin(n: int) -> "Composition":
        return Composition((1,) * n)

    @property
    def total(self) -> int:
        return sum(self.parts)

    def __len__(self) -> int:
        return len(self.parts)

    def __iter__(self):
        return iter(self.parts)

    def ell(self) -> int:
        """Length of the longest element of the parabolic subgroup."""
        return sum(p * (p - 1) // 2 for p in self.parts)

    def block_offsets(self) -> list[int]:
        out, acc = [], 0
        for p in self.parts:
            out.append(acc)
            acc += p
        return out


def compositions(n: int):
    """Every composition of n, as tuples of parts, in lexicographic order."""
    if n == 0:
        yield ()
        return
    for first in range(1, n + 1):
        for rest in compositions(n - first):
            yield (first,) + rest


# ---------------------------------------------------------------------------
# elementary polynomials, block decompositions, raw expansion

def esp(gens: list[tuple], k: int) -> Poly:
    """Elementary symmetric polynomial e_k of the given raw generators."""
    if k < 0 or k > len(gens):
        return Poly.zero()
    if k == 0:
        return Poly.one()
    return Poly._of({tuple([(g, 1) for g in sorted(combo)]): 1
                     for combo in itertools.combinations(gens, k)})


def _weak_compositions(total: int, caps: tuple[int, ...]):
    """All (k_1..k_m) with 0 <= k_j <= caps[j] and sum = total, in
    lexicographic order."""
    m = len(caps)
    room = [0] * (m + 1)  # room[j] = caps[j] + ... + caps[m-1]
    for j in range(m - 1, -1, -1):
        room[j] = room[j + 1] + caps[j]
    if not 0 <= total <= room[0]:
        return
    ks, left = [0] * m, total
    start = 0
    while True:
        for j in range(start, m):  # the least fill of positions start..m-1
            ks[j] = max(0, left - room[j + 1])
            left -= ks[j]
        yield tuple(ks)
        # the last position that can take one unit from those after it
        for start in range(m - 1, -1, -1):
            if left and ks[start] < caps[start]:
                break
            left += ks[start]
        else:
            return
        ks[start] += 1
        left -= 1
        start += 1


def elementary_of_total(i: int, b: Composition, side: int = TOP) -> Poly:
    """e_i of the full alphabet in block coordinates:
    sum over k_1+..+k_m = i of prod_j e_{k_j}(X_j)."""
    if i < 0 or i > b.total:
        raise ValueError(f"e_{i} of an alphabet of size {b.total} is out of range")
    return Poly._of({
        tuple([(e_gen(j, k, side), 1) for j, k in enumerate(ks, start=1) if k]): 1
        for ks in _weak_compositions(i, b.parts)
    })


def block_differences(b: Composition) -> list[tuple[int, int, Poly]]:
    """(j, k, e_k(X_j) - e_k(X'_j)) for every block generator of b, in the
    order of alphabet_gens: the Koszul legs of a frayed projector, the
    relations of the identity bimodule and the Hochschild operators."""
    return [(g[2], g[3], Poly.gen(g) - Poly.gen(h))
            for g, h in zip(alphabet_gens(b, TOP), alphabet_gens(b, BOTTOM))]


def block_x_gens(b: Composition, j: int, side: int = TOP) -> list[tuple]:
    """Raw variables of block j (1-based) under the global numbering."""
    off = b.block_offsets()[j - 1]
    return [x_gen(off + i + 1, side) for i in range(b.parts[j - 1])]


def expand_to_x(p: Poly, b: Composition, bottom: Composition | None = None) -> Poly:
    """Substitute every e_k(X_j) by its raw-variable expansion; side-1
    blocks are those of bottom (default b)."""
    sides = (b, b if bottom is None else bottom)
    table: dict[tuple, Poly] = {}
    for g in p.gens():
        if g[0] == "e":
            _, side, j, k = g
            table[g] = esp(block_x_gens(sides[side], j, side), k)
    return p.substitute(table)


# ---------------------------------------------------------------------------
# Newton conversion between e- and p-bases

def p_gen(k: int) -> tuple:
    return v_gen(("p", k), MultiDegree(0, 2 * k, 0))


def p_in_e(k: int, size: int, j: int = 1, side: int = TOP) -> Poly:
    """Power sum p_k written in the e_i(X_j) of an alphabet of given size."""
    if k < 1 or k > size * 10 ** 6:
        raise ValueError("power sum index out of range")
    ps: list[Poly] = [Poly.const(size)]  # p_0 = size, used only internally
    for m in range(1, k + 1):
        # Newton: p_m = sum_{i=1}^{m-1} (-1)^{i-1} e_i p_{m-i} + (-1)^{m-1} m e_m
        acc = Poly.zero()
        for i in range(1, m):
            acc = acc + Fraction((-1) ** (i - 1)) * (esp_sym(i, size, j, side) * ps[m - i])
        acc = acc + Fraction((-1) ** (m - 1) * m) * esp_sym(m, size, j, side)
        ps.append(acc)
    return ps[k]


def e_in_p(k: int) -> Poly:
    """e_k written as a rational polynomial in the symbols p_1..p_k."""
    if k < 0:
        raise ValueError("elementary index out of range")
    es: list[Poly] = [Poly.one()]
    for m in range(1, k + 1):
        # e_m = (1/m) sum_{i=1}^m (-1)^{i-1} p_i e_{m-i}
        acc = Poly.zero()
        for i in range(1, m + 1):
            acc = acc + Fraction((-1) ** (i - 1)) * (Poly.gen(p_gen(i)) * es[m - i])
        es.append(Fraction(1, m) * acc)
    return es[k]


def h_in_e(k: int, size: int, j: int = 1, side: int = TOP) -> Poly:
    """Complete homogeneous h_k in e-coordinates, H(t) = 1/E(-t)."""
    hs: list[Poly] = [Poly.one()]
    for m in range(1, k + 1):
        acc = Poly.zero()
        for i in range(1, m + 1):
            acc = acc + Fraction((-1) ** (i - 1)) * (esp_sym(i, size, j, side) * hs[m - i])
        hs.append(acc)
    return hs[k]


def e_difference(j: int, size: int) -> Poly:
    """e_j of the difference alphabet X - X' (block 1 of the given size on
    each side), via E(X-X',t) = E(X,t)/E(X',t) and H = 1/E(-t):

    e_j(X-X') = sum_{a+b=j} (-1)^b e_a(X) h_b(X').
    """
    if j < 0:
        raise ValueError("difference-alphabet index must be nonnegative")
    out = Poly.zero()
    for a in range(j + 1):
        b = j - a
        out = out + (-1) ** b * (esp_sym(a, size) * h_in_e(b, size, 1, BOTTOM))
    return out


def esp_sym(k: int, size: int, block: int = 1, side: int = TOP) -> Poly:
    """e_k(X_block) as a Poly (zero beyond the alphabet size)."""
    if k == 0:
        return Poly.one()
    if k < 0 or k > size:
        return Poly.zero()
    return Poly.gen(e_gen(block, k, side))


# ---------------------------------------------------------------------------
# the a_ijk family

def a_family(b: Composition) -> dict[tuple[int, int, int], Poly]:
    """A family a_ijk with
    sum_{j,k} a_ijk (e_k(X_j) - e_k(X'_j)) = e_i(X) - e_i(X')
    built by telescoping each block monomial of e_i(X):
    prod a_j - prod b_j = sum_j (a_j - b_j) prod_{l<j} b_l prod_{l>j} a_l.
    """
    N, m = b.total, len(b)
    fam: dict[tuple[int, int, int], Poly] = {
        (i, j, k): Poly.zero()
        for i in range(1, N + 1)
        for j in range(1, m + 1)
        for k in range(1, b.parts[j - 1] + 1)
    }
    for i in range(1, N + 1):
        for ks in _weak_compositions(i, b.parts):
            for j, k in enumerate(ks, start=1):
                if k == 0:
                    continue
                cof = Poly.one()
                for l, kl in enumerate(ks, start=1):
                    if kl == 0 or l == j:
                        continue
                    side = BOTTOM if l < j else TOP
                    cof = cof * Poly.gen(e_gen(l, kl, side))
                fam[(i, j, k)] = fam[(i, j, k)] + cof
    return fam


def a_thin_recursive(n: int) -> dict[tuple[int, int], Poly]:
    """The coherent thin family a_{ij1} for b = (1^n), built by the
    recursion a_{i,n+1,1} = e_{i-1}(X_n),
    a_{ij1} = x'_{n+1} a^{(n)}_{i-1,j,1} + a^{(n)}_{ij1}."""
    if n < 1:
        raise ValueError("thin family needs n >= 1")
    fam: dict[tuple[int, int], Poly] = {(1, 1): Poly.one()}
    for step in range(1, n):
        new: dict[tuple[int, int], Poly] = {}
        xs = [x_gen(i) for i in range(1, step + 1)]
        for i in range(1, step + 2):
            new[(i, step + 1)] = esp(xs, i - 1)
            for j in range(1, step + 1):
                prev = fam.get((i, j), Poly.zero())
                lower = fam.get((i - 1, j), Poly.zero())
                new[(i, j)] = Poly.gen(x_gen(step + 1, BOTTOM)) * lower + prev
        fam = new
    return fam


def thin_legs(fam: Mapping[tuple[int, int], Poly]) -> dict[tuple[int, int, int], Poly]:
    """A thin family a_ij in the x-variables, as a_ij1 in the coordinates
    of W_{(1^m)}: x_j (x'_j) is e_1 of block j on its side."""
    out = {}
    for (i, j), p in fam.items():
        table = {g: Poly.gen(e_gen(g[2], 1, g[1])) for g in p.gens() if g[0] == "x"}
        out[(i, j, 1)] = p.substitute(table)
    return out


def a_identity_defect(fam, b: Composition, i: int) -> Poly:
    """LHS - RHS of the defining identity for index i, in raw variables."""
    lhs = Poly.zero()
    for j, k, diff in block_differences(b):
        lhs = lhs + fam[(i, j, k)] * diff
    lhs = expand_to_x(lhs, b)
    all_top = [x_gen(i2) for i2 in range(1, b.total + 1)]
    all_bot = [x_gen(i2, BOTTOM) for i2 in range(1, b.total + 1)]
    rhs = esp(all_top, i) - esp(all_bot, i)
    return lhs - rhs


# ---------------------------------------------------------------------------
# the g_i polynomials of the (n,1) two-strand collapse

def g_polys(n: int) -> list[Poly]:
    """g_1..g_n, g_{n+1} in the Sym^{(n,1)} coordinates: block 1 is the
    n-alphabet X_n, block 2 the single variable x_{n+1}.

    g_i = sum_{j=1}^{i} (-x'_{n+1})^{j-1} e_{i-j}(X_n);
    g_{n+1} = e_n(X_n) - x'_{n+1} g_n.
    """
    if n < 1:
        raise ValueError("g polynomials need n >= 1")
    xp = Poly.gen(e_gen(2, 1, BOTTOM))  # x'_{n+1}
    out = []
    for i in range(1, n + 1):
        acc = Poly.zero()
        for j in range(1, i + 1):
            acc = acc + ((-1) ** (j - 1)) * (xp ** (j - 1)) * esp_sym(i - j, n, 1, TOP)
        out.append(acc)
    out.append(esp_sym(n, n, 1, TOP) - xp * out[-1])
    return out


# ---------------------------------------------------------------------------
# psi/rho deformation-parameter dictionary

def u_param(k: int) -> tuple:
    return v_gen(("u", k), MultiDegree(0, -2 * k, 2))


def vdot_param(k: int) -> tuple:
    return v_gen(("vd", k), MultiDegree(0, -2 * k, 2))


def rho_matrix(a: int) -> dict[tuple[int, int], Poly]:
    """R_ik for 1 <= i <= k <= a, on alphabets X, X' of size a:

        R_ik = sum_{j=i}^{k} (-1)^{i+k-j-1} (j/k) h_{j-i}(X) e_{k-j}(X-X').

    rho_i^a = sum_k R_ik vdot_k is the substitution u_i := rho_i^a carrying
    the elementary curvature sum_k (e_k(X)-e_k(X')) u_k exactly to the
    power-sum curvature sum_k (1/k)(p_k(X)-p_k(X')) vdot_k; column k
    expresses (1/k)(p_k - p_k') in the differences e_i(X)-e_i(X'), i <= k.
    R is upper triangular with diagonal R_kk = (-1)^{k-1}.
    """
    hs = [h_in_e(d, a) for d in range(a)]
    es = [e_difference(d, a) for d in range(a)]
    R: dict[tuple[int, int], Poly] = {}
    for i in range(1, a + 1):
        for k in range(i, a + 1):
            acc = Poly.zero()
            for j in range(i, k + 1):
                acc = acc + Fraction((-1) ** (i + k - j - 1) * j, k) * (hs[j - i] * es[k - j])
            R[(i, k)] = acc
    return R


def rho_substitution(R: dict[tuple[int, int], Poly], a: int) -> dict[tuple, Poly]:
    """u_i := rho_i^a = sum_k R_ik vdot_k, for i <= a."""
    out = {}
    for i in range(1, a + 1):
        acc = Poly.zero()
        for k in range(i, a + 1):
            acc = acc + R[(i, k)] * Poly.gen(vdot_param(k))
        out[u_param(i)] = acc
    return out


def psi_substitution(R: dict[tuple[int, int], Poly], a: int) -> dict[tuple, Poly]:
    """vdot_i := psi_i^a, the exact inverse of rho: the triangular inverse of
    R, by back-substitution vdot_i = R_ii (u_i - sum_{k>i} R_ik psi_k^a)
    (R_ii = +-1 is its own inverse), from i = a down.

    The closed form printed in the source for psi is not mutually inverse
    to rho (its diagonal is +1 while rho's is (-1)^{k-1}); the dictionary
    is therefore realized as the triangular inverse of R, which is what
    mutual inversion and curvature transport force.
    """
    psis: dict[tuple, Poly] = {}
    for i in range(a, 0, -1):
        acc = Poly.gen(u_param(i))
        for k in range(i + 1, a + 1):
            acc = acc - R[(i, k)] * psis[vdot_param(k)]
        psis[vdot_param(i)] = R[(i, i)].constant_value() * acc
    return psis


def psi_rho_roundtrip(a: int) -> list[Poly]:
    """The defects rho_i(psi) - u_i after substituting vdot_k := psi_k^a."""
    R = rho_matrix(a)
    psis = psi_substitution(R, a)
    return [rho.substitute(psis) - Poly.gen(u)
            for u, rho in rho_substitution(R, a).items()]


def rho_psi_roundtrip(a: int) -> list[Poly]:
    """The defects psi_i(rho) - vdot_i after substituting u_k := rho_k^a."""
    R = rho_matrix(a)
    rhos = rho_substitution(R, a)
    return [psi.substitute(rhos) - Poly.gen(vd)
            for vd, psi in psi_substitution(R, a).items()]


def curvature_transport_defect(a: int) -> Poly:
    """F_u^{(a)} with u_k := rho_k^a, minus sum_k (1/k)(p_k(X) - p_k(X')) vdot_k,
    expanded to raw variables (should vanish identically)."""
    f_u = Poly.zero()
    for k in range(1, a + 1):
        diff = esp_sym(k, a, 1, TOP) - esp_sym(k, a, 1, BOTTOM)
        f_u = f_u + diff * Poly.gen(u_param(k))
    transported = f_u.substitute(rho_substitution(rho_matrix(a), a))
    target = Poly.zero()
    for k in range(1, a + 1):
        diff = p_in_e(k, a, 1, TOP) - p_in_e(k, a, 1, BOTTOM)
        target = target + Fraction(1, k) * diff * Poly.gen(vdot_param(k))
    return expand_to_x(transported - target, Composition.of(a))


# ---------------------------------------------------------------------------
# vanishing-locus sampling

def vanishing_locus_sampler(
    b: Composition, count: int, seed: int, block_preserving: bool = False
) -> list[dict[tuple, Fraction]]:
    """Assignments of distinct rationals to raw variables with the primed
    values a random permutation of the unprimed ones.  Every total
    difference e_i(X) - e_i(X') vanishes at such a point; with
    block_preserving=True the permutation respects blocks, so blockwise
    differences e_k(X_j) - e_k(X'_j) vanish as well.  The values of a point
    are distinct integers (``rng.sample``) over one shared denominator,
    which lets ``eval_at_point`` work over the integers."""
    if count < 1:
        raise ValueError("need at least one sample")
    rng = random.Random(seed)
    N = b.total
    top = [x_gen(i, TOP) for i in range(1, N + 1)]
    bottom = [x_gen(i, BOTTOM) for i in range(1, N + 1)]
    points = []
    for _ in range(count):
        denom = rng.randint(1, 5)
        vals = [Fraction(v, denom) for v in rng.sample(range(-6 * N, 6 * N + 1), N)]
        primed = list(vals)
        if block_preserving:
            for off, size in zip(b.block_offsets(), b.parts):
                chunk = primed[off:off + size]
                rng.shuffle(chunk)
                primed[off:off + size] = chunk
        else:
            rng.shuffle(primed)
        point = {}
        for x, v, xp, vp in zip(top, vals, bottom, primed):
            point[x], point[xp] = v, vp
        points.append(point)
    return points


def eval_at_point(
    p: Poly, point: Mapping[tuple, Fraction], b: Composition, bottom: Composition | None = None
) -> Fraction:
    """Evaluate a Poly (possibly in block e-coordinates) at a raw point,
    exactly; side-1 blocks are those of bottom (default b).

    The work is done over the integers.  With D the common denominator of
    the point's values, a generator of raw degree w (w = 1 for a value the
    point gives, w = k for e_k(X_j)) takes D^w times its value, an integer.
    A term of raw degree w is scaled by D^(top - w), so the terms sum to
    D^top p(point)."""
    if not p.terms:
        return 0
    D = math.lcm(*(v.denominator for v in point.values()))

    def scaled(v):
        return v.numerator * (D // v.denominator)

    sides = (b, b if bottom is None else bottom)
    ints, weight, blocks = {}, {}, {}
    for g in p.gens():
        if g in point:
            ints[g], weight[g] = scaled(point[g]), 1
        elif g[0] == "e":
            _, side, j, k = g
            es = blocks.get((side, j))
            if es is None:
                es = blocks[(side, j)] = _esp_values(
                    [scaled(point[x]) for x in block_x_gens(sides[side], j, side)])
            ints[g], weight[g] = (es[k] if k < len(es) else 0), k
        elif g[0] == "x":
            raise KeyError(f"point does not cover raw variable {g}")
        else:
            raise KeyError(f"cannot evaluate symbol {g} at a locus point")
    terms = []
    for m, c in p.terms.items():
        w = 0
        for g, e in m:
            c *= ints[g] ** e
            w += weight[g] * e
        terms.append((w, c))
    top = max(w for w, _ in terms)
    total = sum(c * D ** (top - w) for w, c in terms)
    return total if D == 1 else Fraction(total, D ** top)


def _esp_values(vals: list) -> list:
    """[e_0, e_1, ..., e_n] of the n values; ints on int input."""
    out = [1] + [0] * len(vals)
    for n, v in enumerate(vals, start=1):
        for j in range(n, 0, -1):
            out[j] += v * out[j - 1]
    return out
