"""Exact symmetric-polynomial arithmetic in elementary-symmetric coordinates.

Polynomials are sparse sums of monomials in generator symbols.  A coefficient
is an int if integral and a Fraction otherwise (``linalg._exact``, the rule
vectors and Gröbner bases follow too).  Three kinds of symbol occur:

    ("e", side, j, k)      e_k of the j-th block alphabet on the given side
                           (side 0 = X, side 1 = X'; higher sides label
                           middle alphabets in bimodule composites);
                           degree q^{2k}
    ("x", side, i)         the raw variable x_i / x'_i; degree q^2
    ("v", name, (a,q,t))   an auxiliary symbol with an explicit degree
                           (deformation parameters u_k, v-dot_k inside
                           change-of-variable formulas)

Everything downstream (presented rings, curved complexes, Hochschild
homology) manipulates these polynomials.  The partially symmetric families
of the source constructions live here: block decompositions of total
elementary polynomials, the a_ijk telescoping family and its thin
recursion, the g_i polynomials of the two-strand collapse, and the
psi/rho change of deformation variables.
"""

from __future__ import annotations

import itertools
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


def e_gen(j: int, k: int, side: int = TOP) -> tuple:
    """e_k of block alphabet X_j (side 0) or X'_j (side 1)."""
    if k < 1:
        raise ValueError("e_0 is the constant 1; use Poly.one()")
    return ("e", side, j, k)


def x_gen(i: int, side: int = TOP) -> tuple:
    return ("x", side, i)


def v_gen(name, degree: MultiDegree) -> tuple:
    return ("v", name, degree.as_tuple())


def gen_degree(gen: tuple) -> MultiDegree:
    kind = gen[0]
    if kind == "e":
        return MultiDegree(0, 2 * gen[3], 0)
    if kind == "x":
        return MultiDegree(0, 2, 0)
    if kind == "v":
        return MultiDegree(*gen[2])
    raise ValueError(f"unknown generator {gen!r}")


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
    out = MultiDegree(0, 0, 0)
    for g, e in m:
        out = out + gen_degree(g).scaled(e)
    return out


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
        out = Poly.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

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
        """The common multidegree of all terms; raises on inhomogeneity."""
        degs = {mono_degree(m).as_tuple() for m in self.terms}
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
        powers: dict[tuple, Poly] = {}  # (generator, exponent) -> its power
        out: dict[Mono, Fraction] = {}
        for m, c in self.terms.items():
            piece, kept = Poly.const(c), []
            for g, e in m:
                if g not in table:
                    kept.append((g, e))
                    continue
                if (g, e) not in powers:
                    powers[(g, e)] = table[g] ** e
                piece = piece * powers[(g, e)]
            kept = tuple(kept)
            _add_into(out, ((_mono_mul(pm, kept), pc) for pm, pc in piece.terms.items()))
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

    def __getitem__(self, i: int) -> int:
        return self.parts[i]

    def ell(self) -> int:
        """Length of the longest element of the parabolic subgroup."""
        return sum(p * (p - 1) // 2 for p in self.parts)

    def concat(self, other: "Composition") -> "Composition":
        return Composition(self.parts + other.parts)

    def refine(self, index: int, lam: "Composition") -> "Composition":
        if lam.total != self.parts[index]:
            raise ValueError("refinement must decompose the designated part")
        return Composition(self.parts[:index] + lam.parts + self.parts[index + 1:])

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
    out = Poly.zero()
    for combo in itertools.combinations(gens, k):
        m = tuple(sorted((g, 1) for g in combo))
        out = out + Poly({m: 1})
    return out


def _weak_compositions(total: int, caps: tuple[int, ...]):
    """All (k_1..k_m) with 0 <= k_j <= caps[j] and sum = total."""
    if not caps:
        if total == 0:
            yield ()
        return
    for k in range(min(caps[0], total) + 1):
        for rest in _weak_compositions(total - k, caps[1:]):
            yield (k,) + rest


def elementary_of_total(i: int, b: Composition, side: int = TOP) -> Poly:
    """e_i of the full alphabet in block coordinates:
    sum over k_1+..+k_m = i of prod_j e_{k_j}(X_j)."""
    if i < 0 or i > b.total:
        raise ValueError(f"e_{i} of an alphabet of size {b.total} is out of range")
    if i == 0:
        return Poly.one()
    out = Poly.zero()
    for ks in _weak_compositions(i, b.parts):
        p = Poly.one()
        for j, k in enumerate(ks):
            if k:
                p = p * Poly.gen(e_gen(j + 1, k, side))
        out = out + p
    return out


def block_x_gens(b: Composition, j: int, side: int = TOP) -> list[tuple]:
    """Raw variables of block j (1-based) under the global numbering."""
    off = b.block_offsets()[j - 1]
    return [x_gen(off + i + 1, side) for i in range(b.parts[j - 1])]


def expand_to_x(p: Poly, b: Composition) -> Poly:
    """Substitute every e_k(X_j) by its raw-variable expansion."""
    table: dict[tuple, Poly] = {}
    for g in p.gens():
        if g[0] == "e":
            _, side, j, k = g
            table[g] = esp(block_x_gens(b, j, side), k)
    return p.substitute(table)


# ---------------------------------------------------------------------------
# Newton conversion between e- and p-bases

def p_gen(k: int) -> tuple:
    return v_gen(("p", k), MultiDegree(0, 2 * k, 0))


def p_in_e(k: int, size: int, j: int = 1, side: int = TOP) -> Poly:
    """Power sum p_k written in the e_i(X_j) of an alphabet of given size."""
    if k < 1 or k > size * 10 ** 6:
        raise ValueError("power sum index out of range")

    def e(i: int) -> Poly:
        if i == 0:
            return Poly.one()
        if i > size:
            return Poly.zero()
        return Poly.gen(e_gen(j, i, side))

    ps: list[Poly] = [Poly.const(size)]  # p_0 = size, used only internally
    for m in range(1, k + 1):
        # Newton: p_m = sum_{i=1}^{m-1} (-1)^{i-1} e_i p_{m-i} + (-1)^{m-1} m e_m
        acc = Poly.zero()
        for i in range(1, m):
            acc = acc + Fraction((-1) ** (i - 1)) * (e(i) * ps[m - i])
        acc = acc + Fraction((-1) ** (m - 1) * m) * e(m)
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
    def e(i: int) -> Poly:
        if i == 0:
            return Poly.one()
        if i > size:
            return Poly.zero()
        return Poly.gen(e_gen(j, i, side))

    hs: list[Poly] = [Poly.one()]
    for m in range(1, k + 1):
        acc = Poly.zero()
        for i in range(1, m + 1):
            acc = acc + Fraction((-1) ** (i - 1)) * (e(i) * hs[m - i])
        hs.append(acc)
    return hs[k]


def difference_symmetric(kind: str, j: int, size: int, block: int = 1) -> Poly:
    """e_j or h_j of the difference alphabet X - X', via
    E(X-X',t) = E(X,t)/E(X',t) and H = 1/E(-t).

    h_j(X-X') = sum_{a+b=j} (-1)^b h_a(X) e_b(X');
    e_j(X-X') = sum_{a+b=j} (-1)^b e_a(X) h_b(X').
    """
    if j < 0:
        raise ValueError("difference-alphabet index must be nonnegative")
    out = Poly.zero()
    for a in range(j + 1):
        b = j - a
        if kind == "h":
            left = h_in_e(a, size, block, TOP)
            right = esp_sym(b, size, block, BOTTOM)
        elif kind == "e":
            left = esp_sym(a, size, block, TOP)
            right = h_in_e(b, size, block, BOTTOM)
        else:
            raise ValueError("kind must be 'e' or 'h'")
        out = out + Fraction((-1) ** b) * (left * right)
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


def a_identity_defect(fam, b: Composition, i: int, thin: bool = False) -> Poly:
    """LHS - RHS of the defining identity for index i, in raw variables."""
    m = len(b)
    lhs = Poly.zero()
    if thin:
        for j in range(1, m + 1):
            diff = Poly.gen(x_gen(j)) - Poly.gen(x_gen(j, BOTTOM))
            lhs = lhs + fam[(i, j)] * diff
    else:
        for j in range(1, m + 1):
            for k in range(1, b.parts[j - 1] + 1):
                diff = Poly.gen(e_gen(j, k)) - Poly.gen(e_gen(j, k, BOTTOM))
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


def rho_change(i: int, a: int) -> Poly:
    """rho_i^a = sum_j sum_{k=j}^a (-1)^{i+k-j-1} (j/k) h_{j-i}(X) e_{k-j}(X-X') vdot_k.

    This is the substitution u_i := rho_i^a(vdot) carrying the elementary
    curvature sum_k (e_k(X)-e_k(X')) u_k exactly to the power-sum curvature
    sum_k (1/k)(p_k(X)-p_k(X')) vdot_k; its column k expresses
    (1/k)(p_k - p_k') in the differences e_i(X)-e_i(X'), i <= k.
    """
    if not (1 <= i <= a):
        raise ValueError("rho index out of range")
    out = Poly.zero()
    for j in range(i, a + 1):  # h_{j-i} vanishes for j < i
        for k in range(j, a + 1):
            coeff = Fraction(j, k) * ((-1) ** ((i + k - j - 1) % 2))
            term = coeff * h_in_e(j - i, a) * difference_symmetric("e", k - j, a)
            out = out + term * Poly.gen(vdot_param(k))
    return out


def _rho_matrix(a: int) -> dict[tuple[int, int], Poly]:
    """R_{ik} = coefficient of vdot_k in rho_i^a (zero for k < i)."""
    R: dict[tuple[int, int], Poly] = {}
    for i in range(1, a + 1):
        rho = rho_change(i, a)
        for k in range(i, a + 1):
            coeff = Poly.zero()
            target = vdot_param(k)
            for m, c in rho.terms.items():
                md = dict(m)
                if md.get(target) == 1:
                    rest = tuple(sorted((g, e) for g, e in md.items() if g != target))
                    coeff = coeff + Poly({rest: c})
            if not coeff.is_zero():
                R[(i, k)] = coeff
    return R


def psi_change(i: int, a: int) -> Poly:
    """psi_i^a, the exact inverse substitution of rho: vdot_i = psi_i^a(u).

    The closed form printed in the source for psi is not mutually inverse
    to rho (its diagonal is +1 while rho's is (-1)^{k-1}); the dictionary
    is therefore realized as the triangular inverse of the rho matrix,
    which is what mutual inversion and curvature transport force.
    """
    if not (1 <= i <= a):
        raise ValueError("psi index out of range")
    return _psi_table(a)[i]


_PSI_CACHE: dict[int, dict[int, Poly]] = {}


def _psi_table(a: int) -> dict[int, Poly]:
    if a in _PSI_CACHE:
        return _PSI_CACHE[a]
    R = _rho_matrix(a)
    # back-substitute: u_i = sum_{k>=i} R_{ik} vdot_k with scalar diagonal
    # => vdot_i = (1/R_{ii}) (u_i - sum_{k>i} R_{ik} vdot_k)
    psis: dict[int, Poly] = {}
    for idx in range(a, 0, -1):
        diag = R[(idx, idx)].constant_value()
        if diag is None or diag == 0:
            raise ValueError("rho matrix lost its scalar diagonal")
        acc = Poly.gen(u_param(idx))
        for k in range(idx + 1, a + 1):
            coeff = R.get((idx, k))
            if coeff is not None:
                acc = acc - coeff * psis[k]
        psis[idx] = (Fraction(1) / diag) * acc
    _PSI_CACHE[a] = psis
    return psis


def psi_rho_roundtrip(a: int) -> list[Poly]:
    """The defects rho_i(psi) - u_i after substituting vdot_k := psi_k^a."""
    psis = {vdot_param(k): psi_change(k, a) for k in range(1, a + 1)}
    out = []
    for i in range(1, a + 1):
        composed = rho_change(i, a).substitute(psis)
        out.append(composed - Poly.gen(u_param(i)))
    return out


def rho_psi_roundtrip(a: int) -> list[Poly]:
    """The defects psi_i(rho) - vdot_i after substituting u_k := rho_k^a."""
    rhos = {u_param(k): rho_change(k, a) for k in range(1, a + 1)}
    out = []
    for i in range(1, a + 1):
        composed = psi_change(i, a).substitute(rhos)
        out.append(composed - Poly.gen(vdot_param(i)))
    return out


def curvature_transport_defect(a: int) -> Poly:
    """F_u^{(a)} with u_k := rho_k^a, minus sum_k (1/k)(p_k(X) - p_k(X')) vdot_k,
    expanded to raw variables (should vanish identically)."""
    f_u = Poly.zero()
    for k in range(1, a + 1):
        diff = esp_sym(k, a, 1, TOP) - esp_sym(k, a, 1, BOTTOM)
        f_u = f_u + diff * Poly.gen(u_param(k))
    rhos = {u_param(k): rho_change(k, a) for k in range(1, a + 1)}
    transported = f_u.substitute(rhos)
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
    differences e_k(X_j) - e_k(X'_j) vanish as well."""
    if count < 1:
        raise ValueError("need at least one sample")
    rng = random.Random(seed)
    N = b.total
    points = []
    for _ in range(count):
        denom = rng.randint(1, 5)
        pool = rng.sample(range(-6 * N, 6 * N + 1), N)
        vals = [Fraction(v, denom) for v in pool]  # common denominator keeps them distinct
        if block_preserving:
            primed = list(vals)
            for j, off in enumerate(b.block_offsets()):
                size = b.parts[j]
                chunk = primed[off:off + size]
                rng.shuffle(chunk)
                primed[off:off + size] = chunk
        else:
            primed = list(vals)
            rng.shuffle(primed)
        point = {}
        for i in range(N):
            point[x_gen(i + 1, TOP)] = vals[i]
            point[x_gen(i + 1, BOTTOM)] = primed[i]
        points.append(point)
    return points


def eval_at_point(p: Poly, point: Mapping[tuple, Fraction], b: Composition) -> Fraction:
    """Evaluate a Poly (possibly in block e-coordinates) at a raw point."""
    full = dict(point)
    cache: dict[tuple, Fraction] = {}
    for g in p.gens():
        if g in full:
            continue
        if g[0] == "e":
            _, side, j, k = g
            key = ("eval", side, j, k)
            if key not in cache:
                vals = [point[x] for x in block_x_gens(b, j, side)]
                cache[key] = _esp_value(vals, k)
            full[g] = cache[key]
        elif g[0] == "x":
            raise KeyError(f"point does not cover raw variable {g}")
        else:
            raise KeyError(f"cannot evaluate symbol {g} at a locus point")
    return p.evaluate(full)


def _esp_value(vals: list[Fraction], k: int) -> Fraction:
    if k == 0:
        return Fraction(1)
    if k > len(vals):
        return Fraction(0)
    partial = [Fraction(0)] * (k + 1)
    partial[0] = Fraction(1)
    for v in vals:
        for j in range(min(k, len(vals)), 0, -1):
            partial[j] += v * partial[j - 1]
    return partial[k]
