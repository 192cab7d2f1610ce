"""Curved complexes over presented rings.

A presented ring is a polynomial ring on graded generators modulo
homogeneous relations.  Its normal forms are division by a reduced Gröbner
basis of the relations, grown degree by degree as far as a computation
asks; the quotient in each q-degree has the standard monomials as basis.
They form an order ideal, so the basis builds each degree's list from the
lists below it and caches it.

A curved complex is stored in decomposed form: a list of rank-1 free
objects (each with a multidegree and a presented ring), a connection
written as a sum of (parameter monomial, matrix of ring elements) terms,
and a declared curvature.  A complex made from another -- shifted,
eliminated, re-parametrized -- is ``derived`` from it, keeping its
curvature, cap and opaque-tag rules; only ``cone`` merges two complexes'
settings.  An opaque tag maps between its objects' bimodules and shifts by
their qshifts.
Parameter monomials live in the Clifford-type algebra generated by even
multiplications, odd multiplications theta and contractions theta-dual,
subject to

    theta^2 = (theta-dual)^2 = 0,
    theta-dual theta + theta theta-dual = 1,
    distinct odd symbols anticommute, even symbols are central.

Composition of decomposed terms follows the middle interchange law

    (A (x) s) o (B (x) r) = (-1)^{<deg s, deg B>} (A B) (x) (s o r)

where <,> is the (a,t) sign form and the entrywise sign factors through
diagonal sign matrices because ring elements are pure q-degree.  All the
engine operations -- Maurer-Cartan checks, cones, Gaussian elimination with
SDR data, truncated homology -- are built on that one composition rule,
``CurvedComplex.compose_terms``.  It accumulates each product of
coefficients straight into its (parameter monomial, component, opaque tag,
ring monomial) slot and builds every entry once, at the end.  The square of
a one-object connection with plain entries -- every frayed projector --
sums first: its entries commute and its interchange sign is 1, so
``CurvedComplex.square`` multiplies each unordered pair of terms once, by
the supercommutator s r + r s of their parameter monomials.

Homology has one routine too, ``Unrolling``: the plain connection of a
complex over one ring, with vanishing curvature, is a differential on the
objects times the dual-free parameter monomials, graded by (level, q, t).
Truncated homology and Tor -- the Koszul complex is one object with an odd
parameter per operator -- run on it, and so does the t-direction of
Hochschild homology, on Tor's class spaces (``classes``) and the maps
induced between them (``induced``).  It alone bounds parameter powers,
and refuses a bound that would truncate the answer.

Every identity check -- Maurer-Cartan, closed chain maps, the SDR
identities, vanishing curvature -- asks one vanishing rule,
``nonvanishing``: an entry must reduce to zero modulo the relations and
vanish at 20 vanishing-locus sample points (seed 0).
"""

from __future__ import annotations

import heapq
import itertools
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable, Mapping, Optional, Sequence

from .grading import MultiDegree, parity, shift_sign
from .linalg import ClassTracker, _exact, _scaled, rank_of
from .qseries import TriSeries, Window
from .symfun import Mono, Poly, _mono_mul, eval_at_point

# ---------------------------------------------------------------------------
# presented rings with graded normal forms


@dataclass
class RingSpec:
    """A graded-commutative polynomial ring modulo homogeneous relations.

    generators: list of (symbol, even q-degree); relations: homogeneous
    Polys in those symbols.  qshift records the overall quantum shift of
    the bimodule this ring presents (never baked into generator degrees).
    sampler(count, seed) optionally returns exact points of the vanishing
    locus of the relations, used as a second route in equality checks:
    ``GradedRing.sampled_zero`` always asks for 20 points at seed 0.
    alphabets, the (top, bottom) compositions of a ring on symfun's e_k
    symbols, is the bimodule's one record of its sides: the blocks of its
    side-0 and side-1 generators at those points, and the alphabet
    Hochschild homology is taken over.
    """

    name: str
    generators: list[tuple[tuple, int]]
    relations: list[Poly] = field(default_factory=list)
    qshift: int = 0
    sampler: Optional[Callable[[int, int], list[dict]]] = None
    alphabets: tuple = (None, None)


class GroebnerBasis:
    """Reduced Gröbner basis of a weight-homogeneous ideal, grown degree by
    degree by homogeneous Buchberger with the product criterion.

    Monomials are exponent tuples over a fixed generator list with positive
    weights, and polynomials are dicts {monomial: coefficient}, with
    coefficients as ``linalg._exact`` makes them.  The order is
    weighted grevlex: weight first, then the monomial whose last differing
    exponent is smaller is the larger.  After ``extend(d)`` the basis is
    complete through weight d: there its leading monomials generate the
    leading ideal, so division gives the unique normal form.  ``standard(d)``
    lists the monomials of weight d outside that leading ideal, built from
    the lists of lower weights and cached, one list per weight.
    """

    def __init__(self, weights: Sequence[int], relations: Iterable[dict]):
        self.weights = tuple(weights)
        self.polys: list[dict] = []  # monic; no term of one is another's lead
        self.leads: list[tuple] = []
        self.done = -1  # complete through this weight
        # weight -> relations and S-pairs (i, j) still to reduce there
        self._todo: dict[int, list] = {}
        # monomial -> index of the first lead dividing it (or None); only
        # for weights <= done, where later elements cannot divide
        self._divisors: dict[tuple, Optional[int]] = {}
        self._standard: dict[int, list[tuple]] = {}  # weight -> standard()
        for rel in relations:
            weights_seen = {self.weight(m) for m in rel}
            if len(weights_seen) != 1:
                raise ValueError(f"relation of mixed weights {sorted(weights_seen)}")
            self._todo.setdefault(weights_seen.pop(), []).append(rel)

    def weight(self, m: tuple) -> int:
        return sum(w * e for w, e in zip(self.weights, m))

    def extend(self, top: int) -> None:
        """Make the basis complete through weight top."""
        for d in range(self.done + 1, top + 1):
            # a new element of weight d is reduced by every older lead, so
            # its S-pairs all lie above d
            while self._todo.get(d):
                item = self._todo[d].pop()
                h = self._divide(self._s_poly(*item) if isinstance(item, tuple) else item)
                if h:
                    self._insert(h)
            self._todo.pop(d, None)
            self.done = d

    def normal_form(self, f: dict) -> dict:
        """The remainder of f on division by the basis, made complete
        through the weight of every term of f first."""
        if f:
            self.extend(max(map(self.weight, f)))
        return self._divide(f)

    def standard(self, d: int) -> list[tuple]:
        """Monomials of weight d that no lead divides, largest first.  The
        basis is first extended through d, so they span the quotient there.
        They form an order ideal, so each one of positive weight is x_i * m
        with m standard of weight d - w_i and ending at or before i; x_i * m
        stays unless a lead ending at i divides it.  The list is cached."""
        if d < 0:
            return []
        if d not in self._standard:
            self.extend(d)
            zero = (0,) * len(self.weights)
            out = [] if d or zero in self.leads else [zero]
            for i, w in enumerate(self.weights):
                ends = [lead for lead in self.leads if lead[i] and not any(lead[i + 1:])]
                for m in self.standard(d - w):
                    if any(m[i + 1:]):  # sorted: the rest end after i too
                        break
                    m = m[:i] + (m[i] + 1,) + m[i + 1:]
                    if not any(all(map(operator.le, lead, m)) for lead in ends):
                        out.append(m)
            self._standard[d] = out
        return self._standard[d]

    def _divisor(self, m: tuple, w: int) -> Optional[int]:
        i = self._divisors.get(m, -1)
        if i != -1:
            return i
        i = next(
            (k for k, lead in enumerate(self.leads) if all(map(operator.le, lead, m))),
            None,
        )
        if w <= self.done:
            self._divisors[m] = i
        return i

    def _divide(self, f: dict) -> dict:
        f = dict(f)
        # largest term first: higher weight, then smaller reversed exponents
        heap = [(-self.weight(m), m[::-1]) for m in f]
        heapq.heapify(heap)
        out: dict = {}
        while heap:
            negw, rev = heapq.heappop(heap)
            m = rev[::-1]
            c = f.get(m)
            if c is None:  # cancelled, or a repeated heap entry
                continue
            i = self._divisor(m, -negw)
            if i is None:
                out[m] = f.pop(m)
                continue
            q = tuple(map(operator.sub, m, self.leads[i]))
            for mm in _subtract(f, self.polys[i], c, q):
                heapq.heappush(heap, (negw, mm[::-1]))
        return out

    def _s_poly(self, i: int, j: int) -> dict:
        li, lj = self.leads[i], self.leads[j]
        lcm = tuple(map(max, li, lj))
        f = _shift(self.polys[i], tuple(map(operator.sub, lcm, li)))
        _subtract(f, self.polys[j], 1, tuple(map(operator.sub, lcm, lj)))
        return f

    def _insert(self, h: dict) -> None:
        lead = min(h, key=lambda m: m[::-1])
        h = _scaled(h, lead)
        zero = (0,) * len(lead)
        for g in self.polys:  # only elements of the same weight can hold lead
            c = g.get(lead)
            if c:
                _subtract(g, h, c, zero)
        new = len(self.polys)
        for i, other in enumerate(self.leads):
            # the S-pair of coprime leads reduces to zero (product criterion)
            if any(map(min, other, lead)):
                lcm = tuple(map(max, other, lead))
                self._todo.setdefault(self.weight(lcm), []).append((i, new))
        self.polys.append(h)
        self.leads.append(lead)


def _shift(f: dict, q: tuple) -> dict:
    """x^q * f."""
    return {tuple(map(operator.add, m, q)): c for m, c in f.items()}


def _subtract(f: dict, g: dict, c, q: tuple) -> list[tuple]:
    """f -= c * x^q * g in place; returns the monomials new to f."""
    new = []
    for m, x in g.items():
        mm = tuple(map(operator.add, m, q))
        s = f.get(mm)
        if s is None:
            f[mm] = _exact(-c * x)
            new.append(mm)
        else:
            s -= c * x
            if s:
                f[mm] = _exact(s)
            else:
                del f[mm]
    return new


class GradedRing:
    """Normal forms and graded linear algebra for a RingSpec.

    Relations whose leading generator occurs linearly and nowhere else in
    the same relation are folded into a substitution.  The rest generate an
    ideal whose reduced Gröbner basis, in weighted grevlex on the sorted
    generator list, is built on first use and extended degree by degree up
    to the highest q-degree asked for.  Normal forms are division by it, the
    quotient basis of each degree is its (cached) list of standard
    monomials, and mult_matrix writes coordinates in that basis.
    """

    def __init__(self, spec: RingSpec):
        self.spec = spec
        self._subst: dict[tuple, Poly] = {}
        gens = dict(spec.generators)
        todo = spec.relations
        changed = True
        while changed:
            changed = False
            rest: list[Poly] = []
            for rel in todo:
                rel = self._apply_subst(rel)
                if rel.is_zero():
                    continue
                target = self._solvable_gen(rel)
                if target is None:
                    rest.append(rel)
                    continue
                g, coeff = target
                rhs = Fraction(-1, 1) / coeff * (rel - coeff * Poly.gen(g))
                self._subst[g] = rhs
                # re-apply to everything already recorded
                self._subst = {
                    h: p.substitute({g: rhs}) for h, p in self._subst.items()
                }
                gens.pop(g, None)
                changed = True
            todo = rest
        kept = [r for r in (self._apply_subst(r) for r in todo) if not r.is_zero()]
        self.generators: list[tuple[tuple, int]] = sorted(
            gens.items(), key=lambda gv: repr(gv[0])
        )
        self.relations = kept
        self.qshift = spec.qshift
        self._gb: Optional[GroebnerBasis] = None  # built on first use
        self._free: Optional[GroebnerBasis] = None  # no relations, for basis()
        self._index = {g: i for i, (g, _) in enumerate(self.generators)}
        self._mult_cache: dict = {}

    # -- presentation preprocessing -----------------------------------------
    @staticmethod
    def _solvable_gen(rel: Poly):
        for m, c in rel.terms.items():
            if len(m) == 1 and m[0][1] == 1:
                g = m[0][0]
                if all(
                    mm == m or all(gg != g for gg, _ in mm) for mm in rel.terms
                ):
                    return g, c
        return None

    def _apply_subst(self, p: Poly) -> Poly:
        if not self._subst:
            return p
        while True:
            hit = [g for g in p.gens() if g in self._subst]
            if not hit:
                return p
            p = p.substitute({g: self._subst[g] for g in hit})

    # -- monomial bases ------------------------------------------------------
    def basis(self, qdeg: int) -> list[Mono]:
        """All monomials of the given q-degree in the surviving generators."""
        if self._free is None:
            self._free = GroebnerBasis([d for _, d in self.generators], [])
        return sorted(map(self._mono, self._free.standard(qdeg)), key=repr)

    # -- Gröbner normal forms --------------------------------------------------
    def _groebner(self) -> GroebnerBasis:
        if self._gb is None:
            self._gb = GroebnerBasis(
                [d for _, d in self.generators], map(self._exps, self.relations)
            )
        return self._gb

    def _exps(self, p: Poly) -> dict:
        """p in the Gröbner engine's form, over exponent tuples."""
        out = {}
        for m, c in p.terms.items():
            exps = [0] * len(self.generators)
            for g, e in m:
                exps[self._index[g]] = e
            out[tuple(exps)] = c
        return out

    def _mono(self, exps: tuple) -> Mono:
        return tuple(sorted((self.generators[i][0], e) for i, e in enumerate(exps) if e))

    def dim(self, qdeg: int) -> int:
        return len(self._groebner().standard(qdeg))

    def normal_form(self, p: Poly) -> Poly:
        """Canonical representative of p modulo the relation ideal."""
        p = self._apply_subst(p)
        if p.is_zero():
            return p
        red = self._groebner().normal_form(self._exps(p))
        return Poly({self._mono(m): c for m, c in red.items()})

    def reduces_to_zero(self, p: Poly) -> bool:
        return self.normal_form(p).is_zero()

    def sampled_zero(self, p: Poly) -> bool:
        """Exact evaluation at the ring's 20 vanishing-locus samples (seed
        0).  p is evaluated as it stands, not expanded into raw variables:
        each e_k(X_j) takes its value from the point's raw coordinates.
        Without a sampler the ring must have no relations left, and then the
        normal form decides exactly."""
        if self.spec.sampler is None:
            if self.relations:
                raise ValueError(
                    f"ring {self.spec.name} has relations but no sampler for a second check"
                )
            return self.reduces_to_zero(p)
        p = self._apply_subst(p)
        return all(
            eval_at_point(p, pt, *self.spec.alphabets) == 0
            for pt in self.spec.sampler(20, 0)
        )

    def mult_matrix(self, p: Poly, qdeg: int) -> list[tuple]:
        """Matrix of multiplication by p: quotient(qdeg) -> quotient(qdeg + deg p),
        in the standard-monomial bases, as one packed column (row, value,
        row, value, ...) per source basis vector; memoized."""
        p = self._apply_subst(p)
        if p.is_zero():
            return [()] * self.dim(qdeg)
        key = (frozenset(p.terms.items()), qdeg)
        if key in self._mult_cache:
            return self._mult_cache[key]
        gb, f = self._groebner(), self._exps(p)
        tgt = {m: i for i, m in enumerate(gb.standard(qdeg + p.degree().q))}
        out = []
        for m in gb.standard(qdeg):
            col = []
            for mm, c in gb.normal_form(_shift(f, m)).items():
                col += (tgt[mm], c)
            out.append(tuple(col))
        self._mult_cache[key] = out
        return out


# ---------------------------------------------------------------------------
# deformation parameters and Clifford monomials


@dataclass(frozen=True)
class ParamSpec:
    """Deformation alphabet: symbol -> (degree, parity).  Odd symbols carry
    a contraction dual with inverse degree."""

    params: tuple[tuple[str, MultiDegree, str], ...]  # (name, degree, "even"/"odd")

    @staticmethod
    def make(entries: Iterable[tuple[str, MultiDegree, str]]) -> "ParamSpec":
        return ParamSpec(tuple(entries))

    def degree(self, name: str) -> MultiDegree:
        for n, d, _ in self.params:
            if n == name:
                return d
        raise KeyError(name)

    def odd_names(self) -> list[str]:
        return [n for n, _, p in self.params if p == "odd"]

    def even_names(self) -> list[str]:
        return [n for n, _, p in self.params if p == "even"]

    def merge(self, other: "ParamSpec") -> "ParamSpec":
        seen = {n for n, _, _ in self.params}
        extra = tuple(e for e in other.params if e[0] not in seen)
        return ParamSpec(self.params + extra)


# normal-ordered Clifford monomial: even exponents, odd thetas, odd duals
@dataclass(frozen=True)
class PMono:
    evens: tuple[tuple[str, int], ...] = ()
    thetas: tuple[str, ...] = ()
    duals: tuple[str, ...] = ()

    def total_even_weight(self) -> int:
        return sum(e for _, e in self.evens)


PM_ONE = PMono()


def pm_degree(spec: ParamSpec, m: PMono) -> MultiDegree:
    out = MultiDegree(0, 0, 0)
    for n, e in m.evens:
        out = out + spec.degree(n).scaled(e)
    for n in m.thetas:
        out = out + spec.degree(n)
    for n in m.duals:
        out = out - spec.degree(n)
    return out


def _shuffle(a: tuple[str, ...], b: tuple[str, ...]) -> tuple[int, tuple[str, ...]]:
    """The sorted union of two sorted tuples of odd letters of one kind, and
    the sign of the shuffle that sorts the word a b: -1 per pair x in a, y in
    b with x > y.  Sign 0 if a letter is in both (its square is zero)."""
    if not a or not b:
        return 1, a or b
    if a[-1] < b[0]:
        return 1, a + b
    flips = 0
    for y in b:
        for x in a:
            if x == y:
                return 0, ()
            if x > y:
                flips += 1
    return -1 if flips & 1 else 1, tuple(sorted(a + b))


def pm_mul(spec: ParamSpec, s: PMono, r: PMono) -> list[tuple[int, PMono]]:
    """Normal-ordered product s o r (s composed after r, word s then r).

    Closed form on the word s.thetas s.duals r.thetas r.duals.  The evens
    add.  Moving r's thetas left past s's duals flips the sign once per
    crossing, (-1)^{|s.duals| |r.thetas|}, except where a name meets its own
    dual: each name n in s.duals & r.thetas is either kept (d_n t_n = -t_n d_n,
    a crossing like any other) or contracted (the 1 of d_n t_n = 1 - t_n d_n;
    both letters go).  Then s's thetas shuffle with the kept r thetas and the
    kept s duals with r's duals, each with the sign of its shuffle; a letter
    on both sides gives zero.  One term per kept subset of s.duals & r.thetas,
    in binary order with the first name most significant (all contracted
    first), which is the order a left-to-right rewrite of the word emits."""
    if s.evens and r.evens:
        evens = dict(s.evens)
        for n, e in r.evens:
            evens[n] = evens.get(n, 0) + e
        ev = tuple(sorted(evens.items()))
    else:
        ev = s.evens or r.evens
    sd, rt = s.duals, r.thetas
    meet = [n for n in sd if n in rt]
    out = []
    for kept in itertools.product((False, True), repeat=len(meet)):
        gone = [n for n, k in zip(meet, kept) if not k]
        if gone:
            # sd rt -> (d_n t_n for n in gone, by name) tk dk, then each d_n t_n -> 1
            dk = tuple(n for n in sd if n not in gone)
            tk = tuple(n for n in rt if n not in gone)
            flips = len(dk) * len(rt) + len(gone) * (len(gone) - 1) // 2
            flips += sum(m < n for n in gone for m in dk + tk)
        else:
            dk, tk, flips = sd, rt, len(sd) * len(rt)
        st, thetas = _shuffle(s.thetas, tk)
        if st:
            sg, duals = _shuffle(dk, r.duals)
            if sg:
                out.append((-st * sg if flips & 1 else st * sg, PMono(ev, thetas, duals)))
    return out


def pm_from(evens: Mapping[str, int] | None = None,
            thetas: Iterable[str] = (),
            duals: Iterable[str] = ()) -> PMono:
    ev = tuple(sorted((n, e) for n, e in (evens or {}).items() if e))
    return PMono(ev, tuple(sorted(thetas)), tuple(sorted(duals)))


# ---------------------------------------------------------------------------
# matrix entries with opaque symbols


class Entry:
    """A matrix entry: a plain ring element plus optional opaque summands
    (tagged bimodule-map symbols like 'unzip' scaled by ring elements)."""

    __slots__ = ("parts",)

    def __init__(self, parts: Mapping[Optional[str], Poly] | None = None):
        self.parts: dict[Optional[str], Poly] = {}
        if parts:
            for tag, p in parts.items():
                if not p.is_zero():
                    self.parts[tag] = p

    @staticmethod
    def plain(p: Poly) -> "Entry":
        return Entry({None: p})

    @staticmethod
    def opaque(tag: str, p: Poly | None = None) -> "Entry":
        return Entry({tag: p if p is not None else Poly.one()})

    def __add__(self, other: "Entry") -> "Entry":
        out = dict(self.parts)
        for tag, p in other.parts.items():
            s = out.get(tag, Poly.zero()) + p
            if s.is_zero():
                out.pop(tag, None)
            else:
                out[tag] = s
        return Entry(out)

    def __neg__(self) -> "Entry":
        return Entry({tag: -p for tag, p in self.parts.items()})

    def scale(self, c) -> "Entry":
        if c == 1:
            return self
        if not c:
            return Entry()
        return Entry({tag: c * p for tag, p in self.parts.items()})

    def times_poly(self, p: Poly) -> "Entry":
        return Entry({tag: p * q for tag, q in self.parts.items()})

    def is_zero(self) -> bool:
        return not self.parts

    def is_plain(self) -> bool:
        return set(self.parts) <= {None}

    def plain_part(self) -> Poly:
        return self.parts.get(None, Poly.zero())

    def to_json(self):
        return [
            {"tag": tag, "poly": p.to_json()}
            for tag, p in sorted(self.parts.items(), key=lambda kv: repr(kv[0]))
        ]

    def __repr__(self):  # pragma: no cover
        return " + ".join(
            (f"[{t}]" if t else "") + repr(p) for t, p in self.parts.items()
        ) or "0"


TermMatrix = dict  # {(row, col): Entry}
Terms = dict  # {PMono: TermMatrix}


# ---------------------------------------------------------------------------
# objects and curved complexes


@dataclass(frozen=True)
class RC_Object:
    degree: MultiDegree
    ring: GradedRing
    label: str = ""


class CheckReport:
    def __init__(self, ok: bool, details: str = ""):
        self.ok = ok
        self.details = details

    def __bool__(self):
        return self.ok

    def __repr__(self):  # pragma: no cover
        return f"CheckReport(ok={self.ok}, details={self.details!r})"


def nonvanishing(
    terms: Terms, targets: Sequence[RC_Object], sources: Sequence[RC_Object]
) -> Optional[tuple[PMono, int, int]]:
    """The first cell (monomial, i, j) of terms whose entry does not act as
    zero sources[j] -> targets[i], monomials taken by repr and cells in
    order; None if every entry vanishes.

    This is the one vanishing rule of every identity check.  A plain part
    must reduce to zero in the target ring and vanish at its 20
    vanishing-locus sample points (seed 0); an opaque-tagged part must do
    both in the target ring or in the source ring."""
    for mono in sorted(terms, key=repr):
        mat = terms[mono]
        for i, j in sorted(mat):
            for tag, p in mat[(i, j)].parts.items():
                rings = [targets[i].ring]
                if tag is not None:
                    rings.append(sources[j].ring)
                if not any(r.reduces_to_zero(p) and r.sampled_zero(p) for r in rings):
                    return mono, i, j
    return None


def _at(cell: tuple[PMono, int, int]) -> str:
    """A cell from ``nonvanishing``, as failure messages name it."""
    mono, i, j = cell
    return f"mono {mono} component ({i},{j})"


class CurvedComplex:
    """Curved complex in decomposed form; see module docstring."""

    def __init__(
        self,
        objects: Sequence[RC_Object],
        params: ParamSpec,
        terms: Terms | None = None,
        curvature: Mapping[PMono, Poly] | None = None,
        cap: Optional[int] = None,
        opaque_rules: Mapping[tuple, Optional[str]] | None = None,
    ):
        self.objects = list(objects)
        self.params = params
        self.terms: Terms = {}
        self.cap = cap
        self.opaque_rules = dict(opaque_rules or {})
        if terms:
            for mono, mat in terms.items():
                clean = {ij: e for ij, e in mat.items() if not e.is_zero()}
                if clean:
                    self.terms[mono] = clean
        self.curvature: dict[PMono, Poly] = {
            m: p for m, p in (curvature or {}).items() if not p.is_zero()
        }

    def derived(self, objects: Sequence[RC_Object] | None = None,
                params: ParamSpec | None = None, terms: Terms | None = None) -> "CurvedComplex":
        """A complex with self's curvature, cap and opaque rules, and self's
        objects, parameters or connection wherever none is given."""
        return CurvedComplex(self.objects if objects is None else objects,
                             self.params if params is None else params,
                             self.terms if terms is None else terms,
                             self.curvature, self.cap, self.opaque_rules)

    # -- bookkeeping ---------------------------------------------------------
    def entry_degree(self, i: int, j: int, entry: Entry) -> MultiDegree:
        """Internal degree of an entry O_j -> O_i (checks homogeneity).  An
        opaque tag maps representatives of O_j's presented bimodule to O_i's,
        so a tagged part also shifts by qshift(O_j) - qshift(O_i)."""
        shift = MultiDegree(0, self.objects[j].ring.qshift - self.objects[i].ring.qshift, 0)
        degs = set()
        for tag, p in entry.parts.items():
            d = p.degree()
            if tag is not None:
                d = d + shift
            degs.add(d.as_tuple())
        if len(degs) != 1:
            raise ValueError(f"inhomogeneous entry at ({i},{j})")
        return MultiDegree(*degs.pop())

    def check_homogeneous(self) -> None:
        t = MultiDegree(0, 0, 1)
        for mono, mat in self.terms.items():
            pdeg = pm_degree(self.params, mono)
            for (i, j), e in mat.items():
                total = (
                    self.objects[i].degree
                    - self.objects[j].degree
                    + pdeg
                    + self.entry_degree(i, j, e)
                )
                if total != t:
                    raise ValueError(
                        f"connection term at mono={mono}, ({i},{j}) has degree {total}, not t"
                    )

    def _eps(self, mono: PMono, objects: Sequence[RC_Object] | None = None) -> list[int]:
        """Diagonal interchange signs (-1)^{<deg mono, obj degree>} on
        objects, self's by default."""
        pdeg = pm_degree(self.params, mono)
        objects = self.objects if objects is None else objects
        return [(-1) ** parity(pdeg, o.degree) for o in objects]

    def _within_cap(self, mono: PMono) -> bool:
        return self.cap is None or mono.total_even_weight() <= self.cap

    # -- composition of term dictionaries ------------------------------------
    def compose_terms(
        self,
        t1: Terms,
        t2: Terms,
        middle: Sequence[RC_Object] | None = None,
        source: Sequence[RC_Object] | None = None,
    ) -> Terms:
        """(sum of t1) o (sum of t2) as decomposed terms.

        The interchange sign of (A (x) s) o (B (x) r) is (-1)^{<deg s, deg B>}
        with deg B = deg O_j - deg O_k on B's component O_k -> O_j, that is
        eps_s(O_j) eps_s(O_k).  t2's rows j name objects of `middle` and its
        columns k objects of `source`, both self's objects by default: a
        composite of maps between two complexes passes the objects its
        indices name.

        One pass: each product sign * msign * c1 * c2 (interchange sign,
        parameter sign, ring coefficients) is added straight into its
        {monomial: {(i, k, tag): {Mono: coeff}}} slot.  Each Poly and Entry
        is built once at the end, on its slot's dict, and a monomial's slots
        are released as its entries are built; zero coefficients, entries
        and monomials are dropped.  Opaque tags combine by opaque_rules, and
        a composed pair of tags with no rule raises ValueError.  pm_mul adds
        even exponents, so every product of s and r has even weight
        w(s) + w(r): a pair past the cap is skipped before pm_mul.  B's
        by-column index is built once per term of t2."""
        rules = self.opaque_rules
        indexed = []
        for r, B in t2.items():
            by_col: dict[int, list] = {}
            for (j, k), e in B.items():
                by_col.setdefault(j, []).append((k, e))
            indexed.append((r, r.total_even_weight(), by_col))
        acc: dict = {}
        for s, A in t1.items():
            eps_mid, eps_src = self._eps(s, middle), self._eps(s, source)
            room = None if self.cap is None else self.cap - s.total_even_weight()
            for r, weight, by_col in indexed:
                if room is not None and weight > room:
                    continue
                targets = [
                    (msign, acc.setdefault(mono, {}))
                    for msign, mono in pm_mul(self.params, s, r)
                ]
                if not targets:
                    continue
                # matrix product with diagonal interchange signs on B
                for (i, j), a in A.items():
                    for k, b in by_col.get(j, []):
                        sign = eps_mid[j] * eps_src[k]
                        for tag_a, p_a in a.parts.items():
                            for tag_b, p_b in b.parts.items():
                                if tag_a is None or tag_b is None:
                                    tag = tag_b if tag_a is None else tag_a
                                elif (tag_a, tag_b) in rules:
                                    tag = rules[(tag_a, tag_b)]
                                else:
                                    raise ValueError(
                                        f"no composition rule for opaque tags {tag_a!r} o {tag_b!r}"
                                    )
                                cells = [
                                    (sign * msign, mat.setdefault((i, k, tag), {}))
                                    for msign, mat in targets
                                ]
                                right = p_b.terms.items()
                                for m1, c1 in p_a.terms.items():
                                    for m2, c2 in right:
                                        m, c = _mono_mul(m1, m2), c1 * c2
                                        for sg, cell in cells:
                                            cell[m] = cell.get(m, 0) + sg * c
        out: Terms = {}
        for mono in list(acc):
            parts: dict = {}
            for (i, k, tag), cell in acc.pop(mono).items():
                if not all(cell.values()):
                    cell = {m: c for m, c in cell.items() if c}
                if cell:
                    parts.setdefault((i, k), {})[tag] = Poly._of(cell)
            if parts:
                out[mono] = {ik: Entry(p) for ik, p in parts.items()}
        return out

    @staticmethod
    def add_terms(t1: Terms, t2: Terms, c: int = 1) -> Terms:
        out: Terms = {m: dict(mat) for m, mat in t1.items()}
        for m, mat in t2.items():
            tgt = out.setdefault(m, {})
            for ij, e in mat.items():
                piece = e.scale(c)
                prev = tgt.get(ij)
                tgt[ij] = piece if prev is None else prev + piece
        return {
            m: {ij: e for ij, e in mat.items() if not e.is_zero()}
            for m, mat in out.items()
            if any(not e.is_zero() for e in mat.values())
        }

    def square(self) -> Terms:
        """The connection composed with itself: compose_terms(terms, terms).

        On one object with plain entries, the interchange sign is
        eps(O_0)^2 = 1 and ring entries commute, so the pair {s, r} adds
        p_s p_r (x) (s r + r s).  Each unordered pair (s = r: s s alone) sums
        the coefficients of pm_mul(s, r) and pm_mul(r, s) per monomial, and
        multiplies p_s p_r once, only if some coefficient is nonzero.  If
        neither order meets a dual with its own theta, r s = (-1)^{|s| |r|} s r
        (|.| the number of odd letters): two odd monomials cancel with no
        pm_mul, and any other pair is s r twice.  A pair past the cap is
        skipped: its products have even weight w(s) + w(r).  Every other
        complex -- several objects, whose matrix entries do not commute, or
        opaque tags, which compose by rules -- goes through compose_terms."""
        if len(self.objects) != 1 or not all(
            e.is_plain() for mat in self.terms.values() for e in mat.values()
        ):
            return self.compose_terms(self.terms, self.terms)
        items = [
            (s, mat[(0, 0)].plain_part(), s.total_even_weight(), (len(s.thetas) + len(s.duals)) % 2)
            for s, mat in self.terms.items()
        ]
        acc: dict[PMono, dict] = {}
        for a, (s, p_s, w_s, odd_s) in enumerate(items):
            for r, p_r, w_r, odd_r in items[a:]:
                if self.cap is not None and w_s + w_r > self.cap:
                    continue
                if r is s:
                    products = pm_mul(self.params, s, s)
                elif any(n in r.thetas for n in s.duals) or any(n in s.thetas for n in r.duals):
                    products = pm_mul(self.params, s, r) + pm_mul(self.params, r, s)
                elif odd_s and odd_r:
                    continue
                else:
                    products = [(2 * c, m) for c, m in pm_mul(self.params, s, r)]
                coeffs: dict[PMono, int] = {}
                for c, m in products:
                    coeffs[m] = coeffs.get(m, 0) + c
                coeffs = {m: c for m, c in coeffs.items() if c}
                if not coeffs:
                    continue
                prod = (p_s * p_r).terms.items()
                for m, c in coeffs.items():
                    cell = acc.setdefault(m, {})
                    for mono, v in prod:
                        cell[mono] = cell.get(mono, 0) + c * v
        out: Terms = {}
        for m, cell in acc.items():
            cell = {mono: v for mono, v in cell.items() if v}
            if cell:
                out[m] = {(0, 0): Entry({None: Poly._of(cell)})}
        return out

    def diagonal(self, polys: Mapping[PMono, Poly]) -> Terms:
        """p times the identity at each monomial, for {monomial: p}."""
        n = len(self.objects)
        return {m: {(i, i): Entry.plain(p) for i in range(n)} for m, p in polys.items()}

    # -- Maurer-Cartan --------------------------------------------------------
    def mc_check(self) -> CheckReport:
        """delta^2 = curvature, term by term in parameter monomials, by
        ``nonvanishing``: the first failing (monomial, i, j) is reported."""
        diff = self.add_terms(self.square(), self.diagonal(self.curvature), -1)
        bad = nonvanishing(diff, self.objects, self.objects)
        if bad is None:
            return CheckReport(True)
        mono, i, j = bad
        return CheckReport(
            False,
            f"Maurer-Cartan fails at parameter monomial {mono}, "
            f"component ({i},{j}): {diff[mono][(i, j)]!r}",
        )

    # -- basic constructions ---------------------------------------------------
    def shifted(self, delta: MultiDegree) -> "CurvedComplex":
        sign = shift_sign(delta)
        objects = [RC_Object(o.degree + delta, o.ring, o.label) for o in self.objects]
        terms = {m: {ij: e.scale(sign) for ij, e in mat.items()} for m, mat in self.terms.items()}
        return self.derived(objects, terms=terms)

    # -- serialization ----------------------------------------------------------
    def to_json(self):
        def mono_json(m: PMono):
            return {
                "evens": [list(x) for x in m.evens],
                "thetas": list(m.thetas),
                "duals": list(m.duals),
            }

        return {
            "objects": [
                {
                    "degree": o.degree.to_json(),
                    "ring": o.ring.spec.name,
                    "label": o.label,
                    "qshift": o.ring.qshift,
                }
                for o in self.objects
            ],
            "params": [
                {"name": n, "degree": d.to_json(), "parity": p}
                for n, d, p in self.params.params
            ],
            "connection": [
                {
                    "monomial": mono_json(m),
                    "entries": [
                        {"row": ij[0], "col": ij[1], "entry": e.to_json()}
                        for ij, e in sorted(mat.items())
                    ],
                }
                for m, mat in sorted(self.terms.items(), key=lambda kv: repr(kv[0]))
            ],
            "curvature": [
                {"monomial": mono_json(m), "poly": p.to_json()}
                for m, p in sorted(self.curvature.items(), key=lambda kv: repr(kv[0]))
            ],
        }


# ---------------------------------------------------------------------------
# chain maps and cones


@dataclass
class ChainMap:
    """Degree-0 map between curved complexes, in decomposed form."""

    source: CurvedComplex
    target: CurvedComplex
    terms: Terms

    def is_closed(self) -> CheckReport:
        """d_Y f - f d_X = 0 (degree-0 maps commute strictly)."""
        tgt, src = self.target, self.source
        left = tgt.compose_terms(tgt.terms, self.terms, tgt.objects, src.objects)
        right = tgt.compose_terms(self.terms, src.terms, src.objects, src.objects)
        bad = nonvanishing(CurvedComplex.add_terms(left, right, -1), tgt.objects, src.objects)
        if bad is None:
            return CheckReport(True)
        return CheckReport(False, f"d f - f d fails at {_at(bad)}")


def cone(f: ChainMap) -> CurvedComplex:
    """Cone(f) = tw_f(t^{-1} X (+) Y) for a closed degree-0 map f; a map
    that is not closed raises."""
    X, Y = f.source, f.target
    rep = f.is_closed()
    if not rep:
        raise ValueError(f"cone of a non-closed map: {rep.details}")
    shifted = X.shifted(MultiDegree(0, 0, -1))
    nx = len(shifted.objects)
    objects = list(shifted.objects) + list(Y.objects)
    terms: Terms = {}
    for m, mat in shifted.terms.items():
        terms.setdefault(m, {}).update({(i, j): e for (i, j), e in mat.items()})
    for m, mat in Y.terms.items():
        terms.setdefault(m, {}).update(
            {(i + nx, j + nx): e for (i, j), e in mat.items()}
        )
    for m, mat in f.terms.items():
        terms.setdefault(m, {}).update(
            {(i + nx, j): e for (i, j), e in mat.items()}
        )
    curv: dict[PMono, Poly] = dict(Y.curvature)
    return CurvedComplex(
        objects, Y.params.merge(X.params), terms, curv,
        Y.cap if Y.cap is not None else X.cap,
        {**X.opaque_rules, **Y.opaque_rules},
    )


# ---------------------------------------------------------------------------
# Gaussian elimination with SDR data


@dataclass
class SdrData:
    """Strong deformation retraction (f, g, h) from a big complex onto a
    smaller one: fg = id, [d, h] = id - gf, with side conditions
    h^2 = 0, f h = 0, h g = 0."""

    big: CurvedComplex
    small: CurvedComplex
    f: Terms  # big -> small
    g: Terms  # small -> big
    h: Terms  # big -> big, degree -t

    def verify(self) -> CheckReport:
        """The seven identities, each by ``nonvanishing``; the first failing
        one is reported with its cell."""
        big, small = self.big, self.small
        add = CurvedComplex.add_terms
        one = {PM_ONE: Poly.one()}
        B, S = big.objects, small.objects

        def comp(t1: Terms, t2: Terms, middle=B, source=B) -> Terms:
            # t2's rows index middle, its columns source
            return big.compose_terms(t1, t2, middle, source)

        def identities():
            # (name, terms that must vanish, their targets, their sources)
            yield "fg != id", add(comp(self.f, self.g, B, S), small.diagonal(one), -1), small, small
            # [d, h] = dh + hd (h has odd degree) = id - gf
            dh_hd = add(comp(big.terms, self.h), comp(self.h, big.terms))
            id_gf = add(big.diagonal(one), comp(self.g, self.f, S, B), -1)
            yield "[d,h] != id - gf", add(dh_hd, id_gf, -1), big, big
            yield "side condition h^2 fails", comp(self.h, self.h), big, big
            yield "side condition fh fails", comp(self.f, self.h), small, big
            yield "side condition hg fails", comp(self.h, self.g, B, S), big, small
            df = add(comp(small.terms, self.f, S, B), comp(self.f, big.terms), -1)
            yield "f not closed", df, small, big
            dg = add(comp(big.terms, self.g, B, S), comp(self.g, small.terms, S, S), -1)
            yield "g not closed", dg, big, small

        for name, terms, tgt, src in identities():
            bad = nonvanishing(terms, tgt.objects, src.objects)
            if bad is not None:
                return CheckReport(False, f"{name} at {_at(bad)}")
        return CheckReport(True)


def gaussian_eliminate(C: CurvedComplex, entry: tuple[int, int]) -> tuple[CurvedComplex, SdrData]:
    """Remove an invertible parameter-degree-0 component of the connection.

    entry = (row, col): the component phi: O_col -> O_row must be a nonzero
    scalar.  Returns the reduced complex on the complementary objects with
    corrected differential eps - gamma phi^{-1} kappa and the SDR realizing
    the removal, unverified (``SdrData.verify``).
    """
    r, c = entry
    if r == c:
        raise ValueError("cannot eliminate a diagonal component")
    mat0 = C.terms.get(PM_ONE, {})
    phi_entry = mat0.get((r, c))
    if phi_entry is None or not phi_entry.is_plain():
        raise ValueError("selected entry is not a plain parameter-degree-0 component")
    phi = C.objects[r].ring.normal_form(phi_entry.plain_part())
    scalar = phi.constant_value()
    if scalar is None or scalar == 0:
        raise ValueError(f"selected entry is not invertible: {phi!r}")
    inv = Fraction(1) / scalar

    keep = [i for i in range(len(C.objects)) if i not in (r, c)]
    reindex = {old: new for new, old in enumerate(keep)}

    # corrected differential on the complement
    new_terms: Terms = {}
    for mono, mat in C.terms.items():
        tgt = new_terms.setdefault(mono, {})
        for (i, j), e in mat.items():
            if i in (r, c) or j in (r, c):
                continue
            tgt[(reindex[i], reindex[j])] = e
    # gamma: components c -> y (out of the source of phi, excluding phi)
    # kappa: components x -> r (into the target of phi)
    gammas: Terms = {}
    kappas: Terms = {}
    for mono, mat in C.terms.items():
        for (i, j), e in mat.items():
            if j == c and i not in (r, c):
                gammas.setdefault(mono, {})[(i, c)] = e
            if i == r and j not in (r, c):
                kappas.setdefault(mono, {})[(c, j)] = e
    # - gamma phi^{-1} kappa, composed through the middle object c
    correction = {
        mono: {(reindex[i], reindex[j]): e for (i, j), e in mat.items()}
        for mono, mat in C.compose_terms(gammas, kappas).items()
    }
    new_terms = CurvedComplex.add_terms(new_terms, correction, -inv)

    reduced = C.derived([C.objects[i] for i in keep], terms=new_terms)

    # SDR data: f(x->x) = id, f(r->y) = -gamma phi^{-1};
    #           g(x->x) = id, g(y->c) = -phi^{-1} kappa; h = phi^{-1}: r -> c.
    f_terms: Terms = {PM_ONE: {}}
    g_terms: Terms = {PM_ONE: {}}
    for i in keep:
        f_terms[PM_ONE][(reindex[i], i)] = Entry.plain(Poly.one())
        g_terms[PM_ONE][(i, reindex[i])] = Entry.plain(Poly.one())
    for mono, gam in gammas.items():
        tgt = f_terms.setdefault(mono, {})
        for (i, _), ge in gam.items():
            tgt[(reindex[i], r)] = ge.scale(-inv)
    for mono, kap in kappas.items():
        tgt = g_terms.setdefault(mono, {})
        for (_, j), ke in kap.items():
            tgt[(c, reindex[j])] = ke.scale(-inv)
    h_terms: Terms = {PM_ONE: {(c, r): Entry.plain(Poly.const(inv))}}

    return reduced, SdrData(C, reduced, f_terms, g_terms, h_terms)


# ---------------------------------------------------------------------------
# truncated homology


def _module_monomials(params: ParamSpec, cap: Optional[int], t_hi: int):
    """Dual-free parameter monomials whose degree can matter up to t_hi;
    every even parameter has t-degree > 0 (``Unrolling`` checks)."""
    odds, evens = params.odd_names(), params.even_names()
    max_exp = [max(t_hi, 0) // params.degree(n).t + 1 for n in evens]
    ranges = [range((e if cap is None else min(e, cap)) + 1) for e in max_exp]
    out = []
    for subset in itertools.chain.from_iterable(
        itertools.combinations(odds, k) for k in range(len(odds) + 1)
    ):
        for exps in itertools.product(*ranges):
            total = sum(exps)
            if cap is not None and total > cap:
                continue
            mono = pm_from({n: e for n, e in zip(evens, exps)}, subset)
            d = pm_degree(params, mono)
            if d.t > t_hi + 1:
                continue
            out.append((mono, d))
    return out


class Unrolling:
    """C's connection unrolled over its dual-free parameter monomials: one
    graded vector space per cell (level, q, t), and the connection as a map
    from each cell g to g + t.

    A piece is object o times monomial m, with base = deg o + deg m.  At a
    cell g with g.t = base.t it sits at (level, local) = (g.a - base.a,
    g.q - base.q).  piece_dim(level, local) is its dimension (never asked
    for local < 0, where it is 0) and act(p, level, local) the matrix of the
    plain entry p from it, one packed column (row, value, ...) per basis
    vector of the piece; a scalar entry acts as c times the identity.  By
    default the graded pieces of the objects' ring sit at level 0.  The
    entries are the plain parts of C's connection: an opaque part, or
    objects over more than one ring, raise ValueError.  t_range is the
    t-span of the cells asked for; an even parameter of t-degree <= 0, or a
    cap whose next monomials reach t_range, raise too.  Dimensions, actions,
    parameter products, each cell's differential and its class space are
    computed once.  No rows are kept: ``ranks`` holds each differential's
    rank, and a cell's ``ClassTracker`` (``trackers``) its packed columns
    once classes are asked for; a rank taken first costs one more build."""

    def __init__(
        self,
        C: CurvedComplex,
        t_range: tuple[int, int],
        piece_dim: Optional[Callable[[int, int], int]] = None,
        act: Optional[Callable[[Poly, int, int], Sequence[tuple]]] = None,
    ):
        if any(not e.is_plain() for mat in C.terms.values() for e in mat.values()):
            raise ValueError("homology with opaque entries is not defined")
        if len({id(o.ring) for o in C.objects}) > 1:
            raise ValueError("an unrolling expects all objects over one ring")
        even_t = [C.params.degree(n).t for n in C.params.even_names()]
        if any(t <= 0 for t in even_t):
            raise ValueError("an even parameter of t-degree <= 0 has unbounded powers")
        # a monomial just past the cap must not reach the cells' targets
        if C.cap is not None and even_t and (C.cap + 1) * min(even_t) <= t_range[1] + 1:
            raise ValueError("parameter cap too small for the requested t-window "
                             f"(cap {C.cap}, window t <= {t_range[1]})")
        if piece_dim is None:
            ring = C.objects[0].ring if C.objects else None
            piece_dim = lambda level, local: ring.dim(local) if level == 0 else 0  # noqa: E731
            act = lambda p, level, local: ring.mult_matrix(p, local)  # noqa: E731
        self.params = C.params
        self.piece_dim, self.act = piece_dim, act
        monos = _module_monomials(C.params, C.cap, t_range[1] + 1)
        self.bases: dict[int, list] = {}  # t -> [(obj, mono, base)]
        for oi, o in enumerate(C.objects):
            for mono, mdeg in monos:
                base = o.degree + mdeg
                self.bases.setdefault(base.t, []).append((oi, mono, base))
        self.terms = []
        for s_mono, mat in C.terms.items():
            eps = C._eps(s_mono)
            for (i, j), e in mat.items():
                p = e.plain_part()
                key = frozenset(p.terms.items())
                self.terms.append((s_mono, i, j, eps[j], p, p.constant_value(), key))
        self.dims: dict[tuple[int, int], int] = {}
        self.actions: dict = {}
        self.products: dict[tuple[PMono, PMono], list] = {}  # pm_mul(s_mono, vmono)
        self.ranks: dict[tuple[int, int, int], tuple[int, int]] = {}
        self.trackers: dict[tuple[int, int, int], ClassTracker] = {}

    def dim(self, level: int, local: int) -> int:
        if local < 0:
            return 0
        if (level, local) not in self.dims:
            self.dims[(level, local)] = self.piece_dim(level, local)
        return self.dims[(level, local)]

    def layout(self, g: tuple[int, int, int]):
        """{obj: {mono: (offset, level, local, dim)}} of the nonzero pieces
        at g, and their total dimension."""
        a, q, t = g
        out, off = {}, 0
        for oi, mono, base in self.bases.get(t, ()):
            level, local = a - base.a, q - base.q
            d = self.dim(level, local)
            if d:
                out.setdefault(oi, {})[mono] = (off, level, local, d)
                off += d
        return out, off

    def _build(self, g: tuple[int, int, int]) -> tuple[dict[int, dict], int]:
        """The connection g -> g + t as {row index: row vector}, and the
        dimension at g."""
        src, ncols = self.layout(g)
        tgt, nrows = self.layout((g[0], g[1], g[2] + 1)) if ncols else ({}, 0)
        rows: dict[int, dict[int, Fraction]] = {}
        if not nrows:
            return rows, ncols
        products, actions = self.products, self.actions
        for s_mono, i, j, sgn, p, c, key in self.terms:
            if j not in src or i not in tgt:
                continue
            into = tgt[i]
            for vmono, (coff, level, local, d) in src[j].items():
                prods = products.get((s_mono, vmono))
                if prods is None:
                    # a product with a dual kills the cyclic generator, so
                    # it matches no piece
                    prods = products[(s_mono, vmono)] = [
                        (sign, m) for sign, m in pm_mul(self.params, s_mono, vmono) if not m.duals]
                for msign, new_mono in prods:
                    hit = into.get(new_mono)
                    if hit is None:
                        continue
                    roff = hit[0]
                    if c is not None:
                        val = c * msign * sgn
                        for r in range(d):
                            row = rows.setdefault(r + roff, {})
                            row[r + coff] = row.get(r + coff, 0) + val
                        continue
                    mat = actions.get((key, level, local))
                    if mat is None:
                        mat = actions[(key, level, local)] = self.act(p, level, local)
                    sign = msign * sgn
                    for cc, col in enumerate(mat, coff):
                        it = iter(col)
                        for rr, val in zip(it, it):
                            row = rows.setdefault(rr + roff, {})
                            row[cc] = row.get(cc, 0) + val * sign
        return rows, ncols

    def matrix(self, g: tuple[int, int, int]) -> dict[int, dict]:
        """The connection g -> g + t as {row index: row vector}, built anew."""
        return self._build(g)[0]

    def differential(self, g: tuple[int, int, int]) -> tuple[int, int]:
        """Rank of the connection g -> g + t, and the dimension at g."""
        if g not in self.ranks:
            rows, ncols = self._build(g)
            self.ranks[g] = (rank_of(rows.values()) if rows else 0, ncols)
        return self.ranks[g]

    def homology(self, g: tuple[int, int, int]) -> int:
        """dim ker/im at g: the kernel of the outgoing map minus the rank of
        the incoming one."""
        r_out, n = self.differential(g)
        return n and n - r_out - self.differential((g[0], g[1], g[2] - 1))[0]

    def classes(self, g: tuple[int, int, int]) -> ClassTracker:
        """The kernel of the map out of g modulo the image of the map into
        g, with class representatives.  Its tracker keeps the map out of g;
        the image vectors are the columns that the class space at g - t
        keeps, so that one is built first when both cells have pieces."""
        if g not in self.trackers:
            ncols, prev = self.layout(g)[1], (g[0], g[1], g[2] - 1)
            cols = self.classes(prev).columns if ncols and self.layout(prev)[1] else {}
            images = (dict(zip(it, it)) for it in map(iter, cols.values()))
            tracker = self.trackers[g] = ClassTracker(self.matrix(g), images, ncols)
            self.ranks[g] = (tracker.rank, ncols)
        return self.trackers[g]

    def induced(self, p: Poly, g: tuple[int, int, int]) -> list[tuple]:
        """Matrix of the map that the plain entry p induces on classes, from g
        to g shifted by deg p, as one packed column (class, value, ...) per
        class at g: p acts on every piece and commutes with the
        connection."""
        src = self.classes(g)
        if p.is_zero() or not src.reps:
            return [()] * src.n_classes
        h = (g[0], g[1] + p.degree().q, g[2])
        tgt, into = self.classes(h), self.layout(h)[0]
        # p on the pieces as {source column: [(target column, value)]}
        act: dict[int, list] = {}
        for oi, pieces in self.layout(g)[0].items():
            for mono, (off, level, local, _) in pieces.items():
                hit = into.get(oi, {}).get(mono)
                if hit is not None:
                    for cc, col in enumerate(self.act(p, level, local), off):
                        it = iter(col)
                        for rr, val in zip(it, it):
                            act.setdefault(cc, []).append((rr + hit[0], val))
        out = []
        for rep in src.reps:
            img: dict[int, Fraction] = {}
            for k, x in rep.items():
                for r, val in act.get(k, ()):
                    img[r] = img.get(r, 0) + x * val
            out.append(tuple(itertools.chain.from_iterable(tgt.express(img).items())))
        return out


def homology_truncated(C: CurvedComplex, window: Window) -> TriSeries:
    """Graded dimensions of ker/im of the unrolled connection, per
    multidegree in the window.  Requires curvature that vanishes in every
    object's ring."""
    bad = nonvanishing(C.diagonal(C.curvature), C.objects, C.objects)
    if bad is not None:
        raise ValueError(f"homology of a complex with non-vanishing curvature at {_at(bad)}")
    unrolled = Unrolling(C, window.t)
    cells = (
        (a, q, t)
        for a in range(window.a[0], window.a[1] + 1)
        for t in range(window.t[0], window.t[1] + 1)
        for q in range(window.q[0], window.q[1] + 1)
    )
    return TriSeries(window, {g: d for g in cells if (d := unrolled.homology(g))})
