"""Curved complexes over presented rings.

A presented ring is a polynomial ring on graded generators modulo
homogeneous relations.  Its normal forms are division by a reduced Gröbner
basis of the relations, grown degree by degree as far as a computation
asks; the quotient in each q-degree has the standard monomials as basis.

A curved complex is stored in decomposed form: a list of rank-1 free
objects (each with a multidegree and a presented ring), a connection
written as a sum of (parameter monomial, matrix of ring elements) terms,
and a declared curvature.  Parameter monomials live in the Clifford-type
algebra generated by even multiplications, odd multiplications theta and
contractions theta-dual, subject to

    theta^2 = (theta-dual)^2 = 0,
    theta-dual theta + theta theta-dual = 1,
    distinct odd symbols anticommute, even symbols are central.

Composition of decomposed terms follows the middle interchange law

    (A (x) s) o (B (x) r) = (-1)^{<deg s, deg B>} (A B) (x) (s o r)

where <,> is the (a,t) sign form and the entrywise sign factors through
diagonal sign matrices because ring elements are pure q-degree.  All the
engine operations -- Maurer-Cartan checks, twists, cones, Gaussian
elimination with SDR data, deformation transport, SDR lifting, truncated
homology -- are built on that one composition rule,
``CurvedComplex.compose_terms``.  It accumulates each product of
coefficients straight into its (parameter monomial, component, opaque tag,
ring monomial) slot and builds every entry once, at the end.

Every identity check -- Maurer-Cartan, closed chain maps, strictness, the
SDR identities, nilpotence and transport, SDR lifting, vanishing curvature --
asks one vanishing rule, ``nonvanishing``: an entry must reduce to zero
modulo the relations and vanish at 20 vanishing-locus sample points
(seed 0).
"""

from __future__ import annotations

import heapq
import itertools
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable, Mapping, Optional, Sequence

from .grading import MultiDegree, parity, shift_sign
from .linalg import _exact, _scaled, rank_of
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
    ``nonvanishing``, the one vanishing rule, asks for 20 points at seed 0.
    """

    name: str
    generators: list[tuple[tuple, int]]
    relations: list[Poly] = field(default_factory=list)
    qshift: int = 0
    sampler: Optional[Callable[[int, int], list[dict]]] = None
    eval_composition: object = None  # Composition for eval_at_point, if sampled


class GroebnerBasis:
    """Reduced Gröbner basis of a weight-homogeneous ideal, grown degree by
    degree by homogeneous Buchberger with the product criterion.

    Monomials are exponent tuples over a fixed generator list with positive
    weights, and polynomials are dicts {monomial: coefficient}, with
    coefficients as ``linalg._exact`` makes them.  The order is
    weighted grevlex: weight first, then the monomial whose last differing
    exponent is smaller is the larger.  After ``extend(d)`` the basis is
    complete through weight d: there its leading monomials generate the
    leading ideal, so division gives the unique normal form.
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
        basis is first extended through d, so they span the quotient there."""
        self.extend(d)
        n = len(self.weights)
        by_last: list[list[tuple]] = [[] for _ in range(n)]
        for lead in self.leads:
            support = [k for k, e in enumerate(lead) if e]
            if not support:  # the unit ideal
                return []
            by_last[support[-1]].append(lead)
        out: list[tuple] = []
        # depth-first over exponent prefixes, with the weight still to place
        stack: list[tuple[tuple, int]] = [((), d)]
        while stack:
            prefix, rest = stack.pop()
            i = len(prefix)
            if i == n:
                if rest == 0:
                    out.append(prefix)
                continue
            w = self.weights[i]
            if i < n - 1:
                choices = range(rest // w + 1)
            else:  # the last exponent is fixed by the weight left
                choices = [rest // w] if rest % w == 0 else []
            for e in choices:
                exps = prefix + (e,)
                # a lead ending at i that divides now divides every larger e
                if any(all(map(operator.le, lead, exps)) for lead in by_last[i]):
                    break
                stack.append((exps, rest - e * w))
        out.sort(key=lambda m: m[::-1])
        return out

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
    quotient basis of each degree is its standard monomials, and
    mult_matrix writes coordinates in that basis.
    """

    def __init__(self, spec: RingSpec):
        self.spec = spec
        self._subst: dict[tuple, Poly] = {}
        kept: list[Poly] = []
        gens = dict(spec.generators)
        todo = [self._apply_subst(r) for r in spec.relations]
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
        self._basis_cache: dict[int, list[Mono]] = {}
        self._gb: Optional[GroebnerBasis] = None  # built on first use
        self._index = {g: i for i, (g, _) in enumerate(self.generators)}
        self._standard_cache: dict[int, tuple[list[tuple], dict[tuple, int]]] = {}
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
        if qdeg not in self._basis_cache:
            free = GroebnerBasis([d for _, d in self.generators], [])
            self._basis_cache[qdeg] = sorted(map(self._mono, free.standard(qdeg)), key=repr)
        return self._basis_cache[qdeg]

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

    def _standard(self, qdeg: int) -> tuple[list[tuple], dict[tuple, int]]:
        """Standard monomials of the q-degree, as exponent tuples, and
        their positions."""
        if qdeg not in self._standard_cache:
            std = self._groebner().standard(qdeg)
            self._standard_cache[qdeg] = (std, {m: i for i, m in enumerate(std)})
        return self._standard_cache[qdeg]

    def dim(self, qdeg: int) -> int:
        return len(self._standard(qdeg)[0])

    def normal_form(self, p: Poly) -> Poly:
        """Canonical representative of p modulo the relation ideal."""
        p = self._apply_subst(p)
        if p.is_zero():
            return p
        red = self._groebner().normal_form(self._exps(p))
        return Poly({self._mono(m): c for m, c in red.items()})

    def reduces_to_zero(self, p: Poly) -> bool:
        return self.normal_form(p).is_zero()

    def sampled_zero(self, p: Poly, count: int = 20, seed: int = 0) -> bool:
        """Exact evaluation at vanishing-locus samples.  p is evaluated as it
        stands, not expanded into raw variables: each e_k(X_j) takes its
        value from the point's raw coordinates.  Without a sampler the ring
        must have no relations left, and then the normal form decides
        exactly."""
        if self.spec.sampler is None:
            if self.relations:
                raise ValueError(
                    f"ring {self.spec.name} has relations but no sampler for a second check"
                )
            return self.reduces_to_zero(p)
        p = self._apply_subst(p)
        return all(
            eval_at_point(p, pt, self.spec.eval_composition) == 0
            for pt in self.spec.sampler(count, seed)
        )

    def mult_matrix(self, p: Poly, qdeg: int) -> dict[tuple[int, int], Fraction]:
        """Matrix of multiplication by p: quotient(qdeg) -> quotient(qdeg + deg p),
        in the standard-monomial bases."""
        p = self._apply_subst(p)
        if p.is_zero():
            return {}
        key = (frozenset(p.terms.items()), qdeg)
        if key in self._mult_cache:
            return self._mult_cache[key]
        src, _ = self._standard(qdeg)
        _, tgt = self._standard(qdeg + p.degree().q)
        gb, f = self._groebner(), self._exps(p)
        out: dict[tuple[int, int], Fraction] = {}
        for col, m in enumerate(src):
            for mm, c in gb.normal_form(_shift(f, m)).items():
                out[(tgt[mm], col)] = c
        self._mult_cache[key] = out
        return out

    def series(self, qmin: int, qmax: int) -> dict[int, int]:
        """Graded dimensions of the quotient, natural grading."""
        return {d: self.dim(d) for d in range(max(qmin, 0), qmax + 1)}


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

    def parity_of(self, name: str) -> str:
        for n, _, p in self.params:
            if n == name:
                return p
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


def _word_normal_order(word: tuple) -> list[tuple[int, tuple]]:
    """Normal-order a word of ('t', name) / ('d', name) odd letters.
    Returns [(sign, word)] with words sorted thetas-then-duals ascending."""
    # find the first violation
    for i in range(len(word) - 1):
        (k1, n1), (k2, n2) = word[i], word[i + 1]
        if k1 == "t" and k2 == "t":
            if n1 == n2:
                return []
            if n1 > n2:
                swapped = word[:i] + (word[i + 1], word[i]) + word[i + 2:]
                return [(-s, w) for s, w in _word_normal_order(swapped)]
        elif k1 == "d" and k2 == "d":
            if n1 == n2:
                return []
            if n1 > n2:
                swapped = word[:i] + (word[i + 1], word[i]) + word[i + 2:]
                return [(-s, w) for s, w in _word_normal_order(swapped)]
        elif k1 == "d" and k2 == "t":
            rest_pre, rest_post = word[:i], word[i + 2:]
            if n1 == n2:
                # d t = 1 - t d
                out = []
                for s, w in _word_normal_order(rest_pre + rest_post):
                    out.append((s, w))
                for s, w in _word_normal_order(
                    rest_pre + (word[i + 1], word[i]) + rest_post
                ):
                    out.append((-s, w))
                return out
            swapped = word[:i] + (word[i + 1], word[i]) + word[i + 2:]
            return [(-s, w) for s, w in _word_normal_order(swapped)]
    return [(1, word)]


def pm_mul(spec: ParamSpec, s: PMono, r: PMono) -> list[tuple[int, PMono]]:
    """Normal-ordered product s o r (s composed after r, word s then r)."""
    evens: dict[str, int] = {}
    for n, e in s.evens + r.evens:
        evens[n] = evens.get(n, 0) + e
    ev = tuple(sorted(evens.items()))
    word = (
        tuple(("t", n) for n in s.thetas)
        + tuple(("d", n) for n in s.duals)
        + tuple(("t", n) for n in r.thetas)
        + tuple(("d", n) for n in r.duals)
    )
    out = []
    for sign, w in _word_normal_order(word):
        thetas = tuple(n for k, n in w if k == "t")
        duals = tuple(n for k, n in w if k == "d")
        out.append((sign, PMono(ev, thetas, duals)))
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
    # formal q-degree offset of the cyclic generator (cross-ring maps):
    offset: int = 0


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
        opaque_degrees: Mapping[str, MultiDegree] | None = None,
    ):
        self.objects = list(objects)
        self.params = params
        self.terms: Terms = {}
        self.cap = cap
        self.opaque_rules = dict(opaque_rules or {})
        self.opaque_degrees = dict(opaque_degrees or {})
        if terms:
            for mono, mat in terms.items():
                clean = {ij: e for ij, e in mat.items() if not e.is_zero()}
                if clean:
                    self.terms[mono] = clean
        self.curvature: dict[PMono, Poly] = {
            m: p for m, p in (curvature or {}).items() if not p.is_zero()
        }

    # -- bookkeeping ---------------------------------------------------------
    def entry_degree(self, i: int, j: int, entry: Entry) -> MultiDegree:
        """Internal degree of an entry O_j -> O_i (checks homogeneity).
        Opaque tags carry declared degrees absorbing any cross-ring shift."""
        degs = set()
        for tag, p in entry.parts.items():
            d = p.degree()
            if tag is not None:
                d = d + self.opaque_degrees[tag]
            degs.add(d.as_tuple())
        if len(degs) != 1:
            raise ValueError(f"inhomogeneous entry at ({i},{j})")
        return MultiDegree(*degs.pop())

    def check_homogeneous(self) -> None:
        from .grading import MultiDegree as MD

        t = MD(0, 0, 1)
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

    def _eps(self, mono: PMono) -> list[int]:
        """Diagonal interchange signs (-1)^{<deg mono, obj degree>}."""
        pdeg = pm_degree(self.params, mono)
        return [(-1) ** parity(pdeg, o.degree) for o in self.objects]

    def _within_cap(self, mono: PMono) -> bool:
        return self.cap is None or mono.total_even_weight() <= self.cap

    # -- composition of term dictionaries ------------------------------------
    def compose_terms(self, t1: Terms, t2: Terms) -> Terms:
        """(sum of t1) o (sum of t2) as decomposed terms.

        One pass: each product sign * msign * c1 * c2 (interchange sign,
        parameter sign, ring coefficients) is added straight into its
        {monomial: {(i, k, tag): {Mono: coeff}}} slot.  Each Poly and Entry
        is built once at the end, on its slot's dict, and a monomial's slots
        are released as its entries are built; zero coefficients, entries
        and monomials are dropped.  Opaque tags combine by opaque_rules, and
        a composed pair of tags with no rule raises ValueError.  A pair of
        terms whose parameter products all exceed the cap is not composed."""
        rules = self.opaque_rules
        acc: dict = {}
        for s, A in t1.items():
            eps = self._eps(s)
            for r, B in t2.items():
                targets = [
                    (msign, acc.setdefault(mono, {}))
                    for msign, mono in pm_mul(self.params, s, r)
                    if self._within_cap(mono)
                ]
                if not targets:
                    continue
                # matrix product with diagonal interchange signs on B
                by_col: dict[int, list] = {}
                for (j, k), e in B.items():
                    by_col.setdefault(j, []).append((k, e))
                for (i, j), a in A.items():
                    for k, b in by_col.get(j, []):
                        sign = eps[j] * eps[k]
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
        return self.compose_terms(self.terms, self.terms)

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
    def copy(self) -> "CurvedComplex":
        return CurvedComplex(
            self.objects,
            self.params,
            {m: dict(mat) for m, mat in self.terms.items()},
            dict(self.curvature),
            self.cap,
            self.opaque_rules,
            self.opaque_degrees,
        )

    def shifted(self, delta: MultiDegree) -> "CurvedComplex":
        sign = shift_sign(delta)
        objects = [
            RC_Object(o.degree + delta, o.ring, o.label, o.offset) for o in self.objects
        ]
        terms = {
            m: {ij: e.scale(sign) for ij, e in mat.items()}
            for m, mat in self.terms.items()
        }
        return CurvedComplex(
            objects, self.params, terms, dict(self.curvature), self.cap,
            self.opaque_rules, self.opaque_degrees,
        )

    def twist(
        self,
        alpha: Terms,
        add_curvature: Mapping[PMono, Poly],
        check: bool = True,
    ) -> "CurvedComplex":
        """Add a Maurer-Cartan element to the connection."""
        new_curv: dict[PMono, Poly] = dict(self.curvature)
        for m, p in add_curvature.items():
            new_curv[m] = new_curv.get(m, Poly.zero()) + p
        out = CurvedComplex(
            self.objects,
            self.params,
            self.add_terms(self.terms, alpha),
            {m: p for m, p in new_curv.items() if not p.is_zero()},
            self.cap,
            self.opaque_rules,
            self.opaque_degrees,
        )
        if check:
            rep = out.mc_check()
            if not rep:
                raise ValueError(f"twist violates Maurer-Cartan: {rep.details}")
        return out

    def with_params(self, extra: ParamSpec, cap: Optional[int] = None) -> "CurvedComplex":
        return CurvedComplex(
            self.objects,
            self.params.merge(extra),
            {m: dict(mat) for m, mat in self.terms.items()},
            dict(self.curvature),
            cap if cap is not None else self.cap,
            self.opaque_rules,
            self.opaque_degrees,
        )

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
        left = tgt.compose_terms(tgt.terms, self.terms)
        right = tgt.compose_terms(self.terms, src.terms)
        bad = nonvanishing(CurvedComplex.add_terms(left, right, -1), tgt.objects, src.objects)
        if bad is None:
            return CheckReport(True)
        return CheckReport(False, f"d f - f d fails at {_at(bad)}")


def cone(f: ChainMap, check: bool = True) -> CurvedComplex:
    """Cone(f) = tw_f(t^{-1} X (+) Y) for a closed degree-0 map f."""
    X, Y = f.source, f.target
    if check:
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
        {**X.opaque_degrees, **Y.opaque_degrees},
    )


# ---------------------------------------------------------------------------
# Koszul complexes and strict deformations


def koszul_build(
    ring: GradedRing,
    elements: Sequence[Poly],
    thetas: ParamSpec,
    base_degree: MultiDegree = MultiDegree(0, 0, 0),
    check: bool = True,
) -> CurvedComplex:
    """The Koszul complex on the rank-1 free module over `ring` for the
    commuting closed elements, twisted by sum(e_i (x) theta_i)."""
    names = thetas.odd_names()
    if len(names) != len(elements):
        raise ValueError("need one odd parameter per Koszul element")
    obj = RC_Object(base_degree, ring, "koszul")
    cx = CurvedComplex([obj], thetas)
    alpha: Terms = {}
    for name, el in zip(names, elements):
        want = MultiDegree(0, 0, 1) - thetas.degree(name)
        if not el.is_zero() and el.degree() != want:
            raise ValueError(
                f"element degree {el.degree()} does not match theta {name} "
                f"(needs {want})"
            )
        if not el.is_zero():
            alpha[PMono((), (name,), ())] = {(0, 0): Entry.plain(el)}
    return cx.twist(alpha, {}, check=check)


def strict_deformation(
    C: CurvedComplex,
    xi_list: Sequence[Terms],
    phi_list: Sequence[Poly],
    params: ParamSpec,
    check: bool = True,
) -> CurvedComplex:
    """tw_{sum xi_i (x) u_i}(C (x) R[params]) with curvature sum phi_i (x) u_i.

    Checks the two strictness conditions: [d, xi_i] = phi_i and the xi_i
    pairwise graded-commute.
    """
    names = [n for n, _, _ in params.params]
    if len(names) != len(xi_list) or len(xi_list) != len(phi_list):
        raise ValueError("need one parameter and one curvature per xi")
    big = C.with_params(params)
    if check:
        for idx, (xi, phi) in enumerate(zip(xi_list, phi_list)):
            pdeg = params.degree(names[idx])
            sign = (-1) ** parity(MultiDegree(0, 0, 1), MultiDegree(0, 0, 1) - pdeg)
            # [d, xi] = d xi - (-1)^{<t, deg xi>} xi d, deg xi = t - deg u
            left = big.compose_terms(big.terms, xi)
            right = big.compose_terms(xi, big.terms)
            comm = CurvedComplex.add_terms(left, right, -sign)
            diff = CurvedComplex.add_terms(comm, big.diagonal({PM_ONE: phi}), -1)
            bad = nonvanishing(diff, big.objects, big.objects)
            if bad is not None:
                raise ValueError(
                    f"strictness condition (1) fails for xi_{idx + 1} at {_at(bad)}"
                )
        for idx1 in range(len(xi_list)):
            for idx2 in range(idx1 + 1, len(xi_list)):
                d1 = MultiDegree(0, 0, 1) - params.degree(names[idx1])
                d2 = MultiDegree(0, 0, 1) - params.degree(names[idx2])
                sign = (-1) ** parity(d1, d2)
                left = big.compose_terms(xi_list[idx1], xi_list[idx2])
                right = big.compose_terms(xi_list[idx2], xi_list[idx1])
                comm = CurvedComplex.add_terms(left, right, -sign)
                bad = nonvanishing(comm, big.objects, big.objects)
                if bad is not None:
                    raise ValueError(
                        f"strictness condition (2) fails for pair "
                        f"({idx1 + 1},{idx2 + 1}) at {_at(bad)}"
                    )
    alpha: Terms = {}
    curv: dict[PMono, Poly] = {}
    for name, xi, phi in zip(names, xi_list, phi_list):
        parity_kind = params.parity_of(name)
        mono = (
            PMono(((name, 1),), (), ())
            if parity_kind == "even"
            else PMono((), (name,), ())
        )
        for (i, j), e in xi.get(PM_ONE, {}).items():
            alpha.setdefault(mono, {})[(i, j)] = e
        if not phi.is_zero():
            curv[mono] = curv.get(mono, Poly.zero()) + phi
    return big.twist(alpha, curv, check=check)


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
        comp, add = big.compose_terms, CurvedComplex.add_terms
        one = {PM_ONE: Poly.one()}

        def identities():
            # (name, terms that must vanish, their targets, their sources)
            yield "fg != id", add(comp(self.f, self.g), small.diagonal(one), -1), small, small
            # [d, h] = dh + hd (h has odd degree) = id - gf
            dh_hd = add(comp(big.terms, self.h), comp(self.h, big.terms))
            id_gf = add(big.diagonal(one), comp(self.g, self.f), -1)
            yield "[d,h] != id - gf", add(dh_hd, id_gf, -1), big, big
            yield "side condition h^2 fails", comp(self.h, self.h), big, big
            yield "side condition fh fails", comp(self.f, self.h), small, big
            yield "side condition hg fails", comp(self.h, self.g), big, small
            df = add(comp(small.terms, self.f), comp(self.f, big.terms), -1)
            yield "f not closed", df, small, big
            dg = add(comp(big.terms, self.g), comp(self.g, small.terms), -1)
            yield "g not closed", dg, big, small

        for name, terms, tgt, src in identities():
            bad = nonvanishing(terms, tgt.objects, src.objects)
            if bad is not None:
                return CheckReport(False, f"{name} at {_at(bad)}")
        return CheckReport(True)


def gaussian_eliminate(
    C: CurvedComplex, entry: tuple[int, int], verify: bool = True
) -> tuple[CurvedComplex, SdrData]:
    """Remove an invertible parameter-degree-0 component of the connection.

    entry = (row, col): the component phi: O_col -> O_row must be a nonzero
    scalar.  Returns the reduced complex on the complementary objects with
    corrected differential eps - gamma phi^{-1} kappa and the SDR realizing
    the removal.
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

    reduced = CurvedComplex(
        [C.objects[i] for i in keep],
        C.params,
        new_terms,
        dict(C.curvature),
        C.cap,
        C.opaque_rules,
        C.opaque_degrees,
    )

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

    sdr = SdrData(C, reduced, f_terms, g_terms, h_terms)
    if verify:
        rep = sdr.verify()
        if not rep:
            raise ValueError(f"Gaussian elimination produced a bad SDR: {rep.details}")
    return reduced, sdr


# ---------------------------------------------------------------------------
# deformation transport and SDR lifting


def transport_twist(
    C: CurvedComplex,
    h: Terms,
    u_name: str,
    nilpotence: int,
    xi_old: Terms,
    xi_new: Terms,
    check: bool = True,
) -> tuple[Terms, Terms]:
    """Psi = sum h^k/k! (x) u^k and its inverse, realizing the isomorphism
    between the strict deformations by xi_old and xi_new when
    [d, h] = xi_old - xi_new, h nilpotent, and everything commutes."""
    # verify nilpotence: h^N = 0 modulo each target ring
    ident = C.diagonal({PM_ONE: Poly.one()})
    powers = [ident]
    for _ in range(nilpotence):
        powers.append(C.compose_terms(powers[-1], h))
    bad = nonvanishing(powers[-1], C.objects, C.objects)
    if bad is not None:
        raise ValueError(f"h^{nilpotence} does not vanish at {_at(bad)}")

    def series(sign: int) -> Terms:
        out: Terms = {}
        fact = Fraction(1)
        for k in range(nilpotence):
            if k:
                fact *= k
            coeff = Fraction(sign ** k, 1) / fact
            mono = PMono(((u_name, k),), (), ()) if k else PM_ONE
            if C._within_cap(mono):
                out[mono] = {ij: e.scale(coeff) for ij, e in powers[k].get(PM_ONE, {}).items()}
        return out

    psi, psi_inv = series(1), series(-1)
    if check:
        diff = CurvedComplex.add_terms(C.compose_terms(psi, psi_inv), ident, -1)
        # monomials of weight >= nilpotence are truncation artifacts
        bad = nonvanishing(
            {m: mat for m, mat in diff.items() if m.total_even_weight() < nilpotence},
            C.objects, C.objects,
        )
        if bad is not None:
            raise ValueError(f"Psi Psi^-1 != id at {_at(bad)}")
    return psi, psi_inv


def conjugate_connection(C: CurvedComplex, psi: Terms, psi_inv: Terms) -> Terms:
    """Psi o delta o Psi^{-1} as decomposed terms."""
    return C.compose_terms(psi, C.compose_terms(C.terms, psi_inv))


def hpt_conjugate(
    f: Terms,
    g: Terms,
    source: CurvedComplex,
    target: CurvedComplex,
    alpha: Terms,
    add_curvature: Mapping[PMono, Poly],
) -> CurvedComplex:
    """Transport a Maurer-Cartan element along an isomorphism (f, g):
    tw_alpha(X) ~ tw_{f alpha g}(Y); Maurer-Cartan of f alpha g is verified
    by the twist constructor."""
    falphag = target.compose_terms(f, target.compose_terms(alpha, g))
    return target.twist(falphag, add_curvature)


def sdr_lift(
    sdr: SdrData,
    xi_list: Sequence[Terms],
    phi_list: Sequence[Poly],
    params: ParamSpec,
) -> tuple[list[Terms], SdrData]:
    """Lift a deforming family along an SDR: xi'_i = g xi_i f + phi_i h on
    the big complex; assert h xi' = xi' h = 0 and f xi' g = xi_i; return
    the lifted family and the SDR between the strict deformations."""
    big, small = sdr.big, sdr.small
    lifted: list[Terms] = []
    for xi, phi in zip(xi_list, phi_list):
        gxf = big.compose_terms(sdr.g, big.compose_terms(xi, sdr.f))
        phih = {
            mono: {ij: e.times_poly(phi) for ij, e in mat.items()}
            for mono, mat in sdr.h.items()
        } if not phi.is_zero() else {}
        xi_p = CurvedComplex.add_terms(gxf, phih)
        lifted.append(xi_p)
        fxg = big.compose_terms(sdr.f, big.compose_terms(xi_p, sdr.g))
        for name, terms, objects in (
            ("h xi' = 0", big.compose_terms(sdr.h, xi_p), big.objects),
            ("xi' h = 0", big.compose_terms(xi_p, sdr.h), big.objects),
            ("f xi' g = xi", CurvedComplex.add_terms(fxg, xi, -1), small.objects),
        ):
            bad = nonvanishing(terms, objects, objects)
            if bad is not None:
                raise ValueError(f"lifting identity {name} fails at {_at(bad)}")

    big_def = strict_deformation(big, lifted, list(phi_list), params, check=True)
    small_def = strict_deformation(small, list(xi_list), list(phi_list), params, check=True)
    lifted_sdr = SdrData(big_def, small_def, sdr.f, sdr.g, sdr.h)
    rep = lifted_sdr.verify()
    if not rep:
        raise ValueError(f"lifted SDR fails: {rep.details}")
    return lifted, lifted_sdr


# ---------------------------------------------------------------------------
# truncated homology


def _module_monomials(params: ParamSpec, cap: Optional[int], t_lo: int, t_hi: int):
    """Dual-free parameter monomials whose degree can matter in [t_lo, t_hi]."""
    odds = params.odd_names()
    evens = params.even_names()
    even_degs = {n: params.degree(n) for n in evens}
    odd_degs = {n: params.degree(n) for n in odds}
    max_exp = {}
    for n in evens:
        dt = even_degs[n].t
        max_exp[n] = (max(t_hi, 0)) // dt + 1 if dt > 0 else (cap or 0)
        if cap is not None:
            max_exp[n] = min(max_exp[n], cap)
    out = []
    for subset in itertools.chain.from_iterable(
        itertools.combinations(odds, k) for k in range(len(odds) + 1)
    ):
        ranges = [range(max_exp[n] + 1) for n in evens]
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


def unrolled_homology(
    C: CurvedComplex,
    entries: Mapping[PMono, Mapping[tuple[int, int], Poly]],
    cells: Iterable[tuple[int, int, int]],
    t_range: tuple[int, int],
    piece_dim: Callable[[int, int], int],
    act: Callable[[Poly, int, int], Mapping[tuple[int, int], Fraction]],
) -> dict[tuple[int, int, int], int]:
    """Graded dimensions of ker/im of C's connection unrolled over its
    dual-free parameter monomials, at each requested cell (level, q, t).

    A piece is object o times monomial m, with base = deg o + deg m.  At a
    cell g with g.t = base.t it sits at (level, local) = (g.a - base.a,
    g.q - base.q).  piece_dim(level, local) is its dimension (never asked
    for local < 0, where it is 0) and act(p, level, local) the matrix of the
    plain entry p from it; a scalar entry acts as c times the identity.
    `entries` holds the nonzero plain entries per parameter monomial, and
    t_range the t-span of the cells.  Dimensions, actions, parameter
    products and differentials are computed once per call; a differential
    is ranked when it is built, and only its rank is kept.  Returns
    {cell: dim} for the cells of nonzero dimension."""
    monos = _module_monomials(C.params, C.cap, t_range[0] - 1, t_range[1] + 1)
    bases = [
        (oi, mono, o.degree + mdeg)
        for oi, o in enumerate(C.objects)
        for mono, mdeg in monos
    ]
    terms = []
    for s_mono, mat in entries.items():
        eps = C._eps(s_mono)
        for (i, j), p in mat.items():
            key = frozenset(p.terms.items())
            terms.append((s_mono, i, j, eps[j], p, p.constant_value(), key))

    dims: dict[tuple[int, int], int] = {}

    def dim(level: int, local: int) -> int:
        if local < 0:
            return 0
        if (level, local) not in dims:
            dims[(level, local)] = piece_dim(level, local)
        return dims[(level, local)]

    def layout(g: tuple[int, int, int]):
        """{(obj, mono): (offset, level, local, dim)} of the nonzero pieces
        at g, and their total dimension."""
        a, q, t = g
        out, off = {}, 0
        for oi, mono, base in bases:
            if base.t != t:
                continue
            level, local = a - base.a, q - base.q
            d = dim(level, local)
            if d:
                out[(oi, mono)] = (off, level, local, d)
                off += d
        return out, off

    actions: dict = {}
    products: dict[tuple[PMono, PMono], list] = {}  # pm_mul(s_mono, vmono)
    ranks: dict[tuple[int, int, int], tuple[int, int]] = {}

    def differential(g: tuple[int, int, int]) -> tuple[int, int]:
        """Rank of the connection g -> g + t, and the dimension at g."""
        if g in ranks:
            return ranks[g]
        src, ncols = layout(g)
        tgt, _ = layout((g[0], g[1], g[2] + 1))
        rows: dict[int, dict[int, Fraction]] = {}
        for s_mono, i, j, sgn, p, c, key in terms:
            for (oj, vmono), (coff, level, local, d) in src.items():
                if oj != j:
                    continue
                # a product with a dual kills the cyclic generator, so it
                # matches no piece
                prods = products.get((s_mono, vmono))
                if prods is None:
                    prods = products[(s_mono, vmono)] = pm_mul(C.params, s_mono, vmono)
                for msign, new_mono in prods:
                    hit = tgt.get((i, new_mono))
                    if hit is None:
                        continue
                    if c is not None:
                        mat = {(r, r): c for r in range(d)}
                    elif (key, level, local) in actions:
                        mat = actions[(key, level, local)]
                    else:
                        mat = actions[(key, level, local)] = act(p, level, local)
                    roff = hit[0]
                    for (rr, cc), val in mat.items():
                        row = rows.setdefault(rr + roff, {})
                        row[cc + coff] = row.get(cc + coff, 0) + val * msign * sgn
        clean = []
        for row in rows.values():
            row = {col: v for col, v in row.items() if v}
            if row:
                clean.append(row)
        ranks[g] = (rank_of(clean) if clean else 0, ncols)
        return ranks[g]

    out: dict[tuple[int, int, int], int] = {}
    for g in cells:
        r_out, n = differential(g)
        if n == 0:
            continue
        r_in, _ = differential((g[0], g[1], g[2] - 1))
        # kernel of the outgoing map minus rank of the incoming one
        d = n - r_out - r_in
        if d:
            out[g] = d
    return out


def homology_truncated(C: CurvedComplex, window: Window) -> TriSeries:
    """Graded dimensions of ker/im of the unrolled connection, per
    multidegree in the window.  Requires curvature that vanishes in every
    object's ring."""
    bad = nonvanishing(C.diagonal(C.curvature), C.objects, C.objects)
    if bad is not None:
        raise ValueError(f"homology of a complex with non-vanishing curvature at {_at(bad)}")
    # entries must be plain to act on monomial bases
    entries: dict[PMono, dict[tuple[int, int], Poly]] = {}
    for mono, mat in C.terms.items():
        for ij, e in mat.items():
            if not e.is_plain():
                raise ValueError("homology with opaque entries is not defined")
            if not e.plain_part().is_zero():
                entries.setdefault(mono, {})[ij] = e.plain_part()
    rings = {id(o.ring) for o in C.objects}
    if len(rings) > 1:
        raise ValueError("homology_truncated expects all objects over one ring")
    ring = C.objects[0].ring if C.objects else None
    cells = (
        (a, q, t)
        for a in range(window.a[0], window.a[1] + 1)
        for t in range(window.t[0], window.t[1] + 1)
        for q in range(window.q[0], window.q[1] + 1)
    )
    dims = unrolled_homology(
        C, entries, cells, window.t,
        lambda level, local: ring.dim(local) if level == 0 else 0,
        lambda p, level, local: ring.mult_matrix(p, local),
    )
    return TriSeries(window, {g: Fraction(d) for g, d in dims.items()})
