"""Exact sparse linear algebra over Q.

Vectors are dicts {column index: rational}; matrices are lists of row
vectors.  Entries are ints or Fractions, and an integral entry is read as
an int: the Koszul and connection matrices are mostly +-1, and with +-1
pivots elimination then stays in integer arithmetic.  Nothing is rounded
and no modular image is taken.  Normal forms in presented rings are not
linear elimination: they are division by a Gröbner basis
(``homalg.GroebnerBasis``).

There are two loops, one per shape of work.

``_eliminate`` eliminates a whole matrix (right-looking Gaussian
elimination).  Its pivot rule is Markowitz's: take the column with the
fewest entries among the live rows, then the shortest live row in that
column, and clear the column from the other rows holding it.  Fill-in, not
the arithmetic of one entry, is what exact elimination costs on these
matrices, and this order keeps it low.  A bucket queue on column counts
finds the column; its buckets move only for the pivot row's columns, the
only columns whose counts a step changes.  ``rank_of`` counts its pivots,
and ``RowBasis(rows)`` stores its rows: ``kernel_basis`` eliminates that
way, and so does a ``ClassTracker`` built on its image vectors.

``RowBasis.reduce`` reduces one vector by the stored rows, in the order they
were stored.  Each stored row is scaled to 1 at its pivot and holds no
pivot of an earlier row, so one pass in that order clears every pivot
column.  This is what a basis is used for once it is built: ``contains``,
``ClassTracker.express`` on vectors that arrive one at a time, the
back-substitution of ``kernel_basis`` (each row reduced by the later ones),
and the incremental ``add``.  The Markowitz order needs the whole matrix at
once, so it cannot serve these.  ``add`` takes the smallest column of the
remainder as pivot, so the pivot set of a basis built by ``add`` alone is
the set of leading columns of its row space, whatever the order of the
rows.

A row inserted by ``add`` may carry tag coordinates, which ``reduce``
combines along with the row; ``ClassTracker`` uses them for class
coordinates.
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from typing import Iterable


Vec = dict  # {col: int or Fraction}


def _exact(x):
    """x, as an int if it is integral."""
    return x.numerator if x.denominator == 1 else x


def vec_add(v: Vec, w: Vec, c) -> Vec:
    """v + c*w."""
    out = dict(v)
    for k, x in w.items():
        s = out.get(k, 0) + c * x
        if s:
            out[k] = s
        else:
            out.pop(k, None)
    return out


def _scaled(row: Vec, p: int, tag: Vec | None) -> tuple[Vec, Vec | None]:
    """row and its tag divided by the row's entry at p."""
    x = row[p]
    inv = x if x in (1, -1) else 1 / Fraction(x)
    return ({k: _exact(y * inv) for k, y in row.items()},
            tag and {k: _exact(y * inv) for k, y in tag.items()})


def _eliminate(rows: Iterable[Vec]) -> list[tuple[int, Vec]]:
    """Markowitz elimination of the rows.  Returns (pivot column, row scaled
    to 1 there) per pivot, in elimination order; no row holds the pivot of
    an earlier one."""
    live: dict[int, Vec] = {}
    where: dict[int, set[int]] = {}  # column -> live rows holding it
    for i, r in enumerate(rows):
        r = {c: _exact(x) for c, x in r.items() if x}
        if r:
            live[i] = r
            for c in r:
                where.setdefault(c, set()).add(i)
    bucket: list[set[int]] = [set() for _ in range(len(live) + 1)]  # count -> columns
    for c, holders in where.items():
        bucket[len(holders)].add(c)
    low = 1
    out = []
    while live:
        while not bucket[low]:
            low += 1
        c = bucket[low].pop()
        holders = where.pop(c)
        i = min(holders, key=lambda j: len(live[j]))
        holders.discard(i)
        prow, _ = _scaled(live.pop(i), c, None)
        del prow[c]
        counts = {}
        for col in prow:
            held = where[col]
            counts[col] = len(held)
            held.discard(i)
        for j in holders:
            row = live[j]
            f = row.pop(c)
            for col, y in prow.items():
                if col in row:
                    s = row[col] - f * y
                    if s:
                        row[col] = s
                    else:
                        del row[col]
                        where[col].discard(j)
                else:
                    row[col] = -f * y
                    where[col].add(j)
            if not row:
                del live[j]
        for col, old in counts.items():
            new = len(where[col])
            if new != old:
                bucket[old].discard(col)
                if new:
                    bucket[new].add(col)
                    low = min(low, new)
                else:
                    del where[col]
        prow[c] = 1
        out.append((c, prow))
    return out


class RowBasis:
    """A family of vectors in elimination order, supporting reduction and
    membership; each row is scaled to 1 at its pivot and holds no pivot of
    an earlier row."""

    def __init__(self, rows: Iterable[Vec] = ()):
        """A basis of the span of rows, found by one Markowitz elimination."""
        self.rows: dict[int, Vec] = {}  # pivot col -> row, in elimination order
        self.tags: dict[int, Vec] = {}  # pivot col -> tag of the row, if any
        self._step: dict[int, int] = {}  # pivot col -> its place in that order
        self._order: list[int] = []  # place -> pivot col
        for p, row in _eliminate(rows):
            self._insert(p, row)

    def reduce(self, v: Vec, coords: Vec | None = None) -> Vec:
        """Remainder of v modulo the rows; it holds no pivot column.  For
        each c * row subtracted, c * (its tag) is added to coords if given."""
        out = {col: _exact(x) for col, x in v.items() if x}
        step = self._step
        todo = [step[col] for col in out if col in step]
        heapq.heapify(todo)
        while todo:
            p = self._order[heapq.heappop(todo)]
            c = out.get(p)
            if c is None:  # a repeated heap entry, already eliminated
                continue
            # the row at p holds no earlier pivot, so a pivot it brings in
            # comes after every one eliminated so far
            for col, x in self.rows[p].items():
                s = out.get(col, 0) - c * x
                if s:
                    if col not in out and col in step:
                        heapq.heappush(todo, step[col])
                    out[col] = s
                else:
                    del out[col]
            if coords is not None:
                for idx, x in self.tags.get(p, {}).items():
                    s = coords.get(idx, 0) + c * x
                    if s:
                        coords[idx] = s
                    else:
                        del coords[idx]
        return out

    def _insert(self, p: int, row: Vec, tag: Vec | None = None) -> None:
        """Store a reduced row with pivot p, scaled to 1 there."""
        row, tag = _scaled(row, p, tag)
        self._step[p] = len(self._order)
        self._order.append(p)
        self.rows[p] = row
        if tag:
            self.tags[p] = tag

    def add(self, v: Vec, tag: Vec | None = None) -> bool:
        """Reduce and insert; returns True if the vector was independent.
        A given tag is stored as (tag - coordinates picked up while
        reducing v), scaled like the row."""
        coords: Vec | None = None if tag is None else {}
        r = self.reduce(v, coords)
        if not r:
            return False
        self._insert(min(r), r, None if tag is None else vec_add(tag, coords, -1))
        return True

    @property
    def rank(self) -> int:
        return len(self.rows)

    def contains(self, v: Vec) -> bool:
        return not self.reduce(v)

    def pivots(self) -> set[int]:
        return set(self.rows)


def rank_of(rows: Iterable[Vec]) -> int:
    return len(_eliminate(rows))


def kernel_basis(rows: Iterable[Vec], ncols: int) -> list[Vec]:
    """Explicit basis of {x : Mx = 0}, one vector per non-pivot column, from
    the reduced row-echelon form of M."""
    rb = RowBasis(rows)
    rref = RowBasis()
    for p in reversed(rb._order):
        rref._insert(p, rref.reduce(rb.rows[p]))
    out: dict[int, Vec] = {}
    for p, row in rref.rows.items():
        for f, c in row.items():
            if f != p:
                out.setdefault(f, {f: 1})[p] = -c
    return [out.get(f) or {f: 1} for f in range(ncols) if f not in rref.rows]


class ClassTracker(RowBasis):
    """Subquotient bookkeeping: a row space of 'image' vectors plus chosen
    class representatives; express() writes any vector of the subspace
    spanned by (image + reps) in class coordinates.  Each row is tagged
    with its class coordinates modulo the image."""

    def __init__(self, images: Iterable[Vec] = ()):
        """A tracker whose image holds the given vectors (as add_image would
        insert them, but with one elimination) and no class yet."""
        super().__init__(images)
        self.n_classes = 0

    def add_image(self, v: Vec) -> bool:
        return self.add(v, {})

    def add_rep(self, v: Vec) -> int | None:
        """Insert v as a new class representative if independent; returns
        its class index or None."""
        if not self.add(v, {self.n_classes: 1}):
            return None
        self.n_classes += 1
        return self.n_classes - 1

    def express(self, v: Vec) -> dict[int, Fraction]:
        """Class coordinates of v; raises if v is not in the tracked span."""
        coords: dict[int, Fraction] = {}
        if self.reduce(v, coords):
            raise ValueError("vector lies outside the tracked subspace")
        return coords
