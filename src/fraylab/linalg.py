"""Exact sparse linear algebra over Q.

Vectors are dicts {column index: Fraction}; matrices are lists of row
vectors.  There is one elimination loop, ``RowBasis.reduce``; the callers
keep dimensions small by working one graded piece at a time.

A ``RowBasis`` keeps its rows in semi-echelon form: each row is keyed by
its smallest column (its pivot, with coefficient 1), and no row holds the
pivot of an earlier one.  Reduction eliminates the smallest pivot column
present at each step, so the pivot set and the remainder of a vector
depend only on the row space, not on the order the rows were added.  A row
may carry tag coordinates, which every elimination adds along with the
row; ``ClassTracker`` uses them for class coordinates.  Reduced row-echelon
form is formed only inside ``kernel_basis``, through ``interreduce``.
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from typing import Iterable


Vec = dict  # {col: Fraction}


def vec_add(v: Vec, w: Vec, c: Fraction) -> Vec:
    """v + c*w."""
    out = dict(v)
    for k, x in w.items():
        s = out.get(k, Fraction(0)) + c * x
        if s:
            out[k] = s
        else:
            out.pop(k, None)
    return out


class RowBasis:
    """A semi-echelon family of vectors supporting reduction and membership."""

    def __init__(self):
        self.rows: dict[int, Vec] = {}  # pivot col -> row (pivot coeff 1)
        self.tags: dict[int, Vec] = {}  # pivot col -> tag of the row, if any

    def reduce(self, v: Vec, coords: Vec | None = None) -> Vec:
        """Remainder of v modulo the rows; it holds no pivot column.  For
        each c * row subtracted, c * (its tag) is added to coords if given."""
        out = {col: x for col, x in v.items() if x}
        todo = [col for col in out if col in self.rows]
        heapq.heapify(todo)
        while todo:
            p = heapq.heappop(todo)
            c = out.get(p)
            if c is None:  # a repeated heap entry, already eliminated
                continue
            # the row at p holds only columns >= p, so a column it brings in
            # is larger than every pivot eliminated so far
            for col, x in self.rows[p].items():
                s = out.get(col, 0) - c * x
                if s:
                    if col not in out and col in self.rows:
                        heapq.heappush(todo, col)
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

    def add(self, v: Vec, tag: Vec | None = None) -> bool:
        """Reduce and insert; returns True if the vector was independent.
        A given tag is stored as (tag - coordinates picked up while
        reducing v), scaled like the row."""
        coords: Vec | None = None if tag is None else {}
        r = self.reduce(v, coords)
        if not r:
            return False
        p = min(r)
        inv = 1 / Fraction(r[p])
        self.rows[p] = {k: x * inv for k, x in r.items()}
        if tag is not None:
            t = vec_add(tag, coords, Fraction(-1))
            if t:
                self.tags[p] = {k: x * inv for k, x in t.items()}
        return True

    @property
    def rank(self) -> int:
        return len(self.rows)

    def contains(self, v: Vec) -> bool:
        return not self.reduce(v)

    def pivots(self) -> set[int]:
        return set(self.rows)

    def interreduce(self) -> None:
        """Bring the rows to reduced row-echelon form."""
        # re-adding the rows from the largest pivot down clears every other
        # pivot column from each, using rows that are already cleared
        for p in sorted(self.rows, reverse=True):
            self.add(self.rows.pop(p), self.tags.pop(p, {}))


def rank_of(rows: Iterable[Vec]) -> int:
    rb = RowBasis()
    for r in rows:
        rb.add(r)
    return rb.rank


def kernel_basis(rows: Iterable[Vec], ncols: int) -> list[Vec]:
    """Explicit basis of {x : Mx = 0} from the RREF of M."""
    rb = RowBasis()
    for r in rows:
        rb.add(r)
    rb.interreduce()
    pivots = rb.pivots()
    out: list[Vec] = []
    for f in range(ncols):
        if f in pivots:
            continue
        v: Vec = {f: Fraction(1)}
        for p, row in rb.rows.items():
            c = row.get(f)
            if c:
                v[p] = -c
        out.append(v)
    return out


class ClassTracker(RowBasis):
    """Subquotient bookkeeping: a row space of 'image' vectors plus chosen
    class representatives; express() writes any vector of the subspace
    spanned by (image + reps) in class coordinates.  Each row is tagged
    with its class coordinates modulo the image."""

    def __init__(self):
        super().__init__()
        self.n_classes = 0

    def add_image(self, v: Vec) -> bool:
        return self.add(v, {})

    def add_rep(self, v: Vec) -> int | None:
        """Insert v as a new class representative if independent; returns
        its class index or None."""
        if not self.add(v, {self.n_classes: Fraction(1)}):
            return None
        self.n_classes += 1
        return self.n_classes - 1

    def express(self, v: Vec) -> dict[int, Fraction]:
        """Class coordinates of v; raises if v is not in the tracked span."""
        coords: dict[int, Fraction] = {}
        if self.reduce(v, coords):
            raise ValueError("vector lies outside the tracked subspace")
        return coords
