"""Exact sparse linear algebra over Q.

Vectors are dicts {column index: rational}.  Elimination reads a matrix as
its rows; the maps the engine keeps are packed columns (row, value, row,
value, ...), read as ``it = iter(col); zip(it, it)``.  Entries are ints or
Fractions, and an integral entry is read as an int: the Koszul and
connection matrices are mostly +-1, and with +-1 pivots elimination then
stays in integer arithmetic.  Nothing is rounded and no modular image is
taken.  Normal forms in presented rings are not linear elimination: they
are division by a Gröbner basis (``homalg.GroebnerBasis``).

There is one elimination loop, ``_eliminate``: right-looking Gaussian
elimination of a whole matrix.  Fill-in, not the arithmetic of one entry,
is what exact elimination costs on these matrices, and its pivot rule
keeps it low.  First every one-entry row is a pivot: it costs nothing in
Markowitz's (r - 1)(c - 1) measure, its row is {c: 1}, and clearing c from
the other rows only deletes entries.  This goes in rounds, each taking its
columns in increasing order; rows left with one entry make the next round.
Then the rule is Markowitz's: take the column with the fewest entries among
the live rows, then the shortest live row in that column, and clear the
column from the other rows holding it.  A bucket queue on column counts
finds the column; its buckets move only for the pivot row's columns, the
only columns whose counts a step changes.  Ties go to the smallest column,
then to the row whose sorted entries are smallest, so the result depends on
the rows as a multiset, not on their order.

``rank_of`` counts the pivots.  ``rref`` back-substitutes the pivot rows
into reduced row-echelon form on those pivot columns (not the leading
columns), and all work on single vectors reads coordinates off that form:
``kernel_basis`` gives one kernel vector per free column, and
``ClassTracker`` projects a kernel vector onto the classes of a quotient by
an image.
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from itertools import chain
from typing import Iterable, Mapping


Vec = dict  # {col: int or Fraction}


def _exact(x):
    """x as an int if it is integral, else as a Fraction: the one form of an
    exact value, shared by vectors, polynomials and Gröbner bases."""
    if x.__class__ is int:
        return x
    if x.__class__ is not Fraction:
        x = Fraction(x)
    return x.numerator if x.denominator == 1 else x


def _scaled(row: dict, p) -> dict:
    """row divided by its entry at key p."""
    x = row[p]
    inv = x if x in (1, -1) else 1 / Fraction(x)
    return {k: _exact(y * inv) for k, y in row.items()}


def _eliminate(rows: Iterable[Vec]) -> list[tuple[int, Vec]]:
    """Singleton pivots, then Markowitz elimination of the rest.  Returns
    (pivot column, row scaled to 1 there) per pivot, in elimination order;
    no row holds the pivot of an earlier one."""
    live: dict[int, Vec] = {}
    where: dict[int, set[int]] = {}  # column -> live rows holding it
    for i, r in enumerate(rows):
        r = {c: x if x.__class__ is int else _exact(x) for c, x in r.items() if x}
        if r:
            live[i] = r
            for c in r:
                where.setdefault(c, set()).add(i)
    out = []
    # one-entry rows first, in rounds: each is {c: 1}, and clearing c from
    # the other rows only deletes entries
    single = [i for i, r in live.items() if len(r) == 1]
    while single:
        nxt = []
        for c in sorted({next(iter(live[i])) for i in single if i in live}):
            for j in where.pop(c):
                row = live[j]
                del row[c]
                if not row:
                    del live[j]
                elif len(row) == 1:
                    nxt.append(j)
            out.append((c, {c: 1}))
        single = nxt
    # count -> heap of columns; an entry is stale once its column's count moved
    bucket: list[list[int]] = [[] for _ in range(len(live) + 1)]
    for c, holders in where.items():
        bucket[len(holders)].append(c)
    for b in bucket:
        heapq.heapify(b)
    low = 1
    while live:
        while True:
            while not bucket[low]:
                low += 1
            c = heapq.heappop(bucket[low])
            if len(where.get(c, ())) == low:
                break
        holders = where.pop(c)
        short = min(len(live[j]) for j in holders)
        tied = [j for j in holders if len(live[j]) == short]
        i = tied[0] if len(tied) == 1 else min(tied, key=lambda j: sorted(live[j].items()))
        holders.discard(i)
        prow = live.pop(i)
        x = prow[c]
        if x == -1:
            prow = {k: -y for k, y in prow.items()}
        elif x != 1:
            prow = _scaled(prow, c)
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
                if new:
                    heapq.heappush(bucket[new], col)
                    low = min(low, new)
                else:
                    del where[col]
        prow[c] = 1
        out.append((c, prow))
    return out


def rank_of(rows: Iterable[Vec]) -> int:
    return len(_eliminate(rows))


def rref(rows: Iterable[Vec]) -> dict[int, Vec]:
    """Reduced row-echelon form on the pivots of ``_eliminate``: {pivot
    column: row}, each row 1 at its pivot and 0 at every other pivot."""
    out: dict[int, Vec] = {}
    # a row holds no earlier pivot, and the later rows are already reduced,
    # so clearing its later pivots with them brings in no pivot
    for p, row in reversed(_eliminate(rows)):
        for q in [q for q in row if q in out]:
            f = row[q]
            for col, y in out[q].items():
                s = row.get(col, 0) - f * y
                if s:
                    row[col] = s
                else:
                    del row[col]
        out[p] = row
    return out


def _kernel(form: dict[int, Vec], ncols: int) -> dict[int, Vec]:
    """{free column f: the kernel vector that is 1 at f and 0 at the other
    free columns} of a matrix with reduced row-echelon form ``form``."""
    out = {f: {f: 1} for f in range(ncols) if f not in form}
    for p, row in form.items():
        for f, x in row.items():
            if f != p:
                out[f][p] = -x
    return out


def kernel_basis(rows: Iterable[Vec], ncols: int) -> list[Vec]:
    """Explicit basis of {x : Mx = 0}, one vector per free column of the
    reduced row-echelon form of M."""
    return list(_kernel(rref(rows), ncols).values())


class ClassTracker:
    """ker(M) / span(images) for a matrix M with ncols columns, given by its
    rows {row index: row vector}, and image vectors that M sends to zero.

    A kernel vector is fixed by its entries on the free columns of M.  The
    images, cut down to those columns, are put in reduced row-echelon form;
    the free columns that are not its pivots index the classes, and
    ``reps[j]`` is the kernel vector of the j-th of them.  The rows are not
    kept: M is held once, as its ``rank`` and its packed columns {column:
    (row, entry, ...)} (``columns``, the images that M makes).  ``express``
    checks membership on those and reads class coordinates through one
    stored projection, packed the same way."""

    def __init__(self, rows: Mapping[int, Vec] = {}, images: Iterable[Vec] = (), ncols: int = 0):
        self.ncols = ncols
        cols: dict[int, list] = {}
        for i, r in rows.items():
            for c, x in r.items():
                if x:
                    cols.setdefault(c, []).extend((i, _exact(x)))
        self.columns = {c: tuple(col) for c, col in cols.items()}
        form = rref(rows.values())
        self.rank = len(form)
        kernel = _kernel(form, ncols)
        image = rref({c: x for c, x in v.items() if c in kernel} for v in images)
        classes = [f for f in kernel if f not in image]
        self.reps = [kernel[f] for f in classes]
        self.n_classes = len(classes)
        index = {f: j for j, f in enumerate(classes)}
        self._proj = {f: (j, 1) for f, j in index.items()}
        for q, row in image.items():
            self._proj[q] = tuple(chain.from_iterable(
                (index[f], -x) for f, x in row.items() if f != q))

    def express(self, v: Vec) -> dict[int, Fraction]:
        """Class coordinates of v; raises unless v is a vector on the ncols
        columns that M sends to zero."""
        image: dict[int, Fraction] = {}
        coords: dict[int, Fraction] = {}
        for c, x in v.items():
            if not x:
                continue
            if not 0 <= c < self.ncols:
                raise ValueError(f"column {c} lies outside the tracked space")
            it = iter(self.columns.get(c, ()))
            for i, y in zip(it, it):
                image[i] = image.get(i, 0) + x * y
            it = iter(self._proj.get(c, ()))
            for j, y in zip(it, it):
                coords[j] = coords.get(j, 0) + x * y
        if any(image.values()):
            raise ValueError("vector lies outside the tracked subspace")
        return {j: x for j, x in coords.items() if x}
