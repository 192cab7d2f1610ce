"""The incremental elimination the tests compare the kernel with.

``SmallestPivotOracle`` is how ``rank_of`` and ``kernel_basis`` worked before
the Markowitz kernel: rows added one at a time, each reduced in column order
and pivoted at its smallest column, and the kernel read off the reduced
row-echelon form.  ``tests/test_linalg.py`` compares the kernel with it, and
``tests/test_groebner.py`` builds its Macaulay ideals with it.
"""

import heapq
from fractions import Fraction


class SmallestPivotOracle:
    """Semi-echelon rows keyed by their smallest column (coefficient 1)."""

    def __init__(self, rows=()):
        self.rows: dict[int, dict] = {}
        # shortest rows first: pivots and remainders do not depend on the
        # order, but the fill-in on the way does, by a factor of 100 on the
        # Koszul boundaries
        for r in sorted(rows, key=len):
            self.add(r)

    def reduce(self, v: dict) -> dict:
        out = {col: Fraction(x) for col, x in v.items() if x}
        # integral entries as ints, as in the kernel: still exact, and faster
        out = {col: x.numerator if x.denominator == 1 else x for col, x in out.items()}
        todo = [col for col in out if col in self.rows]
        heapq.heapify(todo)
        while todo:
            p = heapq.heappop(todo)
            c = out.get(p)
            if c is None:
                continue
            # a row holds only columns >= its pivot
            for col, x in self.rows[p].items():
                s = out.get(col, 0) - c * x
                if s:
                    if col not in out and col in self.rows:
                        heapq.heappush(todo, col)
                    out[col] = s
                else:
                    del out[col]
        return out

    def add(self, v: dict) -> None:
        r = self.reduce(v)
        if r:
            p = min(r)
            inv = r[p] if r[p] in (1, -1) else 1 / Fraction(r[p])
            self.rows[p] = {k: x * inv for k, x in r.items()}

    @property
    def rank(self) -> int:
        return len(self.rows)

    def contains(self, v: dict) -> bool:
        return not self.reduce(v)

    def kernel(self, ncols: int) -> list[dict]:
        rref = SmallestPivotOracle()
        for p in sorted(self.rows, reverse=True):
            rref.add(self.rows[p])
        return [
            {f: Fraction(1), **{p: -row[f] for p, row in rref.rows.items() if f in row}}
            for f in range(ncols) if f not in rref.rows
        ]
