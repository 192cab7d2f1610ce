"""The exterior-subset Koszul complex the tests compare Tor with.

``SubsetKoszul`` is how ``hochschild`` built Tor before it became the
unrolled homology of a one-object curved complex (``hochschild.koszul``):
the complex M (x) Lambda(dual generators) laid out block by block over the
subsets E of the operators, in ``itertools.combinations`` order, with the
contraction differential written straight from the operators'
multiplication matrices.  ``tests/test_hochschild.py`` compares the
product's boundaries and Tor dimensions with it.
"""

import itertools

from fraylab.linalg import rank_of


class SubsetKoszul:
    """Tor of one ring with respect to operators [(xi, natural degree)]."""

    def __init__(self, ring, ops):
        self.ring = ring
        self.ops = ops

    def layout(self, i: int, d: int):
        """([(E, local degree, offset, dim)] over the i-subsets E, total dim)."""
        if i < 0 or i > len(self.ops) or d < 0:
            return [], 0
        blocks, off = [], 0
        for E in itertools.combinations(range(len(self.ops)), i):
            local = d - sum(self.ops[e][1] for e in E)
            dim = self.ring.dim(local) if local >= 0 else 0
            blocks.append((E, local, off, dim))
            off += dim
        return blocks, off

    def boundary(self, i: int, d: int) -> dict[int, dict]:
        """The contraction differential (i, d) -> (i-1, d) as
        {row index: row vector}."""
        if i <= 0:
            return {}
        tgt_off = {E: off for E, _, off, _ in self.layout(i - 1, d)[0]}
        rows: dict[int, dict] = {}
        for E, local, coff, dim in self.layout(i, d)[0]:
            if not dim:
                continue
            for pos, e in enumerate(E):
                xi = self.ops[e][0]
                if xi.is_zero():
                    continue
                roff = tgt_off[tuple(x for x in E if x != e)]
                for cc, col in enumerate(self.ring.mult_matrix(xi, local)):
                    it = iter(col)
                    for rr, val in zip(it, it):
                        row = rows.setdefault(rr + roff, {})
                        v = row.get(cc + coff, 0) + (-1) ** pos * val
                        if v:
                            row[cc + coff] = v
                        else:
                            row.pop(cc + coff, None)
        return {r: row for r, row in rows.items() if row}

    def dims(self, i: int, d: int) -> int:
        """dim Tor_i at natural q-degree d."""
        n = self.layout(i, d)[1]
        if not n:
            return 0
        out, into = self.boundary(i, d), self.boundary(i + 1, d)
        return n - (rank_of(out.values()) if out else 0) - (rank_of(into.values()) if into else 0)
