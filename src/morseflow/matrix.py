"""Sparse matrices indexed by generator identifiers over an exact ring.

Convention used throughout the package: chains are row vectors of
coefficients, and an operator given by the structure constants
g(c1, c2) sends the generator c1 to sum_{c2} g(c1, c2) * c2.  Applying an
operator is therefore right multiplication, x -> x . M, and the matrix of a
composition "first F then G" is Mat(F) . Mat(G).

Matrices are immutable values; every operation returns a fresh one.
"""

from typing import Dict, Iterable

from .errors import DimensionMismatch
from .rings import Ring


class SparseMatrix:
    __slots__ = ("ring", "rows", "cols", "entries", "_row_set", "_col_set")

    def __init__(self, ring: Ring, rows: Iterable, cols: Iterable, entries: Dict = None):
        self.ring = ring
        self.rows = tuple(rows)
        self.cols = tuple(cols)
        self._row_set = frozenset(self.rows)
        self._col_set = frozenset(self.cols)
        if len(self._row_set) != len(self.rows) or len(self._col_set) != len(self.cols):
            raise DimensionMismatch("duplicate generator identifiers in index set")
        clean = {}
        for (r, c), v in (entries or {}).items():
            if r not in self._row_set or c not in self._col_set:
                raise DimensionMismatch("entry (%r, %r) outside the declared index sets" % (r, c))
            v = ring.coerce(v)
            if v != ring.zero:
                clean[(r, c)] = v
        self.entries = clean

    # construction helpers

    @staticmethod
    def identity(ring, ids):
        ids = tuple(ids)
        return SparseMatrix(ring, ids, ids, {(i, i): ring.one for i in ids})

    @staticmethod
    def from_rows(ring, row_ids, col_ids, dense):
        """Build from a dense list of lists aligned with the given id orders."""
        ent = {}
        for i, r in enumerate(row_ids):
            for j, c in enumerate(col_ids):
                ent[(r, c)] = dense[i][j]
        return SparseMatrix(ring, row_ids, col_ids, ent)

    # access

    def entry(self, r, c):
        if r not in self._row_set or c not in self._col_set:
            raise DimensionMismatch("(%r, %r) outside the index sets" % (r, c))
        return self.entries.get((r, c), self.ring.zero)

    def items(self):
        """Nonzero entries in a deterministic order."""
        return sorted(self.entries.items(), key=lambda kv: (str(kv[0][0]), str(kv[0][1])))

    def is_zero(self):
        return not self.entries

    def is_square(self):
        return self._row_set == self._col_set

    def to_dense(self, row_order=None, col_order=None):
        row_order = self.rows if row_order is None else tuple(row_order)
        col_order = self.cols if col_order is None else tuple(col_order)
        z = self.ring.zero
        return [[self.entries.get((r, c), z) for c in col_order] for r in row_order]

    # arithmetic

    def _check_same_shape(self, other):
        if self.ring is not other.ring:
            raise DimensionMismatch("mixed coefficient rings")
        if self._row_set != other._row_set or self._col_set != other._col_set:
            raise DimensionMismatch("matrices indexed by different generator sets")

    def add(self, other):
        self._check_same_shape(other)
        ent = dict(self.entries)
        rg = self.ring
        for k, v in other.entries.items():
            ent[k] = rg.add(ent.get(k, rg.zero), v)
        return SparseMatrix(rg, self.rows, self.cols, ent)

    def sub(self, other):
        return self.add(other.scale(self.ring.coerce(-1)))

    def scale(self, k):
        rg = self.ring
        k = rg.coerce(k)
        return SparseMatrix(rg, self.rows, self.cols,
                            {key: rg.mul(k, v) for key, v in self.entries.items()})

    def neg(self):
        return self.scale(-1)

    def mul(self, other):
        """Matrix product; self.cols must equal other.rows as a set."""
        if self.ring is not other.ring:
            raise DimensionMismatch("mixed coefficient rings")
        if self._col_set != other._row_set:
            raise DimensionMismatch("inner index sets differ")
        rg = self.ring
        by_row = {}
        for (r, c), v in self.entries.items():
            by_row.setdefault(r, []).append((c, v))
        other_rows = {}
        for (r, c), v in other.entries.items():
            other_rows.setdefault(r, []).append((c, v))
        ent = {}
        for r, terms in by_row.items():
            acc = {}
            for mid, v in terms:
                for c, w in other_rows.get(mid, ()):
                    acc[c] = rg.add(acc.get(c, rg.zero), rg.mul(v, w))
            for c, total in acc.items():
                if total != rg.zero:
                    ent[(r, c)] = total
        return SparseMatrix(rg, self.rows, other.cols, ent)

    def transpose(self):
        return SparseMatrix(self.ring, self.cols, self.rows,
                            {(c, r): v for (r, c), v in self.entries.items()})

    def restrict(self, rows, cols=None):
        rows = tuple(rows)
        cols = rows if cols is None else tuple(cols)
        rs, cs = set(rows), set(cols)
        if not rs <= self._row_set or not cs <= self._col_set:
            raise DimensionMismatch("restriction outside the index sets")
        ent = {k: v for k, v in self.entries.items() if k[0] in rs and k[1] in cs}
        return SparseMatrix(self.ring, rows, cols, ent)

    def __eq__(self, other):
        if not isinstance(other, SparseMatrix):
            return NotImplemented
        return (self.ring is other.ring and self._row_set == other._row_set
                and self._col_set == other._col_set and self.entries == other.entries)

    def __hash__(self):
        return hash((self.ring.name, self._row_set, self._col_set,
                     frozenset(self.entries.items())))

    def __repr__(self):
        body = ", ".join("(%s,%s)=%s" % (r, c, v) for (r, c), v in self.items())
        return "SparseMatrix<%s %dx%d {%s}>" % (self.ring, len(self.rows), len(self.cols), body)


# chains as plain dicts {generator: coefficient}; helpers keep them normalized

def vec_clean(ring, x):
    return {g: ring.coerce(v) for g, v in x.items() if ring.coerce(v) != ring.zero}


def vec_apply(ring, x, m: SparseMatrix):
    """Row vector times matrix: the image of the chain x under the operator m."""
    out = {}
    for g, v in x.items():
        if g not in m._row_set:
            raise DimensionMismatch("chain mentions %r outside the operator domain" % (g,))
        for (r, c), w in m.entries.items():
            if r == g:
                out[c] = ring.add(out.get(c, ring.zero), ring.mul(v, w))
    return vec_clean(ring, out)
