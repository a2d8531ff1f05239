"""Sparse matrices indexed by generator identifiers over an exact ring.

Convention used throughout the package: chains are row vectors of
coefficients, and an operator given by the structure constants
g(c1, c2) sends the generator c1 to sum_{c2} g(c1, c2) * c2.  Applying an
operator is therefore right multiplication, x -> x . M, and the matrix of a
composition "first F then G" is Mat(F) . Mat(G).

Matrices are immutable values; every operation returns a fresh one.  The
public constructor validates what it is given: index sets without
duplicates, entries inside them, each value coerced into the ring and
zeros dropped.  The results of the operations (products, sums,
differences, scalings, transposes, restrictions, identities) are built
by one private constructor without those checks: their entries are
already nonzero ring elements inside index sets the operands fixed.
Restriction and the identity still reject duplicate identifiers, and a
sum or difference drops the entries that cancel.

Coercion happens once per result entry.  A product, sum, difference or
scaling adds up each entry of its result in the plain arithmetic of the
operands' elements (int over Z2 and Z, Fraction over Q), coerces that
sum into the ring once and drops it if it is zero, as vec_apply does for
a chain; the ring's add, sub and mul methods are not called per term.
Reducing mod 2 commutes with sums and products, and Z and Q are exact,
so each entry is the one the ring's operations would give.  A product
walks self's entries once, so its entries may come in another order
than an operand's.  Nothing reads that order: items() and the scenario
writer sort, and == and hash() compare the entries as a mapping.

A matrix keeps its homology.  algebra.homology stores its result in the
private slot _homology the first time a matrix is asked, and returns
that object on every later call; a call that raises stores nothing.
The kept result cannot go stale, since nothing writes a matrix's
entries after construction, and every matrix starts with none: one
the public constructor builds, and every result of an operation,
whatever its operands keep.
"""

import operator
from typing import Dict, Iterable

from .errors import DimensionMismatch
from .rings import Ring


class SparseMatrix:
    __slots__ = ("ring", "rows", "cols", "entries", "_row_set", "_col_set",
                 "_homology")

    def __init__(self, ring: Ring, rows: Iterable, cols: Iterable, entries: Dict = None):
        self.ring = ring
        self.rows, self._row_set = self._index(rows)
        self.cols, self._col_set = self._index(cols)
        clean = {}
        for (r, c), v in (entries or {}).items():
            if r not in self._row_set or c not in self._col_set:
                raise DimensionMismatch("entry (%r, %r) outside the declared index sets" % (r, c))
            v = ring.coerce(v)
            if v != ring.zero:
                clean[(r, c)] = v
        self.entries = clean
        self._homology = None

    @classmethod
    def _result(cls, ring, rows, cols, row_set, col_set, entries):
        """A matrix built without checks, for results of the operations
        below: rows and cols are tuples with the frozensets row_set and
        col_set, and entries holds nonzero elements of ring inside them."""
        m = cls.__new__(cls)
        m.ring, m.rows, m.cols = ring, rows, cols
        m._row_set, m._col_set, m.entries = row_set, col_set, entries
        m._homology = None
        return m

    @staticmethod
    def _index(ids):
        ids = tuple(ids)
        ids_set = frozenset(ids)
        if len(ids_set) != len(ids):
            raise DimensionMismatch("duplicate generator identifiers in index set")
        return ids, ids_set

    # construction helpers

    @staticmethod
    def identity(ring, ids):
        ids, ids_set = SparseMatrix._index(ids)
        one = ring.one
        return SparseMatrix._result(ring, ids, ids, ids_set, ids_set,
                                    {(i, i): one for i in ids})

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

    def _like(self, entries):
        return SparseMatrix._result(self.ring, self.rows, self.cols,
                                    self._row_set, self._col_set, entries)

    def _combine(self, other, op):
        """Entrywise op (operator.add or operator.sub) of two matrices of
        one shape: each entry other touches is summed in plain arithmetic
        and coerced once, and the entries that cancel are dropped."""
        self._check_same_shape(other)
        ent = dict(self.entries)
        coerce, zero = self.ring.coerce, self.ring.zero
        for k, v in other.entries.items():
            x = coerce(op(ent.get(k, 0), v))
            if x != zero:
                ent[k] = x
            else:
                ent.pop(k, None)
        return self._like(ent)

    def add(self, other):
        return self._combine(other, operator.add)

    def sub(self, other):
        return self._combine(other, operator.sub)

    def scale(self, k):
        rg = self.ring
        coerce, zero = rg.coerce, rg.zero
        k = coerce(k)
        ent = {}
        for key, v in self.entries.items():
            x = coerce(k * v)
            if x != zero:
                ent[key] = x
        return self._like(ent)

    def neg(self):
        return self.scale(-1)

    def mul(self, other):
        """Matrix product; self.cols must equal other.rows as a set.

        One walk over self's entries: each term adds v * w to the plain
        sum of its result entry, and each sum is coerced once."""
        if self.ring is not other.ring:
            raise DimensionMismatch("mixed coefficient rings")
        if self._col_set != other._row_set:
            raise DimensionMismatch("inner index sets differ")
        rg = self.ring
        if not self.entries or not other.entries:
            return SparseMatrix._result(rg, self.rows, other.cols,
                                        self._row_set, other._col_set, {})
        other_rows = {}
        for (r, c), v in other.entries.items():
            other_rows.setdefault(r, []).append((c, v))
        sums = {}
        get = sums.get
        for (r, mid), v in self.entries.items():
            for c, w in other_rows.get(mid, ()):
                k = (r, c)
                sums[k] = get(k, 0) + v * w
        coerce, zero = rg.coerce, rg.zero
        ent = {}
        for k, total in sums.items():
            x = coerce(total)
            if x != zero:
                ent[k] = x
        return SparseMatrix._result(rg, self.rows, other.cols,
                                    self._row_set, other._col_set, ent)

    def transpose(self):
        return SparseMatrix._result(
            self.ring, self.cols, self.rows, self._col_set, self._row_set,
            {(c, r): v for (r, c), v in self.entries.items()})

    def restrict(self, rows, cols=None):
        rows, rs = self._index(rows)
        cols, cs = (rows, rs) if cols is None else self._index(cols)
        if not rs <= self._row_set or not cs <= self._col_set:
            raise DimensionMismatch("restriction outside the index sets")
        ent = {k: v for k, v in self.entries.items() if k[0] in rs and k[1] in cs}
        return SparseMatrix._result(self.ring, rows, cols, rs, cs, ent)

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

def vec_apply(ring, x, m: SparseMatrix):
    """Row vector times matrix: the image of the chain x under the operator
    m, in one walk over m's entries, each sum coerced into the ring once."""
    for g in x:
        if g not in m._row_set:
            raise DimensionMismatch("chain mentions %r outside the operator domain" % (g,))
    sums = {}
    for (r, c), w in m.entries.items():
        v = x.get(r)
        if v is not None:
            sums[c] = sums.get(c, 0) + v * w
    out = {c: ring.coerce(v) for c, v in sums.items()}
    return {c: v for c, v in out.items() if v != ring.zero}
