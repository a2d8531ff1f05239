"""Exact linear algebra over the coefficient rings.

Contents: ungraded homology of a square differential (kernel modulo image,
computed in the row-vector convention of matrix.py), chain map and chain
homotopy verification, and one elimination rule for every ring:
ordered_echelon, an order-respecting echelon form built by reduce_against
(over the integers, a basis of the row lattice).  Ranks, least coset
representatives, the ladder's leg ranks and the invariant factors of the
Smith form all come from it; integer homology reads its torsion off the
boundary echelon's invariant factors, and skips that Smith pass when
every pivot is a unit, which proves there is no torsion (see homology).
A matrix keeps its homology: homology computes it once per matrix.

Every elimination of sparse entries enters through _echelon, the one
place that picks the row format.  Over Z2 its rows are bit rows: each
row is an int built from the entries, bit i standing for position i of
the order, and _bit_echelon eliminates by XOR with ordered_echelon's
pivot rule, the first nonzero position being the lowest set bit.  It
keeps the same vectors at the same pivots, so ranks and supports are
those of ordered_echelon.  Over Z and Q the rows are dense lists, run
through ordered_echelon and reduce_against.  homology, the coset
reduction (tracker._coset_minimize) and each ladder leg
(tracker._induced_rank) are its callers, so over Z2 every elimination
runs on bit rows.

Everything is exact; no floating point enters this module.
"""

from typing import Dict, List, NamedTuple, Tuple

from .errors import DimensionMismatch, NotADifferential
from .matrix import SparseMatrix
from .rings import Z, Z2, Ring


def invariant_factors(rows: List[List[int]]) -> List[int]:
    """Invariant factors of an integer matrix given as a list of int rows.

    Returns the nonzero diagonal of its Smith normal form as absolute
    values, a divisibility chain d1 | d2 | ... .  Echelon forms of the
    matrix and its transpose alternate (Kannan & Bachem, SIAM J. Comput.
    8(4), 1979), each pass taking ordered_echelon's rows sorted by pivot
    position, until every row has one nonzero entry; pairwise gcd and lcm
    then make that diagonal a chain.  Every step is unimodular (gcd
    combinations and exact subtractions on rows, and through the
    transpose on columns; diag(a, b) ~ diag(gcd, lcm)), so the Smith form
    is kept.  The loop ends: a pass leaves the gcd of the leading column
    as leading pivot, and the sort makes the leading row the next leading
    column, so the pivot strictly decreases until it divides its row; the
    next pass then clears its row and column, which split off untouched,
    and the same holds for the rest.  Unsorted, passes can cycle.
    """
    while True:
        pivots = ordered_echelon(Z, rows)
        rows = [pivots[p] for p in sorted(pivots)]
        if all(sum(1 for x in v if x) == 1 for v in rows):
            break
        rows = [list(col) for col in zip(*rows)]
    d = [abs(next(x for x in v if x)) for v in rows]
    for i in range(len(d)):
        for j in range(i + 1, len(d)):
            g = _xgcd(d[i], d[j])[0]
            d[i], d[j] = g, d[i] // g * d[j]
    return d


class HomologyResult(NamedTuple):
    """Isomorphism type of an ungraded homology module over a PID."""

    ring_name: str
    free_rank: int
    torsion: Tuple[int, ...] = ()

    def __str__(self):
        parts = []
        if self.free_rank:
            parts.append("free^%d" % self.free_rank)
        parts.extend("cyclic(%d)" % d for d in self.torsion)
        return "0" if not parts else " + ".join(parts)


def homology(boundary: SparseMatrix) -> HomologyResult:
    """Kernel modulo image of a differential on a single generator set.

    The operator sends x to x . boundary (row convention), so the cycle space
    is the left kernel and the boundary space is the row space.  Over a field
    of rank r on n generators the homology has dimension n - 2r.

    One ordered_echelon pass over the nonzero rows of the transposed
    matrix gives r on every ring.  A zero row reduces to zero and never
    pivots, so leaving the zero rows out leaves the pivots, and so the
    rank and the torsion, as they are.  Over the integers the r pivot
    rows are a basis of the boundary lattice, so their invariant factors
    d1 | ... | dr are the matrix's.
    Z^n / cycles is isomorphic to the boundary lattice, a subgroup of Z^n,
    so it is torsion free: the cycle lattice is saturated, and a chain of
    which a nonzero multiple is a cycle is itself a cycle.  So every torsion
    class of Z^n / boundaries is a cycle class, the torsion of cycles /
    boundaries is that of Z^n / boundaries, the cyclic groups of order
    di > 1, and the free rank is (n - r) - r.

    When every pivot is 1 or -1 the Smith pass is skipped: there is no
    torsion.  The pivot rows, cut to their pivot columns and sorted by
    pivot, form a triangular r x r block whose diagonal is the pivots,
    so its determinant is a unit.  That block is an r x r minor of the
    basis, so the r x r minors have gcd 1; the product d1 ... dr of the
    invariant factors is that gcd, so every di is 1.  The elimination
    is _echelon's, on bit rows over Z2.

    The result is kept on the matrix (matrix.py) and returned by every
    later call on it; a call that raises keeps nothing.
    """
    kept = boundary._homology
    if kept is not None:
        return kept
    if not boundary.is_square():
        raise DimensionMismatch("differential must be square on one generator set")
    if not boundary.mul(boundary).is_zero():
        raise NotADifferential("operator does not square to zero")
    ring = boundary.ring
    order = sorted(boundary.rows, key=str)
    # the rows of the transposed matrix: T x = 0 is the cycle condition
    pivots = _echelon(ring, boundary.transpose().entries, order)[0]
    rank = len(pivots)
    torsion = () if ring.is_field() or all(
        v[p] in (1, -1) for p, v in pivots.items()) else tuple(
        d for d in invariant_factors(list(pivots.values())) if d > 1)
    boundary._homology = res = HomologyResult(
        ring.name, len(order) - 2 * rank, torsion)
    return res


def is_chain_map(a: SparseMatrix, d_from: SparseMatrix, d_to: SparseMatrix) -> bool:
    """True iff applying d_from then a equals applying a then d_to.

    a maps the complex carrying d_from (indexed by a.rows) to the complex
    carrying d_to (indexed by a.cols); in the row convention the identity is
    the matrix equation d_from . a = a . d_to.
    """
    if not d_from.is_square() or not d_to.is_square():
        raise DimensionMismatch("differentials must be square")
    if a._row_set != d_from._row_set or a._col_set != d_to._row_set:
        raise DimensionMismatch("map does not connect the two complexes")
    return d_from.mul(a) == a.mul(d_to)


def _xgcd(a, b):
    x0, x1, y0, y1 = 1, 0, 0, 1
    while b:
        q, a, b = a // b, b, a % b
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    return a, x0, y0


def ordered_echelon(ring: Ring, vectors: List[List]) -> Dict[int, List]:
    """Echelonize vectors against a fixed position order.

    Returns {pivot position: vector} where each vector's topmost nonzero
    entry sits at its pivot position and all pivot positions are distinct.
    Each vector is reduced by reduce_against and kept at the position
    where it stops.  Over the integers a pivot that does not divide is
    replaced by a gcd combination (a unimodular 2x2 step), so the span is
    preserved as a lattice and membership tests against the result are
    exact.  As for reduce_against, entries must already be ring elements.
    """
    pivots: Dict[int, List] = {}
    for vec in vectors:
        v, top = reduce_against(ring, vec, pivots)
        while top in pivots:
            # over the integers: the pivot at top does not divide v there
            b = pivots[top]
            bt, vt = b[top], v[top]
            g, s, t = _xgcd(bt, vt)
            pivots[top] = [s * x + t * y for x, y in zip(b, v)]
            v, top = reduce_against(
                ring, [(bt // g) * y - (vt // g) * x for x, y in zip(b, v)],
                pivots)
        if top is not None:
            pivots[top] = v
    return pivots


def reduce_against(ring: Ring, vec: List, pivots: Dict[int, List]):
    """Clear vec from the top using an ordered echelon basis.

    Returns (reduced vector, blocked position).  blocked is None when the
    greedy reduction ran to completion; otherwise it is the first position
    whose coefficient cannot be cleared by the span (for the integers this
    certifies that no lattice element clears it, because pivots are unique
    per position and the triangular solve over the top block is forced).
    The entries of vec must already be elements of ring, as ring.coerce
    returns them; they are not coerced again.  A field step works in
    plain arithmetic and coerces each new entry once.
    """
    v, zero, field = list(vec), ring.zero, ring.is_field()
    top = 0
    while True:
        # a pivot row is zero before its pivot, so a step leaves the
        # entries before top zero: the scan resumes at top
        top = next((i for i in range(top, len(v)) if v[i] != zero), None)
        if top is None:
            return v, None
        b = pivots.get(top)
        if b is None:
            return v, top
        if field:
            f, coerce = v[top] * ring.invert(b[top]), ring.coerce
            v = [coerce(x - f * y) for x, y in zip(v, b)]
        else:
            if v[top] % b[top] != 0:
                return v, top
            q = v[top] // b[top]
            v = [x - q * y for x, y in zip(v, b)]


def _bit_echelon(rows, vec=0):
    """ordered_echelon(Z2, rows) and reduce_against of vec, on bit rows.

    A vector over Z2 is an int whose bit i is its entry at position i of
    the order, so its first nonzero position is its lowest set bit, and
    subtracting a multiple of a pivot row is XOR with it.  Each row is
    reduced while its lowest set bit has a pivot and kept at that bit,
    as ordered_echelon keeps it: the returned {pivot position: mask}
    holds the masks of ordered_echelon's vectors at the same positions.
    vec is then reduced the same way, as reduce_against does.  Returns
    (pivots, reduced vec).
    """
    pivots = {}
    for v in rows:
        while v:
            p = (v & -v).bit_length() - 1
            b = pivots.get(p)
            if b is None:
                pivots[p] = v
                break
            v ^= b
    while vec:
        b = pivots.get((vec & -vec).bit_length() - 1)
        if b is None:
            break
        vec ^= b
    return pivots, vec


def _echelon(ring, entries, order, vec=None):
    """ordered_echelon of the rows of entries, and the support of vec
    reduced against it: the one entry to elimination, and the one place
    that picks the row format.

    entries maps (row, column) to a nonzero element of ring, both in
    order; row g holds its entry at column c at position order.index(c),
    and the nonzero rows are taken in order.  vec, a chain {generator:
    element of ring} on order, is reduced as reduce_against reduces it.
    Returns (pivots, support): {pivot position: row}, as ordered_echelon
    returns it, and the generators, in order, on which the reduced vec
    is nonzero (() without vec).

    Over Z2 the rows are bit rows, bit i for order[i], eliminated by
    _bit_echelon: the same vectors, as masks, at the same pivots, so the
    pivot positions and the support are those of the dense lists.  Over
    Z and Q the rows are dense lists.
    """
    bits, hit = ring is Z2, {}
    # each row of entries in its format, by row generator
    if bits:
        # with no entries and no vec there is nothing to place
        bit = {g: 1 << i for i, g in enumerate(order)} if (
            entries or vec) else {}
        for g, c in entries:
            hit[g] = hit.get(g, 0) | bit[c]
    else:
        zero, pos = ring.zero, {g: i for i, g in enumerate(order)}
        for (g, c), x in entries.items():
            hit.setdefault(g, [zero] * len(order))[pos[c]] = x
    rows = [hit[g] for g in [c for c in order if c in hit]]
    if bits:
        pivots, reduced = _bit_echelon(
            rows, sum(bit[g] for g, x in vec.items() if x) if vec else 0)
        return pivots, tuple(
            g for g in order if reduced & bit[g]) if reduced else ()
    pivots = ordered_echelon(ring, rows)
    reduced = reduce_against(ring, [vec.get(g, zero) for g in order],
                             pivots)[0] if vec else ()
    return pivots, tuple(g for g, x in zip(order, reduced) if x != zero)
