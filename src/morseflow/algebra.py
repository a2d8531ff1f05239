"""Exact linear algebra over the coefficient rings.

Contents: Smith normal form over the integers with unimodular transforms,
ungraded homology of a square differential (kernel modulo image, computed in
the row-vector convention of matrix.py), chain map and chain homotopy
verification, and one elimination routine: ordered_echelon, an
order-respecting echelon form built by reduce_against.  Over a field every
rank, cycle basis (left_kernel_basis) and least coset representative comes
from it; the Smith form is kept for torsion over the integers.

Everything is exact; no floating point enters this module.
"""

from dataclasses import dataclass
from typing import Dict, List, Tuple

from .errors import DimensionMismatch, NotADifferential
from .matrix import SparseMatrix
from .rings import Z, Ring


def _ident(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def _matmul(a, b):
    rows, inner, cols = len(a), len(b), len(b[0]) if b else 0
    out = [[0] * cols for _ in range(rows)]
    for i in range(rows):
        ai = a[i]
        oi = out[i]
        for k in range(inner):
            v = ai[k]
            if v:
                bk = b[k]
                for j in range(cols):
                    oi[j] += v * bk[j]
    return out


def _snf_dense(a):
    """Diagonalize an integer matrix in place.

    Returns (U, V, Vinv) with U . a_original . V equal to the final a, the
    diagonal entries nonnegative and forming a divisibility chain.  Pivoting
    always picks the smallest nonzero magnitude in the trailing submatrix.
    """
    m = len(a)
    n = len(a[0]) if m else 0
    U, V, Vi = _ident(m), _ident(n), _ident(n)

    def row_swap(i, j):
        a[i], a[j] = a[j], a[i]
        U[i], U[j] = U[j], U[i]

    def row_add(i, j, q):
        ai, aj = a[i], a[j]
        for k in range(n):
            ai[k] += q * aj[k]
        ui, uj = U[i], U[j]
        for k in range(m):
            ui[k] += q * uj[k]

    def row_neg(i):
        a[i] = [-x for x in a[i]]
        U[i] = [-x for x in U[i]]

    def col_swap(i, j):
        for r in a:
            r[i], r[j] = r[j], r[i]
        for r in V:
            r[i], r[j] = r[j], r[i]
        Vi[i], Vi[j] = Vi[j], Vi[i]

    def col_add(i, j, q):
        # col_i += q * col_j; the inverse transform acts on Vi rows
        for r in a:
            r[i] += q * r[j]
        for r in V:
            r[i] += q * r[j]
        vij, vii = Vi[j], Vi[i]
        for k in range(n):
            vij[k] -= q * vii[k]

    t = 0
    dim = min(m, n)
    while t < dim:
        best = None
        for i in range(t, m):
            for j in range(t, n):
                x = a[i][j]
                if x and (best is None or abs(x) < abs(a[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        if best[0] != t:
            row_swap(best[0], t)
        if best[1] != t:
            col_swap(best[1], t)
        dirty = True
        while dirty:
            dirty = False
            for i in range(t + 1, m):
                if a[i][t]:
                    row_add(i, t, -(a[i][t] // a[t][t]))
                    if a[i][t]:
                        row_swap(i, t)
                        dirty = True
            for j in range(t + 1, n):
                if a[t][j]:
                    col_add(j, t, -(a[t][j] // a[t][t]))
                    if a[t][j]:
                        col_swap(j, t)
                        dirty = True
        p = a[t][t]
        offender = None
        for i in range(t + 1, m):
            if any(a[i][j] % p for j in range(t + 1, n)):
                offender = i
                break
        if offender is not None:
            # fold the offending row in so the pivot shrinks to a gcd
            row_add(t, offender, 1)
            continue
        t += 1
    for k in range(dim):
        if a[k][k] < 0:
            row_neg(k)
    return U, V, Vi


def smith_normal_form(m: SparseMatrix):
    """Smith normal form over the integers.

    Returns (u, s, v) with u . m . v = s, u and v unimodular, s diagonal with
    nonnegative entries d1 | d2 | ... .
    """
    if m.ring is not Z:
        raise DimensionMismatch("Smith normal form requires integer coefficients")
    rows, cols = m.rows, m.cols
    dense = [[int(x) for x in row] for row in m.to_dense(rows, cols)]
    U, V, _ = _snf_dense(dense)
    u = SparseMatrix.from_rows(Z, rows, rows, U)
    v = SparseMatrix.from_rows(Z, cols, cols, V)
    s = SparseMatrix.from_rows(Z, rows, cols, dense)
    return u, s, v


@dataclass(frozen=True)
class HomologyResult:
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
    is the left kernel and the boundary space is the row space.  Over the
    integers the torsion comes from the Smith form of the image expressed in
    a basis of the (saturated) kernel.
    """
    if not boundary.is_square():
        raise DimensionMismatch("differential must be square on one generator set")
    if not boundary.mul(boundary).is_zero():
        raise NotADifferential("operator does not square to zero")
    ring = boundary.ring
    order = sorted(boundary.rows, key=str)
    n = len(order)
    if n == 0:
        return HomologyResult(ring.name, 0, ())
    # column convention for the computation: T x = 0 is the cycle condition
    t_dense = boundary.transpose().to_dense(order, order)
    if ring.is_field():
        r = len(ordered_echelon(ring, t_dense))
        return HomologyResult(ring.name, n - 2 * r, ())
    if ring is not Z:
        raise DimensionMismatch("unsupported coefficient ring %r" % (ring,))
    work = [[int(x) for x in row] for row in t_dense]
    _, _, Vi = _snf_dense(work)
    zero_positions = [j for j in range(n) if work[j][j] == 0]
    t_orig = [[int(x) for x in row] for row in t_dense]
    coords = _matmul(Vi, t_orig)
    x = [coords[j] for j in zero_positions]
    if not x:
        return HomologyResult(ring.name, 0, ())
    _snf_dense(x)
    diag = [x[i][i] for i in range(min(len(x), len(x[0])))]
    nonzero = [d for d in diag if d != 0]
    torsion = tuple(d for d in nonzero if d != 1)
    return HomologyResult(ring.name, len(zero_positions) - len(nonzero), torsion)


def is_chain_map(a: SparseMatrix, d_from: SparseMatrix, d_to: SparseMatrix) -> bool:
    """True iff applying d_from then a equals applying a then d_to.

    a maps the complex carrying d_from (indexed by a.rows) to the complex
    carrying d_to (indexed by a.cols); in the row convention the identity is
    the matrix equation d_from . a = a . d_to.
    """
    if not d_from.is_square() or not d_to.is_square():
        raise DimensionMismatch("differentials must be square")
    if set(a.rows) != set(d_from.rows) or set(a.cols) != set(d_to.rows):
        raise DimensionMismatch("map does not connect the two complexes")
    return d_from.mul(a) == a.mul(d_to)


def is_chain_homotopy(d: SparseMatrix, h: SparseMatrix, lhs: SparseMatrix) -> bool:
    """True iff d . h + h . d equals lhs, all on one generator set."""
    if not d.is_square() or not h.is_square():
        raise DimensionMismatch("homotopy data must be square")
    if set(d.rows) != set(h.rows) or set(lhs.rows) != set(d.rows) or not lhs.is_square():
        raise DimensionMismatch("index sets differ")
    return d.mul(h).add(h.mul(d)) == lhs


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
    and the ring's operations return them; they are not coerced again.
    """
    v, zero = list(vec), ring.zero
    while True:
        top = next((i for i, x in enumerate(v) if x != zero), None)
        if top is None:
            return v, None
        b = pivots.get(top)
        if b is None:
            return v, top
        if ring.is_field():
            f = ring.mul(v[top], ring.invert(b[top]))
            v = [ring.sub(x, ring.mul(f, y)) for x, y in zip(v, b)]
        else:
            if v[top] % b[top] != 0:
                return v, top
            q = v[top] // b[top]
            v = [x - q * y for x, y in zip(v, b)]


def left_kernel_basis(mat: SparseMatrix, order: List) -> List[List]:
    """Basis of the cycle space {x : x . mat = 0}.

    The rows of [mat | I] are echelonized; those whose pivot lies in the
    identity block have a zero mat part, and cut to that block they are
    the basis.  Vectors are dense lists aligned with the given order.
    """
    ring, n = mat.ring, len(order)
    rows = mat.to_dense(order, order)
    for i, row in enumerate(rows):
        row.extend(ring.one if j == i else ring.zero for j in range(n))
    return [v[n:] for p, v in sorted(ordered_echelon(ring, rows).items())
            if p >= n]
