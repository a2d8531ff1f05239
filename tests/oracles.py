"""Independent brute-force oracles used to freeze expected values.

Nothing here shares code paths with the package: determinants come from
Bareiss elimination, invariant factors from gcds of minors, and the mod-2
homology and spectral oracles enumerate entire subspaces as bitmask sets.
"""

import itertools
from fractions import Fraction
from math import gcd


def det_bareiss(a):
    """Exact determinant of an integer matrix (fraction-free elimination)."""
    n = len(a)
    if n == 0:
        return 1
    m = [list(map(int, row)) for row in a]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            piv = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
            if piv is None:
                return 0
            m[k], m[piv] = m[piv], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def determinantal_divisors(a):
    """Invariant factors of an integer matrix via gcds of k x k minors.

    This characterization (d_k = D_k / D_{k-1} with D_k the gcd of all k x k
    minors) is independent of any reduction algorithm.
    """
    rows = len(a)
    cols = len(a[0]) if rows else 0
    out = []
    prev = 1
    for k in range(1, min(rows, cols) + 1):
        g = 0
        for ri in itertools.combinations(range(rows), k):
            for ci in itertools.combinations(range(cols), k):
                sub = [[a[i][j] for j in ci] for i in ri]
                g = gcd(g, abs(det_bareiss(sub)))
        if g == 0:
            break
        out.append(g // prev)
        prev = g
    return out


def top_determinantal_divisors(a):
    """(D_{n-1}, D_n) of a square integer matrix on n >= 1 rows: the gcd
    of its (n-1) x (n-1) minors and the absolute value of its determinant,
    each minor by det_bareiss.  Where D_n is nonzero, the invariant
    factors multiply to D_n and the last is D_n / D_{n-1}.  Unlike
    determinantal_divisors it takes n^2 + 1 determinants, not every
    minor of every size."""
    n = len(a)
    g = 0
    for i in range(n):
        for j in range(n):
            g = gcd(g, abs(det_bareiss([row[:j] + row[j + 1:]
                                        for k, row in enumerate(a) if k != i])))
    return g, abs(det_bareiss(a))


def units_mod2(vec_bits, n):
    return [(vec_bits >> i) & 1 for i in range(n)]


def z2_matrix_to_rowmasks(dense):
    """Row bitmasks of a dense 0/1 matrix; bit j of mask i is entry (i, j)."""
    return [sum((int(x) & 1) << j for j, x in enumerate(row)) for row in dense]


def z2_apply(x_bits, rowmasks):
    """Row vector times matrix over Z2, all as bitmasks."""
    out = 0
    i = 0
    y = x_bits
    while y:
        if y & 1:
            out ^= rowmasks[i]
        y >>= 1
        i += 1
    return out


def z2_cycles(rowmasks, n):
    return [x for x in range(1 << n) if z2_apply(x, rowmasks) == 0]


def z2_boundaries(rowmasks, n):
    return sorted({z2_apply(x, rowmasks) for x in range(1 << n)})


def z2_homology_rank(dense):
    """dim ker - dim im over Z2 by full enumeration."""
    n = len(dense)
    rm = z2_matrix_to_rowmasks(dense)
    ker = len(z2_cycles(rm, n))
    im = len(z2_boundaries(rm, n))
    rank = 0
    q = ker // im
    while q > 1:
        q //= 2
        rank += 1
    return rank


def z2_induced_rank(d_from, d_to, f):
    """Rank over Z2 of the map a chain map f induces on homology.

    f(Z) and B are subspaces, Z the cycles of d_from and B the boundaries
    of d_to, so 2^rank = |f(Z) + B| / |B| = |f(Z)| / |f(Z) & B|; all are
    enumerated.  Dense 0/1 matrices in the row convention: f[i] is the
    image of generator i of the source.
    """
    fm = z2_matrix_to_rowmasks(f)
    images = {z2_apply(z, fm)
              for z in z2_cycles(z2_matrix_to_rowmasks(d_from), len(d_from))}
    bounds = set(z2_boundaries(z2_matrix_to_rowmasks(d_to), len(d_to)))
    return (len(images) // len(images & bounds)).bit_length() - 1


def q_row_reduce(rows):
    """Reduced row echelon form over Q of a list of rows, by Gauss-Jordan
    on Fractions: (nonzero rows, their pivot columns)."""
    m = [[Fraction(x) for x in row] for row in rows]
    pivots = []
    for j in range(len(m[0]) if m else 0):
        i = next((i for i in range(len(pivots), len(m)) if m[i][j]), None)
        if i is None:
            continue
        k = len(pivots)
        m[k], m[i] = m[i], m[k]
        m[k] = [x / m[k][j] for x in m[k]]
        for i in range(len(m)):
            if i != k and m[i][j]:
                m[i] = [x - m[i][j] * y for x, y in zip(m[i], m[k])]
        pivots.append(j)
    return m[:len(pivots)], pivots


def q_cycle_basis(d):
    """A basis of the cycles {x : x . d = 0} over Q of a dense square
    matrix d: the null space of its transpose, one vector per free column
    of the reduced echelon form."""
    n = len(d)
    reduced, pivots = q_row_reduce([list(col) for col in zip(*d)])
    basis = []
    for j in (j for j in range(n) if j not in pivots):
        x = [Fraction(0)] * n
        x[j] = Fraction(1)
        for row, p in zip(reduced, pivots):
            x[p] = -row[j]
        basis.append(x)
    return basis


def q_induced_rank(d_from, d_to, f):
    """Rank over Q of the map a chain map f induces on homology.

    The image is (f(Z) + B) / B, Z the cycles of d_from, taken as an
    explicit basis (q_cycle_basis), and B the boundaries of d_to, the
    span of its rows.  Dense matrices in the row convention: f[i] is the
    image of generator i of the source.  Over Z this is the rank on the
    free part.
    """
    images = [[sum(z[i] * f[i][j] for i in range(len(z)))
               for j in range(len(d_to))] for z in q_cycle_basis(d_from)]
    return (len(q_row_reduce(images + [list(r) for r in d_to])[1])
            - len(q_row_reduce(d_to)[1]))


def z2_spectral_bruteforce(rep_bits, rowmasks, n, heights):
    """Minimum over the coset rep + image of the max height in the support.

    heights[i] is the action of generator i; returns -inf for the zero coset.
    """
    best = None
    for x in range(1 << n):
        v = rep_bits ^ z2_apply(x, rowmasks)
        if v == 0:
            return float("-inf")
        top = max(heights[i] for i in range(n) if (v >> i) & 1)
        if best is None or top < best:
            best = top
    return best


def z2_spectral_span(rep_bits, rowmasks, heights):
    """z2_spectral_bruteforce over the image span instead of all chains.

    A basis of the image comes from its own xor elimination; the coset is
    enumerated as rep plus each of the 2^rank sums of basis vectors, so
    windows of 20 and more generators stay cheap while the rank is small.
    """
    basis = []               # distinct top bits, kept in decreasing order
    for row in rowmasks:
        for b in basis:
            row = min(row, row ^ b)
        if row:
            basis = sorted(basis + [row], reverse=True)
    assert len(basis) <= 12, "image rank %d is too large to enumerate" % len(basis)
    best = None
    for picks in range(1 << len(basis)):
        v = rep_bits
        for i, b in enumerate(basis):
            if (picks >> i) & 1:
                v ^= b
        if v == 0:
            return float("-inf")
        top = max(h for i, h in enumerate(heights) if (v >> i) & 1)
        if best is None or top < best:
            best = top
    return best


def profile_value(points, r):
    """Value of the polyline through points at r, by a linear scan."""
    for (r0, v0), (r1, v1) in zip(points, points[1:]):
        if r0 <= r <= r1:
            if r == r0:
                return v0
            if r == r1:
                return v1
            return v0 + (v1 - v0) * (r - r0) / (r1 - r0)
    raise ValueError("parameter %s outside the domain" % r)


def crossings(f, g, lo=None, hi=None):
    """Parameters in [lo, hi] where profiles f and g agree, knot by knot.

    Each profile is evaluated on its own at every knot of either one;
    a zero difference at a knot is a crossing, and so is the root of a
    strict sign change between consecutive knots.  Coincident stretches
    show up as their zero knots.
    """
    lo = max(f.r_lo, g.r_lo) if lo is None else Fraction(lo)
    hi = min(f.r_hi, g.r_hi) if hi is None else Fraction(hi)
    if lo > hi:
        return []
    ks = sorted({lo, hi} | {r for pw in (f, g) for r, _ in pw.points
                            if lo < r < hi})
    ds = [profile_value(f.points, k) - profile_value(g.points, k) for k in ks]
    out = {k for k, d in zip(ks, ds) if d == 0}
    for k0, d0, k1, d1 in zip(ks, ds, ks[1:], ds[1:]):
        if d0 * d1 < 0:
            out.add(k0 + (k1 - k0) * d0 / (d0 - d1))
    return sorted(out)


def merge_slabs(slabs, cosets, t):
    """A finer trace's slabs merged across every bound at which no two
    generators of the class's coset meet.

    slabs lists (interval, r_lo, r_hi, support, top, rho_lo, rho_hi) in
    order, cut at every meeting of two in-window arcs of the family t;
    cosets maps each interval's index to the generators that its
    representative or an entry of its windowed differential holds.  Two
    slabs of one interval that share a bound where no two of those
    generators meet (crossings, knot by knot) become one, from the
    first's r_lo and rho_lo to the second's r_hi and rho_hi.  Their
    supports and tops must agree there, or ValueError.
    """
    meetings = {}
    out = []
    for slab in slabs:
        i, lo = slab[0], slab[1]
        if i not in meetings:
            meetings[i] = {x for g, h in itertools.combinations(
                sorted(cosets[i], key=str), 2)
                for x in crossings(t.arc(g).f3, t.arc(h).f3)}
        if not out or out[-1][0] != i or lo in meetings[i]:
            out.append(tuple(slab))
            continue
        last = out[-1]
        if last[3:5] != tuple(slab[3:5]):
            raise ValueError("support or top changes at r=%s, where no two "
                             "coset generators meet" % lo)
        out[-1] = last[:2] + (slab[2],) + last[3:6] + (slab[6],)
    return out


def window_clear(w, t):
    """The window rule checked pointwise: both cutoffs span [0, 1], the
    floor is below the ceiling at every knot of either, and each arc
    minus each cutoff has one strict sign at every knot of either inside
    the arc's footprint."""
    a, b = w.a.points, w.b.points
    if not (a[0][0] == b[0][0] == 0 and a[-1][0] == b[-1][0] == 1):
        return False
    if any(profile_value(a, k) >= profile_value(b, k) for k, _ in a + b):
        return False
    for arc in t.arcs:
        pts = arc.f3.points
        lo, hi = pts[0][0], pts[-1][0]
        for cut in (a, b):
            ks = [k for k, _ in pts] + [k for k, _ in cut if lo < k < hi]
            ds = [profile_value(pts, k) - profile_value(cut, k) for k in ks]
            if not (all(d > 0 for d in ds) or all(d < 0 for d in ds)):
                return False
    return True


def in_window_at(t, w, r):
    """Ids of the arcs alive at r whose action there lies strictly between
    the window's cutoffs, in declaration order: the midpoint reference
    for an interval's in-window generators."""
    return [a.id for a in t.arcs
            if a.f3.points[0][0] <= r <= a.f3.points[-1][0]
            and profile_value(w.a.points, r) < profile_value(a.f3.points, r)
            < profile_value(w.b.points, r)]


def descending_order(t, gens, r):
    """Generators sorted afresh by descending action at r, ties by id."""
    return sorted(gens, key=lambda g: (-profile_value(t.arc(g).f3.points, r),
                                       str(g)))


def is_unimodular(dense):
    return abs(det_bareiss(dense)) == 1


def frac(x):
    return Fraction(x)


def simpson(f, a, b, n=2000):
    """Composite Simpson quadrature; n must be even."""
    a, b = float(a), float(b)
    h = (b - a) / n
    total = f(a) + f(b)
    for i in range(1, n):
        total += f(a + i * h) * (4 if i % 2 else 2)
    return total * h / 3


def rk4_exponential(rate, y0, r, steps=512):
    """Classical Runge-Kutta for y' = rate * y on [0, r]."""
    rate, y, h = float(rate), float(y0), float(r) / steps
    for _ in range(steps):
        k1 = rate * y
        k2 = rate * (y + 0.5 * h * k1)
        k3 = rate * (y + 0.5 * h * k2)
        k4 = rate * (y + h * k3)
        y += (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return y


def smith_column_transform(a):
    """(diagonal, V) for an integer matrix a given as a list of rows.

    U a V = D for some unimodular U (not kept) and the unimodular V
    returned; diagonal lists D's nonzero diagonal entries in order.  A
    plain Smith elimination: smallest pivot, row and column steps, a row
    folded in while the pivot fails to divide the rest.
    """
    a = [list(map(int, row)) for row in a]
    m = len(a)
    n = len(a[0]) if m else 0
    v = [[int(i == j) for j in range(n)] for i in range(n)]

    def col_op(j, t, q):             # column j += q * column t
        for row in a + v:
            row[j] += q * row[t]

    def col_swap(i, j):
        for row in a + v:
            row[i], row[j] = row[j], row[i]

    t = 0
    while t < min(m, n):
        nonzero = [(abs(a[i][j]), i, j) for i in range(t, m)
                   for j in range(t, n) if a[i][j]]
        if not nonzero:
            break
        _, i, j = min(nonzero)
        a[t], a[i] = a[i], a[t]
        col_swap(t, j)
        done = False
        while not done:
            done = True
            for i in range(t + 1, m):
                q = a[i][t] // a[t][t]
                a[i] = [x - q * y for x, y in zip(a[i], a[t])]
                if a[i][t]:
                    a[i], a[t] = a[t], a[i]
                    done = False
            for j in range(t + 1, n):
                col_op(j, t, -(a[t][j] // a[t][t]))
                if a[t][j]:
                    col_swap(j, t)
                    done = False
            if done:
                bad = next((i for i in range(t + 1, m) for j in range(t + 1, n)
                            if a[i][j] % a[t][t]), None)
                if bad is not None:
                    a[t] = [x + y for x, y in zip(a[t], a[bad])]
                    done = False
        t += 1
    return [a[k][k] for k in range(t)], v


def in_integer_row_lattice(w, rows):
    """Whether the integer vector w is an integer combination of rows.

    With U B V = D, the lattice of B is that of D V^-1, so w lies in it
    iff w V has entries divisible by D's diagonal and zeros past it.
    """
    if not rows:
        return not any(w)
    diag, v = smith_column_transform(rows)
    wv = [sum(x * v[i][j] for i, x in enumerate(w)) for j in range(len(w))]
    return (all(wv[k] % d == 0 for k, d in enumerate(diag))
            and not any(wv[len(diag):]))


def z_least_lead(vec, rows):
    """The lowest lead of vec + (an integer combination of rows): the
    largest j such that some lattice element clears positions 0..j-1 of
    vec, decided by integer solvability; len(vec) means vec is in the
    lattice."""
    j = 0
    while j < len(vec) and in_integer_row_lattice(
            [-x for x in vec[:j + 1]], [r[:j + 1] for r in rows]):
        j += 1
    return j


def exp_exceeds(q, c, start_terms=8):
    """Whether the rational q exceeds e^c for rational c > 0.

    Plain Taylor partial sums of e^c as Fractions, S_N <= e^c <= S_N +
    R_N with the remainder bounded by the next term over 1 - c / (N + 2),
    with N doubled until q falls outside; e^c is irrational, so they
    separate.
    """
    q, c = Fraction(q), Fraction(c)
    n = max(start_terms, 2 * int(c) + 2)
    while True:
        term, total = Fraction(1), Fraction(1)
        for k in range(1, n + 1):
            term = term * c / k
            total += term
        rest = term * c / (n + 1) / (1 - c / (n + 2))
        if q < total:
            return False
        if q > total + rest:
            return True
        n *= 2


def matmul(a, b):
    """Product of two dense matrices given as lists of rows."""
    return [[sum(x * b[k][j] for k, x in enumerate(row))
             for j in range(len(b[0]))] for row in a]


def event_maps_hold(before, after, bundle):
    """True iff bundle relates the complexes of the count matrices before
    and after an event, by dense arithmetic over the integers or the
    rationals, reduced mod 2 over Z2.

    In the row convention forward is a chain map when
    before . forward = forward . after, and backward when
    after . backward = backward . before.  A slide's two maps are inverse
    to each other.  A birth's forward (a death's backward) is the
    inclusion i of the smaller complex and the other map the projection
    p: p must retract i (i . p = I), and the homotopy h must satisfy
    d h + h d = I - p . i with d the larger side's matrix.
    """
    mod = 2 if before.ring.name == "Z2" else None
    b_ids, a_ids = list(before.rows), list(after.rows)

    def dense(m, rows, cols):
        if set(m.rows) != set(rows) or set(m.cols) != set(cols):
            return None
        return [[Fraction(x) for x in row] for row in m.to_dense(rows, cols)]

    def same(x, y):
        return all((u - v) % mod == 0 if mod else u == v
                   for rx, ry in zip(x, y) for u, v in zip(rx, ry))

    def ident(n):
        return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]

    def plus(x, y, sign=1):
        return [[u + sign * v for u, v in zip(rx, ry)]
                for rx, ry in zip(x, y)]

    def prod(x, y, n):
        """x . y, where y has n columns (y may have no rows)."""
        return [[sum(u * y[k][j] for k, u in enumerate(row))
                 for j in range(n)] for row in x]

    nb, na = len(b_ids), len(a_ids)
    gm, gp = dense(before, b_ids, b_ids), dense(after, a_ids, a_ids)
    fwd = dense(bundle.forward, b_ids, a_ids)
    bwd = dense(bundle.backward, a_ids, b_ids)
    if fwd is None or bwd is None:
        return False
    if not (same(prod(gm, fwd, na), prod(fwd, gp, na))
            and same(prod(gp, bwd, nb), prod(bwd, gm, nb))):
        return False
    if bundle.kind == "slide":
        return (bundle.homotopy is None
                and same(prod(fwd, bwd, nb), ident(nb))
                and same(prod(bwd, fwd, na), ident(na)))
    if bundle.kind == "birth":
        incl, proj, d, ids = fwd, bwd, gp, a_ids
    else:
        incl, proj, d, ids = bwd, fwd, gm, b_ids
    n, small = len(ids), len(incl)
    h = (None if bundle.homotopy is None
         else dense(bundle.homotopy, ids, ids))
    return (h is not None
            and same(prod(incl, proj, small), ident(small))
            and same(plus(prod(d, h, n), prod(h, d, n)),
                     plus(ident(n), prod(proj, incl, n), -1)))


def gauss_jordan_inverse(a):
    """Inverse of an invertible square matrix of rationals, by Gauss-Jordan
    elimination on [a | I] with Fractions."""
    n = len(a)
    m = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(a)]
    for c in range(n):
        p = next(i for i in range(c, n) if m[i][c])
        m[c], m[p] = m[p], m[c]
        m[c] = [x / m[c][c] for x in m[c]]
        for i in range(n):
            if i != c and m[i][c]:
                m[i] = [x - m[i][c] * y for x, y in zip(m[i], m[c])]
    return [row[n:] for row in m]


def conjugate_by_products(g, d):
    """(I + D) G (I + D)^-1 of dense square matrices, formed as two
    products with the inverse from gauss_jordan_inverse."""
    n = len(g)
    s = [[int(i == j) + d[i][j] for j in range(n)] for i in range(n)]
    return matmul(matmul(s, g), gauss_jordan_inverse(s))


def rank_by_elimination(dense, p=None):
    """Rank of a dense matrix, eliminating every row: over Q, or over the
    integers mod the prime p when p is given."""
    if p is None:
        rows = [[Fraction(x) for x in row] for row in dense]
    else:
        rows = [[int(x) % p for x in row] for row in dense]
    rank = 0
    for c in range(len(rows[0]) if rows else 0):
        piv = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        top = rows[rank]
        inv = 1 / top[c] if p is None else pow(top[c], -1, p)
        for i in range(len(rows)):
            if i != rank and rows[i][c]:
                f = rows[i][c] * inv
                rows[i] = [x - f * y for x, y in zip(rows[i], top)]
                if p is not None:
                    rows[i] = [x % p for x in rows[i]]
        rank += 1
    return rank


def homology_by_elimination(dense, ring_name):
    """(free rank, torsion) of the homology of a square-zero differential
    given dense, eliminating every row, zero rows included: over Z2 and Q
    the rank r by rank_by_elimination, over Z the nonzero diagonal of
    smith_column_transform, whose entries above 1 are the torsion.  The
    free rank is n - 2r on n generators."""
    n = len(dense)
    if ring_name == "Z":
        diag = [abs(x) for x in smith_column_transform(dense)[0]]
        return n - 2 * len(diag), tuple(x for x in diag if x > 1)
    rank = rank_by_elimination(dense, 2 if ring_name == "Z2" else None)
    return n - 2 * rank, ()


def read_literal(text):
    """What a reader of exact numbers makes of a literal within the digit
    bound: Fraction(text), or, where Fraction refuses it, the message
    `not an exact number: ` and the stripped text's repr."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        return "not an exact number: %r" % text.strip()
