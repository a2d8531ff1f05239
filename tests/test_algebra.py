"""Exact linear algebra: rings, sparse matrices, Smith form, homology."""

import functools
import math
import operator
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import randgen
from morseflow import algebra
from morseflow.algebra import (HomologyResult, homology, invariant_factors,
                               is_chain_map, ordered_echelon, reduce_against)
from morseflow.bifurcation import evolve
from morseflow.errors import (DimensionMismatch, InvalidParameters,
                              NonUnitError, NotADifferential)
from morseflow.matrix import SparseMatrix, vec_apply
from morseflow.rings import RINGS, Q, Z, Z2
from morseflow.tracker import (INSIDE, Window, filtered_homology,
                               validate_window, wide_window)

from fixtures import within
from oracles import (determinantal_divisors, homology_by_elimination,
                     matmul, top_determinantal_divisors, z2_homology_rank)


def mat(ring, ids, entries):
    return SparseMatrix(ring, ids, ids, entries)


class TestRings:
    def test_z2_reduces(self):
        assert Z2.coerce(7) == 1 and Z2.coerce(-4) == 0
        assert Z2.coerce(-3) == 1 and Z2.coerce(-1) == 1
        assert Z2.coerce(True) == 1 and type(Z2.coerce(True)) is int
        assert Z2.coerce(Fraction(-5, 3)) == 1
        with pytest.raises(NonUnitError):
            Z2.coerce(Fraction(1, 2))
        # a float is read exactly, as the Fraction it equals
        assert Z2.coerce(2.0) == 0 and Z2.coerce(3.0) == 1
        assert type(Z2.coerce(3.0)) is int
        for x in (0.5, 1.5):
            with pytest.raises(NonUnitError):
                Z2.coerce(x)

    def test_integer_coerce(self):
        assert Z.coerce(-7) == -7 and Z.coerce(Fraction(-6, 2)) == -3
        assert Z.coerce(True) == 1 and type(Z.coerce(True)) is int
        with pytest.raises(NonUnitError):
            Z.coerce(Fraction(1, 2))
        assert Z.coerce("1") == 1 and Z.coerce(2.0) == 2
        with pytest.raises(NonUnitError, match="^1/2 is not an integer$"):
            Z.coerce(0.5)
        with pytest.raises(InvalidParameters):
            Z.coerce(None)

    def test_z2_inverse(self):
        assert Z2.invert(1) == 1
        with pytest.raises(NonUnitError):
            Z2.invert(0)

    def test_integer_units(self):
        assert Z.is_unit(-1) and Z.is_unit(1) and not Z.is_unit(2)
        assert Z.is_unit("1") and Z.is_unit(-1.0) and not Z.is_unit("2")
        assert Z.invert(1.0) == 1 and type(Z.invert(1.0)) is int
        with pytest.raises(NonUnitError):
            Z.invert(2.0)

    def test_rational_field(self):
        assert Q.invert(Fraction(3, 7)) == Fraction(7, 3)
        assert Q.is_field() and Z2.is_field() and not Z.is_field()

    def test_lookup(self):
        assert RINGS["z2"] is Z2 and RINGS["q"] is Q


class TestSparseMatrix:
    def test_zero_entries_dropped(self):
        m = mat(Z, ["a", "b"], {("a", "b"): 0, ("b", "a"): 5})
        assert m.entries == {("b", "a"): 5}

    def test_mul_identity(self):
        m = mat(Z, ["a", "b"], {("a", "b"): 3})
        assert m.mul(SparseMatrix.identity(Z, ["a", "b"])) == m

    def test_mul_mismatch(self):
        m = mat(Z, ["a", "b"], {})
        other = mat(Z, ["x", "y"], {})
        with pytest.raises(DimensionMismatch):
            m.mul(other)

    def test_every_door_refuses_an_index_outside_its_sets(self):
        m = mat(Z, ["a", "b"], {("a", "b"): 3})
        with pytest.raises(DimensionMismatch, match="outside the declared"):
            SparseMatrix(Z, ["a"], ["a"], {("a", "z"): 1})
        with pytest.raises(DimensionMismatch, match="outside the index sets"):
            m.entry("a", "z")
        with pytest.raises(DimensionMismatch, match="restriction outside"):
            m.restrict(["a", "z"])
        with pytest.raises(DimensionMismatch, match="outside the operator"):
            vec_apply(Z, {"z": 1}, m)

    @pytest.mark.parametrize("op", ["add", "sub"])
    def test_sums_of_different_index_sets_are_refused(self, op):
        m = mat(Z, ["a", "b"], {("a", "b"): 3})
        with pytest.raises(DimensionMismatch,
                           match="indexed by different generator sets"):
            getattr(m, op)(mat(Z, ["a", "c"], {("a", "c"): 3}))

    @pytest.mark.parametrize("op", ["add", "mul"])
    def test_mixed_rings_are_refused(self, op):
        m = mat(Z, ["a", "b"], {("a", "b"): 3})
        with pytest.raises(DimensionMismatch, match="mixed coefficient rings"):
            getattr(m, op)(mat(Q, ["a", "b"], {("a", "b"): 3}))

    def test_a_matrix_never_equals_a_non_matrix(self):
        m = mat(Z, ["a"], {})
        assert m.__eq__(m.entries) is NotImplemented
        assert m != {} and m != ()

    def test_restrict(self):
        m = mat(Z, ["a", "b", "c"], {("a", "b"): 1, ("a", "c"): 2})
        r = m.restrict(["a", "b"])
        assert r.entries == {("a", "b"): 1}

    def test_vec_apply_row_convention(self):
        # operator c1 -> c3, c2 -> c3: the chain c1+c2 maps to 2*c3
        m = mat(Z, ["c1", "c2", "c3"], {("c1", "c3"): 1, ("c2", "c3"): 1})
        assert vec_apply(Z, {"c1": 1, "c2": 1}, m) == {"c3": 2}

    def test_duplicate_ids_rejected_by_restrict_and_identity(self):
        m = mat(Z, ["a", "b"], {("a", "b"): 1})
        with pytest.raises(DimensionMismatch):
            m.restrict(["a", "a"])
        with pytest.raises(DimensionMismatch):
            m.restrict(["a"], ["b", "b"])
        with pytest.raises(DimensionMismatch):
            SparseMatrix.identity(Z, ["a", "b", "a"])

    def test_cancelling_sum_stores_no_zero(self):
        m = mat(Z, ["a", "b"], {("a", "b"): 3, ("b", "a"): 1})
        assert m.add(m.neg()).entries == {}
        assert m.sub(m).entries == {}
        assert mat(Z2, ["a", "b"], {("a", "b"): 1}).scale(2).entries == {}


def _revalidated(m):
    """m rebuilt through the validating constructor."""
    return SparseMatrix(m.ring, m.rows, m.cols, m.entries)


def _same_as_revalidated(m):
    """m equals its rebuild entry by entry, in value and in type, indexes
    the same tuples and sets, and stores no zero."""
    v = _revalidated(m)
    assert m == v and m.rows == v.rows and m.cols == v.cols
    assert m._row_set == frozenset(m.rows) and m._col_set == frozenset(m.cols)
    assert {k: type(x) for k, x in m.entries.items()} == \
        {k: type(x) for k, x in v.entries.items()}
    assert all(x != m.ring.zero for x in m.entries.values())


_RING_VALUES = {
    "Z2": st.integers(0, 3),
    "Z": st.integers(-3, 3),
    "Q": st.fractions(min_value=-2, max_value=2, max_denominator=4),
}


@st.composite
def _matrix(draw, ring, rows, cols):
    cells = [(r, c) for r in rows for c in cols]
    picked = draw(st.lists(st.sampled_from(cells), unique=True)) if cells else []
    return SparseMatrix(ring, rows, cols,
                        {k: draw(_RING_VALUES[ring.name]) for k in picked})


@settings(max_examples=150, deadline=None)
@given(data=st.data(), ring=st.sampled_from([Z2, Z, Q]),
       n=st.integers(0, 4), k=st.integers(0, 4))
def test_operation_results_equal_their_validated_rebuild(data, ring, n, k):
    """Results built without re-checking hold what the validating
    constructor would: every entry a nonzero ring element inside the
    index sets, cancellations included (a is drawn against a - b and
    a + (-a) so sums cancel often)."""
    rows = ["r%d" % i for i in range(n)]
    cols = ["c%d" % j for j in range(k)]
    a = data.draw(_matrix(ring, rows, cols), label="a")
    b = data.draw(_matrix(ring, rows, cols), label="b")
    c = data.draw(_matrix(ring, cols, rows), label="c")
    scalar = data.draw(_RING_VALUES[ring.name], label="scalar")
    keep = data.draw(st.lists(st.sampled_from(rows), unique=True)) if rows else []
    results = [a.add(b), a.sub(b), a.add(a.neg()), a.sub(a), a.add(b).sub(b),
               a.scale(scalar), a.neg(), a.transpose(), a.mul(c), c.mul(a),
               a.mul(c).mul(a), a.restrict(keep, cols), c.restrict(cols, keep),
               SparseMatrix.identity(ring, rows)]
    for m in results:
        _same_as_revalidated(m)
    assert a.add(b).sub(b) == a and a.sub(a).is_zero()
    assert a.transpose().transpose() == a


@settings(max_examples=200, deadline=None)
@given(data=st.data(), ring=st.sampled_from([Z2, Z, Q]),
       n=st.integers(0, 4), m=st.integers(0, 4), k=st.integers(0, 4))
def test_operations_equal_dense_references(data, ring, n, m, k):
    """mul, add, sub and scale equal oracles.matmul and the entrywise
    sums, differences and multiples of the dense operands, coerced into
    the ring: entries that cancel are dropped, and every entry kept is
    an int over Z2 and Z and a Fraction over Q.  b repeats a drawn part
    of a's entries, negated or not, so sums and differences cancel, and
    so do the terms of an entry of a times b's transpose."""
    rows = ["r%d" % i for i in range(n)]
    mids = ["m%d" % i for i in range(m)]
    cols = ["c%d" % j for j in range(k)]
    a = data.draw(_matrix(ring, rows, mids), label="a")
    drawn = data.draw(_matrix(ring, rows, mids), label="b")
    shared = data.draw(st.lists(st.sampled_from(sorted(a.entries)),
                                unique=True) if a.entries else st.just([]))
    signs = data.draw(st.lists(st.sampled_from([1, -1]), min_size=len(shared),
                               max_size=len(shared)))
    b = SparseMatrix(ring, rows, mids, {**drawn.entries, **{
        key: sign * a.entries[key] for key, sign in zip(shared, signs)}})
    c = data.draw(_matrix(ring, mids, cols), label="c")
    scalar = data.draw(_RING_VALUES[ring.name], label="scalar")
    da, db, dc = a.to_dense(), b.to_dense(), c.to_dense()

    def product(x, y, width):
        return matmul(x, y) if x and y and width else [[0] * width for _ in x]
    s = ring.coerce(scalar)
    expected = [
        (a.mul(c), product(da, dc, k)),
        (a.mul(b.transpose()), product(da, b.transpose().to_dense(), n)),
        (a.add(b), [[x + y for x, y in zip(u, v)] for u, v in zip(da, db)]),
        (a.sub(b), [[x - y for x, y in zip(u, v)] for u, v in zip(da, db)]),
        (a.scale(scalar), [[s * x for x in u] for u in da]),
        (a.neg(), [[-x for x in u] for u in da]),
    ]
    kind = Fraction if ring is Q else int
    for got, dense in expected:
        want = {(r, col): ring.coerce(x)
                for r, row in zip(got.rows, dense)
                for col, x in zip(got.cols, row) if ring.coerce(x) != 0}
        assert got.entries == want
        assert all(type(x) is kind for x in got.entries.values())


class TestSmithNormalForm:
    """invariant_factors: the nonzero diagonal of the Smith form."""

    def test_diag_2_3(self):
        # oracle: gcd of 1x1 minors is 1, gcd of 2x2 minors is 6
        assert determinantal_divisors([[2, 0], [0, 3]]) == [1, 6]
        assert invariant_factors([[2, 0], [0, 3]]) == [1, 6]

    def test_zero_matrix(self):
        assert invariant_factors([[0, 0], [0, 0]]) == []
        assert invariant_factors([]) == []

    def test_identity(self):
        assert invariant_factors([[1, 0, 0], [0, -1, 0], [0, 0, 1]]) == [1, 1, 1]

    @settings(max_examples=120, deadline=None)
    @given(st.integers(0, 6), st.integers(1, 6), st.data())
    def test_random_matrices(self, rows, cols, data):
        dense = [[data.draw(st.integers(-6, 6)) for _ in range(cols)]
                 for _ in range(rows)]
        for _ in range(data.draw(st.integers(0, 2))):
            dense.insert(data.draw(st.integers(0, len(dense))), [0] * cols)
        chain = invariant_factors([list(row) for row in dense])
        assert all(d > 0 for d in chain)
        assert all(chain[i + 1] % chain[i] == 0 for i in range(len(chain) - 1))
        assert chain == determinantal_divisors(dense)

    @pytest.mark.parametrize("dense", [
        [], [[0, 0, 0]], [[2, 4, 6]], [[2], [4], [6]], [[6, 10, 15]],
        [[0, 0], [4, 6], [0, 0]], [[0, 0, 0, 0], [2, 0, 4, 0]],
        [[1, 2, 3, 4, 5], [6, 7, 8, 9, 10]], [[0, 3], [0, 6], [0, 0]]])
    def test_non_square_and_zero_rows(self, dense):
        assert invariant_factors(dense) == determinantal_divisors(dense)

    def test_input_rows_untouched(self):
        dense = [[0, 4], [3, 4]]
        invariant_factors(dense)
        assert dense == [[0, 4], [3, 4]]

    def test_sorted_passes_end(self, monkeypatch):
        # echelonizing [[0, 4], [3, 4]] and its transpose with the rows in
        # the echelon dict's insertion order cycles forever; with the rows
        # sorted by pivot position three passes reach the diagonal
        passes = []

        def counted(ring, rows):
            passes.append(len(rows))
            assert len(passes) <= 3, "echelon passes do not end"
            return ordered_echelon(ring, rows)

        monkeypatch.setattr(algebra, "ordered_echelon", counted)
        assert invariant_factors([[0, 4], [3, 4]]) == [1, 12]

    @pytest.mark.parametrize("dense", [
        # a smallest-pivot Smith loop with an offender fold ran past 2 s
        # on each of these
        [[-1, -5, -2, -6, 6, 5], [-4, 0, -5, -2, -6, 4],
         [-5, 6, -2, -5, 3, -3], [-5, -2, -5, 1, -6, -1],
         [2, 0, -2, 3, -4, -6], [2, 5, -3, -5, -4, -2],
         [-6, -4, -3, -2, 4, -2]],
        [[-4, -4, -6, -6, 2, -4, 4], [6, 0, -5, 3, 3, -1, 5],
         [2, -4, -4, -1, -2, -4, 2], [-4, -5, -5, 0, 1, 6, 6],
         [6, 6, -3, -2, -4, -6, 1], [-1, -6, 3, 4, 0, -5, 5],
         [3, 5, -4, 4, 6, -3, 3]]])
    def test_dense_seven_row_matrices_end(self, dense):
        with within(1):
            chain = invariant_factors(dense)
        assert chain == determinantal_divisors(dense)


def echelon_torsion(m):
    """(torsion, pivots) of an integer differential as read off the
    invariant factors of its boundary echelon, the Smith pass that
    homology skips when every pivot is a unit."""
    order = sorted(m.rows, key=str)
    hit = {c for _, c in m.entries}
    pivots = ordered_echelon(Z, m.transpose().to_dense(
        [c for c in order if c in hit], order))
    return (tuple(d for d in invariant_factors(list(pivots.values()))
                  if d > 1), [v[p] for p, v in pivots.items()])


def boundary_fixture(ring):
    return mat(ring, ["c1", "c2", "c3"], {("c1", "c3"): 1, ("c2", "c3"): 1})


class TestHomology:
    def test_zero_boundary(self):
        for ring in (Z2, Z, Q):
            res = homology(mat(ring, ["a", "b", "c", "d"], {}))
            assert res.free_rank == 4 and res.torsion == ()

    def test_two_to_one(self):
        res = homology(boundary_fixture(Z2))
        assert res == HomologyResult("Z2", 1, ())

    def test_single_pivot(self):
        for ring in (Z2, Z, Q):
            res = homology(mat(ring, ["p", "m"], {("p", "m"): 1}))
            assert res.free_rank == 0 and res.torsion == ()

    def test_not_a_differential(self):
        bad = mat(Z2, ["c1", "c2", "c3"], {("c1", "c2"): 1, ("c2", "c3"): 1})
        with pytest.raises(NotADifferential):
            homology(bad)

    def test_torsion(self):
        res = homology(mat(Z, ["c1", "c2"], {("c1", "c2"): 2}))
        assert res.free_rank == 0 and res.torsion == (2,)

    def test_torsion_chain(self):
        m = mat(Z, ["a", "b", "x", "y"], {("a", "x"): 2, ("b", "y"): 6})
        res = homology(m)
        assert res.free_rank == 0 and res.torsion == (2, 6)

    def test_large_entries_one_pass(self):
        # a rank-3 differential with entries up to 10^5, whose second Smith
        # form in a kernel basis once ran for minutes
        d = [[-5040, 2730, 2310, -7560, 210, -9, 2520, 840, -840],
             [-6120, 3315, 2805, -9180, 255, -11, 3060, 1020, -1020],
             [-24400, 13215, 11365, -36540, 985, -35, 12200, 4000, -4040],
             [-240, 130, 110, -360, 10, 0, 120, 40, -40],
             [25480, -13800, -11860, 38160, -1030, 36, -12740, -4180, 4220],
             [0, 0, 0, 0, 0, 0, 0, 0, 0],
             [44840, -24285, -20915, 67140, -1805, 64, -22420, -7340, 7420],
             [-73560, 39840, 34260, -110160, 2970, -105, 36780, 12060, -12180],
             [12740, -6900, -5930, 19080, -515, 18, -6370, -2090, 2110]]
        ids = ["g%d" % i for i in range(9)]
        res = homology(SparseMatrix.from_rows(Z, ids, ids, d))
        assert str(res) == "free^3 + cyclic(5) + cyclic(5)"

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 4), st.integers(1, 4), st.data())
    def test_torsion_against_minors(self, na, nb, data):
        # an upper -> lower block b squares to zero; conjugating it by a
        # random unimodular p keeps the homology, whose torsion is the
        # invariant factors of b above 1 and whose free rank is n - 2 rank b
        n = na + nb
        b = [[data.draw(st.integers(-4, 4)) for _ in range(nb)]
             for _ in range(na)]
        d = [[0] * na + row for row in b] + [[0] * n for _ in range(nb)]
        p = [[int(i == j) for j in range(n)] for i in range(n)]
        p_inv = [row[:] for row in p]
        for _ in range(data.draw(st.integers(0, 8))):
            i, j = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
            c = data.draw(st.integers(-3, 3))
            if i != j:
                # p <- E p and p_inv <- p_inv E^-1 for E = I + c e_i e_j
                p[i] = [x + c * y for x, y in zip(p[i], p[j])]
                for row in p_inv:
                    row[j] -= c * row[i]

        def mul(x, y):
            return [[sum(x[i][k] * y[k][j] for k in range(n))
                     for j in range(n)] for i in range(n)]

        assert mul(p, p_inv) == [[int(i == j) for j in range(n)]
                                 for i in range(n)]
        ids = ["g%d" % i for i in range(n)]
        dense = mul(mul(p, d), p_inv)
        m = SparseMatrix.from_rows(Z, ids, ids, dense)
        res = homology(m)
        inv = determinantal_divisors(b)
        assert res.torsion == tuple(x for x in inv if x > 1)
        assert res.free_rank == n - 2 * len(inv)
        # entries in [-4, 4] give pivots of 2, 3 and 4 as well as units:
        # with or without the Smith pass, the torsion is the same
        torsion, pivots = echelon_torsion(m)
        assert res.torsion == torsion
        assert (res.free_rank, res.torsion) == homology_by_elimination(
            dense, "Z")
        if all(x in (1, -1) for x in pivots):
            assert res.torsion == ()

    @pytest.mark.parametrize("n, chain", [
        (18, (1, 2, 2, 6, 12)), (22, (1, 1, 3, 3, 6, 30)),
        (40, (1, 2, 2, 4, 4, 8, 24, 48, 96))])
    def test_large_conjugated_differentials(self, n, chain):
        for seed in range(3):
            d = randgen.planted_smith(random.Random(seed), n, chain)
            ids = ["g%02d" % i for i in range(n)]
            m = SparseMatrix.from_rows(Z, ids, ids, d)
            with within(1):
                res = homology(m)
            assert res.torsion == tuple(x for x in chain if x > 1)
            assert res.free_rank == n - 2 * len(chain)

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 4), st.integers(1, 4), st.data())
    def test_rank_formula_over_q(self, na, nb, data):
        # upper block maps only to lower block, so the square is zero
        ids = ["u%d" % i for i in range(na)] + ["l%d" % i for i in range(nb)]
        ent = {}
        for i in range(na):
            for j in range(nb):
                v = data.draw(st.integers(-3, 3))
                if v:
                    ent[("u%d" % i, "l%d" % j)] = Fraction(v)
        m = mat(Q, ids, ent)
        dense = m.to_dense(ids, ids)
        rank = sum(1 for d in determinantal_divisors(
            [[int(x) for x in row] for row in dense]) if d != 0)
        assert homology(m).free_rank == len(ids) - 2 * rank

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 4), st.integers(1, 4), st.data())
    def test_against_z2_enumeration(self, na, nb, data):
        ids = ["u%d" % i for i in range(na)] + ["l%d" % i for i in range(nb)]
        ent = {}
        for i in range(na):
            for j in range(nb):
                if data.draw(st.booleans()):
                    ent[("u%d" % i, "l%d" % j)] = 1
        m = mat(Z2, ids, ent)
        assert homology(m).free_rank == z2_homology_rank(m.to_dense(ids, ids))


class TestHomologyByEveryRow:
    """homology eliminates the nonzero rows of the transposed differential
    only; oracles.homology_by_elimination eliminates every row."""

    @staticmethod
    def assert_every_row_agrees(d):
        ids = sorted(d.rows, key=str)
        res = homology(d)
        assert (res.free_rank, res.torsion) == homology_by_elimination(
            d.to_dense(ids, ids), d.ring.name)
        return res

    @pytest.mark.parametrize("ring", [Z2, Z, Q])
    @pytest.mark.parametrize("seed", range(12))
    def test_randgen_intervals_in_and_out_of_windows(self, seed, ring):
        sc = randgen.random_scenario(random.Random(seed), ring)
        t = sc.family
        log = evolve(sc.gamma0, sc.events, t)
        # the constant windows clear every randgen family: uppers lie in
        # [68, 102], lowers in [24, 41], born pairs in [-14, 4]
        windows = [wide_window(t), Window.constant(10, 200),
                   Window.constant(-20, 60), Window.constant(50, 200)]
        for fc in log.intervals:
            self.assert_every_row_agrees(fc.gamma)
            for w in windows:
                sides = validate_window(w, t)
                d = fc.gamma.restrict([g for g in fc.gamma.rows
                                       if sides[g] == INSIDE])
                h = filtered_homology(t, fc, fc.midpoint(), w)
                assert self.assert_every_row_agrees(d) == h
                if len(d.rows) == len(fc.gamma.rows):
                    # a window that holds every arc alive reads the count
                    # matrix itself, and so the homology it keeps
                    assert h is homology(fc.gamma)

    @pytest.mark.parametrize("n, chain", [(8, (1, 2)), (10, (2, 6)),
                                          (12, (1, 1, 3))])
    def test_conjugated_differentials_with_zero_rows(self, n, chain):
        # isolated generators add zero rows and columns to a differential
        # with torsion; the zero rows never pivot
        for seed in range(3):
            d = randgen.planted_smith(random.Random(seed), n, chain)
            d = [row + [0, 0] for row in d] + [[0] * (n + 2)] * 2
            ids = ["g%02d" % i for i in range(n + 2)]
            res = self.assert_every_row_agrees(
                SparseMatrix.from_rows(Z, ids, ids, d))
            assert res.torsion == tuple(x for x in chain if x > 1)
            assert res.free_rank == n + 2 - 2 * len(chain)


class TestUnitPivots:
    """Over Z, homology skips the Smith pass when every pivot of the
    boundary echelon is 1 or -1: the torsion is then empty."""

    @pytest.mark.parametrize("entries, pivot, torsion", [
        # pivot: the largest pivot of the boundary echelon, up to sign
        ({("c1", "c2"): 2}, 2, (2,)),
        # gcd(2, 3) = 1: a pivot of 2 without torsion
        ({("a", "x"): 2, ("b", "x"): 3}, 2, ()),
        ({("a", "x"): 1, ("b", "y"): -1}, 1, ()),
        ({("a", "x"): 2, ("b", "x"): 4, ("b", "y"): 6}, 6, (2, 6))])
    def test_smith_pass_runs_only_for_a_pivot_that_is_no_unit(
            self, entries, pivot, torsion, monkeypatch):
        ids = sorted({g for key in entries for g in key})
        m = mat(Z, ids, entries)
        assert max(abs(p) for p in echelon_torsion(m)[1]) == pivot
        calls = []

        def counted(rows):
            calls.append(rows)
            return invariant_factors(rows)
        monkeypatch.setattr(algebra, "invariant_factors", counted)
        assert homology(m).torsion == torsion
        assert len(calls) == (pivot != 1)

    @pytest.mark.parametrize("n", [10, 20, 30])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_conjugated_blocks(self, n, seed):
        # a random block conjugated until the echelon's entries grow: the
        # torsion multiplies to |det B| and ends in det B / D_{h-1}
        b, d = randgen.conjugated_block(random.Random(seed), n)
        ids = ["g%02d" % i for i in range(n)]
        m = SparseMatrix.from_rows(Z, ids, ids, d)
        with within(1):
            res = homology(m)
        assert res.torsion == echelon_torsion(m)[0]
        rest, det = top_determinantal_divisors(b)
        assert det and res.free_rank == 0
        assert math.prod(res.torsion) == det
        assert (res.torsion[-1:] or (1,))[0] == det // rest


def divisibility_chain(rng, k):
    """k >= 2 factors d1 | d2 | ... | dk: each the last times 1, 1, 2 or
    3, but the last two times drawn integers of 30-100 bits, so that the
    top factor has 60-200 bits beyond its small part."""
    chain, d = [], rng.choice((1, 2, 3))
    for i in range(k):
        if i >= k - 2:
            bits = rng.randint(30, 100)
            d *= rng.getrandbits(bits) | 1 << (bits - 1)
        elif i:
            d *= rng.choice((1, 1, 2, 3))
        chain.append(d)
    return chain


class TestPlantedSmith:
    """Integer homology against an answer known by construction
    (randgen.planted_smith), at sizes past the minor-enumerating
    oracles and with invariant factors of up to 200 bits."""

    @pytest.mark.parametrize("n", [10, 20, 40])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_homology_finds_the_planted_factors(self, n, seed):
        rng = random.Random(seed)
        chain = divisibility_chain(rng, n // 2 - 1)
        assert chain[-1].bit_length() >= 60
        d = randgen.planted_smith(rng, n, chain)
        ids = ["g%02d" % i for i in range(n)]
        with within(1):
            res = homology(SparseMatrix.from_rows(Z, ids, ids, d))
        assert res.torsion == tuple(x for x in chain if x > 1)
        assert res.free_rank == n - 2 * len(chain)

    def test_small_plants_agree_with_the_minors(self):
        # the construction itself, checked where every minor can be read:
        # conjugate_unipotent's steps (row i += c row j, i < j) keep the
        # block form, so d's upper right block is B up to unimodular steps
        for seed in range(5):
            rng = random.Random(seed)
            chain = divisibility_chain(rng, 3)
            d = randgen.planted_smith(rng, 8, chain)
            assert tuple(determinantal_divisors([row[4:] for row in d[:4]])
                         ) == tuple(chain)


class TestKeptHomology:
    """A matrix keeps its homology: asked again, homology returns the
    object it returned the first time."""

    def test_asked_twice_the_same_object(self):
        for ring in (Z2, Z, Q):
            m = boundary_fixture(ring)
            assert homology(m) is homology(m)

    def test_a_result_of_an_operation_keeps_none(self):
        m = mat(Z, ["a", "b", "x", "y"], {("a", "x"): 2, ("b", "y"): 1})
        h = homology(m)
        for other in (m.restrict(["a", "b", "x"]), m.restrict(m.rows),
                      m.mul(m), m.transpose(), m.add(m), m.scale(1),
                      SparseMatrix(Z, m.rows, m.cols, m.entries)):
            assert other._homology is None
        assert homology(m.restrict(m.rows)) == h
        assert homology(m.restrict(m.rows)) is not h
        assert homology(m.transpose()) == HomologyResult("Z", 0, (2,))

    def test_a_call_that_raises_keeps_nothing(self):
        bad = mat(Z2, ["c1", "c2", "c3"], {("c1", "c2"): 1, ("c2", "c3"): 1})
        for _ in range(2):
            with pytest.raises(NotADifferential):
                homology(bad)
            assert bad._homology is None
        rect = SparseMatrix(Z, ["a"], ["b"], {})
        for _ in range(2):
            with pytest.raises(DimensionMismatch):
                homology(rect)
            assert rect._homology is None


class TestChainMaps:
    def d_minus(self, ring):
        return mat(ring, ["c1", "c2", "c3"], {("c2", "c3"): 1})

    def d_plus(self, ring):
        return boundary_fixture(ring)

    def slide_map(self, ring):
        ids = ["c1", "c2", "c3"]
        a = SparseMatrix.identity(ring, ids)
        return a.add(mat(ring, ids, {("c1", "c2"): 1}))

    def test_identity_is_chain_map(self):
        d = self.d_plus(Z2)
        assert is_chain_map(SparseMatrix.identity(Z2, d.rows), d, d)

    def test_slide_map_is_chain_map(self):
        # c1 -> c1 + c2 intertwines the two differentials
        assert is_chain_map(self.slide_map(Z2), self.d_plus(Z2), self.d_minus(Z2))

    def test_identity_between_different_differentials_fails(self):
        ident = SparseMatrix.identity(Z2, ["c1", "c2", "c3"])
        assert not is_chain_map(ident, self.d_plus(Z2), self.d_minus(Z2))

    def test_a_non_square_differential_is_refused(self):
        ids = ["c1", "c2", "c3"]
        d = self.d_plus(Z2)
        skew = SparseMatrix(Z2, ids, ["c1", "c2"], {})
        ident = SparseMatrix.identity(Z2, ids)
        for d_from, d_to in ((skew, d), (d, skew)):
            with pytest.raises(DimensionMismatch, match="must be square"):
                is_chain_map(ident, d_from, d_to)

    def test_birth_triple_homotopy(self):
        # one old generator c, a born pair (p upper, m lower), pivot 1,
        # new column w(c) = 1; frozen 3x3 identity check
        ids = ["c", "p", "m"]
        d = mat(Z2, ids, {("c", "m"): 1, ("p", "m"): 1})
        h = mat(Z2, ids, {("m", "p"): 1})
        lhs = mat(Z2, ids, {("c", "p"): 1, ("p", "p"): 1, ("m", "m"): 1})
        assert d.mul(h).add(h.mul(d)) == lhs
        # and lhs is exactly id - (p then i) for the birth bundle maps
        proj = SparseMatrix(Z2, ids, ["c"], {("c", "c"): 1})
        incl = SparseMatrix(Z2, ["c"], ids, {("c", "c"): 1, ("c", "p"): 1})
        assert SparseMatrix.identity(Z2, ids).sub(proj.mul(incl)) == lhs

    def test_shape_mismatch(self):
        d = self.d_plus(Z2)
        other = mat(Z2, ["x"], {})
        with pytest.raises(DimensionMismatch):
            is_chain_map(SparseMatrix.identity(Z2, d.rows), d, other)


def _scan_from_zero(ring, vec, pivots):
    """reduce_against as it was first written: every step scans vec for
    its first nonzero entry from position 0."""
    v, zero = list(vec), ring.zero
    while True:
        top = next((i for i, x in enumerate(v) if x != zero), None)
        if top is None:
            return v, None
        b = pivots.get(top)
        if b is None:
            return v, top
        if ring.is_field():
            f = v[top] * ring.invert(b[top])
            v = [ring.coerce(x - f * y) for x, y in zip(v, b)]
        else:
            if v[top] % b[top] != 0:
                return v, top
            q = v[top] // b[top]
            v = [x - q * y for x, y in zip(v, b)]


def _bits(v):
    """A Z2 vector as a bit row: bit i is its entry at position i."""
    return sum(1 << i for i, x in enumerate(v) if x)


@st.composite
def _z2_rows(draw):
    """(n, rows, vec): bit rows of n <= 70 columns, so that masks cross
    64 bits, some of them sums of earlier ones so that rows reduce to
    zero, and one more vector to reduce."""
    n = draw(st.integers(0, 70), label="columns")
    row = st.one_of(
        st.integers(0, 2 ** n - 1),
        st.sets(st.integers(0, max(n - 1, 0)), max_size=4).map(
            lambda ps: sum(1 << p for p in ps) & (2 ** n - 1)))
    rows = draw(st.lists(row, max_size=10), label="rows")
    for _ in range(draw(st.integers(0, 4))):
        if rows:
            picked = draw(st.lists(st.sampled_from(rows), max_size=3))
            rows.insert(draw(st.integers(0, len(rows))),
                        functools.reduce(operator.xor, picked, 0))
    vec = draw(st.one_of(row, st.sampled_from(rows) if rows else row))
    return n, rows, vec


class TestOrderedEchelon:
    def test_field_reduction(self):
        piv = ordered_echelon(Z2, [[1, 1, 0], [1, 0, 1]])
        assert set(piv) == {0, 1}
        red, blocked = reduce_against(Z2, [0, 1, 1], piv)
        assert blocked is None and all(x == 0 for x in red)

    def test_integer_gcd_combination(self):
        piv = ordered_echelon(Z, [[4, 0, 1], [6, 1, 0]])
        assert piv[0][0] == 2  # gcd of 4 and 6 becomes the top pivot

    def test_integer_blocking(self):
        piv = ordered_echelon(Z, [[2, 1]])
        red, blocked = reduce_against(Z, [1, 0], piv)
        assert blocked == 0  # 2 does not divide 1, the top cannot clear

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.lists(st.integers(-5, 5), min_size=4, max_size=4),
                    min_size=1, max_size=4))
    def test_span_membership(self, vecs):
        piv = ordered_echelon(Z, vecs)
        for v in vecs:
            _, blocked = reduce_against(Z, v, piv)
            assert blocked is None

    @settings(max_examples=200, deadline=None)
    @given(_z2_rows())
    def test_bit_rows_match_ordered_echelon(self, drawn):
        """_bit_echelon keeps ordered_echelon(Z2, .)'s vectors at its
        pivot positions, and reduces a vector as reduce_against does."""
        n, rows, vec = drawn
        dense = [[m >> i & 1 for i in range(n)] for m in rows]
        want = ordered_echelon(Z2, dense)
        pivots, reduced = algebra._bit_echelon(rows, vec)
        assert pivots == {p: _bits(v) for p, v in want.items()}
        v, _ = reduce_against(Z2, [vec >> i & 1 for i in range(n)], want)
        assert reduced == _bits(v)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), ring=st.sampled_from([Z2, Z, Q]),
           n=st.integers(0, 8))
    def test_resumed_scan_matches_scan_from_zero(self, data, ring, n):
        """reduce_against resumes its scan at the last top; it returns
        what a scan from position 0 on every step returns."""
        entry = _RING_VALUES[ring.name].map(ring.coerce)
        vector = st.lists(entry, min_size=n, max_size=n)
        pivots = ordered_echelon(ring, data.draw(st.lists(vector, max_size=6)))
        vec = data.draw(vector)
        assert reduce_against(ring, vec, pivots) == _scan_from_zero(
            ring, vec, pivots)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), ring=st.sampled_from([Z2, Z, Q]))
    def test_echelon_matches_the_dense_elimination(self, data, ring):
        """_echelon, on bit rows over Z2 and on dense lists over Z and Q,
        keeps ordered_echelon's pivots on the nonzero dense rows taken in
        a drawn order, and returns the support of reduce_against's
        reduction of a drawn vector; 0-70 positions, so that bit rows
        cross 64 bits."""
        n = data.draw(st.integers(0, 70), label="positions")
        gens = ["g%02d" % i for i in range(n)]
        order = data.draw(st.permutations(gens), label="order")
        value = _RING_VALUES[ring.name].map(ring.coerce).filter(
            lambda x: x != ring.zero)
        entries, vec = {}, {}
        if gens:
            gen = st.sampled_from(gens)
            entries = data.draw(st.dictionaries(
                st.tuples(gen, gen), value, max_size=2 * n), label="entries")
            vec = data.draw(st.dictionaries(gen, value), label="vec")
        zero = ring.zero
        dense = [[entries.get((g, c), zero) for c in order] for g in order
                 if any((g, c) in entries for c in order)]
        want = ordered_echelon(ring, dense)
        pivots, support = algebra._echelon(ring, entries, order, vec)
        assert pivots == ({p: _bits(v) for p, v in want.items()}
                          if ring is Z2 else want)
        reduced, _ = reduce_against(
            ring, [vec.get(g, zero) for g in order], want)
        assert support == tuple(
            g for g, x in zip(order, reduced) if x != zero)
