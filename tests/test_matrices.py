import copy
import math
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qplane import (ComponentIndex, DimensionMismatch, FieldContext, MixedContext, NotSquare,
                    QMatrix, QScalar, SingularConjugator, char_poly, conjugate, direct_sum,
                    inverse, kernel_basis, rank, sample_point, substitute_q_inverse)
from qplane import matrices, modular
from qplane.commutant import predicted_commutant_dim, sylvester_operator
from qplane.jordan import JordanSpec, realize
from qplane.scalars import _lowest
from test_cli import lu_conjugate

C3 = FieldContext.root_of_unity(3)
GEN = FieldContext.generic()


def random_matrix(ctx, n, m, rng, density=1.0):
    rows = []
    for _ in range(n):
        row = []
        for _ in range(m):
            if rng.random() < density:
                row.append(ctx.rational(Fraction(rng.randint(-4, 4),
                                                 rng.randint(1, 3))))
            else:
                row.append(ctx.zero())
        rows.append(row)
    return QMatrix(ctx, rows)


@pytest.mark.parametrize("ctx", [C3, GEN])
def test_matrices_survive_pickle_and_copy(ctx):
    q = ctx.q()
    M = QMatrix(ctx, [[q, ctx.one() / (q + 2)], [ctx.zero(), q ** -1]])
    copies = [copy.copy(M), copy.deepcopy(M)]
    copies += [pickle.loads(pickle.dumps(M, proto))
               for proto in range(pickle.HIGHEST_PROTOCOL + 1)]
    for other in copies:
        assert other.ctx is ctx
        assert other == M and hash(other) == hash(M)
        assert other * M == M * M


def det_by_laplace(A):
    """Independent determinant: cofactor expansion along the first row."""
    n = A.nrows
    if n == 0:
        return A.ctx.one()
    if n == 1:
        return A[0, 0]
    total = A.ctx.zero()
    for j in range(n):
        if A[0, j].is_zero():
            continue
        minor = A.submatrix(range(1, n), [c for c in range(n) if c != j])
        term = A[0, j] * det_by_laplace(minor)
        total = total + term if j % 2 == 0 else total - term
    return total


# ---------------------------------------------------------------------------
# construction and arithmetic
# ---------------------------------------------------------------------------

def test_ragged_rows_rejected():
    with pytest.raises(DimensionMismatch):
        QMatrix(C3, [[C3.one(), C3.zero()], [C3.one()]])


def test_shape_mismatch_in_sum():
    with pytest.raises(DimensionMismatch):
        QMatrix.identity(C3, 2) + QMatrix.zero(C3, 3, 3)


def test_mixed_contexts_rejected():
    C4 = FieldContext.root_of_unity(4)
    with pytest.raises(MixedContext, match="matrix entry from a different field context"):
        QMatrix(C3, [[C3.one(), C4.one()]])
    for other in (C4, GEN):
        I3, Io = QMatrix.identity(C3, 2), QMatrix.identity(other, 2)
        for op in (lambda x, y: x + y, lambda x, y: x - y, lambda x, y: x * y):
            with pytest.raises(MixedContext, match="matrices from different field contexts"):
                op(I3, Io)
        with pytest.raises(MixedContext, match="direct_sum over mixed field contexts"):
            direct_sum(I3, Io)
        assert I3 != Io


def test_identity_is_multiplicative_unit():
    rng = random.Random(1)
    A = random_matrix(GEN, 3, 3, rng)
    I = QMatrix.identity(GEN, 3)
    assert A * I == A
    assert I * A == A


def test_product_against_hand_computation():
    A = QMatrix.from_rational_rows(C3, [[1, 2], [0, 1]])
    B = QMatrix.from_rational_rows(C3, [[3, 0], [1, 1]])
    assert A * B == QMatrix.from_rational_rows(C3, [[5, 2], [1, 1]])


def naive_product(A, B):
    """Reference: the textbook triple loop over every entry."""
    ctx = A.ctx
    rows = []
    for i in range(A.nrows):
        row = []
        for j in range(B.ncols):
            total = ctx.zero()
            for k in range(A.ncols):
                total = total + A[i, k] * B[k, j]
            row.append(total)
        rows.append(row)
    return QMatrix(ctx, rows)


def random_field_matrix(ctx, n, m, rng, density):
    """Entries a + b q with small rational a, b; zero with probability 1 - density."""
    q = ctx.q()
    return QMatrix(ctx, [
        [ctx.rational(Fraction(rng.randint(-3, 3), rng.randint(1, 2)))
         + ctx.rational(rng.randint(-2, 2)) * q
         if rng.random() < density else ctx.zero()
         for _ in range(m)]
        for _ in range(n)])


@pytest.mark.parametrize("ctx", [C3, FieldContext.root_of_unity(5), GEN])
def test_product_matches_the_naive_triple_loop(ctx):
    rng = random.Random(11)
    for m, k, n in ((1, 1, 1), (2, 3, 4), (4, 3, 2), (3, 1, 3), (1, 4, 1), (5, 5, 5)):
        for da, db in ((1.0, 1.0), (0.3, 0.3), (1.0, 0.2), (0.0, 1.0), (1.0, 0.0)):
            A = random_field_matrix(ctx, m, k, rng, da)
            B = random_field_matrix(ctx, k, n, rng, db)
            got = A * B
            assert got == naive_product(A, B)
            assert (got.nrows, got.ncols) == (m, n)


@pytest.mark.parametrize("ctx", [C3, FieldContext.root_of_unity(5), GEN])
def test_shift_matches_adding_a_multiple_of_the_identity(ctx):
    rng = random.Random(12)
    for n in (1, 2, 4):
        I = QMatrix.identity(ctx, n)
        for density in (1.0, 0.3, 0.0):
            X = random_field_matrix(ctx, n, n, rng, density)
            for c in (0, 3, -2, Fraction(-5, 3), ctx.q() + 2, ctx.zero()):
                assert X.shift(c) == X + c * I
    with pytest.raises(NotSquare):
        QMatrix.zero(ctx, 2, 3).shift(1)


@pytest.mark.parametrize("ctx", [C3, FieldContext.root_of_unity(5), GEN])
def test_sparse_and_nonzeros_invert_each_other(ctx):
    rng = random.Random(14)
    for nrows, ncols in ((0, 0), (0, 3), (3, 0), (1, 1), (2, 5), (4, 3)):
        for density in (0.0, 0.4, 1.0):
            X = random_field_matrix(ctx, nrows, ncols, rng, density)
            entries = [(r, c, x) for r, row in enumerate(X.rows)
                       for c, x in enumerate(row) if not x.is_zero()]
            M = QMatrix.sparse(ctx, nrows, ncols, entries)
            assert M.nonzeros() == entries
            # QMatrix(ctx, []) cannot know its column count, so compare rows
            assert M.rows == X.rows and M.ctx is X.ctx
            assert (M.nrows, M.ncols) == (nrows, ncols)
    assert QMatrix.sparse(ctx, 2, 2, [(1, 0, ctx.q())]).rows == (
        (ctx.zero(), ctx.zero()), (ctx.q(), ctx.zero()))


@pytest.mark.parametrize("ctx", [C3, GEN])
def test_matrices_keep_their_shape_when_a_side_is_zero(ctx):
    def shape(M):
        return (M.nrows, M.ncols)

    assert shape(QMatrix.zero(ctx, 0, 4)) == (0, 4)
    assert shape(QMatrix.zero(ctx, 0, 4) * QMatrix.zero(ctx, 4, 2)) == (0, 2)
    assert shape(QMatrix.zero(ctx, 2, 0) * QMatrix.zero(ctx, 0, 3)) == (2, 3)
    assert (QMatrix.zero(ctx, 2, 0) * QMatrix.zero(ctx, 0, 3)).is_zero()
    assert shape(QMatrix.zero(ctx, 3, 0).transpose()) == (0, 3)
    assert shape(QMatrix.zero(ctx, 0, 3).transpose()) == (3, 0)
    X = random_field_matrix(ctx, 3, 4, random.Random(15), 1.0)
    assert shape(X.submatrix(range(0), range(4))) == (0, 4)
    assert shape(X.submatrix(range(3), range(0))) == (3, 0)
    assert shape(direct_sum(QMatrix.zero(ctx, 0, 2), QMatrix.zero(ctx, 3, 0))) == (3, 2)
    assert shape(QMatrix.zero(ctx, 0, 4) + QMatrix.zero(ctx, 0, 4)) == (0, 4)
    assert shape(-QMatrix.zero(ctx, 0, 4).scale(3)) == (0, 4)
    assert shape(QMatrix.zero(ctx, 0, 4).map_entries(lambda x: x + 1)) == (0, 4)
    assert QMatrix.zero(ctx, 0, 4) != QMatrix.zero(ctx, 0, 3)
    for proto in range(pickle.HIGHEST_PROTOCOL + 1):
        assert shape(pickle.loads(pickle.dumps(QMatrix.zero(ctx, 0, 4), proto))) == (0, 4)
    # an m x 0 map has the zero space as kernel; a 0 x n map has all of Q^n
    assert kernel_basis(QMatrix.zero(ctx, 3, 0)) == []
    assert rank(QMatrix.zero(ctx, 3, 0)) == rank(QMatrix.zero(ctx, 0, 3)) == 0
    unit = [tuple(ctx.one() if j == i else ctx.zero() for j in range(3)) for i in range(3)]
    assert kernel_basis(QMatrix.zero(ctx, 0, 3)) == unit


# ---------------------------------------------------------------------------
# the stored nonzeros against a dense reference
# ---------------------------------------------------------------------------

C5 = FieldContext.root_of_unity(5)


def test_sparse_rejects_a_position_outside_the_shape():
    x = C3.q()
    for r, c in ((0, -1), (-1, 0), (2, 0), (0, 3), (5, 5)):
        with pytest.raises(IndexError):
            QMatrix.sparse(C3, 2, 3, [(r, c, x)])
    with pytest.raises(IndexError):
        QMatrix.sparse(C3, 0, 3, [(0, 0, x)])


def test_scale_checks_the_scalar_on_an_all_zero_matrix():
    Z = QMatrix.zero(C3, 2, 2)
    for other in (C5.q(), GEN.one()):
        with pytest.raises(MixedContext):
            Z.scale(other)
        with pytest.raises(MixedContext):
            Z * other
    assert Z.scale(C3.q()) == Z


def test_map_entries_applies_fn_to_every_entry_zeros_included():
    M = QMatrix.sparse(C3, 2, 3, [(0, 1, C3.q()), (1, 2, -C3.one())])
    seen = []

    def fn(x):
        seen.append(x)
        return x + 1

    out = M.map_entries(fn)
    assert seen == [x for row in M.rows for x in row]
    one = C3.one()
    assert out.rows == ((one, C3.q() + 1, one), (one, one, C3.zero()))
    assert out.nonzeros() == [(0, 0, one), (0, 1, C3.q() + 1), (0, 2, one), (1, 0, one),
                              (1, 1, one)]


def test_nonzeros_run_row_by_row_with_ascending_columns():
    q, one = C3.q(), C3.one()
    triples = [(2, 3, q), (0, 2, one), (2, 0, one), (0, 0, q), (1, 1, one), (2, 1, q)]
    M = QMatrix.sparse(C3, 3, 4, triples)
    positions = [(0, 0), (0, 2), (1, 1), (2, 0), (2, 1), (2, 3)]
    assert [(r, c) for r, c, _ in M.nonzeros()] == positions
    square = M.submatrix(range(3), [3, 2, 1])
    assert M.submatrix([2, 0], [-1, 0]).rows == ((q, one), (C3.zero(), q))
    derived = (M + M, M.transpose(), M.transpose() * M, square, inverse(square.shift(5)),
               direct_sum(M.transpose(), M), M.map_entries(lambda x: x * q))
    for D in derived:
        got = [(r, c) for r, c, _ in D.nonzeros()]
        assert got == sorted(got)


# a dense reference: lists of lists of QScalars and plain loops

def ref_sparse(ctx, nrows, ncols, triples):
    grid = [[ctx.zero()] * ncols for _ in range(nrows)]
    for r, c, x in triples:
        grid[r][c] = grid[r][c] + x
    return grid


def ref_mul(ctx, a, b, ncols):
    return [[sum((a[i][k] * b[k][j] for k in range(len(b))), ctx.zero())
             for j in range(ncols)] for i in range(len(a))]


def as_grid(M):
    return [list(row) for row in M.rows]


@st.composite
def stored_matrices(draw, ctx, nrows, ncols):
    """(triples, nrows, ncols): entries from a small pool over ctx, some of
    them repeated at one position with values that cancel."""
    q, one = ctx.q(), ctx.one()
    pool = [one, -one, q, q + 2, one / (q + 3), ctx.rational(Fraction(-3, 2)) * q]
    triples = []
    if nrows and ncols:
        for _ in range(draw(st.integers(0, 2 * nrows * ncols))):
            r, c = draw(st.integers(0, nrows - 1)), draw(st.integers(0, ncols - 1))
            x = draw(st.sampled_from(pool))
            triples.append((r, c, x))
            if draw(st.booleans()):
                triples.append((r, c, -x))  # the position sums to zero
    return draw(st.permutations(triples))


@st.composite
def storage_cases(draw):
    ctx = draw(st.sampled_from((C3, C5, GEN)))
    side = st.integers(0, 4)
    m, n, k = draw(side), draw(side), draw(side)
    # a submatrix may repeat rows and columns and give columns from the end
    rows = draw(st.lists(st.integers(0, m - 1), max_size=4)) if m else []
    cols = draw(st.lists(st.integers(-n, n - 1), max_size=4)) if n else []
    return (ctx, m, n, k, draw(stored_matrices(ctx, m, n)),
            draw(stored_matrices(ctx, m, n)), draw(stored_matrices(ctx, n, k)),
            draw(stored_matrices(ctx, m, m)), rows, cols)


def check_stored(M, grid, nrows, ncols):
    """M holds exactly grid, stores no zero, and agrees with its copies."""
    assert (M.nrows, M.ncols) == (nrows, ncols)
    assert as_grid(M) == grid
    assert M.nonzeros() == [(r, c, x) for r, row in enumerate(grid)
                            for c, x in enumerate(row) if not x.is_zero()]
    assert not any(x.is_zero() for _, _, x in M.nonzeros())
    twins = [QMatrix.sparse(M.ctx, nrows, ncols, reversed(M.nonzeros())),
             copy.copy(M), copy.deepcopy(M)]
    twins += [pickle.loads(pickle.dumps(M, proto))
              for proto in range(pickle.HIGHEST_PROTOCOL + 1)]
    if nrows:
        twins.append(QMatrix(M.ctx, grid))
    for twin in twins:
        assert twin == M and hash(twin) == hash(M) and twin.nonzeros() == M.nonzeros()
    if nrows and ncols:
        bumped = QMatrix.sparse(M.ctx, nrows, ncols, M.nonzeros() + [(0, 0, M.ctx.one())])
        assert bumped != M


@given(storage_cases())
@settings(max_examples=60, deadline=None)
def test_every_operation_matches_a_dense_reference(case):
    ctx, m, n, k, ta, tb, tc, ts, rows, cols = case
    A, B = QMatrix.sparse(ctx, m, n, ta), QMatrix.sparse(ctx, m, n, tb)
    C, S = QMatrix.sparse(ctx, n, k, tc), QMatrix.sparse(ctx, m, m, ts)
    a, b = ref_sparse(ctx, m, n, ta), ref_sparse(ctx, m, n, tb)
    c, s = ref_sparse(ctx, n, k, tc), ref_sparse(ctx, m, m, ts)
    for M, grid, shape in ((A, a, (m, n)), (B, b, (m, n)), (C, c, (n, k)), (S, s, (m, m))):
        check_stored(M, grid, *shape)
    x = ctx.q() - 1
    zero = ctx.zero()
    check_stored(A + B, [[u + v for u, v in zip(r1, r2)] for r1, r2 in zip(a, b)], m, n)
    check_stored(A - B, [[u - v for u, v in zip(r1, r2)] for r1, r2 in zip(a, b)], m, n)
    check_stored(-A, [[-u for u in row] for row in a], m, n)
    check_stored(A - A, [[zero] * n for _ in range(m)], m, n)
    for factor in (x, zero, 3):
        scaled = [[ctx.rational(factor) * u if isinstance(factor, int) else factor * u
                   for u in row] for row in a]
        check_stored(A.scale(factor), scaled, m, n)
    check_stored(S.shift(x), [[u + x if i == j else u for j, u in enumerate(row)]
                              for i, row in enumerate(s)], m, m)
    check_stored(A * C, ref_mul(ctx, a, c, k), m, k)
    check_stored(A.transpose(), [[a[i][j] for i in range(m)] for j in range(n)], n, m)
    check_stored(A.submatrix(rows, cols), [[a[i][j] for j in cols] for i in rows],
                 len(rows), len(cols))
    dsum = [row + [zero] * k for row in a] + [[zero] * n + row for row in c]
    check_stored(direct_sum(A, C), dsum, m + n, n + k)
    flip = substitute_q_inverse
    check_stored(A.map_entries(lambda u: flip(u) + 1),
                 [[flip(u) + 1 for u in row] for row in a], m, n)
    try:
        inv = inverse(S)
    except SingularConjugator:
        assert det_by_laplace(S).is_zero()
    else:
        ident = [[ctx.one() if i == j else zero for j in range(m)] for i in range(m)]
        assert ref_mul(ctx, s, as_grid(inv), m) == ident
        check_stored(inv, as_grid(inv), m, m)


def eval_poly_at_matrix(coeffs, A):
    """The little-endian polynomial coeffs evaluated at the square matrix A,
    by Horner's rule: the Cayley-Hamilton oracle for char_poly."""
    out = QMatrix.zero(A.ctx, A.nrows, A.nrows)
    for c in reversed(list(coeffs)):
        out = (out * A).shift(c)
    return out


def test_eval_poly_at_matrix_takes_int_coefficients():
    rng = random.Random(13)
    for ctx in (C3, GEN):
        A = random_field_matrix(ctx, 3, 3, rng, 0.7)
        # 2 - 3x + x^2, Horner by hand
        expected = (A * A) + A * (-3) + QMatrix.identity(ctx, 3) * 2
        assert eval_poly_at_matrix([2, -3, 1], A) == expected
        assert eval_poly_at_matrix([ctx.rational(2), -3, Fraction(1)], A) == expected
        assert eval_poly_at_matrix([], A).is_zero()


def test_transpose_involution_and_shapes():
    rng = random.Random(2)
    A = random_matrix(GEN, 2, 5, rng)
    assert A.transpose().transpose() == A
    assert A.transpose().nrows == 5
    empty = QMatrix.zero(C3, 0, 4)
    assert empty.transpose().ncols == 0


def scalar_gustavson(X, Y):
    """The nonzeros (r, c, x) of X Y, columns ascending, by Gustavson over
    the stored nonzeros with every product and partial sum a reduced
    QScalar: the oracle of the one-reduction sums in QMatrix.__mul__."""
    right = [{} for _ in range(Y.nrows)]
    for k, c, y in Y.nonzeros():
        right[k][c] = y
    rows = [{} for _ in range(X.nrows)]
    for r, k, x in X.nonzeros():
        acc = rows[r]
        for c, y in right[k].items():
            s = acc.get(c)
            acc[c] = x * y if s is None else s + x * y
    return [(r, c, acc[c]) for r, acc in enumerate(rows) for c in sorted(acc) if acc[c]]


@st.composite
def product_cases(draw):
    """(X, Y, W): X is m x N, Y N x p and W N x m, over Q(zeta_ell) or Q(q),
    sides from 0, entries with denominators 1 to 12.  X = [X0 | c X0 | X1]
    and Y = [Y0; -Y0 / c; Y1], so the terms of every entry of X Y outside the
    rows of X1 cancel to exactly zero, over denominators that differ."""
    ell = draw(st.sampled_from((1, 2, 3, 4, 5, 7, 8, 12, math.inf)))
    ctx = FieldContext.for_order(ell)

    def entry():
        d, top = draw(st.integers(1, 12)), draw(st.sampled_from((1, 3, 2 ** 70)))
        if ctx.is_generic:
            return (ctx.rational(Fraction(draw(st.integers(-top, top)), d))
                    * ctx.q_power(draw(st.integers(-2, 2))) / (ctx.q() + draw(st.integers(1, 3))))
        return _lowest(ctx, [draw(st.integers(-top, top)) for _ in range(ctx._deg)], d)

    def grid(nrows, ncols, rows=None):
        return [(i, j, entry()) for i in range(nrows) for j in range(ncols)
                if (rows is None or i in rows) and draw(st.booleans())]

    m, n, k, p = (draw(st.integers(0, 3)) for _ in range(4))
    c = entry() or ctx.one()
    x0, y0 = grid(m, n), grid(n, p)
    x1, y1 = grid(m, k, draw(st.sets(st.integers(0, max(m - 1, 0))))), grid(k, p)
    N = 2 * n + k
    X = QMatrix.sparse(ctx, m, N, x0 + [(i, n + j, c * x) for i, j, x in x0]
                       + [(i, 2 * n + j, x) for i, j, x in x1])
    Y = QMatrix.sparse(ctx, N, p, y0 + [(n + i, j, -y / c) for i, j, y in y0]
                       + [(2 * n + i, j, y) for i, j, y in y1])
    return X, Y, QMatrix.sparse(ctx, N, m, grid(N, m))


def pairs_of(nonzeros):
    return [(r, c, x.int_num, x.int_den) for r, c, x in nonzeros]


@given(product_cases())
@settings(max_examples=150, deadline=None)
def test_products_and_traces_match_the_scalar_gustavson_loop(case):
    X, Y, W = case
    for P, Q in ((X, Y), (X, W)):
        got = (P * Q).nonzeros()
        assert pairs_of(got) == pairs_of(scalar_gustavson(P, Q))
        assert all(x for _, _, x in got)
        assert [(r, c) for r, c, _ in got] == sorted((r, c) for r, c, _ in got)
    diagonal = [x for r, c, x in scalar_gustavson(X, W) if r == c]
    assert (X * W).trace() == sum(diagonal, X.ctx.zero())
    if not X.ctx.is_generic:  # the lattice traces it serves exist only at finite ell
        assert matrices._trace_of_product(X.nonzeros(), W) == (X * W).trace()


def test_trace_of_product_is_symmetric():
    rng = random.Random(3)
    for _ in range(10):
        A = random_matrix(C3, 3, 3, rng)
        B = random_matrix(C3, 3, 3, rng)
        assert (A * B).trace() == (B * A).trace()


def test_power():
    N = QMatrix.from_rational_rows(GEN, [[0, 1], [0, 0]])
    assert (N ** 2).is_zero()
    assert N ** 0 == QMatrix.identity(GEN, 2)


# ---------------------------------------------------------------------------
# rank / kernel / inverse
# ---------------------------------------------------------------------------

def test_rank_small_examples():
    assert rank(QMatrix.zero(C3, 3, 3)) == 0
    assert rank(QMatrix.identity(C3, 4)) == 4
    A = QMatrix.from_rational_rows(GEN, [[1, 2, 3], [2, 4, 6], [1, 0, 1]])
    assert rank(A) == 2


def test_rank_of_product_bounded():
    rng = random.Random(4)
    for _ in range(15):
        A = random_matrix(GEN, 3, 4, rng, density=0.7)
        B = random_matrix(GEN, 4, 3, rng, density=0.7)
        assert rank(A * B) <= min(rank(A), rank(B))


def test_kernel_vectors_annihilate():
    rng = random.Random(5)
    for ctx in (C3, GEN):
        for _ in range(10):
            A = random_matrix(ctx, 3, 5, rng, density=0.6)
            basis = kernel_basis(A)
            assert len(basis) == 5 - rank(A)
            for v in basis:
                col = QMatrix(ctx, [[x] for x in v])
                assert (A * col).is_zero()


SMALL = st.fractions(min_value=-3, max_value=3, max_denominator=3)


@st.composite
def field_scalars(draw, ctx):
    """Small elements of ctx: a + b q over Q(zeta_3), a + b q^k over Q(q)."""
    a, b = ctx.rational(draw(SMALL)), ctx.rational(draw(SMALL))
    k = draw(st.integers(-1, 2)) if ctx.is_generic else 1
    return a + b * ctx.q() ** k


@st.composite
def elimination_inputs(draw, contexts=(C3, GEN), rational=False):
    """Sparse or dense matrices up to 6 x 7, some rows combinations of others."""
    ctx = draw(st.sampled_from(contexts))
    entry = st.builds(ctx.rational, SMALL) if rational else field_scalars(ctx)
    nrows, ncols = draw(st.integers(1, 6)), draw(st.integers(1, 7))
    density = draw(st.sampled_from([25, 60, 100]))
    rows = []
    for _ in range(nrows):
        if rows and draw(st.integers(0, 2)) == 0:
            row = [ctx.zero()] * ncols
            for _ in range(draw(st.integers(1, 2))):
                f, other = draw(entry), draw(st.sampled_from(rows))
                row = [x + f * y for x, y in zip(row, other)]
        else:
            row = [draw(entry) if draw(st.integers(0, 99)) < density else ctx.zero()
                   for _ in range(ncols)]
        rows.append(row)
    return QMatrix(ctx, rows)


@given(elimination_inputs())
@settings(max_examples=60, deadline=None)
def test_kernel_basis_is_the_reduced_echelon_basis(A):
    ctx, n = A.ctx, A.ncols
    # free columns: those where the rank of the column prefix does not grow
    prefix = [rank(A.submatrix(range(A.nrows), range(j))) if j else 0
              for j in range(n + 1)]
    free = [j for j in range(n) if prefix[j + 1] == prefix[j]]
    basis = kernel_basis(A)
    assert len(basis) == len(free)
    for v, own in zip(basis, free):
        assert (A * QMatrix(ctx, [[x] for x in v])).is_zero()
        for j in free:
            assert v[j] == (ctx.one() if j == own else ctx.zero())


@given(elimination_inputs(contexts=(C3,), rational=True))
@settings(max_examples=60, deadline=None)
def test_kernel_basis_matches_sympy_nullspace(A):
    sympy = pytest.importorskip("sympy")
    rows = [[sympy.Rational(x.as_rational().numerator, x.as_rational().denominator)
             for x in row] for row in A.rows]
    expected = [[Fraction(int(x.p), int(x.q)) for x in v]
                for v in sympy.Matrix(rows).nullspace()]
    got = [[x.as_rational() for x in v] for v in kernel_basis(A)]
    assert got == expected


def test_kernel_of_injective_map_is_empty():
    assert kernel_basis(QMatrix.identity(C3, 3)) == []


def test_inverse_round_trip():
    rng = random.Random(6)
    for _ in range(10):
        A = random_matrix(GEN, 3, 3, rng)
        if rank(A) < 3:
            continue
        assert A * inverse(A) == QMatrix.identity(GEN, 3)


def test_inverse_of_singular_matrix_raises():
    # the zero row of [[1, 2], [0, 0]] leaves the augmented row {3: 1}, a
    # row singleton that the elimination takes before any other pivot
    for rows in ([[1, 1], [1, 1]], [[1, 2], [0, 0]]):
        with pytest.raises(SingularConjugator):
            inverse(QMatrix.from_rational_rows(C3, rows))


def test_conjugation_preserves_trace_and_rank():
    rng = random.Random(7)
    g = QMatrix.from_rational_rows(GEN, [[1, 1, 0], [0, 1, 2], [1, 0, 1]])
    for _ in range(5):
        A = random_matrix(GEN, 3, 3, rng)
        B = conjugate(g, A)
        assert B.trace() == A.trace()
        assert rank(B) == rank(A)


# ---------------------------------------------------------------------------
# direct sums
# ---------------------------------------------------------------------------

def test_direct_sum_block_layout():
    A = QMatrix.from_rational_rows(C3, [[1]])
    B = QMatrix.from_rational_rows(C3, [[2, 0], [0, 3]])
    S = direct_sum(A, B)
    assert S.nrows == 3
    assert S[0, 0] == C3.one()
    assert S[1, 1] == C3.rational(2)
    assert S[0, 1].is_zero() and S[2, 0].is_zero()


def test_direct_sum_rank_additive():
    rng = random.Random(8)
    A = random_matrix(GEN, 2, 2, rng)
    B = random_matrix(GEN, 3, 3, rng, density=0.5)
    assert rank(direct_sum(A, B)) == rank(A) + rank(B)


# ---------------------------------------------------------------------------
# characteristic polynomial
# ---------------------------------------------------------------------------

def test_char_poly_of_qcommuting_diagonal():
    # diag(a, a/q) has char poly x^2 - a(1 + q^-1)x + a^2 q^-1
    q = GEN.q()
    a = GEN.rational(5)
    A = QMatrix.diagonal(GEN, [a, a / q])
    coeffs = char_poly(A)
    assert coeffs[2] == GEN.one()
    assert coeffs[1] == -(a * (GEN.one() + q.inverse()))
    assert coeffs[0] == a * a * q.inverse()


def test_char_poly_of_nilpotent_jordan_block():
    N = QMatrix.from_rational_rows(C3, [[0, 1, 0], [0, 0, 1], [0, 0, 0]])
    coeffs = char_poly(N)
    assert [c.is_zero() for c in coeffs] == [True, True, True, False]


def test_char_poly_constant_term_is_signed_determinant():
    rng = random.Random(9)
    for ctx in (C3, GEN):
        for n in (1, 2, 3, 4):
            A = random_matrix(ctx, n, n, rng, density=0.8)
            coeffs = char_poly(A)
            det = det_by_laplace(A)
            expected = det if n % 2 == 0 else -det
            assert coeffs[0] == expected


def test_cayley_hamilton():
    rng = random.Random(10)
    for ctx in (C3, GEN):
        for _ in range(8):
            A = random_matrix(ctx, 3, 3, rng)
            assert eval_poly_at_matrix(char_poly(A), A).is_zero()


def test_char_poly_requires_square():
    with pytest.raises(NotSquare):
        char_poly(QMatrix.zero(C3, 2, 3))


def test_char_poly_of_the_empty_matrix_is_one():
    assert char_poly(QMatrix.zero(GEN, 0, 0)) == [GEN.one()]


# ---------------------------------------------------------------------------
# block triangular form
# ---------------------------------------------------------------------------

def reaches(pattern, start, inside):
    """The vertices of `inside` reachable from start along pattern's edges
    that stay in `inside`."""
    seen, todo = {start}, [start]
    while todo:
        for w in pattern[todo.pop()]:
            if w in inside and w not in seen:
                seen.add(w)
                todo.append(w)
    return seen


def assert_strongly_connected_blocks(blocks, n, matrices_):
    """blocks partitions range(n) into the strongly connected components of
    the union of the matrices' nonzero patterns, in block triangular order."""
    entries = [(r, c) for M in matrices_ for r, c, _ in M.nonzeros()]
    pattern = {i: {c for r, c in entries if r == i} for i in range(n)}
    # a partition of range(n) into ascending lists
    assert sorted(i for block in blocks for i in block) == list(range(n))
    assert all(block == sorted(block) for block in blocks)
    position = {i: b for b, block in enumerate(blocks) for i in block}
    for block in blocks:  # strongly connected: all of it reachable from each vertex
        inside = set(block)
        assert all(reaches(pattern, i, inside) == inside for i in block)
    # every nonzero of every matrix lies inside one block or runs from an
    # earlier block to a later one
    assert all(position[r] <= position[c] for r, c in entries)


@given(st.integers(1, 12), st.integers(0, 40), st.integers(0, 40),
       st.randoms(use_true_random=False))
@settings(max_examples=80, deadline=None)
def test_diagonal_blocks_are_the_strongly_connected_components(n, nnz, nnz_b, rng):
    def random_matrix(count):
        return QMatrix.sparse(C3, n, n, [(rng.randrange(n), rng.randrange(n),
                                          C3.rational(rng.choice((-1, 1, 2))))
                                         for _ in range(count)])

    A, B = random_matrix(nnz), random_matrix(nnz_b)
    assert_strongly_connected_blocks(matrices.diagonal_blocks(A), n, [A])
    # of a pair: the components of the union of the two patterns
    blocks = matrices.diagonal_blocks(A, B)
    assert_strongly_connected_blocks(blocks, n, [A, B])
    assert sorted(matrices.diagonal_blocks(B, A)) == sorted(blocks)
    assert matrices.diagonal_blocks(A, A) == matrices.diagonal_blocks(A)


def test_diagonal_blocks_of_a_pair_need_square_matrices_of_one_size():
    with pytest.raises(NotSquare):
        matrices.diagonal_blocks(QMatrix.zero(C3, 2, 2), QMatrix.zero(C3, 2, 3))
    with pytest.raises(DimensionMismatch):
        matrices.diagonal_blocks(QMatrix.zero(C3, 2, 2), QMatrix.zero(C3, 3, 3))


def test_diagonal_blocks_of_long_paths_and_cycles_need_no_recursion():
    n, one = 3000, C3.one()
    path = QMatrix.sparse(C3, n, n, [(i, i + 1, one) for i in range(n - 1)])
    assert matrices.diagonal_blocks(path) == [[i] for i in range(n)]
    backward = path.transpose()
    assert matrices.diagonal_blocks(backward) == [[i] for i in reversed(range(n))]
    cycle = QMatrix.sparse(C3, n, n, [(i, (i + 1) % n, one) for i in range(n)])
    assert matrices.diagonal_blocks(cycle) == [list(range(n))]


def test_char_poly_multiplies_the_char_polys_of_the_diagonal_blocks():
    # the 2x2 block on {1, 3} feeds the 2x2 block on {0, 2}, which feeds the
    # 1x1 block on {4}
    A = QMatrix.from_rational_rows(C3, [[1, 0, 2, 0, 5],
                                        [6, 0, 0, 3, 0],
                                        [1, 0, 0, 0, 1],
                                        [0, 1, 0, 1, 0],
                                        [0, 0, 0, 0, 4]])
    assert matrices.diagonal_blocks(A) == [[1, 3], [0, 2], [4]]
    assert char_poly(A) == list(matrices._faddeev_leverrier(A))


@st.composite
def char_poly_inputs(draw):
    """Square matrices up to 4 x 4 over Q(zeta_3), Q(zeta_5) or Q(q), with
    entries a + b q^k (k in -1..2) and some zeros."""
    ctx = draw(st.sampled_from((C3, FieldContext.root_of_unity(5), GEN)))
    n = draw(st.integers(1, 4))

    def entry():
        if draw(st.integers(0, 3)) == 0:
            return ctx.zero()
        k = draw(st.integers(-1, 2))
        return ctx.rational(draw(SMALL)) + ctx.rational(draw(SMALL)) * ctx.q() ** k

    return QMatrix(ctx, [[entry() for _ in range(n)] for _ in range(n)])


def scalar_to_sympy(sympy, a, x):
    """a as a sympy expression in x = q: a polynomial over Q(zeta_ell), a
    quotient of polynomials over Q(q)."""
    def from_ints(ints):
        return sum(sympy.Integer(c) * x ** i for i, c in enumerate(ints))
    return from_ints(a.int_num) / from_ints(a.int_den)


@given(char_poly_inputs())
@settings(max_examples=40, deadline=None)
def test_char_poly_matches_sympy(A):
    sympy = pytest.importorskip("sympy")
    x, y = sympy.symbols("x y")
    M = sympy.Matrix([[scalar_to_sympy(sympy, e, x) for e in row] for row in A.rows])
    expected = M.charpoly(y).all_coeffs()[::-1]
    got = [scalar_to_sympy(sympy, c, x) for c in char_poly(A)]
    assert len(got) == len(expected)
    for ours, theirs in zip(got, expected):
        if A.ctx.is_generic:
            assert sympy.cancel(ours - theirs) == 0
        else:
            reduced = sympy.rem(sympy.expand(theirs),
                                sympy.cyclotomic_poly(A.ctx.ell, x), x)
            assert sympy.expand(ours - reduced) == 0


@st.composite
def low_rank_inputs(draw):
    """Matrices up to 5 x 6 over Q(zeta_3), Q(zeta_5) or Q(q), built as a
    product L R through an inner dimension of at most the smaller side, so
    that many are rank-deficient; entries of L and R are a + b q^k."""
    ctx = draw(st.sampled_from((C3, FieldContext.root_of_unity(5), GEN)))
    nrows, ncols = draw(st.integers(1, 5)), draw(st.integers(1, 6))
    inner = draw(st.integers(0, min(nrows, ncols)))
    top = 2 if ctx.is_generic else ctx.ell - 1

    def factor(r, c):
        return QMatrix(ctx, [[ctx.rational(draw(SMALL))
                              + ctx.rational(draw(SMALL)) * ctx.q() ** draw(st.integers(-1, top))
                              for _ in range(c)] for _ in range(r)])

    if not inner:
        return QMatrix.zero(ctx, nrows, ncols)
    return factor(nrows, inner) * factor(inner, ncols)


@given(low_rank_inputs())
@settings(max_examples=40, deadline=None)
def test_rank_matches_sympy_domain_matrix(A):
    sympy = pytest.importorskip("sympy")
    from sympy.polys.matrices import DomainMatrix
    x = sympy.Symbol("x")
    if A.ctx.is_generic:
        K = sympy.QQ.frac_field(x)
        entries = [[K.from_sympy(scalar_to_sympy(sympy, e, x)) for e in row]
                   for row in A.rows]
    else:
        zeta = sympy.exp(2 * sympy.pi * sympy.I / A.ctx.ell)
        K = sympy.QQ.algebraic_field(zeta)
        z = K.from_sympy(zeta)
        entries = [[sum((K.from_sympy(sympy.Rational(c, e.int_den[0])) * z ** i
                         for i, c in enumerate(e.int_num)), K.zero) for e in row]
                   for row in A.rows]
    assert rank(A) == DomainMatrix(entries, (A.nrows, A.ncols), K).rank()


# ---------------------------------------------------------------------------
# row singletons peeled before exact elimination
# ---------------------------------------------------------------------------

C5 = FieldContext.root_of_unity(5)


@st.composite
def hidden_structure_inputs(draw):
    """Matrices up to 12 x 14 (sides may be 0) over Q(zeta_3), Q(zeta_5) or
    Q(q): a triangular block with a nonzero diagonal, coupled to the columns
    right of it; a dense singular block of at most 5 x 5; below them zero
    rows, singleton rows, multiples of an earlier singleton and sparse rows;
    some columns kept zero; all hidden under random row and column
    permutations."""
    ctx = draw(st.sampled_from((C3, C5, GEN)))
    nrows, ncols = draw(st.integers(0, 12)), draw(st.integers(0, 14))

    def entry():
        x = (ctx.rational(draw(SMALL))
             + ctx.rational(draw(SMALL)) * ctx.q() ** draw(st.integers(-1, 3)))
        return x if x else ctx.one()

    t = draw(st.integers(0, min(nrows, ncols)))
    k = draw(st.integers(0, min(nrows - t, ncols - t, 5)))
    zero_cols = draw(st.sets(st.integers(t + k, ncols - 1))) if t + k < ncols else set()
    live = [j for j in range(ncols) if j not in zero_cols]

    def sparse(i, low):
        return [(i, j, entry()) for j in live if j >= low and draw(st.integers(0, 99)) < 20]

    entries = []
    for i in range(t):
        entries += [(i, i, entry())] + sparse(i, i + 1)
    if k:
        s = draw(st.integers(0, k - 1))
        L = QMatrix.sparse(ctx, k, s, [(i, h, entry()) for i in range(k) for h in range(s)])
        R = QMatrix.sparse(ctx, s, k, [(h, j, entry()) for h in range(s) for j in range(k)])
        entries += [(t + i, t + j, x) for i, j, x in (L * R).nonzeros()]
    singletons = []
    for i in range(t + k, nrows):
        kind = draw(st.sampled_from(("zero", "singleton", "multiple", "sparse")))
        if kind == "multiple" and singletons:
            _, j, x = draw(st.sampled_from(singletons))
            entries.append((i, j, entry() * x))
        elif kind in ("singleton", "multiple") and live:
            singletons.append((i, draw(st.sampled_from(live)), entry()))
            entries.append(singletons[-1])
        elif kind == "sparse":
            entries += sparse(i, 0)
    rperm = draw(st.permutations(range(nrows)))
    cperm = draw(st.permutations(range(ncols)))
    return QMatrix.sparse(ctx, nrows, ncols, [(rperm[i], cperm[j], x) for i, j, x in entries])


@given(hidden_structure_inputs())
@settings(max_examples=80, deadline=None)
def test_peeling_row_singletons_keeps_the_rank_and_the_kernel_basis(A):
    r, basis = dense_echelon(A)
    assert rank(A) == r
    assert kernel_basis(A) == basis


def dense_echelon(A):
    """(rank, kernel basis) by a plain dense Gauss-Jordan on A.rows, which
    takes no row singleton first: the first row with a nonzero in a column
    pivots it."""
    rows = [list(row) for row in A.rows]
    pivots = []
    for c in range(A.ncols):
        k = len(pivots)
        r = next((i for i in range(k, len(rows)) if rows[i][c]), None)
        if r is None:
            continue
        rows[k], rows[r] = rows[r], rows[k]
        s = rows[k][c].inverse()
        rows[k] = [x * s for x in rows[k]]
        for i, row in enumerate(rows):
            if i != k and row[c]:
                rows[i] = [x - row[c] * y for x, y in zip(row, rows[k])]
        pivots.append(c)
    zero, one = A.ctx.zero(), A.ctx.one()
    basis = []
    for f in range(A.ncols):
        if f not in pivots:
            vec = [zero] * A.ncols
            vec[f] = one
            for k, c in enumerate(pivots):
                vec[c] = -rows[k][f]
            basis.append(tuple(vec))
    return len(pivots), basis


def test_a_hidden_triangular_matrix_takes_no_scalar_operation(monkeypatch):
    # 12 x 12 upper triangular with a nonzero diagonal, rows and columns
    # permuted; alone, and over 4 more rows as d0 of hom_ext stacks two
    # operators: the pattern proves all 12 pivots
    rng = random.Random(12)
    q, r = C5.q(), C5.rational
    rows, cols = rng.sample(range(12), 12), rng.sample(range(12), 12)
    upper = [(rows[i], cols[j], r(rng.choice((-2, -1, 1, 3))) * q ** rng.randrange(5))
             for i in range(12) for j in range(i, 12) if i == j or rng.random() < 0.3]
    below = [(12 + i, rng.randrange(12), r(rng.randint(1, 9)) + q)
             for i in range(4) for _ in range(3)]
    matrices_ = [QMatrix.sparse(C5, 12, 12, upper), QMatrix.sparse(C5, 16, 12, upper + below)]
    for M in matrices_:
        assert not matrices._use_modular(M, len(M.nonzeros()))
    calls = []
    for name in ("__mul__", "__rmul__", "__add__", "__radd__", "__neg__", "inverse"):
        real = getattr(QScalar, name)
        monkeypatch.setattr(QScalar, name,
                            lambda *args, name=name, real=real: calls.append(name) or real(*args))
    for M in matrices_:
        assert kernel_basis(M) == []
        assert rank(M) == 12
    assert calls == []


# ---------------------------------------------------------------------------
# certified multimodular elimination over Q(zeta_ell)
# ---------------------------------------------------------------------------

def exact_echelon(A):
    """(rank, kernel basis) by exact elimination over QScalars."""
    ctx = A.ctx
    rows = [{c: x for c, x in enumerate(row) if x} for row in A.rows]
    pivots = matrices._rref(rows, A.ncols, ctx)
    return len(pivots), matrices._kernel_of(pivots, A.ncols, ctx)


def densified(A, basis):
    """Sparse kernel vectors {column: QScalar} as the dense tuples that
    ``kernel_basis`` returns."""
    zero = A.ctx.zero()
    return [tuple(v.get(j, zero) for j in range(A.ncols)) for v in basis]


def test_exact_elimination_inverts_each_distinct_pivot_once(monkeypatch):
    # the q-commutant operator of g (J_2(q) + J_1(q) + J_2(1) + J_1(1)) g^-1
    # at ell 5, g pairing each q coordinate with a 1 coordinate, repeats a
    # few pivot values on many pivots; each is inverted once per
    # elimination.  No row of it has one nonzero, so no pivot is taken by
    # the pattern alone
    ctx = FieldContext.root_of_unity(5)
    q, r = ctx.q(), ctx.rational
    spec = JordanSpec(ctx, [(q, (2, 1)), (r(1), (2, 1))])
    g = QMatrix.from_rational_rows(ctx, [[1, 0, 0, 1, 0, 0], [0, 1, 0, 0, 1, 0],
                                         [0, 0, 1, 0, 0, 1], [1, 0, 0, -1, 0, 0],
                                         [0, 1, 0, 0, -1, 0], [0, 0, 1, 0, 0, -1]])
    A = conjugate(g, realize(spec))
    op = sylvester_operator(A, A, q)
    assert not matrices._use_modular(op, len(op.nonzeros()))
    assert min(map(len, op._rows)) > 1
    inverted = []
    real = QScalar.inverse
    monkeypatch.setattr(QScalar, "inverse", lambda x: inverted.append(x) or real(x))
    basis = kernel_basis(op)
    # 31 pivots take 10 values
    assert op.ncols - len(basis) == 31
    assert len(inverted) == len(set(inverted)) == 10
    # the certified modular path shares no elimination code with the exact one
    r, vectors = matrices._modular(op, op.nonzeros(), True)
    assert (r, densified(op, vectors)) == (31, basis)
    assert len(basis) == predicted_commutant_dim(spec)


@st.composite
def modular_inputs(draw):
    """Matrices up to 6 x 7 (sides may be 0) over Q(zeta_ell): sparse, dense,
    or products through a small inner dimension, with entries of a few bits
    or of over 100 bits, which need more than one 30-bit prime."""
    ctx = FieldContext.root_of_unity(draw(st.sampled_from((1, 2, 3, 4, 5, 7, 8, 12))))
    nrows, ncols = draw(st.integers(0, 6)), draw(st.integers(0, 7))
    kind = draw(st.sampled_from(("sparse", "dense", "low rank")))
    top = 2 ** draw(st.sampled_from((3, 110)))

    def entry():
        ints = [draw(st.integers(-top, top)) for _ in range(ctx._deg)]
        return _lowest(ctx, ints, draw(st.integers(1, 6)))

    def grid(r, c, density):
        return QMatrix.sparse(ctx, r, c, [(i, j, entry()) for i in range(r) for j in range(c)
                                          if draw(st.integers(0, 99)) < density])

    if kind == "low rank":
        inner = draw(st.integers(0, 2))
        return grid(nrows, inner, 100) * grid(inner, ncols, 100)
    return grid(nrows, ncols, 30 if kind == "sparse" else 100)


def large_entry_matrix(ell, nrows, ncols, seed):
    """Entries with 110-bit coefficients over small denominators."""
    ctx = FieldContext.root_of_unity(ell)
    rng = random.Random(seed)
    return QMatrix(ctx, [[_lowest(ctx, [rng.randint(-2 ** 110, 2 ** 110) for _ in range(ctx._deg)],
                                  rng.randint(1, 9)) for _ in range(ncols)]
                         for _ in range(nrows)])


@given(modular_inputs())
@example(large_entry_matrix(1, 2, 3, 0))
@settings(max_examples=80, deadline=None)
def test_modular_elimination_matches_exact_elimination(A):
    r, basis = exact_echelon(A)
    entries = A.nonzeros()
    assert matrices._modular(A, entries, True) == (r, basis)
    assert matrices._modular(A, entries, False)[0] == r
    assert rank(A) == r and kernel_basis(A) == densified(A, basis)


def low_rank_matrix(ell, n, inner, seed):
    """A dense n x n product through an inner dimension: the rank is at
    most inner, and with 64 nonzeros or more ``_modular`` takes it."""
    ctx, rng = FieldContext.root_of_unity(ell), random.Random(seed)
    return random_field_matrix(ctx, n, inner, rng, 1.0) * random_field_matrix(ctx, inner, n, rng, 1.0)


@given(st.one_of(elimination_inputs(), modular_inputs()))
@example(low_rank_matrix(3, 8, 3, 17))
@example(low_rank_matrix(5, 9, 4, 2))
@example(low_rank_matrix(7, 5, 2, 3))
@settings(max_examples=60, deadline=None)
def test_kernel_vectors_are_sparse_inside_the_library(A):
    # each vector is {column: QScalar}, no zero stored, columns ascending,
    # ending at its free column with 1 there; kernel_basis only densifies.
    # The examples take the certified modular path, at degrees 2, 4 and 6
    basis = matrices._echelon(A, True)[1]
    free = [list(v)[-1] for v in basis]
    assert free == sorted(set(free)) and len(free) == A.ncols - rank(A)
    for v, f in zip(basis, free):
        assert list(v) == sorted(v) and all(v.values())
        assert v[f] == A.ctx.one() and not set(v) & set(free) - {f}
    assert densified(A, basis) == kernel_basis(A)


@pytest.mark.parametrize("ell", [1, 3, 5])
def test_modular_elimination_joins_several_primes_for_large_entries(ell, monkeypatch):
    # 110-bit entries give reduced-echelon entries of hundreds of bits: one
    # 30-bit prime cannot hold them, and what it reconstructs is wrong
    used = set()
    real = modular.cyclotomic_prime
    monkeypatch.setattr(modular, "cyclotomic_prime", lambda ell, k: used.add(k) or real(ell, k))
    for seed, (nrows, ncols) in enumerate(((1, 2), (1, 3), (2, 3), (3, 4))):
        A = large_entry_matrix(ell, nrows, ncols, seed)
        used.clear()
        assert matrices._modular(A, A.nonzeros(), True) == exact_echelon(A)
        assert len(used) > 1


@pytest.mark.parametrize("ell", [1, 3, 5])
@pytest.mark.parametrize("k", [0, 1])
def test_modular_elimination_keeps_the_primes_of_most_pivots(ell, k, monkeypatch):
    # the second row times the k-th prime vanishes under every embedding mod
    # that prime, whose image has rank 1 where every other has rank 2.  The
    # 110-bit entries need several primes joined by CRT: with k = 1 the
    # second prime falls behind the first and is skipped; with k = 0 it has
    # more pivots and replaces the first
    ctx = FieldContext.root_of_unity(ell)
    p, first = (modular.cyclotomic_prime(ell, i)[0] for i in (k, 0))
    A = large_entry_matrix(ell, 2, 3, 0)
    A = QMatrix(ctx, [A.rows[0], [x * p for x in A.rows[1]]])
    ranks, moduli = {}, []
    real_rref, real_ratrec = modular._rref_mod, modular.ratrec
    monkeypatch.setattr(modular, "_rref_mod", lambda rows, ncols, prime: ranks.setdefault(
        prime, set()).add(len(got := real_rref(rows, ncols, prime))) or got)
    monkeypatch.setattr(modular, "ratrec", lambda u, m, bound: moduli.append(m)
                        or real_ratrec(u, m, bound))
    assert matrices._modular(A, A.nonzeros(), True) == exact_echelon(A)
    assert ranks.pop(p) == {1} and set(map(frozenset, ranks.values())) == {frozenset({2})}
    # the first prime is tried alone, then more than one prime is joined,
    # and never the one of rank 1 with another
    assert moduli[0] == first and max(moduli) > modular.PRIME_TOP
    assert all(m % p for m in moduli if m != first)


@pytest.mark.parametrize("ell", [1, 2, 3, 5])
def test_modular_elimination_skips_unlucky_primes(ell, monkeypatch):
    ctx = FieldContext.root_of_unity(ell)
    p, roots, _ = modular.cyclotomic_prime(ell, 0)
    one = ctx.one()
    # a pivot that vanishes mod the first prime: under its one embedding
    # over Q, or under some but not all embeddings over Q(zeta)
    vanishing = ctx.rational(p) if ctx._deg == 1 else ctx.q() - ctx.rational(roots[0])
    # a denominator that the first prime divides
    tiny = ctx.rational(Fraction(1, p))
    verdicts, ranks = [], []
    real = matrices._certified
    monkeypatch.setattr(matrices, "_certified",
                        lambda *args: verdicts.append(real(*args)) or verdicts[-1])
    real_rref = modular._rref_mod
    monkeypatch.setattr(modular, "_rref_mod",
                        lambda *args: ranks.append(len(got := real_rref(*args))) or got)
    # (rows, whether the reduced echelon form has small entries)
    for rows, small in (([[vanishing, vanishing]], True),
                        ([[vanishing, vanishing], [one, one + one]], True),
                        ([[vanishing, one]], False),
                        ([[tiny, one, ctx.q()], [one, one, one]], False),
                        ([[vanishing, tiny, one], [one, one, ctx.zero()]], False)):
        A = QMatrix(ctx, rows)
        verdicts.clear()
        ranks.clear()
        assert matrices._modular(A, A.nonzeros(), True) == exact_echelon(A)
        assert matrices._modular(A, A.nonzeros(), False)[0] == exact_echelon(A)[0]
        if A.nrows == A.ncols:
            # full column rank: an image where the pivot vanishes (rank 1)
            # proves nothing, and the next image, of rank 2 (the next root,
            # or over Q the next prime), proves it in each call
            assert ranks == [1, 2, 1, 2]
        if small and ctx._deg > 1:
            # embeddings that disagree on the pivots drop the prime before a
            # reconstruction from it reaches the certificate, and the next
            # prime alone certifies; an image of full column rank needs no
            # certificate
            assert verdicts == ([] if A.nrows == A.ncols else [True])


def counted(monkeypatch, *names):
    """The list that each listed (module, name) appends its name to when called."""
    calls = []
    for module, name in names:
        real = getattr(module, name)
        monkeypatch.setattr(module, name,
                            lambda *args, name=name, real=real: calls.append(name) or real(*args))
    return calls


def test_one_image_of_full_rank_proves_the_rank(monkeypatch):
    # rank_p <= rank <= min(rows, cols): an 8 x 9 image of rank 8 proves the
    # rank alone, with nothing reconstructed and nothing certified
    ctx = FieldContext.root_of_unity(5)
    rng = random.Random(1)
    A = QMatrix(ctx, [[ctx.rational(rng.choice((-2, -1, 1, 2))) * ctx.q() ** rng.randrange(5)
                       for _ in range(9)] for _ in range(8)])
    assert matrices._use_modular(A, len(A.nonzeros()))
    calls = counted(monkeypatch, (modular, "_rref_mod"), (modular, "ratrec"),
                    (matrices, "_certified"))
    assert rank(A) == exact_echelon(A)[0] == 8
    assert calls == ["_rref_mod"]


def test_one_image_of_full_column_rank_proves_an_empty_kernel(monkeypatch):
    # rank_p <= rank <= ncols: the 16 x 16 q-commutant operator of a dense
    # conjugate at ell 5 has rank 16 under its first image, which proves the
    # empty kernel with nothing reconstructed, certified or budgeted
    A = lu_conjugate(sample_point(ComponentIndex(5, (4,), ()), seed=0).A, 5)
    op = sylvester_operator(A, A, A.ctx.q())
    assert len(op.nonzeros()) == 112 and matrices._use_modular(op, 112)
    calls = counted(monkeypatch, (modular, "_rref_mod"), (modular, "ratrec"),
                    (modular, "_prime_budget"), (matrices, "_certified"))
    assert matrices._echelon(op, True) == (16, [])
    assert calls == ["_rref_mod"]
    assert kernel_basis(op) == exact_echelon(op)[1] == []


def test_the_prime_budget_is_computed_only_for_a_second_prime(monkeypatch):
    used = set()
    real = modular.cyclotomic_prime
    monkeypatch.setattr(modular, "cyclotomic_prime", lambda ell, k: used.add(k) or real(ell, k))
    calls = counted(monkeypatch, (modular, "_prime_budget"))
    # certified at the first prime: no budget
    A = low_rank_matrix(3, 8, 3, 17)
    assert matrices._modular(A, A.nonzeros(), True) == exact_echelon(A)
    assert used == {0} and calls == []
    # 110-bit entries join several primes: one budget
    for ell in (1, 3, 5):
        A = large_entry_matrix(ell, 2, 3, ell)
        used.clear()
        calls.clear()
        assert matrices._modular(A, A.nonzeros(), True) == exact_echelon(A)
        assert len(used) > 1 and calls == ["_prime_budget"]


def test_a_sabotaged_reconstruction_is_rejected_and_falls_back(monkeypatch):
    ctx = FieldContext.root_of_unity(3)
    rng = random.Random(17)
    A = random_field_matrix(ctx, 8, 3, rng, 1.0) * random_field_matrix(ctx, 3, 8, rng, 1.0)
    assert matrices._use_modular(A, len(A.nonzeros()))
    r, basis = exact_echelon(A)
    assert len(basis) == 5
    real = modular.ratrec

    def off_by_one(u, m, bound):
        got = real(u, m, bound)
        return got and (got[0] + 1, got[1])

    monkeypatch.setattr(modular, "ratrec", off_by_one)
    assert matrices._modular(A, A.nonzeros(), True) is None
    assert kernel_basis(A) == densified(A, basis)
    assert rank(A) == r == 3


def test_the_certificate_rejects_each_broken_condition():
    ctx = FieldContext.root_of_unity(3)
    one, zero, q = ctx.one(), ctx.zero(), ctx.q()
    A = QMatrix(ctx, [[one, -one, zero], [zero, zero, one]])  # pivots 0, 2; free 1
    assert matrices._certified(A, [0, 2], [{0: one, 1: one}])
    broken = [
        ([0, 2], [{0: one + one, 1: one + one}]),  # 2 at its free column
        ([0, 2], [{0: q, 1: one}]),           # A v != 0
        ([0, 2], []),                         # a free column without a vector
        # pivots 0, 1 claimed: column 1 is then not in the span left of it
        ([0, 1], [{2: one}]),
        # pivot 1 claimed: the vector of free column 0 reaches right of it,
        # though A v = 0 holds
        ([1, 2], [{0: one, 1: one}]),
    ]
    for pivot_cols, basis in broken:
        assert not matrices._certified(A, pivot_cols, basis)
    # a vector that is 1 at another free column is not reduced-echelon
    B = QMatrix(ctx, [[one, one, one]])  # pivot 0; free 1, 2
    good = [{0: -one, 1: one}, {0: -one, 2: one}]
    assert matrices._certified(B, [0], good)
    assert not matrices._certified(B, [0], [good[0], {0: -one - one, 1: one, 2: one}])


def test_the_certificate_scales_away_denominators():
    ctx = FieldContext.root_of_unity(5)
    q, zero = ctx.q(), ctx.zero()

    def frac(a, b):
        return ctx.rational(Fraction(a, b))

    A = QMatrix(ctx, [[frac(1, 2), q * frac(1, 3), frac(2, 5), frac(1, 7), q * q],
                      [frac(3, 4), q * frac(1, 6), zero, frac(5, 3), frac(-2, 9)]])
    pivots = matrices._rref([dict(row) for row in A._rows], A.ncols, ctx)
    cols = [c for c, _ in pivots]
    basis = matrices._kernel_of(pivots, A.ncols, ctx)
    assert len(basis) == 3 and any(x.int_den != (1,) for v in basis for x in v.values())
    assert matrices._certified(A, cols, basis)
    # rows scaled by rationals have the same kernel
    scaled_rows = QMatrix(ctx, [[x * frac(4, 3) for x in A.rows[0]],
                                [x * frac(-1, 10) for x in A.rows[1]]])
    assert matrices._certified(scaled_rows, cols, basis)
    for c in (frac(2, 3), frac(-5, 7)):
        for i, v in enumerate(basis):
            # the whole vector off by c: its 1 at the free column is c
            off = basis[:i] + [{j: x * c for j, x in v.items()}] + basis[i + 1:]
            assert not matrices._certified(A, cols, off)
            # one pivot entry off by c: the shape holds, A v = 0 does not
            j = next(j for j in cols if j in v)
            bent = dict(v)
            bent[j] = v[j] * c
            assert not matrices._certified(A, cols, basis[:i] + [bent] + basis[i + 1:])


@pytest.mark.parametrize("ell", [3, 5, 105])
def test_the_certificate_width_grows_with_the_entries(ell):
    # A = [1, q] with pivot 0: v = (-2^w, 1) gives A v = q - 2^w, which
    # vanishes at q = 2^w, so a width fixed at w would accept it; Phi_105
    # has a coefficient -2
    ctx = FieldContext.root_of_unity(ell)
    one, q = ctx.one(), ctx.q()
    A = QMatrix(ctx, [[one, q]])
    assert matrices._certified(A, [0], [{0: -q, 1: one}])
    for w in range(1, 201):
        assert not matrices._certified(A, [0], [{0: ctx.rational(-2 ** w), 1: one}])


def product_certified(A, pivot_cols, basis):
    """The certificate with A v = 0 tested by products in Z[zeta], each row
    and vector scaled by the lcm of its denominators: the oracle for
    ``matrices._certified``."""
    pivot_set = set(pivot_cols)
    free = [f for f in range(A.ncols) if f not in pivot_set]
    if len(free) != len(basis):
        return False
    ctx = A.ctx

    def integral(items):
        den = math.lcm(*(x.int_den[0] for _, x in items))
        return [(j, [c * (den // x.int_den[0]) for c in x.int_num]) for j, x in items]

    vectors = []
    for f, vec in zip(free, basis):
        if vec.get(f) != ctx.one():
            return False
        if any(j != f and (j > f or j not in pivot_set) for j in vec):
            return False
        vectors.append(dict(integral(list(vec.items()))))
    for row in A._rows:
        row = integral(list(row.items()))
        for vec in vectors:
            acc = [0] * ctx._deg
            for j, a in row:
                if j in vec:
                    acc = [s + t for s, t in zip(acc, ctx._mul(a, vec[j]))]
            if any(acc):
                return False
    return True


@st.composite
def certificate_inputs(draw):
    """(A, pivot columns, reduced-echelon kernel basis, the basis with one
    coefficient of one entry off by one unit of its denominator): A up to
    5 x 6 over Q(zeta_ell) with fractional entries, small or of 40 bits."""
    ctx = FieldContext.root_of_unity(draw(st.sampled_from((1, 2, 3, 5, 7, 12))))
    nrows, ncols = draw(st.integers(1, 5)), draw(st.integers(1, 6))
    top = draw(st.sampled_from((3, 2 ** 40)))

    def entry():
        if draw(st.integers(0, 2)) == 0:
            return ctx.zero()
        return _lowest(ctx, [draw(st.integers(-top, top)) for _ in range(ctx._deg)],
                       draw(st.integers(1, 6)))

    A = QMatrix(ctx, [[entry() for _ in range(ncols)] for _ in range(nrows)])
    pivots = matrices._rref([dict(row) for row in A._rows], ncols, ctx)
    basis = matrices._kernel_of(pivots, ncols, ctx)
    bent = list(basis)
    if basis:
        i, j = draw(st.integers(0, len(basis) - 1)), draw(st.integers(0, ncols - 1))
        x = basis[i].get(j, ctx.zero())
        unit = ctx.rational(Fraction(draw(st.sampled_from((-1, 1))), x.int_den[0]))
        vec = dict(basis[i])
        vec[j] = x + unit * ctx.q_power(draw(st.integers(0, ctx._deg - 1)))
        # a sum that is zero is dropped, not stored
        bent[i] = {k: y for k, y in sorted(vec.items()) if y}
    return A, [c for c, _ in pivots], basis, bent


@given(certificate_inputs())
@settings(max_examples=150, deadline=None)
def test_the_certificate_agrees_with_the_product_loop(case):
    A, cols, basis, bent = case
    assert matrices._certified(A, cols, basis) and product_certified(A, cols, basis)
    assert matrices._certified(A, cols, bent) == product_certified(A, cols, bent)
    if bent != basis:
        assert not matrices._certified(A, cols, bent)


@pytest.mark.parametrize("ell", [1, 3])
def test_an_echelon_form_too_large_for_one_prime_joins_several(ell, monkeypatch):
    # about 20-bit entries over a rational pivot: each coefficient of the
    # reduced echelon form has a numerator or denominator between 2^15 and
    # 2^30, which one 62-bit prime held but one 30-bit prime cannot
    ctx = FieldContext.root_of_unity(ell)
    rng = random.Random(ell)
    used = set()
    real = modular.cyclotomic_prime
    monkeypatch.setattr(modular, "cyclotomic_prime", lambda ell, k: used.add(k) or real(ell, k))

    def big():
        return rng.choice((-1, 1)) * rng.randint(2 ** 19, 2 ** 20)

    for ncols in (2, 3, 4):
        pivot = ctx.rational(Fraction(big(), rng.randint(1, 9)))
        A = QMatrix(ctx, [[pivot] + [_lowest(ctx, [big() for _ in range(ctx._deg)],
                                             rng.randint(1, 9)) for _ in range(ncols - 1)]])
        r, basis = exact_echelon(A)
        height = max(max(abs(f.numerator), f.denominator) for v in basis for x in v.values()
                     for f in (Fraction(c, x.int_den[0]) for c in x.int_num))
        assert 2 ** 15 < height < 2 ** 30
        used.clear()
        assert matrices._modular(A, A.nonzeros(), True) == (r, basis)
        assert len(used) > 1


RECT = QMatrix.zero(C3, 2, 3)


@pytest.mark.parametrize("call, error, message", [
    (lambda: QMatrix(C3, [[1]]), TypeError, "matrix entries must be QScalar"),
    (lambda: QMatrix.identity(C3, 2) * QMatrix.identity(C3, 3), DimensionMismatch,
     "cannot multiply 2x2 by 3x3"),
    (lambda: RECT ** 2, NotSquare, "matrix power needs a square matrix"),
    (lambda: QMatrix.identity(C3, 2) ** -1, ValueError, "negative matrix powers"),
    (lambda: RECT.trace(), NotSquare, "trace needs a square matrix"),
    (lambda: direct_sum(), DimensionMismatch, "direct_sum needs at least one matrix"),
    (lambda: inverse(RECT), NotSquare, "inverse needs a square matrix"),
    (lambda: conjugate(RECT, QMatrix.identity(C3, 2)), NotSquare,
     "conjugation needs square matrices"),
    (lambda: conjugate(QMatrix.identity(C3, 2), QMatrix.identity(C3, 3)), DimensionMismatch,
     "conjugator size does not match matrix size"),
])
def test_matrix_operations_raise_their_documented_errors(call, error, message):
    with pytest.raises(error, match=message):
        call()
