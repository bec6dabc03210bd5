import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qplane import (FieldContext, HomExtReport, JordanSpec, LengthMismatch, MatrixPair,
                    MixedContext, NotSquare, QMatrix, RelationViolated,
                    block_jordan, conjugate, direct_sum, hom_ext, jordan_block,
                    predicted_commutant_dim, q_layered, qcommutant_basis, rank,
                    realize, sylvester_operator)

GEN = FieldContext.generic()
C2 = FieldContext.root_of_unity(2)
C3 = FieldContext.root_of_unity(3)


def random_pair(ctx, rng, n_max=4):
    """A random valid pair: Jordan-form A plus a random commutant element."""
    q = ctx.q()
    n = 0
    blocks = {}
    while n == 0 or n > n_max:
        if n > n_max:
            blocks.clear()
            n = 0
        value = ctx.rational(rng.choice([0, 0, 2, 3]))
        if not value.is_zero():
            value = value * q ** rng.randint(0, 2)
        size = rng.randint(1, 2)
        key = repr(value)
        if key in blocks:
            continue
        blocks[key] = (value, [size])
        n += size
        if rng.random() < 0.4:
            break
    spec = JordanSpec(ctx, list(blocks.values()))
    A = realize(spec)
    basis = qcommutant_basis(A)
    B = QMatrix.zero(ctx, A.nrows, A.nrows)
    for element in basis:
        B = B + element.scale(ctx.rational(rng.randint(-2, 2)))
    return MatrixPair(A, B)


# ---------------------------------------------------------------------------
# q-layered matrices
# ---------------------------------------------------------------------------

def test_q_layered_square_layout():
    b1, b2 = GEN.rational(5), GEN.rational(7)
    L = q_layered(2, 2, [b1, b2])
    q = GEN.q()
    assert L[0, 0] == b1
    assert L[0, 1] == b2
    assert L[1, 0].is_zero()
    assert L[1, 1] == q * b1


def test_q_layered_wide_layout():
    b1 = GEN.rational(3)
    L = q_layered(1, 3, [b1])
    assert L.nrows == 1 and L.ncols == 3
    assert L[0, 0].is_zero() and L[0, 1].is_zero()
    assert L[0, 2] == b1


def test_q_layered_rank():
    L = q_layered(2, 2, [GEN.rational(1), GEN.rational(4)])
    assert rank(L) == 2


def test_q_layered_length_checked():
    with pytest.raises(LengthMismatch):
        q_layered(2, 3, [GEN.one()])


def test_q_layered_intertwines_jordan_blocks():
    rng = random.Random(0)
    q = GEN.q()
    a = GEN.rational(3)
    for m, n in [(2, 2), (1, 3), (3, 1), (3, 5), (5, 3)]:
        v = [GEN.rational(Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
             for _ in range(min(m, n))]
        L = q_layered(m, n, v)
        lhs = jordan_block(GEN, m, a) * L
        rhs = L * jordan_block(GEN, n, a / q)
        assert lhs == rhs.scale(q)


def test_q_layered_places_q_to_the_i_times_v_k_on_shifted_diagonals():
    # the placement rule written out: entry (i, n - min(m, n) + i + k) is
    # q^i v_k for i + k < min(m, n), and every other entry is zero
    rng = random.Random(2)
    for ctx in (C3, GEN):
        q = ctx.q()
        for m, n in [(1, 1), (2, 2), (1, 3), (3, 1), (3, 5), (5, 3), (4, 4)]:
            low = min(m, n)
            v = [ctx.rational(rng.randint(-2, 2)) * q ** rng.randint(0, 2) for _ in range(low)]
            rows = [[ctx.zero()] * n for _ in range(m)]
            for i in range(low):
                for k in range(low - i):
                    rows[i][n - low + i + k] = q ** i * v[k]
            L = q_layered(m, n, v)
            assert (L.nrows, L.ncols) == (m, n)
            assert L == QMatrix(ctx, rows)


def test_q_layered_keeps_its_degenerate_shapes():
    # with no layers q_layered keeps its m x n shape
    def shape(M):
        return (M.nrows, M.ncols)

    for k in range(4):
        assert shape(q_layered(k, 0, [], ctx=GEN)) == (k, 0)
        assert shape(q_layered(0, k, [], ctx=GEN)) == (0, k)


# ---------------------------------------------------------------------------
# MatrixPair
# ---------------------------------------------------------------------------

def test_pair_accepts_valid_relation():
    A = jordan_block(GEN, 3, GEN.zero())
    B = q_layered(3, 3, [GEN.rational(2), GEN.zero(), GEN.one()])
    pair = MatrixPair(A, B)
    assert pair.size == 3
    assert pair.A * pair.B == (pair.B * pair.A).scale(GEN.q())


def test_pair_rejects_commuting_but_not_q_commuting():
    I = QMatrix.identity(GEN, 2)
    with pytest.raises(RelationViolated):
        MatrixPair(I, I)


def test_pair_rejects_non_square():
    A = QMatrix.zero(GEN, 2, 3)
    with pytest.raises(NotSquare):
        MatrixPair(A, A)


def test_pair_rejects_mixed_contexts():
    with pytest.raises(MixedContext):
        MatrixPair(QMatrix.zero(GEN, 2, 2), QMatrix.zero(C3, 2, 2))


def test_zero_pair_is_always_valid():
    pair = MatrixPair(QMatrix.zero(C2, 2, 2), QMatrix.zero(C2, 2, 2))
    assert pair.size == 2


# ---------------------------------------------------------------------------
# commutant spaces
# ---------------------------------------------------------------------------

def test_commutant_of_zero_matrix_is_everything():
    assert qcommutant_basis(QMatrix.zero(GEN, 0, 0)) == []
    for n in (1, 2, 3):
        assert len(qcommutant_basis(QMatrix.zero(GEN, n, n))) == n * n


def test_commutant_of_nilpotent_block_is_layered():
    A = jordan_block(GEN, 3, GEN.zero())
    basis = qcommutant_basis(A)
    assert len(basis) == 3
    for B in basis:
        assert A * B == (B * A).scale(GEN.q())
        # reconstruct from the first row: B must be q-layered
        v = [B[0, j] for j in range(3)]
        assert B == q_layered(3, 3, v)


def test_commutant_of_q_spaced_diagonal():
    for ctx, expected in [(C2, 2), (C3, 1), (GEN, 1)]:
        a = ctx.rational(2)
        A = QMatrix.diagonal(ctx, [a, a / ctx.q()])
        assert len(qcommutant_basis(A)) == expected


def test_predicted_dim_examples():
    for n in range(1, 6):
        spec = JordanSpec(GEN, [(GEN.zero(), [n])])
        assert predicted_commutant_dim(spec) == n
    spec3 = JordanSpec(C3, [(C3.q(), [2]), (C3.one(), [2])])
    assert predicted_commutant_dim(spec3) == 2
    spec2 = JordanSpec(C2, [(C2.q(), [2]), (C2.one(), [2])])
    assert predicted_commutant_dim(spec2) == 4
    inert = JordanSpec(GEN, [(GEN.rational(2), [1]), (GEN.rational(3), [1])])
    assert predicted_commutant_dim(inert) == 0


def test_predicted_dim_matches_kernel():
    rng = random.Random(2)
    for _ in range(25):
        ctx = FieldContext.root_of_unity(rng.choice([2, 3, 4]))
        q = ctx.q()
        blocks = {}
        total = 0
        while total < 1 or (total < 6 and rng.random() < 0.6):
            value = ctx.rational(rng.choice([0, 2, 3])) * q ** rng.randint(0, 2)
            key = repr(value)
            if key in blocks:
                continue
            parts = sorted((rng.randint(1, 3) for _ in range(rng.randint(1, 2))),
                           reverse=True)
            blocks[key] = (value, parts)
            total += sum(parts)
        spec = JordanSpec(ctx, list(blocks.values()))
        assert len(qcommutant_basis(realize(spec))) == predicted_commutant_dim(spec)


def test_commutant_respects_block_support():
    # A = two J2(q) blocks plus one J2(1): kernel elements must live in the
    # column strip over the eigenvalue-1 rows paired with eigenvalue-q rows
    A = direct_sum(block_jordan(GEN, 2, 2, GEN.q()), jordan_block(GEN, 2, GEN.one()))
    basis = qcommutant_basis(A)
    assert len(basis) == 4
    for B in basis:
        for i in range(6):
            for j in range(6):
                if j < 4:  # columns of the q-eigenvalue blocks
                    assert B[i, j].is_zero()
                elif i >= 4:  # rows of the 1-eigenvalue block
                    assert B[i, j].is_zero()


def test_sylvester_operator_matches_matrix_products():
    # X -> L X - c X R on m x n matrices with m != n, both regimes
    rng = random.Random(6)
    for ctx in (GEN, C3):
        q = ctx.q()

        def rnd(r, c):
            return QMatrix(ctx, [[ctx.rational(rng.randint(-3, 3)) * q ** rng.randint(0, 2)
                                  for _ in range(c)] for _ in range(r)])

        for m, n in ((2, 3), (3, 1), (1, 2)):
            L, R, X = rnd(m, m), rnd(n, n), rnd(m, n)
            for c in (ctx.one(), q, ctx.rational(Fraction(-2, 3)) * q * q):
                S = sylvester_operator(L, R, c)
                assert (S.nrows, S.ncols) == (m * n, m * n)
                image = S * QMatrix(ctx, [[x] for row in X.rows for x in row])
                expected = L * X - (X * R).scale(c)
                assert ([row[0] for row in image.rows]
                        == [x for row in expected.rows for x in row])


def test_sylvester_operator_cancels_a_diagonal_position_exactly():
    # X -> A X - q X A with A = diag(a, a/q): at ((0, 1), (0, 1)) the terms
    # a and -q (a/q) of one position sum to zero
    for ctx in (GEN, C3):
        q = ctx.q()
        a = ctx.rational(3) + q
        S = sylvester_operator(QMatrix.diagonal(ctx, [a, a / q]),
                               QMatrix.diagonal(ctx, [a, a / q]), q)
        assert S[1, 1] == ctx.zero()
        assert [(r, c) for r, c, _ in S.nonzeros()] == [(0, 0), (2, 2), (3, 3)]


def triple_sylvester(L, R, c):
    """X -> L X - c X R summed from one (row, column, value) triple per
    term through QMatrix.sparse: the reference for sylvester_operator."""
    m, n = L.nrows, R.nrows
    scaled = [(s, j, -(c * b)) for s, j, b in R.nonzeros()]
    entries = [(i * n + j, r * n + j, a) for i, r, a in L.nonzeros() for j in range(n)]
    entries += [(i * n + j, i * n + s, b) for s, j, b in scaled for i in range(m)]
    return QMatrix.sparse(L.ctx, m * n, m * n, entries)


C5 = FieldContext.root_of_unity(5)


@st.composite
def sylvester_inputs(draw):
    """(L, R, c) over Q(zeta_3), Q(zeta_5) or Q(q), sides 0 to 5: entries
    from a few multiples of powers of q, or zero; c an int, a Fraction or
    such a scalar, and some diagonal entries of L set to c times one of R,
    which cancel on the diagonal of the operator."""
    ctx = draw(st.sampled_from((C3, C5, GEN)))
    q = ctx.q()
    values = [ctx.rational(a) * q ** k for a in (-1, 2, Fraction(1, 3)) for k in (0, 1, 2)]
    c = draw(st.sampled_from((1, -2, Fraction(1, 2), q, -q, q * q, ctx.rational(3) * q)))
    scalar = ctx.rational(c) if isinstance(c, (int, Fraction)) else c

    def grid(n):
        return [[draw(st.sampled_from(values)) if draw(st.integers(0, 2)) else ctx.zero()
                 for _ in range(n)] for _ in range(n)]

    m, n = draw(st.integers(0, 5)), draw(st.integers(0, 5))
    left, right = grid(m), grid(n)
    for i in range(m):
        if n and draw(st.booleans()):
            k = draw(st.integers(0, n - 1))
            left[i][i] = scalar * right[k][k]
    return QMatrix(ctx, left), QMatrix(ctx, right), c


@given(sylvester_inputs())
@settings(max_examples=200, deadline=None)
def test_sylvester_operator_matches_the_triple_built_operator(case):
    L, R, c = case
    S = sylvester_operator(L, R, c)
    assert S == triple_sylvester(L, R, c)
    assert (S.nrows, S.ncols) == (L.nrows * R.nrows,) * 2
    for row in S._rows:
        assert list(row) == sorted(row)
        assert all(row.values())


def test_sylvester_operator_takes_rationals_and_refuses_other_fields():
    L = QMatrix.from_rational_rows(C3, [[1, 2], [0, 3]])
    R = QMatrix.from_rational_rows(C3, [[3, 0], [1, 1]])
    for c in (2, Fraction(-1, 3)):
        assert sylvester_operator(L, R, c) == sylvester_operator(L, R, C3.rational(c))
        assert sylvester_operator(L, R, c) == triple_sylvester(L, R, c)
    with pytest.raises(MixedContext):
        sylvester_operator(L, R, C5.q())
    with pytest.raises(MixedContext):
        sylvester_operator(L, QMatrix.from_rational_rows(C5, [[3, 0], [1, 1]]), 1)


def test_sylvester_operator_needs_square_sides():
    with pytest.raises(NotSquare):
        sylvester_operator(QMatrix.zero(GEN, 2, 3), QMatrix.identity(GEN, 2), GEN.one())


# ---------------------------------------------------------------------------
# hom and ext
# ---------------------------------------------------------------------------

def one_dim_pair(ctx, value):
    return MatrixPair(QMatrix.diagonal(ctx, [ctx.rational(value)]),
                      QMatrix.zero(ctx, 1, 1))


def d_type_pair(ctx, base):
    q = ctx.q()
    a = ctx.rational(base)
    A = QMatrix.diagonal(ctx, [a, a / q])
    B = QMatrix(ctx, [[ctx.zero(), ctx.one()], [ctx.zero(), ctx.zero()]])
    return MatrixPair(A, B)


def n_type_pair(ctx, base):
    A = jordan_block(ctx, 2, ctx.zero())
    B = q_layered(2, 2, [ctx.rational(base), ctx.one()])
    return MatrixPair(A, B)


def test_hom_of_one_dimensional_self_pair():
    report = hom_ext(one_dim_pair(GEN, 5), one_dim_pair(GEN, 5))
    assert report.hom_dim == 1
    assert report.hom_dim - report.ext1_dim + report.ext2_dim == 0


def test_hom_and_ext_vanish_between_strata():
    report = hom_ext(d_type_pair(GEN, 2), n_type_pair(GEN, 3))
    assert (report.hom_dim, report.ext1_dim, report.ext2_dim) == (0, 0, 0)
    report = hom_ext(n_type_pair(GEN, 3), d_type_pair(GEN, 2))
    assert (report.hom_dim, report.ext1_dim, report.ext2_dim) == (0, 0, 0)
    empty = MatrixPair(QMatrix.zero(GEN, 0, 0), QMatrix.zero(GEN, 0, 0))
    for pair in (empty, d_type_pair(GEN, 2)):
        assert hom_ext(empty, pair) == hom_ext(pair, empty) == HomExtReport(0, 0, 0, ())


def test_self_ext_of_generic_strata_points():
    for pair in (d_type_pair(GEN, 2), n_type_pair(GEN, 3)):
        report = hom_ext(pair, pair)
        assert (report.hom_dim, report.ext1_dim, report.ext2_dim) == (1, 1, 0)


def test_hom_basis_elements_intertwine():
    M1 = n_type_pair(GEN, 2)
    M2 = n_type_pair(GEN, 2)
    report = hom_ext(M1, M2)
    assert report.hom_dim == len(report.hom_basis)
    for F in report.hom_basis:
        assert F * M1.A == M2.A * F
        assert F * M1.B == M2.B * F


def test_hom_basis_intertwines_pairs_of_different_sizes():
    # D = D(a), P = (a/q, 0): Hom((a, 0), D) = Hom(D, P) = Hom(P + D, D) = 1
    # and Hom(D, D + P) = 2; each basis element is an n2 x n1 matrix F with
    # F A1 = A2 F and F B1 = B2 F, and a 2 x 3 or 3 x 2 F also pins the
    # row-major flattening
    for ctx in (GEN, C3):
        D = d_type_pair(ctx, 2)
        P = MatrixPair(QMatrix.diagonal(ctx, [ctx.rational(2) / ctx.q()]),
                       QMatrix.zero(ctx, 1, 1))
        DP = MatrixPair(direct_sum(D.A, P.A), direct_sum(D.B, P.B))
        PD = MatrixPair(direct_sum(P.A, D.A), direct_sum(P.B, D.B))
        for M1, M2, expected in ((one_dim_pair(ctx, 2), D, 1), (D, P, 1),
                                 (D, DP, 2), (PD, D, 1)):
            report = hom_ext(M1, M2)
            assert report.hom_dim == len(report.hom_basis) == expected
            assert report.hom_dim - report.ext1_dim + report.ext2_dim == 0
            for F in report.hom_basis:
                assert (F.nrows, F.ncols) == (M2.size, M1.size)
                assert not F.is_zero()
                assert F * M1.A == M2.A * F
                assert F * M1.B == M2.B * F


def test_euler_characteristic_vanishes():
    rng = random.Random(3)
    for _ in range(20):
        ctx = FieldContext.root_of_unity(rng.choice([2, 3]))
        M1 = random_pair(ctx, rng)
        M2 = random_pair(ctx, rng)
        report = hom_ext(M1, M2)
        assert report.hom_dim - report.ext1_dim + report.ext2_dim == 0


def test_complex_composes_to_zero():
    rng = random.Random(4)
    for _ in range(30):
        ctx = rng.choice([GEN, C2, C3])
        q = ctx.q()
        M1 = random_pair(ctx, rng)
        M2 = random_pair(ctx, rng)
        n1, n2 = M1.size, M2.size
        F = QMatrix.from_rational_rows(
            ctx, [[rng.randint(-3, 3) for _ in range(n1)] for _ in range(n2)])
        G = F * M1.A - M2.A * F
        H = F * M1.B - M2.B * F
        composed = G * M1.B - (M2.B * G).scale(q) + M2.A * H - (H * M1.A).scale(q)
        assert composed.is_zero()


def test_hom_dims_conjugation_invariant():
    rng = random.Random(5)
    for _ in range(8):
        M1 = random_pair(C3, rng)
        M2 = random_pair(C3, rng)
        gs = []
        for size in (M1.size, M2.size):
            while True:
                g = QMatrix.from_rational_rows(
                    C3, [[rng.randint(-3, 3) for _ in range(size)]
                         for _ in range(size)])
                if rank(g) == size:
                    gs.append(g)
                    break
        M1c = MatrixPair(conjugate(gs[0], M1.A), conjugate(gs[0], M1.B))
        M2c = MatrixPair(conjugate(gs[1], M2.A), conjugate(gs[1], M2.B))
        before = hom_ext(M1, M2)
        after = hom_ext(M1c, M2c)
        assert (before.hom_dim, before.ext1_dim, before.ext2_dim) == (
            after.hom_dim, after.ext1_dim, after.ext2_dim)
