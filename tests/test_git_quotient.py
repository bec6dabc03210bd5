import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qplane import (BadIndex, ComponentIndex, FieldContext, GitIndex, INFINITE,
                    MatrixPair, QMatrix, UnsupportedShape, conjugate, count_TPL,
                    dim_git, enumerate_ML, enumerate_TPL,
                    git_index_of_stratum, jordan_block, jordan_data, q_layered,
                    rank, sample_point, semisimplify, theta_point,
                    trace_fingerprint)
from qplane.matrices import diagonal_blocks

GEN = FieldContext.generic()
C2 = FieldContext.root_of_unity(2)
C3 = FieldContext.root_of_unity(3)


def unimodular(ctx, n, rng):
    """A dense L*U with unit triangular factors: invertible over Z."""
    L = [[1 if i == j else rng.randint(-2, 2) if j < i else 0 for j in range(n)]
         for i in range(n)]
    U = [[1 if i == j else rng.randint(-2, 2) if j > i else 0 for j in range(n)]
         for i in range(n)]
    return QMatrix.from_rational_rows(ctx, L) * QMatrix.from_rational_rows(ctx, U)


def random_invertible(ctx, n, rng):
    while True:
        g = QMatrix.from_rational_rows(
            ctx, [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)])
        if rank(g) == n:
            return g


# ---------------------------------------------------------------------------
# index enumeration and dimensions
# ---------------------------------------------------------------------------

def test_enumerate_width_two():
    out = enumerate_TPL(2, 2)
    assert set(out) == {GitIndex(1, 0, 0), GitIndex(0, 2, 0),
                        GitIndex(0, 1, 1), GitIndex(0, 0, 2)}
    assert all(dim_git(idx, 2, 2) == 2 for idx in out)


def test_count_matches_the_enumeration():
    for ell in (1, 2, 3, 4, 5, 6, INFINITE):
        for n in range(31):
            assert count_TPL(ell, n) == len(enumerate_TPL(ell, n))


def test_enumerate_counts_match_closed_form():
    for ell in (2, 3, 4, 5):
        for n in range(11):
            out = enumerate_TPL(ell, n)
            assert len(out) == sum(n - ell * p + 1 for p in range(n // ell + 1))
            assert len(set(out)) == len(out)
            for idx in out:
                assert ell * idx.p + idx.m + idx.r == n


def test_enumerate_width_one_collapses():
    for n in (0, 1, 4):
        assert enumerate_TPL(1, n) == [GitIndex(n, 0, 0)]
        assert dim_git(GitIndex(n, 0, 0), 1, n) == 2 * n


def test_enumerate_infinite_regime_forces_zero_cycles():
    out = enumerate_TPL(INFINITE, 3)
    assert all(idx.p == 0 for idx in out)
    assert len(out) == 4
    assert all(dim_git(idx, INFINITE, 3) == 3 for idx in out)


def test_dim_examples():
    assert dim_git(GitIndex(1, 0, 0), 3, 3) == 2
    # width 2: dimension is pure (the p term cancels)
    for n in range(7):
        for idx in enumerate_TPL(2, n):
            assert dim_git(idx, 2, n) == n


@pytest.mark.parametrize("ell", [0, -1, -3, 2.5, "3", None])
def test_dim_git_rejects_an_invalid_order(ell):
    # ell = 0 once answered 3: the size check read 0 * p + m + r
    with pytest.raises(BadIndex, match="the order must be a positive integer or INFINITE"):
        dim_git(GitIndex(0, 2, 1), ell, 3)


@pytest.mark.parametrize("ell", [0, -1, 2.5])
def test_enumerate_and_count_TPL_reject_an_invalid_order(ell):
    for f in (enumerate_TPL, count_TPL):
        with pytest.raises(BadIndex, match="the order must be a positive integer or INFINITE"):
            f(ell, 3)


@pytest.mark.parametrize("ell", [True, False, 0, 2.5, "3"])
def test_a_type_size_rejects_an_invalid_order(ell):
    # GitIndex(0, 2, 1).size(True) and .size(0) once answered 3
    with pytest.raises(BadIndex, match="the order must be a positive integer or INFINITE"):
        GitIndex(0, 2, 1).size(ell)
    for f in (enumerate_TPL, count_TPL):
        with pytest.raises(BadIndex, match="the order must be a positive integer or INFINITE"):
            f(ell, 3)
    with pytest.raises(BadIndex, match="the order must be a positive integer or INFINITE"):
        dim_git(GitIndex(0, 2, 1), ell, 3)


def test_an_order_equal_to_infinite_is_the_infinite_order_for_types():
    inf = float("inf")
    assert enumerate_TPL(inf, 3) == enumerate_TPL(INFINITE, 3)
    assert count_TPL(inf, 3) == count_TPL(INFINITE, 3) == 4
    assert dim_git(GitIndex(0, 2, 1), inf, 3) == 3
    assert GitIndex(0, 2, 1).size(inf) == 3


def test_index_validation():
    with pytest.raises(BadIndex):
        GitIndex(-1, 0, 0)


@pytest.mark.parametrize("entries", [(True, 0.5, 0), (0, 1.0, 0), (0, 0, False), (0, "1", 0)])
def test_a_type_refuses_entries_that_are_not_ints(entries):
    # GitIndex(True, 0.5, 0) was once built as given, and its size(3) was 3.5
    with pytest.raises(BadIndex, match="closed-orbit type entries must be nonnegative ints"):
        GitIndex(*entries)


# ---------------------------------------------------------------------------
# trace fingerprints
# ---------------------------------------------------------------------------

def test_fingerprint_scalar_pair():
    a = GEN.rational(3)
    pair = MatrixPair(QMatrix.diagonal(GEN, [a]), QMatrix.zero(GEN, 1, 1))
    fp = trace_fingerprint(pair, N=2)
    for i in range(3):
        assert fp.grid[i][0] == a ** i
        for j in range(1, 3):
            assert fp.grid[i][j].is_zero()


def test_fingerprint_nilpotent_singleton():
    b = GEN.rational(5)
    pair = MatrixPair(QMatrix.zero(GEN, 1, 1), QMatrix.diagonal(GEN, [b]))
    fp = trace_fingerprint(pair, N=3)
    for j in range(4):
        assert fp.grid[0][j] == b ** j
        for i in range(1, 4):
            assert fp.grid[i][j].is_zero()


def test_fingerprint_top_left_is_size():
    idx = ComponentIndex(3, m=(1, 1, 0), r=(0, 0))
    pair = sample_point(idx, seed=0)
    fp = trace_fingerprint(pair)
    assert fp.grid[0][0] == pair.ctx.rational(pair.size)
    assert fp.max_degree == pair.size


def test_fingerprint_conjugation_invariant():
    rng = random.Random(1)
    for ell in (2, 3):
        ctx = FieldContext.root_of_unity(ell)
        for n in (2, 3, 4, 5):
            pool = enumerate_ML(ell, n)
            idx = pool[rng.randrange(len(pool))]
            pair = sample_point(idx, seed=rng.randint(0, 1000))
            g = random_invertible(ctx, n, rng)
            moved = MatrixPair(conjugate(g, pair.A), conjugate(g, pair.B))
            assert trace_fingerprint(moved).grid == trace_fingerprint(pair).grid


def all_entries_grid(pair, N):
    """Reference: every Tr(A^i B^j), 0 <= i, j <= N, from full products."""
    ctx, n = pair.ctx, pair.size
    a_pows = [QMatrix.identity(ctx, n)]
    b_pows = [QMatrix.identity(ctx, n)]
    for _ in range(N):
        a_pows.append(a_pows[-1] * pair.A)
        b_pows.append(b_pows[-1] * pair.B)
    return tuple(tuple((a_pows[i] * b_pows[j]).trace() for j in range(N + 1))
                 for i in range(N + 1))


@st.composite
def fingerprint_inputs(draw):
    ell = draw(st.sampled_from([1, 2, 3, 4, 5, 6, INFINITE]))
    n = draw(st.integers(1, 4))
    pool = enumerate_ML(ell, n)
    idx = pool[draw(st.integers(0, len(pool) - 1))]
    pair = sample_point(idx, seed=draw(st.integers(0, 10 ** 6)))
    kind = draw(st.sampled_from(["sample", "semisimple", "dense"]))
    if kind == "semisimple":
        pair = semisimplify(pair)
    elif kind == "dense":
        g = unimodular(pair.ctx, n, random.Random(draw(st.integers(0, 10 ** 6))))
        pair = MatrixPair(conjugate(g, pair.A), conjugate(g, pair.B))
    N = draw(st.sampled_from([0, 1, n, n + 2]))
    return pair, N


@given(fingerprint_inputs())
@settings(max_examples=60, deadline=None)
def test_fingerprint_matches_all_entries_and_pins_the_zero_pattern(drawn):
    pair, N = drawn
    reference = all_entries_grid(pair, N)
    assert trace_fingerprint(pair, N).grid == reference
    ell = pair.ctx.ell
    for i in range(1, N + 1):
        for j in range(1, N + 1):
            # (1 - q^(ij)) Tr(A^i B^j) = 0 off the lattice ell | i*j
            if ell is INFINITE or i * j % ell:
                assert reference[i][j].is_zero()


def whole_matrix_fingerprint(pair, N):
    """Oracle: the fingerprint grid from the powers of A and B themselves,
    without the block triangular form: the axes from Tr(X^k) and the
    lattice ell | i*j from Tr(A^i B^j), every other entry zero."""
    ctx, n = pair.ctx, pair.size
    lattice = {}
    if not ctx.is_generic:
        for i in range(1, N + 1):
            js = [j for j in range(1, N + 1) if i * j % ctx.ell == 0]
            if js:
                lattice[i] = js
    top = max([N - 1, *lattice])
    a_pows, b_pows = [None, pair.A], [None, pair.B]
    while len(a_pows) <= top:
        a_pows.append(a_pows[-1] * pair.A)
        b_pows.append(b_pows[-1] * pair.B)
    grid = [[ctx.zero()] * (N + 1) for _ in range(N + 1)]
    grid[0][0] = ctx.rational(n)
    for k in range(1, N + 1):
        a_k = a_pows[k] if k < len(a_pows) else a_pows[k - 1] * pair.A
        b_k = b_pows[k] if k < len(b_pows) else b_pows[k - 1] * pair.B
        grid[k][0], grid[0][k] = a_k.trace(), b_k.trace()
    for i, js in lattice.items():
        for j in js:
            grid[i][j] = (a_pows[i] * b_pows[j]).trace()
    return tuple(map(tuple, grid))


def simultaneous_permutation(pair, perm):
    """(P A P^-1, P B P^-1) for the permutation matrix P sending i to perm[i]."""
    n = pair.size

    def moved(M):
        return QMatrix.sparse(M.ctx, n, n, [(perm[r], perm[c], x) for r, c, x in M.nonzeros()])

    return MatrixPair(moved(pair.A), moved(pair.B))


@st.composite
def hidden_block_inputs(draw):
    """Sample points, their semisimplifications and dense L*U conjugates,
    each hidden under a random simultaneous permutation, so that the
    diagonal blocks are scattered over the indices."""
    ell = draw(st.sampled_from([1, 2, 3, 5, INFINITE]))
    n = draw(st.integers(1, 6))
    pool = enumerate_ML(ell, n)
    idx = pool[draw(st.integers(0, len(pool) - 1))]
    pair = sample_point(idx, seed=draw(st.integers(0, 10 ** 6)))
    kind = draw(st.sampled_from(["sample", "semisimple", "dense"]))
    if kind == "semisimple":
        pair = semisimplify(pair)
    elif kind == "dense":
        g = unimodular(pair.ctx, n, random.Random(draw(st.integers(0, 10 ** 6))))
        pair = MatrixPair(conjugate(g, pair.A), conjugate(g, pair.B))
    pair = simultaneous_permutation(pair, draw(st.permutations(range(n))))
    N = draw(st.sampled_from([0, 1, n, n + 2]))
    return pair, N


@given(hidden_block_inputs())
@settings(max_examples=120, deadline=None)
def test_blockwise_fingerprint_matches_the_whole_matrix_oracle(drawn):
    pair, N = drawn
    assert trace_fingerprint(pair, N).grid == whole_matrix_fingerprint(pair, N)


def test_a_one_by_one_block_fills_the_lattice_at_q_equal_one():
    # at ell = 1 a 1x1 block (a, b) with a, b != 0 satisfies a b = q b a and
    # adds a^i b^j at every (i, j); it is the only order where it can
    C1 = FieldContext.root_of_unity(1)
    pair = MatrixPair(QMatrix.from_rational_rows(C1, [[2, 0, 0], [0, 0, 0], [0, 0, 5]]),
                      QMatrix.from_rational_rows(C1, [[3, 0, 0], [0, 5, 0], [0, 0, 0]]))
    fp = trace_fingerprint(pair, N=3)
    for i in range(4):
        for j in range(4):
            # the blocks (2, 3), (0, 5) and (5, 0), with 0^0 = 1
            assert fp.grid[i][j] == C1.rational(2 ** i * 3 ** j + 0 ** i * 5 ** j
                                                + 5 ** i * 0 ** j)
    assert fp.grid == whole_matrix_fingerprint(pair, 3)


# ---------------------------------------------------------------------------
# semisimplification
# ---------------------------------------------------------------------------

def test_semisimplify_nilpotent_summand():
    b1, b2 = GEN.rational(3), GEN.rational(7)
    pair = MatrixPair(jordan_block(GEN, 2, GEN.zero()),
                      q_layered(2, 2, [b1, b2]))
    out = semisimplify(pair)
    assert out.A.is_zero()
    assert out.B == QMatrix.diagonal(GEN, [b1, GEN.q() * b1])
    assert trace_fingerprint(out).grid == trace_fingerprint(pair).grid


def test_semisimplify_keeps_full_cycle():
    idx = ComponentIndex(2, m=(0, 1), r=(0,))
    pair = sample_point(idx, seed=4)
    out = semisimplify(pair)
    assert out == pair


def test_semisimplify_strips_partial_dense_block():
    idx = ComponentIndex(3, m=(0, 1, 0), r=(0, 0))
    pair = sample_point(idx, seed=5)
    out = semisimplify(pair)
    assert out.A == pair.A
    assert out.B.is_zero()


def test_semisimplify_idempotent_and_invariant():
    rng = random.Random(6)
    for _ in range(25):
        ell = rng.choice([2, 3, 4])
        n = rng.randint(1, 5)
        pool = enumerate_ML(ell, n)
        idx = pool[rng.randrange(len(pool))]
        pair = sample_point(idx, seed=rng.randint(0, 10 ** 6))
        out = semisimplify(pair)
        assert semisimplify(out) == out
        assert trace_fingerprint(out).grid == trace_fingerprint(pair).grid


def test_semisimplify_rejects_unstructured_input():
    # a valid pair that is not a stratum direct sum: a 2x2 partial dense
    # point conjugated by g; the seed-7 g is upper triangular, so the pair
    # stays triangular and gets the answer of the point itself
    rng = random.Random(7)
    idx = ComponentIndex(3, m=(0, 1, 0), r=(0, 0))
    pair = sample_point(idx, seed=8)
    g = random_invertible(pair.ctx, pair.size, rng)
    assert g == QMatrix.from_rational_rows(pair.ctx, [[-1, -2], [0, 2]])
    moved = MatrixPair(conjugate(g, pair.A), conjugate(g, pair.B))
    assert semisimplify(moved) == semisimplify(pair)
    # a conjugator with entries on both sides of the diagonal mixes the
    # eigenvector lines into one block that is no weighted cycle
    g = unimodular(pair.ctx, pair.size, random.Random(0))
    assert not g[0, 1].is_zero() and not g[1, 0].is_zero()
    moved = MatrixPair(conjugate(g, pair.A), conjugate(g, pair.B))
    with pytest.raises(UnsupportedShape):
        semisimplify(moved)


REFUSAL = "^a diagonal block is neither 1x1 nor a weighted cycle$"


def test_semisimplify_block_refusals_keep_their_messages():
    # at ell = 1, A = I and B is one strongly connected block with two
    # nonzeros in its first row; jordan_data(B) has J_2(-3/2), so the module
    # is not semisimple
    C1 = FieldContext.root_of_unity(1)
    B = QMatrix.from_rational_rows(C1, [[0, 1, 1], [0, 0, 1], [Fraction(27, 4), 0, 0]])
    pair = MatrixPair(QMatrix.identity(C1, 3), B)
    assert (C1.rational(Fraction(-3, 2)), (2,)) in jordan_data(B).blocks
    with pytest.raises(UnsupportedShape, match=REFUSAL):
        semisimplify(pair)
    # a dense L*U conjugate of a full-cycle point: one block, neither
    # matrix diagonal on it
    pair = sample_point(ComponentIndex(3, m=(0, 0, 1), r=(0, 0)), seed=2)
    g = unimodular(C3, 3, random.Random(3))
    moved = MatrixPair(conjugate(g, pair.A), conjugate(g, pair.B))
    assert diagonal_blocks(moved.A, moved.B) == [[0, 1, 2]]
    with pytest.raises(UnsupportedShape, match=REFUSAL):
        semisimplify(moved)


def test_semisimplify_breaks_an_open_cycle():
    # at ell = 3, B sends e_0 to 5 e_2, e_2 to e_1 and e_1 to 0, with no
    # way back: e_1 spans a submodule with no complement, and the
    # composition factors are the three 1x1 blocks (a, 0)
    q = C3.q()
    A = QMatrix.diagonal(C3, [C3.one(), q.inverse(), q.inverse() * q.inverse()])
    B = QMatrix.sparse(C3, 3, 3, [(1, 2, C3.one()), (2, 0, C3.rational(5))])
    pair = MatrixPair(A, B)
    assert semisimplify(pair) == MatrixPair(A, QMatrix.zero(C3, 3, 3))


@st.composite
def moved_sample_points(draw):
    """A sample point at ell 1-5 or inf, and a random permutation of its indices."""
    ell = draw(st.sampled_from([1, 2, 3, 4, 5, INFINITE]))
    n = draw(st.integers(1, 6 if ell is not INFINITE else 5))
    pool = enumerate_ML(ell, n)
    idx = pool[draw(st.integers(0, len(pool) - 1))]
    pair = sample_point(idx, seed=draw(st.integers(0, 10 ** 6)))
    return pair, draw(st.permutations(range(n)))


@given(moved_sample_points())
@settings(max_examples=120, deadline=None)
def test_semisimplify_commutes_with_theta_and_with_permutations(drawn):
    pair, perm = drawn
    out = semisimplify(pair)
    assert semisimplify(theta_point(pair)) == theta_point(out)
    assert semisimplify(simultaneous_permutation(pair, perm)) == \
        simultaneous_permutation(out, perm)


# ---------------------------------------------------------------------------
# stratum -> GIT index
# ---------------------------------------------------------------------------

def test_git_index_single_full_cycle():
    idx = ComponentIndex(3, m=(0, 0, 1), r=(0, 0))
    assert git_index_of_stratum(idx) == GitIndex(1, 0, 0)


def test_git_index_mixed_example():
    idx = ComponentIndex(3, m=(1, 1, 0), r=(0, 1))
    out = git_index_of_stratum(idx)
    assert out == GitIndex(0, 3, 2)
    assert 3 * out.p + out.m + out.r == idx.n == 5
    assert git_index_of_stratum(ComponentIndex(INFINITE, (1, 2), (1,))) == GitIndex(0, 5, 1)


def test_git_index_consistent_with_semisimplify():
    rng = random.Random(8)
    for _ in range(20):
        ell = rng.choice([2, 3])
        n = rng.randint(1, 5)
        pool = enumerate_ML(ell, n)
        idx = pool[rng.randrange(len(pool))]
        git_idx = git_index_of_stratum(idx)
        assert ell * git_idx.p + git_idx.m + git_idx.r == n
        pair = sample_point(idx, seed=rng.randint(0, 10 ** 6))
        out = semisimplify(pair)
        # count surviving structure: rank of A on non-cycle part is m,
        # nonzero diagonal entries of B on the nilpotent part give r
        assert rank(out.A) == ell * git_idx.p + git_idx.m
        assert rank(out.B) >= git_idx.r
