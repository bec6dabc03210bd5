import os
import random
import resource
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from qplane import (BadIndex, ComponentIndex, FieldContext, INFINITE,
                    classify, count_ML, dim_component, dim_component_via_CBS,
                    direct_sum, enumerate_ML, jordan_data, MatrixPair,
                    parametrization_jacobian_rank, partition_count,
                    q_equivalent, rank, restricted_partition_count,
                    sample_point, theta_index, theta_point)
from qplane.commutant import q_layered, sylvester_operator
from qplane.components import _RationalPool, _jacobian_rank_once, _u_block, _v_block
from qplane.matrices import QMatrix, inverse


# ---------------------------------------------------------------------------
# ComponentIndex
# ---------------------------------------------------------------------------

def test_index_norm_and_total_size():
    idx = ComponentIndex(3, m=(1, 0, 2), r=(0, 1))
    assert idx.n == 1 + 6 + 2
    assert idx.m_top == 2


def test_index_rejects_negative_counts():
    with pytest.raises(BadIndex):
        ComponentIndex(2, m=(-1, 0), r=(0,))


@pytest.mark.parametrize("m, r", [((2.7, True), ()), ((1,), (True,)), ((1.0,), ()),
                                  ((Fraction(1),), ()), ((), ("1",))])
def test_index_refuses_counts_that_are_not_ints(m, r):
    # ComponentIndex(2, (2.7, True), ()) was once m = (2, 1) through int(c)
    for ell in (2, INFINITE):
        with pytest.raises(BadIndex, match="block counts must be nonnegative ints"):
            ComponentIndex(ell, m, r)


def test_index_addition_is_componentwise():
    a = ComponentIndex(2, m=(1, 0), r=(1,))
    b = ComponentIndex(2, m=(0, 2), r=(1,))
    assert a + b == ComponentIndex(2, m=(1, 2), r=(2,))


def test_infinite_regime_indices_trim():
    idx = ComponentIndex(INFINITE, m=(1, 0, 0), r=(0, 2))
    assert idx.m == (1,)
    assert idx.r == (0, 2)
    assert idx.n == 1 + 4


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------

def test_enumerate_width_two_size_two():
    out = enumerate_ML(2, 2)
    expected = [
        ComponentIndex(2, m=(2, 0), r=(0,)),
        ComponentIndex(2, m=(0, 1), r=(0,)),
        ComponentIndex(2, m=(1, 0), r=(1,)),
        ComponentIndex(2, m=(0, 0), r=(2,)),
    ]
    assert out == expected
    assert count_ML(2, 2) == 4
    # count identity: p1(0)p2(2) + p1(1)p2(1) + p1(2)p2(0)
    total = sum(restricted_partition_count(1, i) * restricted_partition_count(2, 2 - i)
                for i in range(3))
    assert total == 4


def test_count_far_past_the_recursion_limit():
    # closed forms: p_2(i) = i // 2 + 1, p_3(j) = round((j + 3)^2 / 12)
    expected = sum((i // 2 + 1) * (((3000 - i + 3) ** 2 + 6) // 12)
                   for i in range(3001))
    assert count_ML(3, 3000) == expected


def test_enumerate_degenerate_width_one():
    for n in range(6):
        out = enumerate_ML(1, n)
        assert out == [ComponentIndex(1, m=(n,), r=())]


def test_enumerate_empty_size():
    for ell in (1, 2, 3, INFINITE):
        out = enumerate_ML(ell, 0)
        assert len(out) == 1
        assert out[0].n == 0


# orders of q that are neither a positive integer nor infinite
BAD_ORDERS = [0, -1, -3, 2.5, "3", None]


@pytest.mark.parametrize("ell", BAD_ORDERS)
def test_enumerate_ML_rejects_an_invalid_order(ell):
    for n in (0, 3):
        with pytest.raises(BadIndex, match="the order must be a positive integer or INFINITE"):
            enumerate_ML(ell, n)


@pytest.mark.parametrize("ell", BAD_ORDERS)
def test_count_ML_rejects_an_invalid_order(ell):
    for n in (0, 3):
        with pytest.raises(BadIndex, match="the order must be a positive integer or INFINITE"):
            count_ML(ell, n)


@pytest.mark.parametrize("ell", BAD_ORDERS)
def test_parametrization_jacobian_rank_rejects_an_invalid_order(ell):
    # these failed three ways: ValueError, TypeError, or a BadIndex on sizes
    for kind in ("D", "N"):
        with pytest.raises(BadIndex, match="the order must be a positive integer or INFINITE"):
            parametrization_jacobian_rank(kind, 1, ell)


@pytest.mark.parametrize("ell", [True, False])
def test_a_bool_is_not_an_order_of_an_index(ell):
    # ComponentIndex(True, (1,), ()) once kept ell = True
    with pytest.raises(BadIndex, match="the order must be a positive integer or INFINITE"):
        ComponentIndex(ell, (1,), ())
    for f in (enumerate_ML, count_ML):
        with pytest.raises(BadIndex, match="the order must be a positive integer or INFINITE"):
            f(ell, 3)
    with pytest.raises(BadIndex, match="the order must be a positive integer or INFINITE"):
        parametrization_jacobian_rank("D", 1, ell)


def test_an_order_equal_to_infinite_is_the_infinite_order():
    inf = float("inf")
    assert count_ML(inf, 5) == count_ML(INFINITE, 5) == len(enumerate_ML(inf, 5))
    assert enumerate_ML(inf, 3) == enumerate_ML(INFINITE, 3)


def test_enumeration_matches_count_formula():
    for ell in (1, 2, 3, 4, 5, 6):
        for n in range(13):
            seen = enumerate_ML(ell, n)
            assert len(seen) == count_ML(ell, n)
            assert len(set(seen)) == len(seen)
            assert all(idx.n == n for idx in seen)
    for n in range(13):
        seen = enumerate_ML(INFINITE, n)
        assert len(seen) == count_ML(INFINITE, n)
        assert len(seen) == sum(partition_count(i) * partition_count(n - i)
                                for i in range(n + 1))


# ---------------------------------------------------------------------------
# dimensions
# ---------------------------------------------------------------------------

def test_dim_examples():
    assert dim_component(ComponentIndex(2, m=(0, 1), r=(0,))) == 5
    assert dim_component(ComponentIndex(INFINITE, m=(3,), r=())) == 9
    assert dim_component(ComponentIndex(INFINITE, m=(1,), r=(0, 1))) == 9
    assert dim_component(ComponentIndex(3, m=(0, 0, 0), r=(3, 0))) == 9


def test_dim_via_generator_sums():
    assert dim_component_via_CBS(ComponentIndex(3, m=(0, 0, 1), r=(0, 0))) == 10
    assert dim_component_via_CBS(ComponentIndex(4, m=(2, 0, 0, 0), r=(0, 0, 0))) == 4


def test_dim_formulas_agree():
    for ell in (1, 2, 3, 4):
        for n in range(9):
            for idx in enumerate_ML(ell, n):
                assert dim_component_via_CBS(idx) == dim_component(idx)
    for n in range(7):
        for idx in enumerate_ML(INFINITE, n):
            assert dim_component_via_CBS(idx) == dim_component(idx) == n * n


# ---------------------------------------------------------------------------
# theta
# ---------------------------------------------------------------------------

def test_theta_index_example():
    idx = ComponentIndex(3, m=(1, 0, 2), r=(0, 1))
    out = theta_index(idx)
    assert out.m == (0, 1, 2)
    assert out.r == (1, 0)
    out = theta_index(ComponentIndex(INFINITE, (1, 2), (1,)))
    assert out == ComponentIndex(INFINITE, (1,), (1, 2))


def test_theta_index_involution():
    for ell in (1, 2, 3, 4, 5):
        for n in range(9):
            for idx in enumerate_ML(ell, n):
                assert theta_index(theta_index(idx)) == idx


def test_theta_index_preserves_size():
    for ell in (2, 3, 4):
        for n in range(8):
            for idx in enumerate_ML(ell, n):
                assert theta_index(idx).n == n


def test_theta_point_satisfies_inverse_relation():
    idx = ComponentIndex(3, m=(1, 1, 0), r=(1, 0))
    pair = sample_point(idx, seed=5)
    flipped = theta_point(pair)
    ctx = flipped.ctx
    # B*A = q^{-1} A*B after the switch
    assert flipped.A * flipped.B == (flipped.B * flipped.A).scale(ctx.q())


def test_theta_point_lands_in_theta_component():
    for ell in (2, 3):
        for n in (2, 3):
            for idx in enumerate_ML(ell, n):
                pair = sample_point(idx, seed=9)
                assert classify(theta_point(pair)) == theta_index(idx)


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

def test_sample_full_cycle_at_width_two():
    idx = ComponentIndex(2, m=(0, 1), r=(0,))
    pair = sample_point(idx, seed=1)
    A, B = pair.A, pair.B
    assert A.nrows == 2
    assert A[0, 0] == -A[1, 1]
    assert A[0, 1].is_zero() and A[1, 0].is_zero()
    assert not B[0, 1].is_zero() and not B[1, 0].is_zero()
    assert B[0, 0].is_zero() and B[1, 1].is_zero()


def test_sample_singleton_nilpotent_stratum():
    idx = ComponentIndex(4, m=(0, 0, 0, 0), r=(1, 0, 0))
    pair = sample_point(idx, seed=2)
    assert pair.size == 1
    assert pair.A[0, 0].is_zero()
    assert not pair.B[0, 0].is_zero()


def test_sample_point_takes_the_inverse_of_q_as_a_power(monkeypatch):
    # the Galois-conjugate inverse multiplies all phi(ell) - 1 conjugates:
    # at ell = 1999 it took most of the time of this sample
    from qplane.scalars import QScalar

    def refuse(self):
        raise AssertionError("sample_point ran QScalar.inverse")

    monkeypatch.setattr(QScalar, "inverse", refuse)
    assert sample_point(ComponentIndex(1999, m=(1,), r=()), seed=0).size == 1
    for ell in (5, INFINITE):  # A = diag(a, a/q) on a dense summand of size 2
        A = sample_point(ComponentIndex(ell, m=(0, 1), r=()), seed=0).A
        assert A[1, 1] * A.ctx.q() == A[0, 0]


def test_sample_relation_and_rank_profile():
    rng = random.Random(3)
    seen = 0
    while seen < 60:
        ell = rng.choice([2, 3, 4, INFINITE])
        n = rng.randint(1, 6)
        pool = enumerate_ML(ell, n)
        idx = pool[rng.randrange(len(pool))]
        pair = sample_point(idx, seed=rng.randint(0, 10 ** 6))
        q = pair.ctx.q()
        assert pair.A * pair.B == (pair.B * pair.A).scale(q)
        r_total = sum(idx.r)
        m_total = sum(idx.m)
        assert rank(pair.A) == n - r_total
        assert rank(pair.B) == n - m_total + idx.m_top
        seen += 1


def test_sample_is_seed_deterministic():
    idx = ComponentIndex(3, m=(1, 0, 1), r=(1, 1))
    assert sample_point(idx, seed=7) == sample_point(idx, seed=7)
    assert sample_point(idx, seed=7) != sample_point(idx, seed=8)


def test_sample_bases_pairwise_inequivalent():
    idx = ComponentIndex(3, m=(2, 1, 0), r=(0, 0))
    pair = sample_point(idx, seed=11)
    # diagonal of A carries the eigenvalues: block bases at positions 0,1,2
    bases = [pair.A[0, 0], pair.A[1, 1], pair.A[2, 2]]
    assert q_equivalent(bases[0], bases[1]) is None
    assert q_equivalent(bases[0], bases[2]) is None
    assert q_equivalent(bases[1], bases[2]) is None


# ---------------------------------------------------------------------------
# jacobian ranks
# ---------------------------------------------------------------------------

def test_jacobian_rank_dense_strata():
    assert parametrization_jacobian_rank("D", 2, 3, seed=0) == 4
    assert parametrization_jacobian_rank("D", 2, 2, seed=0) == 5


def test_jacobian_rank_nilpotent_strata():
    assert parametrization_jacobian_rank("N", 1, 3, seed=0) == 1
    assert parametrization_jacobian_rank("N", 2, 3, seed=0) == 4


def test_jacobian_rank_generic_regime():
    assert parametrization_jacobian_rank("D", 3, INFINITE, seed=0) == 9
    assert parametrization_jacobian_rank("N", 2, INFINITE, seed=0) == 4


def conjugated_jacobian_rank_once(kind, size, ctx, rng):
    """The differential's rank at (g, theta) for a random invertible g: the
    point of _jacobian_rank_once conjugated by g, with every direction
    conjugated too."""
    pool = _RationalPool(ctx, rng.randint(0, 2 ** 30))
    A, B = (_u_block if kind == "D" else _v_block)(ctx, size, pool)
    while True:
        g = QMatrix(ctx, [[ctx.rational(Fraction(rng.randint(-5, 5)))
                           for _ in range(size)] for _ in range(size)])
        if rank(g) == size:
            break
    ginv = inverse(g)
    zero, one = ctx.zero(), ctx.one()
    Abar, Bbar = g * A * ginv, g * B * ginv
    Z = QMatrix.zero(ctx, size, size)

    def flat(Xa, Xb):
        return [x for X in (Xa, Xb) for row in (g * X * ginv).rows for x in row]

    def unit(rr, cc):
        return QMatrix(ctx, [[one if (r, c) == (rr, cc) else zero for c in range(size)]
                             for r in range(size)])

    rows = list(QMatrix(ctx, sylvester_operator(Abar, Abar, one).rows
                        + sylvester_operator(Bbar, Bbar, one).rows).transpose().rows)
    if kind == "D":
        qinv = ctx.q().inverse()
        rows.append(flat(QMatrix.diagonal(ctx, [qinv ** k for k in range(size)]), Z))
        positions = [(k, k + 1) for k in range(size - 1)]
        if size == ctx.ell:
            positions.append((size - 1, 0))
        rows += [flat(Z, unit(rr, cc)) for rr, cc in positions]
    else:
        for k in range(size):
            e = [one if j == k else zero for j in range(size)]
            rows.append(flat(Z, q_layered(size, size, e, ctx=ctx)))
    return rank(QMatrix(ctx, rows))


def stratum_sizes():
    for ell in (2, 3, 4, 5):
        yield from (("D", i, ell) for i in range(1, ell + 1))
        yield from (("N", i, ell) for i in range(1, ell))
    for i in (1, 2, 3):
        yield from (("D", i, INFINITE), ("N", i, INFINITE))


@pytest.mark.parametrize("kind,i,ell", list(stratum_sizes()))
def test_jacobian_rank_does_not_depend_on_the_conjugator(kind, i, ell):
    ctx = FieldContext.for_order(ell)
    for seed in (0, 1):
        assert (_jacobian_rank_once(kind, i, ctx, random.Random(seed))
                == conjugated_jacobian_rank_once(kind, i, ctx, random.Random(seed)))


def test_jacobian_rank_at_larger_generic_strata_answers_in_time():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = ("from qplane import INFINITE, parametrization_jacobian_rank as j; "
            "print(j('D', 4, INFINITE), j('N', 4, INFINITE), j('D', 5, INFINITE))")
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        timeout=10, preexec_fn=lambda: resource.setrlimit(
            resource.RLIMIT_AS, (2 ** 30, 2 ** 30)))
    assert done.returncode == 0
    assert done.stdout.split() == ["16", "16", "25"]


def test_jacobian_rank_bad_sizes():
    with pytest.raises(BadIndex):
        parametrization_jacobian_rank("D", 4, 3)
    with pytest.raises(BadIndex):
        parametrization_jacobian_rank("N", 3, 3)


# ---------------------------------------------------------------------------
# round trips through the classifier
# ---------------------------------------------------------------------------

def test_classify_after_sampling_round_trip():
    rng = random.Random(4)
    for ell in (1, 2, 3, INFINITE):
        for n in range(5):
            for idx in enumerate_ML(ell, n):
                pair = sample_point(idx, seed=rng.randint(0, 10 ** 6))
                assert classify(pair) == idx


def test_direct_sum_additivity():
    rng = random.Random(5)
    for _ in range(15):
        ell = rng.choice([2, 3])
        n1, n2 = rng.randint(1, 3), rng.randint(1, 3)
        pool1 = enumerate_ML(ell, n1)
        pool2 = enumerate_ML(ell, n2)
        idx1 = pool1[rng.randrange(len(pool1))]
        idx2 = pool2[rng.randrange(len(pool2))]
        p1 = sample_point(idx1, seed=rng.randint(0, 100))
        p2 = sample_point(idx2, seed=rng.randint(100, 200))
        glued = MatrixPair(direct_sum(p1.A, p2.A), direct_sum(p1.B, p2.B))
        got = classify(glued)
        want = idx1 + idx2
        if got != want:
            # eigenvalue collisions between independently drawn samples can
            # merge blocks; they are rare but legal, so only flag mismatches
            # when all cross-sample bases stayed inequivalent
            diag1 = [p1.A[i, i] for i in range(n1) if not p1.A[i, i].is_zero()]
            diag2 = [p2.A[i, i] for i in range(n2) if not p2.A[i, i].is_zero()]
            collision = any(q_equivalent(x, y) is not None
                            for x in diag1 for y in diag2)
            assert collision, (idx1, idx2, got)
