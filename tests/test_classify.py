import random
from collections import Counter
from itertools import zip_longest

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qplane import (ComponentIndex, FieldContext, INFINITE, JordanSpec,
                    MatrixPair, QMatrix, associated_sequence, classify,
                    conjugate, enumerate_ML, jordan_block, qcommutant_basis,
                    rank, sample_point, transpose_partition)
from qplane import matrices

GEN = FieldContext.generic()
C2 = FieldContext.root_of_unity(2)
C3 = FieldContext.root_of_unity(3)


def pair_with_random_commutant_member(A, rng):
    basis = qcommutant_basis(A)
    B = QMatrix.zero(A.ctx, A.nrows, A.nrows)
    for element in basis:
        B = B + element.scale(A.ctx.rational(rng.randint(-3, 3)))
    return MatrixPair(A, B)


# ---------------------------------------------------------------------------
# nilpotent blocks: s = k*ell + t gives k full cycles and one r_t
# ---------------------------------------------------------------------------

def nilpotent(ctx, partition):
    return classify(JordanSpec(ctx, [(ctx.zero(), partition)]))


def test_nilpotent_block_with_wraparound():
    assert nilpotent(C3, (4,)) == ComponentIndex(3, m=(0, 0, 1), r=(1, 0))


def test_nilpotent_block_doubled():
    assert nilpotent(C2, (3, 3)) == ComponentIndex(2, m=(0, 2), r=(2,))


def test_nilpotent_block_below_ell():
    for ell in (3, 4, 5):
        for s in range(1, ell):
            out = nilpotent(FieldContext.root_of_unity(ell), (s,))
            assert sum(out.m) == 0
            assert out.r[s - 1] == 1
            assert sum(out.r) == 1


def test_nilpotent_block_exact_multiple():
    assert nilpotent(C3, (6,)) == ComponentIndex(3, m=(0, 0, 2), r=(0, 0))


def test_nilpotent_block_infinite_regime():
    out = nilpotent(GEN, (4, 4))
    assert sum(out.m) == 0
    assert out.r == (0, 0, 0, 2)


# ---------------------------------------------------------------------------
# nonzero q-classes: the maximal chains of each column of the transposed
# partitions
# ---------------------------------------------------------------------------

def test_full_cycle_of_singletons():
    q = C3.q()
    a = C3.rational(2)
    spec = JordanSpec(C3, [(a, [1]), (a / q, [1]), (a / q ** 2, [1])])
    assert classify(spec) == ComponentIndex(3, m=(0, 0, 1), r=(0, 0))


def test_diagonalizable_multiplicity_pattern():
    c4 = FieldContext.root_of_unity(4)
    q = c4.q()
    a = c4.rational(2)
    spec = JordanSpec(c4, [(a, [1] * 3), (a / q, [1] * 2),
                           (a / q ** 2, [1] * 3), (a / q ** 3, [1])])
    out = classify(spec)
    assert out.m == (2, 0, 1, 1)
    assert sum(out.r) == 0


def test_two_step_partitions():
    q = C3.q()
    a = C3.rational(2)
    spec = JordanSpec(C3, [(a, [2]), (a / q, [1])])
    assert classify(spec).m == (1, 1, 0)


# ---------------------------------------------------------------------------
# the classifier against the per-column pipeline it replaced
# ---------------------------------------------------------------------------

GENERIC_SPAN = 6  # jordan_specs draws exponents 0..5 at ell = inf


def aligned_classes(spec):
    """The nonzero eigenvalues of spec in q-scaling classes, by brute force:
    a joins the class of base when a * q^k == base for some k in range(ell),
    or for some |k| < GENERIC_SPAN at ell = inf.  Each class is its list of
    partitions, where slot k holds the partition of base * q^(-k) (empty if
    that is no eigenvalue); at ell = inf the slots run from the least k to
    the greatest."""
    ctx = spec.ctx
    q = ctx.q()
    if ctx.ell is INFINITE:
        shifts = range(1 - GENERIC_SPAN, GENERIC_SPAN)
    else:
        shifts = range(ctx.ell)
    classes = []  # (base, {k: partition})
    for eigenvalue, partition in spec.blocks:
        if eigenvalue.is_zero():
            continue
        for base, slots in classes:
            k = next((k for k in shifts if eigenvalue * q ** k == base), None)
            if k is not None:
                slots[k] = partition
                break
        else:
            classes.append((eigenvalue, {0: partition}))
    aligned = []
    for _, slots in classes:
        ks = shifts if ctx.ell is not INFINITE else range(min(slots), max(slots) + 1)
        aligned.append([slots.get(k, ()) for k in ks])
    return aligned


def add_counts(u, v):
    """The entrywise sum of two count vectors, the shorter padded with 0."""
    return tuple(a + b for a, b in zip_longest(u, v, fillvalue=0))


def classify_by_column_sums(spec):
    """classify as the sum of the count vectors (m, r) of each column of each
    nonzero class (through associated_sequence's dense count vector) and of
    each distinct nilpotent block size."""
    ell = spec.ctx.ell
    m, r = (), ()
    for eigenvalue, partition in spec.blocks:
        if not eigenvalue.is_zero():
            continue
        for s, mult in sorted(Counter(partition).items()):
            if ell is INFINITE:
                r = add_counts(r, (0,) * (s - 1) + (mult,))
            else:
                k, t = divmod(s, ell)
                m = add_counts(m, (0,) * (ell - 1) + (mult * k,))
                if t:
                    r = add_counts(r, (0,) * (t - 1) + (mult,))
    for partitions in aligned_classes(spec):
        transposed = [transpose_partition(p) for p in partitions]
        width = max((len(t) for t in transposed), default=0)
        for j in range(width):
            counts = tuple(t[j] if j < len(t) else 0 for t in transposed)
            m = add_counts(m, associated_sequence(counts, ell))
    return ComponentIndex(ell, m, r)


@st.composite
def jordan_specs(draw):
    """Up to three nonzero classes (bases 2, 3, 5), each a run, a gapped
    set or a full cycle of exponents, plus an optional nilpotent class;
    parts run past ell, so nilpotent blocks wrap and columns stack."""
    ell = draw(st.sampled_from([1, 2, 3, 4, 5, 6, INFINITE]))
    ctx = FieldContext.for_order(ell)
    span = GENERIC_SPAN if ell is INFINITE else ell
    partitions = st.lists(st.integers(1, 2 * span + 1), min_size=1, max_size=3).map(
        lambda parts: sorted(parts, reverse=True))
    blocks = []
    for base in draw(st.lists(st.sampled_from([2, 3, 5]), unique=True, max_size=3)):
        exponents = draw(st.one_of(st.just(range(span)),
                                   st.sets(st.integers(0, span - 1), min_size=1)))
        blocks += [(ctx.rational(base) * ctx.q() ** k, draw(partitions))
                   for k in exponents]
    if draw(st.booleans()):
        blocks.append((ctx.zero(), draw(partitions)))
    return JordanSpec(ctx, blocks)


@settings(max_examples=300, deadline=None)
@given(jordan_specs())
def test_classify_matches_the_per_column_sums(spec):
    out = classify(spec)
    assert out == classify_by_column_sums(spec)
    assert out.n == spec.size


# ---------------------------------------------------------------------------
# full classifier
# ---------------------------------------------------------------------------

def test_classify_diagonal_cycle():
    q = C3.q()
    a = C3.rational(2)
    A = QMatrix.diagonal(C3, [a, a / q, a / q ** 2])
    rng = random.Random(0)
    pair = pair_with_random_commutant_member(A, rng)
    assert classify(pair) == ComponentIndex(3, m=(0, 0, 1), r=(0, 0))


def test_classify_nilpotent_jordan_block():
    A = jordan_block(C2, 3, C2.zero())
    rng = random.Random(1)
    pair = pair_with_random_commutant_member(A, rng)
    assert classify(pair) == ComponentIndex(2, m=(0, 1), r=(1,))


def test_classify_at_width_one():
    c1 = FieldContext.root_of_unity(1)
    for n in (1, 2, 3):
        A = QMatrix.diagonal(c1, [c1.rational(k + 2) for k in range(n)])
        B = QMatrix.zero(c1, n, n)
        assert classify(MatrixPair(A, B)) == ComponentIndex(1, m=(n,), r=())


def test_classify_accepts_jordan_spec_directly():
    spec = JordanSpec(C3, [(C3.zero(), [4])])
    assert classify(spec) == ComponentIndex(3, m=(0, 0, 1), r=(1, 0))


def test_classify_mixed_spectrum():
    # a 2-chain at base 2, plus a nilpotent J2, over width 3
    q = C3.q()
    spec = JordanSpec(C3, [(C3.rational(2), [1]), (C3.rational(2) / q, [1]),
                           (C3.zero(), [2])])
    out = classify(spec)
    assert out == ComponentIndex(3, m=(0, 1, 0), r=(0, 1))
    assert out.n == 4


def test_classify_generic_regime_gapped_class():
    # eigenvalues a and a q^{-3}: the gap splits them into two singleton runs
    q = GEN.q()
    a = GEN.rational(2)
    spec = JordanSpec(GEN, [(a, [1]), (a / q ** 3, [1])])
    out = classify(spec)
    assert out.m == (2,)
    assert sum(out.r) == 0


def test_classify_conjugation_invariance():
    rng = random.Random(2)
    q = C3.q()
    a = C3.rational(2)
    A = QMatrix.diagonal(C3, [a, a / q, C3.zero()])
    pair = pair_with_random_commutant_member(A, rng)
    base = classify(pair)
    for _ in range(5):
        while True:
            g = QMatrix.from_rational_rows(
                C3, [[rng.randint(-3, 3) for _ in range(3)] for _ in range(3)])
            if rank(g) == 3:
                break
        moved = MatrixPair(conjugate(g, pair.A), conjugate(g, pair.B))
        assert classify(moved) == base


def test_classify_dense_conjugate_with_q_twisted_spectrum():
    # 2q and 2q^2 have no rational member in their q-orbit
    q = C3.q()
    lams = [C3.rational(2) * q, C3.rational(2) * q * q]
    g = QMatrix.from_rational_rows(C3, [[1, 1], [1, 2]])
    A = conjugate(g, QMatrix.diagonal(C3, lams))
    B = conjugate(g, QMatrix(C3, [[C3.zero(), C3.zero()], [C3.one(), C3.zero()]]))
    expected = classify(JordanSpec(C3, [(lam, [1]) for lam in lams]))
    assert classify(MatrixPair(A, B)) == expected


def test_classify_depends_only_on_A():
    rng = random.Random(3)
    q = C2.q()
    A = QMatrix.diagonal(C2, [C2.rational(2), C2.rational(2) / q,
                              C2.zero(), C2.zero()])
    outputs = set()
    for _ in range(10):
        pair = pair_with_random_commutant_member(A, rng)
        outputs.add(classify(pair))
    assert len(outputs) == 1


def test_classify_size_conservation():
    rng = random.Random(4)
    for _ in range(20):
        ell = rng.choice([2, 3, 4])
        ctx = FieldContext.root_of_unity(ell)
        q = ctx.q()
        blocks = {}
        total = 0
        while total < 1 or (total < 7 and rng.random() < 0.5):
            value = ctx.rational(rng.choice([0, 2, 3])) * q ** rng.randint(0, ell - 1)
            key = repr(value)
            if key in blocks:
                continue
            parts = sorted((rng.randint(1, 3) for _ in range(rng.randint(1, 2))),
                           reverse=True)
            blocks[key] = (value, parts)
            total += sum(parts)
        spec = JordanSpec(ctx, list(blocks.values()))
        out = classify(spec)
        assert out.n == spec.size


def test_classify_reads_sample_points_off_their_diagonal_blocks(monkeypatch):
    # A of a sample point is diagonal on the dense-kind summands and J_s(0)
    # on the nilpotent ones: every diagonal block is 1x1, so no char poly
    # is computed by Faddeev-LeVerrier
    def no_faddeev(A):
        raise AssertionError(f"Faddeev-LeVerrier on a {A.nrows}x{A.nrows} block")

    monkeypatch.setattr(matrices, "_faddeev_leverrier", no_faddeev)
    for ell in (2, 3, 4, 5, INFINITE):
        for n in range(1, 6):
            for idx in enumerate_ML(ell, n):
                assert classify(sample_point(idx)) == idx
    dense = QMatrix.from_rational_rows(C3, [[0, 2], [1, 3]])
    with pytest.raises(AssertionError, match="2x2 block"):
        classify(MatrixPair(dense, QMatrix.zero(C3, 2, 2)))
