import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qplane import (EigenvaluesNotFound, FieldContext, JordanSpec, MixedContext, NotSquare,
                    QMatrix, QScalar, block_jordan, char_poly, check_partition, conjugate,
                    direct_sum, jordan_block, jordan_data, q_orbit, rank, realize,
                    transpose_partition)
from qplane import jordan, matrices, poly

C3 = FieldContext.root_of_unity(3)
C5 = FieldContext.root_of_unity(5)
GEN = FieldContext.generic()


def random_invertible(ctx, n, rng):
    while True:
        g = QMatrix.from_rational_rows(
            ctx, [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)])
        if rank(g) == n:
            return g


def unimodular(ctx, n, rng):
    """A dense conjugator L*U: unit triangular factors, entries in {-1, 1, 2}."""
    def pick():
        return ctx.rational(rng.choice((-1, 1, 2)))
    zero, one = ctx.zero(), ctx.one()
    L = QMatrix(ctx, [[one if i == j else (pick() if i > j else zero)
                       for j in range(n)] for i in range(n)])
    U = QMatrix(ctx, [[one if i == j else (pick() if i < j else zero)
                       for j in range(n)] for i in range(n)])
    return L * U


# ---------------------------------------------------------------------------
# partitions
# ---------------------------------------------------------------------------

def test_check_partition_rejects_bad_input():
    with pytest.raises(ValueError):
        check_partition([1, 2])
    with pytest.raises(ValueError):
        check_partition([2, 0])
    assert check_partition([3, 1, 1]) == (3, 1, 1)


@pytest.mark.parametrize("nu", [(2.7, True), (2.5,), (2.0,), (True,), (Fraction(2),), ("2",)])
def test_check_partition_refuses_parts_that_are_not_ints(nu):
    # check_partition((2.7, True)) once answered (2, 1) through int(p), and
    # JordanSpec(C3, [(one, (2.5,))]) kept the block (2,)
    with pytest.raises(ValueError, match="partition parts must be ints"):
        check_partition(nu)
    with pytest.raises(ValueError, match="partition parts must be ints"):
        JordanSpec(C3, [(C3.one(), nu)])


@pytest.mark.parametrize("eigenvalue", [2, Fraction(1, 2), None, "q"])
def test_jordan_spec_refuses_an_eigenvalue_that_is_not_a_scalar(eigenvalue):
    # JordanSpec(C3, [(2, (1,))]) once died in canonical_key on int_den
    with pytest.raises(TypeError, match="JordanSpec eigenvalues must be QScalars"):
        JordanSpec(C3, [(eigenvalue, (1,))])


def test_jordan_spec_refuses_an_eigenvalue_of_another_context():
    # a Q(zeta_5) q-chain in a spec at ell = 3 once classified as m = (0, 1, 0)
    chain = [(C5.rational(2), (1,)), (C5.rational(2) * C5.q(), (1,))]
    for ctx, blocks in ((C3, chain), (C3, chain[:1]), (GEN, [(C3.zero(), (1,))]),
                        (C3, [(C3.one(), (1,)), (GEN.q(), (1,))])):
        with pytest.raises(MixedContext):
            JordanSpec(ctx, blocks)


def test_jordan_spec_refuses_an_empty_partition_or_a_repeated_eigenvalue():
    with pytest.raises(ValueError, match="empty partition in JordanSpec"):
        JordanSpec(C3, [(C3.one(), ())])
    with pytest.raises(ValueError, match="repeated eigenvalue in JordanSpec"):
        JordanSpec(C3, [(C3.one(), (1,)), (C3.rational(2), (2,)), (C3.one(), (1,))])


def test_transpose_partition_examples():
    assert transpose_partition([3, 1]) == (2, 1, 1)
    assert transpose_partition([]) == ()
    assert transpose_partition([4]) == (1, 1, 1, 1)


def test_transpose_partition_involution():
    rng = random.Random(0)
    for _ in range(100):
        nu = sorted((rng.randint(1, 6) for _ in range(rng.randint(0, 5))),
                    reverse=True)
        assert transpose_partition(transpose_partition(nu)) == tuple(nu)


# ---------------------------------------------------------------------------
# realize
# ---------------------------------------------------------------------------

def test_realize_single_nilpotent_block():
    spec = JordanSpec(C3, [(C3.zero(), [2])])
    assert realize(spec) == jordan_block(C3, 2, C3.zero())


def test_realize_of_the_empty_spec_is_the_0x0_matrix():
    for ctx in (C3, GEN):
        assert realize(JordanSpec(ctx, ())) == QMatrix.zero(ctx, 0, 0)


def test_realize_q_commuting_diagonal():
    a = GEN.rational(2)
    spec = JordanSpec(GEN, [(a, [1]), (a / GEN.q(), [1])])
    M = realize(spec)
    assert M.nrows == 2
    assert M[0, 1].is_zero() and M[1, 0].is_zero()
    assert {M[0, 0], M[1, 1]} == {a, a / GEN.q()}


def test_realize_partition_gives_multiple_blocks():
    a = C3.rational(5)
    spec = JordanSpec(C3, [(a, [2, 1])])
    M = realize(spec)
    assert M.nrows == 3
    assert M[0, 1] == C3.one()
    assert M[1, 2].is_zero()
    assert M.trace() == C3.rational(15)


def test_jordan_block_trace():
    a = GEN.q() + GEN.one()
    assert jordan_block(GEN, 2, a).trace() == a + a


def test_block_jordan_is_similar_to_repeated_blocks():
    a = C3.rational(2)
    M = block_jordan(C3, 2, 3, a)
    assert jordan_data(M) == JordanSpec(C3, [(a, [2, 2, 2])])


# ---------------------------------------------------------------------------
# jordan_data
# ---------------------------------------------------------------------------

def test_jordan_data_nilpotent_block():
    spec = jordan_data(jordan_block(C3, 3, C3.zero()))
    assert spec == JordanSpec(C3, [(C3.zero(), [3])])


def test_jordan_data_recovers_conjugated_spec():
    rng = random.Random(1)
    a = GEN.rational(Fraction(2, 3))
    spec = JordanSpec(GEN, [(a, [2, 1])])
    M = realize(spec)
    for _ in range(5):
        g = random_invertible(GEN, 3, rng)
        assert jordan_data(conjugate(g, M)) == spec


def test_jordan_data_irrational_spectrum_raises():
    # companion matrix of x^2 - 2: no eigenvalue in Q(zeta_3)
    A = QMatrix.from_rational_rows(C3, [[0, 2], [1, 0]])
    with pytest.raises(EigenvaluesNotFound):
        jordan_data(A)


def test_jordan_data_mixed_q_orbit():
    q = GEN.q()
    a = GEN.rational(3)
    spec = JordanSpec(GEN, [(a, [2]), (a / q, [1, 1]), (GEN.zero(), [1])])
    M = realize(spec)
    rng = random.Random(2)
    g = random_invertible(GEN, 5, rng)
    assert jordan_data(conjugate(g, M)) == spec


def test_jordan_data_stops_once_the_hints_cover_the_spectrum(monkeypatch):
    # the diagonal hints give both roots: no divisor search on 10^12
    def no_search(coeffs):
        raise AssertionError("rational_roots should not run")

    monkeypatch.setattr(jordan, "rational_roots", no_search)
    big = [C3.rational(10 ** 12), C3.rational(10 ** 12 + 1)]
    spec = jordan_data(QMatrix.diagonal(C3, big))
    assert spec == JordanSpec(C3, [(lam, [1]) for lam in big])


def test_jordan_data_finds_q_twisted_roots():
    # 2q and 2q^2 have no rational member in their q-orbit
    q = C3.q()
    lams = [C3.rational(2) * q, C3.rational(2) * q * q]
    g = QMatrix.from_rational_rows(C3, [[1, 1], [1, 2]])
    A = conjugate(g, QMatrix.diagonal(C3, lams))
    assert any(not A.rows[i][j].is_zero() for i in range(2) for j in range(2) if i != j)
    spec = JordanSpec(C3, [(lam, [1]) for lam in lams])
    assert jordan_data(A) == spec


def test_jordan_data_keeps_the_diagonal_hints_of_one_dense_block():
    # P diag(1 + 2q, 2, 3) P^-1 is one strongly connected block whose
    # corner entry is 1 + 2q: no rational times a power of q, so no residual
    # has it, and only the diagonal hint M[0, 0] finds it
    q, r = C3.q(), C3.rational
    P = QMatrix.from_rational_rows(C3, [[-2, -2, 0], [1, 0, 1], [-1, 2, -1]])
    lams = [r(1) + r(2) * q, r(2), r(3)]
    M = conjugate(P, QMatrix.diagonal(C3, lams))
    assert matrices.diagonal_blocks(M) == [[0, 1, 2]] and M[0, 0] == lams[0]
    assert jordan_data(M) == JordanSpec(C3, [(lam, [1]) for lam in lams])


def test_jordan_data_decomposes_its_matrix_once(monkeypatch):
    # the cofactor is the product of the larger blocks' char polys, taken
    # on the one block triangular form jordan_data already has
    calls = []
    original = matrices.diagonal_blocks

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(matrices, "diagonal_blocks", counting)
    r = C3.rational
    dense = conjugate(QMatrix.from_rational_rows(C3, [[1, 1], [1, 2]]),
                      QMatrix.diagonal(C3, [r(5), r(7)]))
    A = direct_sum(dense, jordan_block(C3, 2, r(3)), dense)
    spec = JordanSpec(C3, [(r(3), [2]), (r(5), [1, 1]), (r(7), [1, 1])])
    assert jordan_data(A) == spec
    assert len(calls) == 1


def sympy_rational_roots(coeffs):
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    rows = [sympy.Rational(c.numerator, c.denominator) for c in reversed(coeffs)]
    return {Fraction(int(r.p), int(r.q))
            for r in sympy.Poly(rows, x, domain="QQ").ground_roots()}


ROOTS = st.one_of(st.just(Fraction(0)), st.integers(-40, 40).map(Fraction),
                  st.fractions(-20, 20, max_denominator=12),
                  st.integers(-10 ** 30, 10 ** 30).map(Fraction))


@settings(max_examples=150, deadline=None)
@given(st.lists(ROOTS, max_size=5), st.lists(st.integers(-9, 9), min_size=1, max_size=4),
       st.fractions(-9, 9, max_denominator=7).filter(bool), st.booleans())
def test_rational_roots_match_sympy(roots, extra, lead, repeat):
    # repeated, zero and Fraction roots, magnitudes up to 10^30, times an
    # integer factor that usually has no rational root
    p = (lead,)
    for root in roots + roots[:2 * repeat]:
        p = poly.mul(p, (-root, Fraction(1)))
    extra = poly.trim(tuple(Fraction(c) for c in extra)) or (Fraction(1),)
    p = poly.mul(p, extra)
    if all(c.denominator == 1 for c in p):
        p = tuple(int(c) for c in p)
    found = jordan.rational_roots(p)
    assert found == sympy_rational_roots(p)
    assert found >= set(roots)


def test_jordan_data_of_large_integer_spectra_answers_in_time():
    # conjugate([[1, 1], [1, 2]], diag(10^e, 10^e + 1)) at ell 3: the
    # diagonal hints are no eigenvalues, and trial division of the constant
    # coefficient took over a second at e = 7 and did not end at e = 12
    script = """
import time
from qplane import FieldContext, JordanSpec, QMatrix, conjugate, jordan_data
ctx = FieldContext.root_of_unity(3)
g = QMatrix.from_rational_rows(ctx, [[1, 1], [1, 2]])
for e in (12, 40):
    lams = [ctx.rational(10 ** e), ctx.rational(10 ** e + 1)]
    A = conjugate(g, QMatrix.diagonal(ctx, lams))
    start = time.perf_counter()
    spec = jordan_data(A)
    print(time.perf_counter() - start)
    assert spec == JordanSpec(ctx, [(lam, [1]) for lam in lams])
"""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=30)
    assert done.returncode == 0, done.stderr
    seconds = [float(line) for line in done.stdout.split()]
    assert len(seconds) == 2 and max(seconds) < 1.0, seconds


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.sampled_from([1, -1, 2, -3, Fraction(1, 2), Fraction(-5, 3)]),
                          st.integers(-8, 8)), min_size=1, max_size=4))
def test_newton_polygon_candidates_contain_every_monomial_root(roots):
    # the candidates of prod (y - c_i q^k_i) cover every root, whatever the
    # spread of the valuations k_i and however the residues c_i repeat
    q = GEN.q()
    lams = [GEN.rational(c) * q ** k for c, k in roots]
    p = (GEN.one(),)
    for lam in lams:
        p = poly.mul(p, (-lam, GEN.one()))
    candidates = {GEN.rational(c) * q ** k for k, residual in jordan._residuals(p, GEN)
                  for c in jordan.rational_roots(residual)}
    assert set(lams) <= candidates


def test_residuals_and_orbit_keys_stay_exact_for_non_monic_denominators():
    # roots r and r q^2 with r = (1 + q)/(2 + 3q): the lowest Laurent
    # coefficient 1/2 of each is a ratio of integers read off the orbit keys,
    # and must stay a Fraction (int / int would be a float)
    q = GEN.q()
    r = (GEN.one() + q) / (GEN.rational(2) + GEN.rational(3) * q)
    lams = [r, r * q ** 2]
    p = (GEN.one(),)
    for lam in lams:
        p = poly.mul(p, (-lam, GEN.one()))
    residuals = list(jordan._residuals(p, GEN))
    assert {k for k, _ in residuals} == {0, 2}
    for _, residual in residuals:
        assert all(type(c) is Fraction for c in residual)
        assert Fraction(1, 2) in jordan.rational_roots(residual)
    key, k = q_orbit(r)
    for j in (-3, 1, 2, 7):
        assert q_orbit(r * q ** j) == (key, k + j)
    others = [r * GEN.rational(2), (GEN.one() + q) / (GEN.rational(2) + q),
              GEN.one() / r, r + GEN.one()]
    assert len({key, *(q_orbit(x)[0] for x in others)}) == 1 + len(others)


def test_round_trip_dense_generic_conjugate_with_spread_valuations():
    # the q-adic valuations -4 and 5 of the eigenvalues lie far apart, and no
    # diagonal entry of the conjugate is an eigenvalue, so the roots come
    # from the Newton polygon of the char poly
    q = GEN.q()
    lams = [GEN.rational(2) * q ** -4, GEN.rational(3) * q ** 5]
    spec = JordanSpec(GEN, [(lams[0], [2]), (lams[1], [1])])
    rng = random.Random(8)
    while True:
        A = conjugate(unimodular(GEN, 3, rng), realize(spec))
        if not any(A[i, i] == lam for i in range(3) for lam in lams):
            break
    assert jordan_data(A) == spec


def test_jordan_data_walks_the_q_orbit_of_a_hint_over_q_of_q():
    # the Newton polygon of the cofactor left after the hint 1 + q offers
    # only q, which is not a root: (1 + q) q and (1 + q) q^2 are found only
    # by walking the q-orbit of 1 + q
    q = GEN.q()
    a = GEN.one() + q
    g = QMatrix.from_rational_rows(GEN, [[1, 1], [1, 2]])
    A = direct_sum(QMatrix.diagonal(GEN, [a]),
                   conjugate(g, QMatrix.diagonal(GEN, [a * q, a * q * q])))
    spec = jordan_data(A)
    assert spec == JordanSpec(GEN, [(lam, [1]) for lam in (a, a * q, a * q * q)])


def test_jordan_data_finds_hint_orbit_members_past_a_gap_over_q_of_q():
    # (1 + q) q^2 and (1 + q) q^5 are roots but (1 + q) q is not: each root
    # is found as the member of the hint's q-orbit at its own valuation
    q = GEN.q()
    a = GEN.one() + q
    g = QMatrix.from_rational_rows(GEN, [[1, 1], [1, 2]])
    A = direct_sum(QMatrix.diagonal(GEN, [a]),
                   conjugate(g, QMatrix.diagonal(GEN, [a * q ** 2, a * q ** 5])))
    spec = jordan_data(A)
    assert spec == JordanSpec(GEN, [(lam, [1]) for lam in (a, a * q ** 2, a * q ** 5)])


def test_jordan_data_finds_hint_orbit_members_past_a_gap_over_q_of_zeta5():
    # b q^2 and b q^4 are roots but b q and b q^3 are not, and no member of
    # the q-orbit of b is rational times a power of q
    C5 = FieldContext.root_of_unity(5)
    q = C5.q()
    b = C5.one() + C5.rational(2) * q
    g = QMatrix.from_rational_rows(C5, [[1, 1], [1, 2]])
    A = direct_sum(QMatrix.diagonal(C5, [b]),
                   conjugate(g, QMatrix.diagonal(C5, [b * q ** 2, b * q ** 4])))
    spec = jordan_data(A)
    assert spec == JordanSpec(C5, [(lam, [1]) for lam in (b, b * q ** 2, b * q ** 4)])


ORBIT_CONTEXTS = {"generic": GEN, "ell5": FieldContext.root_of_unity(5),
                  "ell8": FieldContext.root_of_unity(8)}


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(sorted(ORBIT_CONTEXTS)),
       st.tuples(*[st.sampled_from([1, -1, 2, Fraction(-3, 2)])] * 2),
       st.sets(st.integers(-5, 7).filter(bool), min_size=1, max_size=3),
       st.integers(0, 2 ** 16))
def test_jordan_data_recovers_every_q_orbit_member_of_a_hint(name, coords, exponents, seed):
    # b has two nonzero coordinates, so no member b q^s is a rational times
    # a power of q; b is a hint as a diagonal entry, and the exponents may
    # leave gaps in its orbit
    ctx = ORBIT_CONTEXTS[name]
    q = ctx.q()
    b = ctx.rational(coords[0]) + ctx.rational(coords[1]) * q
    if not ctx.is_generic:
        exponents = {s % ctx.ell for s in exponents} - {0}
        assume(exponents)
    members = [b * q ** s for s in sorted(exponents)]
    g = unimodular(ctx, len(members), random.Random(seed))
    A = direct_sum(QMatrix.diagonal(ctx, [b]),
                   conjugate(g, QMatrix.diagonal(ctx, members)))
    assert jordan_data(A) == JordanSpec(ctx, [(lam, [1]) for lam in [b, *members]])


def test_jordan_data_refuses_a_hull_edge_of_fractional_slope():
    # y^2 - q: the hull edge from (0, 1) to (2, 0) has slope -1/2, so no
    # monomial c q^k is a candidate and the roots +-q^(1/2) lie outside Q(q)
    q = GEN.q()
    C = QMatrix(GEN, [[GEN.zero(), q], [GEN.one(), GEN.zero()]])
    assert char_poly(C) == [-q, GEN.zero(), GEN.one()]
    with pytest.raises(EigenvaluesNotFound):
        jordan_data(C)


DIFFERENTIAL_CONTEXTS = {"ell3": C3, "ell5": FieldContext.root_of_unity(5), "generic": GEN}


@st.composite
def hidden_block_triangular(draw):
    """(spec, M): M is a symmetric permutation of a block upper triangular
    matrix whose spectrum, with its Jordan structure, is spec.

    The diagonal blocks are 1x1 blocks [a] and dense 2x2 or 3x3 blocks
    (a Jordan matrix under an L*U conjugator).  Blocks that share an
    eigenvalue, directly or through other blocks, form one group and are
    not coupled; blocks of different groups have disjoint spectra, so the
    random entries above them do not change the Jordan form."""
    name = draw(st.sampled_from(sorted(DIFFERENTIAL_CONTEXTS)))
    ctx = DIFFERENTIAL_CONTEXTS[name]
    q = ctx.q()
    pool = [ctx.zero()] + [ctx.rational(c) * q ** k
                           for c in (1, -2, Fraction(3, 2)) for k in (0, 1)]
    rng = random.Random(draw(st.integers(0, 2 ** 16)))
    pieces = []  # (matrix, [(eigenvalue, Jordan block size)])
    target = draw(st.integers(1, 7))
    while sum(M.nrows for M, _ in pieces) < target:
        size = draw(st.sampled_from((1, 1, 2, 3)))
        parts = draw(st.sampled_from({1: [(1,)], 2: [(2,), (1, 1)],
                                      3: [(3,), (2, 1), (1, 1, 1)]}[size]))
        jordan_blocks = [(draw(st.sampled_from(pool)), part) for part in parts]
        M = direct_sum(*(jordan_block(ctx, part, lam) for lam, part in jordan_blocks))
        if size > 1:
            M = conjugate(unimodular(ctx, size, rng), M)
        pieces.append((M, jordan_blocks))
    group = list(range(len(pieces)))  # union-find over shared eigenvalues

    def root(i):
        while group[i] != i:
            i = group[i]
        return i

    for i, (_, bi) in enumerate(pieces):
        for j, (_, bj) in enumerate(pieces[:i]):
            if any(x == y for x, _ in bi for y, _ in bj):
                group[root(i)] = root(j)
    order = sorted(range(len(pieces)), key=root)
    groups = [root(i) for i in order]
    pieces = [pieces[i] for i in order]
    triples, offsets = [], []
    n = 0
    for M, _ in pieces:
        offsets.append(n)
        triples += [(n + r, n + c, x) for r, c, x in M.nonzeros()]
        n += M.nrows
    for i, (Mi, _) in enumerate(pieces):
        for j, (Mj, _) in enumerate(pieces[i + 1:], i + 1):
            if groups[i] != groups[j]:
                triples += [(offsets[i] + r, offsets[j] + c,
                             ctx.rational(rng.choice((-1, 0, 1, 2))))
                            for r in range(Mi.nrows) for c in range(Mj.nrows)]
    perm = list(range(n))
    rng.shuffle(perm)
    hidden = QMatrix.sparse(ctx, n, n, [(perm[r], perm[c], x) for r, c, x in triples])
    spec = {}
    for _, jordan_blocks in pieces:
        for lam, part in jordan_blocks:
            spec.setdefault(lam, []).append(part)
    return JordanSpec(ctx, [(lam, sorted(parts, reverse=True))
                            for lam, parts in spec.items()]), hidden


@settings(max_examples=60, deadline=None)
@given(hidden_block_triangular())
def test_block_triangular_spectra_match_the_whole_matrix(case):
    spec, A = case
    assert char_poly(A) == list(matrices._faddeev_leverrier(A))
    assert jordan_data(A) == spec


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(sorted(DIFFERENTIAL_CONTEXTS)),
       st.lists(st.tuples(st.sampled_from([0, 1, -2, Fraction(3, 2)]), st.integers(0, 2),
                          st.sampled_from([(1,), (2,), (1, 1), (2, 1), (3,)])),
                min_size=1, max_size=3),
       st.randoms(use_true_random=False))
def test_realized_specs_under_a_permutation_match_the_whole_matrix(name, blocks, rng):
    ctx = DIFFERENTIAL_CONTEXTS[name]
    spec_blocks = {}
    for c, k, part in blocks:
        lam = ctx.zero() if c == 0 else ctx.rational(c) * ctx.q() ** k
        spec_blocks.setdefault(lam, part)
    spec = JordanSpec(ctx, spec_blocks.items())
    A = realize(spec)
    perm = list(range(A.nrows))
    rng.shuffle(perm)
    hidden = QMatrix.sparse(ctx, A.nrows, A.nrows,
                            [(perm[r], perm[c], x) for r, c, x in A.nonzeros()])
    assert char_poly(hidden) == list(matrices._faddeev_leverrier(hidden))
    assert jordan_data(hidden) == spec


def _partial_spectra():
    # the Q(q) companion of (y - (1 + q))(y - (2 + q^2)): neither root is a
    # rational times a power of q
    q, one = GEN.q(), GEN.one()
    r1, r2 = one + q, GEN.rational(2) + q * q
    companion = QMatrix(GEN, [[GEN.zero(), -(r1 * r2)], [one, r1 + r2]])
    # over Q(zeta_3): the 2x2 block [[0, 2], [1, 0]] has char poly y^2 - 2,
    # and 3 sits in a 1x1 block below it
    c3 = QMatrix.from_rational_rows(C3, [[0, 2, 5], [1, 0, 7], [0, 0, 3]])
    return [(companion, 0, 2), (c3, 1, 3),
            (direct_sum(companion, jordan_block(GEN, 2, one)), 2, 4)]


@pytest.mark.parametrize("case", range(3), ids=["qq_companion", "ell3_triangular",
                                                 "companion_plus_J2"])
def test_jordan_data_reports_how_much_of_a_partial_spectrum_it_resolved(case):
    A, covered, n = _partial_spectra()[case]
    with pytest.raises(EigenvaluesNotFound) as err:
        jordan_data(A)
    assert str(err.value) == (
        f"only {covered} of {n} dimensions of the spectrum were resolved in the field")


def test_jordan_block_is_the_block_jordan_of_multiplicity_one():
    for ctx in (C3, GEN):
        for lam in (ctx.zero(), ctx.one(), ctx.rational(3) * ctx.q()):
            for size in range(5):
                assert jordan_block(ctx, size, lam) == block_jordan(ctx, size, 1, lam)


def test_jordan_data_runs_no_gcd_over_the_field(monkeypatch):
    # the n = 5 Q(q) spectrum whose squarefree part once took seconds of
    # Euclid over Q(q): deflating the char poly needs no gcd of polynomials
    # with QScalar coefficients (the Z[q] gcds inside Q(q) scalars stay)
    integer_gcd = poly.primitive_gcd

    def no_scalar_gcd(a, b):
        if any(isinstance(c, QScalar) for c in (*a, *b)):
            raise AssertionError("gcd over QScalar coefficients")
        return integer_gcd(a, b)

    monkeypatch.setattr(poly, "primitive_gcd", no_scalar_gcd)
    eight_sevenths = GEN.rational(Fraction(8, 7))
    lams = [GEN.rational(Fraction(3, 2)), GEN.rational(Fraction(5, 2)), GEN.one(),
            eight_sevenths, eight_sevenths / GEN.q()]
    spec = JordanSpec(GEN, [(lam, [1]) for lam in lams])
    A = QMatrix.diagonal(GEN, lams)
    assert jordan_data(A) == spec
    assert jordan_data(conjugate(unimodular(GEN, 5, random.Random(5)), A)) == spec


@pytest.mark.parametrize("ctx", [C3, FieldContext.root_of_unity(5), GEN],
                         ids=["ell3", "ell5", "generic"])
def test_round_trip_dense_conjugates_with_repeated_eigenvalues(ctx):
    # every eigenvalue repeats or sits next to another in its q-orbit, and
    # no diagonal entry of the conjugate is an eigenvalue, so the roots and
    # their multiplicities come from deflation alone
    rng = random.Random(6)
    q = ctx.q()
    zero = ctx.zero()
    for partition, extra in (((3, 1), [(1, (1,))]),
                             ((2, 2), [(None, (1,))]),
                             ((2, 1, 1), [(-1, (1,)), (None, (1,))])):
        base = ctx.rational(rng.choice((2, 3, Fraction(-3, 2))))
        blocks = [(base, partition)]
        for k, part in extra:  # k: q-orbit neighbour base*q^k, or None: zero
            blocks.append((zero if k is None else base * q ** k, part))
        spec = JordanSpec(ctx, blocks)
        eigenvalues = [lam for lam, _ in spec.blocks]
        while True:
            A = conjugate(unimodular(ctx, spec.size, rng), realize(spec))
            if not any(A[i, i] == lam for i in range(A.nrows) for lam in eigenvalues):
                break
        assert jordan_data(A) == spec


def test_round_trip_random_specs():
    rng = random.Random(3)
    for trial in range(20):
        ell = rng.choice([2, 3, 4])
        ctx = FieldContext.root_of_unity(ell)
        q = ctx.q()
        base = ctx.rational(rng.randint(1, 5))
        blocks = []
        total = 0
        for k in range(ell):
            if rng.random() < 0.5:
                continue
            parts = sorted((rng.randint(1, 2) for _ in range(rng.randint(1, 2))),
                           reverse=True)
            eigenvalue = base * q ** k
            blocks.append((eigenvalue, parts))
            total += sum(parts)
        if not blocks or total > 8:
            continue
        spec = JordanSpec(ctx, blocks)
        assert jordan_data(realize(spec)) == spec


@pytest.mark.parametrize("call, error, message", [
    (lambda: jordan.rational_roots(()), ValueError, "rational_roots needs a nonzero polynomial"),
    (lambda: jordan.rational_roots((0, 0)), ValueError,
     "rational_roots needs a nonzero polynomial"),
    (lambda: jordan_data(QMatrix.zero(C3, 2, 3)), NotSquare,
     "jordan_data needs a square matrix"),
])
def test_jordan_calls_raise_their_documented_errors(call, error, message):
    with pytest.raises(error, match=message):
        call()
