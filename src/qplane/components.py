"""Component indices: enumeration, dimension formulas, theta, and samplers.

A component of the module variety is labeled by a pair of count vectors
(m, r): m_i counts blocks of the dense "diagonalizable A" kind with size i
(the last slot, at a root of unity, counting the extra full-cycle kind) and
r_j counts blocks of the "nilpotent A" kind with size j.  The label is
constrained by ||m|| + ||r|| = n where ||v|| weights a count by its size.
"""

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import zip_longest

from .commutant import MatrixPair, q_layered, sylvester_operator
from .errors import BadIndex, DegeneratePoint
from .jordan import jordan_block
from .matrices import QMatrix, direct_sum, rank
from .poly import trim
from .scalars import FieldContext, INFINITE, _order, q_orbit, substitute_q_inverse
from .chains import _partition_table


def _norm(counts) -> int:
    return sum((i + 1) * c for i, c in enumerate(counts))


@dataclass(frozen=True)
class ComponentIndex:
    """Label (m, r) of one irreducible component at a fixed q-regime.

    ell is a positive integer or INFINITE.  For finite ell the vectors are
    dense: m has length ell and r has length ell - 1 (shorter input is
    zero-padded).  For the infinite regime both are stored trimmed of
    trailing zeros.
    """

    ell: object
    m: tuple
    r: tuple

    def __init__(self, ell, m=(), r=()):
        m, r = tuple(m), tuple(r)
        if any(type(c) is not int or c < 0 for c in m + r):
            raise BadIndex("block counts must be nonnegative ints")
        ell = _order(ell)
        if ell is INFINITE:
            m, r = trim(m), trim(r)
        else:
            if len(m) > ell or len(r) > ell - 1:
                raise BadIndex(
                    f"count vectors too long for order {ell}: "
                    f"|m|={len(m)}, |r|={len(r)}"
                )
            m = m + (0,) * (ell - len(m))
            r = r + (0,) * (ell - 1 - len(r))
        object.__setattr__(self, "ell", ell)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "r", r)

    @property
    def n(self) -> int:
        return _norm(self.m) + _norm(self.r)

    @property
    def m_top(self) -> int:
        """The full-cycle block count m_ell (zero in the infinite regime)."""
        if self.ell is INFINITE:
            return 0
        return self.m[self.ell - 1]

    def __add__(self, other: "ComponentIndex") -> "ComponentIndex":
        if not isinstance(other, ComponentIndex) or other.ell != self.ell:
            return NotImplemented
        m = tuple(map(sum, zip_longest(self.m, other.m, fillvalue=0)))
        r = tuple(map(sum, zip_longest(self.r, other.r, fillvalue=0)))
        return ComponentIndex(self.ell, m, r)


def _count_vectors(total: int, max_part: int):
    """All count tuples (c_1..c_max_part) with sum of i*c_i = total.

    Yields tuples of length max_part in a deterministic order (multiplicity
    of the largest part ascending, then recursively).
    """
    if max_part == 0:
        if total == 0:
            yield ()
        return
    if max_part == 1:
        yield (total,)
        return
    for top in range(total // max_part + 1):
        for rest in _count_vectors(total - top * max_part, max_part - 1):
            yield rest + (top,)


def enumerate_ML(ell, n: int):
    """All component indices (m, r) with ||m|| + ||r|| = n, duplicate-free."""
    if n < 0:
        raise BadIndex("n must be nonnegative")
    ell = _order(ell)
    if ell == 1:  # r is empty, so m = (n,) is the only index
        return [ComponentIndex(1, (n,), ())]
    out = []
    for j in range(n, -1, -1):
        # min(INFINITE, j) is the int j: no part-size cap when q has infinite order
        for m in _count_vectors(j, min(ell, j)):
            for r in _count_vectors(n - j, min(ell - 1, n - j)):
                out.append(ComponentIndex(ell, m, r))
    return out


def count_ML(ell, n: int) -> int:
    """Closed-form component count: sum of p_{ell-1}(i) * p_ell(j), i+j = n."""
    if n < 0:
        raise BadIndex("n must be nonnegative")
    ell = _order(ell)
    if ell == 1:
        return 1
    if ell is INFINITE:
        left = right = _partition_table(n, n)
    else:
        left, right = _partition_table(ell - 1, n), _partition_table(ell, n)
    return sum(left[i] * right[n - i] for i in range(n + 1))


def dim_component(idx: ComponentIndex) -> int:
    """Dimension of the component: n^2 + m_ell, or n^2 when q is not a root of unity."""
    n = idx.n
    return n * n + idx.m_top


def dim_component_via_CBS(idx: ComponentIndex) -> int:
    """Same dimension, recomputed from per-block dimensions and cross-terms.

    Each generator block of size s contributes its own stratum dimension
    (s^2, except the full-cycle kind which has s^2 + 1), plus n_i * n_j for
    every ordered pair of distinct blocks; the Hom correction terms vanish
    at generic points, so they are omitted.
    """
    ell = idx.ell
    sizes = []
    dims = []
    for i, c in enumerate(idx.m):
        size = i + 1
        block_dim = size * size
        if size == ell:
            block_dim += 1
        for _ in range(c):
            sizes.append(size)
            dims.append(block_dim)
    for j, c in enumerate(idx.r):
        size = j + 1
        for _ in range(c):
            sizes.append(size)
            dims.append(size * size)
    n = sum(sizes)
    cross = n * n - sum(s * s for s in sizes)
    return sum(dims) + cross


def theta_index(idx: ComponentIndex) -> ComponentIndex:
    """The switch (m, r) -> ((r_1..r_{ell-1}, m_ell), (m_1..m_{ell-1})).

    In the infinite regime there is no full-cycle slot and the two vectors
    simply trade places.  Involutive.
    """
    if idx.ell is INFINITE:
        return ComponentIndex(INFINITE, idx.r, idx.m)
    ell = idx.ell
    new_m = idx.r + (idx.m[ell - 1],)
    new_r = idx.m[:ell - 1]
    return ComponentIndex(ell, new_m, new_r)


def theta_point(pair: MatrixPair) -> MatrixPair:
    """The point-level switch: (A, B) -> (B, A) transported along q -> 1/q.

    Swapping alone satisfies the inverted relation BA = (1/q)AB; applying
    the q -> 1/q substitution entrywise brings the result back into the
    original context, where it satisfies the standard relation again.
    """
    new_a = pair.B.map_entries(substitute_q_inverse)
    new_b = pair.A.map_entries(substitute_q_inverse)
    return MatrixPair(new_a, new_b)


# ---------------------------------------------------------------------------
# Random sampling of generic stratum points
# ---------------------------------------------------------------------------

class _RationalPool:
    """Seeded source of positive rationals, pairwise non-q-equivalent.

    Base values (eigenvalue seeds of the summands) are drawn with rejection
    so that no two share a q-orbit; filler values are merely nonzero.  Draws
    are num/den with 1 <= num, den <= 9, 55 distinct positive rationals,
    no two q-equivalent; once bases have used all 55, further bases are
    drawn with num, den up to the number of bases drawn, which leaves each
    rejection below one in five.
    """

    def __init__(self, ctx, seed):
        self.ctx = ctx
        self.rng = random.Random(seed)
        self.orbits = set()  # the q-orbit keys of the bases drawn so far

    def filler(self, top=9):
        num = self.rng.randint(1, top)
        den = self.rng.randint(1, top)
        return self.ctx.rational(Fraction(num, den))

    def base(self):
        top = 9 if len(self.orbits) < 55 else len(self.orbits)
        while True:
            cand = self.filler(top)
            key = q_orbit(cand)[0]
            if key not in self.orbits:
                self.orbits.add(key)
                return cand


def _u_block(ctx, size, pool):
    """One dense-kind summand: A = diag(a, a/q, ...), B strictly upper cyclic.

    At size == ell (finite order only) B gains the wraparound corner entry;
    it is chosen as beta^ell divided by the superdiagonal product so that
    the spectrum of B is {beta q^k}, rational times a root of unity, and
    stays inside the coefficient field.
    """
    a = pool.base()
    qinv = ctx.q_power(-1)
    diag = []
    cur = a
    for _ in range(size):
        diag.append(cur)
        cur = cur * qinv
    A = QMatrix.diagonal(ctx, diag)
    supers = [pool.filler() for _ in range(size - 1)]
    entries = [(k, k + 1, b) for k, b in enumerate(supers)]
    if size == ctx.ell:
        beta = pool.base()
        prod = ctx.one()
        for b in supers:
            prod = prod * b
        entries.append((size - 1, 0, (beta ** size) / prod))
    return A, QMatrix.sparse(ctx, size, size, entries)


def _v_block(ctx, size, pool):
    """One nilpotent-kind summand: A = J_size(0), B layered with b_1 a base."""
    A = jordan_block(ctx, size, ctx.zero())
    v = [pool.base()] + [pool.filler() for _ in range(size - 1)]
    B = q_layered(size, size, v, ctx=ctx)
    return A, B


def sample_point(idx: ComponentIndex, seed=0) -> MatrixPair:
    """A generic point of the dense stratum of the component idx.

    Block-diagonal direct sum of m_i dense-kind and r_j nilpotent-kind
    summands, with all eigenvalue bases pairwise non-q-equivalent.  The
    result is deterministic in (idx, seed) and satisfies AB = qBA exactly.
    """
    ctx = FieldContext.for_order(idx.ell)
    pool = _RationalPool(ctx, seed)
    a_blocks = []
    b_blocks = []
    for i, c in enumerate(idx.m):
        for _ in range(c):
            A, B = _u_block(ctx, i + 1, pool)
            a_blocks.append(A)
            b_blocks.append(B)
    for j, c in enumerate(idx.r):
        for _ in range(c):
            A, B = _v_block(ctx, j + 1, pool)
            a_blocks.append(A)
            b_blocks.append(B)
    if not a_blocks:
        return MatrixPair(QMatrix.zero(ctx, 0, 0), QMatrix.zero(ctx, 0, 0))
    return MatrixPair(direct_sum(*a_blocks), direct_sum(*b_blocks))


# ---------------------------------------------------------------------------
# Jacobian rank of the stratum parametrizations
# ---------------------------------------------------------------------------

def _jacobian_rank_once(kind, size, ctx, rng) -> int:
    pool = _RationalPool(ctx, rng.randint(0, 2 ** 30))
    if kind == "D":
        A, B = _u_block(ctx, size, pool)
    else:
        A, B = _v_block(ctx, size, pool)
    # The map (g, theta) -> (g A(theta) g^-1, g B(theta) g^-1) is
    # GL_n-equivariant: its differential at (g, theta) is the one at
    # (1, theta) followed by the invertible X -> g X g^-1, so the rank does
    # not depend on g and is taken at g = 1.
    zero = ctx.zero()
    one = ctx.one()
    dim = size * size
    # conjugation directions: d/dt of exp(tY) X exp(-tY) = [Y, X]; row Y is
    # -(A Y - Y A, B Y - Y B), the negated column Y of the stacked
    # operators, and the sign does not change the rank
    entries = [(c, r, x) for r, c, x in sylvester_operator(A, A, one).nonzeros()]
    entries += [(c, dim + r, x) for r, c, x in sylvester_operator(B, B, one).nonzeros()]
    if kind == "D":
        # the A-scale direction: A = a * diag(1, 1/q, ...), so dA/da = A / a,
        # a nonzero multiple of A itself
        entries += [(dim, r * size + c, x) for r, c, x in A.nonzeros()]
        positions = [(k, k + 1) for k in range(size - 1)]
        if size == ctx.ell:
            positions.append((size - 1, 0))
        entries += [(dim + 1 + k, dim + rr * size + cc, one)
                    for k, (rr, cc) in enumerate(positions)]
        nrows = dim + 1 + len(positions)
    else:
        for k in range(size):
            e = [zero] * size
            e[k] = one
            Lk = q_layered(size, size, e, ctx=ctx)
            entries += [(dim + k, dim + r * size + c, x) for r, c, x in Lk.nonzeros()]
        nrows = dim + size
    return rank(QMatrix.sparse(ctx, nrows, 2 * dim, entries))


def parametrization_jacobian_rank(kind: str, i: int, ell, seed=0) -> int:
    """Exact rank of the stratum parametrization differential at a random point.

    kind "D" covers the dense strata (expected rank i^2, or ell^2 + 1 for
    the full-cycle stratum); kind "N" the nilpotent strata (expected i^2).
    The point is random in theta only: the conjugator is the identity,
    since the parametrization is GL_n-equivariant and its rank is the same
    at every conjugator.  Resamples a few times if an unlucky point
    underperforms and raises DegeneratePoint if the rank stays below the
    expected value.
    """
    if kind not in ("D", "N"):
        raise ValueError("kind must be 'D' or 'N'")
    ell = _order(ell)
    if i < 1:
        raise BadIndex("block size must be at least 1")
    if kind == "D" and i > ell:
        raise BadIndex("dense strata have size at most ell")
    if kind == "N" and i > ell - 1:
        raise BadIndex("nilpotent strata have size at most ell - 1")
    ctx = FieldContext.for_order(ell)
    expected = i * i
    if kind == "D" and i == ell:
        expected += 1
    rng = random.Random(seed)
    best = -1
    for _ in range(4):
        got = _jacobian_rank_once(kind, i, ctx, rng)
        best = max(best, got)
        if best >= expected:
            return best
    raise DegeneratePoint(
        f"rank stayed at {best}, expected {expected}; try another seed"
    )
