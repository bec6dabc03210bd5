"""GIT-quotient bookkeeping: closed-orbit indices, trace invariants, and
semisimplification.

Closed orbits in the quotient are labeled by triples (p, m, r) with
ell*p + m + r = n: p full-cycle summands, m one-dimensional (a, 0) summands
and r one-dimensional (0, b) summands.  The invariant ring is generated by
the traces of words A^i B^j, so equality of trace fingerprints certifies
that two pairs map to the same quotient point.
"""

from dataclasses import dataclass

from .commutant import MatrixPair
from .components import ComponentIndex, _norm
from .errors import BadIndex, UnsupportedShape
from .matrices import QMatrix, _trace_of_product, diagonal_blocks
from .scalars import INFINITE, _order


@dataclass(frozen=True)
class GitIndex:
    """Type (p, m, r) of a closed orbit; ell*p + m + r = n in context."""

    p: int
    m: int
    r: int

    def __post_init__(self):
        if any(type(v) is not int or v < 0 for v in (self.p, self.m, self.r)):
            raise BadIndex("closed-orbit type entries must be nonnegative ints")

    def size(self, ell) -> int:
        ell = _order(ell)
        if ell is INFINITE:
            if self.p:
                raise BadIndex("full-cycle summands need a root of unity")
            return self.m + self.r
        return ell * self.p + self.m + self.r


def enumerate_TPL(ell, n: int):
    """All valid (p, m, r) with ell*p + m + r = n.

    At ell = 1 the three summand kinds coincide and the only type is
    (n, 0, 0); in the infinite regime p is forced to zero.
    """
    if n < 0:
        raise BadIndex("n must be nonnegative")
    ell = _order(ell)
    if ell is INFINITE:
        return [GitIndex(0, m, n - m) for m in range(n, -1, -1)]
    if ell == 1:
        return [GitIndex(n, 0, 0)]
    out = []
    for p in range(n // ell, -1, -1):
        rest = n - ell * p
        for m in range(rest, -1, -1):
            out.append(GitIndex(p, m, rest - m))
    return out


def count_TPL(ell, n: int) -> int:
    """len(enumerate_TPL(ell, n)) in closed form: with P = n // ell, the
    types number sum over p <= P of (n - ell p + 1)."""
    if n < 0:
        raise BadIndex("n must be nonnegative")
    ell = _order(ell)
    if ell is INFINITE:
        return n + 1
    if ell == 1:
        return 1
    top = n // ell
    return (top + 1) * (n + 1) - ell * top * (top + 1) // 2


def dim_git(idx: GitIndex, ell, n: int) -> int:
    """Dimension of the closed-orbit family of type idx inside size n."""
    ell = _order(ell)
    if idx.size(ell) != n:
        raise BadIndex(f"type {idx} does not have size {n}")
    if ell is INFINITE:
        return n
    return n + (2 - ell) * idx.p


def git_index_of_stratum(idx: ComponentIndex) -> GitIndex:
    """Closed-orbit type of the semisimplification of a generic stratum point.

    Full-cycle summands survive; every other dense summand of size i breaks
    into i one-dimensional (a, 0) pieces and every nilpotent-kind summand of
    size j into j pieces (0, b).
    """
    m = idx.m if idx.ell is INFINITE else idx.m[:idx.ell - 1]
    return GitIndex(idx.m_top, _norm(m), _norm(idx.r))


# ---------------------------------------------------------------------------
# Trace fingerprints
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TraceFingerprint:
    """Grid of Tr(A^i B^j) for 0 <= i, j <= max_degree."""

    max_degree: int
    grid: tuple


def _powers(X: QMatrix, top: int):
    """[None, X, X^2, ..., X^top], with X itself at index 1 even when top < 1."""
    pows = [None, X]
    while len(pows) <= top:
        pows.append(pows[-1] * X)
    return pows


def _block_traces(A: QMatrix, B: QMatrix, N: int, lattice):
    """(i, j, Tr(A^i B^j)) on the axes (exactly one of i, j zero, the other
    at most N) and at the lattice points, from the powers of A and B."""
    a_pows = _powers(A, N)
    b_pows = _powers(B, N)
    for k in range(1, N + 1):
        yield k, 0, a_pows[k].trace()
        yield 0, k, b_pows[k].trace()
    for i, js in lattice.items():
        nonzeros = a_pows[i].nonzeros()
        for j in js:
            yield i, j, _trace_of_product(nonzeros, b_pows[j])


def _scalar_traces(a, b, N: int, lattice):
    """(i, j, a^i b^j) for a 1x1 block (a, b), on the cells where it is not
    zero: the axes of a nonzero a or b, and the lattice points when both are
    nonzero, which a b = q b a allows only at q = 1."""
    a_pows = [a]
    b_pows = [b]
    for _ in range(1, N):
        if a:
            a_pows.append(a_pows[-1] * a)
        if b:
            b_pows.append(b_pows[-1] * b)
    if a:
        for i in range(1, N + 1):
            yield i, 0, a_pows[i - 1]
    if b:
        for j in range(1, N + 1):
            yield 0, j, b_pows[j - 1]
    if a and b:
        for i, js in lattice.items():
            for j in js:
                yield i, j, a_pows[i - 1] * b_pows[j - 1]


def trace_fingerprint(pair: MatrixPair, N=None) -> TraceFingerprint:
    """Exact grid of Tr(A^i B^j), 0 <= i, j <= N (default N = n).

    Conjugation-invariant; shared by a pair and its semisimplification.
    Row 0 and column 0 are the traces of the powers of B and of A.  Off
    the axes only the entries with q^(ij) = 1 are computed, that is those
    with ell | i*j (every one at ell = 1, none at ell = inf); the rest are
    exact zeros, since A^i B^j = q^(ij) B^j A^i and Tr(XY) = Tr(YX) give
    (1 - q^(ij)) Tr(A^i B^j) = 0.

    In the order of ``diagonal_blocks(A, B)`` both matrices are block upper
    triangular with one partition, so every trace is the sum of the traces
    on the diagonal blocks: a 1x1 block contributes powers of its two
    entries, a larger one the traces of its principal submatrices' powers.
    """
    if N is None:
        N = pair.size
    if N < 0:
        raise BadIndex("the degree bound must be nonnegative")
    ctx = pair.ctx
    lattice = {}  # i >= 1 -> the j >= 1 with q^(ij) = 1
    if not ctx.is_generic:
        for i in range(1, N + 1):
            js = [j for j in range(1, N + 1) if i * j % ctx.ell == 0]
            if js:
                lattice[i] = js
    A, B = pair.A, pair.B
    sums = {(0, 0): ctx.rational(pair.size)}
    for block in diagonal_blocks(A, B):
        if len(block) == 1:
            k = block[0]
            terms = _scalar_traces(A[k, k], B[k, k], N, lattice)
        else:
            terms = _block_traces(A.submatrix(block, block), B.submatrix(block, block),
                                  N, lattice)
        for i, j, t in terms:
            s = sums.get((i, j))
            sums[i, j] = t if s is None else s + t
    zero = ctx.zero()
    grid = tuple(tuple(sums.get((i, j), zero) for j in range(N + 1)) for i in range(N + 1))
    return TraceFingerprint(N, grid)


# ---------------------------------------------------------------------------
# Semisimplification
# ---------------------------------------------------------------------------

def _weighted_cycle(diagonal, cycle, size) -> bool:
    """Whether one matrix's nonzeros on a block of this size lie on its
    diagonal and the other's are one in each of its rows and columns."""
    return all(i == j for i, j, _ in diagonal) and len(cycle) == size \
        == len({i for i, _, _ in cycle}) == len({j for _, j, _ in cycle})


def semisimplify(pair: MatrixPair) -> MatrixPair:
    """Closed-orbit representative: the direct sum of the pair's composition
    factors (Artin, J. Algebra 1969).

    In the order of ``diagonal_blocks(A, B)`` both matrices are block upper
    triangular with one partition, so the factors are those of the diagonal
    blocks, each kept as its principal submatrices at its own indices.  A
    1x1 block is simple.  A larger block needs one matrix diagonal on it and
    the other a single weighted cycle (strong connectivity makes one nonzero
    per row and column one cycle), whose power to the cycle's length is a
    nonzero scalar, so the block is semisimple; any other block raises
    UnsupportedShape.  Idempotent, and the trace fingerprint is kept.
    """
    ctx, n = pair.ctx, pair.size
    A, B = pair.A, pair.B
    block_of = [0] * n
    for k, block in enumerate(diagonal_blocks(A, B)):
        for i in block:
            block_of[i] = k
        if len(block) > 1:
            a, b = A.submatrix(block, block).nonzeros(), B.submatrix(block, block).nonzeros()
            if not (_weighted_cycle(a, b, len(block)) or _weighted_cycle(b, a, len(block))):
                raise UnsupportedShape("a diagonal block is neither 1x1 nor a weighted cycle")

    def within_blocks(M):
        return QMatrix.sparse(ctx, n, n, [(i, j, x) for i, j, x in M.nonzeros()
                                          if block_of[i] == block_of[j]])

    return MatrixPair(within_blocks(A), within_blocks(B))
