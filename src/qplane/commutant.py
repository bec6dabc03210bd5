"""q-commutant spaces, q-layered matrices, and Hom/Ext of q-commuting pairs.

For a fixed square A, the q-commutant is the space of all B with AB = qBA.
Its dimension is governed by the Jordan structure of A: a single Jordan pair
J_m(a1), J_n(a2) admits a nonzero solution only when a1 = q*a2, and then the
solution space is the min(m,n)-parameter family of q-layered matrices built
by ``q_layered``.  The same elimination machinery computes Hom and Ext groups
between two q-commuting pairs via an explicit length-2 complex.
"""

from dataclasses import dataclass
from fractions import Fraction

from .errors import (DimensionMismatch, LengthMismatch, MixedContext, NotSquare,
                     RelationViolated)
from .matrices import QMatrix, _check_entry, _echelon, _row_sums, rank
from .scalars import QScalar, _q_times


@dataclass(frozen=True)
class MatrixPair:
    """A pair of n x n matrices with AB = qBA, checked at construction.

    Over Q(zeta_ell) the check forms no product: row by row, each entry of
    AB - qBA is one unreduced sum over one denominator, q a shift by one,
    reduced mod Phi_ell once and tested for zero.  Over Q(q) it compares AB
    with qBA entry by entry, q times an entry of BA a shift, with no gcd."""

    A: QMatrix
    B: QMatrix
    ctx: object

    def __init__(self, A: QMatrix, B: QMatrix):
        if A.ctx is not B.ctx:
            raise MixedContext("A and B live in different field contexts")
        if A.nrows != A.ncols or B.nrows != B.ncols:
            raise NotSquare("matrix pair entries must be square")
        if A.nrows != B.nrows:
            raise DimensionMismatch(
                f"sizes differ: {A.nrows} vs {B.nrows}"
            )
        ctx = A.ctx
        if ctx.is_generic:
            holds = all(r.keys() == s.keys() and all(x == _q_times(s[c]) for c, x in r.items())
                        for r, s in zip((A * B)._rows, (B * A)._rows))
        else:
            holds = not any(any(ctx._reduce(acc)) for a, b in zip(A._rows, B._rows) for acc, _
                            in _row_sums(ctx, (a, B._rows, 0, 1), (b, A._rows, 1, -1)).values())
        if not holds:
            raise RelationViolated("AB = qBA fails for this pair")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B", B)
        object.__setattr__(self, "ctx", A.ctx)

    @property
    def size(self) -> int:
        return self.A.nrows


def q_layered(m: int, n: int, v, ctx=None) -> QMatrix:
    """The m x n q-layered matrix with layer vector v, |v| = min(m, n).

    Row 1 carries v_1..v_min in the last min(m, n) columns; each later row is
    the previous one shifted right one column and scaled by q.  The output L
    satisfies J_m(a) L = q L J_n(a/q) for every eigenvalue a.
    """
    if m < 0 or n < 0:
        raise ValueError("matrix sides must be nonnegative")
    v = list(v)
    low = min(m, n)
    if len(v) != low:
        raise LengthMismatch(f"layer vector needs length {low}, got {len(v)}")
    if ctx is None:
        if not v:
            raise ValueError("cannot infer the context from an empty vector")
        ctx = v[0].ctx
    for x in v:
        if not isinstance(x, QScalar) or x.ctx is not ctx:
            raise MixedContext("layer vector entries must share one context")
    q = ctx.q()
    entries = []
    scale = ctx.one()
    for i in range(low):
        entries.extend((i, n - low + i + k, v[k] * scale) for k in range(low - i))
        scale = scale * q
    return QMatrix.sparse(ctx, m, n, entries)


def sylvester_operator(L: QMatrix, R: QMatrix, c) -> QMatrix:
    """Matrix of X -> L X - c X R on m x n matrices X, flattened row-major.

    L is m x m, R is n x n and c a scalar (an int or Fraction is taken into
    the field).  Entry ((i, j), (r, s)) is L[i][r] [j = s] - c R[s][j] [i = r],
    so row (i, j) is L's row i spread over the columns (r, j) and column j of
    -c R over the columns (i, s).  The two meet only at the column (i, j),
    the one sum taken, and dropped when it is zero.  Each row is built in
    column order, without matrix products.
    """
    if not (L.is_square() and R.is_square()):
        raise NotSquare("X -> L X - c X R needs square L and R")
    ctx = L.ctx
    if R.ctx is not ctx:
        raise MixedContext("L and R live in different field contexts")
    if isinstance(c, (int, Fraction)):
        c = ctx.rational(c)
    _check_entry(ctx, c)
    m, n = L.nrows, R.nrows
    neg = -c
    # column j of -c R: its (s, value) pairs above and below the diagonal, s
    # ascending, and its diagonal value or None
    above, on, below = [[] for _ in range(n)], [None] * n, [[] for _ in range(n)]
    for s, row in enumerate(R._rows):
        for j, b in row.items():
            if s < j:
                above[j].append((s, neg * b))
            elif s > j:
                below[j].append((s, neg * b))
            else:
                on[j] = neg * b
    rows = []
    for i, left in enumerate(L._rows):
        low = [(r * n, a) for r, a in left.items() if r < i]
        high = [(r * n, a) for r, a in left.items() if r > i]
        diag, base = left.get(i), i * n
        for j, (head, at, tail) in enumerate(zip(above, on, below)):
            row = {r + j: a for r, a in low}
            for s, b in head:
                row[base + s] = b
            meet = at if diag is None else diag if at is None else diag + at
            if meet is not None and meet:
                row[base + j] = meet
            for s, b in tail:
                row[base + s] = b
            for r, a in high:
                row[r + j] = a
            rows.append(row)
    return QMatrix._wrap(ctx, rows, m * n)


def _unflatten(ctx, vec, nrows, ncols) -> QMatrix:
    """The nrows x ncols matrix of a sparse row-major vector, as from
    ``matrices._kernel_of``: entry j goes to divmod(j, ncols)."""
    rows = [{} for _ in range(nrows)]
    for j, x in vec.items():
        i, c = divmod(j, ncols)
        rows[i][c] = x
    return QMatrix._wrap(ctx, rows, ncols)


def qcommutant_basis(A: QMatrix):
    """Basis of {B : AB = qBA} as a list of n x n matrices.

    Computed as the exact kernel of the n^2 x n^2 operator X -> AX - qXA,
    matrices flattened row-major; the basis order is that of the reduced
    row echelon form, one element per free column.
    """
    if A.nrows != A.ncols:
        raise NotSquare("the q-commutant is defined for square matrices")
    n = A.nrows
    if n == 0:
        return []
    op = sylvester_operator(A, A, A.ctx.q())
    return [_unflatten(A.ctx, vec, n, n) for vec in _echelon(op, True)[1]]


def predicted_commutant_dim(spec) -> int:
    """Commutant dimension read off a Jordan spec without elimination.

    Sums min(m_i, m_j) over ordered Jordan block pairs whose eigenvalues
    satisfy a_i = q * a_j; equals len(qcommutant_basis(realize(spec))).
    """
    q = spec.ctx.q()
    blocks = list(spec.single_blocks())
    total = 0
    for a_i, m_i in blocks:
        for a_j, m_j in blocks:
            if a_i == q * a_j:
                total += min(m_i, m_j)
    return total


@dataclass(frozen=True)
class HomExtReport:
    """Dimensions of Hom, Ext^1, Ext^2 between two q-commuting pairs."""

    hom_dim: int
    ext1_dim: int
    ext2_dim: int
    hom_basis: tuple


def hom_ext(M1: MatrixPair, M2: MatrixPair) -> HomExtReport:
    """Hom and Ext dimensions between module pairs M1 and M2.

    Uses the length-2 complex on n2 x n1 matrices:

        d0(F) = (F A1 - A2 F,  F B1 - B2 F)
        d1(G, H) = G B1 - q B2 G + A2 H - q H A1

    hom = dim ker d0, ext1 = dim ker d1 - rank d0, ext2 = n1 n2 - rank d1.
    The alternating sum of the three dimensions is zero by rank-nullity.
    """
    if M1.ctx is not M2.ctx:
        raise MixedContext("pairs live in different field contexts")
    ctx = M1.ctx
    q = ctx.q()
    A1, B1 = M1.A, M1.B
    A2, B2 = M2.A, M2.B
    n1, n2 = M1.size, M2.size
    dim = n1 * n2
    if dim == 0:
        return HomExtReport(0, 0, 0, ())

    # d0 is built as (A2 F - F A1, B2 F - F B1), the negative of each block,
    # and the G block of d1 as B2 G - q^-1 G B1, the one above times -1/q:
    # neither changes the kernel of d0 or the rank of d1
    one = ctx.one()
    SA, SB = sylvester_operator(A2, A1, one), sylvester_operator(B2, B1, one)
    d0 = QMatrix._wrap(ctx, SA._rows + SB._rows, dim)
    G = sylvester_operator(B2, B1, q.inverse())
    H = sylvester_operator(A2, A1, q)
    d1 = QMatrix._wrap(ctx, [{**g, **{dim + c: x for c, x in h.items()}}
                             for g, h in zip(G._rows, H._rows)], 2 * dim)
    hom_vectors = _echelon(d0, True)[1]
    rank_d0 = dim - len(hom_vectors)
    rank_d1 = rank(d1)
    ext1 = (2 * dim - rank_d1) - rank_d0
    ext2 = dim - rank_d1
    basis = tuple(_unflatten(ctx, vec, n2, n1) for vec in hom_vectors)
    return HomExtReport(len(basis), ext1, ext2, basis)
