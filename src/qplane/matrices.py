"""Exact dense linear algebra over QScalar.

Matrices are immutable values; every operation returns a fresh matrix.
Rank, kernel and inverse all come from one Gauss-Jordan elimination to the
reduced row echelon form.  That form is unique, so kernel bases and their
order do not depend on how the elimination is carried out.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import DimensionMismatch, MixedContext, NotSquare, SingularConjugator
from .scalars import FieldContext, QScalar


class QMatrix:
    """A rows x cols grid of QScalar, all sharing one FieldContext."""

    __slots__ = ("ctx", "nrows", "ncols", "rows")

    def __init__(self, ctx: FieldContext, rows):
        rows = tuple(map(tuple, rows))
        nrows = len(rows)
        ncols = len(rows[0]) if nrows else 0
        for row in rows:
            if len(row) != ncols:
                raise DimensionMismatch("ragged rows")
            for entry in row:
                if not isinstance(entry, QScalar):
                    raise TypeError(f"matrix entries must be QScalar, got {type(entry)}")
                if entry.ctx is not ctx:
                    raise MixedContext("matrix entry from a different field context")
        self.ctx = ctx
        self.nrows = nrows
        self.ncols = ncols
        self.rows = rows

    def __reduce__(self):
        # __slots__ without __getstate__ does not pickle at protocols 0 and 1
        return (QMatrix, (self.ctx, self.rows))

    # -- constructors --------------------------------------------------------

    @staticmethod
    def sparse(ctx: FieldContext, nrows: int, ncols: int, entries) -> "QMatrix":
        """nrows x ncols with x at (r, c) for each (r, c, x) in entries and
        the context's zero everywhere else; the inverse of ``nonzeros``."""
        z = ctx.zero()
        rows = [[z] * ncols for _ in range(nrows)]
        for r, c, x in entries:
            rows[r][c] = x
        return QMatrix(ctx, rows)

    @staticmethod
    def zero(ctx: FieldContext, nrows: int, ncols: int) -> "QMatrix":
        return QMatrix.sparse(ctx, nrows, ncols, ())

    @staticmethod
    def identity(ctx: FieldContext, n: int) -> "QMatrix":
        return QMatrix.diagonal(ctx, [ctx.one()] * n)

    @staticmethod
    def diagonal(ctx: FieldContext, entries) -> "QMatrix":
        entries = list(entries)
        n = len(entries)
        return QMatrix.sparse(ctx, n, n, [(i, i, x) for i, x in enumerate(entries)])

    @staticmethod
    def from_rational_rows(ctx: FieldContext, rows) -> "QMatrix":
        """Build from a grid of ints/Fractions (convenience for tests)."""
        return QMatrix(ctx, [[ctx.rational(x) for x in row] for row in rows])

    # -- basic protocol ------------------------------------------------------

    def __getitem__(self, rc):
        r, c = rc
        return self.rows[r][c]

    def __eq__(self, other):
        return (
            isinstance(other, QMatrix)
            and self.ctx is other.ctx
            and self.rows == other.rows
            and self.ncols == other.ncols
        )

    def __hash__(self):
        return hash((self.ctx, self.ncols, self.rows))

    def __repr__(self):
        from .scalars import format_scalar
        body = "; ".join(
            ", ".join(format_scalar(x) for x in row) for row in self.rows
        )
        return f"QMatrix({self.nrows}x{self.ncols}: {body})"

    def nonzeros(self):
        """The nonzero entries as (r, c, x), row by row."""
        return [(r, c, x) for r, row in enumerate(self.rows)
                for c, x in enumerate(row) if not x.is_zero()]

    def is_zero(self) -> bool:
        return all(entry.is_zero() for row in self.rows for entry in row)

    def is_square(self) -> bool:
        return self.nrows == self.ncols

    # -- ring operations -----------------------------------------------------

    def _check_same_shape(self, other):
        if self.ctx is not other.ctx:
            raise MixedContext("matrices from different field contexts")
        if self.nrows != other.nrows or self.ncols != other.ncols:
            raise DimensionMismatch(
                f"{self.nrows}x{self.ncols} vs {other.nrows}x{other.ncols}")

    def __add__(self, other):
        if not isinstance(other, QMatrix):
            return NotImplemented
        self._check_same_shape(other)
        return QMatrix(self.ctx, [
            [x + y for x, y in zip(r1, r2)] for r1, r2 in zip(self.rows, other.rows)
        ])

    def __sub__(self, other):
        if not isinstance(other, QMatrix):
            return NotImplemented
        self._check_same_shape(other)
        return QMatrix(self.ctx, [
            [x - y for x, y in zip(r1, r2)] for r1, r2 in zip(self.rows, other.rows)
        ])

    def __neg__(self):
        return QMatrix(self.ctx, [[-x for x in row] for row in self.rows])

    def scale(self, scalar) -> "QMatrix":
        if isinstance(scalar, (int, Fraction)):
            scalar = self.ctx.rational(scalar)
        return QMatrix(self.ctx, [[scalar * x for x in row] for row in self.rows])

    def shift(self, scalar) -> "QMatrix":
        """X + c I for a square X, touching only the diagonal."""
        if not self.is_square():
            raise NotSquare("adding a multiple of the identity needs a square matrix")
        if isinstance(scalar, (int, Fraction)):
            scalar = self.ctx.rational(scalar)
        rows = [list(row) for row in self.rows]
        for i, row in enumerate(rows):
            row[i] = row[i] + scalar
        return QMatrix(self.ctx, rows)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, QScalar)):
            return self.scale(other)
        if not isinstance(other, QMatrix):
            return NotImplemented
        if self.ctx is not other.ctx:
            raise MixedContext("matrices from different field contexts")
        if self.ncols != other.nrows:
            raise DimensionMismatch(
                f"cannot multiply {self.nrows}x{self.ncols} by {other.nrows}x{other.ncols}")
        # row by row over nonzeros on both sides (Gustavson, ACM TOMS 1978):
        # output row i sums A[i][k] * (nonzero row k of B) over nonzero A[i][k]
        zero = self.ctx.zero()
        ncols = other.ncols
        right = [[(c, y) for c, y in enumerate(row) if not y.is_zero()]
                 for row in other.rows]
        out = []
        for row in self.rows:
            acc = [None] * ncols
            for k, x in enumerate(row):
                if x.is_zero():
                    continue
                for c, y in right[k]:
                    s = acc[c]
                    acc[c] = x * y if s is None else s + x * y
            out.append([zero if s is None else s for s in acc])
        return QMatrix(self.ctx, out)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction, QScalar)):
            return self.scale(other)
        return NotImplemented

    def __pow__(self, exponent: int):
        if not self.is_square():
            raise NotSquare("matrix power needs a square matrix")
        if exponent < 0:
            raise ValueError("negative matrix powers are not supported")
        out = QMatrix.identity(self.ctx, self.nrows)
        base = self
        while exponent:
            if exponent & 1:
                out = out * base
            base = base * base if exponent > 1 else base
            exponent >>= 1
        return out

    def transpose(self) -> "QMatrix":
        if self.nrows == 0 or self.ncols == 0:
            return QMatrix.zero(self.ctx, self.ncols, self.nrows)
        return QMatrix(self.ctx, list(zip(*self.rows)))

    def trace(self) -> QScalar:
        if not self.is_square():
            raise NotSquare("trace needs a square matrix")
        total = self.ctx.zero()
        for i in range(self.nrows):
            total = total + self.rows[i][i]
        return total

    def map_entries(self, fn) -> "QMatrix":
        """Apply a scalar function entrywise (e.g. a field automorphism)."""
        return QMatrix(self.ctx, [[fn(x) for x in row] for row in self.rows])

    def submatrix(self, row_range, col_range) -> "QMatrix":
        rows = [[self.rows[i][j] for j in col_range] for i in row_range]
        if not rows:
            return QMatrix.zero(self.ctx, 0, 0)
        return QMatrix(self.ctx, rows)


def direct_sum(*matrices: QMatrix) -> QMatrix:
    """Block-diagonal stacking of the given matrices."""
    if not matrices:
        raise DimensionMismatch("direct_sum needs at least one matrix")
    ctx = matrices[0].ctx
    for m in matrices:
        if m.ctx is not ctx:
            raise MixedContext("direct_sum over mixed field contexts")
    total_r = sum(m.nrows for m in matrices)
    total_c = sum(m.ncols for m in matrices)
    z = ctx.zero()
    grid = [[z] * total_c for _ in range(total_r)]
    r0 = c0 = 0
    for m in matrices:
        for i, row in enumerate(m.rows):
            grid[r0 + i][c0:c0 + m.ncols] = row
        r0 += m.nrows
        c0 += m.ncols
    return QMatrix(ctx, grid)


# ---------------------------------------------------------------------------
# elimination: rank, kernel, inverse
# ---------------------------------------------------------------------------

def _rref(A: QMatrix):
    """Reduced row echelon form by Gauss-Jordan: returns (rows, pivot columns).

    Pivot columns are taken left to right.  Each pivot row is normalized once
    and then cleared out of every other row, touching only its nonzero
    entries and skipping rows that are already zero in the pivot column.
    """
    grid = [list(row) for row in A.rows]
    m, n = A.nrows, A.ncols
    zero, one = A.ctx.zero(), A.ctx.one()
    piv_cols = []
    for c in range(n):
        r = len(piv_cols)
        if r == m:
            break
        piv = next((i for i in range(r, m) if not grid[i][c].is_zero()), None)
        if piv is None:
            continue
        grid[r], grid[piv] = grid[piv], grid[r]
        row_r = grid[r]
        inv = row_r[c].inverse()
        nonzero = [(j, row_r[j] * inv) for j in range(c + 1, n)
                   if not row_r[j].is_zero()]
        row_r[c] = one
        for j, x in nonzero:
            row_r[j] = x
        for i in range(m):
            row_i = grid[i]
            f = row_i[c]
            if i == r or f.is_zero():
                continue
            f = -f
            for j, x in nonzero:
                row_i[j] = row_i[j] + f * x
            row_i[c] = zero
        piv_cols.append(c)
    return grid, piv_cols


def rank(A: QMatrix) -> int:
    """Exact rank: the number of pivots of the reduced row echelon form."""
    return len(_rref(A)[1])


def kernel_basis(A: QMatrix):
    """Deterministic basis of the right kernel {x : Ax = 0}.

    Returns cols - rank vectors (tuples of QScalar), one per free column in
    ascending column order, each with a 1 in its free position.
    """
    grid, piv_cols = _rref(A)
    n = A.ncols
    piv_set = set(piv_cols)
    zero, one = A.ctx.zero(), A.ctx.one()
    basis = []
    for free in range(n):
        if free in piv_set:
            continue
        vec = [zero] * n
        vec[free] = one
        for i, p in enumerate(piv_cols):
            vec[p] = -grid[i][free]
        basis.append(tuple(vec))
    return basis


def inverse(A: QMatrix) -> QMatrix:
    """Matrix inverse; raises SingularConjugator when A is singular."""
    if not A.is_square():
        raise NotSquare("inverse needs a square matrix")
    n = A.nrows
    eye = QMatrix.identity(A.ctx, n)
    augmented = QMatrix(A.ctx, [list(r) + list(e) for r, e in zip(A.rows, eye.rows)])
    grid, piv_cols = _rref(augmented)
    if piv_cols != list(range(n)):
        raise SingularConjugator("matrix is singular")
    return QMatrix(A.ctx, [row[n:] for row in grid])


def conjugate(g: QMatrix, A: QMatrix) -> QMatrix:
    """g A g^{-1} for invertible g."""
    if not g.is_square() or not A.is_square():
        raise NotSquare("conjugation needs square matrices")
    if g.nrows != A.nrows:
        raise DimensionMismatch("conjugator size does not match matrix size")
    return g * A * inverse(g)


# ---------------------------------------------------------------------------
# characteristic polynomial
# ---------------------------------------------------------------------------

def char_poly(A: QMatrix):
    """Monic characteristic polynomial det(xI - A), little-endian QScalar list.

    Faddeev-LeVerrier: exact over any field of characteristic zero (the
    divisions are by the integers 1..n).
    """
    if not A.is_square():
        raise NotSquare("char_poly needs a square matrix")
    n = A.nrows
    one = A.ctx.one()
    if n == 0:
        return [one]
    coeffs = [None] * (n + 1)
    coeffs[n] = one
    AM = A  # A M_k, with M_1 = I
    for k in range(1, n + 1):
        c = -(AM.trace() / k)
        coeffs[n - k] = c
        if k < n:
            AM = A * AM.shift(c)  # M_(k+1) = A M_k + c I
    return coeffs


def eval_poly_at_matrix(coeffs, A: QMatrix) -> QMatrix:
    """Evaluate a little-endian QScalar polynomial at a square matrix."""
    if not A.is_square():
        raise NotSquare("polynomial evaluation needs a square matrix")
    out = QMatrix.zero(A.ctx, A.nrows, A.nrows)
    for c in reversed(list(coeffs)):
        out = (out * A).shift(c)
    return out
