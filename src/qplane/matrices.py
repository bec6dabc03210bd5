"""Exact linear algebra over QScalar.

Matrices are immutable values stored as their nonzero entries; every
operation returns a fresh matrix.
Rank, kernel and inverse all come from one sparse Gauss-Jordan elimination
to the reduced row echelon form.  That form is unique, so kernel bases and
their order do not depend on how the elimination is carried out: which row
pivots a column, whether the pivots that the nonzero pattern proves were
taken first (``_rref``'s row singleton pass), or whether the form was
computed exactly or rebuilt from images modulo primes and then proved exact
(``_modular``).
"""

from __future__ import annotations

import functools
import math
import operator
from fractions import Fraction
from itertools import chain

from . import modular, poly
from .errors import DimensionMismatch, MixedContext, NotSquare, SingularConjugator
from .scalars import FieldContext, QScalar, _lowest, _mul_add, _q_times, cyclotomic_polynomial


def _check_entry(ctx: FieldContext, entry):
    if not isinstance(entry, QScalar):
        raise TypeError(f"matrix entries must be QScalar, got {type(entry)}")
    if entry.ctx is not ctx:
        raise MixedContext("matrix entry from a different field context")


class QMatrix:
    """An nrows x ncols matrix over one FieldContext, stored as its nonzero
    entries: one dict per row from column to QScalar, columns ascending, no
    zero stored.  ``QMatrix.sparse`` builds every derived matrix from
    (row, column, value) triples and ``nonzeros`` reads them back; ``rows``
    is the dense view, built on each read."""

    __slots__ = ("ctx", "nrows", "ncols", "_rows")

    def __init__(self, ctx: FieldContext, rows):
        rows = tuple(map(tuple, rows))
        ncols = len(rows[0]) if rows else 0
        for row in rows:
            if len(row) != ncols:
                raise DimensionMismatch("ragged rows")
            for entry in row:
                _check_entry(ctx, entry)
        self.ctx, self.nrows, self.ncols = ctx, len(rows), ncols
        self._rows = tuple({c: x for c, x in enumerate(row) if x} for row in rows)

    @staticmethod
    def _build(ctx: FieldContext, rows, ncols: int) -> "QMatrix":
        """The unchecked constructor, for rows QMatrix assembles itself:
        dicts column -> QScalar of ctx, in any column order; zeros are
        dropped."""
        return QMatrix._wrap(ctx, [{c: x for c, x in sorted(row.items()) if x}
                                   for row in rows], ncols)

    @staticmethod
    def _wrap(ctx: FieldContext, rows, ncols: int) -> "QMatrix":
        """The matrix of rows already in stored form (dicts column ->
        nonzero QScalar of ctx, columns ascending), kept as they are."""
        M = object.__new__(QMatrix)
        M.ctx, M.nrows, M.ncols = ctx, len(rows), ncols
        M._rows = tuple(rows)
        return M

    def __reduce__(self):
        # __slots__ without __getstate__ does not pickle at protocols 0 and 1
        return (QMatrix.sparse, (self.ctx, self.nrows, self.ncols, self.nonzeros()))

    @property
    def rows(self):
        """The dense view: nrows tuples of ncols QScalars."""
        zero, cols = self.ctx.zero(), range(self.ncols)
        return tuple(tuple(row.get(c, zero) for c in cols) for row in self._rows)

    # -- constructors --------------------------------------------------------

    @staticmethod
    def sparse(ctx: FieldContext, nrows: int, ncols: int, entries) -> "QMatrix":
        """nrows x ncols with the sum of the x given at (r, c) by the
        (r, c, x) in entries, and zero where none is given; on distinct
        positions the inverse of ``nonzeros``.  A position outside the shape
        raises IndexError."""
        rows = [{} for _ in range(nrows)]
        for r, c, x in entries:
            _check_entry(ctx, x)
            if not (0 <= r < nrows and 0 <= c < ncols):
                raise IndexError(f"position ({r}, {c}) outside a {nrows}x{ncols} matrix")
            row = rows[r]
            y = row.get(c)
            row[c] = x if y is None else y + x
        return QMatrix._build(ctx, rows, ncols)

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
        return self._rows[r].get(range(self.ncols)[c], self.ctx.zero())

    def __eq__(self, other):
        return (
            isinstance(other, QMatrix)
            and self.ctx is other.ctx
            and self.ncols == other.ncols
            and self._rows == other._rows
        )

    def __hash__(self):
        return hash((self.ctx, self.ncols, tuple(tuple(row.items()) for row in self._rows)))

    def __repr__(self):
        from .scalars import format_scalar
        zero = format_scalar(self.ctx.zero())
        body = "; ".join(", ".join(format_scalar(row[c]) if c in row else zero
                                   for c in range(self.ncols)) for row in self._rows)
        return f"QMatrix({self.nrows}x{self.ncols}: {body})"

    def nonzeros(self):
        """The nonzero entries as (r, c, x), row by row, columns ascending."""
        return [(r, c, x) for r, row in enumerate(self._rows) for c, x in row.items()]

    def is_zero(self) -> bool:
        return not any(self._rows)

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
        return QMatrix.sparse(self.ctx, self.nrows, self.ncols,
                              self.nonzeros() + other.nonzeros())

    def __sub__(self, other):
        if not isinstance(other, QMatrix):
            return NotImplemented
        return self + -other

    def __neg__(self):
        return QMatrix.sparse(self.ctx, self.nrows, self.ncols,
                              [(r, c, -x) for r, c, x in self.nonzeros()])

    def scale(self, scalar) -> "QMatrix":
        if isinstance(scalar, (int, Fraction)):
            scalar = self.ctx.rational(scalar)
        _check_entry(self.ctx, scalar)  # also when there is no entry to multiply
        return QMatrix.sparse(self.ctx, self.nrows, self.ncols,
                              [(r, c, scalar * x) for r, c, x in self.nonzeros()])

    def shift(self, scalar) -> "QMatrix":
        """X + c I for a square X."""
        if not self.is_square():
            raise NotSquare("adding a multiple of the identity needs a square matrix")
        if isinstance(scalar, (int, Fraction)):
            scalar = self.ctx.rational(scalar)
        return QMatrix.sparse(self.ctx, self.nrows, self.ncols,
                              self.nonzeros() + [(i, i, scalar) for i in range(self.nrows)])

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
        # row by row over the stored nonzeros (Gustavson, ACM TOMS 1978):
        # output row i sums A[i][k] * (row k of B) over the A[i][k] stored
        ctx, right = self.ctx, other._rows
        if not ctx.is_generic:  # each entry one unreduced sum, reduced once
            out = [{c: _lowest(ctx, ctx._reduce(acc), den) for c, (acc, den)
                    in _row_sums(ctx, (row, right, 0, 1)).items()} for row in self._rows]
            return QMatrix._build(ctx, out, other.ncols)
        out = []
        for row in self._rows:
            acc = {}
            for k, x in row.items():
                for c, y in right[k].items():
                    s = acc.get(c)
                    acc[c] = x * y if s is None else s + x * y
            out.append(acc)
        return QMatrix._build(ctx, out, other.ncols)

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
        return QMatrix.sparse(self.ctx, self.ncols, self.nrows,
                              [(c, r, x) for r, c, x in self.nonzeros()])

    def trace(self) -> QScalar:
        if not self.is_square():
            raise NotSquare("trace needs a square matrix")
        return sum((row[i] for i, row in enumerate(self._rows) if i in row),
                   self.ctx.zero())

    def map_entries(self, fn) -> "QMatrix":
        """Apply a scalar function to every entry, zeros included (e.g. a
        field automorphism); it must return QScalars of the same context."""
        zero, cols = self.ctx.zero(), range(self.ncols)
        return QMatrix.sparse(self.ctx, self.nrows, self.ncols, [
            (r, c, fn(row.get(c, zero))) for r, row in enumerate(self._rows) for c in cols])

    def submatrix(self, row_range, col_range) -> "QMatrix":
        rows = [self._rows[i] for i in row_range]
        cols = [range(self.ncols)[j] for j in col_range]
        return QMatrix.sparse(self.ctx, len(rows), len(cols), [
            (a, b, row[j]) for a, row in enumerate(rows)
            for b, j in enumerate(cols) if j in row])


def _row_sums(ctx, *products):
    """One row of the sum of sign * q^shift * X Y over the (row of X, rows of
    Y, shift, sign) given, in stored rows over Q(zeta_ell): a dict column ->
    [acc, den] of unreduced ``_mul_add`` sums."""
    sums, width = {}, 2 * ctx._deg
    for row, right, shift, sign in products:
        for k, x in row.items():
            for c, y in right[k].items():
                s = sums.get(c)
                if s is None:
                    s = sums[c] = [[0] * width, 1]
                s[1] = _mul_add(ctx, s[0], s[1], x, y, shift, sign)
    return sums


def _q_commutes(A: QMatrix, B: QMatrix) -> bool:
    """Whether AB = qBA, for square A and B of one size and context.

    Over Q(zeta_ell) no product is formed: row by row, each entry of
    AB - qBA is one unreduced sum over one denominator, q a shift by one,
    reduced mod Phi_ell once and tested for zero.  Over Q(q) AB is compared
    with qBA entry by entry, q times an entry of BA a shift, with no gcd."""
    ctx = A.ctx
    if ctx.is_generic:
        return all(r.keys() == s.keys() and all(x == _q_times(s[c]) for c, x in r.items())
                   for r, s in zip((A * B)._rows, (B * A)._rows))
    return not any(any(ctx._reduce(acc)) for a, b in zip(A._rows, B._rows) for acc, _
                   in _row_sums(ctx, (a, B._rows, 0, 1), (b, A._rows, 1, -1)).values())


def _trace_of_product(nonzeros, Y: QMatrix):
    """Tr(XY) over Q(zeta_ell) from the nonzero entries (r, k, x) of X,
    without forming XY: one unreduced sum, reduced once."""
    ctx = Y.ctx
    acc, den = [0] * (2 * ctx._deg), 1
    for r, k, x in nonzeros:
        y = Y[k, r]
        if y:
            den = _mul_add(ctx, acc, den, x, y)
    return _lowest(ctx, ctx._reduce(acc), den)


def direct_sum(*matrices: QMatrix) -> QMatrix:
    """Block-diagonal stacking of the given matrices."""
    if not matrices:
        raise DimensionMismatch("direct_sum needs at least one matrix")
    ctx = matrices[0].ctx
    for m in matrices:
        if m.ctx is not ctx:
            raise MixedContext("direct_sum over mixed field contexts")
    entries, r0, c0 = [], 0, 0
    for m in matrices:
        entries += [(r0 + r, c0 + c, x) for r, c, x in m.nonzeros()]
        r0 += m.nrows
        c0 += m.ncols
    return QMatrix.sparse(ctx, r0, c0, entries)


# ---------------------------------------------------------------------------
# elimination: sparse Gauss-Jordan over QScalars
# ---------------------------------------------------------------------------

def _rref(rows, ncols, ctx):
    """Reduce sparse rows (dicts column -> nonzero QScalar of ctx) in place
    to the reduced row echelon form by Gauss-Jordan; return the pivot rows
    as (column, row) pairs in column order.

    A column index (column -> rows with a nonzero there) finds the rows to
    clear without scanning zeros.  The row singletons go first, by the
    pattern alone (the singleton pass of sparse LU: Davis, Direct Methods
    for Sparse Linear Systems, SIAM 2006, ch. 7): a row with one nonzero
    left, at column c, puts e_c in the row space, so c is a pivot with
    reduced row e_c; clearing c from another row subtracts a multiple of
    e_c, which touches no other column, so c is dropped from the other rows
    with no scalar operation, and a row that falls to one nonzero joins the
    queue.  Of the rows that can pivot a
    column left after that, the one with the fewest nonzeros is taken, which
    limits fill.  The reduced form depends on neither choice.  Each distinct
    pivot value is inverted once per call: a Jordan-form operator repeats a
    few values on many pivots, and over Q(zeta_ell) an inverse costs a norm.
    """
    one = ctx.one()
    inverses = {}  # (int_num, int_den) -> the inverse, for this call only
    where = [set() for _ in range(ncols)]
    for i, row in enumerate(rows):
        for j in row:
            where[j].add(i)
    peeled = {}  # column c -> its row, now {c: one}; where[c] is then stale
    queue = [i for i, row in enumerate(rows) if len(row) == 1]
    while queue:
        row = rows[queue.pop()]
        if not row:  # emptied since: a multiple of a peeled singleton
            continue
        c, = row
        for i in where[c]:  # the row itself among them
            other = rows[i]
            del other[c]
            if len(other) == 1:
                queue.append(i)
        row[c] = one
        peeled[c] = row
    used = [False] * len(rows)
    pivots = []
    for c in range(ncols):
        if len(pivots) == len(rows):
            break
        if c in peeled:
            pivots.append((c, peeled[c]))
            continue
        candidates = [i for i in where[c] if not used[i]]
        if not candidates:
            continue
        r = min(candidates, key=lambda i: (len(rows[i]), i))
        used[r] = True
        prow = rows[r]
        v = prow.pop(c)
        key = (v.int_num, v.int_den)
        s = inverses.get(key)
        if s is None:
            s = inverses[key] = v.inverse()
        items = [(j, x * s) for j, x in prow.items()]
        prow[c] = one
        prow.update(items)
        for i in where[c]:
            if i == r:
                continue
            row = rows[i]
            f = -row.pop(c)
            for j, x in items:
                y = row.get(j)
                if y is None:
                    row[j] = f * x
                    where[j].add(i)
                else:
                    y = y + f * x
                    if y:
                        row[j] = y
                    else:
                        del row[j]
                        where[j].discard(i)
        pivots.append((c, prow))
    return pivots


def _kernel_of(pivots, ncols, ctx):
    """The reduced-echelon kernel basis from pivot rows over QScalars: per
    free column f in order, a dict column -> nonzero QScalar holding -R[i][f]
    at the pivot column of each pivot row i that stores f, then 1 at f.  A
    pivot row stores nothing at another pivot column or left of its own, so
    one pass over the rows fills each vector with its columns ascending."""
    pivot_cols = {c for c, _ in pivots}
    basis = {f: {} for f in range(ncols) if f not in pivot_cols}
    for c, row in pivots:
        for f, x in row.items():
            if f != c:
                basis[f][c] = -x
    one = ctx.one()
    for f, vec in basis.items():
        vec[f] = one
    return list(basis.values())


# ---------------------------------------------------------------------------
# certified multimodular elimination over Q(zeta_ell)
# ---------------------------------------------------------------------------

def _certified(A: QMatrix, pivot_cols, basis) -> bool:
    """Whether basis, sparse vectors as from ``_kernel_of``, is provably the
    reduced-echelon kernel basis of A and pivot_cols the pivot columns of A,
    given that they came from images of A under ring maps to F_p (defined:
    no denominator divisible by p) that all gave the pivot columns pivot_cols.

    The vector of free column f must hold 1 at f and otherwise only pivot
    columns left of f, and A v = 0 must hold exactly.
    Then column f lies in the span of the pivot columns left of it, so the
    exact pivot columns are among pivot_cols; a rank mod p never exceeds the
    exact rank, so they are all of pivot_cols, and the kernel vectors with
    that shape are unique, hence the reduced-echelon ones.

    A v = 0 is tested in Z/N, N = Phi_ell(beta) for beta = 2^W, by one
    evaluation x -> beta (Kronecker substitution: Harvey, J. Symb. Comput.
    2009).  Each row of A and each v is scaled into Z[zeta] by the lcm of
    its denominators, which leaves A v = 0 as it is, and x -> beta is a
    ring map from Z[x]/Phi_ell onto Z/N.  With |.| the largest |coefficient|,
    the product y = sum_j a_j w_j of a row and a vector has, before
    reduction, coefficients at most S = deg sum_j |a_j| |w_j|, and its
    remainder R mod Phi_ell at most B = S (1 + (deg - 1) K), K the largest
    |coefficient| of x^(deg + k) mod Phi_ell.  With H = |Phi_ell| and
    beta >= B + H + 1, a nonzero R has 0 < |R(beta)| < Phi_ell(beta) = N, so
    R(beta) = 0 (mod N) only when R = 0.  Each |a_j| is at most d h, d the
    lcm of the row's denominators and h the largest |coefficient| of its
    numerators, and each |w_j| likewise, so S <= deg len(row) d h d' h':
    W comes from the bits of A and of the vectors, never from a constant.
    """
    pivot_set = set(pivot_cols)
    free = [f for f in range(A.ncols) if f not in pivot_set]
    if len(free) != len(basis):
        return False
    ctx = A.ctx
    one = ctx.one()
    for f, vec in zip(free, basis):
        if vec.get(f) != one or any(j != f and (j > f or j not in pivot_set) for j in vec):
            return False
    rows = A._rows
    row_scales = [_scale(row.values()) for row in rows]
    vec_scales = [_scale(vec.values()) for vec in basis]
    row_top = max((len(row) * d * h for row, (d, h) in zip(rows, row_scales)), default=0)
    vec_top = max((d * h for d, h in vec_scales), default=0)
    deg, phi = ctx._deg, cyclotomic_polynomial(ctx.ell)
    K = max((abs(v) for row in ctx._reduction for _, v in row), default=0)
    width = (deg * row_top * vec_top * (1 + (deg - 1) * K) + max(map(abs, phi))).bit_length()
    powers = [1 << (width * t) for t in range(deg + 1)]
    N = sum(map(operator.mul, phi, powers))
    # each distinct numerator at beta, once: an operator repeats its values
    nums = {x.int_num for items in (*rows, *basis) for x in items.values()}
    image = {num: sum(map(operator.mul, num, powers)) for num in nums}
    rows = [[(j, image[x.int_num] * (d // x.int_den[0])) for j, x in row.items()]
            for row, (d, _) in zip(rows, row_scales)]
    vectors = [{j: image[x.int_num] * (d // x.int_den[0]) for j, x in vec.items()}
               for vec, (d, _) in zip(basis, vec_scales)]
    for row in rows:
        for vec in vectors:
            if sum([a * vec[j] for j, a in row if j in vec]) % N:
                return False
    return True


def _scale(xs):
    """(d, h) for the Q(zeta_ell) scalars xs: d the lcm of their
    denominators and h the largest |coefficient| of their numerators, so
    that each d x is in Z[zeta] with coefficients at most d h."""
    return (math.lcm(*[x.int_den[0] for x in xs]),
            max(map(abs, chain.from_iterable([x.int_num for x in xs])), default=0))


def _modular(A: QMatrix, entries, want_basis: bool):
    """(rank, kernel basis or None) of A over Q(zeta_ell): the first candidate
    from images mod primes that ``_certified`` proves exact, or the rank of
    an image of full rank, with the empty kernel when that rank is ncols;
    None to fall back to the exact path."""
    for cols, pivots in modular.echelons(A.ctx, entries, A.nrows, A.ncols, want_basis):
        if pivots is None:
            return len(cols), [] if want_basis else None
        basis = _kernel_of(pivots, A.ncols, A.ctx)
        if _certified(A, cols, basis):
            return len(cols), basis
    return None


def _use_modular(A: QMatrix, nnz: int) -> bool:
    """Whether A goes through ``_modular``: over Q(zeta_ell) only, with at
    least 4 nonzeros per row or column, and with at least 64 nonzeros or a
    field of degree at least 6.

    Measured at ell = 3 and 5 (2-core VM, CPython 3.11.7), exact time vs
    modular time: Jordan-form q-commutant operators, at most 2.5 nonzeros
    per row, stay faster exact up to 100 x 100 (1.2 vs 3.4 ms); dense
    matrices break even near 45 nonzeros (dense 7 x 7: 0.9 vs 0.7 ms; the
    9 x 9 operator of a dense 3 x 3, 5 per row, 1.5 vs 1.5 ms at ell = 5)
    and gain from 64 on (dense 8 x 8: 1.7 vs 0.8 ms; the 16 x 16 operator
    of a dense 4 x 4, 7 per row: 7.6 vs 2.2 ms).  The degree moves the
    break-even down, since each exact pivot inverse is a norm, deg - 1
    products of growing coefficients.  The q-commutant of the dense 3 x 3
    L U conjugate of the m = (0, 0, 1) sample point (its 9 x 9 operator
    has 45 nonzeros), in process, building the prime tables included:

        ell    deg   exact     modular
          5      4   3.0 ms    2.4 ms
          7      6   5.5 ms    3.1 ms
         17     16    28 ms    8.6 ms
         31     30   166 ms     18 ms
         53     52   2.0 s      42 ms
        101    100    45 s     0.13 s
        211    210   (282 s)   0.52 s

    The 282 s at ell 211 is an earlier run of the exact path, not repeated.
    At deg 4 the gain on 45 nonzeros is a fraction of a millisecond, and
    such matrices stay exact.
    Large entries move the break-even up: the primes needed grow with the
    bits of the echelon form, which this rule does not read.  The matrices
    it takes have no row singletons for ``_rref``'s singleton pass: none of
    the 178 rows of the 10 that go modular in the benchmark's
    ``commutant_elim`` (seed 3).
    """
    return (not A.ctx.is_generic and (nnz >= 64 or A.ctx._deg >= 6)
            and nnz >= 4 * max(A.nrows, A.ncols))


def _echelon(A: QMatrix, want_basis: bool):
    """(rank, reduced-echelon kernel basis or None) of A, sparse as from ``_kernel_of``."""
    if _use_modular(A, sum(map(len, A._rows))):
        got = _modular(A, A.nonzeros(), want_basis)
        if got is not None:
            return got
    pivots = _rref([dict(row) for row in A._rows], A.ncols, A.ctx)
    return len(pivots), _kernel_of(pivots, A.ncols, A.ctx) if want_basis else None


def rank(A: QMatrix) -> int:
    """Exact rank: the number of pivots of the reduced row echelon form."""
    return _echelon(A, False)[0]


def kernel_basis(A: QMatrix):
    """Deterministic basis of the right kernel {x : Ax = 0}.

    Returns cols - rank vectors (tuples of QScalar, made dense only here),
    one per free column in ascending column order, each with a 1 in its free
    position and 0 in the other free positions.
    """
    zero, cols = A.ctx.zero(), range(A.ncols)
    return [tuple(vec.get(j, zero) for j in cols) for vec in _echelon(A, True)[1]]


def inverse(A: QMatrix) -> QMatrix:
    """Matrix inverse; raises SingularConjugator when A is singular."""
    if not A.is_square():
        raise NotSquare("inverse needs a square matrix")
    n = A.nrows
    ctx = A.ctx
    rows = [dict(row) for row in A._rows]
    one = ctx.one()
    for i, row in enumerate(rows):
        row[n + i] = one
    pivots = _rref(rows, 2 * n, ctx)
    if [c for c, _ in pivots] != list(range(n)):
        raise SingularConjugator("matrix is singular")
    return QMatrix._build(ctx, [{j - n: x for j, x in row.items() if j >= n}
                                for _, row in pivots], n)


def conjugate(g: QMatrix, A: QMatrix) -> QMatrix:
    """g A g^{-1} for invertible g."""
    if not g.is_square() or not A.is_square():
        raise NotSquare("conjugation needs square matrices")
    if g.nrows != A.nrows:
        raise DimensionMismatch("conjugator size does not match matrix size")
    return g * A * inverse(g)


# ---------------------------------------------------------------------------
# block triangular form and the characteristic polynomial
# ---------------------------------------------------------------------------

def diagonal_blocks(A: QMatrix, *others: QMatrix):
    """The diagonal blocks of A's block upper triangular form: the strongly
    connected components of the graph with an edge i -> j for each nonzero
    A[i, j], as ascending index lists, ordered so that every nonzero entry
    lies in a block's own rows and columns or runs from an earlier block to
    a later one.  Then det(xI - A) is the product of the blocks' char polys
    (Tarjan, SIAM J. Comput. 1972; Duff and Reid, ACM TOMS 1978).  Given
    further matrices of A's size, the graph has an edge for each nonzero of
    any of them, and all of them are block upper triangular in that order.

    Tarjan's depth-first search keeps its path in a list, so a long path
    such as J_n(0) needs no recursion.  It finishes a component only after every
    component reachable from it, so the finishing order is reversed.
    """
    for M in (A, *others):
        if not M.is_square():
            raise NotSquare("diagonal_blocks needs a square matrix")
        if M.nrows != A.nrows:
            raise DimensionMismatch("diagonal_blocks needs matrices of one size")
    adjacency = A._rows if not others else [
        sorted(set().union(*rows)) for rows in zip(*(M._rows for M in (A, *others)))]
    order = [None] * A.nrows  # discovery index of each visited vertex
    low = [0] * A.nrows  # least discovery index reachable through stacked vertices
    stack = []  # visited vertices whose component is not finished yet
    on_stack = [False] * A.nrows
    blocks, path = [], []  # path: (vertex, iterator over its successors)
    seen = 0

    def visit(v):
        nonlocal seen
        order[v] = low[v] = seen
        seen += 1
        stack.append(v)
        on_stack[v] = True
        path.append((v, iter(adjacency[v])))

    for root in range(A.nrows):
        if order[root] is not None:
            continue
        visit(root)
        while path:
            v, successors = path[-1]
            for w in successors:
                if order[w] is None:
                    visit(w)
                    break
                if on_stack[w] and order[w] < low[v]:
                    low[v] = order[w]
            else:
                path.pop()
                if path and low[v] < low[path[-1][0]]:
                    low[path[-1][0]] = low[v]
                if low[v] == order[v]:
                    block = []
                    while not block or block[-1] != v:
                        block.append(stack.pop())
                        on_stack[block[-1]] = False
                    blocks.append(sorted(block))
    blocks.reverse()
    return blocks


def char_poly(A: QMatrix):
    """Monic characteristic polynomial det(xI - A), little-endian QScalar
    list: the product over the blocks of ``diagonal_blocks(A)`` of x - a
    for a 1x1 block [a] and of a larger block's char poly, from
    ``_block_char_poly``."""
    if not A.is_square():
        raise NotSquare("char_poly needs a square matrix")
    entries, product = _block_char_poly(A)
    return list(functools.reduce(poly.mul, [(-a, A.ctx.one()) for a in entries], product))


def _block_char_poly(A: QMatrix):
    """The entries of the 1x1 blocks of ``diagonal_blocks(A)``, and the
    product of the larger blocks' char polys by Faddeev-LeVerrier, as a
    tuple: det(xI - A) is that product times x - a for each entry a."""
    blocks = diagonal_blocks(A)
    product = functools.reduce(poly.mul, [_faddeev_leverrier(A.submatrix(b, b))
                                          for b in blocks if len(b) > 1], (A.ctx.one(),))
    return [A[b[0], b[0]] for b in blocks if len(b) == 1], product


def _faddeev_leverrier(A: QMatrix):
    """det(xI - A) for a square A by Faddeev-LeVerrier, as a tuple: exact
    over any field of characteristic zero (the divisions are by the
    integers 1..n)."""
    n = A.nrows
    coeffs = [None] * (n + 1)
    coeffs[n] = A.ctx.one()
    AM = A  # A M_k, with M_1 = I
    for k in range(1, n + 1):
        c = -(AM.trace() / k)
        coeffs[n - k] = c
        if k < n:
            AM = A * AM.shift(c)  # M_(k+1) = A M_k + c I
    return tuple(coeffs)
