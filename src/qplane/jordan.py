"""Jordan data: build matrices from Jordan specifications and recover them.

A JordanSpec is a multiset of (eigenvalue, partition) pairs; realize() turns
it into the block-diagonal Jordan matrix and jordan_data() inverts that up
to similarity, using exact rank sequences.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from . import matrices, modular, poly
from .errors import EigenvaluesNotFound, MixedContext, NotSquare
from .matrices import QMatrix, direct_sum, rank
from .scalars import FieldContext, QScalar, canonical_key, q_orbit

# ---------------------------------------------------------------------------
# partitions
# ---------------------------------------------------------------------------


def check_partition(nu) -> tuple:
    nu = tuple(nu)
    if any(type(p) is not int for p in nu):
        raise ValueError(f"partition parts must be ints: {nu}")
    if any(p <= 0 for p in nu):
        raise ValueError(f"partition parts must be positive: {nu}")
    if any(nu[i] < nu[i + 1] for i in range(len(nu) - 1)):
        raise ValueError(f"partition must be weakly decreasing: {nu}")
    return nu


def transpose_partition(nu):
    """Conjugate partition: column lengths of the Young diagram."""
    nu = check_partition(nu)
    if not nu:
        return ()
    out = [0] * nu[0]
    for part in nu:
        for i in range(part):
            out[i] += 1
    return tuple(out)


# ---------------------------------------------------------------------------
# Jordan specifications
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class JordanSpec:
    """Multiset of (eigenvalue, partition) pairs, canonically ordered.

    Every eigenvalue is a QScalar of ``ctx``.  Blocks are sorted by the
    eigenvalue's canonical key at construction so that equal multisets
    compare equal.
    """

    ctx: FieldContext
    blocks: tuple

    def __init__(self, ctx, blocks):
        normalized = []
        seen = []
        for eigenvalue, partition in blocks:
            if not isinstance(eigenvalue, QScalar):
                raise TypeError("JordanSpec eigenvalues must be QScalars")
            if eigenvalue.ctx is not ctx:
                raise MixedContext(f"eigenvalue of {eigenvalue.ctx!r} in a spec over {ctx!r}")
            partition = check_partition(partition)
            if not partition:
                raise ValueError("empty partition in JordanSpec")
            if any(eigenvalue == other for other in seen):
                raise ValueError("repeated eigenvalue in JordanSpec")
            seen.append(eigenvalue)
            normalized.append((eigenvalue, partition))
        normalized.sort(key=lambda blk: canonical_key(blk[0]))
        object.__setattr__(self, "ctx", ctx)
        object.__setattr__(self, "blocks", tuple(normalized))

    @property
    def size(self) -> int:
        return sum(sum(partition) for _, partition in self.blocks)

    def single_blocks(self):
        """Flatten to a list of (eigenvalue, block size), one per Jordan block."""
        out = []
        for eigenvalue, partition in self.blocks:
            for part in partition:
                out.append((eigenvalue, part))
        return out


def jordan_block(ctx: FieldContext, size: int, eigenvalue: QScalar) -> QMatrix:
    """J_size(eigenvalue): eigenvalue on the diagonal, 1 on the superdiagonal."""
    return block_jordan(ctx, size, 1, eigenvalue)


def block_jordan(ctx: FieldContext, size: int, multiplicity: int,
                 eigenvalue: QScalar) -> QMatrix:
    """The (size*multiplicity)-square matrix with identity blocks on the
    block superdiagonal: similar to `multiplicity` copies of J_size(eigenvalue)."""
    n = size * multiplicity
    one = ctx.one()
    return QMatrix.sparse(ctx, n, n, [(i, i, eigenvalue) for i in range(n)]
                          + [(i, i + multiplicity, one) for i in range(n - multiplicity)])


def realize(spec: JordanSpec) -> QMatrix:
    """Block-diagonal matrix of Jordan blocks in the order given by `spec`."""
    pieces = [jordan_block(spec.ctx, size, eigenvalue)
              for eigenvalue, size in spec.single_blocks()]
    if not pieces:
        return QMatrix.zero(spec.ctx, 0, 0)
    return direct_sum(*pieces)


# ---------------------------------------------------------------------------
# rational root extraction (exact, used on coordinate projections)
# ---------------------------------------------------------------------------


def rational_roots(coeffs):
    """All rational roots of a nonzero polynomial with int or Fraction
    coefficients.  A root a/b of the squarefree integer part s, in lowest
    terms, has |a|, b <= B = max(|s(0)|, lc(s)).  Modulo the least prime p
    that does not divide lc(s) and at which every root of s is simple, a/b
    is one of those roots.  Newton's iteration lifts each past 2 B^2, where
    Wang's reconstruction leaves one candidate, which a division checks
    exactly (Loos, SIAM J. Comput. 1983): time polynomial in the bits."""
    coeffs = poly.trim(tuple(coeffs))
    if not coeffs:
        raise ValueError("rational_roots needs a nonzero polynomial")
    low = next(i for i, c in enumerate(coeffs) if c)
    roots = {Fraction(0)} if low else set()
    denom_lcm = math.lcm(*(c.denominator for c in coeffs))
    f = tuple(int(c * denom_lcm) for c in coeffs[low:])
    s = poly.div_exact(f, poly.primitive_gcd(f, tuple(j * c for j, c in enumerate(f))[1:]))
    ds = tuple(j * c for j, c in enumerate(s))[1:]
    p, bound = 1, max(abs(s[0]), abs(s[-1]))
    while True:
        p += 1
        if s[-1] % p and modular.is_prime(p):
            lifts = [x for x in range(p) if not poly.div_linear(s, x)[1] % p]
            if all(poly.div_linear(ds, x)[1] % p for x in lifts):
                break
    m = p
    while lifts and m <= 2 * bound * bound:
        m *= m
        lifts = [(x - poly.div_linear(s, x)[1] * pow(poly.div_linear(ds, x)[1], -1, m)) % m
                 for x in lifts]
    for pair in filter(None, (modular.ratrec(x, m, bound) for x in lifts)):
        if not poly.div_linear(s, Fraction(*pair))[1]:
            roots.add(Fraction(*pair))
    return roots


# ---------------------------------------------------------------------------
# root discovery over the two regimes
# ---------------------------------------------------------------------------


def _residuals(cofactor, ctx):
    """Pairs (k, residual): for every root c*q^k of the cofactor with c
    rational, c is a rational root of the residual yielded at k.

    Q(zeta_ell): k = 0, ..., ell-1, and the residual is the first nonzero
    coordinate projection of cofactor(q^k y), since a rational root kills
    every coordinate at once; it is read off the integer vectors of the
    coefficients over their common denominator, so it has int coefficients.
    Q(q): k runs over the integer slopes of the Newton polygon, the lower
    convex hull of the points (j, val a_j) for the q-adic valuations of the
    coefficients a_j.  At a root of valuation k the least valuation among
    the terms a_j (c q^k)^j is reached twice, so -k is the slope of a hull
    edge, and c is a root of the residual: the lowest Laurent coefficients
    of the a_j on that edge."""
    if not ctx.is_generic:
        m = math.lcm(*(c.int_den[0] for c in cofactor))
        ints = [[x * (m // c.int_den[0]) for x in c.int_num] for c in cofactor]
        for k in range(ctx.ell):
            # m a_j q^(kj), for the coefficient a_j of y^j
            scaled = [ctx._conjugate(v, 1, k * j) for j, v in enumerate(ints)]
            yield k, next(coord for coord in zip(*scaled) if any(coord))
        return
    points = []  # (j, val a_j, lowest Laurent coefficient of a_j)
    for j, a in enumerate(cofactor):
        if a:
            (num, den), v = q_orbit(a)  # integer tuples: keep the ratio exact
            points.append((j, v, Fraction(num[0], den[0])))
    hull = []
    for p in points:
        # drop the last vertex while it lies on or above the chord to p
        while len(hull) > 1:
            (x0, y0, _), (x1, y1, _) = hull[-2:]
            if (x1 - x0) * (p[1] - y0) > (y1 - y0) * (p[0] - x0):
                break
            hull.pop()
        hull.append(p)
    for (i, v_i, _), (j, v_j, _) in zip(hull, hull[1:]):
        k, rem = divmod(v_i - v_j, j - i)
        if rem:
            continue
        residual = [Fraction(0)] * (j - i + 1)
        for t, v, low in points:
            if i <= t <= j and v + k * t == v_i + k * i:
                residual[t - i] = low
        yield k, residual


def _discover_roots(cofactor, ctx, hints, found):
    """{root: multiplicity}, given the roots already found (with their
    multiplicities) and the monic cofactor whose roots are the rest.  Each
    candidate is tried once and divided out of the cofactor as often as it
    divides: zero, the hints, for every root found the members of its
    q-orbit at the k of the residuals, and c*q^k for the rational roots c
    of the residual at k.  The search stops when the cofactor has degree 0:
    then every root is found with its multiplicity."""
    roots = dict(found)
    tried = set()

    def try_add(x):
        nonlocal cofactor
        if x in tried:
            return False
        tried.add(x)
        count = 0
        while len(cofactor) > 1:
            quot, rem = poly.div_linear(cofactor, x)
            if rem:
                break
            cofactor, count = quot, count + 1
        if count:
            roots[x] = roots.get(x, 0) + count
        return count > 0

    try_add(ctx.zero())
    for h in hints:
        try_add(h)
    if len(cofactor) == 1:
        return roots
    residuals = list(_residuals(cofactor, ctx))

    def add_orbit(x):  # x = b q^(k_x) is a root: try b q^k at each k
        k_x = q_orbit(x)[1]
        for k, _ in residuals:
            try_add(x * ctx.q_power(k - k_x))

    for x in [x for x in roots if x]:
        add_orbit(x)
    for k, residual in residuals:
        if len(cofactor) == 1:
            break
        for c in rational_roots(residual):
            x = ctx.rational(c) * ctx.q_power(k)
            if try_add(x):
                add_orbit(x)
    return roots


def jordan_data(A: QMatrix) -> JordanSpec:
    """Recover the Jordan specification of A from exact rank sequences.

    The number of blocks of size >= k at eigenvalue lam equals
    rank((A - lam I)^(k-1)) - rank((A - lam I)^k).  The 1x1 diagonal
    blocks of A's block triangular form, and the deflation of the char polys
    of the larger ones, give each eigenvalue with its multiplicity: a simple
    one is one block of size 1, and the ranks of any other stop once the
    nullity of (A - lam I)^k reaches the multiplicity.  If the char poly
    does not split into discoverable roots this raises EigenvaluesNotFound.
    """
    if not A.is_square():
        raise NotSquare("jordan_data needs a square matrix")
    n = A.nrows
    ctx = A.ctx
    # a 1x1 block [a] of A's block triangular form is the eigenvalue a; the
    # others are the roots of the product of the larger blocks' char polys,
    # and the diagonal entries are cheap extra candidates for them
    entries, cofactor = matrices._block_char_poly(A)
    roots = _discover_roots(cofactor, ctx, [A[i, i] for i in range(n)], Counter(entries))
    covered = sum(roots.values())
    if covered != n:
        raise EigenvaluesNotFound(
            f"only {covered} of {n} dimensions of the spectrum were resolved in the field")
    blocks = []
    for lam in roots:
        if roots[lam] == 1:
            blocks.append((lam, (1,)))
            continue
        shifted = A.shift(-lam)
        power, ranks = shifted, [n, rank(shifted)]
        while n - ranks[-1] < roots[lam]:
            power = power * shifted
            ranks.append(rank(power))
        # the k-th nullity step counts the blocks of size >= k
        steps = [ranks[k - 1] - ranks[k] for k in range(1, len(ranks))]
        blocks.append((lam, transpose_partition(steps)))
    return JordanSpec(ctx, blocks)
