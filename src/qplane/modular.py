"""The mod-p half of the certified multimodular elimination over
Q(zeta_ell), and the number theory under it and under the p-adic
rational-root search (``jordan.rational_roots``).

Over Q(zeta_ell) the entries of the reduced echelon form stay small while
exact elimination builds large intermediate values.  So ``echelons``
computes the form mod primes p = 1 (mod ell) below PRIME_TOP = 2^30, where
Phi_ell splits into linear factors: once per root of Phi_ell mod p, each
root giving one ring map Z[zeta][1/d] -> F_p.  Vandermonde interpolation
over the roots gives the coefficients of each entry mod p, CRT joins the
primes and Wang's rational reconstruction lifts them to Q (Encarnacion,
JSC 1995; Monagan, ISSAC 2004); ``matrices._modular`` returns a candidate
only once its exact certificate holds.  That certificate tests A v = 0
not in Z[zeta] but in Z / Phi_ell(2^W), one evaluation x -> 2^W per
distinct entry, with W read off the bits of A and v so that only a zero
product maps to 0 (``matrices._certified``).  Below 2^30 every residue is
one CPython digit, so ``(y + f x) % p`` costs about a third of its time at
62 bits."""

from __future__ import annotations

import math
from itertools import count
from operator import mul

from . import poly
from .scalars import _lowest, cyclotomic_polynomial

PRIME_TOP = 2 ** 30
_PRIMES = {}  # ell -> [(p, roots of Phi_ell mod p, inverse Vandermonde)], grown on use


def is_prime(n: int) -> bool:
    """Miller-Rabin with the primes up to 41 as bases: exact below 3.3e24."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
    if n < 2 or any(n % b == 0 for b in bases):
        return n in bases
    d, s = n - 1, 0
    while not d & 1:
        d, s = d >> 1, s + 1
    for b in bases:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def cyclotomic_prime(ell: int, k: int):
    """The k-th largest prime p = 1 (mod ell) below PRIME_TOP, the roots r_e
    of Phi_ell mod p, and the inverse of their Vandermonde matrix mod p;
    None when there are fewer than k + 1 such primes.  Phi_ell = prod (x -
    r_e) mod p, so column e of the inverse is the Lagrange polynomial
    Phi_ell / ((x - r_e) Phi_ell'(r_e)): O(deg^2) per table (von zur Gathen
    and Gerhard, Modern Computer Algebra, section 5.2)."""
    table = _PRIMES.setdefault(ell, [])
    while len(table) <= k:
        t = ((table[-1][0] if table else PRIME_TOP) - 2) // ell
        while t > 0 and not is_prime(t * ell + 1):
            t -= 1
        if t <= 0:
            return None
        p = t * ell + 1
        factors = [r for r in range(2, ell + 1) if ell % r == 0 and is_prime(r)]
        g = 2
        while any(pow(g, (p - 1) // r, p) == 1 for r in factors):
            g += 1
        h = pow(g, (p - 1) // ell, p)  # of order exactly ell
        roots = [pow(h, e, p) for e in range(1, ell + 1) if math.gcd(e, ell) == 1]
        columns = []
        for r in roots:
            quot = [c % p for c in poly.div_linear(cyclotomic_polynomial(ell), r)[0]]
            scale = pow(poly.div_linear(quot, r)[1], -1, p)  # 1 / Phi_ell'(r) = 1 / quot(r)
            columns.append([c * scale % p for c in quot])
        table.append((p, roots, [list(row) for row in zip(*columns)]))
    return table[k]


def ratrec(u: int, m: int, bound: int):
    """Wang's rational reconstruction: (a, b) with a = b u (mod m), |a| and
    0 < b at most bound, gcd(a, b) = 1; None when there is no such pair.
    With 2 bound^2 <= m the pair is unique."""
    r0, r1, s0, s1 = m, u, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        s0, s1 = s1, s0 - q * s1
    if s1 < 0:
        r1, s1 = -r1, -s1
    if s1 > bound or math.gcd(r1, s1) != 1:
        return None
    return r1, s1


def _rref_mod(rows, ncols, p):
    """The reduced row echelon form mod the prime p of sparse rows (dicts
    column -> residue in 1 .. p-1), as ``matrices._rref`` returns it: the
    pivot rows as (column, {column: residue}) pairs in column order.

    Each row is packed into one int with a W-bit lane per column, so
    clearing a column in a row is one multiply-add R + (p - f) P on whole
    rows, P the pivot row (Dumas, Fousse and Salvy, J. Symb. Comput. 2011).
    The current column is always the lowest lane, read as (R & mask) % p:
    once it is done, each pivot row records its residue there if the column
    is free, and every row drops that lane by one shift.  Only a pivot row
    is reduced mod p, when it is chosen.  A pivot row has lanes below p, so
    each update adds at most (p - 1)^2 to a lane of the row it clears; after
    k <= rows updates a lane is below (p - 1) + k (p - 1)^2 < 2^W, and no
    lane carries into the next.  A cleared lane is a multiple of p, possibly
    nonzero, and is dropped with its column.
    """
    width = 2 * p.bit_length() + len(rows).bit_length() + 1
    mask = (1 << width) - 1
    packed = [sum(v << (width * j) for j, v in row.items()) for row in rows]
    unused = list(range(len(rows)))
    echelon = []  # (column, index of its row, {column: residue})
    for c in range(ncols):
        r = next((i for i in unused if (packed[i] & mask) % p), None)
        if r is None:
            for _, i, row in echelon:
                if v := (packed[i] & mask) % p:
                    row[c] = v
            packed = [R >> width for R in packed]
            continue
        unused.remove(r)
        # the pivot row scaled to 1 at c and reduced mod p
        R, P, j = packed[r], 0, 0
        s = pow((R & mask) % p, -1, p)
        while R:
            P |= (R & mask) * s % p << j
            R >>= width
            j += width
        packed[r] = 0
        packed = [(R + (p - f) * P if (f := (R & mask) % p) else R) >> width for R in packed]
        packed[r] = P >> width
        echelon.append((c, r, {c: 1}))
    return [(c, row) for c, _, row in echelon]


def _prime_budget(ctx, nrows, ncols, entries) -> int:
    """How many primes to try before falling back to exact elimination,
    computed before the second prime only (most eliminations need one).

    A reduced-echelon entry is a ratio of two r x r minors, r = min(rows,
    cols).  Rescaled to Z[zeta], each minor has embeddings below
    (r deg H)^r by Hadamard's bound, H the largest integer coefficient of
    a row rescaled by its denominators, and its inverse brings in the norm,
    a product of deg such embeddings.  Twice those bits, for numerator and
    denominator, bound the modulus rational reconstruction needs; each
    prime, above PRIME_TOP / 2, brings at least log2(PRIME_TOP) - 1."""
    deg = ctx._deg
    r = min(nrows, ncols)
    dens = {}
    for i, _, x in entries:
        dens[i] = dens.get(i, 0) + x.int_den[0].bit_length()
    top = max((max(map(abs, x.int_num)).bit_length() + dens[i] for i, _, x in entries),
              default=0)
    bits = 2 * deg * r * (top + (r * deg).bit_length()) + 2
    return bits // (PRIME_TOP.bit_length() - 2) + 2


def echelons(ctx, entries, nrows, ncols, want_basis: bool):
    """Candidates (pivot columns, pivot rows (column, {column: QScalar}))
    for the reduced echelon form of the nrows x ncols matrix over ctx =
    Q(zeta_ell) with the nonzeros entries (row, column, QScalar), from
    images mod primes; up to the prime budget or the last prime.

    An image of full rank under one ring map proves the rank, since rank_p
    <= rank <= min(rows, cols): with want_basis false, rank_p = rows or
    cols; with want_basis, rank_p = cols, which also proves the kernel {0}.
    That image's pivot columns come with None for rows, and nothing
    follows.  Otherwise every entry of the reduced echelon form right of its
    pivot (a slot) is interpolated over the roots and joined across primes
    by CRT, as long as the primes give the same pivot columns; a prime with
    more pivots, or the same number further left, replaces those before it,
    since mod p the pivots can only fall behind the exact ones.  At every
    joined prime the last slot is reconstructed first: right of every pivot,
    it is a ratio of minors of the full rank, so while the modulus is too
    small it is the one likely to fail, at the cost of deg ``ratrec`` calls
    (early termination: Monagan, ISSAC 2004); once it succeeds the other
    slots follow, up to the first that fails.
    """
    deg = ctx._deg
    full = ncols if want_basis else min(nrows, ncols)
    # each distinct entry is mapped once to all roots: a dense operator repeats its values
    where = {}  # (numerator, denominator) -> the positions holding it
    for i, j, x in entries:
        where.setdefault((x.int_num, x.int_den[0]), []).append((i, j))
    dens = {d for _, d in where}
    best = None  # (-rank, pivot columns) of the primes joined in modulus
    modulus, residues = 1, []
    budget = math.inf  # computed before the second prime: most eliminations stop at the first
    for k in count():
        if k == 1:
            budget = _prime_budget(ctx, nrows, ncols, entries)
        table = k < budget and cyclotomic_prime(ctx.ell, k)
        if not table:
            return  # past the budget, or no prime left
        p, roots, vinv = table
        if any(d % p == 0 for d in dens):
            continue  # no ring map to F_p: a denominator vanishes
        dinv = {d: pow(d, -1, p) for d in dens}
        powers = [[pow(root, t, p) for t in range(deg)] for root in roots]
        mapped = [[{} for _ in range(nrows)] for _ in roots]
        for (num, d), positions in where.items():
            for rows, v in zip(mapped, [sum(map(mul, num, pw)) * dinv[d] % p for pw in powers]):
                if v:
                    for i, j in positions:
                        rows[i][j] = v
        images = []  # the echelon form under zeta -> root, one root at a time
        for rows in mapped:
            pivots = _rref_mod(rows, ncols, p)
            if len(pivots) == full:
                yield [c for c, _ in pivots], None
                return
            images.append(pivots)
            if [c for c, _ in pivots] != [c for c, _ in images[0]]:
                break  # the embeddings disagree on the pivots
        else:
            cols = [c for c, _ in images[0]]
            pivot_set = set(cols)
            slots = [(e, f) for e, c in enumerate(cols) for f in range(c + 1, ncols)
                     if f not in pivot_set]
            vals = []
            for e, f in slots:
                at = [image[e][1].get(f, 0) for image in images]
                vals.extend(sum(map(mul, row, at)) % p for row in vinv)
            key = (-len(cols), cols)
            if best is None or key < best:
                best, modulus, residues = key, p, vals
            elif key == best:
                step = pow(modulus, -1, p)
                residues = [u + modulus * ((v - u) * step % p) for u, v in zip(residues, vals)]
                modulus *= p
            else:
                continue
            bound = math.isqrt(modulus // 2)
            rows = [{} for _ in cols]
            for s in range(-1, len(slots) - 1):  # the last slot first
                s %= len(slots)
                fracs = [ratrec(u, modulus, bound) for u in residues[s * deg:(s + 1) * deg]]
                if None in fracs:
                    break
                if any(a for a, _ in fracs):
                    e, f = slots[s]
                    den = math.lcm(*(b for _, b in fracs))
                    rows[e][f] = _lowest(ctx, [a * (den // b) for a, b in fracs], den)
            else:
                yield cols, list(zip(cols, rows))
