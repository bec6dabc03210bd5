"""Primes p = 1 (mod ell) below 2^30 with the roots of Phi_ell mod p, and
rational reconstruction: the number theory under the certified modular
elimination (``matrices._modular``) and the p-adic rational-root search
(``jordan.rational_roots``).  Below 2^30 every residue is one CPython
digit, so ``(y + f x) % p`` costs about a third of its time at 62 bits."""

from __future__ import annotations

import math

from . import poly
from .scalars import cyclotomic_polynomial

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
