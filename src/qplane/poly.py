"""Dense polynomials over an exact ring, and over the integers.

A polynomial is a little-endian tuple of coefficients: (c0, c1, ..., cd)
stands for c0 + c1 x + ... + cd x^d.  ``trim``, ``add`` and ``mul`` take
coefficients of any exact type whose zero is falsy: ints (numerators and
denominators in Q(q)) or QScalars (characteristic polynomials).
``div_linear`` divides by y - x by synthetic division, for x in a field
that holds the coefficients (a QScalar, or a Fraction over int
coefficients in the rational root search).  The integer helpers
``prem``, ``primitive``, ``primitive_gcd`` and ``div_exact`` work in Z[x]
without any division that leaves Z.  A polynomial is trimmed when its last
coefficient is nonzero, and the zero polynomial is ().  Every function here
but ``mul_into``, which adds a product into a list that it leaves untrimmed,
takes trimmed polynomials and returns trimmed tuples; ``trim`` is the one
way in for anything else.
"""

import math

from .errors import DivisionByZero


def trim(c):
    """Drop trailing zero coefficients."""
    end = len(c)
    while end and not c[end - 1]:
        end -= 1
    return tuple(c[:end])


def add(a, b):
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, y in enumerate(b):
        out[i] += y
    return trim(out)


def mul(a, b):
    if not a or not b:
        return ()
    out = [a[-1] * 0] * (len(a) + len(b) - 1)  # zeros of the coefficient type
    return tuple(mul_into(out, a, b))  # trimmed: a[-1] * b[-1] != 0, as there are no zero divisors


def mul_into(out, a, b, shift=0):
    """Add a * b * x^shift into the coefficient list out, in place."""
    for i, x in enumerate(a, shift):
        if x:
            j = i
            for y in b:
                if y:
                    out[j] += x * y
                j += 1
    return out


def div_linear(a, x):
    """(quotient, remainder) of a by y - x, by synthetic division; the
    remainder is the scalar a(x), and the quotient () for a constant a != ()."""
    quot = [None] * (len(a) - 1)
    acc = a[-1]
    for k in range(len(a) - 2, -1, -1):
        quot[k] = acc
        acc = a[k] + acc * x
    return tuple(quot), acc


# ---------------------------------------------------------------------------
# Z[x]: pseudo-division and the primitive remainder sequence
# ---------------------------------------------------------------------------

def prem(a, b):
    """The pseudo-remainder of a by b in Z[x]: the remainder of
    lc(b)^(deg a - deg b + 1) * a on division by b, which stays integral
    (a itself when deg a < deg b).  b must be nonzero.  a is scaled once,
    and the quotient lies in Z[x], so each of its coefficients is an exact
    // lc(b): O(len(a) + (deg a - deg b + 1) len(b)) operations."""
    if not b:
        raise DivisionByZero("polynomial division by zero")
    top = len(b) - 1
    if len(a) <= top:
        return a
    lc = b[-1]
    power = lc ** (len(a) - top)
    rem = [x * power for x in a]
    for k in range(len(a) - top - 1, -1, -1):
        # rem := rem - f x^k b, whose term at k + top cancels
        f = rem[k + top] // lc
        if f:
            for j in range(top):
                rem[k + j] -= f * b[j]
    return trim(rem[:top])


def primitive(a):
    """a divided by its content, with a positive leading coefficient; a
    must be nonzero."""
    c = math.gcd(*a)
    if a[-1] < 0:
        c = -c
    return a if c == 1 else tuple([x // c for x in a])


def primitive_gcd(a, b):
    """The primitive greatest common divisor of a and b in Z[x], with a
    positive leading coefficient (() when both are zero).

    Collins's primitive remainder sequence (JACM 14, 1967): every
    pseudo-remainder is made primitive before the next step, which keeps
    its coefficients from swelling as they do under Euclid over Q."""
    if not a or not b:
        return primitive(a or b) if a or b else ()
    a, b = primitive(a), primitive(b)
    if len(a) < len(b):
        a, b = b, a
    while len(b) > 1:
        r = prem(a, b)
        if not r:
            return b
        a, b = b, primitive(r)
    return (1,)


def div_exact(a, b):
    """The quotient a / b in Z[x], where b divides a exactly; raises
    ValueError when it does not."""
    if not b:
        raise DivisionByZero("polynomial division by zero")
    top = len(b) - 1
    lc = b[-1]
    rem = list(a)
    quot = [0] * max(len(a) - top, 0)
    for k in range(len(quot) - 1, -1, -1):
        f, r = divmod(rem[k + top], lc)
        if r:
            raise ValueError("inexact polynomial division")
        quot[k] = f
        if f:
            for j in range(top):
                rem[k + j] -= f * b[j]
    if any(rem[:top]):
        raise ValueError("inexact polynomial division")
    return tuple(quot)
