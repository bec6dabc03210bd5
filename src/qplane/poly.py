"""Dense polynomials over an exact field.

A polynomial is a little-endian tuple of coefficients: (c0, c1, ..., cd)
stands for c0 + c1 x + ... + cd x^d.  The coefficients may be of any exact
field type whose zero is falsy: Fractions (numerators and denominators in
Q(q), the cyclotomic polynomials) or QScalars (characteristic polynomials).
A polynomial is trimmed when its last coefficient is nonzero, and the zero
polynomial is ().  Every function here takes trimmed polynomials and returns
trimmed tuples; ``trim`` is the one way in for anything else.
"""

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


def neg(a):
    return tuple(-x for x in a)


def mul(a, b):
    if not a or not b:
        return ()
    out = [a[-1] * 0] * (len(a) + len(b) - 1)  # zeros of the coefficient type
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] += x * y
    return tuple(out)  # trimmed: a[-1] * b[-1] is nonzero in a field


def scale(a, c):
    if not c:
        return ()
    return tuple(x * c for x in a)


def div(a, b):
    """(quotient, remainder) of a by b; b must be nonzero.

    The leading coefficient of b is inverted once, and the quotient holds
    the computed coefficients, so no arithmetic builds a zero.
    """
    if not b:
        raise DivisionByZero("polynomial division by zero")
    top = len(b) - 1
    inv = 1 / b[-1]
    rem = list(a)
    quot = [None] * max(len(a) - top, 0)
    for k in range(len(quot) - 1, -1, -1):
        f = quot[k] = rem[k + top] * inv
        if f:
            for j in range(top):
                rem[k + j] -= f * b[j]
    # rem[k + top] cancels exactly at every step, so only the low part is left
    return tuple(quot), trim(rem[:top])


def gcd(a, b):
    """The monic greatest common divisor (() when both are zero)."""
    while b:
        a, b = b, div(a, b)[1]
    return scale(a, 1 / a[-1]) if a else a


def div_linear(a, x):
    """(quotient, remainder) of a by y - x, by synthetic division; the
    remainder is the scalar a(x).  a must be nonconstant."""
    quot = [None] * (len(a) - 1)
    acc = a[-1]
    for k in range(len(a) - 2, -1, -1):
        quot[k] = acc
        acc = a[k] + acc * x
    return tuple(quot), acc


def evaluate(a, x):
    """a(x) by Horner's rule."""
    if not a:
        return 0 * x
    acc = a[-1]
    for k in range(len(a) - 2, -1, -1):
        acc = acc * x + a[k]
    return acc

