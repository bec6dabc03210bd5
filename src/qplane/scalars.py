"""Exact scalar arithmetic for the two coefficient regimes.

A scalar lives in one of two fields, fixed by a FieldContext.  In both it
is one canonical integer pair (int_num, int_den) of little-endian int
tuples, so equality is tuple equality:

* root-of-unity regime: the cyclotomic field Q(zeta_ell), represented as
  Q[x] modulo the cyclotomic polynomial Phi_ell, with q = zeta_ell.
  int_num is the integer coefficient vector, always of length deg(Phi_ell)
  and reduced modulo the monic integer polynomial Phi_ell, and int_den is
  the constant (d,) with d > 0 and gcd(d, *int_num) = 1.
* generic regime: the rational function field Q(q), a ratio of two integer
  polynomials in q: trimmed, coprime over Q, the gcd of all their
  coefficients together is 1, and lc(int_den) > 0.  Here q is an
  indeterminate and the order of q is treated as infinite.  Results are
  reduced by an integer gcd: the content alone when a side is constant, else
  a primitive remainder sequence (``poly.primitive_gcd``) and exact division
  in Z[q].

Printing, sorting and hashing read the pair too.  ``format_scalar`` and
``canonical_key`` divide every coefficient by lc(int_den): by d over
Q(zeta_ell), and over Q(q) to a monic denominator.  A scalar hashes as its
pair, or as its Fraction when it is rational, so that it hashes equal to
an equal int or Fraction.

All arithmetic is exact (Python big integers); nothing in this module rounds.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from . import poly
from .errors import BadIndex, DivisionByZero, MixedContext, ParseError, ZeroArgument

F0 = Fraction(0)
_ONE = (1,)  # the denominator 1, shared rather than a fresh tuple per scalar

INFINITE = math.inf  # the "order of q" in the generic regime

MAX_GENERIC_EXPONENT = 10_000  # the largest k parse_scalar accepts in q^k over Q(q)
# the largest order of q a Q(zeta_ell) context is built for: building one
# costs up to quadratic time in ell (Phi_ell and the table of x^m mod
# Phi_ell); the slowest measured below it (2-core Xeon VM, CPython 3.11.7)
# take 4.0 s at ell 9240, 2.8 s at 9360 and 2.3 s at 8400, and 10000 takes
# 0.8 s, while ell 10^6 ran past 20 s
MAX_ORDER = 10_000


def _order(ell):
    """ell as an order of q: a positive int (not a bool), or INFINITE for
    anything equal to it; BadIndex otherwise."""
    if type(ell) is int:
        if ell >= 1:
            return ell
    elif ell == INFINITE:
        return INFINITE
    raise BadIndex("the order must be a positive integer or INFINITE")


# ---------------------------------------------------------------------------
# polynomial rendering and the cyclotomic polynomials
# ---------------------------------------------------------------------------

def _pstr(c, lc=1):
    """Render c / lc (int coefficients, lc > 0) in the scalar grammar, ascending powers."""
    parts = []
    for k, coef in enumerate(c):
        if not coef:
            continue
        mag = Fraction(abs(coef), lc)
        if k == 0:
            body = str(mag)
        else:
            power = "q" if k == 1 else f"q^{k}"
            body = power if mag == 1 else f"{mag}*{power}"
        if not parts:
            parts.append(body if coef > 0 else "-" + body)
        else:
            parts.append((" + " if coef > 0 else " - ") + body)
    return "".join(parts) or "0"


@lru_cache(maxsize=None)
def cyclotomic_polynomial(ell: int):
    """Little-endian int coefficients of Phi_ell.

    Computed by dividing x^ell - 1 in Z[x] by the cyclotomic polynomials of
    the proper divisors of ell, which are monic, so every quotient is exact.
    """
    if ell < 1:
        raise ValueError("ell must be a positive integer")
    phi = (-1,) + (0,) * (ell - 1) + (1,)  # x^ell - 1
    for d in range(1, ell):
        if ell % d == 0:
            phi = poly.div_exact(phi, cyclotomic_polynomial(d))
    return phi


# ---------------------------------------------------------------------------
# field contexts
# ---------------------------------------------------------------------------

_CONTEXTS = {}  # order of q -> its one FieldContext


class FieldContext:
    """Fixes the coefficient field: Q(zeta_ell) or Q(q).

    ``ctx.ell`` is the multiplicative order of q: a positive integer for
    Q(zeta_ell), INFINITE for Q(q).  Contexts are built only through the
    factories below, which keep one immutable object per order, so two
    contexts are the same field exactly when they are the same object.
    """

    __slots__ = ("ell", "is_generic", "_deg", "_powers", "_reduction", "_conjugators",
                 "_zero", "_one")

    def __init__(self, ell):
        self.ell = ell
        self.is_generic = ell is INFINITE
        self._deg = 0
        self._powers = self._reduction = self._conjugators = ()
        if not self.is_generic:
            # Phi_ell is monic with integer coefficients: x^deg = -low
            low = cyclotomic_polynomial(ell)[:-1]
            deg = len(low)
            self._deg = deg
            # x^m mod Phi_ell for m < ell, as sparse (index, coefficient) rows
            powers = [((m, 1),) for m in range(deg)]
            row = [-c for c in low]
            for _ in range(deg, ell):
                powers.append(tuple((t, v) for t, v in enumerate(row) if v))
                top = row.pop()
                row.insert(0, 0)
                if top:
                    row = [v - top * c for v, c in zip(row, low)]
            self._powers = tuple(powers)
            # x^(deg+k) mod Phi_ell for k = 0 .. deg-1, since x^ell = 1
            self._reduction = tuple(powers[(deg + k) % ell] for k in range(deg))
            # the nontrivial Galois automorphisms q -> q^k, k a unit mod ell
            self._conjugators = tuple(k for k in range(2, ell) if math.gcd(k, ell) == 1)
        # shared by every caller: scalars are immutable
        self._zero, self._one = self.rational(0), self.rational(1)

    # -- construction -------------------------------------------------------

    @staticmethod
    def _intern(ell) -> "FieldContext":
        ctx = _CONTEXTS.get(ell)
        return ctx if ctx is not None else _CONTEXTS.setdefault(ell, FieldContext(ell))

    @staticmethod
    def root_of_unity(ell: int) -> "FieldContext":
        if type(ell) is not int or ell < 1:
            raise ValueError("root_of_unity needs a positive integer ell")
        if ell > MAX_ORDER:
            raise OverflowError(f"the order of q may be at most {MAX_ORDER}, got {ell}")
        return FieldContext._intern(ell)

    @staticmethod
    def generic() -> "FieldContext":
        return FieldContext._intern(INFINITE)

    @staticmethod
    def for_order(ell) -> "FieldContext":
        """Context with q of order ell (math.inf selects the generic field)."""
        if ell == INFINITE:
            return FieldContext.generic()
        return FieldContext.root_of_unity(ell)

    def __reduce__(self):
        # pickle and copy rebuild through the table, keeping one object per order
        return (FieldContext.for_order, (self.ell,))

    def __repr__(self):
        if self.is_generic:
            return "FieldContext(generic_q)"
        return f"FieldContext(cyclotomic, ell={self.ell})"

    # -- integer arithmetic on Q(zeta_ell) numerators -----------------------

    def _mul(self, a, b):
        """The product of two integer coefficient vectors, reduced mod Phi_ell."""
        deg = self._deg
        if deg == 1:
            return [a[0] * b[0]]
        return self._reduce(poly.mul_into([0] * (2 * deg), a, b))

    def _reduce(self, acc):
        """The int list acc, of 2 deg entries, reduced mod Phi_ell in place."""
        deg = self._deg
        for k, row in enumerate(self._reduction, deg):
            top = acc[k]
            if top:
                for t, v in row:
                    acc[t] += top * v
        del acc[deg:]
        return acc

    def _conjugate(self, a, k, shift=0):
        """sigma_k(a) * q^shift, for sigma_k(a) = a(q^k) the Galois conjugate
        of an integer vector."""
        out = [0] * self._deg
        ell, powers = self.ell, self._powers
        for i, c in enumerate(a):
            if c:
                for t, v in powers[(i * k + shift) % ell]:
                    out[t] += c * v
        return out

    # -- scalar factories ---------------------------------------------------

    def zero(self) -> "QScalar":
        return self._zero

    def one(self) -> "QScalar":
        return self._one

    def rational(self, value) -> "QScalar":
        c = Fraction(value)
        den = _ONE if c.denominator == 1 else (c.denominator,)
        if self.is_generic:
            return _build(self, (c.numerator,) if c else (), den)
        return _build(self, (c.numerator,) + (0,) * (self._deg - 1), den)

    def q(self) -> "QScalar":
        return self.q_power(1)

    def q_power(self, m: int) -> "QScalar":
        """The scalar q^m (m may be negative)."""
        if self.is_generic:
            if m >= 0:
                return _build(self, (0,) * m + (1,), _ONE)
            return _build(self, (1,), (0,) * (-m) + (1,))
        return _build(self, tuple(self._conjugate((1,), 1, m)), _ONE)  # 1 * q^m

    # -- serialization ------------------------------------------------------

    def to_obj(self):
        if self.is_generic:
            return {"type": "generic_q"}
        return {"type": "cyclotomic", "ell": self.ell}

    @staticmethod
    def from_obj(obj) -> "FieldContext":
        if not isinstance(obj, dict) or "type" not in obj:
            raise ParseError("field context must be an object with a 'type' key")
        kind = obj["type"]
        if kind == "generic_q":
            return FieldContext.generic()
        if kind == "cyclotomic":
            ell = obj.get("ell")
            if type(ell) is not int or ell < 1:
                raise ParseError("cyclotomic context needs a positive integer 'ell'")
            return FieldContext.root_of_unity(ell)
        raise ParseError(f"unknown field context type {kind!r}")


# ---------------------------------------------------------------------------
# scalars
# ---------------------------------------------------------------------------

_new = object.__new__


def _check_ctx(a, b):
    if a.ctx is not b.ctx:
        raise MixedContext(f"cannot combine {a.ctx!r} with {b.ctx!r}")


def _canonical(n, d, coprime=False):
    """The canonical integer pair for n/d: trimmed int tuples n and d != ()
    in, coprime over Q, content 1 and lc(d) > 0 out.  ``coprime`` says the
    caller knows n and d share no factor of positive degree."""
    if not n:
        return (), _ONE
    if not coprime:
        n, d = _cancel(n, d)
    c = math.gcd(*n, *d)
    if d[-1] < 0:
        c = -c
    if c != 1:
        n, d = tuple([x // c for x in n]), tuple([x // c for x in d])
    return n, d


def _cancel(a, b):
    """a and b divided by their common factor of positive degree."""
    if len(a) > 1 and len(b) > 1:
        g = poly.primitive_gcd(a, b)
        if len(g) > 1:
            return poly.div_exact(a, g), poly.div_exact(b, g)
    return a, b


def _generic_product(n, d, m, e):
    """The canonical pair of (n/d)(m/e), from two canonical pairs.

    The gcd of n m and d e is gcd(n, e) gcd(m, d), so the product needs
    only these two smaller gcds (Henrici, JACM 3, 1956)."""
    n, e = _cancel(n, e)
    m, d = _cancel(m, d)
    return _canonical(poly.mul(n, m), poly.mul(d, e), True)


def _generic_sum(n, d, m, e):
    """The canonical pair of n/d + m/e, from two canonical pairs.

    With g = gcd(d, e), d = g d', e = g e': the sum is (n e' + m d') / (g d' e'),
    and its numerator shares no factor with d' or e', so only its gcd with g
    is left to cancel (Henrici, JACM 3, 1956).  A constant denominator makes
    g = 1."""
    if d == e:
        return _canonical(poly.add(n, m), d)
    g = poly.primitive_gcd(d, e) if len(d) > 1 and len(e) > 1 else _ONE
    if len(g) == 1:
        return _canonical(poly.add(poly.mul(n, e), poly.mul(m, d)), poly.mul(d, e), True)
    d, e = poly.div_exact(d, g), poly.div_exact(e, g)
    num, g = _cancel(poly.add(poly.mul(n, e), poly.mul(m, d)), g)
    return _canonical(num, poly.mul(poly.mul(d, e), g), True)


def _build(ctx, n, d):
    """The scalar n/d from an integer pair already in canonical form, built
    without checks; every result of the arithmetic goes through here."""
    s = _new(QScalar)
    s.ctx, s.int_num, s.int_den = ctx, n, d
    return s


def _lowest(ctx, ints, d):
    """The Q(zeta_ell) scalar ints/d, for an int vector and a nonzero int d:
    the content reduction to lowest terms with d > 0, then the builder."""
    if d != 1:
        g = math.gcd(d, *ints)
        if d < 0:
            g = -g
        if g != 1:
            ints = [x // g for x in ints]
            d //= g
        if d != 1:
            return _build(ctx, tuple(ints), (d,))
    return _build(ctx, tuple(ints), _ONE)


def _q_times(a):
    """q a, for a nonzero Q(q) scalar a = n / d: n / (d / q) when q divides
    d, else q n / d, each a canonical pair already, so no gcd is taken."""
    n, d = a.int_num, a.int_den
    return _build(a.ctx, n, d[1:]) if not d[0] else _build(a.ctx, (0,) + n, d)


def _mul_add(ctx, acc, den, x, y, shift=0, sign=1):
    """Add sign * x * y * q^shift, for Q(zeta_ell) scalars x and y, into the
    unreduced sum acc / den (2 deg ints, changed in place) and return its
    new denominator; the sum is ``_lowest(ctx, ctx._reduce(acc), den)``."""
    t = x.int_den[0] * y.int_den[0]
    if den % t:
        m = t // math.gcd(den, t)
        acc[:] = [v * m for v in acc]
        den *= m
    f = sign * (den // t)
    poly.mul_into(acc, x.int_num if f == 1 else [v * f for v in x.int_num], y.int_num, shift)
    return den


class QScalar:
    """An exact element of the coefficient field of a FieldContext.

    The value is int_num / int_den, a canonical pair of little-endian int
    tuples (see the module docstring), so equality is tuple equality.
    Root-of-unity regime: int_num is the reduced coefficient vector of
    length deg(Phi_ell) and int_den is (d,).  Generic regime: two coprime
    integer polynomials in q.  The constructor takes an int vector ``ints``
    over ``d`` (Q(zeta_ell)) or ``num``/``den`` as tuples of ints or
    Fractions (Q(q)) and reduces them.  Values are immutable; all
    arithmetic returns fresh scalars.
    """

    __slots__ = ("ctx", "int_num", "int_den")

    def __init__(self, ctx, ints=None, d=1, num=None, den=None):
        self.ctx = ctx
        if ctx.is_generic:
            num, den = poly.trim(num), poly.trim(den)
            if not den:
                raise DivisionByZero("zero denominator")
            # clear the denominators of the coefficients: ints have denominator 1
            m = math.lcm(*(c.denominator for c in num), *(c.denominator for c in den))
            self.int_num, self.int_den = _canonical(
                tuple(c.numerator * (m // c.denominator) for c in num),
                tuple(c.numerator * (m // c.denominator) for c in den))
        else:
            assert len(ints) == ctx._deg
            if not d:
                raise DivisionByZero("zero denominator")
            reduced = _lowest(ctx, ints, d)
            self.int_num, self.int_den = reduced.int_num, reduced.int_den

    def __reduce__(self):
        # __slots__ without __getstate__ does not pickle at protocols 0 and 1
        return (_build, (self.ctx, self.int_num, self.int_den))

    # -- coercion -----------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, QScalar):
            if other.ctx is not self.ctx:
                _check_ctx(self, other)
            return other
        if isinstance(other, (int, Fraction)):
            return self.ctx.rational(other)
        return None

    # -- predicates ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not any(self.int_num)

    def __bool__(self):
        return not self.is_zero()

    def as_rational(self):
        """The value as a Fraction if it is rational, else None."""
        n, d = self.int_num, self.int_den
        if len(d) > 1 or any(n[1:]):
            return None
        return Fraction(n[0], d[0]) if n else F0

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if self.ctx.is_generic:
            return _build(self.ctx, *_generic_sum(self.int_num, self.int_den,
                                                  o.int_num, o.int_den))
        a, b, (d,), (e,) = self.int_num, o.int_num, self.int_den, o.int_den
        if d == e:
            return _lowest(self.ctx, [x + y for x, y in zip(a, b)], d)
        g = math.gcd(d, e)
        d, e = d // g, e // g
        return _lowest(self.ctx, [x * e + y * d for x, y in zip(a, b)], d * e * g)

    __radd__ = __add__

    def __neg__(self):
        # the negation of a canonical pair is canonical
        return _build(self.ctx, tuple([-x for x in self.int_num]), self.int_den)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        ctx = self.ctx
        if ctx.is_generic:
            return _build(ctx, *_generic_product(self.int_num, self.int_den,
                                                 o.int_num, o.int_den))
        return _lowest(ctx, ctx._mul(self.int_num, o.int_num), self.int_den[0] * o.int_den[0])

    __rmul__ = __mul__

    def inverse(self) -> "QScalar":
        if self.is_zero():
            raise DivisionByZero("inverse of zero")
        ctx = self.ctx
        if ctx.is_generic:  # swapped, the pair stays canonical up to its sign
            return _build(ctx, *_canonical(self.int_den, self.int_num, True))
        a, (d,) = self.int_num, self.int_den
        if not any(a[1:]):  # rational: d / a_0, without the norm
            return _lowest(ctx, [d] + [0] * (ctx._deg - 1), a[0])
        # a^-1 = prod_{sigma != 1} sigma(a) / N(a), with a = int_num / d
        others = [1] + [0] * (ctx._deg - 1)
        for k in ctx._conjugators:
            others = ctx._mul(others, ctx._conjugate(a, k))
        norm = ctx._mul(a, others)
        assert norm[0] and not any(norm[1:]), "the norm must be a nonzero rational"
        return _lowest(ctx, [x * d for x in others], norm[0])

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int):
            return NotImplemented
        base = self
        if exponent < 0:
            base = self.inverse()
            exponent = -exponent
        out = self.ctx.one()
        while exponent:
            if exponent & 1:
                out = out * base
            base = base * base
            exponent >>= 1
        return out

    # -- comparison ---------------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.ctx.rational(other)
        if not isinstance(other, QScalar):
            return NotImplemented
        return (self.ctx is other.ctx and self.int_num == other.int_num
                and self.int_den == other.int_den)

    def __hash__(self):
        r = self.as_rational()
        return hash((self.int_num, self.int_den)) if r is None else hash(r)

    def __repr__(self):
        return f"<{format_scalar(self)}>"


def _coeff_keys(ints, lc):
    """The keys of c / lc for c in ints (lc > 0): magnitude before sign, so
    1 sorts ahead of -1; the magnitude is a plain int when lc is 1."""
    if lc == 1:
        return tuple([(abs(c), 0 if c >= 0 else 1) for c in ints])
    return tuple([(Fraction(abs(c), lc), 0 if c >= 0 else 1) for c in ints])


def canonical_key(a: QScalar):
    """A deterministic sort key on scalars of one context.

    Compares the canonical coefficient vectors lexicographically, each
    coefficient by magnitude and then sign; used to fix block orderings and
    class-base choices.  Every coefficient of the pair is divided by
    lc = int_den[-1]: over Q(zeta_ell) that is the denominator d, and over
    Q(q) it makes the denominator monic.
    """
    lc = a.int_den[-1]
    if a.ctx.is_generic:
        return (_coeff_keys(a.int_num, lc), _coeff_keys(a.int_den, lc))
    return _coeff_keys(a.int_num, lc)


def substitute_q_inverse(a: QScalar) -> QScalar:
    """The image of a under the field map q -> 1/q.

    On a root-of-unity context this is the Galois automorphism sending the
    root to its inverse; on the generic context it substitutes 1/q into the
    rational function and renormalizes.
    """
    ctx = a.ctx
    if ctx.is_generic:
        # q^top n(1/q) / q^top d(1/q): the reversals stay coprime (q divides
        # at most one of them)
        n, d = a.int_num, a.int_den
        top = max(len(n), len(d))
        n = poly.trim((0,) * (top - len(n)) + n[::-1])
        d = poly.trim((0,) * (top - len(d)) + d[::-1])
        return _build(ctx, *_canonical(n, d, True))
    # a Galois conjugate of a canonical pair is canonical: sigma is unimodular
    return _build(ctx, tuple(ctx._conjugate(a.int_num, ctx.ell - 1)), a.int_den)


# ---------------------------------------------------------------------------
# q-equivalence
# ---------------------------------------------------------------------------

def q_orbit(a: QScalar):
    """(key, k) with a = b * q^k, where b is the member of the q-orbit of a
    that the hashable key names.  Two nonzero scalars of one context are
    q-equivalent exactly when their keys are equal.

    Generic regime: b is a with its q-adic valuation k stripped from the
    integer pair (int_num, int_den), which keeps the pair canonical, and the
    key is that pair of b.  Root-of-unity regime: b is the member
    a * q^(-k), 0 <= k < ell, with the least (int_num, d); q acts on the
    integer vector unimodularly, so every member keeps the denominator d in
    lowest terms.
    """
    if a.is_zero():
        raise ZeroArgument("q-orbits are defined for nonzero scalars")
    ctx = a.ctx
    if ctx.is_generic:
        n, d = a.int_num, a.int_den
        low_num = next(i for i, c in enumerate(n) if c)
        low_den = next(i for i, c in enumerate(d) if c)
        return (n[low_num:], d[low_den:]), low_num - low_den
    ints, j = min((tuple(ctx._conjugate(a.int_num, 1, j)), j) for j in range(ctx.ell))
    return (ints, a.int_den[0]), -j % ctx.ell


def q_equivalent(a: QScalar, b: QScalar):
    """The exponent m with a = b * q^m, or None if no such integer exists.

    Root-of-unity regime: the least nonnegative such m.  Generic regime: the
    exponent is unique but may be negative, and the signed value is returned
    so that the relation stays symmetric.
    """
    _check_ctx(a, b)
    (key_a, k_a), (key_b, k_b) = q_orbit(a), q_orbit(b)
    if key_a != key_b:
        return None
    return k_a - k_b if a.ctx.is_generic else (k_a - k_b) % a.ctx.ell


# ---------------------------------------------------------------------------
# parsing and formatting
# ---------------------------------------------------------------------------

def format_scalar(a: QScalar) -> str:
    """Canonical string form (over Q(q) of the monic view); parse_scalar inverts it exactly."""
    n, d = a.int_num, a.int_den
    lc = d[-1]
    if len(d) == 1:
        return _pstr(n, lc)
    return f"({_pstr(n, lc)})/({_pstr(d, lc)})"


class _Scanner:
    """Reads text[pos:end] in place: every position counts from the start of text."""

    def __init__(self, text, pos=0, end=None):
        self.text = text
        self.pos = pos
        self.end = len(text) if end is None else end

    def skip_ws(self):
        while self.pos < self.end and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self):
        return self.text[self.pos] if self.pos < self.end else ""

    def integer(self):
        start = self.pos
        while self.pos < self.end and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            raise ParseError("expected a digit", start)
        return int(self.text[start:self.pos])


def _parse_exponent(scan: _Scanner, ctx: FieldContext) -> int:
    """The k of an optional '^k' after q (1 when absent).

    In Q(q) the scalar q^k holds k + 1 coefficients, so k is capped there.
    """
    if scan.peek() != "^":
        return 1
    scan.pos += 1
    start = scan.pos
    k = scan.integer()
    if ctx.is_generic and k > MAX_GENERIC_EXPONENT:
        raise ParseError(f"exponent of q above {MAX_GENERIC_EXPONENT}", start)
    return k


def _parse_poly_sum(scan: _Scanner, ctx: FieldContext) -> QScalar:
    """The signed sum that fills the scanner up to its end bound."""
    total = ctx.zero()
    first = True
    while True:
        scan.skip_ws()
        ch = scan.peek()
        if ch == "":
            if first:
                raise ParseError("empty scalar expression", scan.pos)
            return total
        sign = 1
        if ch in "+-":
            if first and ch == "+":
                raise ParseError("unexpected leading '+'", scan.pos)
            sign = -1 if ch == "-" else 1
            scan.pos += 1
            scan.skip_ws()
            ch = scan.peek()
        elif not first:
            raise ParseError("expected '+' or '-' between terms", scan.pos)
        first = False
        # term: rational [* q-power] | q-power
        if ch.isdigit():
            numerator = scan.integer()
            coeff = Fraction(numerator)
            if scan.peek() == "/":
                scan.pos += 1
                denom_pos = scan.pos
                denominator = scan.integer()
                if denominator == 0:
                    raise DivisionByZero(f"zero denominator at position {denom_pos}")
                coeff = Fraction(numerator, denominator)
            exponent = 0
            save = scan.pos
            scan.skip_ws()
            if scan.peek() == "*":
                scan.pos += 1
                scan.skip_ws()
                if scan.peek() != "q":
                    raise ParseError("expected 'q' after '*'", scan.pos)
                scan.pos += 1
                exponent = _parse_exponent(scan, ctx)
            else:
                scan.pos = save
        elif ch == "q":
            scan.pos += 1
            coeff = 1
            exponent = _parse_exponent(scan, ctx)
        else:
            raise ParseError(f"unexpected character {ch!r}" if ch
                             else "missing term after the sign", scan.pos)
        term = ctx.q_power(exponent) * coeff if exponent else ctx.rational(coeff)
        total = total + (term if sign > 0 else -term)


def parse_scalar(text: str, ctx: FieldContext) -> QScalar:
    """Parse the scalar grammar: signed sums of rational, rational*q^k, q^k, q.

    In the generic regime a top-level ratio "(sum)/(sum)" is also accepted,
    which is what format_scalar emits for elements with a nontrivial
    denominator.
    """
    if not isinstance(text, str):
        raise ParseError("scalar input must be a string")
    stripped = text.strip()
    if ctx.is_generic and stripped.startswith("(") and stripped.endswith(")") \
            and ")/(" in stripped:
        start = len(text) - len(text.lstrip())
        split = text.index(")/(", start)
        num = _parse_poly_sum(_Scanner(text, start + 1, split), ctx)
        den = _parse_poly_sum(_Scanner(text, split + 3, start + len(stripped) - 1), ctx)
        if den.is_zero():
            raise DivisionByZero("zero denominator polynomial")
        return num / den
    return _parse_poly_sum(_Scanner(text), ctx)
