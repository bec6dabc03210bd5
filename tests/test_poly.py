"""The dense-polynomial layer, over Q, over Z and over QScalar coefficients.

Over Q and Z the helpers are checked against sympy; over Q(zeta_ell) and
Q(q), where sympy has no matching domain, against the defining identities.
The Q(q) scalar arithmetic built on them is checked against sympy.cancel.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from qplane import (DivisionByZero, FieldContext, QScalar, format_scalar,
                    substitute_q_inverse)
from qplane import poly

GEN = FieldContext.generic()

small = st.fractions(min_value=-6, max_value=6, max_denominator=4)
fraction_polys = st.lists(small, max_size=6).map(poly.trim)
nonzero_fraction_polys = fraction_polys.filter(bool)


def to_sympy(sympy, coeffs, var="x"):
    return sympy.Poly([sympy.Rational(c.numerator, c.denominator)
                       for c in reversed(coeffs)] or [0], sympy.Symbol(var),
                      domain="QQ")


def from_sympy(p):
    return poly.trim(tuple(Fraction(int(c.p), int(c.q))
                           for c in reversed(p.all_coeffs())))


# ---------------------------------------------------------------------------
# over Q, against sympy
# ---------------------------------------------------------------------------

@settings(max_examples=150, deadline=None)
@given(fraction_polys, fraction_polys)
def test_ring_operations_match_sympy(a, b):
    sympy = pytest.importorskip("sympy")
    A, B = to_sympy(sympy, a), to_sympy(sympy, b)
    assert poly.add(a, b) == from_sympy(A + B)
    assert poly.add(a, tuple(-x for x in b)) == from_sympy(A - B)
    assert poly.mul(a, b) == from_sympy(A * B)


def test_trim_and_division_by_zero():
    assert poly.trim([Fraction(1), Fraction(0), Fraction(0)]) == (Fraction(1),)
    assert poly.trim((0, 0)) == ()
    with pytest.raises(DivisionByZero):
        poly.div_exact((1,), ())


def test_coefficient_tuples_stay_homogeneous():
    a = (Fraction(1), Fraction(0), Fraction(2))
    b = (Fraction(0), Fraction(3))
    quot, rem = poly.div_linear(a, Fraction(1, 2))
    for out in (poly.mul(a, b), quot, (rem,), poly.add(a, b)):
        assert all(type(c) is Fraction for c in out)


# ---------------------------------------------------------------------------
# over Z: pseudo-remainder, primitive gcd and exact division, against sympy
# ---------------------------------------------------------------------------

HUGE = 2 ** 200
huge_ints = st.one_of(st.integers(-HUGE, HUGE), st.integers(-9, 9))


def int_polys(max_size):
    return st.lists(huge_ints, max_size=max_size).map(poly.trim)


def zz_poly(sympy, coeffs):
    return sympy.Poly(list(reversed(coeffs)) or [0], sympy.Symbol("x"), domain="ZZ")


def from_zz(p):
    return poly.trim(tuple(int(c) for c in reversed(p.all_coeffs())))


def assert_ints(*polys):
    for p in polys:
        assert type(p) is tuple and all(type(c) is int for c in p)


@settings(max_examples=100, deadline=None)
@given(int_polys(13), int_polys(13).filter(bool))
@example((1, 2, 3, 4, 5), (3, -2, 7))  # non-monic
@example((4, -1, 0, 9), (5, -3))  # a negative leading coefficient
@example((1,) + (0,) * 199 + (1,), (1, 0, 2))  # long by short, non-monic
@example((1,) + (0,) * 199 + (1,), (1, 0, 1))  # long by short, monic
def test_prem_matches_sympy(a, b):
    sympy = pytest.importorskip("sympy")
    r = poly.prem(a, b)
    assert_ints(r)
    assert r == from_zz(sympy.prem(zz_poly(sympy, a), zz_poly(sympy, b)))


@settings(max_examples=100, deadline=None)
@given(int_polys(5), int_polys(5), int_polys(5))
def test_primitive_gcd_matches_sympy(a, b, common):
    sympy = pytest.importorskip("sympy")
    a, b = poly.mul(a, common), poly.mul(b, common)  # degrees up to 12
    g = poly.primitive_gcd(a, b)
    assert_ints(g)
    if not a and not b:
        assert g == ()
        return
    expected = from_zz(zz_poly(sympy, a).gcd(zz_poly(sympy, b)).primitive()[1])
    if expected[-1] < 0:
        expected = tuple(-c for c in expected)
    assert g == expected
    assert g[-1] > 0 and poly.primitive(g) == g


@settings(max_examples=100, deadline=None)
@given(int_polys(7), int_polys(7).filter(bool))
def test_div_exact_matches_sympy(a, b):
    sympy = pytest.importorskip("sympy")
    product = poly.mul(a, b)
    quot = poly.div_exact(product, b)
    assert_ints(quot)
    assert quot == a == from_zz(sympy.exquo(zz_poly(sympy, product), zz_poly(sympy, b)))
    if len(b) > 1:
        with pytest.raises(ValueError):
            poly.div_exact(poly.add(product, (1,)), b)


def test_integer_helpers_on_small_cases():
    assert poly.prem((5, 2, 0, 3), (1, 2)) == (29,)
    assert poly.prem((1, 2), (1, 0, 1)) == (1, 2)  # deg a < deg b: a itself
    assert poly.primitive((-4, 2, -6)) == (2, -1, 3)
    assert poly.primitive_gcd((), ()) == ()
    assert poly.primitive_gcd((), (0, -2, 4)) == (0, -1, 2)
    assert poly.primitive_gcd((1, 1), (2, 3)) == (1,)
    assert poly.div_exact((), (3, 1)) == ()
    with pytest.raises(DivisionByZero):
        poly.prem((1,), ())
    with pytest.raises(ValueError):
        poly.div_exact((1, 1), (2,))


# ---------------------------------------------------------------------------
# over Q(zeta_ell) and Q(q), by identities
# ---------------------------------------------------------------------------

CONTEXTS = (FieldContext.root_of_unity(3), FieldContext.root_of_unity(5), GEN)


@st.composite
def scalar_polys(draw, ctx, max_size):
    """A trimmed polynomial whose coefficients are small field elements."""
    def scalar():
        terms = draw(st.lists(st.tuples(small, st.integers(-1, 2)), max_size=2))
        out = ctx.zero()
        for c, k in terms:
            out = out + ctx.rational(c) * ctx.q_power(k)
        return out
    return poly.trim([scalar() for _ in range(draw(st.integers(0, max_size)))])


@st.composite
def field_and_polys(draw, max_size):
    """A field and two polynomials over it, the second nonzero."""
    ctx = draw(st.sampled_from(CONTEXTS))
    a = draw(scalar_polys(ctx, max_size))
    b = draw(scalar_polys(ctx, max_size).filter(bool))
    return ctx, a, b


@settings(max_examples=40, deadline=None)
@given(field_and_polys(max_size=5))
def test_synthetic_division_matches_long_division(case):
    ctx, a, b = case
    assume(len(a) >= 2)
    x = b[-1]
    quot, rem = poly.div_linear(a, x)
    assert len(quot) == len(a) - 1
    # a == quot * (y - x) + rem, and the remainder is a(x)
    assert a == poly.add(poly.mul(quot, (-x, ctx.one())), poly.trim((rem,)))
    assert rem == sum((c * x ** k for k, c in enumerate(a)), ctx.zero())


# ---------------------------------------------------------------------------
# Q(q) scalars against sympy.cancel
# ---------------------------------------------------------------------------

@st.composite
def generic_scalars(draw):
    num = draw(fraction_polys)
    den = draw(nonzero_fraction_polys)
    return QScalar(GEN, num=num, den=den)


def generic_to_sympy(sympy, a):
    return (to_sympy(sympy, a.int_num, "q").as_expr()
            / to_sympy(sympy, a.int_den, "q").as_expr())


def assert_canonical_equal(sympy, ours, expected):
    """ours equals expected as a rational function, and is stored reduced:
    coprime, content 1 and a positive leading denominator coefficient."""
    assert sympy.cancel(generic_to_sympy(sympy, ours) - expected) == 0
    assert ours.int_den[-1] > 0
    assert math.gcd(*ours.int_num, *ours.int_den) == 1
    num, den = to_sympy(sympy, ours.int_num), to_sympy(sympy, ours.int_den)
    assert num.is_zero or num.gcd(den).degree() == 0


@settings(max_examples=40, deadline=None)
@given(generic_scalars(), generic_scalars())
def test_generic_arithmetic_matches_sympy_cancel(a, b):
    sympy = pytest.importorskip("sympy")
    A, B = generic_to_sympy(sympy, a), generic_to_sympy(sympy, b)
    assert_canonical_equal(sympy, a + b, sympy.cancel(A + B))
    assert_canonical_equal(sympy, a - b, sympy.cancel(A - B))
    assert_canonical_equal(sympy, a * b, sympy.cancel(A * B))
    if b:
        assert_canonical_equal(sympy, a / b, sympy.cancel(A / B))
    q = sympy.Symbol("q")
    assert_canonical_equal(sympy, substitute_q_inverse(a),
                           sympy.cancel(A.subs(q, 1 / q)))
    assert format_scalar(a * b) == format_scalar(b * a)
