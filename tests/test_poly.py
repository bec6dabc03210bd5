"""The dense-polynomial layer, over Fractions and over QScalar coefficients.

Over Q the helpers are checked against sympy; over Q(zeta_ell) and Q(q),
where sympy has no matching domain, against the defining identities.  The
Q(q) scalar arithmetic built on them is checked against sympy.cancel.
"""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
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
@given(fraction_polys, nonzero_fraction_polys)
def test_div_matches_sympy(a, b):
    sympy = pytest.importorskip("sympy")
    quot, rem = sympy.div(to_sympy(sympy, a), to_sympy(sympy, b))
    assert poly.div(a, b) == (from_sympy(quot), from_sympy(rem))


@settings(max_examples=150, deadline=None)
@given(fraction_polys, fraction_polys, fraction_polys)
def test_gcd_matches_sympy(a, b, common):
    sympy = pytest.importorskip("sympy")
    a, b = poly.mul(a, common), poly.mul(b, common)
    expected = to_sympy(sympy, a).gcd(to_sympy(sympy, b))
    assert poly.gcd(a, b) == from_sympy(expected)


@settings(max_examples=150, deadline=None)
@given(fraction_polys, fraction_polys, small)
def test_ring_operations_match_sympy(a, b, x):
    sympy = pytest.importorskip("sympy")
    A, B = to_sympy(sympy, a), to_sympy(sympy, b)
    assert poly.add(a, b) == from_sympy(A + B)
    assert poly.add(a, poly.neg(b)) == from_sympy(A - B)
    assert poly.mul(a, b) == from_sympy(A * B)
    assert poly.scale(a, x) == from_sympy(A * sympy.Rational(x.numerator, x.denominator))
    assert poly.evaluate(a, x) == A.eval(sympy.Rational(x.numerator, x.denominator))


def test_trim_and_division_by_zero():
    assert poly.trim([Fraction(1), Fraction(0), Fraction(0)]) == (Fraction(1),)
    assert poly.trim((0, 0)) == ()
    with pytest.raises(DivisionByZero):
        poly.div((Fraction(1),), ())


def test_coefficient_tuples_stay_homogeneous():
    a = (Fraction(1), Fraction(0), Fraction(2))
    b = (Fraction(0), Fraction(3))
    for out in (poly.mul(a, b), *poly.div(a, b), poly.add(a, b)):
        assert all(type(c) is Fraction for c in out)


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
    """A field and two polynomials over it, the second nonzero.

    The sizes stay small because Euclid over Q(q) swells coefficients:
    one gcd of a degree-6 polynomial with its derivative took 17 s.
    """
    ctx = draw(st.sampled_from(CONTEXTS))
    a = draw(scalar_polys(ctx, max_size))
    b = draw(scalar_polys(ctx, max_size).filter(bool))
    return ctx, a, b


@settings(max_examples=40, deadline=None)
@given(field_and_polys(max_size=4))
def test_division_identity_over_scalars(case):
    _, a, b = case
    quot, rem = poly.div(a, b)
    assert len(rem) < len(b)
    assert poly.add(poly.mul(quot, b), rem) == a


@settings(max_examples=40, deadline=None)
@given(field_and_polys(max_size=3))
def test_gcd_over_scalars_is_monic_and_divides_both(case):
    ctx, a, b = case
    common = poly.trim([ctx.one(), ctx.q()])  # 1 + q x, so the gcd is nontrivial
    a, b = poly.mul(a, common), poly.mul(b, common)
    g = poly.gcd(a, b)
    assert g[-1] == ctx.one()
    assert len(g) >= 2
    assert not poly.div(a, g)[1] and not poly.div(b, g)[1]


@settings(max_examples=40, deadline=None)
@given(field_and_polys(max_size=5))
def test_synthetic_division_matches_long_division(case):
    ctx, a, b = case
    assume(len(a) >= 2)
    x = b[-1]
    quot, rem = poly.div_linear(a, x)
    assert (quot, poly.trim((rem,))) == poly.div(a, (-x, ctx.one()))
    assert rem == poly.evaluate(a, x)


# ---------------------------------------------------------------------------
# Q(q) scalars against sympy.cancel
# ---------------------------------------------------------------------------

@st.composite
def generic_scalars(draw):
    num = draw(fraction_polys)
    den = draw(nonzero_fraction_polys)
    return QScalar(GEN, num=num, den=den)


def generic_to_sympy(sympy, a):
    return (to_sympy(sympy, a.num, "q").as_expr()
            / to_sympy(sympy, a.den, "q").as_expr())


def assert_canonical_equal(sympy, ours, expected):
    """ours equals expected as a rational function, and is stored reduced
    with a monic denominator."""
    assert sympy.cancel(generic_to_sympy(sympy, ours) - expected) == 0
    assert ours.den[-1] == 1
    num, den = to_sympy(sympy, ours.num), to_sympy(sympy, ours.den)
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
