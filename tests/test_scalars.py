import copy
import math
import pickle
import random
import re
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qplane import (BadIndex, DivisionByZero, FieldContext, INFINITE, MixedContext,
                    ParseError, QScalar, ZeroArgument, canonical_key,
                    cyclotomic_polynomial, format_scalar, parse_scalar,
                    q_equivalent, q_orbit, substitute_q_inverse)
from qplane.scalars import MAX_GENERIC_EXPONENT, MAX_ORDER, _build, _order, _q_times

C3 = FieldContext.root_of_unity(3)
C4 = FieldContext.root_of_unity(4)
GEN = FieldContext.generic()
F1 = Fraction(1)

rationals = st.fractions(min_value=-50, max_value=50, max_denominator=9)


def random_scalar(ctx, rng):
    if ctx.is_generic:
        num = [Fraction(rng.randint(-6, 6)) for _ in range(rng.randint(1, 3))]
        den = [Fraction(rng.randint(-6, 6)) for _ in range(rng.randint(1, 3))]
        if not any(den):
            den = [Fraction(1)]
        x = ctx.zero()
        q = ctx.q()
        acc_n = ctx.zero()
        acc_d = ctx.zero()
        for k, c in enumerate(num):
            acc_n = acc_n + ctx.rational(c) * q ** k
        for k, c in enumerate(den):
            acc_d = acc_d + ctx.rational(c) * q ** k
        return acc_n / acc_d
    deg = len(cyclotomic_polynomial(ctx.ell)) - 1
    x = ctx.zero()
    q = ctx.q()
    for k in range(deg):
        x = x + ctx.rational(Fraction(rng.randint(-6, 6))) * q ** k
    return x


# ---------------------------------------------------------------------------
# cyclotomic polynomials
# ---------------------------------------------------------------------------

def test_cyclotomic_small_values_match_known_tables():
    assert cyclotomic_polynomial(1) == (Fraction(-1), Fraction(1))
    assert cyclotomic_polynomial(2) == (Fraction(1), Fraction(1))
    assert cyclotomic_polynomial(4) == (Fraction(1), Fraction(0), Fraction(1))
    assert cyclotomic_polynomial(6) == (Fraction(1), Fraction(-1), Fraction(1))


def test_cyclotomic_degree_is_euler_totient():
    known_totients = {1: 1, 2: 1, 3: 2, 4: 2, 5: 4, 6: 2, 8: 4, 12: 4}
    for ell, phi in known_totients.items():
        assert len(cyclotomic_polynomial(ell)) - 1 == phi


def test_cyclotomic_polynomials_are_integral_and_match_sympy():
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    for ell in range(1, 61):
        phi = cyclotomic_polynomial(ell)
        assert type(phi) is tuple and all(type(c) is int for c in phi)
        expected = sympy.Poly(sympy.cyclotomic_poly(ell, x), x).all_coeffs()[::-1]
        assert phi == tuple(int(c) for c in expected)


# ---------------------------------------------------------------------------
# field operations
# ---------------------------------------------------------------------------

def test_q_squared_is_minus_one_at_order_four():
    q = C4.q()
    assert q * q == C4.rational(-1)


def test_generic_polynomial_division():
    q = GEN.q()
    one = GEN.one()
    assert (q * q - one) / (q - one) == q + one


def test_q_plus_one_vanishes_at_order_two():
    c2 = FieldContext.root_of_unity(2)
    assert (c2.q() + c2.one()).is_zero()


def test_inverse_and_division():
    rng = random.Random(7)
    for ctx in (C3, C4, GEN):
        for _ in range(25):
            a = random_scalar(ctx, rng)
            if a.is_zero():
                continue
            assert a * a.inverse() == ctx.one()
            assert (a / a) == ctx.one()


@pytest.mark.parametrize("ell", [1, 2, 3, 5, 7, 8, 12])
def test_a_rational_inverts_to_its_reciprocal(ell):
    ctx = FieldContext.root_of_unity(ell)
    rng = random.Random(ell)
    for _ in range(40):
        r = Fraction(rng.choice((-1, 1)) * rng.randint(1, 10 ** rng.randint(1, 30)),
                     rng.randint(1, 10 ** rng.randint(1, 30)))
        x = ctx.rational(r)
        assert x.inverse() * x == ctx.one()
        assert x.inverse() == ctx.rational(1 / r)


def test_zero_division_raises():
    with pytest.raises(DivisionByZero):
        C3.one() / C3.zero()
    with pytest.raises(DivisionByZero):
        GEN.zero().inverse()


@pytest.mark.parametrize("ell", [1, 3, 5, 8])
def test_zero_denominator_is_rejected_in_both_fields(ell):
    ctx = FieldContext.root_of_unity(ell)
    with pytest.raises(DivisionByZero, match="zero denominator"):
        QScalar(ctx, [1] + [0] * (ctx._deg - 1), 0)
    with pytest.raises(DivisionByZero, match="zero denominator"):
        QScalar(ctx, [0] * ctx._deg, 0)
    with pytest.raises(DivisionByZero, match="zero denominator"):
        QScalar(GEN, num=(F1,), den=())


def test_mixed_context_rejected():
    with pytest.raises(MixedContext):
        C3.one() + C4.one()


def test_mixed_context_rejected_for_every_scalar_operation():
    for a, b in ((C3, C4), (C3, GEN), (GEN, C4)):
        for op in (lambda x, y: x + y, lambda x, y: x * y, lambda x, y: x - y,
                   lambda x, y: x / y):
            with pytest.raises(MixedContext, match=re.escape(f"cannot combine {a!r} with {b!r}")):
                op(a.q(), b.q())
        assert a.one() != b.one()


# one context per order: every way of reaching it returns the same object
@pytest.mark.parametrize("ell", [1, 2, 3, 4, 5, 6, INFINITE])
def test_every_factory_returns_the_one_context_of_its_order(ell):
    ctx = FieldContext.for_order(ell)
    reached = [FieldContext.for_order(ell), FieldContext.from_obj(ctx.to_obj()),
               copy.copy(ctx), copy.deepcopy(ctx)]
    reached += [pickle.loads(pickle.dumps(ctx, proto))
                for proto in range(pickle.HIGHEST_PROTOCOL + 1)]
    if ell is INFINITE:
        reached += [FieldContext.generic(), FieldContext.for_order(float("inf"))]
    else:
        reached += [FieldContext.root_of_unity(ell), FieldContext.root_of_unity(ell=ell)]
    assert all(other is ctx for other in reached)
    assert ctx.ell is ell and ctx.is_generic == (ell is INFINITE)


@pytest.mark.parametrize("factory", [FieldContext.root_of_unity, FieldContext.for_order])
@pytest.mark.parametrize("ell", [True, False])
def test_a_bool_is_not_an_order(factory, ell):
    # root_of_unity(True) was once the ell = 1 context: bool is an int subclass
    with pytest.raises(ValueError, match="root_of_unity needs a positive integer ell"):
        factory(ell)


@pytest.mark.parametrize("factory", [FieldContext.root_of_unity, FieldContext.for_order])
def test_an_order_above_the_bound_builds_no_context(factory):
    # building Q(zeta_ell) at ell 10^6 ran past 20 s; the bound is checked
    # before anything is built
    with pytest.raises(OverflowError, match=f"the order of q may be at most {MAX_ORDER}, "
                                            f"got {MAX_ORDER + 1}"):
        factory(MAX_ORDER + 1)
    with pytest.raises(OverflowError):
        factory(10 ** 9)


@pytest.mark.parametrize("ell", [True, False, 0, -1, 2.5, 1.0, "3", None])
def test_order_rejects_everything_but_a_positive_int_or_infinite(ell):
    with pytest.raises(BadIndex, match="the order must be a positive integer or INFINITE"):
        _order(ell)


def test_order_keeps_a_positive_int_and_maps_infinity_to_infinite():
    assert _order(1) == 1 and _order(7) == 7
    assert _order(INFINITE) is INFINITE and _order(float("inf")) is INFINITE


def test_context_repr_and_serialization_are_unchanged():
    assert repr(GEN) == "FieldContext(generic_q)"
    assert repr(C3) == "FieldContext(cyclotomic, ell=3)"
    assert GEN.to_obj() == {"type": "generic_q"}
    assert C3.to_obj() == {"type": "cyclotomic", "ell": 3}
    for bad in (0, -2, 2.0, "3", None):
        with pytest.raises(ValueError, match="root_of_unity needs a positive integer ell"):
            FieldContext.for_order(bad)


@pytest.mark.parametrize("ctx", [C3, C4, GEN])
def test_copied_scalars_combine_with_their_context(ctx):
    q = ctx.q()
    copies = [copy.copy(q), copy.deepcopy(q)]
    copies += [pickle.loads(pickle.dumps(q, proto))
               for proto in range(pickle.HIGHEST_PROTOCOL + 1)]
    for other in copies:
        assert other.ctx is ctx
        assert ctx.one() + other == 1 + q
        assert format_scalar(ctx.one() + other) == "1 + q"


@pytest.mark.parametrize("ell", [1, 3, 5, INFINITE])
def test_zero_and_one_are_built_once_per_context(ell):
    ctx = FieldContext.for_order(ell)
    zero, one = ctx.zero(), ctx.one()
    assert ctx.zero() is zero and ctx.one() is one
    assert zero.is_zero() and one == 1 and format_scalar(one) == "1"
    copies = [copy.copy(ctx), copy.deepcopy(ctx)]
    copies += [pickle.loads(pickle.dumps(ctx, proto))
               for proto in range(pickle.HIGHEST_PROTOCOL + 1)]
    for other in copies:
        q = other.q()
        assert other.zero() + q == q and other.one() * q == q
        assert zero + other.one() == one and other.zero() * one == zero


def test_power_by_negative_integer():
    q = GEN.q()
    assert q ** -2 == (q * q).inverse()
    assert C4.q() ** -1 == C4.q() ** 3


@given(rationals, rationals, rationals)
@settings(max_examples=60)
def test_field_laws_order_five(a, b, c):
    ctx = FieldContext.root_of_unity(5)
    q = ctx.q()
    x = ctx.rational(a) + ctx.rational(b) * q
    y = ctx.rational(b) + ctx.rational(c) * q * q
    z = ctx.rational(c) * q ** 3
    assert x * (y + z) == x * y + x * z
    assert (x * y) * z == x * (y * z)
    assert x + y == y + x


@given(rationals, rationals)
@settings(max_examples=60)
def test_generic_subtraction_inverts_addition(a, b):
    x = GEN.rational(a) * GEN.q() + GEN.rational(b)
    y = GEN.rational(b) * GEN.q() ** 2
    assert (x + y) - y == x


# ---------------------------------------------------------------------------
# q-equivalence
# ---------------------------------------------------------------------------

def test_q_equivalent_root_of_unity_examples():
    assert q_equivalent(C3.q() ** 2, C3.one()) == 2
    assert q_equivalent(C3.rational(2), C3.one()) is None


def test_q_equivalent_generic_monomial_quotient():
    # oracle: (3 q^5) / (3 q^2) = q^3, a pure monomial
    a = GEN.rational(3) * GEN.q() ** 5
    b = GEN.rational(3) * GEN.q() ** 2
    assert (a / b) == GEN.q() ** 3
    assert q_equivalent(a, b) == 3
    assert q_equivalent(b, a) == -3


def test_q_equivalent_zero_rejected():
    with pytest.raises(ZeroArgument):
        q_equivalent(C3.zero(), C3.one())


def test_q_equivalent_power_recovery():
    rng = random.Random(3)
    for ell in (1, 2, 3, 4, 5, 6):
        ctx = FieldContext.root_of_unity(ell)
        q = ctx.q()
        for _ in range(10):
            a = random_scalar(ctx, rng)
            if a.is_zero():
                continue
            for m in range(ell):
                assert q_equivalent(a * q ** m, a) == m


def test_q_equivalence_is_an_equivalence_relation():
    rng = random.Random(11)
    ctx = FieldContext.root_of_unity(5)
    q = ctx.q()
    for _ in range(40):
        a = random_scalar(ctx, rng)
        if a.is_zero():
            continue
        b = a * q ** rng.randint(0, 4)
        c = b * q ** rng.randint(0, 4)
        assert q_equivalent(a, a) == 0
        mab = q_equivalent(a, b)
        mba = q_equivalent(b, a)
        assert mab is not None and mba is not None
        assert (mab + mba) % 5 == 0
        mac = q_equivalent(a, c)
        mbc = q_equivalent(b, c)
        assert (mab + mbc) % 5 == mac % 5


def test_q_equivalent_rejects_mixed_contexts():
    with pytest.raises(MixedContext):
        q_equivalent(C3.one(), C4.one())


# ---------------------------------------------------------------------------
# q-orbits
# ---------------------------------------------------------------------------

ORBIT_CONTEXTS = (C3, FieldContext.root_of_unity(5), GEN)


def reference_q_equivalent(a, b):
    """q-equivalence from the ratio a/b, checked against q^m term by term."""
    ratio = a / b
    ctx = a.ctx
    if ctx.is_generic:
        n, d = ratio.int_num, ratio.int_den
        if d == (1,) and n[-1] == 1 and not any(n[:-1]):
            return len(n) - 1
        if n == (1,) and d[-1] == 1 and not any(d[:-1]):
            return -(len(d) - 1)
        return None
    power = ctx.one()
    for m in range(ctx.ell):
        if ratio == power:
            return m
        power = power * ctx.q()
    return None


@st.composite
def nonzero_scalars(draw, ctx):
    """c * q^k * (a polynomial in q), or over Q(q) a ratio of two of them."""
    q = ctx.q()

    def poly_in_q():
        coeffs = draw(st.lists(st.integers(-4, 4), min_size=1, max_size=3))
        return sum((ctx.rational(c) * q ** k for k, c in enumerate(coeffs)), ctx.zero())

    value = ctx.rational(draw(rationals)) * q ** draw(st.integers(-6, 6)) * poly_in_q()
    if ctx.is_generic and draw(st.booleans()):
        den = poly_in_q()
        value = value / den if den else value
    assume(value)
    return value


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_q_orbit_shift_law(data):
    ctx = data.draw(st.sampled_from(ORBIT_CONTEXTS))
    a = data.draw(nonzero_scalars(ctx))
    j = data.draw(st.integers(-12, 12))
    key, k = q_orbit(a)
    shifted_key, shifted_k = q_orbit(a * ctx.q_power(j))
    assert shifted_key == key
    if ctx.is_generic:
        assert shifted_k == k + j
    else:
        assert 0 <= k < ctx.ell and shifted_k == (k + j) % ctx.ell


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_q_orbit_separates_exactly_the_q_classes(data):
    ctx = data.draw(st.sampled_from(ORBIT_CONTEXTS))
    a = data.draw(nonzero_scalars(ctx))
    b = data.draw(st.one_of(
        nonzero_scalars(ctx),
        st.integers(-9, 9).map(lambda j: a * ctx.q_power(j)),
        st.tuples(rationals.filter(bool), st.integers(-9, 9)).map(
            lambda cj: a * cj[0] * ctx.q_power(cj[1]))))
    expected = reference_q_equivalent(a, b)
    assert (q_orbit(a)[0] == q_orbit(b)[0]) == (expected is not None)
    assert q_equivalent(a, b) == expected


def test_q_orbit_rejects_zero():
    for ctx in ORBIT_CONTEXTS:
        with pytest.raises(ZeroArgument):
            q_orbit(ctx.zero())


# ---------------------------------------------------------------------------
# parsing and formatting
# ---------------------------------------------------------------------------

def test_parse_examples():
    c5 = FieldContext.root_of_unity(5)
    x = parse_scalar("-1/2*q^2 + 3", c5)
    assert x == c5.rational(3) - c5.rational(Fraction(1, 2)) * c5.q() ** 2
    assert parse_scalar("q^4", C4) == C4.one()


def test_parse_zero_denominator():
    with pytest.raises(DivisionByZero):
        parse_scalar("1/0", C3)


def test_parse_error_position():
    with pytest.raises(ParseError) as err:
        parse_scalar("1 + * 2", C3)
    assert err.value.position is not None


@pytest.mark.parametrize("text, position", [
    ("(1+q)/(1 +)", 10),       # a sign with no term, at the denominator's end
    ("(1)/(q)/(2)", 6),        # the first ')/(' splits; ')' ends no term
    ("  (q)/(1 + )", 11),      # leading blanks count
    ("(1 + * q)/(q)", 5),
    ("(q)/(2*q^20000)", 9),    # the exponent cap inside the denominator
])
def test_ratio_parse_errors_count_from_the_input(text, position):
    with pytest.raises(ParseError) as err:
        parse_scalar(text, GEN)
    assert err.value.position == position
    assert str(err.value).endswith(f"(at position {position})")


@pytest.mark.parametrize("text, ctx, position", [
    ("1 +", C3, 3),
    ("1 -", C3, 3),
    ("q -  ", GEN, 5),
    ("(1+q)/(1 +)", GEN, 10),
    ("(1 -)/(q)", GEN, 4),
])
def test_a_sign_without_a_term_reports_the_missing_term(text, ctx, position):
    with pytest.raises(ParseError) as err:
        parse_scalar(text, ctx)
    assert err.value.position == position
    assert str(err.value) == f"missing term after the sign (at position {position})"


@pytest.mark.parametrize("text, position", [
    ("1 2", 2),
    ("1 )", 2),
    ("1/2x", 3),
    ("2*q^2 3", 6),
])
def test_text_after_a_term_is_a_missing_sign(text, position):
    # the term loop reads to the end of the input, so no other message
    # ("trailing characters") can report what follows a term
    with pytest.raises(ParseError) as err:
        parse_scalar(text, C3)
    assert err.value.position == position
    assert str(err.value) == f"expected '+' or '-' between terms (at position {position})"


def test_ratio_zero_coefficient_denominator_reports_its_position():
    with pytest.raises(DivisionByZero, match="at position 11"):
        parse_scalar("(q)/(1 + 1/0)", GEN)


def test_generic_exponent_cap():
    cap = MAX_GENERIC_EXPONENT
    assert parse_scalar(f"q^{cap}", GEN) == GEN.q_power(cap)
    assert parse_scalar(f"2*q^{cap}", GEN) == GEN.q_power(cap) * 2
    for text in (f"q^{cap + 1}", f"1 + 3*q^{cap + 1}", "q^" + str(10 ** 20)):
        with pytest.raises(ParseError) as err:
            parse_scalar(text, GEN)
        assert err.value.position == text.index("^") + 1
    # at a root of unity q^k reduces mod ell, so large exponents stay cheap
    assert parse_scalar(f"q^{cap + 1}", C3) == C3.q_power(cap + 1)


def test_parse_format_round_trip_bulk():
    rng = random.Random(23)
    contexts = [FieldContext.root_of_unity(ell) for ell in (1, 2, 3, 4, 5, 8)]
    contexts.append(GEN)
    count = 0
    while count < 1000:
        ctx = contexts[count % len(contexts)]
        a = random_scalar(ctx, rng)
        assert parse_scalar(format_scalar(a), ctx) == a
        count += 1


def test_format_is_deterministic():
    a = GEN.rational(Fraction(2, 3)) * GEN.q() ** 2 - GEN.one()
    assert format_scalar(a) == format_scalar(a)


# ---------------------------------------------------------------------------
# the q -> 1/q substitution
# ---------------------------------------------------------------------------

def test_substitute_q_inverse_is_field_map():
    rng = random.Random(5)
    for ctx in (C3, C4, FieldContext.root_of_unity(5), GEN):
        for _ in range(15):
            a = random_scalar(ctx, rng)
            b = random_scalar(ctx, rng)
            assert substitute_q_inverse(a + b) == (
                substitute_q_inverse(a) + substitute_q_inverse(b))
            assert substitute_q_inverse(a * b) == (
                substitute_q_inverse(a) * substitute_q_inverse(b))
            assert substitute_q_inverse(substitute_q_inverse(a)) == a
    assert substitute_q_inverse(C4.q()) == C4.q() ** 3
    assert substitute_q_inverse(GEN.q()) == GEN.q().inverse()


def test_canonical_key_orders_positive_before_negative():
    assert canonical_key(C3.one()) < canonical_key(C3.rational(-1))
    assert canonical_key(C3.zero()) < canonical_key(C3.one())


# ---------------------------------------------------------------------------
# Q(zeta_ell) with large coefficients
# ---------------------------------------------------------------------------

CYCLOTOMIC_ORDERS = (1, 2, 3, 4, 5, 6, 7, 8, 9, 12)
BIG = 10 ** 30
big_rationals = st.one_of(
    st.just(Fraction(0)),
    st.builds(Fraction, st.integers(-BIG, BIG), st.integers(1, BIG)))


@st.composite
def cyclotomic_vectors(draw, count):
    """An order ell and `count` coefficient vectors of length deg(Phi_ell)."""
    ell = draw(st.sampled_from(CYCLOTOMIC_ORDERS))
    deg = len(cyclotomic_polynomial(ell)) - 1
    vectors = [draw(st.lists(big_rationals, min_size=deg, max_size=deg))
               for _ in range(count)]
    return ell, vectors


def element(ctx, vec):
    """sum(vec[k] * q^k) over k < deg(Phi_ell), so vec is already reduced."""
    out = ctx.zero()
    for k, c in enumerate(vec):
        out = out + ctx.rational(c) * ctx.q_power(k)
    return out


def sympy_vector(sympy, expr, ell):
    """Coefficients of expr mod Phi_ell(x), little-endian, as Fractions."""
    x = sympy.Symbol("x")
    deg = len(cyclotomic_polynomial(ell)) - 1
    reduced = sympy.rem(sympy.expand(expr), sympy.cyclotomic_poly(ell, x), x)
    coeffs = sympy.Poly(reduced, x).all_coeffs()[::-1]
    out = [Fraction(int(c.p), int(c.q)) for c in coeffs]
    return tuple(out + [Fraction(0)] * (deg - len(out)))


def sympy_poly(sympy, vec):
    x = sympy.Symbol("x")
    return sum(sympy.Rational(c.numerator, c.denominator) * x ** k
               for k, c in enumerate(vec))


def vector(a):
    """The coefficient vector int_num / d of a Q(zeta_ell) scalar, as Fractions."""
    (d,) = a.int_den
    return tuple(Fraction(x, d) for x in a.int_num)


def expected_hash(vec):
    """A rational scalar hashes as its Fraction, any other as its canonical
    pair: the integer vector over the lcm d of the coefficients' reduced
    denominators, which leaves gcd(d, *ints) = 1."""
    vec = tuple(vec)
    if not any(vec[1:]):
        return hash(vec[0])
    d = math.lcm(*(c.denominator for c in vec))
    return hash((tuple(int(c * d) for c in vec), (d,)))


@given(cyclotomic_vectors(3))
@settings(max_examples=60, deadline=None)
def test_cyclotomic_field_laws_with_large_coefficients(case):
    ell, (u, v, w) = case
    ctx = FieldContext.root_of_unity(ell)
    x, y, z = element(ctx, u), element(ctx, v), element(ctx, w)
    assert x + y == y + x
    assert x * y == y * x
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x + ctx.zero() == x and x * ctx.one() == x
    assert (x - x).is_zero() and x - y == -(y - x)
    if not x.is_zero():
        assert x * x.inverse() == ctx.one()
        assert (x * y) / x == y
        assert x.inverse().inverse() == x


@given(cyclotomic_vectors(2))
@settings(max_examples=40, deadline=None)
def test_cyclotomic_arithmetic_matches_sympy(case):
    sympy = pytest.importorskip("sympy")
    ell, (u, v) = case
    ctx = FieldContext.root_of_unity(ell)
    a, b = element(ctx, u), element(ctx, v)
    A, B = sympy_poly(sympy, u), sympy_poly(sympy, v)
    product = sympy_vector(sympy, A * B, ell)
    total = sympy_vector(sympy, A + B, ell)
    assert vector(a * b) == product
    assert vector(a + b) == total
    assert hash(a * b) == expected_hash(product)
    assert hash(a + b) == expected_hash(total)


@given(cyclotomic_vectors(1))
@settings(max_examples=40, deadline=None)
def test_substitute_q_inverse_matches_sympy(case):
    sympy = pytest.importorskip("sympy")
    ell, (u,) = case
    ctx = FieldContext.root_of_unity(ell)
    x = sympy.Symbol("x")
    # x^ell = 1 modulo Phi_ell, so multiplying by it clears the negative powers
    image = sympy_poly(sympy, u).subs(x, 1 / x) * x ** ell
    assert vector(substitute_q_inverse(element(ctx, u))) == sympy_vector(sympy, image, ell)


def reference_format(vec):
    """The scalar grammar written out term by term from the coefficients."""
    parts = []
    for k, c in enumerate(vec):
        if not c:
            continue
        mag = abs(c)
        power = "" if k == 0 else ("q" if k == 1 else f"q^{k}")
        body = str(mag) if not power else (power if mag == 1 else f"{mag}*{power}")
        if parts:
            parts.append((" + " if c > 0 else " - ") + body)
        else:
            parts.append(body if c > 0 else "-" + body)
    return "".join(parts) or "0"


@given(cyclotomic_vectors(1))
@settings(max_examples=80, deadline=None)
def test_cyclotomic_representation_pins(case):
    ell, (u,) = case
    ctx = FieldContext.root_of_unity(ell)
    a = element(ctx, u)
    assert vector(a) == tuple(u)
    assert hash(a) == expected_hash(u)
    assert format_scalar(a) == reference_format(u)
    assert canonical_key(a) == tuple((abs(c), 0 if c >= 0 else 1) for c in u)
    assert parse_scalar(format_scalar(a), ctx) == a
    if not any(u[1:]):
        assert a.as_rational() == u[0] and a == u[0]


# ---------------------------------------------------------------------------
# Q(zeta_ell): the canonical integer pair
# ---------------------------------------------------------------------------

LAYOUT_CONTEXTS = [FieldContext.root_of_unity(ell) for ell in (3, 5, 8)]
layout_rationals = st.fractions(min_value=-10 ** 6, max_value=10 ** 6, max_denominator=60)


@st.composite
def cyclotomic_values(draw):
    """A context and two scalars of it, sums of rational multiples of
    powers of q with assorted denominators."""
    ctx = draw(st.sampled_from(LAYOUT_CONTEXTS))

    def value():
        out = ctx.zero()
        for _ in range(draw(st.integers(0, 4))):
            out = out + ctx.rational(draw(layout_rationals)) * ctx.q_power(
                draw(st.integers(-9, 9)))
        return out

    return ctx, value(), value()


def assert_cyclotomic_canonical(a, ctx):
    n, d = a.int_num, a.int_den
    assert type(n) is tuple and len(n) == ctx._deg
    assert all(type(c) is int for c in n)
    assert type(d) is tuple and len(d) == 1 and type(d[0]) is int and d[0] > 0
    assert math.gcd(d[0], *n) == 1
    if d == (1,):  # one shared tuple for the denominator 1
        assert d is ctx.one().int_den


@settings(max_examples=150, deadline=None)
@given(cyclotomic_values(), st.integers(-4, 4), st.integers(-20, 20), layout_rationals)
def test_cyclotomic_results_are_canonical(case, k, m, r):
    ctx, a, b = case
    results = [a, b, a + b, a - b, b - a, a * b, -a, a + r, a * r, r - a,
               ctx.q_power(m), ctx.rational(r), substitute_q_inverse(a),
               parse_scalar(format_scalar(a), ctx)]
    if a:
        results += [a ** k, a.inverse(), 1 / a]
    if b:
        results += [a / b, r / b]
    for x in results:
        assert_cyclotomic_canonical(x, ctx)
    assert parse_scalar(format_scalar(a), ctx) == a
    assert a - b == a + (-b) and -(-a) == a


PICKLE_VALUES = [
    (FieldContext.root_of_unity(3), "-7/6 + 5/4*q"),
    (FieldContext.root_of_unity(5), "-2*q + 1/3*q^3"),
    (FieldContext.root_of_unity(8), "9"),
    (FieldContext.root_of_unity(1), "-2/5"),
    (FieldContext.root_of_unity(2), "0"),
    (GEN, "(3/2 + q)/(-1/3 + q^2)"),
    (GEN, "2/7*q^4"),
    (GEN, "0"),
]


@pytest.mark.parametrize("ctx, text", PICKLE_VALUES)
def test_pickle_and_copy_round_trip_in_both_fields(ctx, text):
    a = parse_scalar(text, ctx)
    assert a.__reduce__() == (_build, (ctx, a.int_num, a.int_den))
    copies = [copy.copy(a), copy.deepcopy(a)]
    copies += [pickle.loads(pickle.dumps(a, proto))
               for proto in range(pickle.HIGHEST_PROTOCOL + 1)]
    for b in copies:
        assert b.ctx is ctx
        assert (b.int_num, b.int_den) == (a.int_num, a.int_den)
        assert b == a and hash(b) == hash(a)
        assert format_scalar(b) == format_scalar(a) == text


# ---------------------------------------------------------------------------
# Q(q): the canonical integer pair
# ---------------------------------------------------------------------------

small_fractions = st.fractions(min_value=-9, max_value=9, max_denominator=7)


@st.composite
def generic_values(draw):
    """A Q(q) scalar built through the public constructor from Fraction
    tuples with non-monic, non-integral denominators."""
    num = draw(st.lists(small_fractions, max_size=4))
    den = draw(st.lists(small_fractions, min_size=1, max_size=4).filter(any))
    return QScalar(GEN, num=num, den=den)


def monic_view(n, d):
    """The pair divided by lc(d), as Fraction tuples: the numerator and the
    monic denominator that printing and sorting read."""
    lc = d[-1]
    return tuple(Fraction(c, lc) for c in n), tuple(Fraction(c, lc) for c in d)


def sympy_monic_form(sympy, n, d):
    """The Q(q) normal form by sympy: n/d reduced over Q, with a monic
    denominator, as Fraction tuples."""
    if not n:
        return (), (F1,)
    x = sympy.Symbol("x")
    num = sympy.Poly(n[::-1], x, domain="QQ")
    den = sympy.Poly(d[::-1], x, domain="QQ")
    g = num.gcd(den)
    num, den = num.exquo(g), den.exquo(g)
    lc = den.LC()
    num, den = num.quo_ground(lc), den.quo_ground(lc)
    return tuple(tuple(Fraction(int(c.p), int(c.q)) for c in reversed(part.all_coeffs()))
                 for part in (num, den))


def assert_canonical(a):
    n, d = a.int_num, a.int_den
    assert type(n) is tuple and type(d) is tuple
    assert all(type(c) is int for c in n + d)
    assert d and d[-1] > 0 and (not n or n[-1])
    if not n:
        assert d == (1,)
        return
    assert math.gcd(*n, *d) == 1
    try:
        import sympy
    except ImportError:
        sympy = None
    view = monic_view(n, d)
    if sympy is not None:
        x = sympy.Symbol("x")
        common = sympy.gcd(sympy.Poly(n[::-1], x), sympy.Poly(d[::-1], x))
        assert common.degree() == 0
        assert view == sympy_monic_form(sympy, n, d)
    # the sort key of the monic view, magnitude before sign
    assert canonical_key(a) == tuple(tuple((abs(c), 0 if c >= 0 else 1) for c in part)
                                     for part in view)


@settings(max_examples=120, deadline=None)
@given(generic_values(), generic_values(), st.integers(-3, 3))
def test_generic_results_are_canonical(a, b, k):
    results = [a, b, a + b, a - b, b - a, a * b, -a, a ** k if a else a,
               substitute_q_inverse(a), parse_scalar(format_scalar(a), GEN)]
    if b:
        results += [a / b, b.inverse(), 1 / b]
    for r in results:
        assert_canonical(r)
    assert parse_scalar(format_scalar(a), GEN) == a
    assert a - b == a + (-b)
    assert -(-a) == a


@settings(max_examples=120, deadline=None)
@given(generic_values(), st.integers(0, 3))
def test_q_times_is_the_product_by_q(a, k):
    a = a * GEN.q_power(-k)  # a denominator that q may divide
    if a:
        got = _q_times(a)
        assert_canonical(got)
        assert (got.int_num, got.int_den) == ((a * GEN.q()).int_num, (a * GEN.q()).int_den)


NON_MONIC = [
    ((1, 1), (2, 3)),
    ((Fraction(1, 2), 1), (-7, 0, Fraction(3, 5))),
    ((0, 0, Fraction(-4, 9)), (Fraction(5, 6), Fraction(2, 3))),
    ((6,), (4, 0, 0, -10)),
]


@pytest.mark.parametrize("num, den", NON_MONIC)
def test_generic_pickle_and_copy_round_trip(num, den):
    a = QScalar(GEN, num=num, den=den)
    assert a.int_den[-1] != 1  # a denominator that is not monic over Z
    copies = [copy.copy(a), copy.deepcopy(a)]
    copies += [pickle.loads(pickle.dumps(a, proto))
               for proto in range(pickle.HIGHEST_PROTOCOL + 1)]
    for b in copies:
        assert (b.int_num, b.int_den) == (a.int_num, a.int_den)
        assert b == a and hash(b) == hash(a) and b.ctx is GEN
        assert format_scalar(b) == format_scalar(a)


def test_generic_hash_is_the_pair_hash():
    # a rational scalar hashes as its Fraction, any other as its pair
    for num, den in NON_MONIC + [((1, 2), (3, 1)), ((0, 5), (1,)), ((3,), (4,)), ((-6,), (1,))]:
        a = QScalar(GEN, num=num, den=den)
        r = a.as_rational()
        assert hash(a) == (hash(r) if r is not None else hash((a.int_num, a.int_den)))


@pytest.mark.parametrize("ctx", [C3, FieldContext.root_of_unity(5), GEN])
def test_equal_scalars_hash_equal(ctx):
    values = [parse_scalar(text, ctx) for text in ("0", "1", "-7", "3/4", "-5/12")]
    for r, a in zip((0, 1, -7, Fraction(3, 4), Fraction(-5, 12)), values):
        assert a == r and hash(a) == hash(r) == hash(Fraction(r))
        assert hash(a) == hash(ctx.rational(r)) == hash(a + ctx.q() - ctx.q())
    x = parse_scalar("(2 + q)/(3 - 2*q^2)" if ctx.is_generic else "2/3 - 5/4*q", ctx)
    copies = [x * ctx.one(), (x + 1) - 1, 1 / (1 / x), copy.deepcopy(x),
              pickle.loads(pickle.dumps(x))]
    for y in copies:
        assert y == x and hash(y) == hash(x)
    assert hash(x) == hash((x.int_num, x.int_den))
    assert len({x, *copies}) == 1


def reference_key(a):
    """canonical_key as it read the Fraction views: each coefficient as a
    Fraction, over Q(zeta_ell) int_num / d, over Q(q) numerator and
    denominator scaled to a monic denominator; magnitude before sign."""
    def frac_key(c):
        return (abs(c), 0 if c >= 0 else 1)
    lc = a.int_den[-1]
    if a.ctx.is_generic:
        return (tuple(frac_key(Fraction(c, lc)) for c in a.int_num),
                tuple(frac_key(Fraction(c, lc)) for c in a.int_den))
    return tuple(frac_key(Fraction(c, lc)) for c in a.int_num)


KEY_CONTEXTS = [FieldContext.root_of_unity(ell) for ell in (3, 5, 12)] + [GEN]
key_fractions = st.fractions(min_value=-4, max_value=4, max_denominator=6)


@st.composite
def key_scalars(draw, ctx):
    """Small scalars with repeats and ties in magnitude: sums of rational
    multiples of powers of q over Q(zeta_ell) (denominators d != 1), ratios
    of polynomials with non-monic denominators over Q(q)."""
    if ctx.is_generic:
        num = draw(st.lists(key_fractions, max_size=3))
        den = draw(st.lists(key_fractions, min_size=1, max_size=3).filter(any))
        return QScalar(ctx, num=num, den=den)
    out = ctx.zero()
    for c, k in draw(st.lists(st.tuples(key_fractions, st.integers(-13, 13)), max_size=3)):
        out = out + ctx.rational(c) * ctx.q_power(k)
    return out


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_canonical_key_orders_as_the_fraction_view_key(data):
    ctx = data.draw(st.sampled_from(KEY_CONTEXTS))
    xs = data.draw(st.lists(key_scalars(ctx), max_size=12))
    for x in xs:
        assert canonical_key(x) == reference_key(x)
    ours = sorted(xs, key=canonical_key)
    reference = sorted(xs, key=reference_key)
    assert [(x.int_num, x.int_den) for x in ours] == [
        (x.int_num, x.int_den) for x in reference]
