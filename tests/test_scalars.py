from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import FractionPoly
from diagfock.scalars import (
    DeformationParams,
    Poly,
    Q,
    T,
    V,
    W,
    parse_rational,
    qt_number,
    render_rational,
)

fracs = st.fractions(min_value=-4, max_value=4, max_denominator=6)


def small_polys():
    coeff = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    exp = st.tuples(*(st.integers(min_value=0, max_value=2) for _ in range(4)))
    return st.dictionaries(exp, coeff, max_size=4).map(Poly)


@given(small_polys(), small_polys(), small_polys())
@settings(max_examples=60, deadline=None)
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + Poly.zero() == a
    assert a * Poly.const(1) == a
    assert a - a == Poly.zero()


@given(small_polys(), fracs, fracs, fracs, fracs)
@settings(max_examples=60, deadline=None)
def test_evaluate_is_homomorphism(a, q, t, v, w):
    b = a * a + 3 * a - Poly.const(2)
    va = a.evaluate(q, t, v, w)
    assert b.evaluate(q, t, v, w) == va * va + 3 * va - 2


def test_poly_str_examples():
    p = Poly.const(1) + Q * V + Q * W + T * V + T * W
    assert str(p) == "1 + qv + qw + tv + tw"
    assert str(Poly.zero()) == "0"
    assert str(Q**2 * T - Poly.const(1)) == "-1 + q^2t"
    # degrees past one byte print and evaluate from the packed exponent keys
    p, q, t = (Q**200 + 3 * T) * (Q**100 - T**300), Fraction(1, 7), Fraction(4, 7)
    assert str(p) == "3 q^100t + q^300 - 3 t^301 - q^200t^300"
    assert p.evaluate(q, t, Fraction(2, 7), Fraction(5, 7)) == (q**200 + 3 * t) * (q**100 - t**300)


def test_int_and_fraction_coercion():
    assert 1 + Q == Q + 1
    assert (2 * Q) - Q == Q
    assert Fraction(1, 2) * Q + Fraction(1, 2) * Q == Q
    assert (Q - 1) * (Q + 1) == Q**2 - 1


def test_pow_matches_repeated_mul():
    # denominators 1 and 12
    for p in (Q + 2 * T, Fraction(1, 2) * Q - Fraction(2, 3) * T * W + Fraction(3, 4)):
        acc = Poly.const(1)
        for k in range(9):
            assert p**k == acc
            acc = acc * p


def test_qt_number_values():
    # sum_{i=1}^{n} q^(i-1) t^(n-i)
    assert qt_number(0, Fraction(1, 2), Fraction(1, 3)) == 0
    assert qt_number(1, Fraction(1, 2), Fraction(1, 3)) == 1
    assert qt_number(3, Fraction(2), Fraction(3)) == 9 + 6 + 4
    assert qt_number(4, Q, T) == T**3 + Q * T**2 + Q**2 * T + Q**3


@given(st.integers(min_value=0, max_value=8), fracs, fracs)
@settings(max_examples=50, deadline=None)
def test_qt_number_symmetry_and_recurrence(n, a, b):
    # symmetric in the two parameters, and [n+1] = a*[n] + b^n
    assert qt_number(n, a, b) == qt_number(n, b, a)
    assert qt_number(n + 1, a, b) == a * qt_number(n, a, b) + b**n


def test_qt_number_classical_specializations():
    for n in range(7):
        assert qt_number(n, Fraction(1), Fraction(1)) == n
        assert qt_number(n, Fraction(0), Fraction(1)) == (1 if n >= 1 else 0)


def test_parse_render_roundtrip():
    for text in ["0", "1", "-3/7", "22/9", "5"]:
        x = parse_rational(text)
        assert parse_rational(render_rational(x)) == x
    assert parse_rational("0.25") == Fraction(1, 4)
    with pytest.raises(ValueError):
        parse_rational("q")


def test_params_weights_match_qt_terms():
    p = DeformationParams.from_rationals(Fraction(1, 2), Fraction(1, 3), Fraction(0), Fraction(1))
    n = 4
    assert sum(p.monomial(i - 1, n - i, 0, 0) for i in range(1, n + 1)) == qt_number(n, p.q, p.t)
    ps = DeformationParams.symbolic()
    assert sum(ps.monomial(0, 0, j - 1, 3 - j) for j in range(1, 4)) == qt_number(3, V, W)


def test_symbolic_monomial_and_scalar_eq():
    ps = DeformationParams.symbolic()
    assert ps.monomial(1, 0, 2, 0) == Q * V**2
    pr = DeformationParams.from_rationals(1, 2, 3, 4)
    assert pr.monomial(1, 1, 0, 0) == Fraction(2)
    # equality across the Fraction/Poly divide, both ways round
    assert Poly.const(Fraction(1, 2)) == Fraction(1, 2) and Fraction(1, 2) == Poly.const(Fraction(1, 2))
    assert Q != Fraction(1) and Fraction(1) != Q


def test_zero_power_zero_convention():
    # 0^0 = 1 keeps specialized weights well defined at q = 0
    p = DeformationParams.from_rationals(Fraction(0), Fraction(1), Fraction(0), Fraction(1))
    assert p.monomial(0, 0, 0, 0) == 1
    assert qt_number(1, p.q, p.t) == 1


def test_constant_poly_hashes_like_its_fraction():
    assert hash(Poly.const(1)) == hash(Fraction(1)) == hash(1)
    assert hash(Poly.zero()) == hash(0)
    assert {Poly.const(1): "one"}.get(Fraction(1)) == "one"
    assert {Fraction(-1, 2): "half"}.get(Poly.const(Fraction(-1, 2))) == "half"
    assert {0: "zero"}.get(Poly.zero()) == "zero"
    assert len({Poly.const(3), Fraction(3), 3}) == 1
    assert Poly.zero() in {Fraction(0)} and Fraction(2) in {Poly.const(2)}
    # nonconstant polynomials still hash by their terms
    assert {Q + T: 1}.get(T + Q) == 1 and Poly.const(1) not in {Q}


def test_repr_is_canonical():
    # equal Polys built in two orders print one repr, which reads back
    a = Poly({(1, 0, 0, 0): 1, (0, 1, 0, 0): Fraction(2, 3), (0, 0, 0, 0): -1})
    b = Poly({(0, 0, 0, 0): -1, (0, 1, 0, 0): Fraction(2, 3), (1, 0, 0, 0): 1})
    assert a == b and repr(a) == repr(b)
    assert repr(Q + T) == repr(T + Q)
    assert eval(repr(a), {"Poly": Poly, "Fraction": Fraction}) == a


# -- against the Fraction-dict reference ---------------------------------------------

coeffs = st.one_of(st.integers(min_value=-3, max_value=3), st.fractions(min_value=-3, max_value=3, max_denominator=6))
term_dicts = st.dictionaries(st.tuples(*(st.integers(min_value=0, max_value=2) for _ in range(4))), coeffs, max_size=4)


@st.composite
def operands(draw, scalars=True):
    """(a Poly or scalar, the same value as a FractionPoly or scalar)."""
    if scalars and draw(st.booleans()):
        x = draw(coeffs)
        return x, x
    terms = draw(term_dicts)
    return Poly(terms), FractionPoly(terms)


def assert_matches(got, want):
    """A Poly result agrees with its reference on everything it shows."""
    assert isinstance(got, Poly)
    assert got.terms == want._terms and all(type(c) is Fraction for c in got.terms.values())
    assert got.sorted_terms() == want.sorted_terms() and str(got) == str(want)
    assert got.constant_term() == want.constant_term() and type(got.constant_term()) is Fraction
    assert got == Poly(want._terms)
    if want._terms.keys() <= {(0, 0, 0, 0)}:
        assert hash(got) == hash(want) == hash(want.constant_term()) and got == want.constant_term()


def both(terms):
    return Poly(terms), FractionPoly(terms)


HALVES = {(0, 0, 0, 0): Fraction(1, 6), (1, 0, 0, 0): Fraction(1, 2)}


@given(operands(scalars=False), operands(), fracs, fracs, fracs, fracs)
@settings(max_examples=150, deadline=None)
# denominators that cancel: against an int, a Fraction's numerator, a Fraction's
# denominator through the numerators, and another Poly's denominator
@example(both(HALVES), (2, 2), 1, 1, 1, 1)
@example(both(HALVES), (Fraction(9, 4), Fraction(9, 4)), 1, 1, 1, 1)
@example(both({(0, 0, 1, 0): 6, (0, 0, 0, 1): -9}), (Fraction(1, 12), Fraction(1, 12)), 1, 1, 1, 1)
@example(both(HALVES), both({(0, 0, 0, 0): Fraction(1, 3), (1, 0, 0, 0): Fraction(3, 2)}), 1, 1, 1, 1)
def test_ring_operations_match_the_fraction_reference(a, b, q, t, v, w):
    (pa, fa), (pb, fb) = a, b
    for got, want in [
        (pa + pb, fa + fb), (pb + pa, fb + fa),
        (pa - pb, fa - fb), (pb - pa, fb - fa),
        (pa * pb, fa * fb), (pb * pa, fb * fa),
        (-pa, -fa),
    ]:
        assert_matches(got, want)
        assert got.evaluate(q, t, v, w) == want.evaluate(q, t, v, w)
        assert type(got.evaluate(q, t, v, w)) is Fraction
    assert (pa == pb) == (fa == fb) and (pb == pa) == (fb == fa)


@given(operands(scalars=False), st.integers(min_value=0, max_value=4))
@settings(max_examples=60, deadline=None)
def test_pow_matches_the_fraction_reference(a, k):
    pa, fa = a
    assert_matches(pa**k, fa**k)


# -- packed exponent keys against the tuple-keyed reference --------------------------

LIMIT = 2**16  # a degree of a Poly stays below this
# degrees near the edges of a key's 16-bit fields, where a carry would show
wide_exps = st.tuples(*(st.sampled_from([0, 1, 2, 2**15 - 1, 2**15, LIMIT - 2, LIMIT - 1]) for _ in range(4)))
wide_dicts = st.dictionaries(wide_exps, coeffs, max_size=3)
units = st.sampled_from([Fraction(-1), Fraction(0), Fraction(1)])


def overflows(ref) -> bool:
    return any(e >= LIMIT for exp in ref._terms for e in exp)


@given(wide_dicts, wide_dicts, units, units, units, units)
@settings(max_examples=150, deadline=None)
def test_packed_keys_match_the_tuple_keyed_reference(ta, tb, q, t, v, w):
    (pa, fa), (pb, fb) = both(ta), both(tb)
    for got, want in [(pa + pb, fa + fb), (pa - pb, fa - fb), (-pa, -fa)]:
        assert_matches(got, want)
        assert repr(got) == repr(want)
        assert got.evaluate(q, t, v, w) == want.evaluate(q, t, v, w)
    want = fa * fb
    if overflows(want):
        with pytest.raises(OverflowError, match="limit 65536"):
            pa * pb
    else:
        got = pa * pb
        assert_matches(got, want)
        assert repr(got) == repr(want) and got == pb * pa
        assert got.evaluate(q, t, v, w) == want.evaluate(q, t, v, w)
    assert (pa == pb) == (fa == fb)
    # equal Polys hash alike, whatever order their terms were built in
    assert hash(Poly(dict(reversed(list(ta.items()))))) == hash(pa)


@given(term_dicts, st.integers(min_value=0, max_value=5), st.sampled_from([1, 2**10, 2**12]))
@settings(max_examples=60, deadline=None)
def test_pow_of_wide_keys_matches_the_reference(terms, k, scale):
    # every degree times scale: the powers run up to degree 2 * 5 * 2**12 < 2**16
    terms = {tuple(e * scale for e in exp): c for exp, c in terms.items()}
    pa, fa = both(terms)
    assert_matches(pa**k, fa**k)
    assert repr(pa**k) == repr(fa**k)


def test_a_degree_at_the_field_limit_is_refused():
    for name, var in zip("qtvw", (Q, T, V, W)):
        exp = tuple(LIMIT if n == name else 0 for n in "qtvw")
        with pytest.raises(ValueError, match="bad exponent tuple"):
            Poly({exp: 1})
        with pytest.raises(ValueError, match="bad exponent tuple"):
            Poly.monomial(1, exp)
        top = var ** (LIMIT - 1)
        assert top.terms == {tuple(LIMIT - 1 if n == name else 0 for n in "qtvw"): 1}
        assert str(top) == f"{name}^{LIMIT - 1}" and top.evaluate(1, 1, 1, 1) == 1
        for product in (lambda: top * var, lambda: var * top, lambda: (top + 1) * (var - T * W)):
            with pytest.raises(OverflowError, match=f"degree {LIMIT} in {name}"):
                product()
        # by squaring, each power a doubling: the limit is met after 16 products, however large 2**k
        for k in (16, 17, 64, 1000):
            with pytest.raises(OverflowError, match=f"in {name}, at or above the limit {LIMIT}"):
                var ** 2**k
    # fields at half their range or above that do not carry multiply
    half = Q ** 2**15 * T ** 2**15
    assert (half * Q ** (2**15 - 1)).terms == {(LIMIT - 1, 2**15, 0, 0): 1}
