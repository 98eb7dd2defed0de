import random
import re
from fractions import Fraction

import pytest

from _oracles import fraction_horner
from occufrac.errors import DomainError, FormatError, StructureError
from occufrac.exactmath import (
    IntPolynomial,
    binomial_poly,
    convolve,
    format_rational,
    fugacity,
    parse_int,
    parse_rational,
)


def test_parse_and_format_roundtrip():
    assert parse_rational("3/4") == Fraction(3, 4)
    assert parse_rational("-7") == Fraction(-7)
    assert format_rational(Fraction(3, 4)) == "3/4"
    assert format_rational(Fraction(6, 3)) == "2"
    assert format_rational(Fraction(-1, 2)) == "-1/2"


def test_fugacity_is_a_positive_fraction():
    for lam, want in ((1, Fraction(1)), (Fraction(7, 5), Fraction(7, 5)), (0.5, Fraction(1, 2))):
        got = fugacity(lam)
        assert type(got) is Fraction and got == want
    for bad in (0, -1, Fraction(-1, 3), 0.0):
        with pytest.raises(DomainError, match="^fugacity must be positive$"):
            fugacity(bad)


@pytest.mark.parametrize("bad", ["0.25", "1e-3", "1/0", "x", ""])
def test_parse_rejects_non_rationals(bad):
    with pytest.raises(FormatError):
        parse_rational(bad)


@pytest.mark.parametrize(
    "bad, part",
    # int() takes "_", "+", other scripts' digits and Unicode whitespace
    [("1_0", "1_0"), ("+1", "+1"), ("\u0661/\u0662", "\u0661"),
     ("\xa01/2\xa0", "\xa01"), ("3 / 4", "3 "), ("1/+2", "+2")],
)
def test_parse_rational_reads_ascii_integers_only(bad, part):
    message = f"bad rational {bad!r}: invalid literal for int() with base 10: {part!r}"
    with pytest.raises(FormatError, match=f"^{re.escape(message)}$"):
        parse_rational(bad)


def test_parse_rational_strips_ascii_whitespace():
    assert parse_rational(" \t3/4\r\n") == Fraction(3, 4)
    assert parse_rational("1/-2") == Fraction(-1, 2)


def test_parse_int_takes_ascii_digits_after_an_optional_minus():
    assert [parse_int(t) for t in ("0", "17", "-3", "007")] == [0, 17, -3, 7]
    for bad in ("", "-", "+3", "1_0", " 3", "3 ", "\u0663", "--3", "3-", "0x3", "\xb2"):
        message = f"invalid literal for int() with base 10: {bad!r}"
        with pytest.raises(FormatError, match=f"^{re.escape(message)}$"):
            parse_int(bad)


def test_rational_canonical_arithmetic():
    rng = random.Random(7)
    for _ in range(200):
        a = Fraction(rng.randint(-50, 50), rng.randint(1, 50))
        b = Fraction(rng.randint(-50, 50), rng.randint(1, 50))
        for value in (a + b, a * b):
            assert value.denominator > 0
            from math import gcd

            assert gcd(value.numerator, value.denominator) == 1


def test_poly_eval_known_values():
    p = IntPolynomial((1, 4, 2))
    assert p(Fraction(1)) == 7
    assert IntPolynomial.zero()(Fraction(5, 3)) == 0
    assert IntPolynomial((1, 3))(Fraction(1, 2)) == Fraction(5, 2)


def test_integer_horner_matches_fraction_horner():
    rng = random.Random(2015)
    polys = [IntPolynomial.zero(), IntPolynomial((0, 0)), IntPolynomial((-3,)), IntPolynomial((5,))]
    for _ in range(60):
        size = rng.randint(1, 12)
        polys.append(IntPolynomial(rng.randint(-40, 40) for _ in range(size)))
    points = [0, 1, -1, 3, -2, Fraction(-7, 3), Fraction(5, 8), Fraction(-1, 9)]
    points += [Fraction(rng.randint(-30, 30), rng.randint(1, 30)) for _ in range(20)]
    for poly in polys:
        for x in points:
            value = poly(x)
            assert type(value) is Fraction
            assert value == fraction_horner(poly.coeffs, x)
            terms = (c * Fraction(x) ** k for k, c in enumerate(poly.coeffs))
            assert value == sum(terms, Fraction(0))
            p, q = Fraction(x).numerator, Fraction(x).denominator
            for n in (max(poly.degree, 0), poly.degree + 3):
                assert poly.homogeneous(p, q, n) == value * q**n
    with pytest.raises(StructureError, match="^polynomial argument 0.5 is not an int or a Fraction$"):
        IntPolynomial((1, 2))(0.5)
    with pytest.raises(DomainError, match="^degree 1 is below the polynomial's degree 2$"):
        IntPolynomial((1, 2, 3)).homogeneous(1, 2, 1)


@pytest.mark.parametrize(
    "coeffs, bad",
    [
        ((1.7, 2.2), "coefficient 0 is 1.7"),
        ((1, Fraction(3, 2)), "coefficient 1 is Fraction(3, 2)"),
        (("3",), "coefficient 0 is '3'"),
        ((2, True), "coefficient 1 is True"),
    ],
)
def test_poly_rejects_non_int_coefficients(coeffs, bad):
    with pytest.raises(StructureError, match=f"^{re.escape(bad)}, not an int$"):
        IntPolynomial(coeffs)


def test_poly_derivative_known_values():
    assert IntPolynomial((1, 4, 2)).derivative() == IntPolynomial((4, 4))
    assert IntPolynomial((1,)).derivative().is_zero
    assert IntPolynomial((1, 9, 18, 6)).derivative() == IntPolynomial((9, 36, 18))
    p = IntPolynomial((3, 0, 5, 1))
    assert p.derivative().degree == p.degree - 1


def test_poly_mul_known_values():
    p = IntPolynomial((1, 4, 2))
    assert (p * p).coeffs == (1, 8, 20, 16, 4)
    assert p * IntPolynomial.one() == p
    assert (p * IntPolynomial.zero()).is_zero
    assert convolve((1, 1), (1, 2, 1)) == (1, 3, 3, 1)
    assert convolve((), (1, 2)) == convolve((1, 2), ()) == ()


def test_poly_normalization_and_equality():
    assert IntPolynomial((1, 2, 0, 0)) == IntPolynomial((1, 2))
    assert IntPolynomial(()).is_zero
    assert IntPolynomial((0, 0)).is_zero
    assert IntPolynomial((5,)) == 5


def test_poly_product_evaluation_and_leibniz():
    rng = random.Random(11)
    lam = Fraction(2, 3)
    for _ in range(60):
        p = IntPolynomial(rng.randint(-6, 6) for _ in range(rng.randint(0, 6)))
        q = IntPolynomial(rng.randint(-6, 6) for _ in range(rng.randint(0, 6)))
        assert (p * q)(lam) == p(lam) * q(lam)
        assert (p * q).derivative() == p.derivative() * q + p * q.derivative()


def test_poly_power_matches_iterated_product():
    p = IntPolynomial((1, 2, 1))
    prod = IntPolynomial.one()
    for k in range(6):
        assert p**k == prod
        prod = prod * p


def test_binomial_poly():
    assert binomial_poly(4).coeffs == (1, 4, 6, 4, 1)
    assert binomial_poly(0) == IntPolynomial.one()


def test_polynomial_is_immutable_and_hashable():
    p = IntPolynomial((1, 2))
    with pytest.raises(AttributeError):
        p.coeffs = (3,)
    assert p in {IntPolynomial((1, 2, 0))}
