"""Exact scalar and polynomial arithmetic.

Rationals are stdlib ``fractions.Fraction`` (always in lowest terms,
positive denominator, exact ops). ``IntPolynomial`` is an immutable
univariate polynomial with arbitrary-precision integer coefficients;
evaluation at a Fraction stays exact. No floating point anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, wraps
from math import comb

from .errors import DomainError, FormatError, StructureError

# what the text parsers strip around a line or a token; str.strip() with no
# argument also strips chr(28)..chr(31), chr(133) and chr(160)
ASCII_WHITESPACE = " \t\n\r\x0b\x0c"


def parse_int(text: str) -> int:
    """The integer written as ASCII digits after an optional minus sign,
    the one integer rule of every text input. int() alone would also take
    surrounding whitespace, "+", "_" and the digits of other scripts; the
    minus sign stays so that callers can report a negative value in their
    own words. A FormatError names the text as int() does."""
    digits = text[1:] if text.startswith("-") else text
    if not (digits.isascii() and digits.isdigit()):
        raise FormatError(f"invalid literal for int() with base 10: {text!r}")
    return int(text)


def parse_rational(text: str) -> Fraction:
    """Parse "p/q" or "p", each side read by parse_int, into a Fraction;
    ASCII whitespace around it is ignored. Decimal notation is rejected."""
    s = text.strip(ASCII_WHITESPACE)
    if "." in s or "e" in s.lower():
        raise FormatError(f"rational must be an integer or p/q, got {text!r}")
    try:
        if "/" in s:
            num, den = s.split("/", 1)
            return Fraction(parse_int(num), parse_int(den))
        return Fraction(parse_int(s))
    except (ValueError, ZeroDivisionError) as exc:
        raise FormatError(f"bad rational {text!r}: {exc}") from None


def fugacity(lam) -> Fraction:
    """The fugacity lam as an exact Fraction. The paper's domain is lam > 0,
    and every public function with a `lam` parameter passes it through here
    first, so this is the one place that rule is written. Only an int, a
    Fraction or a float (taken exactly) is a fugacity: Fraction() would also
    read a bool, and text such as "1e-3" or "1_0" that the CLI refuses."""
    if type(lam) is not Fraction:
        if not isinstance(lam, (int, Fraction, float)) or isinstance(lam, bool):
            raise DomainError(f"fugacity {lam!r} is not an int, a Fraction or a float")
        lam = Fraction(lam)
    if lam.numerator <= 0:
        raise DomainError("fugacity must be positive")
    return lam


def integer(value, name: str) -> int:
    """value itself when it is an int, else DomainError naming it `name`.
    A float or a bool is no degree, count or dimension: it would compute in
    floats, or read what was cached for the equal int."""
    if type(value) is not int:
        raise DomainError(f"{name} {value!r} is not an int")
    return value


def degree(d) -> int:
    """d itself when it is an int, else DomainError (`integer`)."""
    return integer(d, "d")


def vertex_count(n) -> int:
    """n itself when it is an int, else DomainError (`integer`). Every
    public function with a vertex-count parameter `n` passes it through
    here first."""
    return integer(n, "vertex count")


def exact_quotient(num: int, den: int) -> int:
    """num / den for a den that divides num, else ArithmeticError: the
    integer certificate checks divide only where the quotient is known to
    be exact, and a remainder means that knowledge failed, never a floor."""
    quotient, remainder = divmod(num, den)
    if remainder:
        raise ArithmeticError(f"{den} does not divide {num}")
    return quotient


def last_program(check_degree):
    """Cache build(d, lam) for the last (d, lam) asked, its key made exact
    before the cache is read: d by check_degree, which returns it or
    raises, and lam by `fugacity`. So 3.0 never reads the entry of 3, while
    1 and Fraction(1) share one. The result keeps lru_cache's cache_clear."""

    def decorate(build):
        cached = lru_cache(maxsize=1)(build)

        @wraps(build)
        def checked(d, lam):
            return cached(check_degree(d), fugacity(lam))

        checked.cache_clear = cached.cache_clear
        return checked

    return decorate


def format_rational(x: Fraction) -> str:
    """Render a Fraction as "p/q", or just "p" when the denominator is 1."""
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


class IntPolynomial:
    """Polynomial sum(c[k] * x^k) with integer coefficients, index = degree.

    Coefficients are stored without trailing zeros; the zero polynomial is
    the empty tuple. Instances are immutable and hashable.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = list(coeffs)
        for k, c in enumerate(cs):
            if type(c) is not int:
                raise StructureError(f"coefficient {k} is {c!r}, not an int")
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("IntPolynomial is immutable")

    def __delattr__(self, name):
        raise AttributeError("IntPolynomial is immutable")

    @classmethod
    def zero(cls) -> "IntPolynomial":
        return cls(())

    @classmethod
    def one(cls) -> "IntPolynomial":
        return cls((1,))

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def coefficient(self, k: int) -> int:
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return 0

    def __call__(self, x: Fraction) -> Fraction:
        """The value at an int or Fraction x = p/q: the integer
        homogeneous(p, q, n) for degree n, divided by q^n once."""
        if not isinstance(x, (int, Fraction)):
            raise StructureError(f"polynomial argument {x!r} is not an int or a Fraction")
        if not self.coeffs:
            return Fraction(0)
        n, q = self.degree, x.denominator
        return Fraction(self.homogeneous(x.numerator, q, n), q**n)

    def homogeneous(self, p: int, q: int, n: int) -> int:
        """q^n P(p/q) = sum c[k] p^k q^(n-k) over integers, for n >= degree:
        the numerator of the value at p/q over the denominator q^n, for
        callers that put several values over one denominator. Horner's
        rule from the leading coefficient down."""
        if n < self.degree:
            raise DomainError(f"degree {n} is below the polynomial's degree {self.degree}")
        if not self.coeffs:
            return 0
        scale = q ** (n - self.degree)
        acc = self.coeffs[-1] * scale
        for c in reversed(self.coeffs[:-1]):
            scale *= q
            acc = acc * p + c * scale
        return acc

    def derivative(self) -> "IntPolynomial":
        return IntPolynomial(k * c for k, c in enumerate(self.coeffs) if k)

    def __add__(self, other):
        other = _coerce(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return IntPolynomial(
            self.coefficient(k) + other.coefficient(k) for k in range(n)
        )

    def __sub__(self, other):
        return self + _coerce(other) * -1

    def __mul__(self, other):
        if isinstance(other, int):
            return IntPolynomial(other * c for c in self.coeffs)
        return IntPolynomial(convolve(self.coeffs, _coerce(other).coeffs))

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative polynomial power")
        result = IntPolynomial.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def shift(self, k: int) -> "IntPolynomial":
        """Multiply by x^k."""
        if self.is_zero:
            return self
        return IntPolynomial((0,) * k + self.coeffs)

    def __eq__(self, other):
        if isinstance(other, IntPolynomial):
            return self.coeffs == other.coeffs
        if isinstance(other, int):
            return self.coeffs == ((other,) if other else ())
        return NotImplemented

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        if self.is_zero:
            return "IntPolynomial(0)"
        terms = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if k == 0:
                terms.append(str(c))
            elif k == 1:
                terms.append(f"{c}*x")
            else:
                terms.append(f"{c}*x^{k}")
        return "IntPolynomial(" + " + ".join(terms) + ")"


def convolve(a, b) -> tuple:
    """The coefficients of the product of the polynomials with coefficient
    sequences a and b (index = degree); () when either is empty."""
    if not (a and b):
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, c in enumerate(a):
        for j, e in enumerate(b, i):
            out[j] += c * e
    return tuple(out)


def _coerce(value) -> IntPolynomial:
    if isinstance(value, IntPolynomial):
        return value
    if isinstance(value, int):
        return IntPolynomial((value,))
    raise TypeError(f"cannot coerce {type(value).__name__} to IntPolynomial")


def binomial_poly(d: int) -> IntPolynomial:
    """(1 + x)^d."""
    return IntPolynomial(comb(d, k) for k in range(d + 1))
