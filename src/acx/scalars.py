"""Exact Gaussian-rational scalars.

Every coefficient in the engine is an element of Q(i): a complex number whose
real and imaginary parts are arbitrary-precision rationals.  Structure
constants, Hodge stars of rational Hermitian metrics and Fourier eigenvalues
(with the 2*pi factor absorbed into the eigenvalue convention) all live in
this field, so nothing in the engine ever rounds.

A scalar (a + b*i)/d is held as three Python ints in canonical form: d > 0
and gcd(a, b, d) = 1, so zero is (0, 0, 1).  Canonical values make equality
and hashing plain comparisons of the triple.  Arithmetic stays on ints with
at most one gcd per result; `Fraction` appears only at the edges (parsing and
the `re`/`im` views).

The triple is also the form in which linalg.ExactMatrix holds its entries,
{(r, c): (a, b, d)}, and the working form of the hot loops: products,
elimination, lifts and totals run on the stored triples, and the Leibniz
rule in forms and the structure equations in lie read `Scalar.triple`.
They accumulate on ints (the sum of `add_triples`, inlined only in the
product, where a call per flop costs measurably) and reduce each result
entry once: `reduced_triple` and `mul_triples` give a canonical triple,
`reduced` (or `canonical`, for a triple kept canonical) a Scalar, which is
built only where a value is read.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd

_new = object.__new__
Triple = tuple[int, int, int]


def reduced(a: int, b: int, d: int) -> Scalar:
    """The canonical scalar (a + b*i)/d, for d > 0: one gcd unless d = 1."""
    if d != 1:
        g = gcd(a, b, d)
        if g != 1:
            a //= g
            b //= g
            d //= g
    s = _new(Scalar)
    s._a = a
    s._b = b
    s._d = d
    return s


def reduced_triple(a: int, b: int, d: int) -> tuple[int, int, int]:
    """The canonical triple of (a + b*i)/d, for d > 0: one gcd unless d = 1."""
    if d != 1:
        g = gcd(a, b, d)
        if g != 1:
            return (a // g, b // g, d // g)
    return (a, b, d)


def mul_triples(t: tuple[int, int, int], u: tuple[int, int, int]) -> tuple[int, int, int]:
    """t * u for canonical triples, as a canonical triple."""
    ta, tb, td = t
    ua, ub, ud = u
    return reduced_triple(ta * ua - tb * ub, ta * ub + tb * ua, td * ud)


def add_triples(t: tuple[int, int, int], u: tuple[int, int, int]) -> tuple[int, int, int]:
    """t + u on unreduced triples, over the lcm of the denominators: a gcd only when they differ."""
    ta, tb, td = t
    ua, ub, ud = u
    if td == ud:
        return (ta + ua, tb + ub, td)
    g = gcd(td, ud)
    mt, mu = ud // g, td // g
    return (ta * mt + ua * mu, tb * mt + ub * mu, td * mt)


def canonical(a: int, b: int, d: int) -> Scalar:
    """(a + b*i)/d for a triple already canonical, as the kernels keep their rows: no gcd is taken."""
    s = _new(Scalar)
    s._a = a
    s._b = b
    s._d = d
    return s


class Scalar:
    """An element a + b*i of Q(i)."""

    __slots__ = ("_a", "_b", "_d")

    def __init__(self, re: Fraction | int, im: Fraction | int):
        p, q = re.numerator, re.denominator
        r, s = im.numerator, im.denominator
        if q == s:
            d = q
        else:
            # lowest-terms parts over their lcm are already canonical
            d = q // gcd(q, s) * s
            p *= d // q
            r *= d // s
        self._a = p
        self._b = r
        self._d = d

    @property
    def triple(self) -> tuple[int, int, int]:
        """(a, b, d) with self = (a + b*i)/d, canonical."""
        return (self._a, self._b, self._d)

    @property
    def re(self) -> Fraction:
        return Fraction(self._a, self._d)

    @property
    def im(self) -> Fraction:
        return Fraction(self._b, self._d)

    def real_part(self) -> Scalar:
        """Re(s) as a real scalar."""
        return reduced(self._a, 0, self._d)

    def imag_part(self) -> Scalar:
        """Im(s) as a real scalar."""
        return reduced(self._b, 0, self._d)

    def __add__(self, other: Scalar) -> Scalar:
        if other.__class__ is not Scalar:
            other = as_scalar(other)
        d1, d2 = self._d, other._d
        if d1 == d2:
            return reduced(self._a + other._a, self._b + other._b, d1)
        return reduced(self._a * d2 + other._a * d1, self._b * d2 + other._b * d1, d1 * d2)

    __radd__ = __add__

    def __sub__(self, other: Scalar) -> Scalar:
        if other.__class__ is not Scalar:
            other = as_scalar(other)
        d1, d2 = self._d, other._d
        if d1 == d2:
            return reduced(self._a - other._a, self._b - other._b, d1)
        return reduced(self._a * d2 - other._a * d1, self._b * d2 - other._b * d1, d1 * d2)

    def __neg__(self) -> Scalar:
        return canonical(-self._a, -self._b, self._d)

    def __mul__(self, other: Scalar) -> Scalar:
        if other.__class__ is not Scalar:
            other = as_scalar(other)
        a1, b1, a2, b2 = self._a, self._b, other._a, other._b
        return reduced(a1 * a2 - b1 * b2, a1 * b2 + b1 * a2, self._d * other._d)

    __rmul__ = __mul__

    def __truediv__(self, other: Scalar) -> Scalar:
        if other.__class__ is not Scalar:
            other = as_scalar(other)
        a1, b1, a2, b2 = self._a, self._b, other._a, other._b
        n = a2 * a2 + b2 * b2
        if n == 0:
            raise ZeroDivisionError("division by zero in Q(i)")
        d2 = other._d
        # x / y = x * conj(y) * d2 / (a2^2 + b2^2)
        return reduced((a1 * a2 + b1 * b2) * d2, (b1 * a2 - a1 * b2) * d2, self._d * n)

    def __pow__(self, k: int) -> Scalar:
        if k < 0:
            return (self ** (-k)).inverse()
        out = ONE
        for _ in range(k):
            out = out * self
        return out

    def inverse(self) -> Scalar:
        return ONE / self

    def conj(self) -> Scalar:
        return canonical(self._a, -self._b, self._d)

    def __bool__(self) -> bool:
        return bool(self._a or self._b)

    def is_real(self) -> bool:
        return not self._b

    def __eq__(self, other) -> bool:
        if other.__class__ is not Scalar:
            return NotImplemented
        return self._a == other._a and self._b == other._b and self._d == other._d

    def __hash__(self) -> int:
        return hash((self._a, self._b, self._d))

    def __str__(self) -> str:
        return format_scalar(self)

    def __repr__(self) -> str:
        return f"Scalar({format_scalar(self)!r})"


ZERO = canonical(0, 0, 1)
ONE = canonical(1, 0, 1)
I = canonical(0, 1, 1)


def integer(k: int) -> Scalar:
    return canonical(k, 0, 1)


def rational(p: int, q: int = 1) -> Scalar:
    return from_fraction(Fraction(p, q))


def from_fraction(x: Fraction) -> Scalar:
    return canonical(x.numerator, 0, x.denominator)


def as_scalar(x) -> Scalar:
    if isinstance(x, Scalar):
        return x
    if isinstance(x, int):
        return canonical(int(x), 0, 1)
    if isinstance(x, Fraction):
        return from_fraction(x)
    raise TypeError(f"cannot coerce {x!r} into Q(i)")


def _fraction(text: str) -> Fraction:
    """A rational literal; exponents are refused, since Fraction expands them eagerly."""
    if "e" in text or "E" in text:
        raise ValueError("exponent notation is not accepted")
    return Fraction(text)


def parse_rational(text: str) -> Fraction:
    try:
        return _fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"invalid rational {text!r}: {exc}") from None


def _rational_or_unit(text: str) -> Fraction:
    if text in ("", "+"):
        return Fraction(1)
    if text == "-":
        return Fraction(-1)
    return _fraction(text)


def parse_scalar(text: str) -> Scalar:
    """Parse 'p/q', 'p/q+r/s*i', 'r/s*i', 'i', '-i' into a Scalar."""
    t = re.sub(r"\s+", "", text)
    if not t:
        raise ValueError("empty Q(i) literal")
    try:
        if not t.endswith("i"):
            return from_fraction(_fraction(t))
        body = t[:-1]
        if body.endswith("*"):
            body = body[:-1]
        split = None
        for k in range(1, len(body)):
            if body[k] in "+-":
                split = k
                break
        if split is None:
            return Scalar(0, _rational_or_unit(body))
        return Scalar(_fraction(body[:split]), _rational_or_unit(body[split:]))
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"invalid Q(i) literal {text!r}") from None


def format_rational(x: Fraction) -> str:
    return str(x)


def format_scalar(s: Scalar) -> str:
    """Canonical 'p/q+r/s*i' rendering; inverse of parse_scalar."""
    re_part, im_part = s.re, s.im
    if not im_part:
        return format_rational(re_part)
    im = f"{format_rational(im_part)}*i"
    if not re_part:
        return im
    sign = "+" if im_part > 0 else ""
    return f"{format_rational(re_part)}{sign}{im}"
