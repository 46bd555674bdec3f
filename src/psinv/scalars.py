"""Scalar handling: exact rationals by default, floats with explicit tolerance.

All quantities in this package are plain Python numbers.  When every input of
a computation is rational (int or Fraction) the arithmetic and its equality
tests are exact.  One float input makes the whole computation float: the
deciders copy every input to floats once, so no table mixes the two, and
zero tests go through an explicit tolerance, carried by a ScalarContext.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from numbers import Rational
from typing import List, Tuple

DEFAULT_TOL = 1e-9


def _integer_ratio(text: str):
    """(p, q) when text is "p/q" or "p" in ASCII digits, p optionally signed
    and q > 0; None for every other string."""
    num, slash, den = text.partition("/")
    digits = num[1:] if num[:1] in ("-", "+") else num
    if digits.isascii() and digits.isdigit() and (
            not slash or (den.isascii() and den.isdigit())):
        q = int(den) if slash else 1
        if q:
            return int(num), q
    return None


def parse_rational(text: str) -> Fraction:
    """Fraction(text).  The common forms "p/q" and "p" are read by int();
    every other string goes to Fraction's own parser, so decimals,
    exponents, underscores, whitespace and other digit scripts keep their
    meaning and their errors."""
    ratio = _integer_ratio(text)
    return Fraction(*ratio) if ratio else Fraction(text)


def parse_float(text: str) -> float:
    """float(Fraction(text)); "p/q" and "p" as p / q, which int division
    rounds correctly, as float(Fraction) does, without the Fraction."""
    ratio = _integer_ratio(text)
    return ratio[0] / ratio[1] if ratio else float(Fraction(text))


def as_scalar(value):
    """Coerce a user supplied number to an exact or float scalar.

    Accepts int, Fraction, float and strings such as "3/5" or "0.25"
    (strings always parse exactly, into Fraction).
    """
    kind = type(value)
    if kind is Fraction or kind is float or isinstance(value, (Fraction, float)):
        return value
    if isinstance(value, str):
        return parse_rational(value)
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"cannot interpret {value!r} as a scalar")


def is_exact(value) -> bool:
    kind = type(value)
    return kind is Fraction or kind is int or (kind is not float and isinstance(value, Rational))


def all_exact(values) -> bool:
    return all(is_exact(v) for v in values)


def over_common_denominator(values) -> Tuple[List[int], int]:
    """Rationals as (Python-int numerators, their least common denominator)."""
    den = lcm(*(v.denominator for v in values))
    return [v.numerator * (den // v.denominator) for v in values], den


def exact_sum(values) -> Fraction:
    """The sum of a nonempty list of rationals, added over their common
    denominator (the one value itself when it is alone)."""
    if len(values) == 1:
        return values[0]
    nums, den = over_common_denominator(values)
    return Fraction(sum(nums), den)


@dataclass(frozen=True)
class ScalarContext:
    """The one zero test: exact `== 0` when every input is rational,
    |v| <= tol * scale as soon as a float entered the computation."""

    exact: bool = True
    tol: float = DEFAULT_TOL
    scale: float = 1.0

    def is_zero(self, value) -> bool:
        if self.exact:
            return value == 0
        return abs(value) <= self.tol * self.scale

    @classmethod
    def for_balances(cls, T, law_exact: bool, tol: float = DEFAULT_TOL) -> "ScalarContext":
        """Zero test for balances of the rate table T under a law: balances
        scale with T, so the float tolerance is scaled by 1 + the largest rate."""
        exact = T.is_exact and law_exact
        return cls(exact, tol, 1.0 if exact else 1 + float(T.max_rate()))


def scalar_repr(value) -> str:
    """Render a scalar the way model files expect it ("p/q" for rationals)."""
    if is_exact(value):
        f = Fraction(value)
        return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"
    return repr(float(value))
