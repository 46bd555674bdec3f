"""Scalar handling: exact rationals by default, floats with explicit tolerance.

All quantities in this package are plain Python numbers.  When every input of
a computation is rational (int or Fraction) the arithmetic stays in Fraction
and equality tests are exact.  As soon as a float enters, Python's coercion
rules push the whole computation to float and zero tests must go through an
explicit tolerance, carried by a ScalarContext.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational

DEFAULT_TOL = 1e-9


def as_scalar(value):
    """Coerce a user supplied number to an exact or float scalar.

    Accepts int, Fraction, float and strings such as "3/5" or "0.25"
    (strings always parse exactly, into Fraction).
    """
    if isinstance(value, (int, Fraction)):
        return Fraction(value)
    if isinstance(value, float):
        return value
    if isinstance(value, str):
        return Fraction(value)
    raise TypeError(f"cannot interpret {value!r} as a scalar")


def is_exact(value) -> bool:
    return isinstance(value, Rational)


def all_exact(values) -> bool:
    return all(is_exact(v) for v in values)


@dataclass(frozen=True)
class ScalarContext:
    """Equality context: exact when possible, |x| <= tol otherwise."""

    exact: bool = True
    tol: float = DEFAULT_TOL

    def is_zero(self, value) -> bool:
        if self.exact and is_exact(value):
            return value == 0
        return abs(value) <= self.tol

    def is_equal(self, a, b) -> bool:
        return self.is_zero(a - b)

    @staticmethod
    def for_values(values, tol: float = DEFAULT_TOL) -> "ScalarContext":
        return ScalarContext(exact=all_exact(values), tol=tol)


def scalar_repr(value) -> str:
    """Render a scalar the way model files expect it ("p/q" for rationals)."""
    if is_exact(value):
        f = Fraction(value)
        return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"
    return repr(float(value))
