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
from numbers import Rational

DEFAULT_TOL = 1e-9


def as_scalar(value):
    """Coerce a user supplied number to an exact or float scalar.

    Accepts int, Fraction, float and strings such as "3/5" or "0.25"
    (strings always parse exactly, into Fraction).
    """
    if isinstance(value, (Fraction, float)):
        return value
    if isinstance(value, (int, str)):
        return Fraction(value)
    raise TypeError(f"cannot interpret {value!r} as a scalar")


def is_exact(value) -> bool:
    return isinstance(value, Rational)


def all_exact(values) -> bool:
    return all(is_exact(v) for v in values)


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
