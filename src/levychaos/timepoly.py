"""Polynomials in elapsed time with generic scalar coefficients.

A :class:`TimePolynomial` stores coefficients ``(q0, q1, ..., qd)`` for
``q0 + q1*t + ... + qd*t^d``.  Coefficients may be exact (``int`` /
``fractions.Fraction``) or ``float``; arithmetic never converts between the
two worlds implicitly — use :meth:`TimePolynomial.to_float` explicitly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence


def ratio(x, y):
    """x / y, kept exact when both are ints or Fractions."""
    return Fraction(x) / y if isinstance(x, (int, Fraction)) and isinstance(y, (int, Fraction)) else x / y


def _trim(coeffs: tuple) -> tuple:
    n = len(coeffs)
    while n > 0 and coeffs[n - 1] == 0:
        n -= 1
    return coeffs[:n]


@dataclass(frozen=True)
class TimePolynomial:
    """Immutable polynomial in one variable (elapsed time)."""

    coeffs: tuple

    def __init__(self, coeffs: Sequence = ()):
        object.__setattr__(self, "coeffs", _trim(tuple(coeffs)))

    # -- constructors -------------------------------------------------
    @staticmethod
    def zero() -> "TimePolynomial":
        return TimePolynomial(())

    @staticmethod
    def constant(c) -> "TimePolynomial":
        return TimePolynomial((c,))

    # -- queries -------------------------------------------------------
    def is_zero(self) -> bool:
        return not self.coeffs

    def __call__(self, t):
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * t + c
        return acc

    # -- arithmetic ----------------------------------------------------
    def __add__(self, other: "TimePolynomial") -> "TimePolynomial":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return TimePolynomial(out)

    def __neg__(self) -> "TimePolynomial":
        return TimePolynomial(tuple(-c for c in self.coeffs))

    def __sub__(self, other: "TimePolynomial") -> "TimePolynomial":
        return self + (-other)

    def __mul__(self, other: "TimePolynomial") -> "TimePolynomial":
        if self.is_zero() or other.is_zero():
            return TimePolynomial(())
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] = out[i + j] + a * b
        return TimePolynomial(out)

    def scale(self, s) -> "TimePolynomial":
        return TimePolynomial(tuple(s * c for c in self.coeffs))

    def antiderivative(self) -> "TimePolynomial":
        """Antiderivative with zero constant term; exact coefficients stay exact."""
        return TimePolynomial([0] + [ratio(c, i + 1) for i, c in enumerate(self.coeffs)])

    # -- conversions ----------------------------------------------------
    def to_float(self) -> "TimePolynomial":
        return TimePolynomial(tuple(float(c) for c in self.coeffs))
