"""Exact scalar backends: rationals and Gaussian (complex) rationals.

Real exact arithmetic is plain ``fractions.Fraction``.  The complex exact
backend is :class:`ComplexRational`, a pair of Fractions closed under
+, -, *, / and conjugation.  Both are used inside numpy object arrays,
so every operator also accepts plain ints and Fractions on either side.
:func:`_clear_denominators` turns exact scalars into Gaussian integers, so
that identities linear in their inputs can be checked in int arithmetic.
"""

from __future__ import annotations

import math
from fractions import Fraction


class ComplexRational:
    """A complex number with exact rational real and imaginary parts."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = Fraction(re)
        self.im = Fraction(im)

    # -- helpers ---------------------------------------------------------

    @classmethod
    def _coerce(cls, other):
        if isinstance(other, ComplexRational):
            return other
        if isinstance(other, (int, Fraction)):
            return cls(other)
        return None

    def conjugate(self):
        return ComplexRational(self.re, -self.im)

    def norm_sq(self) -> Fraction:
        return self.re * self.re + self.im * self.im

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return ComplexRational(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return ComplexRational(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return ComplexRational(
            self.re * o.re - self.im * o.im,
            self.re * o.im + self.im * o.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        d = o.norm_sq()
        if d == 0:
            raise ZeroDivisionError("division by zero ComplexRational")
        return ComplexRational(
            (self.re * o.re + self.im * o.im) / d,
            (self.im * o.re - self.re * o.im) / d,
        )

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __neg__(self):
        return ComplexRational(-self.re, -self.im)

    def __pos__(self):
        return self

    # -- comparison / conversion -----------------------------------------

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.re == o.re and self.im == o.im

    def __hash__(self):
        if self.im == 0:
            return hash(self.re)
        return hash((self.re, self.im))

    def __bool__(self):
        return not self.is_zero()

    def __complex__(self):
        return complex(float(self.re), float(self.im))

    def __repr__(self):
        return f"ComplexRational({self.re!r}, {self.im!r})"

    def __str__(self):
        if self.im == 0:
            return str(self.re)
        return f"({self.re}{'+' if self.im >= 0 else '-'}{abs(self.im)}i)"


def _clear_denominators(values) -> tuple[int, list[tuple[int, int]]]:
    """(L, [(L Re v, L Im v), ...]) for exact scalars v, L the lcm of their denominators.

    The values may be ints, Fractions or ComplexRationals.  The pairs are
    Python ints, which grow as needed where int64 products would overflow.
    """
    parts = [(v.re, v.im) if isinstance(v, ComplexRational) else (v, 0) for v in values]
    scale = math.lcm(*(p.denominator for pair in parts for p in pair))
    return scale, [(re.numerator * (scale // re.denominator),
                    im.numerator * (scale // im.denominator)) for re, im in parts]
