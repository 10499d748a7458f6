"""Exact arithmetic for filling slopes on a torus.

A slope is a primitive rational class p/q in Q union {infinity}, with
infinity represented by 1/0.  All computations are exact integer
arithmetic; nothing in this module (or anything built on it) touches
floating point.
"""

from __future__ import annotations

import re
import sys
from math import gcd

from .value import Value

# A decimal integer as int() reads it: digits, maybe grouped by single "_".
_DECIMAL = re.compile(r"([+-]?)(\d+(?:_\d+)*)")


class Slope(Value):
    """A slope p/q, stored in lowest terms with q >= 0 (and p = 1 when q = 0)."""

    def __init__(self, p: int, q: int = 1) -> None:
        if p == 0 and q == 0:
            raise ValueError("slope 0/0 is not defined")
        g = gcd(p, q)
        p, q = p // g, q // g
        if q < 0:
            p, q = -p, -q
        elif q == 0:
            p = abs(p)
        # Two item writes are about twice as fast as __dict__.update.
        fields = self.__dict__
        fields["p"] = p
        fields["q"] = q

    @property
    def is_infinite(self) -> bool:
        return self.q == 0

    def __str__(self) -> str:
        return format_slope(self)


INFINITY = Slope(1, 0)


def distance(r1: Slope, r2: Slope) -> int:
    """Minimal geometric intersection number |p1 q2 - p2 q1| of two slopes."""
    return abs(r1.p * r2.q - r2.p * r1.q)


def continued_fraction(r: Slope) -> tuple[int, ...]:
    """Canonical continued fraction [a1, a2, ..., an] of a slope.

    Uses the floor expansion, so a1 is any integer, every later term is
    >= 1, and the final term is >= 2 unless the expansion is a single
    integer.  This makes the expansion unique.  Infinity maps to the
    empty tuple.
    """
    terms = []
    p, q = r.p, r.q
    while q != 0:
        a = p // q
        terms.append(a)
        p, q = q, p - a * q
    return tuple(terms)


def from_continued_fraction(terms: tuple[int, ...] | list[int]) -> Slope:
    """Evaluate a (not necessarily canonical) continued fraction to a slope.

    [a1, ..., an] means a1 + 1/(a2 + 1/(... + 1/an)); intermediate
    infinities are handled by the matrix recurrence, so arbitrary integer
    terms are allowed.  The empty sequence evaluates to infinity.
    """
    p, q = 1, 0
    for a in reversed(terms):
        p, q = a * p + q, p
    return Slope(p, q)


def apply_unimodular(matrix: tuple[tuple[int, int], tuple[int, int]], r: Slope) -> Slope:
    """Act on a slope by a matrix ((a, b), (c, d)) with det = +-1."""
    (a, b), (c, d) = matrix
    if abs(a * d - b * c) != 1:
        raise ValueError(f"matrix {matrix} is not unimodular")
    return Slope(a * r.p + b * r.q, c * r.p + d * r.q)


def int_limit_error(text: str) -> str | None:
    """Why int(text) fails when text is a decimal integer with more digits
    than the interpreter converts (sys.get_int_max_str_digits); else None.
    Digits are counted as int() counts them, without "_" separators."""
    m = _DECIMAL.fullmatch(text)
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # 3.10.7+
    if m is None:
        return None
    digits = m.group(2).replace("_", "")
    if not 0 < limit < len(digits):
        return None
    return (f"integer {m.group(1)}{digits[:8]}... has {len(digits)} "
            f"digits, more than the limit of {limit}")


def parse_slope(text: str) -> Slope:
    """Parse 'p/q', a bare integer, or 'inf' into a slope."""
    s = text.strip()
    if s == "inf":
        return INFINITY
    num, slash, den = s.partition("/")
    parts = (num.strip(), den.strip()) if slash else (s,)
    try:
        return Slope(*map(int, parts))
    except ValueError as exc:
        for part in parts:
            if too_long := int_limit_error(part):
                raise ValueError(f"bad slope: {too_long}") from None
        raise ValueError(f"bad slope {text!r}: {exc}") from exc


def format_slope(r: Slope) -> str:
    if r.q == 0:
        return "inf"
    if r.q == 1:
        return str(r.p)
    return f"{r.p}/{r.q}"
