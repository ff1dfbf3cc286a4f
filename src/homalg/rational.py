"""Exact rational scalars.

The ground field is realized by :class:`fractions.Fraction`: values are always
gcd-reduced with a positive denominator, arithmetic is exact at arbitrary
precision, and equality is structural.  ``rat`` / ``rat_str`` fix the textual
form used by structure files ("p/q", or a bare integer string).
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction

Scalar = Fraction

ZERO = Fraction(0)
ONE = Fraction(1)


def rat(value: int | str | Fraction) -> Fraction:
    """Coerce an int, Fraction, or "p/q" / "p" string to an exact rational."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        limit = sys.get_int_max_str_digits()
        # Fraction builds 10**exponent before any digit limit applies
        exponent = re.search(r"[eE][-+]?(\d+(?:_\d+)*)\s*$", value)
        exponent = exponent[1].replace("_", "") if exponent else "0"
        if limit and len(exponent) <= limit < int(exponent):
            raise _over_limit(value, f"an exponent of {brief(int(exponent))}", limit)
        try:
            result = Fraction(value.strip())
        except (ValueError, ZeroDivisionError) as exc:
            digits = max(map(len, re.findall(r"\d+", value)), default=0)
            if limit and digits > limit:
                raise _over_limit(value, f"a {digits}-digit integer", limit) from exc
            raise ValueError(f"not a rational number: {brief(value)}") from exc
        size = max(abs(result.numerator), result.denominator)
        if limit and size.bit_length() > 3 * limit and size >= 10 ** limit:
            raise _over_limit(value, "a numerator or denominator of more digits", limit)
        return result
    raise ValueError(f"not a rational number: {brief(value)}")


def _over_limit(value: str, what: str, limit: int) -> ValueError:
    return ValueError(f"{brief(value)} has {what}, over Python's limit of {limit} digits "
                      "(sys.get_int_max_str_digits())")


def brief(value, width: int = 40) -> str:
    """repr of value for messages, cut to a prefix and its length when long."""
    text = repr(value)
    return text if len(text) <= width else f"{text[:width]}... ({len(text)} characters)"


def rat_str(value: Fraction) -> str:
    """Render a rational as "p" or "p/q" (the structure-file form)."""
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"
