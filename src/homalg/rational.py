"""Exact scalars: rationals, their integer form, and polynomials.

Rationals are :class:`fractions.Fraction`s; ``rat`` reads the structure-file
form (as ``Fraction`` reads a string, but with no underscores) and
``rat_str`` writes it ("p/q", or a bare integer string).  The tensors and both
solvers compute on integers: values as numerators over the lcm of their
denominators (``numerators``), divided by their content (``primitive``).
``Poly`` is a polynomial over the rationals whose arithmetic keeps whole
coefficients as ints, a scalar that can share a tensor with rationals.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from math import gcd, lcm
from operator import add
from types import MappingProxyType
from typing import Callable, Iterable, Mapping, Sequence

ZERO = Fraction(0)
ONE = Fraction(1)


def rat(value: int | str | Fraction) -> Fraction:
    """Coerce an int, a Fraction or a scalar string to an exact rational.

    A string is read as ``Fraction`` reads it, except that no version takes
    an underscore: "p/q", integers, decimals and exponents such as "1.5" and
    "1e3" (read exactly), surrounding spaces, and Unicode decimal digits.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        limit = sys.get_int_max_str_digits()
        # Fraction builds 10**exponent before any digit limit applies
        exponent = re.search(r"[eE][-+]?(\d+)\s*$", value)
        exponent = exponent[1] if exponent else "0"
        if limit and len(exponent) <= limit < int(exponent):
            raise _over_limit(value, f"an exponent of {brief(int(exponent))}", limit)
        try:
            # Fraction reads PEP 515 underscores from Python 3.11 on, 3.10 does not
            if "_" in value:
                raise ValueError(value)
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


def numerators(values: Iterable) -> tuple[list, int]:
    """Exact values (ints, Fractions, polynomials) as numerators over one
    denominator, the lcm of theirs; a polynomial is its own numerator over 1."""
    ratios = [(v, 1) if isinstance(v, Poly) else v.as_integer_ratio() for v in values]
    den = lcm(*[d for _, d in ratios])
    return [n * (den // d) for n, d in ratios], den


def primitive(values: list[int]) -> list[int]:
    """The integers divided by the gcd of all of them (all zeros as they are)."""
    common = gcd(*values)
    return values if common <= 1 else [v // common for v in values]


# ---------------------------------------------------------------------------
# polynomials


Monomial = tuple[int, ...]


def grevlex_key(m: Monomial):
    return (sum(m), tuple(-e for e in reversed(m)))


def lex_key(m: Monomial):
    return m


ORDER_KEYS: dict[str, Callable[[Monomial], object]] = {
    "grevlex": grevlex_key,
    "lex": lex_key,
}


def _variable_index(variables: Sequence[str], name: str) -> int:
    """Position of name in the variable list."""
    try:
        return variables.index(name)
    except ValueError:
        raise ValueError(f"unknown variable {name!r}; the variables are {tuple(variables)}") from None


def _canonical(terms: Mapping[Monomial, Fraction | int]) -> Mapping[Monomial, Fraction | int]:
    """The nonzero terms as a read-only view, every whole coefficient an int."""
    return MappingProxyType({m: c if type(c) is int or c.denominator != 1 else c.numerator
                             for m, c in terms.items() if c})


class Poly:
    """Multivariate polynomial with exact rational coefficients.

    ``terms`` maps dense exponent tuples to nonzero coefficients, ints or
    Fractions; every whole coefficient is an int, whether it was given to
    the constructor or produced by arithmetic or evaluation.  The variable
    list is fixed per system and shared by all polynomials that interact.
    ``terms`` is a read-only view, so a polynomial never changes after it is
    built (memos hand theirs out) and its hash is computed once.
    """

    __slots__ = ("variables", "terms", "_hash")

    def __init__(self, variables: Sequence[str], terms: Mapping[Monomial, object] | None = None):
        self.variables: tuple[str, ...] = tuple(variables)
        exact: dict[Monomial, Fraction | int] = {}
        for mono, coeff in (terms or {}).items():
            if len(mono) != len(self.variables):
                raise ValueError("monomial arity differs from variable count")
            exact[tuple(mono)] = coeff if type(coeff) is int else rat(coeff)
        self.terms = _canonical(exact)
        self._hash = None

    # -- constructors ------------------------------------------------------
    @classmethod
    def _raw(cls, variables: tuple[str, ...], terms: dict[Monomial, Fraction | int]) -> "Poly":
        """Wrap terms that exact arithmetic produced: int or Fraction
        coefficients on monomials of the right arity, not checked."""
        poly = cls.__new__(cls)
        poly.variables = variables
        poly.terms = _canonical(terms)
        poly._hash = None
        return poly

    @classmethod
    def zero(cls, variables: Sequence[str]) -> "Poly":
        return cls(variables, {})

    @classmethod
    def const(cls, variables: Sequence[str], value) -> "Poly":
        return cls(variables, {(0,) * len(variables): value})

    @classmethod
    def var(cls, variables: Sequence[str], name: str) -> "Poly":
        idx = _variable_index(variables, name)
        mono = tuple(1 if i == idx else 0 for i in range(len(variables)))
        return cls(variables, {mono: 1})

    # -- ring operations ---------------------------------------------------
    # An int or Fraction operand acts as a constant polynomial, so polynomial
    # and rational entries can share one tensor.
    def _operand(self, other) -> "Poly":
        if not isinstance(other, Poly):
            return Poly.const(self.variables, other)
        if self.variables != other.variables:
            raise ValueError("polynomials over different variable lists")
        return other

    def __add__(self, other) -> "Poly":
        other = self._operand(other)
        terms = self.terms.copy()
        for m, c in other.terms.items():
            terms[m] = terms.get(m, 0) + c
        return Poly._raw(self.variables, terms)

    __radd__ = __add__

    def __sub__(self, other) -> "Poly":
        return self + -self._operand(other)

    def __rsub__(self, other) -> "Poly":
        return self._operand(other) - self

    def __neg__(self) -> "Poly":
        return Poly._raw(self.variables, {m: -c for m, c in self.terms.items()})

    def __mul__(self, other) -> "Poly":
        if not isinstance(other, Poly):
            return self.scale(other)
        other = self._operand(other)
        terms: dict[Monomial, Fraction] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = _mono_mul(m1, m2)
                terms[m] = terms.get(m, 0) + c1 * c2
        return Poly._raw(self.variables, terms)

    __rmul__ = __mul__

    def __bool__(self) -> bool:
        return bool(self.terms)

    def scale(self, coeff, mono: Monomial | None = None) -> "Poly":
        c0 = coeff if type(coeff) is int else rat(coeff)
        if mono:
            terms = {_mono_mul(m, mono): c0 * c for m, c in self.terms.items()}
        else:
            terms = {m: c0 * c for m, c in self.terms.items()}
        return Poly._raw(self.variables, terms)

    def __eq__(self, other) -> bool:
        return isinstance(other, Poly) and self.variables == other.variables \
            and self.terms == other.terms

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.variables, tuple(sorted(self.terms.items()))))
        return self._hash

    def is_zero(self) -> bool:
        return not self.terms

    def total_degree(self) -> int:
        return max((sum(m) for m in self.terms), default=0)

    def is_constant(self) -> bool:
        return all(sum(m) == 0 for m in self.terms)

    def constant_value(self) -> Fraction:
        return self.terms.get((0,) * len(self.variables), ZERO)

    def leading_monomial(self, order: str = "grevlex") -> Monomial:
        if not self.terms:
            raise ValueError("zero polynomial has no leading monomial")
        return max(self.terms, key=ORDER_KEYS[order])

    def leading_coefficient(self, order: str = "grevlex") -> Fraction:
        return self.terms[self.leading_monomial(order)]

    # -- evaluation --------------------------------------------------------
    def substitute(self, assignment: Mapping[str, object]) -> "Poly":
        """Partially evaluate; remaining variables keep their positions.

        Each term is computed as an integer numerator over an integer
        denominator, and each output monomial is summed once, over the lcm of
        its terms' denominators."""
        values = []
        for name, value in assignment.items():
            value = rat(value)
            values.append((_variable_index(self.variables, name), value.numerator,
                           value.denominator))
        parts: dict[Monomial, list[tuple[int, int]]] = {}
        for mono, coeff in self.terms.items():
            num, den = coeff.numerator, coeff.denominator
            new = list(mono)
            for idx, vnum, vden in values:
                if e := mono[idx]:
                    num *= vnum ** e
                    den *= vden ** e
                    new[idx] = 0
            if num:
                parts.setdefault(tuple(new), []).append((num, den))
        terms: dict[Monomial, Fraction] = {}
        for mono, fractions in parts.items():
            den = lcm(*(d for _, d in fractions))
            terms[mono] = Fraction(sum(n * (den // d) for n, d in fractions), den)
        return Poly._raw(self.variables, terms)

    def evaluate(self, point: Mapping[str, object]) -> Fraction:
        res = self.substitute(point)
        if not res.is_constant():
            missing = [v for i, v in enumerate(self.variables)
                       if any(m[i] for m in res.terms)]
            raise ValueError(f"point does not bind variables {missing}")
        return res.constant_value()

    def used_variable_indices(self) -> set[int]:
        return {i for m in self.terms for i, e in enumerate(m) if e}

    def univariate_coefficients(self, index: int) -> list[Fraction]:
        """Ascending coefficient list in variable `index`; requires the poly
        to involve no other variable."""
        if not self.used_variable_indices() <= {index}:
            raise ValueError("polynomial is not univariate in that variable")
        degree = max((m[index] for m in self.terms), default=0)
        coeffs = [ZERO] * (degree + 1)
        for m, c in self.terms.items():
            coeffs[m[index]] += c
        return coeffs

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for mono in sorted(self.terms, key=grevlex_key, reverse=True):
            coeff = self.terms[mono]
            factors = [
                f"{self.variables[i]}^{e}" if e > 1 else self.variables[i]
                for i, e in enumerate(mono) if e
            ]
            body = "*".join(factors)
            if body:
                prefix = "" if coeff == 1 else ("-" if coeff == -1 else f"{coeff}*")
                parts.append(f"{prefix}{body}")
            else:
                parts.append(str(coeff))
        return " + ".join(parts).replace("+ -", "- ")

    __repr__ = __str__


def _mono_mul(a: Monomial, b: Monomial) -> Monomial:
    return tuple(map(add, a, b))
