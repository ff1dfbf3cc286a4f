import random
import sys
from fractions import Fraction

import pytest

from homalg import rat, rat_str


def test_parse_fraction_string():
    assert rat("1/3") == Fraction(1, 3)
    assert rat("-2/4") == Fraction(-1, 2)
    assert rat("7") == Fraction(7)
    assert rat(" -5/10 ") == Fraction(-1, 2)


def test_parse_rejects_garbage():
    for bad in ("", "1/0", "x", "1.5.2", "2/"):
        with pytest.raises(ValueError):
            rat(bad)


def test_float_is_not_a_rational():
    with pytest.raises(ValueError, match=r"^not a rational number: 1\.5$"):
        rat(1.5)


def test_render_round_trip():
    values = [Fraction(0), Fraction(5), Fraction(-3, 7), Fraction(22, 4)]
    for v in values:
        assert rat(rat_str(v)) == v
    assert rat_str(Fraction(-3, 7)) == "-3/7"
    assert rat_str(Fraction(4)) == "4"


def test_canonical_invariants():
    v = rat(Fraction(6, -8))
    assert v.denominator > 0
    assert v.numerator == -3 and v.denominator == 4
    assert rat("-6/8") == Fraction(-3, 4)


def test_field_laws_on_large_rationals():
    # numerators/denominators up to 10**6: exercises arbitrary precision
    rng = random.Random(20240531)

    def draw():
        return Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**6))

    for _ in range(200):
        a, b, c = draw(), draw(), draw()
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a + b == b + a
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c


def test_huge_integer_names_the_digit_limit():
    limit = sys.get_int_max_str_digits()
    for text in ("1" * (limit + 701), "1/" + "3" * (limit + 1)):
        with pytest.raises(ValueError, match=r"sys\.get_int_max_str_digits") as info:
            rat(text)
        message = str(info.value)
        assert str(limit) in message and f"({len(text) + 2} characters)" in message
        assert len(message) < 200
    # within the limit the entry parses, and the interpreter's limit is unchanged
    assert rat("7" * limit) == int("7" * limit)
    assert sys.get_int_max_str_digits() == limit


def test_exponent_at_the_digit_limit_names_the_value_size():
    # the exponent itself is within the limit, but 10**limit has limit + 1 digits
    limit = sys.get_int_max_str_digits()
    with pytest.raises(ValueError) as info:
        rat(f"1e{limit}")
    assert str(info.value) == (f"'1e{limit}' has a numerator or denominator of more digits, "
                               f"over Python's limit of {limit} digits "
                               "(sys.get_int_max_str_digits())")


def test_long_bad_value_is_truncated_in_message():
    with pytest.raises(ValueError, match=r"^not a rational number: 'xxx") as info:
        rat("x" * 5000)
    assert "(5002 characters)" in str(info.value) and len(str(info.value)) < 120
    with pytest.raises(ValueError, match=r"^not a rational number: '1/x'$"):
        rat("1/x")
