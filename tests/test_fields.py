import math
import time
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from partialskew.algebras import direct_product, product_of_fields
from partialskew.constructions import tensor_algebra
from partialskew.errors import FieldMismatch, ParseError
from partialskew.fields import GF, QQ, _canonical, _is_prime, parse_field

from fp_oracle import unwrap, wrap

nonzero_rationals = st.fractions(
    min_value=-1000, max_value=1000, max_denominator=50).filter(bool)


@given(nonzero_rationals)
def test_rational_inverse_cancels(a):
    assert a * (1 / a) == QQ.one


@given(st.fractions(max_denominator=30), st.fractions(max_denominator=30),
       st.fractions(max_denominator=30))
def test_rational_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c
    assert a + QQ.zero == a and a * QQ.one == a


def test_rational_parse():
    assert QQ.parse("-3/2") == Fraction(-3, 2)
    assert QQ.parse("−3/2") == Fraction(-3, 2)  # unicode minus
    assert QQ.parse("7") == Fraction(7)
    with pytest.raises(ParseError):
        QQ.parse("x")
    with pytest.raises(ParseError):
        QQ.parse("1/0")


@pytest.mark.parametrize("literal", ["1e3", "2E-2"])
def test_rational_parse_refuses_exponent_notation(literal):
    # Fraction would read them as 1000 and 1/50, forming 10**exponent, which
    # for 1e999999999 is an integer of ~3.3e9 bits; F_p refuses them too
    with pytest.raises(ParseError) as err:
        QQ.parse(literal)
    assert str(err.value) == f"bad rational literal {literal!r}: exponent notation is not read"
    with pytest.raises(ParseError):
        GF(5).parse(literal)


LITERAL_FIELDS = [QQ, GF(2), GF(5), GF(2**61 - 1)]


@pytest.mark.parametrize("field", LITERAL_FIELDS, ids=repr)
@pytest.mark.parametrize("literal, value", [
    ("0.5", Fraction(1, 2)), ("1.", Fraction(1)), (".5", Fraction(1, 2)),
    ("1/-2", Fraction(-1, 2)), ("3/+4", Fraction(3, 4)), ("5/5", Fraction(1)),
    ("2/4", Fraction(1, 2)), ("−3/2", Fraction(-3, 2)), (" -7 ", Fraction(-7)),
])
def test_one_literal_grammar_reduced_per_field(field, literal, value):
    # every field reads the literal as one rational; F_p refuses it exactly
    # when p divides the reduced denominator
    if not field.characteristic:
        got = field.parse(literal)
        assert got == value and type(got) is (int if value.denominator == 1 else Fraction)
    elif value.denominator % field.p:
        p = field.p
        assert field.parse(literal) == value.numerator * pow(value.denominator, -1, p) % p
    else:
        with pytest.raises(ParseError) as err:
            field.parse(literal)
        assert str(err.value) == (f"bad {field.name} literal {literal!r}: "
                                  f"division by zero in {field.name}")


@pytest.mark.parametrize("literal", ["3/ 4", "1_000", "١٢", "1e3", "1/0", "", "1.5.", "--1",
                                     "1/2/3", "0x10", "1/", 0.5, True, None])
def test_a_literal_outside_the_grammar_is_refused_alike_over_every_field(literal):
    messages = set()
    for field in LITERAL_FIELDS:
        with pytest.raises(ParseError) as err:
            field.parse(literal)
        messages.add(str(err.value))
    assert len(messages) == 1
    assert messages.pop().startswith(f"bad rational literal {literal!r}: ")


def _is_residue(x, p):
    return type(x) is int and 0 <= x < p


@pytest.mark.parametrize("p", [2, 7, 2**61 - 1])
@given(st.integers(-10**20, 10**20), st.integers(-10**20, 10**20))
def test_prime_field_arithmetic(p, x, y):
    # an F_p scalar is its canonical residue, whatever representative it
    # comes from; the normalisers agree with the wrapper arithmetic
    f = GF(p)
    a, b = f.parse(x), f.parse(y)
    for z in (f.zero, f.one, a, b, f.parse(str(x)), f.reduce(x * y)):
        assert _is_residue(z, p)
    assert (f.zero, f.one) == (0, 1)
    assert a == x % p and f.parse(str(x)) == a
    assert f.reduce(a + b) == unwrap(wrap(f, x) + wrap(f, y))
    assert f.reduce(a * b) == unwrap(wrap(f, x) * wrap(f, y))
    assert f.sparse({0: x, 1: p * y, 2: -x}) == {k: v for k, v in
                                                  {0: a, 2: f.reduce(-a)}.items() if v}
    if b:
        q = f.parse(f"{x}/{y}")
        assert _is_residue(q, p) and q * b % p == a


def test_prime_field_inverse_scan():
    f = GF(11)
    for n in range(1, 11):
        inv = f.parse(f"1/{n}")
        assert _is_residue(inv, 11) and inv * n % 11 == f.one
        assert f.parse(f"-{n}/{n}") == 10


def test_prime_field_parse_and_validation():
    f = GF(5)
    assert f.parse("7") == f.parse(2)
    assert f.parse("1/2") == f.parse(3)  # 2*3 = 6 = 1 mod 5
    with pytest.raises(ValueError):
        GF(6)
    with pytest.raises(ParseError, match="division by zero"):
        f.parse("1/5")
    with pytest.raises(ParseError):
        f.parse("1/x")


def test_integral_rationals_are_ints():
    for x in (QQ.parse("4/2"), QQ.parse("-6/3"), QQ.reduce(Fraction(3)),
              QQ.parse(3), QQ.zero, QQ.one):
        assert type(x) is int
    assert QQ.parse("4/2") == 2 and QQ.reduce(Fraction(3)) == 3
    assert QQ.parse("1/2") == Fraction(1, 2) and type(QQ.parse("1/2")) is Fraction
    assert QQ.reduce(Fraction(-1, 3)) == Fraction(-1, 3)
    xs = [1, Fraction(1, 2), 0]
    assert QQ.sparse(dict(enumerate(xs))) == {0: 1, 1: Fraction(1, 2)}


@pytest.mark.parametrize("x, expected, kind", [
    (0, 0, int), (7, 7, int), (-12, -12, int), (2 ** 70, 2 ** 70, int),
    (Fraction(0), 0, int), (Fraction(6, 3), 2, int), (Fraction(-5), -5, int),
    (Fraction(2 ** 70, 1), 2 ** 70, int),
    (Fraction(1, 2), Fraction(1, 2), Fraction),
    (Fraction(-7, 3), Fraction(-7, 3), Fraction),
])
def test_canonical_keeps_ints_and_non_integral_fractions(x, expected, kind):
    # an int is returned as itself, an integral Fraction as its numerator,
    # and any other Fraction unchanged, without naming Fraction in fields
    got = _canonical(x)
    assert type(got) is kind and got == expected
    if kind is Fraction or type(x) is int:
        assert got is x


def test_field_mix_caught_by_structural_guards():
    # scalars of every field are plain numbers that carry no field: the
    # residues 1 of F_5 and of F_7 are the same int, and 3 * 2 is 6 until a
    # kernel reduces it, so the structures themselves must refuse to mix
    # fields
    assert GF(5).one == GF(7).one == QQ.one
    assert GF(5).reduce(3 * GF(5).parse(2)) == GF(5).parse(1)
    kq, kf = product_of_fields(QQ, 1), product_of_fields(GF(5), 1)
    for build in (tensor_algebra, direct_product):
        with pytest.raises(FieldMismatch):
            build(kq, kf)
        with pytest.raises(FieldMismatch):
            build(kf, kq)


def test_field_tokens():
    assert parse_field("q") == QQ
    assert parse_field("fp:13") == GF(13)
    assert parse_field("fp:2") == GF(2) and parse_field("fp:007") == GF(7)
    assert GF(5) == GF(5) and GF(5) != GF(7) and QQ != GF(5)
    with pytest.raises(ParseError):
        parse_field("r")


@pytest.mark.parametrize("token", [
    "Q", "qq", "rationals", " q", "q\n", "fp:1_1", "fp:٥", "fp:+5", "fp:-5", "fp: 5",
    " fp:5 ", "FP:5", "fp:5.0", "fp:", "", 5, None, ["q"]])
def test_tokens_outside_the_grammar_are_refused(token):
    # exactly "q", or "fp:" followed by ASCII digits
    with pytest.raises(ParseError, match=r"^unknown field token .* \(expected 'q' or 'fp:<p>'\)$"):
        parse_field(token)


def test_large_prime_tokens_decided_fast():
    start = time.perf_counter()
    assert parse_field("fp:2305843009213693951") == GF(2**61 - 1)
    with pytest.raises(ParseError):
        parse_field("fp:2305843009213693953")  # 2^61 + 1 = 3 · 768614336404564651
    # a Mersenne prime, but beyond the bound where the test is a proof
    with pytest.raises(ParseError, match="too large"):
        parse_field(f"fp:{2**89 - 1}")
    assert time.perf_counter() - start < 1.0


def test_primality_matches_trial_division():
    for n in range(-2, 3000):
        trial = n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))
        assert _is_prime(n) == trial, n
    assert not _is_prime(41041)  # a Carmichael number
    assert not _is_prime(3215031751)  # strong pseudoprime to bases 2, 3, 5, 7
    assert not _is_prime(3825123056546413051)  # ... to bases 2 through 23
