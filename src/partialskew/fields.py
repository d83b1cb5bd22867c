"""Exact base fields: arbitrary-precision rationals and prime fields.

Scalars are plain Python numbers, never wrapper objects.  A rational scalar
is an ``int`` when it is integral and a ``fractions.Fraction`` otherwise:
``zero``, ``one`` and ``parse`` give an ``int`` whenever the denominator is 1,
so integral structure constants (Cayley tables, matrix
units, idempotents) multiply as machine integers.  Sums and products of the
two kinds stay exact (a ``Fraction`` result may then be integral; it
compares and hashes equal to the ``int``).  The one division of rational
scalars, the pivot normalisation in ``linalg._echelon``, stays in ``int``
when the pivot divides its row exactly and goes through ``Fraction``
otherwise, so no ``float`` can arise.  ``fractions`` (and with it
``decimal``) is imported only where a rational is first made, in ``parse``
and in a division that needs a denominator, so a run over F_p never loads
it, nor does a run over ℚ on integral data whose pivots all divide
exactly.

An F_p scalar is its canonical residue: an ``int`` in ``[0, p)``.  Every F_p
scalar that is stored in a table or vector, compared, hashed, zero-tested or
printed is canonical; ``==`` on residues is then equality in F_p, and a
residue prints as itself.  A kernel may take any ``int`` representative as
input (a negative int, a multiple of p) and reduces once per output
coefficient, through the normalisers below, which it binds once per call:

  * ``reduce(x)``: one scalar;
  * ``sparse(acc)``: an ``{index: scalar}`` accumulator, zeros dropped.
    It may return ``acc`` itself (over the rationals, when ``acc`` holds no
    zero), so a caller passes a dict it owns and does not reuse.

Over the rationals ``sparse`` only drops zeros, so a kernel's integral
``Fraction`` results stay as they are; ``reduce`` gives the ``int`` form,
which ``linalg._echelon`` applies to the rows it returns.  A kernel that
branches on ``characteristic`` (0 or p) skips the normalisers over the
rationals.

Every vector and every column of a linear map is an ``{index: scalar}``
dict.  Scalars that enter from the Python API (the columns of an action,
an antipode or an ``AlgebraMap``, an idempotent, a counit) go through a
third normaliser, ``scalars(xs)``, which returns a tuple and refuses any
scalar that is not exact in the field with a ``ValueError`` naming it:
over the rationals anything but an ``int`` or a ``Fraction`` (a ``float``,
a ``bool``), kept as it is; over F_p anything but an ``int``
representative (a ``Fraction`` too), reduced.

Residues carry no modulus, so sparse columns carry no field either: their
scalars are read in the field of the algebra they are handed to.  Mixing
fields is caught by the structures (a map's domain and codomain, a Hopf
algebra and the algebra it acts on, and tensor and direct products compare
their fields), not by scalars.
"""

from __future__ import annotations

import sys

from .errors import ParseError

_MINUS_VARIANTS = str.maketrans({"−": "-", "–": "-"})


def _canonical(x):
    """A rational scalar as an ``int`` when it is integral.  A ``Fraction``
    is told apart by its type not being ``int``, so that this module need
    not import ``fractions``."""
    if type(x) is not int and x.denominator == 1:
        return x.numerator
    return x


def _literal(text):
    """The one literal grammar of every field, as a numerator and a positive
    denominator in lowest terms: an ``int``, or a string (stripped, Unicode
    minus signs read as "-") of an optional sign, ASCII digits with at most
    one decimal point, and optionally "/" and an optionally signed nonzero
    ASCII integer ("-0.5", ".5", "1.", "3/-4").  Anything else is refused,
    exponent notation by name, as it would ask for 10**exponent."""
    if type(text) is int:
        return text, 1
    import re
    from math import gcd
    literal = text.strip().translate(_MINUS_VARIANTS) if isinstance(text, str) else ""
    m = re.fullmatch(r"([+-]?)(?=\.?\d)(\d*)(?:\.(\d*))?(?:/([+-]?0*[1-9]\d*))?", literal, re.A)
    try:
        if not m:
            raise ValueError("exponent notation is not read" if "e" in literal.lower() else
                             "expected [sign]digits[.digits][/[sign]nonzero integer]")
        sign, whole, frac, bottom = m.groups("")
        num, den = int(sign + whole + frac), int(bottom or 1) * 10 ** len(frac)
    except ValueError as exc:   # int() refuses more digits than it converts, too
        raise ParseError(f"bad rational literal {text!r}: {exc}") from None
    g = gcd(num, den) if den > 0 else -gcd(num, den)
    return num // g, den // g


def _rational_types():
    """The types of an exact rational: ``int``, and ``Fraction`` once
    ``fractions`` is loaded (a Fraction can exist only then)."""
    return {int, getattr(sys.modules.get("fractions"), "Fraction", int)}


class RationalField:
    """The field of rationals; elements are ``int`` or ``Fraction``."""

    name = "Q"
    characteristic = 0
    zero = 0
    one = 1
    reduce = staticmethod(_canonical)

    def scalars(self, xs):
        xs = tuple(xs)
        exact = _rational_types()
        if not set(map(type, xs)) <= exact:
            bad = next(x for x in xs if type(x) not in exact)
            raise ValueError(f"scalar {bad!r} is not an exact rational "
                             f"(an int or a Fraction)")
        return xs

    def sparse(self, acc):
        if 0 in acc.values():
            return {k: v for k, v in acc.items() if v}
        return acc

    def parse(self, text):
        num, den = _literal(text)
        if den == 1:
            return num
        from fractions import Fraction
        return Fraction(num, den)

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("RationalField")

    def __repr__(self):
        return "QQ"


QQ = RationalField()


# Miller-Rabin with the first 13 primes as bases is a proof of primality
# below this bound (Sorenson and Webster, "Strong pseudoprimes to twelve
# prime bases"); above it primality would be a guess, so larger moduli are
# refused.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3317044064679887385961981


def _is_prime(n):
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    if n >= _MR_BOUND:
        raise ValueError(f"{n} is too large to prove prime "
                         f"(the bound is {_MR_BOUND})")
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class PrimeField:
    """The field with a prime number of elements; elements are the residues
    ``0 .. p-1`` as ``int``."""

    zero = 0
    one = 1

    def __init__(self, p):
        if not _is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.p = p
        self.characteristic = p
        self.name = f"F_{p}"

    def reduce(self, x):
        return x % self.p

    def sparse(self, acc):
        p = self.p
        return {k: r for k, v in acc.items() if (r := v % p)}

    def scalars(self, xs):
        xs = tuple(xs)
        if not set(map(type, xs)) <= {int}:
            bad = next(x for x in xs if type(x) is not int)
            raise ValueError(f"scalar {bad!r} is not an int representative "
                             f"of an element of F_{self.p}")
        p = self.p
        return tuple(x % p for x in xs)

    def parse(self, text):
        num, den = _literal(text)
        if den % self.p == 0:
            raise ParseError(f"bad F_{self.p} literal {text!r}: division by zero in F_{self.p}")
        return num * pow(den, -1, self.p) % self.p

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("PrimeField", self.p))

    def __repr__(self):
        return f"GF({self.p})"


def GF(p):
    return PrimeField(p)


def parse_field(token):
    """Field from a CLI/scenario token: exactly ``q``, or ``fp:`` followed by
    the ASCII digits of a prime p.  Nothing is stripped, folded or read
    past that grammar, so any other token, a non-string included, is refused."""
    if token == "q":
        return QQ
    digits = token[3:] if isinstance(token, str) and token.startswith("fp:") else ""
    if not (digits.isascii() and digits.isdigit()):
        raise ParseError(f"unknown field token {token!r} (expected 'q' or 'fp:<p>')")
    try:
        return GF(int(digits))
    except ValueError as exc:   # not prime, or more digits than int() reads
        raise ParseError(f"bad field token {token!r}: {exc}") from None
