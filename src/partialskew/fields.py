"""Exact base fields: arbitrary-precision rationals and prime fields.

A rational scalar is a plain ``int`` when it is integral and a
``fractions.Fraction`` otherwise: ``zero``, ``one``, ``from_int``, ``parse``
and ``lift`` give an ``int`` whenever the denominator is 1, so integral
structure constants (Cayley tables, matrix units, idempotents) multiply as
machine integers.  Sums and products of the two kinds stay exact (a
``Fraction`` result may then be integral; it compares and hashes equal to
the ``int``).  The one division of rational scalars, the pivot
normalisation in ``linalg._echelon``, goes through ``Fraction``, so no
``float`` can arise.  Prime-field scalars are tiny wrapper objects around a
residue so they support the same operator set.  Every scalar is immutable
and compares by value.

Bulk kernels (elimination, associativity) skip the wrappers: ``raw`` turns
field elements into raw scalars, which are the rational itself (``int`` or
``Fraction``) and the plain ``int`` residue over F_p, and ``lift`` turns a
raw scalar back.  ``characteristic`` (0 or p) tells a kernel which
arithmetic to use.
"""

from __future__ import annotations

from fractions import Fraction
from operator import index

from .errors import ParseError

_MINUS_VARIANTS = str.maketrans({"−": "-", "–": "-"})


class RationalField:
    """The field of rationals; elements are ``int`` or ``Fraction``."""

    name = "Q"
    characteristic = 0
    zero = 0
    one = 1

    def raw(self, xs):
        return list(xs)

    def lift(self, x):
        return _canonical(x)

    def from_int(self, n):
        return index(n)

    def parse(self, text):
        text = str(text).strip().translate(_MINUS_VARIANTS)
        try:
            return _canonical(Fraction(text))
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"bad rational literal {text!r}: {exc}") from None

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("RationalField")

    def __repr__(self):
        return "QQ"


QQ = RationalField()


def _canonical(x):
    """A rational scalar as an ``int`` when it is integral."""
    if type(x) is Fraction and x.denominator == 1:
        return x.numerator
    return x


class PrimeFieldElement:
    __slots__ = ("value", "p")

    def __init__(self, value, p):
        self.value = value % p
        self.p = p

    def _coerce(self, other):
        if isinstance(other, PrimeFieldElement):
            if other.p != self.p:
                raise TypeError(f"mixed prime fields F_{self.p} and F_{other.p}")
            return other.value
        if isinstance(other, int):
            return other % self.p
        return None

    def __add__(self, other):
        v = self._coerce(other)
        if v is None:
            return NotImplemented
        return PrimeFieldElement(self.value + v, self.p)

    __radd__ = __add__

    def __sub__(self, other):
        v = self._coerce(other)
        if v is None:
            return NotImplemented
        return PrimeFieldElement(self.value - v, self.p)

    def __rsub__(self, other):
        v = self._coerce(other)
        if v is None:
            return NotImplemented
        return PrimeFieldElement(v - self.value, self.p)

    def __mul__(self, other):
        v = self._coerce(other)
        if v is None:
            return NotImplemented
        return PrimeFieldElement(self.value * v, self.p)

    __rmul__ = __mul__

    def __truediv__(self, other):
        v = self._coerce(other)
        if v is None:
            return NotImplemented
        if v == 0:
            raise ZeroDivisionError(f"division by zero in F_{self.p}")
        return PrimeFieldElement(self.value * pow(v, self.p - 2, self.p), self.p)

    def __rtruediv__(self, other):
        v = self._coerce(other)
        if v is None:
            return NotImplemented
        if self.value == 0:
            raise ZeroDivisionError(f"division by zero in F_{self.p}")
        return PrimeFieldElement(v * pow(self.value, self.p - 2, self.p), self.p)

    def __neg__(self):
        return PrimeFieldElement(-self.value, self.p)

    def __eq__(self, other):
        if isinstance(other, PrimeFieldElement):
            return self.p == other.p and self.value == other.value
        return NotImplemented

    def __hash__(self):
        return hash((self.p, self.value))

    def __bool__(self):
        return self.value != 0

    def __repr__(self):
        return str(self.value)


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
    """The field with a prime number of elements."""

    def __init__(self, p):
        if not _is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.p = p
        self.characteristic = p
        self.name = f"F_{p}"

    def raw(self, xs):
        return [x.value for x in xs]

    def lift(self, x):
        return PrimeFieldElement(x, self.p)

    @property
    def zero(self):
        return PrimeFieldElement(0, self.p)

    @property
    def one(self):
        return PrimeFieldElement(1, self.p)

    def from_int(self, n):
        return PrimeFieldElement(n, self.p)

    def parse(self, text):
        text = str(text).strip().translate(_MINUS_VARIANTS)
        try:
            num, _, den = text.partition("/")
            numerator = self.from_int(int(num))
            if not den:
                return numerator
            return numerator / self.from_int(int(den))
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"bad F_{self.p} literal {text!r}: {exc}") from None

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("PrimeField", self.p))

    def __repr__(self):
        return f"GF({self.p})"


def GF(p):
    return PrimeField(p)


def parse_field(token):
    """Field from a CLI/scenario token: ``q`` or ``fp:<p>``."""
    token = str(token).strip().lower()
    if token in ("q", "qq", "rationals"):
        return QQ
    if token.startswith("fp:"):
        try:
            return GF(int(token[3:]))
        except ValueError as exc:
            raise ParseError(f"bad field token {token!r}: {exc}") from None
    raise ParseError(f"unknown field token {token!r} (expected 'q' or 'fp:<p>')")
