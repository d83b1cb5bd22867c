"""The F_p wrapper scalar, kept as the reference arithmetic for tests.

The library represents an F_p scalar as its canonical residue, a plain
``int`` in ``[0, p)``, and reduces in its kernels.  ``PrimeFieldElement``
reduces in every operation instead and refuses to mix moduli, so a
computation routed through it is an independent check of those kernels.
``wrap`` and ``unwrap`` move between the two representations; over the
rationals both are the identity.
"""

from partialskew.fields import PrimeField


def wrap(field, x):
    """x as a wrapper element over a prime field, unchanged over QQ."""
    return PrimeFieldElement(x, field.p) if isinstance(field, PrimeField) else x


def unwrap(x):
    """The canonical residue of a wrapper element; other scalars unchanged."""
    return x.value if isinstance(x, PrimeFieldElement) else x


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

