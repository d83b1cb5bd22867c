"""Named failure types raised by the validating constructors.

Every exception carries its witness (the offending triple, element or
subspace pair) in the message so a failing scenario can be diagnosed
without re-running anything.
"""


class ValidationError(Exception):
    """Input data violates a structural axiom."""


class ParseError(Exception):
    """A scenario file could not be read or is malformed."""


class InternalCheckFailed(RuntimeError):
    """A verification that should hold for every valid instance failed.

    This signals a bug in the tool (or falsified mathematics), never bad
    user input.  Raised in a scenario suite, it is the failed check
    ``<suite>.refused`` (exit 1), as is a ValidationError raised there: only
    one raised while the document and its action are built is bad input.
    """


# -- groups ------------------------------------------------------------

class NotAssociative(ValidationError):
    def __init__(self, what, i, j, k):
        self.witness = (i, j, k)
        super().__init__(f"{what} is not associative at triple ({i}, {j}, {k})")


class NoIdentity(ValidationError):
    def __init__(self):
        super().__init__("no two-sided identity element in the table")


class NoInverse(ValidationError):
    def __init__(self, g):
        super().__init__(f"element {g} has no two-sided inverse")


# -- algebras ----------------------------------------------------------

class UnitFails(ValidationError):
    def __init__(self, i, side):
        super().__init__(f"unit law fails on basis element {i} ({side} side)")


class AlgebraMismatch(ValidationError):
    def __init__(self):
        super().__init__("maps do not compose: the inner codomain is not the outer domain")


class FieldMismatch(ValidationError):
    def __init__(self, a, b):
        super().__init__(f"field mismatch: {a} vs {b}")


class NotCentralIdempotent(ValidationError):
    def __init__(self, detail):
        super().__init__(f"not a central idempotent: {detail}")


# -- partial group actions ---------------------------------------------

class AxiomIFails(ValidationError):
    def __init__(self, detail):
        super().__init__(f"identity component is wrong: {detail}")


class AxiomIIFails(ValidationError):
    def __init__(self, g, h, detail):
        super().__init__(f"domain-intersection axiom fails at pair (g={g}, h={h}): {detail}")


class AxiomIIIFails(ValidationError):
    def __init__(self, g, h, basis_index):
        super().__init__(f"composition axiom fails at (g={g}, h={h}) "
                         f"on basis vector {basis_index}")


class NotIsoOnIdeal(ValidationError):
    def __init__(self, g, detail):
        super().__init__(f"map for g={g} is not an isomorphism between its ideals: {detail}")


# -- Hopf layer --------------------------------------------------------

class HopfAxiomFails(ValidationError):
    def __init__(self, axiom, detail):
        self.axiom = axiom
        super().__init__(f"Hopf axiom '{axiom}' fails: {detail}")


class AntipodeNotInvertible(ValidationError):
    def __init__(self):
        super().__init__("antipode matrix is singular")


class Axiom1Fails(ValidationError):
    def __init__(self, i, x, y):
        super().__init__(f"action is not multiplicative: basis {i} on product of basis {x}, {y}")


class Axiom2Fails(ValidationError):
    def __init__(self, detail):
        super().__init__(f"unit of the acting algebra does not act as identity: {detail}")


class Axiom3Fails(ValidationError):
    def __init__(self, i, j, x):
        super().__init__(f"iterated-action axiom fails at basis ({i}, {j}) on basis vector {x}")
