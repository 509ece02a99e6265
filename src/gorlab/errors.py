"""Domain errors.

Every failure mode of the library raises a subclass of GorlabError.  The
``kind`` attribute is the stable machine-readable name used in CLI error
reports; it defaults to the class name.
"""


class GorlabError(Exception):
    kind: str = ""

    def __init_subclass__(cls, **kw):
        super().__init_subclass__(**kw)
        if "kind" not in cls.__dict__:
            cls.kind = cls.__name__


GorlabError.kind = "GorlabError"


class FieldMismatch(GorlabError):
    pass


class ZeroInput(GorlabError):
    pass


class DimensionMismatch(GorlabError):
    pass


class ShapeMismatch(GorlabError):
    pass


class NotCommutative(GorlabError):
    pass


class NotAssociative(GorlabError):
    pass


class BadUnit(GorlabError):
    pass


class Singular(GorlabError):
    pass


class Degenerate(GorlabError):
    pass


class InfiniteDimensional(GorlabError):
    pass


class UnitIdeal(GorlabError):
    pass


class BoundTooSmall(GorlabError):
    pass


class NotEven(GorlabError):
    pass


class NotIsotropic(GorlabError):
    pass


class NotIsotropicUnit(GorlabError):
    pass


class NotLagrangian(GorlabError):
    pass


class NotSpecialLinear(GorlabError):
    pass


class SignatureUnavailable(GorlabError):
    pass


class SingularWitness(GorlabError):
    pass


class BadParameter(GorlabError):
    pass


class BadShape(GorlabError):
    pass


class ZeroScalar(GorlabError):
    pass


class GenericityFailure(GorlabError):
    pass


class BudgetExceeded(GorlabError):
    pass


class IOFailure(GorlabError):
    kind = "IOError"


class ParseError(GorlabError):
    """Syntax error in the .alg presentation grammar, with position."""

    kind = "SyntaxError"

    def __init__(self, message, line, col, expected=None):
        super().__init__(message)
        self.line = line
        self.col = col
        self.expected = expected


class UnknownVariable(GorlabError):
    pass


class UnknownMonomial(GorlabError):
    pass


class DuplicateClause(GorlabError):
    pass
