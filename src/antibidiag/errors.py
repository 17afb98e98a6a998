"""Exception hierarchy shared by all modules.  Every error derives from exactly
one of ``RejectedInput``, ``NumericalBreakdown`` and ``UsageError``, which carry
the command-line exit status (1, 2, 3) and its label."""


class AntibidiagError(Exception):
    """Base class for all package errors."""


class RejectedInput(AntibidiagError):
    """The input violates a hypothesis of the operation."""

    exit_code, label = 1, "rejected"


class NumericalBreakdown(AntibidiagError):
    """A valid input could not be carried through in the chosen arithmetic."""

    exit_code, label = 2, "numerical breakdown"


class UsageError(AntibidiagError):
    """The request is malformed or asks for something unsupported."""

    exit_code, label = 3, "usage error"


class BackendUnsupported(UsageError):
    """Operation requires a capability the active scalar backend lacks."""


class IndexOutOfRange(UsageError):
    pass


class DuplicateRoots(NumericalBreakdown):
    """Roots closer than the separation threshold."""


class NoSignChange(NumericalBreakdown):
    """A bisection bracket does not straddle a root."""


class NonPositiveEntry(RejectedInput):
    """A coefficient vector entry is not strictly positive."""


class NonFiniteEntry(RejectedInput):
    """A coefficient vector entry is infinite or NaN."""


class SizeMismatch(UsageError):
    pass


class StructuralZero(NumericalBreakdown):
    """A required structural entry of an anti-bidiagonal pattern is zero."""


class SpectrumError(RejectedInput):
    """Base class for spectrum validation rejections."""


class EmptyInput(SpectrumError):
    pass


class NonFiniteValue(SpectrumError):
    """A spectrum element, or a prescribed mu of `sqrt`, is infinite or NaN."""


class NonPositiveLead(SpectrumError):
    """First spectrum element is not strictly positive."""


class NotAlternating(SpectrumError):
    """Sign pattern +, -, +, ... is broken."""


class NotStrictlyDecreasingModulus(SpectrumError):
    """Absolute values fail to decrease strictly."""


class TooSmall(RejectedInput):
    """Input dimension below the operation's minimum."""


class NonPositiveA(NumericalBreakdown):
    """A squared codiagonal entry came out non-positive during reconstruction."""


class NonFiniteA(NumericalBreakdown):
    """A squared codiagonal entry overflowed the floating range."""


class NotNormalA(NumericalBreakdown):
    """The weights pass gave an a_1 or a squared entry that is not a positive normal float64."""


class NonFiniteResult(NumericalBreakdown):
    """A float64 result to be reported is inf or NaN."""


class SquareOutOfRange(NumericalBreakdown):
    """The square of a positive entry, or a band's Gershgorin width, leaves the float64 range."""


class NotTridiagonal(NumericalBreakdown):
    pass


class TooLarge(UsageError):
    """Combinatorial guard on minor enumeration exceeded."""


class NotDecreasing(RejectedInput):
    """Positive tuple is not strictly decreasing."""


class NonPositive(RejectedInput):
    """Positive tuple contains a non-positive element."""
