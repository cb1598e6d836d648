"""Exception types shared across the package."""


class AqlabError(Exception):
    """Base class for all domain errors raised by this package."""


class SignatureMismatch(AqlabError):
    """Binary operation on values carrying different signature parameters."""


class IsotropicScalar(AqlabError):
    """Inversion of a zero divisor (or zero) in the split-scalar ring."""


class NotPurelyImaginary(AqlabError):
    """Quaternion argument has a non-negligible real part."""


class OrthonormalityViolated(AqlabError):
    """An input basis fails its Gram-matrix normalization check.

    ``entry`` holds ``(row, col, value)`` of the first failing Gram entry.
    """

    def __init__(self, message, entry=None):
        super().__init__(message)
        self.entry = entry


class DegenerateEigenvector(AqlabError):
    """Spin-basis construction hit isotropic normalization denominators."""


class NotAQStructure(AqlabError):
    """Pair of operators fails the anticommuting-twistor relations."""


class ZeroVector(AqlabError):
    """A nonzero vector was required."""


class NotSemisimple(AqlabError):
    """The trace form of the algebra is degenerate."""


class InvalidModel(AqlabError):
    """Model data violates a structural invariant."""


class InvalidSignature(InvalidModel, ValueError):
    """A signature alpha that is not the real number -1 or +1."""


class InvalidInput(AqlabError, ValueError):
    """An array that :func:`aqlab.tensors.real_array` refuses, two that do not
    broadcast, a wrong count of floats, or an unknown name; the message names it."""


class NotTwistor(AqlabError):
    """Endomorphism does not square to a scalar +/-1 multiple of the identity."""


class NotEigenvalue(AqlabError):
    """Requested eigenvalue does not belong to the operator's spectrum."""


class InvalidMu(AqlabError):
    """Slope parameter must differ from +1 and -1."""


class WrongSignature(AqlabError):
    """Operation only defined for the other signature parameter."""


class Degenerate(AqlabError):
    """Metric family parameters not finite, degenerate, or in the wrong regime."""


class InvalidResolution(AqlabError):
    """Sweep resolution is not finite or below the supported minimum."""


class Overflow(AqlabError):
    """A quantity of finite inputs leaves the float range."""


class NonLieBracket(UserWarning):
    """Curvature requested on a bracket that fails the Jacobi identity."""
