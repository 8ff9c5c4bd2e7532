"""Exception hierarchy shared by every smallrank module, and its input gate."""


class SmallRankError(Exception):
    """Base class for all domain errors raised by this package."""


class DomainError(SmallRankError):
    """Input outside the mathematical domain of the operation."""


class RankError(SmallRankError):
    """Generating set does not span a lattice of the required rank."""


class DimensionError(SmallRankError):
    """Ambient dimensions of the operands do not match."""


class NotUnimodular(SmallRankError):
    """Matrix is not in GL2(Z)."""


class UnsupportedDiscriminant(SmallRankError):
    """Discriminant outside the supported range (wrong sign or residue)."""


class DiscriminantMismatch(SmallRankError):
    """Forms with different discriminants cannot be composed."""


class NotPrimitive(SmallRankError):
    """Form has content > 1 where a primitive form is required."""


class NotPositiveDefinite(SmallRankError):
    """Form is negative definite; negate it before reducing."""


class ZeroForm(SmallRankError):
    """The zero form defines no ideal."""


class FormRingMismatch(SmallRankError):
    """Form discriminant differs from the ring discriminant."""


class RingMismatch(SmallRankError):
    """Operands live over different quadratic rings."""


class NotAModule(SmallRankError):
    """Lattice is not stable under multiplication by the ring generator."""


class Degenerate(SmallRankError):
    """Cube has a vanishing associated form."""


class NotBalanced(SmallRankError):
    """Ideal triple fails the balancedness conditions."""


class NotInGamma(SmallRankError):
    """Matrix triple is not in the cube symmetry group (det product != 1)."""


class TrivialRing(SmallRankError):
    """The trivial quartic ring has no canonical resolvent."""


class DegenerateRing(SmallRankError):
    """Ring discriminant is zero; maximality is undefined."""


class PrecisionError(SmallRankError):
    """Working precision too small for the requested computation."""


class InvariantViolation(SmallRankError, AssertionError):
    """A self-check of a construction failed: a bug in smallrank, not bad input."""


def _ints(values, n, what="coefficients"):
    """values, a tuple or list of exactly n ints, as a tuple; else DomainError.

    Anything else is rejected: a bool, a float, a str, bytes, a mapping, any
    other iterable or a wrong length.  The test is ``type(v) is int``, so no
    subclass of int gets through.
    """
    ok = isinstance(values, (tuple, list)) and len(values) == n
    if not (ok and all(type(v) is int for v in values)):
        raise DomainError("need integer %s (%d ints), got %r" % (what, n, values))
    return tuple(values)


def _int(v, what, error=DomainError):
    """v itself if type(v) is int, so not a bool; else error."""
    if type(v) is not int:
        raise error("need an integer %s, got %r" % (what, v))
    return v


def _of(cls, value):
    """value itself if it is an instance of cls; else DomainError."""
    if not isinstance(value, cls):
        raise DomainError("expected a %s" % cls.__name__)
    return value


def _matrix(m):
    """A 2x2 integer matrix as two int pairs ((p, q), (r, s))."""
    if not isinstance(m, (tuple, list)) or len(m) != 2:
        raise DomainError("need a 2x2 integer matrix, got %r" % (m,))
    return _ints(m[0], 2, "matrix rows"), _ints(m[1], 2, "matrix rows")
