"""Exception hierarchy shared across the package.

Bad text input and bad command line flags raise :class:`EvencobError` or a
subclass, so callers can tell the failure kinds apart.  An error raised
while a file is read starts ``line N: ``, N the line at fault or, when the
file ends inside a statement, its last non-empty line: `EvencobError` writes
that prefix from its ``line`` argument.  The mathematical
checks (a form that is not skew, a subspace that is not Lagrangian, morphisms
that do not glue) raise these subclasses too.  The command line front end
reads and validates its input first: an `EvencobError` there is bad input
(exit 2).  Once the input is accepted, any exception is an internal error
(exit 3), except :class:`OutputError`, a file the run was asked to write
that cannot be written, such as a ``--counterexample-out`` path.  A bad
argument to a library constructor or function raises ``ValueError`` or
``TypeError`` instead: a negative genus in ``standard_surface_space`` or
``SurfaceObject``, a genus below 1 in ``random_lagrangian``, ragged rows, the
inverse of a singular matrix (``ValueError``), or a float entry in
``RationalMatrix`` and a genus that is not an ``int`` (a float, a string, a
bool) in ``standard_surface_space``, ``SurfaceObject`` or ``GeneratorSpec``
(``TypeError``).
"""


class EvencobError(Exception):
    """Base class for all errors raised by this package."""

    def __init__(self, message: str, line: int | None = None):
        super().__init__(message if line is None else f"line {line}: {message}")


class DimensionMismatchError(EvencobError):
    """Operands live in spaces of incompatible dimensions."""


class NonSkewFormError(EvencobError):
    """A Gram matrix required to be skew-symmetric is not."""


class NotSymmetricError(EvencobError):
    """A Gram matrix required to be symmetric is not."""


class NotLagrangianError(EvencobError):
    """A subspace required to be Lagrangian is not."""


class InvalidTripleError(EvencobError):
    """A Lagrangian triple failed validation."""


class DecompositionError(EvencobError):
    """The vector lies outside the sum of the two given subspaces."""


class CompositionError(EvencobError):
    """Two morphisms cannot be composed."""


class GeneraMismatchError(CompositionError):
    """The middle surfaces disagree on their genera."""


class LagrangianMismatchError(CompositionError):
    """The middle surfaces agree on genera but carry different Lagrangians."""


class NotAPseudoCylinderError(EvencobError):
    """The morphism does not carry identity homological data."""


class NotSymplecticError(EvencobError):
    """A matrix required to preserve the symplectic form does not."""


class GeneratorSpecError(EvencobError):
    """A generator build plan is malformed or internally inconsistent."""


class OutputError(EvencobError):
    """A file the run was asked to write cannot be written."""


class FileSyntaxError(EvencobError):
    """A statement does not match the file grammar."""


class UnknownNameError(EvencobError):
    """A statement refers to a name that was never declared."""
