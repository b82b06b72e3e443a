"""Exception types shared across the toolkit.

The CLI maps these onto exit codes, so raising the right class matters:
validation problems (bad model data, broken channel/measurement algebra)
are user errors, the rest indicate numerical trouble or internal bugs.
"""


class QmcError(Exception):
    """Base class for all toolkit errors."""


class ValidationError(QmcError):
    """Input data violates a definitional contract (Kraus normalization,
    measurement completeness, positivity, trace conditions, ...)."""


class DimensionMismatchError(ValidationError):
    """Operands have incompatible shapes or a non-square matrix was given
    where a square one is required."""


class EigensolverError(QmcError):
    """The dense eigensolver failed to converge or returned eigendata
    that fail their checks.  ``norm`` is the matrix's RMS singular value
    ``||A||_F / sqrt(dim)``."""

    def __init__(self, dim, norm, detail=""):
        self.dim = dim
        self.norm = norm
        msg = (
            f"eigensolver failed on a {dim}x{dim} matrix with RMS singular "
            f"value {norm:.6e}"
        )
        if detail:
            msg += f": {detail}"
        super().__init__(msg)


class RepresentationError(QmcError):
    """The step-operator representation violates a structural guarantee
    (spectral radius above one, or a non-semisimple unit-modulus
    eigenvalue).  Valid programs cannot produce this; it signals that the
    channel is not trace-preserving or the measurement is not complete."""


class SingularResolventError(QmcError):
    """I - N could not be inverted; unit-circle filtering failed."""


class ConsistencyError(QmcError):
    """Two routes that must agree produced different answers."""
