"""Exception types shared across the package."""


class ZenopurError(Exception):
    """Base class for contract and numeric failures raised by this package."""


class NonHermitianInput(ZenopurError, ValueError):
    """A matrix that must be Hermitian deviates beyond ``linalg.HERMITICITY_TOL``."""


class ConvergenceFailure(ZenopurError):
    """An eigenvalue routine failed to converge."""


class DimensionMismatch(ZenopurError):
    """Operands live on incompatible Hilbert-space dimensions."""


class NotPositiveSemidefinite(ZenopurError, ValueError):
    """A density matrix has an eigenvalue below the state tolerance."""


class ZeroProbability(ZenopurError):
    """A conditional state is undefined because its probability vanished."""


class NoDominantEigenvalue(ZenopurError):
    """A spectral report does not single out a dominant eigenvalue."""


class BranchUnavailable(ZenopurError):
    """A closed-form eigenvalue branch does not apply at these parameters."""
