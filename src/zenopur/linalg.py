"""Dense complex linear algebra on small tensor-product spaces.

All operators are plain dense matrices carrying an explicit tuple of
subsystem dimensions (``factors``).  Composite basis indices are row
major, so under a split ``(da, db)`` the product state ``(i_a, i_b)``
sits at index ``i_a * db + i_b``.  This is enough bookkeeping for the
few-qubit systems targeted here without pulling in a tensor library.

An ``Operator`` used as a Hamiltonian carries its Hermitian spectrum as a
cached attribute: the Hermiticity check and ``eigh`` run on first use and
never again for that object, so a propagator or a projected evolution at
any number of times costs one eigendecomposition.  The cache cannot go
stale, because the entries are copied and made read-only at construction.
"""

from __future__ import annotations

import math
import numbers
import operator
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .exceptions import ConvergenceFailure, DimensionMismatch, NonHermitianInput, ZenopurError

HERMITICITY_TOL = 1e-10
CONDITION_LIMIT = 1e8


def _as_index(value, name: str, low: int | None = None, end: int = 2**63) -> int:
    """``value`` as an int: any integer, numpy's too, but no bool or float; given
    ``low``, a count ``low <= value < end`` (2**63: numpy lengths and int64 stop)."""
    if isinstance(value, bool) or not hasattr(type(value), "__index__"):
        raise ValueError(f"{name} must be an integer, not {type(value).__name__}")
    x = operator.index(value)
    if low is not None and not low <= x < end:
        raise ValueError(f"{name} must be at least {low} and less than {end}")
    return x


def _as_real(value, name: str, nonnegative: bool = False) -> float:
    """``value`` as a float: any finite real, numpy's too, but no bool; >= 0 if ``nonnegative``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a real number, not {type(value).__name__}")
    try:
        x = float(value)
    except OverflowError:  # an integer beyond the float range
        x = math.inf
    if not math.isfinite(x):
        raise ValueError(f"{name} must be finite, not {x!r}")
    if nonnegative and x < 0:
        raise ValueError(f"{name} must be nonnegative, not {x!r}")
    return x


@contextmanager
def _allocating(name: str, count: int):
    """Numpy's refusal to allocate by the count ``name`` in the block is a ZenopurError."""
    try:
        yield
    except (ValueError, MemoryError) as exc:
        raise ZenopurError(f"cannot allocate for {name} = {count}: {exc}") from None


def _as_unit_vector(value, dim: int, tol: float, name: str) -> np.ndarray:
    """``value`` as a new complex array of shape exactly ``(dim,)`` whose
    norm is 1 within ``tol``; nothing is flattened."""
    v = np.array(value, dtype=complex)
    if v.shape != (dim,):
        raise DimensionMismatch(f"{name} has shape {v.shape}, expected ({dim},)")
    norm = np.linalg.norm(v)
    if not abs(norm - 1.0) <= tol:  # a NaN norm fails too
        raise ValueError(f"{name} norm {float(norm)!r} is not 1")
    return v


def _hermitian_part(m: np.ndarray, name: str) -> np.ndarray:
    """``(m + m^dag) / 2``, or NonHermitianInput if ``max |m - m^dag|`` exceeds
    ``HERMITICITY_TOL``."""
    defect = np.max(np.abs(m - m.conj().T))
    if defect > HERMITICITY_TOL:
        raise NonHermitianInput(f"{name} deviates from Hermiticity by {defect:.3e}")
    return (m + m.conj().T) / 2.0


@dataclass(frozen=True)
class Operator:
    """Square complex matrix on a tensor product of subsystems.

    Parameters
    ----------
    entries : array_like
        Square complex matrix.  Copied and frozen at construction.
    factors : tuple of int, optional
        Subsystem dimensions in tensor order, no bool or float.  Their product
        must equal the matrix dimension.  Defaults to the single factor ``(dim,)``.

    ``hermitian_spectrum`` is computed on first access and kept; the
    entries are a read-only copy, so it always describes them.
    """

    entries: np.ndarray
    factors: tuple[int, ...] = None

    def __post_init__(self):
        entries = np.array(self.entries, dtype=complex)
        if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
            raise ValueError("entries must be a square matrix")
        if not np.isfinite(entries).all():
            raise ValueError("entries must be finite")
        dim = entries.shape[0]
        factors = (dim,) if self.factors is None else self.factors
        if not isinstance(factors, (tuple, list)):
            raise ValueError(f"factors must be an integer tuple or list, not {factors!r}")
        factors = tuple(_as_index(f, "factors", 1) for f in factors)
        if math.prod(factors) != dim:
            raise ValueError(f"factors {factors} do not multiply to dimension {dim}")
        entries.setflags(write=False)
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "factors", factors)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    @cached_property
    def hermitian_spectrum(self) -> tuple[np.ndarray, np.ndarray]:
        """Eigenvalues ``w`` (ascending) and orthonormal eigenvector columns
        ``q`` of the Hermitised entries, so that ``entries ~ q diag(w) q^dag``.

        Both arrays are read-only.  A failed check is not cached: it raises
        again on every access.

        Raises
        ------
        NonHermitianInput
            If ``max |m - m^dag|`` exceeds ``HERMITICITY_TOL``.
        """
        w, q = np.linalg.eigh(_hermitian_part(self.entries, "generator"))
        w.setflags(write=False)
        q.setflags(write=False)
        return w, q


@dataclass(frozen=True)
class Eigensystem:
    """Full eigendecomposition of a general (possibly non-normal) matrix.

    ``eigenvalues`` are sorted by descending magnitude, ties broken by
    descending real part and then descending imaginary part.  Columns of
    ``right_vectors`` are unit-norm right eigenvectors in the same order.
    When the matrix is diagonalizable, rows of ``left_vectors`` are the
    matching left eigenvectors, scaled so that ``left_vectors @
    right_vectors`` is the identity.  For a defective (or numerically
    defective) matrix no such pairing exists: ``diagonalizable`` is False
    and ``left_vectors`` is None.
    """

    eigenvalues: np.ndarray
    right_vectors: np.ndarray
    left_vectors: np.ndarray | None
    diagonalizable: bool

    def __post_init__(self):
        n = self.eigenvalues.shape[0]
        left = self.left_vectors
        if self.right_vectors.shape != (n, n) or (left is not None and left.shape != (n, n)):
            raise ValueError("eigenvector matrices must be square of matching size")


def matrix_exponential(h: Operator, t: float) -> Operator:
    """Unitary propagator ``exp(-i h t)`` of a Hermitian generator.

    The exponential is assembled from the generator's cached
    ``hermitian_spectrum`` (the eigenvector method), which keeps the
    result unitary to machine precision for any ``t``.  Only the first
    call on a given ``h`` diagonalizes it; later calls build ``U`` alone.

    Raises
    ------
    NonHermitianInput
        If ``max |h - h^dag|`` exceeds ``HERMITICITY_TOL``.
    """
    w, q = h.hermitian_spectrum
    u = (q * np.exp(-1j * w * float(t))) @ q.conj().T
    return Operator(u, h.factors)


def eig_general(v: Operator) -> Eigensystem:
    """Eigendecomposition of a general complex matrix.

    Eigenvalues are sorted by descending magnitude with deterministic
    tie-breaking (descending real part, then descending imaginary part).
    Right eigenvectors are normalized to unit Euclidean norm.  Left
    eigenvectors are taken as the rows of the inverse of the right
    eigenvector matrix, which makes the pairing exactly biorthonormal.
    When that matrix is ill conditioned (condition number beyond
    ``CONDITION_LIMIT``, which in particular captures colliding
    eigenvalues without independent eigenvectors) the matrix is reported
    as non-diagonalizable and carries no left vectors.

    Raises
    ------
    ConvergenceFailure
        If the underlying QZ/QR iteration does not converge.
    """
    try:
        w, vr = np.linalg.eig(v.entries)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(str(exc)) from exc
    order = np.lexsort((-w.imag, -w.real, -np.abs(w)))
    w = w[order]
    vr = vr[:, order]
    vr = vr / np.linalg.norm(vr, axis=0)
    cond = np.linalg.cond(vr)
    diagonalizable = bool(np.isfinite(cond) and cond <= CONDITION_LIMIT)
    left = np.linalg.inv(vr) if diagonalizable else None
    return Eigensystem(w, vr, left, diagonalizable)
