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
_EPS = np.finfo(float).eps


def _as_index(value, name: str, low: int, end: int = 2**63) -> int:
    """``value`` as an int: any integer, numpy's too, but no bool or float, and
    a count ``low <= value < end`` (2**63: numpy lengths and int64 stop)."""
    if isinstance(value, bool) or not hasattr(type(value), "__index__"):
        raise ValueError(f"{name} must be an integer, not {type(value).__name__}")
    x = operator.index(value)
    if not low <= x < end:
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


@dataclass(frozen=True, eq=False)
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
    entries are a read-only copy, so it always describes them.  For the
    same reason ``engine.projected_evolution`` keeps its probe rows on the
    instance, for the last probe.
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


@dataclass(frozen=True, eq=False)
class Eigensystem:
    """Eigenvalues of a general (possibly non-normal) matrix, sorted by
    descending magnitude, then descending real and imaginary part.  No
    eigenvector is kept: full ones come from one ``np.linalg.eig`` call, read
    with that call's own eigenvalues, which alone pair with its columns."""

    eigenvalues: np.ndarray


def _descending(w: np.ndarray) -> np.ndarray:
    """The order of ``w`` by descending magnitude, real part, imaginary part."""
    return np.lexsort((-w.imag, -w.real, -np.abs(w)))


def matrix_exponential(h: Operator, t: float) -> Operator:
    """Unitary propagator ``exp(-i h t)`` of a Hermitian generator.

    The exponential is assembled from the generator's cached
    ``hermitian_spectrum`` (the eigenvector method), which keeps the
    result unitary to machine precision for any ``t``.  Only the first
    call on a given ``h`` diagonalizes it; later calls build ``U`` alone.

    Raises
    ------
    ValueError
        If ``t`` is not a real number, or is a bool, infinite or NaN (see
        ``_as_real``; a negative ``t`` is allowed).
    NonHermitianInput
        If ``max |h - h^dag|`` exceeds ``HERMITICITY_TOL``.
    """
    w, q = h.hermitian_spectrum
    u = (q * np.exp(-1j * w * _as_real(t, "t"))) @ q.conj().T
    return Operator(u, h.factors)


def eig_general(v: Operator) -> Eigensystem:
    """Eigenvalues of a general complex matrix, by ``np.linalg.eigvals``.

    They are sorted by descending magnitude with deterministic
    tie-breaking (descending real part, then descending imaginary part).
    No eigenvector is formed: ``_dominant_pair`` gives the dominant pair.

    Raises
    ------
    ConvergenceFailure
        If the underlying QR iteration does not converge.
    """
    try:
        w = np.linalg.eigvals(v.entries)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(str(exc)) from exc
    return Eigensystem(w[_descending(w)])


def _dominant_pair(m: np.ndarray, lam0: complex) -> tuple[np.ndarray, np.ndarray, float]:
    """``(r0, l0, s0)``: right and left eigenvectors of the simple eigenvalue
    ``lam0`` of ``m`` by two steps of inverse iteration (Golub and Van Loan,
    *Matrix Computations*, 4th ed., 7.6.1), from one ``B = inv(m - s I)``.

    s = lam0 + d eps max(1, max|m|), so an exact lam0 leaves ``m - s I``
    invertible.  ``r0`` starts from B's largest column, ``l0`` from its largest
    row.  ``r0`` has unit norm and its largest-modulus entry real and positive
    (LAPACK's rule), ``l0 @ r0 = 1``, and s0 = |l0| is lam0's Wilkinson condition.
    ConvergenceFailure if ``m - s I`` is singular all the same.

    Each norm is written out with ``np.linalg.norm``'s own formula, so the
    results are bit for bit those of that call, without its dispatch.
    """
    d = m.shape[0]
    a = m.copy()
    a.ravel()[:: d + 1] -= lam0 + d * _EPS * max(1.0, np.abs(m).max())
    try:
        b = np.linalg.inv(a)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(str(exc)) from exc
    sq = (b.conj() * b).real
    x = b[:, np.sqrt(sq.sum(axis=0)).argmax()]
    y = b[np.sqrt(sq.sum(axis=1)).argmax()]
    for _ in range(2):
        x, y = b @ (x / _norm(x)), (y / _norm(y)) @ b
    top = x[np.abs(x).argmax()]
    r0 = x * (abs(top) / top) / _norm(x)
    l0 = y / (y @ r0)
    return r0, l0, _norm(l0)


def _norm(x: np.ndarray) -> float:
    """``np.linalg.norm(x)`` of a complex vector, without its dispatch."""
    re, im = x.real, x.imag
    return math.sqrt(re.dot(re) + im.dot(im))
