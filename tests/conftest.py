"""Random inputs shared by the test modules.

pytest puts this directory on ``sys.path`` (the test directory has no
``__init__.py``), so a module imports these with ``from conftest import ...``.
Each draws its numbers from the ``rng`` it is given, in a fixed order: the
real parts of a Gaussian block, then its imaginary parts.
"""

import numpy as np


def rand_hermitian(rng, dim, scale=1.0):
    """``scale`` times the Hermitian part of a complex Gaussian dim x dim matrix."""
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return scale * (a + a.conj().T) / 2.0


def rand_density(rng, dim):
    """B B^dag / Tr[B B^dag] for a complex Gaussian dim x dim matrix B, as an array."""
    b = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    m = b @ b.conj().T
    return m / np.trace(m).real


def rand_state(rng, dim):
    """A complex Gaussian vector of length ``dim``, normalized."""
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)
