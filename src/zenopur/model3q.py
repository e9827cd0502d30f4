"""Three-qubit Bell-state extraction model.

Probe qubit X couples symmetrically to target qubits A and B,

    H = Omega * sum_i (1 + sigma3_i)/2
        + g (sigma+_X sigma-_A + h.c.) + g (sigma+_X sigma-_B + h.c.),

with tensor ordering X (x) A (x) B and |up> as the first basis vector.
The projected evolution operator on A (x) B has the singlet |Psi->_AB as
an exact eigenvector for every parameter choice, and with the probe on
the equator and Omega*tau tuned to a multiple of 2*pi its eigenvalue
sits alone on the unit circle, so repeated probe confirmation distills
the singlet.  Closed forms for V and its spectrum act as analytic
oracles against the generic engine.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .engine import ProbeSpec
from .exceptions import BranchUnavailable
from .linalg import Operator, _as_real

UP = np.array([1.0, 0.0], dtype=complex)
DOWN = np.array([0.0, 1.0], dtype=complex)
SIGMA_3 = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
SIGMA_PLUS = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
SIGMA_MINUS = SIGMA_PLUS.conj().T
NUMBER = (np.eye(2, dtype=complex) + SIGMA_3) / 2.0

INV_SQRT2 = 1.0 / math.sqrt(2.0)
CONDITION_TOL = 1e-9


@dataclass(frozen=True)
class ModelParams:
    """Model parameters: frequency, coupling, interval, probe amplitudes.

    ``omega``, ``g`` and ``tau`` are finite reals (no bool; numpy's are
    stored as floats) and ``tau >= 0``.  The probe state |phi>_X =
    alpha |up> + beta |down> must pass ``ProbeSpec``'s unit-norm rule.
    """

    omega: float
    g: float
    tau: float
    alpha: complex = INV_SQRT2
    beta: complex = INV_SQRT2

    def __post_init__(self):
        for name in ("omega", "g", "tau"):
            value = _as_real(getattr(self, name), name, nonnegative=name == "tau")
            object.__setattr__(self, name, value)
        probe_spec(self)  # the probe's own rule, on the same alpha and beta


@dataclass(frozen=True)
class BellBasis:
    """Orthonormal basis of the A (x) B space adapted to the model.

    Vectors live in the computational ordering (uu, ud, du, dd).
    """

    psi_minus: np.ndarray
    psi_plus: np.ndarray
    up_up: np.ndarray
    down_down: np.ndarray


class ModelEigenvalues(NamedTuple):
    psi_minus: complex
    phi_minus: complex
    plus: complex
    minus: complex


class ConditionFlags(NamedTuple):
    tuning_ok: bool
    probe_ok: bool
    coupling_ok: bool


def bell_basis() -> BellBasis:
    psi_minus = np.array([0.0, 1.0, -1.0, 0.0], dtype=complex) * INV_SQRT2
    psi_plus = np.array([0.0, 1.0, 1.0, 0.0], dtype=complex) * INV_SQRT2
    up_up = np.array([1.0, 0.0, 0.0, 0.0], dtype=complex)
    down_down = np.array([0.0, 0.0, 0.0, 1.0], dtype=complex)
    return BellBasis(psi_minus, psi_plus, up_up, down_down)


def probe_spec(p: ModelParams) -> ProbeSpec:
    """Probe specification |phi>_X = alpha|up> + beta|down> over the 2 x 4 split."""
    return ProbeSpec(np.array([p.alpha, p.beta], dtype=complex), 2, 4)


def build_hamiltonian(p: ModelParams) -> Operator:
    """8x8 Hamiltonian on X (x) A (x) B.

    Free part Omega*(1+sigma3)/2 on every qubit plus resonant flip-flop
    couplings X-A and X-B of strength g.  Commutes with the total
    excitation number, and is symmetric under the A <-> B swap.
    """
    i2 = np.eye(2, dtype=complex)

    def three(a, b, c):
        return np.kron(a, np.kron(b, c))

    h = p.omega * (
        three(NUMBER, i2, i2) + three(i2, NUMBER, i2) + three(i2, i2, NUMBER)
    )
    h = h + p.g * (three(SIGMA_PLUS, SIGMA_MINUS, i2) + three(SIGMA_MINUS, SIGMA_PLUS, i2))
    h = h + p.g * (three(SIGMA_PLUS, i2, SIGMA_MINUS) + three(SIGMA_MINUS, i2, SIGMA_PLUS))
    return Operator(h, (2, 2, 2))


def analytic_v_phi(p: ModelParams) -> Operator:
    """Closed form of the projected evolution operator on A (x) B.

    The interaction conserves excitation number, so the propagator is a
    direct sum of free phases and 2x2 rotations by sqrt(2)*g*tau between
    the probe and the symmetric triplet states.  Sandwiching it between
    |phi>_X gives four diagonal terms in the basis (|Psi->, |Psi+>,
    |uu>, |dd>) plus two sin(sqrt(2)*g*tau) off-diagonal blocks linking
    |Psi+> with |uu> and |dd>.
    """
    basis = bell_basis()
    e1 = cmath.exp(-1j * p.omega * p.tau)
    e2 = e1 * e1
    c = math.cos(math.sqrt(2.0) * p.g * p.tau)
    s = math.sin(math.sqrt(2.0) * p.g * p.tau)
    a2 = abs(p.alpha) ** 2
    b2 = abs(p.beta) ** 2
    ab = np.conj(p.alpha) * p.beta
    ba = np.conj(p.beta) * p.alpha

    def term(amp, bra_state, ket_state):
        return amp * np.outer(bra_state, ket_state.conj())

    v = term(e1 * (b2 + a2 * e1), basis.psi_minus, basis.psi_minus)
    v = v + term(c * e1 * (b2 + a2 * e1), basis.psi_plus, basis.psi_plus)
    v = v + term(e2 * (a2 * e1 + b2 * c), basis.up_up, basis.up_up)
    v = v + term(b2 + a2 * c * e1, basis.down_down, basis.down_down)
    v = v - 1j * s * (
        term(ab * e2, basis.psi_plus, basis.up_up)
        + term(ba * e2, basis.up_up, basis.psi_plus)
        + term(ba * e1, basis.psi_plus, basis.down_down)
        + term(ab * e1, basis.down_down, basis.psi_plus)
    )
    return Operator(v, (2, 2))


def singlet_eigenvalue(p: ModelParams) -> complex:
    """Eigenvalue of V on the singlet |Psi->_AB, exact for all parameters:

        lambda = exp(-i Omega tau) (|beta|^2 + |alpha|^2 exp(-i Omega tau)).
    """
    e1 = cmath.exp(-1j * p.omega * p.tau)
    return e1 * (abs(p.beta) ** 2 + abs(p.alpha) ** 2 * e1)


def _near_multiple(x: float, unit: float) -> tuple[int, bool]:
    """Nearest multiple n of ``unit`` to x, and whether x lies within
    ``CONDITION_TOL`` of n * unit."""
    n = round(x / unit)
    return n, abs(x - n * unit) <= CONDITION_TOL


def analytic_eigenvalues(p: ModelParams) -> ModelEigenvalues:
    """All four eigenvalues of V in the tuned equatorial-probe branch.

    Requires alpha = beta = 1/sqrt(2) and |Omega|*tau a multiple of
    2*pi.  Then with x = g*tau/sqrt(2),

        lambda_psi_minus = 1,
        lambda_phi_minus = cos(x)^2,
        lambda_pm = 1 - sin(x) (3 sin(x) +- sqrt(1 - 9 cos(x)^2)) / 2,

    the square root taken as the principal complex root when its
    argument is negative (then |lambda_pm| = |cos(x)|).  Outside this
    branch only the singlet eigenvalue has a closed form; use
    ``singlet_eigenvalue``.

    Raises
    ------
    BranchUnavailable
        If the tuning or probe preconditions fail.
    """
    off = abs(p.alpha - INV_SQRT2) > CONDITION_TOL or abs(p.beta - INV_SQRT2) > CONDITION_TOL
    # n = 0 is accepted: tau = 0 gives V = 1, which the closed form also covers
    if off or not _near_multiple(abs(p.omega) * p.tau, 2.0 * math.pi)[1]:
        raise BranchUnavailable(
            "closed-form spectrum needs alpha = beta = 1/sqrt(2) and "
            "|Omega|*tau = 2*pi*n"
        )
    x = p.g * p.tau / math.sqrt(2.0)
    sx = math.sin(x)
    cx = math.cos(x)
    root = cmath.sqrt(1.0 - 9.0 * cx * cx)
    lam_plus = 1.0 - 0.5 * sx * (3.0 * sx + root)
    lam_minus = 1.0 - 0.5 * sx * (3.0 * sx - root)
    return ModelEigenvalues(
        psi_minus=singlet_eigenvalue(p),
        phi_minus=complex(cx * cx),
        plus=lam_plus,
        minus=lam_minus,
    )


def check_conditions(p: ModelParams) -> ConditionFlags:
    """Parameter conditions for efficient singlet extraction.

    tuning_ok: |Omega|*tau is a positive multiple of 2*pi (within 1e-9),
    which puts the singlet eigenvalue on the unit circle; tau = 0 is
    excluded since V(0) = 1 purifies nothing.
    probe_ok: both probe amplitudes are nonzero (a pole probe state
    |up> or |down> makes V unitary on a sector and nothing decays).
    coupling_ok: g*tau/sqrt(2) is not a multiple of pi/2 (within 1e-9),
    otherwise a second eigenvalue reaches magnitude 1 and dominance is
    degenerate.
    """
    n, tuned = _near_multiple(abs(p.omega) * p.tau, 2.0 * math.pi)
    tuning_ok = n >= 1 and tuned
    probe_ok = p.alpha != 0 and p.beta != 0
    _, degenerate = _near_multiple(abs(p.g) * p.tau / math.sqrt(2.0), math.pi / 2.0)
    coupling_ok = not degenerate
    return ConditionFlags(tuning_ok, probe_ok, coupling_ok)
