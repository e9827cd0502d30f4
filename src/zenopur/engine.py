"""Measurement-driven purification protocol on a probe + target split.

The total space is X (x) A, where X is the probe that gets measured and A
is the target to be purified.  One protocol step evolves the total state
for a time ``tau`` and then projects the probe back onto its prepared
state ``|phi>_X``.  Conditioned on always finding the probe unchanged,
the target evolves under the projected operator

    V = <phi|_X exp(-i H tau) |phi>_X,

a non-normal contraction on A whose dominant eigenvector is the state the
protocol selects.  ``spectral_report`` and ``efficiency_check`` analyze V
itself.

``condition`` builds V and the eigenpairs lambda_k > STATE_TOL * p0, u_k of
rho'_A = <phi|rho_tot|phi> once, as one ``Conditioned`` system that
``evolve`` iterates and ``trajectories.sample`` draws its shots from:
rho_A = W W^dag for W = [u_k sqrt(lambda_k / p0)], so n confirmations map
it to V^n W (V^n W)^dag.  ``Conditioned.orbit``, the one place V^n is
applied, yields V^n W to ``evolve`` and V^n u_k to the sampler.  The trace
is columnar: P(n) = p0 |V^n W|_F^2 and the fidelity |t^dag V^n W|^2 / |V^n W|_F^2
come from the kept factors V^n W (d x r each), and the d x d states and the
per-step objects are built only when read.

V is built from the probe rows of the Hamiltonian's cached Hermitian
spectrum (``Operator.hermitian_spectrum``), never from the full
propagator: every call on the same ``H`` object, at any tau, shares one
eigendecomposition.  Likewise rho'_A depends on the state and the probe
alone, so its ensemble is kept on the ``DensityMatrix``: rho'_A is
diagonalized once per state and probe, whatever H and tau, and a failed
check is not kept but raises again on every call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .exceptions import (
    DimensionMismatch,
    NoDominantEigenvalue,
    NotPositiveSemidefinite,
    ZeroProbability,
)
from .linalg import CONDITION_LIMIT, Eigensystem, Operator, _dominant_pair, eig_general
from .linalg import _allocating, _as_index, _as_real, _as_unit_vector, _hermitian_part
from .linalg import matrix_exponential  # noqa: F401  traced by name in bench/worker.py

P0_FLOOR = 1e-14
SURVIVAL_FLOOR = 1e-300
DOMINANCE_TOL = 1e-9
STATE_TOL = 1e-10
# B = max(1, this // d^2) steps per orbit stack (B, d, r); at d^2 > 2^15, B = 1 and
# the orbit is the plain loop, without doubling
_STATE_BLOCK_ELEMENTS = 1 << 15


def _check_psd(evals: np.ndarray) -> None:
    """Raise NotPositiveSemidefinite if an eigenvalue lies below -STATE_TOL."""
    if evals.min() < -STATE_TOL:
        raise NotPositiveSemidefinite(f"density matrix has negative eigenvalue {evals.min():.3e}")


@dataclass(frozen=True)
class ProbeSpec:
    """Probe state and the dimension split of the total space.

    ``phi_x`` is the probe state on X, of shape ``(dim_x,)`` and unit norm
    within 1e-12; the dimensions ``dim_x`` and ``dim_a`` are positive
    integers (numpy's too, stored as ints; no bool or float).
    """

    phi_x: np.ndarray
    dim_x: int
    dim_a: int

    def __post_init__(self):
        for name in ("dim_x", "dim_a"):
            object.__setattr__(self, name, _as_index(getattr(self, name), name, 1))
        phi = _as_unit_vector(self.phi_x, self.dim_x, 1e-12, "probe state")
        phi.setflags(write=False)
        object.__setattr__(self, "phi_x", phi)

    @property
    def dim_total(self) -> int:
        return self.dim_x * self.dim_a


@dataclass(frozen=True)
class DensityMatrix:
    """Validated density matrix wrapper.

    Construction checks Hermiticity (``linalg._hermitian_part``), then
    positive semidefiniteness and unit trace within ``STATE_TOL``.  The
    entries are read-only, so ``condition`` keeps the ensemble of rho'_A for
    the last probe on the instance (no field; a failed check is not kept).
    """

    op: Operator

    def __post_init__(self):
        m = self.op.entries
        _check_psd(np.linalg.eigvalsh(_hermitian_part(m, "density matrix")))
        if abs(np.trace(m).real - 1.0) > STATE_TOL:
            raise ValueError(f"density matrix trace {np.trace(m)!r} is not 1")

    @classmethod
    def pure(cls, vec: np.ndarray, factors: tuple[int, ...] = None) -> "DensityMatrix":
        """Density matrix |v><v| of the 1-D vector ``vec`` normalized to v,
        whose trace |v|^2 must then be 1 within ``STATE_TOL``."""
        v = np.asarray(vec, dtype=complex)
        n = np.linalg.norm(v)
        if n == 0.0:
            raise ValueError("cannot normalize the zero vector")
        v = _as_unit_vector(v / n, v.size, STATE_TOL, "pure state")
        return cls(Operator(np.outer(v, v.conj()), factors))

    @property
    def entries(self) -> np.ndarray:
        return self.op.entries

    @property
    def dim(self) -> int:
        return self.op.dim


@dataclass(frozen=True)
class SpectralReport:
    """Spectral diagnostics of a projected evolution operator.

    ``eigensystem`` holds the eigenvalues (and the vectors only if read).
    ``dominant_index`` points at the top of the magnitude-sorted spectrum
    and is None only when the whole spectrum vanishes.  ``dominant_unique``
    is False whenever the two largest magnitudes agree within
    ``DOMINANCE_TOL``.  Given unique dominance, ``asymptotic_state`` is the
    unit right eigenvector r0 of lambda0 and ``dominant_condition`` is
    s0 = |l0|, lambda0's Wilkinson condition, for the left eigenvector l0
    with l0 r0 = 1; both are None otherwise.  ``yield_coefficient`` is
    <l0| rho |l0>, the prefactor of P(N) ~ |lambda0|^(2N) <l0|rho|l0>.  It
    needs an initial state, unique dominance and s0 <= ``CONDITION_LIMIT``
    (lambda0 not nearly defective, whatever the rest of the spectrum does).
    """

    eigensystem: Eigensystem
    dominant_index: int | None
    dominant_unique: bool
    gap_ratio: float
    asymptotic_state: np.ndarray | None = None
    yield_coefficient: float | None = None
    dominant_condition: float | None = None


@dataclass(frozen=True)
class ProtocolStep:
    """State of the protocol after n successful probe measurements.

    ``state`` is Hermitian, positive and of unit trace by construction, so
    it is a plain ``Operator``, not a re-validated ``DensityMatrix``.
    """

    n: int
    state: Operator
    success_prob: float
    fidelity: float | None = None


@dataclass(frozen=True)
class ProtocolTrace:
    """Protocol history for n = 0 .. n_steps as columns, step 0 being the
    prepared state.

    ``success_prob[n]`` is P(n), ``fidelity[n]`` the fidelity to the
    target (``fidelity`` is None when no target was supplied) and
    ``factors[n]`` the (dim_a x r) factor W_n = V^n W of the conditional
    state; all three arrays are read-only.  ``states`` (the (dim_a x dim_a)
    states W_n W_n^dag / Tr[...], read-only) and ``steps`` (one
    ``ProtocolStep`` per row) are built on first read.
    """

    success_prob: np.ndarray
    fidelity: np.ndarray | None
    factors: np.ndarray

    @cached_property
    def states(self) -> np.ndarray:
        states = self.factors @ self.factors.conj().transpose(0, 2, 1)
        # divide the (re, im) pairs as reals: correctly rounded, and much
        # cheaper than numpy's complex division by q + 0j
        states.view(float)[...] /= np.einsum("nii->n", states).real[:, None, None]
        states.setflags(write=False)
        return states

    @cached_property
    def steps(self) -> tuple[ProtocolStep, ...]:
        probs = self.success_prob.tolist()
        fids = [None] * len(probs) if self.fidelity is None else self.fidelity.tolist()
        return tuple(
            ProtocolStep(n=n, state=Operator(m), success_prob=p, fidelity=f)
            for n, (m, p, f) in enumerate(zip(self.states, probs, fids))
        )

    def success_probabilities(self) -> np.ndarray:
        return self.success_prob

    def fidelities(self) -> np.ndarray:
        """Fidelity column as floats, NaN where no target was supplied."""
        if self.fidelity is None:
            return np.full(self.success_prob.shape, math.nan)
        return self.fidelity


def projected_evolution(h_tot: Operator, tau: float, probe: ProbeSpec) -> Operator:
    """Projected evolution operator V = <phi|_X exp(-i H tau) |phi>_X.

    V acts on the target space A alone and is a contraction: every
    singular value is at most 1, so eigenvalue magnitudes never exceed 1.
    This is the one place V is built; ``tau`` must be a finite real (no
    bool, see ``linalg._as_real``) and nonnegative.

    With ``H = Q diag(w) Q^dag`` from the cached ``h_tot.hermitian_spectrum``
    and the probe rows ``Q_phi = <phi|_X Q`` (dim_a x dim_total),

        V = (Q_phi exp(-i w tau)) Q_phi^dag,

    so no propagator on the total space is assembled, and only the first
    call on a given ``h_tot`` diagonalizes it.

    Raises
    ------
    ValueError
        If ``tau`` is not a real number, or is a bool, negative, infinite or NaN.
    NonHermitianInput
        If ``h_tot`` is not Hermitian within ``linalg.HERMITICITY_TOL``.
    """
    tau = _as_real(tau, "tau", nonnegative=True)
    if h_tot.dim != probe.dim_total:
        raise DimensionMismatch(
            f"Hamiltonian dimension {h_tot.dim} does not match probe split "
            f"{probe.dim_x} x {probe.dim_a}"
        )
    w, q = h_tot.hermitian_spectrum
    q_phi = np.einsum("i,iak->ak", probe.phi_x.conj(), q.reshape(probe.dim_x, probe.dim_a, -1))
    v = (q_phi * np.exp(-1j * w * tau)) @ q_phi.conj().T
    return Operator(v)


def probe_block(rho_tot: DensityMatrix, probe: ProbeSpec) -> np.ndarray:
    """Unnormalized target block rho'_A = <phi|_X rho_tot |phi>_X, Hermitized.

    Its trace is the probability p0 of finding the probe in |phi>_X at
    step zero.  This is the one place the state's dimension is checked
    against the probe split.
    """
    if rho_tot.dim != probe.dim_total:
        raise DimensionMismatch(
            f"state dimension {rho_tot.dim} does not match probe split "
            f"{probe.dim_x} x {probe.dim_a}"
        )
    blocks = rho_tot.entries.reshape(probe.dim_x, probe.dim_a, probe.dim_x, probe.dim_a)
    phi = probe.phi_x
    raw = np.einsum("i,iajb,j->ab", phi.conj(), blocks, phi)
    return (raw + raw.conj().T) / 2.0


@dataclass(frozen=True)
class Conditioned:
    """The conditioned system of one config, built by ``condition``.

    ``v`` is the projected evolution operator V on A, ``weights`` (ascending,
    read-only) and the columns of ``members`` (read-only) the eigenpairs
    lambda_k > STATE_TOL * max(p0, 0), u_k of rho'_A = ``probe_block(rho_tot,
    probe)``, and ``p0`` its trace; the cut moves P(n) by at most
    sum_dropped |lambda_k|.  ``evolve`` and ``trajectories.sample`` run on it.
    """

    v: Operator
    weights: np.ndarray
    members: np.ndarray
    p0: float

    def orbit(self, w: np.ndarray, n_steps: int):
        """Yield ``(start, stack)`` with ``stack[j] = V^(start + j) w`` for
        n = 0 .. n_steps; ``w`` is a (d x r) factor, and ``stack`` one buffer
        that the next block overwrites.

        Blocks are B = max(1, _STATE_BLOCK_ELEMENTS // d^2) steps.  A block
        starts from w, or V times the previous block's last row, and is
        filled by doubling, V^(n + 2^k) w = V^(2^k) V^n w for the next
        min(2^k, rest) steps, one batched product each.  Each V^(2^k) is
        squared once per call, on first need: d^2 r per step plus at most
        ceil(log2 B) squarings (d^3 each); at B = 1 (d^2 > 2^15) it is the
        plain loop w <- V w.
        """
        vm, d = self.v.entries, self.v.dim
        block = max(1, _STATE_BLOCK_ELEMENTS // (d * d))
        w_block = np.empty((min(block, n_steps + 1),) + w.shape, dtype=complex)
        powers = [vm]  # V^(2^k), squared on first need and kept for later blocks
        for start in range(0, n_steps + 1, block):
            wb = w_block[: min(block, n_steps + 1 - start)]
            # the previous block, whose last row this reads, was a full one
            wb[0] = w if start == 0 else vm @ w_block[-1]
            have, k = 1, 0
            while have < len(wb):
                if k == len(powers):
                    powers.append(powers[-1] @ powers[-1])
                take = min(have, len(wb) - have)
                np.matmul(powers[k], wb[:take], out=wb[have : have + take])
                have, k = have + take, k + 1
            yield start, wb


def condition(
    rho_tot: DensityMatrix, h_tot: Operator, tau: float, probe: ProbeSpec
) -> Conditioned:
    """V and the eigen-ensemble of rho'_A, built and checked once.

    ``projected_evolution`` checks ``tau`` and the Hamiltonian's dimension,
    ``probe_block`` the state's.  When p0 >= ``P0_FLOOR``, rho'_A / p0 must
    be positive semidefinite within ``STATE_TOL``, as a ``DensityMatrix``;
    a smaller p0 is left to ``evolve``, which rejects it.  Only the members
    lambda_k > STATE_TOL * max(p0, 0) are kept, all positive at any p0, and
    as V is a contraction the cut moves P(n) by at most sum_dropped |lambda_k|.
    rho'_A is diagonalized once per state and probe: later calls with an
    equal probe, at any H and tau, reuse its arrays (a failed check is not kept).

    Raises
    ------
    NotPositiveSemidefinite
        A ValueError, if rho'_A / p0 has an eigenvalue below -STATE_TOL.
    """
    v = projected_evolution(h_tot, tau, probe)
    return Conditioned(v, *_ensemble(rho_tot, probe))


def _ensemble(rho_tot: DensityMatrix, probe: ProbeSpec) -> tuple[np.ndarray, np.ndarray, float]:
    """``(weights, members, p0)`` of ``condition``, kept on ``rho_tot`` for the
    last probe (one slot, keyed by its value); a failed check is not kept."""
    key = (probe.dim_x, probe.dim_a, probe.phi_x.tobytes())
    slot = rho_tot.__dict__.get("_ensemble")
    if slot is not None and slot[0] == key:
        return slot[1]
    block = probe_block(rho_tot, probe)
    weights, members = np.linalg.eigh(block)
    p0 = float(np.trace(block).real)
    if p0 >= P0_FLOOR:
        _check_psd(weights / p0)
    kept = weights > STATE_TOL * max(p0, 0.0)
    weights, members = weights[kept], members[:, kept]
    weights.setflags(write=False)
    members.setflags(write=False)
    rho_tot.__dict__["_ensemble"] = key, (weights, members, p0)
    return weights, members, p0


def condition_on_probe(
    rho_tot: DensityMatrix, probe: ProbeSpec
) -> tuple[DensityMatrix, float]:
    """Target state conditioned on finding the probe in |phi>_X.

    Returns the normalized conditional state on A and the probability
    p0 = Tr[<phi|rho_tot|phi>] of that outcome at step zero.

    Raises
    ------
    ZeroProbability
        If p0 falls below ``P0_FLOOR``.
    """
    block = probe_block(rho_tot, probe)
    p0 = float(np.trace(block).real)
    if p0 < P0_FLOOR:
        raise ZeroProbability(f"probe outcome probability {p0:.3e} vanishes")
    return DensityMatrix(Operator(block / p0)), p0


def _sum_squares(z: np.ndarray, subscripts: str, out: np.ndarray | None = None) -> np.ndarray:
    """sum |z|^2 over the axes that ``subscripts`` ("nij->n") drops, from the
    real and imaginary views: no complex temporary."""
    spec = "{0},{0}->{1}".format(*subscripts.split("->"))
    out = np.einsum(spec, z.real, z.real, out=out)
    out += np.einsum(spec, z.imag, z.imag)
    return out


def _as_target(value, dim: int) -> np.ndarray:
    """``value`` as a target state: shape ``(dim,)``, unit norm within 1e-8."""
    return _as_unit_vector(value, dim, 1e-8, "target")


def fidelity(rho: DensityMatrix | Operator, target: np.ndarray) -> float:
    """Fidelity <target| rho |target> against a pure state of shape
    ``(rho.dim,)`` and unit norm within 1e-8."""
    t = _as_target(target, rho.dim)
    mt = np.einsum("ij,j->i", rho.entries, t)
    return float(np.clip(np.einsum("i,i->", t.conj(), mt).real, 0.0, 1.0))


def evolve(system: Conditioned, n_steps: int, target: np.ndarray | None = None) -> ProtocolTrace:
    """Iterate the conditional protocol on ``system`` for n = 0 .. n_steps.

    Step n holds the target state after n successful probe measurements,

        rho_A(n) = V^n rho_A V^dag^n / Tr[...],

    and the cumulative success probability P(n) = p0 * Tr[V^n rho_A V^dag^n]
    >= 0, non-increasing in n, for rho_A on the members ``condition`` keeps:
    within sum_dropped |lambda_k| of that of the whole rho'_A.

    For each block of W_n = V^n W from ``system.orbit`` (module docstring),
    P(n) = p0 |W_n|_F^2 and the fidelity |t^dag W_n|^2 / |W_n|_F^2 are taken at
    once, and the block is kept as the trace's ``factors``: a step holds d r
    complex numbers, and d^2 more only once ``states`` is read.  ``target``
    gets the shape and unit-norm check of ``fidelity`` (and its
    DimensionMismatch or ValueError) once, before the loop.

    Raises
    ------
    ZeroProbability
        If the initial probe outcome has vanishing probability, or the
        survival probability underflows ``SURVIVAL_FLOOR``.
    """
    n_steps = _as_index(n_steps, "n_steps", 0)
    t = None if target is None else _as_target(target, system.v.dim)
    p0 = system.p0
    if p0 < P0_FLOOR:
        raise ZeroProbability(f"probe outcome probability {p0:.3e} vanishes")
    w = system.members * np.sqrt(system.weights / p0)

    with _allocating("n_steps", n_steps):
        probs = np.empty(n_steps + 1)
        fids = None if t is None else np.empty(n_steps + 1)
        factors = np.empty((n_steps + 1,) + w.shape, dtype=complex)
    for start, wb in system.orbit(w, n_steps):
        stop = start + len(wb)
        q = _sum_squares(wb, "nij->n")
        p = p0 * q
        # checked before dividing by q, so no 0/0 can occur
        low = np.flatnonzero(p < SURVIVAL_FLOOR)
        if low.size:
            raise ZeroProbability(
                f"survival probability underflowed at step {start + low[0]}"
            )
        probs[start:stop] = p
        factors[start:stop] = wb
        if t is not None:
            fids[start:stop] = np.clip(_sum_squares(t.conj() @ wb, "nj->n") / q, 0.0, 1.0)
    for col in (probs, fids, factors):
        if col is not None:
            col.setflags(write=False)
    return ProtocolTrace(probs, fids, factors)


def run_protocol(
    rho_tot: DensityMatrix, h_tot: Operator, tau: float, probe: ProbeSpec,
    n_steps: int, target: np.ndarray | None = None,
) -> ProtocolTrace:
    """``evolve(condition(rho_tot, h_tot, tau, probe), n_steps, target)``."""
    return evolve(condition(rho_tot, h_tot, tau, probe), n_steps, target)


def spectral_report(
    v: Operator, rho_a: DensityMatrix | None = None
) -> SpectralReport:
    """Spectral diagnostics of V: dominance, gap ratio, asymptotic state.

    The gap ratio is |lambda1| / |lambda0| for the two largest magnitudes
    (0 for a one-dimensional space, NaN if the whole spectrum vanishes).
    Purification is efficient when |lambda0| is close to 1 and the gap
    ratio is well below 1.  It computes the eigenvalues (``eig_general``)
    and, with unique dominance, the dominant pair by inverse iteration
    (``linalg._dominant_pair``), and no other eigenvector.
    """
    if rho_a is not None and rho_a.dim != v.dim:
        raise DimensionMismatch(
            f"state dimension {rho_a.dim} does not match operator {v.dim}"
        )
    es = eig_general(v)
    mags = np.abs(es.eigenvalues)
    if mags[0] == 0.0:
        return SpectralReport(es, dominant_index=None, dominant_unique=False, gap_ratio=math.nan)
    single = mags.shape[0] == 1
    unique = single or bool(mags[0] - mags[1] > DOMINANCE_TOL)
    gap = 0.0 if single else float(mags[1] / mags[0])
    r0 = s0 = coeff = None
    if unique:
        r0, l0, s0 = _dominant_pair(v.entries, es.eigenvalues[0])
        if rho_a is not None and s0 <= CONDITION_LIMIT:
            coeff = float(np.real(l0 @ rho_a.entries @ l0.conj()))
    return SpectralReport(
        eigensystem=es,
        dominant_index=0,
        dominant_unique=unique,
        gap_ratio=gap,
        asymptotic_state=r0,
        yield_coefficient=coeff,
        dominant_condition=s0,
    )


def efficiency_check(report: SpectralReport) -> tuple[bool, float]:
    """Whether the dominant eigenvalue sits on the unit circle, plus the gap.

    Returns ``(unit_modulus, gap_ratio)`` where ``unit_modulus`` is True
    iff ``| |lambda0| - 1 | <= DOMINANCE_TOL``.

    Raises
    ------
    NoDominantEigenvalue
        If the report carries no dominant eigenvalue at all.
    """
    if report.dominant_index is None:
        raise NoDominantEigenvalue("spectrum has no nonzero eigenvalue")
    lam0 = report.eigensystem.eigenvalues[report.dominant_index]
    unit = bool(abs(abs(lam0) - 1.0) <= DOMINANCE_TOL)
    return unit, report.gap_ratio
