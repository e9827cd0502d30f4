"""Shot-level Monte Carlo simulation of the measurement protocol.

Each shot is a string of binary Born-rule measurements of the probe
projector: one at n = 0 and one after every period tau.  The ensemble is
drawn on the target space: with lambda_k, u_k the eigenpairs of the
unnormalized block rho'_A = <phi|rho_tot|phi> (``engine.probe_block``),
a shot passes n = 0 as u_k with probability lambda_k and fails with
probability 1 - p0 = 1 - sum_k lambda_k.  A survivor's target state chi
then evolves under V = <phi|_X exp(-i H tau) |phi>_X
(``engine.projected_evolution``), since V chi is the unnormalized
amplitude of finding the probe in |phi>_X again.  A shot that ever finds
the probe outside |phi>_X is discarded on the spot.  As
P(n) = sum_k lambda_k |V^n u_k|^2, surviving counts per step estimate the
exact P(n), and the surviving states average into an estimate of the
exact conditional state.

All draws come from one Philox stream keyed by the seed.  Row i of a
(shots, per_shot) array of uniforms belongs to shot i: column 0 decides
n = 0, column n the measurement at step n.  per_shot is n_steps + 1
rounded up to a multiple of 4, the Philox block, so any range of rows
starts at a known counter.  Shots run in row blocks of bounded size;
results are reproducible bit for bit and independent of the block size.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .engine import DensityMatrix, ProbeSpec, probe_block, projected_evolution
from .linalg import Operator
from .linalg import matrix_exponential  # noqa: F401  traced by name in bench/worker.py

_BLOCK_ROWS = 4096  # shots per row block; bounds the memory of draws and amplitudes


@dataclass(frozen=True)
class ShotConfig:
    """Shot count, RNG seed and number of protocol steps.

    The seed (64-bit unsigned) is the key of the one Philox stream all
    shots draw from; shot i reads row i of it, so the same config gives
    the same records bit for bit.
    """

    shots: int
    seed: int
    n_steps: int

    def __post_init__(self):
        if self.shots < 1:
            raise ValueError("shots must be >= 1")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must fit in an unsigned 64-bit integer")
        if self.n_steps < 0:
            raise ValueError("n_steps must be nonnegative")


@dataclass(frozen=True)
class ShotSummary:
    """Survivor counts per step, their frequencies, and the averaged
    target state over the trajectories that survived every measurement
    (None when no shot survived)."""

    successes_at_step: np.ndarray
    frequency: np.ndarray
    final_state_estimate: DensityMatrix | None


def _shot_uniforms(seed: int, n_steps: int, start: int, stop: int) -> np.ndarray:
    """Rows ``start:stop`` of the (shots, per_shot) uniforms of shot records.

    The whole array is one Philox(key=seed) stream read row by row.  A
    Philox counter step yields 4 draws and per_shot is a multiple of 4,
    so row ``start`` begins exactly ``start * per_shot // 4`` steps in.
    """
    per_shot = (n_steps + 4) // 4 * 4  # n_steps + 1 rounded up to a multiple of 4
    bitgen = np.random.Philox(key=seed).advance(start * per_shot // 4)
    return np.random.Generator(bitgen).random((stop - start, per_shot))


def run_shots(
    rho_tot: DensityMatrix,
    h_tot: Operator,
    tau: float,
    probe: ProbeSpec,
    cfg: ShotConfig,
) -> ShotSummary:
    """Run ``cfg.shots`` independent trajectories of the protocol.

    Step n of the returned summary counts the shots whose first n+1
    measurements (the conditioning one at n = 0 included) all found the
    probe in |phi>_X, so ``frequency[n]`` estimates the exact P(n).
    """
    weights, members = np.linalg.eigh(probe_block(rho_tot, probe))
    v = projected_evolution(h_tot, tau, probe)
    cum = np.cumsum(np.clip(weights, 0.0, None))
    members = members.T  # row k is the unit eigenvector of lambda_k
    vt = v.entries.T

    n_steps = cfg.n_steps
    successes = np.zeros(n_steps + 1, dtype=np.int64)
    outer = np.zeros((probe.dim_a, probe.dim_a), dtype=complex)
    for start in range(0, cfg.shots, _BLOCK_ROWS):
        stop = min(start + _BLOCK_ROWS, cfg.shots)
        draws = _shot_uniforms(cfg.seed, n_steps, start, stop)
        # one uniform picks member k with probability lambda_k, or, at or
        # above sum_k lambda_k = p0, the failure of the n = 0 measurement
        alive = np.flatnonzero(draws[:, 0] < cum[-1])
        chi = members[np.searchsorted(cum, draws[alive, 0], side="right")]
        successes[0] += alive.size
        for n in range(1, n_steps + 1):
            amp = chi @ vt
            prob = np.einsum("sa,sa->s", amp, amp.conj()).real
            ok = draws[alive, n] < prob
            alive = alive[ok]
            successes[n] += alive.size
            chi = amp[ok] / np.sqrt(prob[ok])[:, None]
        outer += chi.T @ chi.conj()

    frequency = successes / float(cfg.shots)
    estimate = None
    if successes[n_steps] > 0:
        mean = outer / successes[n_steps]
        mean = (mean + mean.conj().T) / 2.0
        estimate = DensityMatrix(Operator(mean, v.factors))
    successes.setflags(write=False)
    frequency.setflags(write=False)
    return ShotSummary(successes, frequency, estimate)
