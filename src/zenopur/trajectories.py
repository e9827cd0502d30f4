"""Shot-level Monte Carlo simulation of the measurement protocol.

Each shot draws a pure state from the spectral ensemble of the initial
density matrix, then goes through a string of binary Born-rule
measurements of the probe projector: one at n = 0 and one after every
period tau.  Between confirmations a surviving shot's target state chi
evolves under the projected operator V = <phi|_X exp(-i H tau) |phi>_X,
since V chi is the unnormalized amplitude of finding the probe in
|phi>_X again; survivors never leave the target space.  A shot that ever
finds the probe outside |phi>_X is discarded on the spot and never
evolved again.  Surviving counts per step estimate the exact success
probability P(n), and the surviving target states average into an
estimate of the exact conditional state.

V comes from ``engine.projected_evolution``, the one builder of V, which
checks ``tau`` and the Hamiltonian's dimension; ``run_shots`` itself
checks only that the initial state fits the probe split, and takes the
estimate's factor signature from V.

Every shot owns an independent RNG stream derived from (seed, shot
index), so results are reproducible bit for bit and independent of
execution order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .engine import DensityMatrix, ProbeSpec, projected_evolution
from .exceptions import DimensionMismatch
from .linalg import Operator
from .linalg import matrix_exponential  # noqa: F401  traced by name in bench/worker.py


@dataclass(frozen=True)
class ShotConfig:
    """Shot count, RNG seed (64-bit unsigned) and number of protocol steps."""

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


def _shot_uniforms(seed: int, shots: int, per_shot: int) -> np.ndarray:
    draws = np.empty((shots, per_shot))
    for i in range(shots):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(i,)))
        draws[i] = rng.random(per_shot)
    return draws


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
    if rho_tot.dim != probe.dim_total:
        raise DimensionMismatch(
            f"state dimension {rho_tot.dim} does not match probe split "
            f"{probe.dim_x} x {probe.dim_a}"
        )
    v = projected_evolution(h_tot, tau, probe)
    weights, ensemble = np.linalg.eigh(rho_tot.entries)
    weights = np.clip(weights, 0.0, None)
    cum = np.cumsum(weights / weights.sum())
    cum[-1] = 1.0

    shots, n_steps = cfg.shots, cfg.n_steps
    draws = _shot_uniforms(cfg.seed, shots, n_steps + 2)

    idx = np.searchsorted(cum, draws[:, 0], side="right")
    psi = ensemble.T[idx].reshape(shots, probe.dim_x, probe.dim_a)
    amp = np.einsum("x,sxa->sa", probe.phi_x.conj(), psi)
    alive = np.arange(shots)
    successes = np.zeros(n_steps + 1, dtype=np.int64)
    for n in range(n_steps + 1):
        if n > 0:
            amp = chi @ v.entries.T
        prob = np.einsum("sa,sa->s", amp, amp.conj()).real
        ok = draws[alive, n + 1] < prob
        alive = alive[ok]
        successes[n] = alive.size
        if alive.size == 0:
            break
        chi = amp[ok] / np.sqrt(prob[ok])[:, None]

    frequency = successes / float(shots)
    estimate = None
    if successes[n_steps] > 0:
        mean = np.einsum("sa,sb->ab", chi, chi.conj()) / chi.shape[0]
        mean = (mean + mean.conj().T) / 2.0
        estimate = DensityMatrix(Operator(mean, v.factors))
    successes.setflags(write=False)
    frequency.setflags(write=False)
    return ShotSummary(successes, frequency, estimate)
