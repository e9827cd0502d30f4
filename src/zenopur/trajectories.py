"""Shot-level Monte Carlo simulation of the measurement protocol.

Each shot is a string of binary Born-rule measurements of the probe
projector: one at n = 0 and one after every period tau.  The ensemble is
drawn on the target space: with lambda_k > 0, u_k the eigenpairs of the
unnormalized block rho'_A = <phi|rho_tot|phi> that ``engine.condition``
keeps in its ``engine.Conditioned`` system (the ensemble ``engine.evolve``
factors too), a shot passes n = 0 as u_k with probability lambda_k and
fails with probability 1 - sum_k lambda_k, 1 - p0 up to the members cut.
A confirmed measurement maps the target state deterministically,
chi -> V chi / |V chi| with V = <phi|_X exp(-i H tau) |phi>_X (the
system's ``v``), so every shot that starts in u_k follows one path, the
no-jump path x_k(n) = V^n u_k / |V^n u_k| of Dalibard, Castin and Molmer.
It passes step n with probability |V x_k(n-1)|^2 given that it passed
every earlier step, so steps 1 .. n with probability |V^n u_k|^2; the
first time it finds the probe outside |phi>_X it is discarded.  A path
that V annihilates stays the zero vector, and all of its shots die
there.  As P(n) = sum_k lambda_k |V^n u_k|^2, surviving counts per step
estimate the exact P(n), and the survivors' final states,
sum_k c_k x_k x_k^dag over the c_k survivors of each member, average
into an estimate of the exact conditional state.

Death times are drawn in the waiting-time form of the quantum-jump
method (Dalibard, Castin and Molmer, PRL 68, 580 (1992); Plenio and
Knight, RMP 70, 101 (1998)): instead of one uniform per step, a shot
draws one uniform v and is alive at step n exactly when v < S_k(n), with
S_k(0) = 1 and S_k(n) the running minimum of |V^n u_k|^2, which has the
per-step law above; the running minimum only keeps S_k non-increasing
under rounding.  The survivors of member k at every step are one
``searchsorted`` of S_k into the sorted death uniforms of its shots.  The
S_k and x_k of every kept member are computed once per run, before the
first draw, from the V^n u_k of one ``engine.Conditioned.orbit`` call,
the fill ``engine.evolve`` uses too; no (shots x steps) array is formed.

All draws come from one Philox stream keyed by the seed.  Row i of a
(shots, 2) array of uniforms belongs to shot i: column 0 picks the
member u_k or the failed n = 0 measurement, column 1 is the death
uniform v.  A Philox counter step yields 4 uniforms, two rows, so any
range of rows starts at a known counter.  Shots run in row blocks of at
most ``_BLOCK_UNIFORMS`` uniforms (at least one row), so the draws of a
block stay bounded however many shots; results are reproducible bit for
bit and independent of the block size.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .engine import Conditioned, DensityMatrix, ProbeSpec, condition
from .linalg import Operator, _as_index
from .linalg import matrix_exponential  # noqa: F401  traced by name in bench/worker.py

_BLOCK_UNIFORMS = 1 << 16  # uniforms per row block of two-uniform shots; bounds the draws


@dataclass(frozen=True)
class ShotConfig:
    """Shot count, RNG seed and number of protocol steps.

    Each is an integer (numpy's too) and is stored as a Python int; a bool
    or a float, even an integral one, raises ValueError.  The seed (64-bit
    unsigned) is the key of the one Philox stream all shots draw from; shot
    i reads row i of it, two uniforms (its member and its death uniform)
    whatever ``n_steps``, so the same config gives the same records bit for
    bit.
    """

    shots: int
    seed: int
    n_steps: int

    def __post_init__(self):
        for name in ("shots", "seed", "n_steps"):
            object.__setattr__(self, name, _as_index(getattr(self, name), name))
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
    (None when no shot survived).

    ``final_state_estimate`` is a mean of unit projectors, Hermitian,
    positive and of unit trace by construction, so it is a plain
    ``Operator``, not a re-validated ``DensityMatrix``.
    """

    successes_at_step: np.ndarray
    frequency: np.ndarray
    final_state_estimate: Operator | None


def _shot_uniforms(seed: int, start: int, stop: int) -> np.ndarray:
    """Rows ``start:stop`` of the (shots, 2) uniforms of shot records.

    The whole array is one Philox(key=seed) stream read row by row.  A
    Philox counter step yields 4 draws, two rows, so row ``start`` begins
    ``start // 2`` steps in, after one dropped row when ``start`` is odd.
    """
    odd = start % 2
    bitgen = np.random.Philox(key=seed).advance(start // 2)
    return np.random.Generator(bitgen).random((stop - start + odd, 2))[odd:]


def _member_survival(system: Conditioned, n_steps: int) -> tuple[np.ndarray, np.ndarray]:
    """Survival table and final states of the members ``system`` keeps.

    S (members x n_steps + 1) has S[j, 0] = 1 and S[j, n] the running minimum
    of |V^n u_j|^2; the final states V^N u_j / |V^N u_j| (N = n_steps) are
    rows, and the zero vector, not 0/0, on a path that V annihilates.
    """
    u = system.members
    table = np.empty((u.shape[1], n_steps + 1))
    for start, stack in system.orbit(u, n_steps):
        # |V^n u_j|^2 from the real and imaginary views: no complex temporary
        norms = table[:, start : start + len(stack)]
        np.einsum("naj,naj->jn", stack.real, stack.real, out=norms)
        norms += np.einsum("naj,naj->jn", stack.imag, stack.imag)
    norm = np.sqrt(table[:, -1:])
    final = np.divide(stack[-1].T, norm, out=np.zeros(u.shape[::-1], complex), where=norm > 0.0)
    table[:, 0] = 1.0
    np.minimum.accumulate(table, axis=1, out=table)
    return table, final


def sample(system: Conditioned, cfg: ShotConfig) -> ShotSummary:
    """Run ``cfg.shots`` independent trajectories of the protocol on ``system``.

    Step n of the returned summary counts the shots whose first n+1
    measurements (the conditioning one at n = 0 included) all found the
    probe in |phi>_X, so ``frequency[n]`` estimates the exact P(n).

    Every kept member's survival S_k and final state x_k come from one
    ``_member_survival`` call (module docstring); the counts and the estimate
    are those of evolving every survivor on the same draws.
    """
    cum = np.cumsum(system.weights)
    r, n_steps = len(system.weights), cfg.n_steps
    table, final = _member_survival(system, n_steps)
    counts = np.zeros(r, dtype=np.int64)  # shots alive at n_steps, per member
    successes = np.zeros(n_steps + 1, dtype=np.int64)
    rows_per_block = max(1, _BLOCK_UNIFORMS // 2)
    for start in range(0, cfg.shots, rows_per_block):
        stop = min(start + rows_per_block, cfg.shots)
        draws = _shot_uniforms(cfg.seed, start, stop)
        # column 0 picks member k with probability lambda_k; index r, which a
        # uniform >= sum_k lambda_k picks, fails at n = 0 and is skipped
        k = np.searchsorted(cum, draws[:, 0], side="right")
        # column 1 is the death uniform v: a shot of member j is alive at
        # step n when v < S_j(n), so the sorted v of the member give every
        # step's survivors with one search
        for j in np.flatnonzero(np.bincount(k, minlength=r)[:r]):
            alive = np.searchsorted(np.sort(draws[k == j, 1]), table[j])
            successes += alive
            counts[j] += alive[-1]

    frequency = successes / float(cfg.shots)
    estimate = None
    if successes[n_steps] > 0:
        mean = (final.T * counts) @ final.conj() / successes[n_steps]
        mean = (mean + mean.conj().T) / 2.0
        estimate = Operator(mean)
    successes.setflags(write=False)
    frequency.setflags(write=False)
    return ShotSummary(successes, frequency, estimate)


def run_shots(
    rho_tot: DensityMatrix, h_tot: Operator, tau: float, probe: ProbeSpec, cfg: ShotConfig
) -> ShotSummary:
    """``sample(condition(rho_tot, h_tot, tau, probe), cfg)``."""
    return sample(condition(rho_tot, h_tot, tau, probe), cfg)
