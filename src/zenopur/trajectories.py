"""Shot-level Monte Carlo simulation of the measurement protocol.

Each shot is a string of binary Born-rule measurements of the probe
projector: one at n = 0 and one after every period tau.  The ensemble is
drawn on the target space: with lambda_k, u_k the eigenpairs of the
unnormalized block rho'_A = <phi|rho_tot|phi> (``engine.probe_block``),
a shot passes n = 0 as u_k with probability lambda_k and fails with
probability 1 - p0 = 1 - sum_k lambda_k.  A confirmed measurement maps
the target state deterministically, chi -> V chi / |V chi| with
V = <phi|_X exp(-i H tau) |phi>_X (``engine.projected_evolution``), so
every shot that starts in u_k follows one path (the no-jump picture of
Dalibard, Castin and Molmer):

    x_k(0) = u_k,   s_k(n) = |V x_k(n-1)|^2,   x_k(n) = V x_k(n-1) / sqrt(s_k(n)).

Such a shot survives step n with probability s_k(n), given that it
survived every earlier step; the first time it finds the probe outside
|phi>_X it is discarded.  A path that V annihilates (s_k(n) = 0) stays
the zero vector, and all of its shots die at step n.  As
P(n) = sum_k lambda_k |V^n u_k|^2, surviving counts per step estimate the
exact P(n), and the survivors' final states, sum_k c_k x_k x_k^dag over
the c_k survivors of each member, average into an estimate of the exact
conditional state.  The path of a member is computed once, the first
time it is drawn, so the cost is one product with V per drawn member and
step, plus one table lookup per shot and step.

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

_BLOCK_ROWS = 4096  # shots per row block; bounds the memory of draws and survival lookups


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
    (None when no shot survived).

    ``final_state_estimate`` is a mean of unit projectors, Hermitian,
    positive and of unit trace by construction, so it is a plain
    ``Operator``, not a re-validated ``DensityMatrix``.
    """

    successes_at_step: np.ndarray
    frequency: np.ndarray
    final_state_estimate: Operator | None


def _shot_uniforms(seed: int, n_steps: int, start: int, stop: int) -> np.ndarray:
    """Rows ``start:stop`` of the (shots, per_shot) uniforms of shot records.

    The whole array is one Philox(key=seed) stream read row by row.  A
    Philox counter step yields 4 draws and per_shot is a multiple of 4,
    so row ``start`` begins exactly ``start * per_shot // 4`` steps in.
    """
    per_shot = (n_steps + 4) // 4 * 4  # n_steps + 1 rounded up to a multiple of 4
    bitgen = np.random.Philox(key=seed).advance(start * per_shot // 4)
    return np.random.Generator(bitgen).random((stop - start, per_shot))


def _member_paths(u: np.ndarray, vt: np.ndarray, n_steps: int) -> tuple[np.ndarray, np.ndarray]:
    """No-jump paths of the ensemble members in the rows of ``u``.

    Returns the survival table ``s`` (rows x n_steps + 1) and the final
    states x(n_steps) as rows.  ``s[j, 0] = 1`` stands for the passed
    n = 0 measurement and ``s[j, n] = |V x_j(n-1)|^2``; ``vt`` is V
    transposed.  A path V annihilates stays zero instead of becoming 0/0.
    """
    s = np.ones((u.shape[0], n_steps + 1))
    x = u
    for n in range(1, n_steps + 1):
        amp = x @ vt
        s[:, n] = np.einsum("sa,sa->s", amp, amp.conj()).real
        norm = np.sqrt(s[:, n])[:, None]
        x = np.divide(amp, norm, out=np.zeros_like(amp), where=norm > 0.0)
    return s, x


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

    Shots are not evolved one by one: each ensemble member drawn gets one
    path (``_member_paths``) the first time a block draws it, and a shot
    survives step n when its uniform lies below the path's s_k(n) and it
    survived every earlier step.  The survivor estimate is
    sum_k c_k x_k x_k^dag / sum_k c_k over the c_k survivors of member k.
    The counts and the estimate are those of evolving every survivor.
    """
    weights, members = np.linalg.eigh(probe_block(rho_tot, probe))
    v = projected_evolution(h_tot, tau, probe)
    cum = np.cumsum(np.clip(weights, 0.0, None))
    members = members.T  # row k is the unit eigenvector of lambda_k
    vt = v.entries.T
    dim_a, n_steps = probe.dim_a, cfg.n_steps

    # Path rows of the survival table and final states.  Member index
    # dim_a, which a uniform at or above sum_k lambda_k = p0 picks, is the
    # failed n = 0 measurement: row 0, a path with s = 0 at every step.
    row_of = np.full(dim_a + 1, -1)
    row_of[dim_a] = 0
    table = np.zeros((1, n_steps + 1))
    final = np.zeros((1, dim_a), dtype=complex)
    counts = np.zeros(1, dtype=np.int64)  # shots alive at n_steps, per path
    successes = np.zeros(n_steps + 1, dtype=np.int64)
    for start in range(0, cfg.shots, _BLOCK_ROWS):
        stop = min(start + _BLOCK_ROWS, cfg.shots)
        draws = _shot_uniforms(cfg.seed, n_steps, start, stop)
        # one uniform picks member k with probability lambda_k
        k = np.searchsorted(cum, draws[:, 0], side="right")
        new = np.flatnonzero((np.bincount(k, minlength=dim_a + 1) > 0) & (row_of < 0))
        if new.size:
            row_of[new] = np.arange(len(table), len(table) + new.size)
            s, x = _member_paths(members[new], vt, n_steps)
            table = np.vstack([table, s])
            final = np.vstack([final, x])
            counts = np.concatenate([counts, np.zeros(new.size, dtype=np.int64)])
        rows = row_of[k]
        ok = np.logical_and.accumulate(draws[:, : n_steps + 1] < table[rows], axis=1)
        successes += ok.sum(axis=0)
        counts += np.bincount(rows[ok[:, -1]], minlength=len(table))

    frequency = successes / float(cfg.shots)
    estimate = None
    if successes[n_steps] > 0:
        mean = (final.T * counts) @ final.conj() / successes[n_steps]
        mean = (mean + mean.conj().T) / 2.0
        estimate = Operator(mean, v.factors)
    successes.setflags(write=False)
    frequency.setflags(write=False)
    return ShotSummary(successes, frequency, estimate)
