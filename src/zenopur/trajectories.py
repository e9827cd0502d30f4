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

The counts are drawn without single trajectories.  A shot passes n = 0 as
member k with probability lambda_k, and a shot of member k dies at step
n with probability S_k(n-1) - S_k(n) and is alive at N = n_steps with
probability S_k(N), where S_k(0) = 1 and S_k(n) is the running minimum of
|V^n u_k|^2, which has the per-step law above; the running minimum only
keeps S_k non-increasing under rounding.  The shots are independent, so
the members' counts are one multinomial draw over the members and the
failed n = 0 measurement, and the death steps of member k's shots one
multinomial draw over those N + 1 cells: the conditional-binomial method
(Devroye, Non-Uniform Random Variate Generation, Springer 1986)
that numpy's ``Generator.multinomial`` implements.  Both draws come from
one Philox stream keyed by the seed, so a run costs O(r N) for r kept
members whatever the shot count, and its counts depend on the seed and
the ``engine.Conditioned`` system alone.  The S_k and x_k of every kept
member are computed once per run, before the first draw, from the
V^n u_k of one ``engine.Conditioned.orbit`` call, the fill
``engine.evolve`` uses too; no (shots x steps) array is formed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .engine import Conditioned, DensityMatrix, ProbeSpec, _sum_squares, condition
from .linalg import Operator, _allocating, _as_index
from .linalg import matrix_exponential  # noqa: F401  traced by name in bench/worker.py


@dataclass(frozen=True)
class ShotConfig:
    """Shot count, RNG seed and number of protocol steps.

    Each is an integer (numpy's too), stored as a Python int; a bool, a float
    or a count outside ``1 <= shots``, ``0 <= n_steps`` (both below 2**63)
    raises ValueError.  The seed (64-bit unsigned) is the key of the one
    Philox stream a run draws its counts from, so the same config gives the
    same counts bit for bit.
    """

    shots: int
    seed: int
    n_steps: int

    def __post_init__(self):
        for name, low, end in (("shots", 1, 2**63), ("seed", 0, 2**64), ("n_steps", 0, 2**63)):
            object.__setattr__(self, name, _as_index(getattr(self, name), name, low, end))


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


def _member_survival(system: Conditioned, n_steps: int) -> tuple[np.ndarray, np.ndarray]:
    """Survival table and final states of the members ``system`` keeps.

    S (members x n_steps + 1) has S[j, 0] = 1 and S[j, n] the running minimum
    of |V^n u_j|^2; the final states V^N u_j / |V^N u_j| (N = n_steps) are
    rows, and the zero vector, not 0/0, on a path that V annihilates.
    """
    u = system.members
    with _allocating("n_steps", n_steps):
        table = np.empty((u.shape[1], n_steps + 1))
    for start, stack in system.orbit(u, n_steps):
        _sum_squares(stack, "naj->jn", out=table[:, start : start + len(stack)])
    norm = np.sqrt(table[:, -1:])
    final = np.divide(stack[-1].T, norm, out=np.zeros(u.shape[::-1], complex), where=norm > 0.0)
    table[:, 0] = 1.0
    np.minimum.accumulate(table, axis=1, out=table)
    return table, final


def sample(system: Conditioned, cfg: ShotConfig) -> ShotSummary:
    """Survivor counts of ``cfg.shots`` independent runs of the protocol on ``system``.

    Step n of the returned summary counts the shots whose first n+1
    measurements (the conditioning one at n = 0 included) all found the
    probe in |phi>_X, so ``frequency[n]`` estimates the exact P(n).

    Every kept member's survival S_k and final state x_k come from one
    ``_member_survival`` call; the counts are two multinomial draws on them
    (module docstring), and the estimate averages x_k over the survivors.
    """
    table, final = _member_survival(system, cfg.n_steps)
    rng = np.random.Generator(np.random.Philox(key=cfg.seed))
    # a state's trace may pass 1 by STATE_TOL; numpy refuses weights summing past 1 + 1e-12
    weights = system.weights / max(1.0, system.weights.sum())
    # the last cell is the failed n = 0 measurement
    picked = rng.multinomial(cfg.shots, np.append(weights, max(0.0, 1.0 - weights.sum())))[:-1]
    # cell n < N holds the deaths at step n + 1, S(n) - S(n + 1); cell N the survivors
    table[:, :-1] -= table[:, 1:]
    deaths = rng.multinomial(picked, table)
    counts = deaths[:, -1]
    successes = picked.sum() - np.concatenate(([0], deaths[:, :-1].sum(axis=0).cumsum()))
    frequency = successes / float(cfg.shots)
    estimate = None
    if successes[-1] > 0:
        mean = (final.T * counts) @ final.conj() / successes[-1]
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
