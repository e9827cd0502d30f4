"""Cross-check the exact protocol against sampled single-shot runs.

Each shot either fails the first probe measurement or draws a pure target
state from the ensemble of <phi|rho|phi>, then walks the measurement
record: evolve for tau, measure the probe, keep the shot if the probe
came out in |phi>_X.  The surviving fraction after n rounds
estimates the exact success probability P(n), and the surviving states
average to the conditional density matrix.
"""

import math

import numpy as np

from zenopur import (
    DensityMatrix,
    ModelParams,
    ShotConfig,
    bell_basis,
    build_hamiltonian,
    condition,
    evolve,
    fidelity,
    probe_spec,
    sample,
)

params = ModelParams(omega=1.0, g=0.25, tau=2.0 * math.pi)
bell = bell_basis()

right = np.array([1.0, 1.0]) / math.sqrt(2.0)
up_down = np.zeros(4)
up_down[1] = 1.0
state = DensityMatrix.pure(np.kron(right, up_down), factors=(2, 4))
h = build_hamiltonian(params)
probe = probe_spec(params)

# V and the ensemble of <phi|rho|phi> are built once, for the shots and the
# exact column alike
system = condition(state, h, params.tau, probe)
cfg = ShotConfig(shots=20_000, seed=7, n_steps=10)
summary = sample(system, cfg)
exact = evolve(system, n_steps=10)

print(f"{cfg.shots} shots, seed {cfg.seed}")
print(f"{'n':>3} {'survivors':>10} {'frequency':>10} {'exact P':>10} {'error':>9}")
for n in range(11):
    freq = summary.frequency[n]
    p = exact.success_prob[n]
    print(
        f"{n:>3} {summary.successes_at_step[n]:>10d} "
        f"{freq:>10.5f} {p:>10.5f} {abs(freq - p):>9.5f}"
    )

sigma = math.sqrt(0.25 / cfg.shots)
print(f"\nbinomial scale at P = 1/2: {sigma:.5f}")

est = summary.final_state_estimate
fid = fidelity(est, bell.psi_minus)
print(f"survivor-averaged state fidelity to |Psi->: {fid:.6f}")

# Same seed, same record: the sampler is reproducible bit for bit.
again = sample(system, cfg)
print(f"identical rerun: {np.array_equal(summary.frequency, again.frequency)}")
