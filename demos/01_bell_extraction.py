"""Extract the two-qubit singlet by repeatedly measuring the probe qubit.

Three qubits: a probe X driven at frequency Omega, flip-flop coupled with
strength g to two target qubits A and B.  Preparing X in |right> = (|up> +
|down>)/sqrt(2), letting the system evolve for tau = 2 pi / Omega, and
confirming X is still in |right> over and over drives A and B into the
singlet (|up,down> - |down,up>)/sqrt(2) -- without ever touching A or B
directly.
"""

import math

import numpy as np

from zenopur import (
    DensityMatrix,
    ModelParams,
    Operator,
    bell_basis,
    build_hamiltonian,
    probe_spec,
    run_protocol,
)

params = ModelParams(omega=1.0, g=0.25, tau=2.0 * math.pi)
bell = bell_basis()

# |right>_X (x) |up>_A (x) |down>_B
right = np.array([1.0, 1.0]) / math.sqrt(2.0)
up = np.array([1.0, 0.0])
down = np.array([0.0, 1.0])
product = DensityMatrix.pure(np.kron(right, np.kron(up, down)), factors=(2, 2, 2))

trace = run_protocol(
    product,
    build_hamiltonian(params),
    params.tau,
    probe_spec(params),
    n_steps=10,
    target=bell.psi_minus,
)

print("pure product start |right, up, down>")
print(f"{'n':>3} {'fidelity to |Psi->':>20} {'success prob':>14}")
for n, (fid, prob) in enumerate(zip(trace.fidelity, trace.success_prob)):
    print(f"{n:>3} {fid:>20.6f} {prob:>14.6f}")

# The singlet weight of the initial state is 1/2, and that is exactly the
# fraction of runs that survive all the probe confirmations: the protocol
# converts initial overlap into yield.
print(f"\nasymptotic yield  : {trace.success_prob[-1]:.6f}")
print(f"initial overlap   : {trace.fidelity[0]:.6f}")

# The same works from a classical mixture of |up,down> and |down,up> --
# the probe measurements cannot tell the two initial states apart, and
# both funnel into the same singlet.
mixture = 0.5 * (
    np.outer(np.kron(up, down), np.kron(up, down))
    + np.outer(np.kron(down, up), np.kron(down, up))
)
mixed = DensityMatrix(
    Operator(np.kron(np.outer(right, right), mixture), factors=(2, 4))
)

trace_mixed = run_protocol(
    mixed,
    build_hamiltonian(params),
    params.tau,
    probe_spec(params),
    n_steps=10,
    target=bell.psi_minus,
)

print("\nmixed start (|up,down><up,down| + |down,up><down,up|) / 2")
print(f"fidelity at n = 5 : {trace_mixed.fidelity[5]:.6f}")
print(f"fidelity at n = 10: {trace_mixed.fidelity[10]:.6f}")
print(f"yield at n = 10   : {trace_mixed.success_prob[10]:.6f}")
