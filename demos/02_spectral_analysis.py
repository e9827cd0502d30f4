"""Why the extraction works: the spectrum of the projected evolution.

Conditioning one period of unitary evolution on finding the probe back in
|phi>_X compresses the propagator to V_phi = <phi| exp(-i H tau) |phi>,
a non-normal operator on the target space whose eigenvalues live in the
unit disk.  Repeated confirmation applies V_phi over and over, so the
target state collapses onto the eigenvector with the largest |lambda|.
Purification is efficient when that eigenvalue sits on the unit circle
(no yield decay) and the rest are well inside (fast convergence).
"""

import math

import numpy as np

from zenopur import (
    ModelParams,
    analytic_eigenvalues,
    bell_basis,
    build_hamiltonian,
    check_conditions,
    efficiency_check,
    probe_spec,
    projected_evolution,
    spectral_report,
)

params = ModelParams(omega=1.0, g=0.25, tau=2.0 * math.pi)
bell = bell_basis()

v = projected_evolution(build_hamiltonian(params), params.tau, probe_spec(params))

print("V_phi in the computational basis of A, B (real parts):")
with np.printoptions(precision=3, suppress=True):
    print(v.entries.real)

report = spectral_report(v)
print("\neigenvalues, largest magnitude first:")
for k, lam in enumerate(report.eigensystem.eigenvalues):
    # rounded to the printed digits, and -0.0 + 0.0 = +0.0: an exactly real
    # eigenvalue prints +0.000000j whatever the sign of its rounding noise
    re, im = (round(x, 6) + 0.0 for x in (lam.real, lam.imag))
    print(f"  lambda_{k} = {re:+.6f} {im:+.6f}j   |lambda| = {abs(lam):.6f}")

unit, gap = efficiency_check(report)
print(f"\ndominant on unit circle: {unit}")
print(f"gap ratio |lambda_1 / lambda_0|: {gap:.6f}")
print("fidelity deficit shrinks like gap^(2n): "
      f"{gap ** 2:.3f} per confirmation")

# The dominant right eigenvector is the singlet.
u0 = report.asymptotic_state
overlap = abs(np.vdot(bell.psi_minus, u0)) ** 2
print(f"dominant eigenvector overlap with |Psi->: {overlap:.12f}")

# Closed forms for the same spectrum (tuned branch Omega tau = 2 pi n,
# balanced probe): singlet stays at 1, the triplet contracts.
ev = analytic_eigenvalues(params)
print("\nclosed-form check:")
print(f"  singlet    : {ev.psi_minus:+.6f}")
print(f"  |Phi->     : {ev.phi_minus:+.6f}  (= cos^2(g tau / sqrt 2))")
print(f"  pair +/-   : {ev.plus:+.6f}, {ev.minus:+.6f}")

flags = check_conditions(params)
print(f"\ntuning_ok={flags.tuning_ok} probe_ok={flags.probe_ok} "
      f"coupling_ok={flags.coupling_ok}")

# Detune the period and the singlet eigenvalue leaves the unit circle:
# the yield now decays with every confirmation.
detuned = ModelParams(omega=1.0, g=0.25, tau=0.9 * 2.0 * math.pi)
v_det = projected_evolution(
    build_hamiltonian(detuned), detuned.tau, probe_spec(detuned)
)
unit_det, gap_det = efficiency_check(spectral_report(v_det))
lam0 = spectral_report(v_det).eigensystem.eigenvalues[0]
print(f"\ndetuned tau = 0.9 * 2 pi: |lambda_0| = {abs(lam0):.6f}, "
      f"unit circle: {unit_det}, gap: {gap_det:.6f}")
