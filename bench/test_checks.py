"""The benchmark's checks reject what they exist to reject.

    python3 -m pytest bench/test_checks.py
"""

import math

import numpy as np

import checks
import workloads


def _unitary(dim, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, _ = np.linalg.qr(a)
    return q


def test_contraction_accepts_a_compression_of_a_unitary():
    v = workloads.sandwich(_unitary(8, 1), workloads.RIGHT)
    assert checks.contraction("V", v) == []


def test_contraction_rejects_a_non_contractive_v():
    v = workloads.sandwich(_unitary(8, 2), workloads.RIGHT)
    assert checks.contraction("V", v * 1.01)


def test_nonincreasing_rejects_a_rising_p():
    assert checks.nonincreasing("P", [1.0, 0.8, 0.6, 0.6]) == []
    assert checks.nonincreasing("P", [1.0, 0.8, 0.8000001, 0.5])


def test_binomial_rejects_frequencies_ten_sigma_off():
    shots = 10_000
    p = np.array([1.0, 0.84, 0.7, 0.5])
    sigma = np.sqrt(p * (1 - p) / shots)
    assert checks.binomial("shots", p + 2.0 * sigma, p, shots) == []
    assert checks.binomial("shots", p - 10.0 * sigma, p, shots)


def test_same_spectrum_matches_up_to_order_and_rejects_a_moved_eigenvalue():
    want = np.array([1.0, 0.5j, -0.25, 0.1 + 0.1j])
    assert checks.same_spectrum("V", want[::-1], want) == []
    moved = want.copy()
    moved[2] += 1e-6
    assert checks.same_spectrum("V", moved, want)


def test_underflow_aware_rejects_a_zero_that_is_no_underflow():
    log_p = np.array([0.0, -1.0, -800.0])
    assert checks.underflow_aware("run", np.array([1.0, math.exp(-1.0), 0.0]), log_p) == []
    assert checks.underflow_aware("run", np.array([1.0, 0.0, 0.0]), log_p)


def test_closed_form_spectrum_matches_the_full_space_oracle():
    readme = workloads.README["system"]
    h = workloads.model3q_hamiltonian(1.0, readme["g"])
    v = workloads.sandwich(workloads.propagator(h, readme["tau"]), workloads.RIGHT)
    assert checks.same_spectrum("V", np.linalg.eigvals(v), workloads.bell_spectrum(readme["g"], readme["tau"])) == []
    singlet = workloads.singlet_eigenvalue(1.0, readme["tau"], workloads.INV_SQRT2, workloads.INV_SQRT2)
    assert checks.contains("V", np.linalg.eigvals(v), singlet) == []
