"""End-to-end acceptance checks.

Each test prints a single ``criterion N (<name>): PASS`` / ``FAIL`` line
(run with ``pytest -v -s tests/test_acceptance.py`` to see them) and then
asserts the same verdict, so the suite doubles as a sign-off report.
"""

import math
import time

import numpy as np
import scipy.linalg

from zenopur import (
    DensityMatrix,
    ModelParams,
    Operator,
    ProbeSpec,
    ShotConfig,
    analytic_eigenvalues,
    analytic_v_phi,
    bell_basis,
    build_hamiltonian,
    probe_spec,
    projected_evolution,
    run_protocol,
    run_shots,
    spectral_report,
)

from conftest import rand_density, rand_hermitian, rand_state

REF = ModelParams(omega=1.0, g=0.25, tau=2.0 * math.pi)
BELL = bell_basis()


def verdict(num, name, ok):
    print(f"criterion {num} ({name}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} ({name}) failed"


def preset_product_state():
    arrow = np.array([1.0, 1.0]) / math.sqrt(2.0)
    up = np.array([1.0, 0.0])
    down = np.array([0.0, 1.0])
    vec = np.kron(arrow, np.kron(up, down))
    return DensityMatrix.pure(vec, factors=(2, 2, 2))


def preset_mixed_state():
    arrow = np.array([1.0, 1.0]) / math.sqrt(2.0)
    probe_part = np.outer(arrow, arrow)
    up_down = np.zeros(4)
    up_down[1] = 1.0
    down_up = np.zeros(4)
    down_up[2] = 1.0
    mixed = 0.5 * (np.outer(up_down, up_down) + np.outer(down_up, down_up))
    return DensityMatrix(Operator(np.kron(probe_part, mixed), factors=(2, 4)))


def random_params(rng):
    theta = rng.uniform(0.05, math.pi / 2 - 0.05)
    alpha = math.cos(theta) * np.exp(1j * rng.uniform(0, 2 * math.pi))
    beta = math.sin(theta) * np.exp(1j * rng.uniform(0, 2 * math.pi))
    return ModelParams(
        omega=rng.uniform(-3.0, 3.0),
        g=rng.uniform(-2.0, 2.0),
        tau=rng.uniform(0.0, 5.0),
        alpha=alpha,
        beta=beta,
    )


def test_criterion_1_extraction_benchmark():
    start = time.perf_counter()
    trace = run_protocol(
        preset_product_state(),
        build_hamiltonian(REF),
        REF.tau,
        probe_spec(REF),
        n_steps=10,
        target=BELL.psi_minus,
    )
    elapsed = time.perf_counter() - start
    fid = trace.fidelities()
    prob = trace.success_probabilities()
    ok = (
        bool(np.all(fid[5:] >= 0.99))
        and bool(np.all(np.diff(fid) >= -1e-12))
        and abs(prob[10] - 0.5) <= 1e-3
        and elapsed < 1.0
    )
    verdict(1, "extraction benchmark", ok)


def test_criterion_2_eigenvalue_regression():
    v = projected_evolution(build_hamiltonian(REF), REF.tau, probe_spec(REF))
    report = spectral_report(v)
    spectrum = report.eigensystem.eigenvalues
    mags = np.abs(spectrum)
    magnitudes_ok = np.allclose(mags, [1.000, 0.444, 0.444, 0.197], atol=5e-3)

    closed = analytic_eigenvalues(REF)
    # one-to-one match, robust to tie-break order within the conjugate pair
    remaining = list(spectrum)
    worst = 0.0
    for lam in (closed.psi_minus, closed.phi_minus, closed.plus, closed.minus):
        dists = [abs(lam - mu) for mu in remaining]
        pick = int(np.argmin(dists))
        worst = max(worst, dists[pick])
        remaining.pop(pick)
    analytic_ok = worst <= 1e-8

    verdict(2, "eigenvalue regression", magnitudes_ok and analytic_ok)


def test_criterion_3_mixed_state_equivalence():
    trace = run_protocol(
        preset_mixed_state(),
        build_hamiltonian(REF),
        REF.tau,
        probe_spec(REF),
        n_steps=10,
        target=BELL.psi_minus,
    )
    fid = trace.fidelities()
    prob = trace.success_probabilities()
    ok = fid[5] >= 0.99 and abs(prob[10] - 0.5) <= 1e-3
    verdict(3, "mixed-state equivalence", ok)


def test_criterion_4_framework_oracle_equivalence():
    rng = np.random.default_rng(20240814)
    start = time.perf_counter()
    worst = 0.0
    for draw in range(50):
        dim_x = 2 if draw % 2 == 0 else 4
        dim_a = 8 // dim_x
        h = rand_hermitian(rng, 8)
        rho = rand_density(rng, 8)
        phi = rand_state(rng, dim_x)
        tau = rng.uniform(0.1, 3.0)

        probe = ProbeSpec(phi_x=phi, dim_x=dim_x, dim_a=dim_a)
        trace = run_protocol(
            DensityMatrix(Operator(rho)), Operator(h), tau, probe, n_steps=10
        )

        # independent full-space formula: sigma_n = (O U O)^n rho (O U O)^dag^n
        u = scipy.linalg.expm(-1j * tau * h)
        o = np.kron(np.outer(phi, phi.conj()), np.eye(dim_a))
        m = o @ u @ o
        for n in range(11):
            mn = np.linalg.matrix_power(m, n)
            sigma = mn @ rho @ mn.conj().T
            cond = np.einsum(
                "x,xayb,y->ab",
                phi.conj(),
                sigma.reshape(dim_x, dim_a, dim_x, dim_a),
                phi,
            )
            p = np.trace(cond).real
            step = trace.steps[n]
            worst = max(worst, abs(step.success_prob - p))
            worst = max(worst, float(np.max(np.abs(step.state.entries - cond / p))))
    elapsed = time.perf_counter() - start
    verdict(4, "framework oracle equivalence", worst <= 1e-9 and elapsed < 10.0)


def test_criterion_5_analytic_vs_numeric():
    rng = np.random.default_rng(77)
    worst = 0.0
    for _ in range(50):
        p = random_params(rng)
        numeric = projected_evolution(build_hamiltonian(p), p.tau, probe_spec(p))
        worst = max(
            worst, float(np.max(np.abs(analytic_v_phi(p).entries - numeric.entries)))
        )
    verdict(5, "analytic closed form", worst <= 1e-10)


def test_criterion_6_contraction_and_yield_law():
    rng = np.random.default_rng(1234)
    contraction_ok = True
    for _ in range(50):
        p = random_params(rng)
        v = projected_evolution(build_hamiltonian(p), p.tau, probe_spec(p))
        mags = np.abs(np.linalg.eigvals(v.entries))
        contraction_ok = contraction_ok and bool(np.all(mags <= 1.0 + 1e-10))

    trace = run_protocol(
        preset_product_state(),
        build_hamiltonian(REF),
        REF.tau,
        probe_spec(REF),
        n_steps=20,
    )
    p0 = trace.steps[0].success_prob
    rho0 = trace.steps[0].state
    v = projected_evolution(build_hamiltonian(REF), REF.tau, probe_spec(REF))
    report = spectral_report(v)
    u0 = report.asymptotic_state
    lam0 = abs(report.eigensystem.eigenvalues[report.dominant_index])
    weight = np.real(u0.conj() @ rho0.entries @ u0)
    predicted = lam0 ** 40 * weight * p0
    ratio = trace.steps[20].success_prob / predicted
    verdict(6, "contraction and yield law", contraction_ok and abs(ratio - 1.0) <= 1e-3)


def test_criterion_7_degeneracy_failure_mode():
    g_star = math.pi / (math.sqrt(2.0) * REF.tau)
    params = ModelParams(omega=1.0, g=g_star, tau=REF.tau)
    v = projected_evolution(build_hamiltonian(params), params.tau, probe_spec(params))
    report = spectral_report(v)
    trace = run_protocol(
        preset_product_state(),
        build_hamiltonian(params),
        params.tau,
        probe_spec(params),
        n_steps=30,
        target=BELL.psi_minus,
    )
    ok = report.dominant_unique is False and trace.fidelities()[30] < 0.9
    verdict(7, "degeneracy failure mode", ok)


def test_criterion_8_monte_carlo_agreement():
    start = time.perf_counter()
    cfg = ShotConfig(shots=100_000, seed=2718, n_steps=10)
    state = preset_product_state()
    h = build_hamiltonian(REF)
    probe = probe_spec(REF)
    summary = run_shots(state, h, REF.tau, probe, cfg)
    repeat = run_shots(state, h, REF.tau, probe, cfg)
    exact = run_protocol(state, h, REF.tau, probe, n_steps=10).success_probabilities()

    within = True
    for n in range(11):
        p = exact[n]
        # the 1e-12 floor keeps the binomial bound meaningful at P = 1,
        # where it collapses to zero width
        bound = 4.0 * math.sqrt(max(p * (1.0 - p), 0.0) / cfg.shots) + 1e-12
        within = within and abs(summary.frequency[n] - p) <= bound
    identical = bool(
        np.array_equal(summary.frequency, repeat.frequency)
        and np.array_equal(summary.successes_at_step, repeat.successes_at_step)
    )
    elapsed = time.perf_counter() - start
    verdict(8, "Monte Carlo agreement", within and identical and elapsed < 60.0)
