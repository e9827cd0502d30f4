import numpy as np
import pytest

from zenopur.engine import (
    DensityMatrix,
    ProbeSpec,
    fidelity,
    probe_block,
    projected_evolution,
    run_protocol,
)
from zenopur.exceptions import DimensionMismatch
from zenopur.linalg import Operator
from zenopur.model3q import ModelParams, bell_basis, build_hamiltonian, probe_spec
from zenopur import trajectories
from zenopur.trajectories import ShotConfig, ShotSummary, _shot_uniforms, run_shots

RIGHT = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0)
UP_DOWN = np.array([0.0, 1.0, 0.0, 0.0], dtype=complex)


def reference_inputs():
    p = ModelParams(omega=1.0, g=0.25, tau=2 * np.pi)
    h = build_hamiltonian(p)
    probe = probe_spec(p)
    rho = DensityMatrix.pure(np.kron(RIGHT, UP_DOWN), (2, 2, 2))
    return p, h, probe, rho


def random_entangled_inputs():
    """A random 2 x 3 system whose rank-3 start is entangled, with p0 < 1."""
    rng = np.random.default_rng(20261018)
    m = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    h = Operator((m + m.conj().T) / 2.0, (2, 3))
    phi = rng.normal(size=2) + 1j * rng.normal(size=2)
    g = rng.normal(size=(6, 3)) + 1j * rng.normal(size=(6, 3))
    rho = g @ g.conj().T
    rho = DensityMatrix(Operator(rho / np.trace(rho).real, (2, 3)))
    return h, ProbeSpec(phi / np.linalg.norm(phi), 2, 3), rho


def paper_mixed_inputs():
    """The paper's mixed start |+><+| (x) (|ud><ud| + |du><du|) / 2."""
    p, h, probe, _ = reference_inputs()
    down_up = np.zeros(4, dtype=complex)
    down_up[2] = 1.0
    rho_ab = (np.outer(UP_DOWN, UP_DOWN) + np.outer(down_up, down_up)) / 2.0
    rho = DensityMatrix(
        Operator(np.kron(np.outer(RIGHT, RIGHT.conj()), rho_ab), (2, 2, 2))
    )
    return h, probe, rho, p.tau


def per_shot_reference(rho, h, tau, probe, cfg):
    """The sampler that evolves every survivor by V at every step.

    Same draws as ``run_shots``; returns the survivor counts and the
    unsymmetrized survivor mean (None when no shot survives).
    """
    weights, members = np.linalg.eigh(probe_block(rho, probe))
    vt = projected_evolution(h, tau, probe).entries.T
    cum = np.cumsum(np.clip(weights, 0.0, None))
    draws = _shot_uniforms(cfg.seed, cfg.n_steps, 0, cfg.shots)
    alive = np.flatnonzero(draws[:, 0] < cum[-1])
    chi = members.T[np.searchsorted(cum, draws[alive, 0], side="right")]
    successes = [alive.size]
    for n in range(1, cfg.n_steps + 1):
        amp = chi @ vt
        prob = np.einsum("sa,sa->s", amp, amp.conj()).real
        ok = draws[alive, n] < prob
        alive = alive[ok]
        successes.append(alive.size)
        chi = amp[ok] / np.sqrt(prob[ok])[:, None]
    mean = chi.T @ chi.conj() / alive.size if alive.size else None
    return np.array(successes), mean


def annihilating_inputs(rho_a):
    """H = sigma_x (x) |0><0| on 2 x 2, probe |0>, start |0><0| (x) rho_a.

    At tau = pi/2, V = <0|exp(-i H tau)|0> is |1><1| up to rounding
    (|V_00| ~ 6e-17): it annihilates the member |0>.
    """
    p0 = np.diag([1.0, 0.0]).astype(complex)
    h = Operator(np.kron(np.array([[0.0, 1.0], [1.0, 0.0]]), p0), (2, 2))
    probe = ProbeSpec(np.array([1.0, 0.0]), 2, 2)
    rho = DensityMatrix(Operator(np.kron(p0, rho_a), (2, 2)))
    return h, probe, rho, np.pi / 2


def test_shot_config_validation():
    with pytest.raises(ValueError):
        ShotConfig(shots=0, seed=1, n_steps=3)
    with pytest.raises(ValueError):
        ShotConfig(shots=10, seed=-1, n_steps=3)
    with pytest.raises(ValueError):
        ShotConfig(shots=10, seed=2**64, n_steps=3)
    with pytest.raises(ValueError):
        ShotConfig(shots=10, seed=0, n_steps=-1)
    ShotConfig(shots=1, seed=2**64 - 1, n_steps=0)


def test_undisturbed_probe_always_survives():
    # H = 0 and the probe factor prepared exactly in |phi>_X
    phi = np.array([0.6, 0.8], dtype=complex)
    rho_a = np.diag([0.3, 0.7]).astype(complex)
    rho = DensityMatrix(Operator(np.kron(np.outer(phi, phi.conj()), rho_a), (2, 2)))
    probe = ProbeSpec(phi, 2, 2)
    h = Operator(np.zeros((4, 4), dtype=complex), (2, 2))
    summary = run_shots(rho, h, 1.0, probe, ShotConfig(shots=300, seed=9, n_steps=6))
    np.testing.assert_allclose(summary.frequency, np.ones(7))
    assert summary.final_state_estimate is not None


def test_orthogonal_probe_never_survives():
    rho = DensityMatrix(
        Operator(np.kron(np.diag([0.0, 1.0]), np.eye(2) / 2.0), (2, 2))
    )
    probe = ProbeSpec(np.array([1.0, 0.0]), 2, 2)
    h = Operator(np.zeros((4, 4), dtype=complex), (2, 2))
    summary = run_shots(rho, h, 1.0, probe, ShotConfig(shots=100, seed=3, n_steps=4))
    np.testing.assert_allclose(summary.frequency, np.zeros(5))
    assert summary.final_state_estimate is None
    assert np.all(summary.successes_at_step == 0)


def test_same_seed_bit_identical():
    _, h, probe, rho = reference_inputs()
    cfg = ShotConfig(shots=500, seed=12345, n_steps=6)
    a = run_shots(rho, h, 2 * np.pi, probe, cfg)
    b = run_shots(rho, h, 2 * np.pi, probe, cfg)
    assert np.array_equal(a.successes_at_step, b.successes_at_step)
    assert np.array_equal(a.frequency, b.frequency)
    assert np.array_equal(
        a.final_state_estimate.entries, b.final_state_estimate.entries
    )


def test_different_seeds_differ():
    _, h, probe, rho = reference_inputs()
    a = run_shots(rho, h, 2 * np.pi, probe, ShotConfig(shots=500, seed=1, n_steps=6))
    b = run_shots(rho, h, 2 * np.pi, probe, ShotConfig(shots=500, seed=2, n_steps=6))
    assert not np.array_equal(a.successes_at_step, b.successes_at_step)


def test_summary_invariants():
    _, h, probe, rho = reference_inputs()
    summary = run_shots(
        rho, h, 2 * np.pi, probe, ShotConfig(shots=2000, seed=77, n_steps=8)
    )
    assert np.all(np.diff(summary.successes_at_step) <= 0)
    assert np.all(summary.frequency >= 0.0) and np.all(summary.frequency <= 1.0)
    assert summary.successes_at_step.shape == (9,)


def test_statistical_agreement_with_exact_protocol():
    _, h, probe, rho = reference_inputs()
    shots = 10_000
    cfg = ShotConfig(shots=shots, seed=424242, n_steps=8)
    summary = run_shots(rho, h, 2 * np.pi, probe, cfg)
    trace = run_protocol(rho, h, 2 * np.pi, probe, 8)
    for n, step in enumerate(trace.steps):
        p = step.success_prob
        bound = 4.0 * np.sqrt(max(p * (1.0 - p), 1e-12) / shots)
        assert abs(summary.frequency[n] - p) <= bound


def test_survivor_state_matches_exact_conditional_state():
    _, h, probe, rho = reference_inputs()
    cfg = ShotConfig(shots=4000, seed=2024, n_steps=6)
    summary = run_shots(rho, h, 2 * np.pi, probe, cfg)
    trace = run_protocol(rho, h, 2 * np.pi, probe, 6)
    exact = trace.steps[-1].state
    survivors = int(summary.successes_at_step[-1])
    # compare via fidelity against the exact state's dominant eigenvector
    w, vecs = np.linalg.eigh(exact.entries)
    top = vecs[:, -1]
    fid = fidelity(summary.final_state_estimate, top)
    assert fid >= 1.0 - 5.0 / np.sqrt(survivors)


def test_mixed_initial_state_sampled_from_ensemble():
    h, probe, rho, tau = paper_mixed_inputs()
    cfg = ShotConfig(shots=4000, seed=31415, n_steps=6)
    summary = run_shots(rho, h, tau, probe, cfg)
    trace = run_protocol(rho, h, tau, probe, 6)
    for n, step in enumerate(trace.steps):
        bound = 4.0 * np.sqrt(max(step.success_prob * (1 - step.success_prob), 1e-12) / 4000)
        assert abs(summary.frequency[n] - step.success_prob) <= bound
    fid = fidelity(summary.final_state_estimate, bell_basis().psi_minus)
    assert fid >= 0.99


def test_dimension_mismatch():
    _, h, probe, rho = reference_inputs()
    bad_probe = ProbeSpec(np.array([1.0, 0.0, 0.0]), 3, 4)
    with pytest.raises(DimensionMismatch):
        run_shots(rho, h, 1.0, bad_probe, ShotConfig(shots=10, seed=0, n_steps=2))
    small_h = Operator(np.zeros((4, 4)), (2, 2))
    with pytest.raises(DimensionMismatch):
        run_shots(rho, small_h, 1.0, probe, ShotConfig(shots=10, seed=0, n_steps=2))


def test_negative_tau_rejected():
    _, h, probe, rho = reference_inputs()
    with pytest.raises(ValueError, match="tau must be nonnegative"):
        run_shots(rho, h, -1.0, probe, ShotConfig(shots=10, seed=0, n_steps=2))


def test_summary_arrays_read_only():
    _, h, probe, rho = reference_inputs()
    summary = run_shots(rho, h, 2 * np.pi, probe, ShotConfig(shots=50, seed=5, n_steps=2))
    assert isinstance(summary, ShotSummary)
    with pytest.raises(ValueError):
        summary.frequency[0] = 2.0


def test_shot_uniform_shards_match_bulk_draw():
    # n_steps + 1 = 6 draws per shot, padded to a row of 8
    seed, n_steps, shots = 2**63 + 5, 5, 300
    bulk = _shot_uniforms(seed, n_steps, 0, shots)
    philox = np.random.Generator(np.random.Philox(key=seed))
    assert np.array_equal(bulk, philox.random((shots, 8)))
    for a in (1, 3, 150, 299):
        head = _shot_uniforms(seed, n_steps, 0, a)
        tail = _shot_uniforms(seed, n_steps, a, shots)
        assert np.array_equal(np.vstack([head, tail]), bulk)


def test_results_independent_of_block_size(monkeypatch):
    h, probe, rho = random_entangled_inputs()
    cfg = ShotConfig(shots=600, seed=4711, n_steps=5)
    results = []
    for rows in (1, 7, cfg.shots):
        monkeypatch.setattr(trajectories, "_BLOCK_ROWS", rows)
        results.append(run_shots(rho, h, 0.3, probe, cfg))
    first = results[0]
    for other in results[1:]:
        assert np.array_equal(other.successes_at_step, first.successes_at_step)
        np.testing.assert_allclose(
            other.final_state_estimate.entries,
            first.final_state_estimate.entries,
            rtol=0.0,
            atol=1e-12,
        )


def test_entangled_start_sampled_on_target_space():
    h, probe, rho = random_entangled_inputs()
    blocks = rho.entries.reshape(2, 3, 2, 3)
    rho_x = np.einsum("iaja->ij", blocks)
    rho_a = np.einsum("iaib->ab", blocks)
    assert np.linalg.norm(rho.entries - np.kron(rho_x, rho_a)) > 0.1
    shots, n_steps = 20_000, 8
    summary = run_shots(rho, h, 0.3, probe, ShotConfig(shots, 8128, n_steps))
    trace = run_protocol(rho, h, 0.3, probe, n_steps)
    assert trace.steps[0].success_prob < 0.9
    for n, step in enumerate(trace.steps):
        p = step.success_prob
        bound = 4.0 * np.sqrt(max(p * (1.0 - p), 1e-12) / shots)
        assert abs(summary.frequency[n] - p) <= bound
    # each survivor contributes a unit projector, so the mean's Frobenius
    # error has rms sqrt((1 - Tr rho^2) / N) <= 1 / sqrt(N)
    survivors = int(summary.successes_at_step[-1])
    error = summary.final_state_estimate.entries - trace.steps[-1].state.entries
    assert np.linalg.norm(error) <= 5.0 / np.sqrt(survivors)


@pytest.mark.parametrize("rows", [1, 7, None])
@pytest.mark.parametrize("inputs", ["random-entangled", "paper-mixed"])
def test_member_paths_follow_per_shot_law(monkeypatch, inputs, rows):
    if inputs == "random-entangled":
        h, probe, rho = random_entangled_inputs()
        tau = 0.3
    else:
        h, probe, rho, tau = paper_mixed_inputs()
    cfg = ShotConfig(shots=600, seed=90210, n_steps=6)
    monkeypatch.setattr(trajectories, "_BLOCK_ROWS", rows or cfg.shots)
    summary = run_shots(rho, h, tau, probe, cfg)
    successes, mean = per_shot_reference(rho, h, tau, probe, cfg)
    assert 0 < successes[-1] < successes[0]
    assert np.array_equal(summary.successes_at_step, successes)
    np.testing.assert_allclose(
        summary.final_state_estimate.entries, mean, rtol=0.0, atol=1e-12
    )


def test_zero_steps_estimate_is_the_drawn_ensemble():
    h, probe, rho = random_entangled_inputs()
    cfg = ShotConfig(shots=500, seed=17, n_steps=0)
    summary = run_shots(rho, h, 0.3, probe, cfg)
    successes, mean = per_shot_reference(rho, h, 0.3, probe, cfg)
    assert summary.successes_at_step.shape == (1,)
    assert np.array_equal(summary.successes_at_step, successes)
    estimate = summary.final_state_estimate
    assert isinstance(estimate, Operator)
    np.testing.assert_allclose(estimate.entries, mean, rtol=0.0, atol=1e-12)
    assert abs(np.trace(estimate.entries) - 1.0) <= 1e-12


def test_annihilated_member_dies_at_step_one():
    h, probe, rho, tau = annihilating_inputs(np.eye(2, dtype=complex) / 2.0)
    cfg = ShotConfig(shots=1000, seed=5, n_steps=3)
    summary = run_shots(rho, h, tau, probe, cfg)
    # rho'_A = I/2 has members |0> (draw below 1/2) and |1> (at or above)
    member_one = int(np.sum(_shot_uniforms(cfg.seed, cfg.n_steps, 0, cfg.shots)[:, 0] >= 0.5))
    assert 0 < member_one < cfg.shots
    expected = [cfg.shots] + [member_one] * cfg.n_steps
    assert summary.successes_at_step.tolist() == expected
    estimate = summary.final_state_estimate.entries
    assert np.all(np.isfinite(estimate))
    np.testing.assert_allclose(estimate, np.diag([0.0, 1.0]), rtol=0.0, atol=1e-12)


def test_exactly_annihilated_path_stays_zero(monkeypatch):
    # V = |1><1| exactly: s = 0 on the |0> path, which must not become 0/0
    h, probe, rho, tau = annihilating_inputs(np.eye(2, dtype=complex) / 2.0)
    exact_v = Operator(np.diag([0.0, 1.0]), (2,))
    monkeypatch.setattr(trajectories, "projected_evolution", lambda *args: exact_v)
    s, x = trajectories._member_paths(np.eye(2, dtype=complex), exact_v.entries.T, 3)
    assert np.array_equal(s, [[1.0, 0.0, 0.0, 0.0], [1.0, 1.0, 1.0, 1.0]])
    assert np.array_equal(x, np.diag([0.0, 1.0]))
    summary = run_shots(rho, h, tau, probe, ShotConfig(shots=400, seed=8, n_steps=2))
    survivors = summary.successes_at_step
    assert survivors[0] == 400 and survivors[1] == survivors[2] > 0
    assert np.array_equal(summary.final_state_estimate.entries, np.diag([0.0, 1.0]))


def test_no_survivor_gives_no_estimate():
    # every shot starts in the member V annihilates and dies at step 1
    h, probe, rho, tau = annihilating_inputs(np.diag([1.0, 0.0]).astype(complex))
    summary = run_shots(rho, h, tau, probe, ShotConfig(shots=300, seed=6, n_steps=3))
    assert summary.successes_at_step.tolist() == [300, 0, 0, 0]
    assert summary.final_state_estimate is None
