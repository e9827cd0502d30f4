import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from zenopur import engine
from zenopur.engine import (
    DensityMatrix,
    ProbeSpec,
    condition,
    evolve,
    fidelity,
    run_protocol,
)
from zenopur.exceptions import DimensionMismatch, ZenopurError, ZeroProbability
from zenopur.linalg import Operator
from zenopur.model3q import ModelParams, bell_basis, build_hamiltonian, probe_spec
from zenopur import trajectories
from zenopur.trajectories import ShotConfig, ShotSummary, run_shots, sample

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


@pytest.mark.parametrize("field", ["shots", "seed", "n_steps"])
@pytest.mark.parametrize("value", [True, 1.0, 2.5, "3"])
def test_shot_config_takes_only_integers(field, value):
    # a float seed 1.5 used to run as seed 1, a bool as 1
    fields = dict(shots=10, seed=1, n_steps=3)
    fields[field] = value
    with pytest.raises(ValueError, match=f"{field} must be an integer"):
        ShotConfig(**fields)


@pytest.mark.parametrize("field", ["shots", "n_steps"])
def test_shot_config_counts_stop_below_2_63(field):
    fields = dict(shots=10, seed=1, n_steps=3)
    for value in (2**63, 10**400):
        with pytest.raises(ValueError, match=f"{field} must be at least"):
            ShotConfig(**dict(fields, **{field: value}))
    assert getattr(ShotConfig(**dict(fields, **{field: 2**63 - 1})), field) == 2**63 - 1


@pytest.mark.parametrize("run", ["evolve", "sample"])
def test_unallocatable_step_count_is_a_zenopur_error(run):
    # 2**62 steps pass the count rule, but no numpy array holds one row per step
    _, h, probe, rho = reference_inputs()
    system = condition(rho, h, 2 * np.pi, probe)
    with pytest.raises(ValueError, match="n_steps must be at least 0 and less than"):
        evolve(system, 2**63)
    n = 2**62
    tracemalloc.start()
    try:
        with pytest.raises(ZenopurError, match=f"n_steps = {n}"):
            evolve(system, n) if run == "evolve" else sample(system, ShotConfig(10, 1, n))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_shot_config_stores_numpy_integers_as_ints():
    cfg = ShotConfig(shots=np.int32(10), seed=np.uint64(2**64 - 1), n_steps=np.int64(3))
    assert cfg == ShotConfig(shots=10, seed=2**64 - 1, n_steps=3)
    assert {type(cfg.shots), type(cfg.seed), type(cfg.n_steps)} == {int}


def test_undisturbed_probe_always_survives():
    # H = 0 and the probe factor prepared exactly in |phi>_X; a start of
    # trace 1 + 5e-11 passes the state check, and its weights are scaled to
    # sum to 1 before they reach numpy's multinomial
    phi = np.array([0.6, 0.8], dtype=complex)
    probe = ProbeSpec(phi, 2, 2)
    h = Operator(np.zeros((4, 4), dtype=complex), (2, 2))
    for excess in (0.0, 5e-11):
        rho_a = np.diag([0.3, 0.7 + excess]).astype(complex)
        rho = DensityMatrix(Operator(np.kron(np.outer(phi, phi.conj()), rho_a), (2, 2)))
        for shots in (300, 2**62):
            summary = run_shots(rho, h, 1.0, probe, ShotConfig(shots=shots, seed=9, n_steps=6))
            assert summary.frequency.tolist() == [1.0] * 7
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


def test_long_run_allocates_no_shot_by_step_array():
    # 4096 shots x 2001 steps of float64 would be 66 MB; the sampler keeps
    # one survival row and one row of death counts per kept member
    h, probe, rho, tau = paper_mixed_inputs()
    system = condition(rho, h, tau, probe)
    cfg = ShotConfig(shots=4096, seed=7, n_steps=2000)
    tracemalloc.start()
    try:
        summary = sample(system, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 19
    assert 0 < summary.successes_at_step[-1] < cfg.shots


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


@pytest.mark.parametrize("inputs", ["paper-mixed", "random-entangled"])
def test_death_times_follow_the_exact_law_over_many_seeds(inputs):
    # 2000 seeds x 2000 shots: at every n >= 1 the binomial z-scores of the
    # frequencies against evolve's P(n) have mean ~ 0 (standard error 0.022)
    # and spread ~ 1
    if inputs == "random-entangled":
        h, probe, rho = random_entangled_inputs()
        tau = 0.3
    else:
        h, probe, rho, tau = paper_mixed_inputs()
    shots, n_steps = 2000, 8
    system = condition(rho, h, tau, probe)
    p = evolve(system, n_steps).success_prob[1:]
    assert np.all((p > 0.0) & (p < 1.0))
    freq = np.array(
        [sample(system, ShotConfig(shots, seed, n_steps)).frequency[1:] for seed in range(1, 2001)]
    )
    z = (freq - p) / np.sqrt(p * (1.0 - p) / shots)
    assert np.all(np.abs(z.mean(axis=0)) <= 0.1)
    spread = z.std(axis=0)
    assert np.all((spread >= 0.9) & (spread <= 1.1))


def test_sampler_survival_is_the_protocol_probability(monkeypatch):
    # one member, u = |ud>: S(n) = |V^n u|^2 = P(n) / p0, both from one orbit,
    # whose state block (1, 3, 16 or the default 2048 steps at d = 4, which
    # 3000 steps cross) changes neither the table nor a count
    p, h, probe, rho = reference_inputs()
    mixed_h, mixed_probe, mixed, tau = paper_mixed_inputs()
    cfg = ShotConfig(shots=200, seed=90210, n_steps=3000)
    reference = run_shots(mixed, mixed_h, tau, mixed_probe, cfg)
    assert 0 < reference.successes_at_step[-1] < reference.successes_at_step[0]
    default = engine._STATE_BLOCK_ELEMENTS
    for block_steps in (1, 3, 16, None):
        elements = default if block_steps is None else block_steps * probe.dim_a**2
        monkeypatch.setattr(engine, "_STATE_BLOCK_ELEMENTS", elements)
        system = condition(rho, h, p.tau, probe)
        assert np.count_nonzero(system.weights > 1e-12) == 1
        one = replace(system, weights=system.weights[-1:], members=system.members[:, -1:])
        table, _ = trajectories._member_survival(one, 3000)
        probs = evolve(system, 3000).success_prob
        assert probs[-1] > 0.1
        np.testing.assert_allclose(table[0], probs / system.p0, rtol=1e-13, atol=0.0)
        summary = run_shots(mixed, mixed_h, tau, mixed_probe, cfg)
        assert np.array_equal(summary.successes_at_step, reference.successes_at_step)


def test_zero_steps_estimate_is_the_drawn_ensemble():
    # with no step to take, the estimate is sum_k c_k u_k u_k^dag / sum_k c_k
    # over the members' drawn counts c_k
    h, probe, rho = random_entangled_inputs()
    system = condition(rho, h, 0.3, probe)
    assert system.members.shape == (3, 3)
    summary = sample(system, ShotConfig(shots=500, seed=17, n_steps=0))
    assert summary.successes_at_step.shape == (1,)
    estimate = summary.final_state_estimate
    assert isinstance(estimate, Operator)
    in_members = system.members.conj().T @ estimate.entries @ system.members
    off_diagonal = in_members - np.diag(np.diag(in_members))
    assert np.max(np.abs(off_diagonal)) <= 1e-12
    counts = np.diag(in_members).real * summary.successes_at_step[0]
    np.testing.assert_allclose(counts, np.round(counts), rtol=0.0, atol=1e-9)
    assert abs(np.trace(estimate.entries) - 1.0) <= 1e-12


def test_annihilated_member_dies_at_step_one():
    # rho'_A = I/2 has members |0>, which V annihilates, and |1>, which V keeps
    h, probe, rho, tau = annihilating_inputs(np.eye(2, dtype=complex) / 2.0)
    cfg = ShotConfig(shots=1000, seed=5, n_steps=3)
    summary = run_shots(rho, h, tau, probe, cfg)
    successes = summary.successes_at_step.tolist()
    assert successes[0] == cfg.shots
    assert successes[1] == successes[2] == successes[3]
    assert 0 < successes[1] < cfg.shots
    assert abs(successes[1] - cfg.shots / 2) <= 5.0 * np.sqrt(cfg.shots / 4)
    estimate = summary.final_state_estimate.entries
    assert np.all(np.isfinite(estimate))
    np.testing.assert_allclose(estimate, np.diag([0.0, 1.0]), rtol=0.0, atol=1e-12)


def test_exactly_annihilated_path_stays_zero():
    # V = |1><1| exactly: s = 0 on the |0> path, which must not become 0/0
    h, probe, rho, tau = annihilating_inputs(np.eye(2, dtype=complex) / 2.0)
    exact_v = Operator(np.diag([0.0, 1.0]), (2,))
    system = replace(condition(rho, h, tau, probe), v=exact_v, members=np.eye(2, dtype=complex))
    s, x = trajectories._member_survival(system, 3)
    assert np.array_equal(s, [[1.0, 0.0, 0.0, 0.0], [1.0, 1.0, 1.0, 1.0]])
    assert np.array_equal(x, np.diag([0.0, 1.0]))
    summary = sample(system, ShotConfig(shots=400, seed=8, n_steps=2))
    survivors = summary.successes_at_step
    assert survivors[0] == 400 and survivors[1] == survivors[2] > 0
    assert np.array_equal(summary.final_state_estimate.entries, np.diag([0.0, 1.0]))


def test_no_survivor_gives_no_estimate():
    # every shot starts in the member V annihilates and dies at step 1
    h, probe, rho, tau = annihilating_inputs(np.diag([1.0, 0.0]).astype(complex))
    summary = run_shots(rho, h, tau, probe, ShotConfig(shots=300, seed=6, n_steps=3))
    assert summary.successes_at_step.tolist() == [300, 0, 0, 0]
    assert summary.final_state_estimate is None


def test_every_member_path_is_built_once_before_the_first_draw(monkeypatch):
    # the paper's two members: one orbit builds both paths
    h, probe, rho, tau = paper_mixed_inputs()
    system = condition(rho, h, tau, probe)
    assert len(system.weights) == 2
    cfg = ShotConfig(shots=50, seed=11, n_steps=4)
    reference = sample(system, cfg)
    factors = []
    orbit = engine.Conditioned.orbit

    def counted(self, w, n_steps):
        factors.append(w.shape)
        return orbit(self, w, n_steps)

    monkeypatch.setattr(engine.Conditioned, "orbit", counted)
    summary = sample(system, cfg)
    assert factors == [(4, 2)]
    assert np.array_equal(summary.successes_at_step, reference.successes_at_step)


def test_sample_on_a_conditioned_system_is_run_shots():
    for h, probe, rho, tau in (
        random_entangled_inputs() + (0.7,),
        paper_mixed_inputs(),
    ):
        cfg = ShotConfig(shots=700, seed=31, n_steps=5)
        summary = sample(condition(rho, h, tau, probe), cfg)
        reference = run_shots(rho, h, tau, probe, cfg)
        assert np.array_equal(summary.successes_at_step, reference.successes_at_step)
        assert np.array_equal(summary.frequency, reference.frequency)
        assert np.array_equal(
            summary.final_state_estimate.entries, reference.final_state_estimate.entries
        )


def test_non_psd_conditional_start_rejected_before_sampling():
    # as test_engine's case: rho_tot passes STATE_TOL, rho'_A / p0 does not
    rho = DensityMatrix(Operator(np.diag([1e-3 + 5e-11, -5e-11, 1.0 - 1e-3, 0.0]), (2, 2)))
    probe = ProbeSpec(np.array([1.0, 0.0]), 2, 2)
    h = Operator(np.zeros((4, 4)), (2, 2))
    with pytest.raises(ValueError) as protocol:
        run_protocol(rho, h, 1.0, probe, 3)
    with pytest.raises(ValueError) as shots:
        run_shots(rho, h, 1.0, probe, ShotConfig(shots=10, seed=0, n_steps=3))
    assert str(shots.value) == str(protocol.value)
    assert "negative eigenvalue" in str(shots.value)


def test_probe_orthogonal_to_the_start_keeps_no_member():
    # start |1><1| (x) rho_a, probe |0>: rho'_A = 0 and p0 = 0 exactly
    h, probe, _, tau = annihilating_inputs(np.eye(2, dtype=complex) / 2.0)
    rho = DensityMatrix(Operator(np.kron(np.diag([0.0, 1.0]), np.eye(2) / 2.0), (2, 2)))
    system = condition(rho, h, tau, probe)
    assert system.p0 == 0.0
    assert system.weights.shape == (0,) and system.members.shape == (2, 0)
    summary = sample(system, ShotConfig(shots=300, seed=4, n_steps=3))
    assert summary.frequency.tolist() == [0.0] * 4
    assert summary.final_state_estimate is None
    with pytest.raises(ZeroProbability, match="probe outcome probability"):
        evolve(system, 3)


def test_rounding_negative_p0_keeps_only_positive_weights():
    # rho'_A = U diag(1e-17, -3e-17, 0) U^dag is rounding noise whose trace
    # p0 is below zero, so no PSD check runs and no weight is relative to p0
    rng = np.random.default_rng(5)
    u = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))[0]
    noise = (u * [1e-17, -3e-17, 0.0]) @ u.conj().T
    rest = np.diag([0.5, 0.3, 0.2]) - noise
    rho = np.kron(np.diag([1.0, 0.0]), noise) + np.kron(np.diag([0.0, 1.0]), rest)
    rho = DensityMatrix(Operator(rho, (2, 3)))
    probe = ProbeSpec(np.array([1.0, 0.0]), 2, 3)
    h = Operator(np.zeros((6, 6)), (2, 3))
    system = condition(rho, h, 0.5, probe)
    assert system.p0 < 0.0
    assert system.weights.size > 0 and np.all(system.weights > 0.0)
    assert np.all(np.diff(np.cumsum(system.weights)) >= 0.0)
    summary = sample(system, ShotConfig(shots=300, seed=4, n_steps=2))
    assert summary.frequency.tolist() == [0.0] * 3
