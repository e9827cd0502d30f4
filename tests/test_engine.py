import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from zenopur import engine
from zenopur.engine import (
    STATE_TOL,
    SURVIVAL_FLOOR,
    DensityMatrix,
    ProbeSpec,
    condition,
    condition_on_probe,
    efficiency_check,
    evolve,
    fidelity,
    probe_block,
    projected_evolution,
    run_protocol,
    spectral_report,
)
from zenopur.exceptions import (
    DimensionMismatch,
    NoDominantEigenvalue,
    NonHermitianInput,
    NotPositiveSemidefinite,
    ZeroProbability,
)
from zenopur.linalg import Operator, matrix_exponential
from zenopur.model3q import ModelParams
from zenopur import trajectories
from zenopur.trajectories import ShotConfig, run_shots

from conftest import rand_density, rand_hermitian, rand_state


# ---------------------------------------------------------------------------
# independent full-space oracle: iterate (O exp(-iHt) O) directly on the
# total space with scipy's Pade expm, renormalizing the total state at
# every step, then condition on the probe by hand


def full_space_trace(rho_tot, h, tau, phi, dim_x, dim_a, n_steps):
    proj_x = np.outer(phi, phi.conj())
    o = np.kron(proj_x, np.eye(dim_a))
    m = o @ scipy.linalg.expm(-1j * h * tau) @ o
    states, probs = [], []
    full, p = o @ rho_tot @ o, 1.0
    for n in range(n_steps + 1):
        if n > 0:
            full = m @ full @ m.conj().T
        q = float(np.trace(full).real)
        full, p = full / q, p * q
        blocks = full.reshape(dim_x, dim_a, dim_x, dim_a)
        rho_a = np.einsum("i,iajb,j->ab", phi.conj(), blocks, phi)
        norm_a = float(np.trace(rho_a).real)
        states.append(rho_a / norm_a)
        probs.append(p)
    return states, probs


def dense_reference(rho_tot, h, tau, probe, n_steps, target=None, truncate=True):
    """The dense recursion sigma <- V sigma V^dag that ``run_protocol``
    iterated before the factor: returns P(n), the states and the
    fidelities, and raises the same ZeroProbability on underflow.

    It starts from rho'_A / p0 on the members ``condition`` keeps, the
    start the factor evolves, or with ``truncate=False`` from the whole
    probe block rho'_A / p0."""
    system = condition(rho_tot, h, tau, probe)
    v, p0 = system.v.entries, system.p0
    if truncate:
        sigma = (system.members * (system.weights / p0)) @ system.members.conj().T
    else:
        sigma = probe_block(rho_tot, probe) / p0
    probs, states = [], []
    for n in range(n_steps + 1):
        if n > 0:
            sigma = v @ sigma @ v.conj().T
            sigma = (sigma + sigma.conj().T) / 2.0
        q = float(np.trace(sigma).real)
        if p0 * q < SURVIVAL_FLOOR:
            raise ZeroProbability(f"survival probability underflowed at step {n}")
        probs.append(p0 * q)
        states.append(sigma / q)
    fids = None if target is None else [np.real(target.conj() @ m @ target) for m in states]
    return np.array(probs), np.array(states), fids


def dropped_weight(rho_tot, probe):
    """sum |lambda_k| over the eigenvalues of rho'_A that ``condition`` drops."""
    block = probe_block(rho_tot, probe)
    lam = np.linalg.eigvalsh(block)
    return np.abs(lam[lam <= STATE_TOL * max(np.trace(block).real, 0.0)]).sum()


def reference_setup():
    from zenopur.model3q import ModelParams, build_hamiltonian, probe_spec

    p = ModelParams(omega=1.0, g=0.25, tau=2 * np.pi)
    return p, build_hamiltonian(p), probe_spec(p)


PSI_MINUS = np.array([0.0, 1.0, -1.0, 0.0], dtype=complex) / np.sqrt(2.0)
UP_DOWN = np.array([0.0, 1.0, 0.0, 0.0], dtype=complex)
RIGHT = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0)


# ---------------------------------------------------------------------------
# ProbeSpec / DensityMatrix


def test_probe_spec_validation():
    with pytest.raises(ValueError):
        ProbeSpec(np.array([1.0, 1.0]), 2, 2)
    with pytest.raises(ValueError):
        ProbeSpec(np.array([np.nan, 1.0]), 2, 4)
    with pytest.raises(DimensionMismatch):
        ProbeSpec(np.array([1.0, 0.0, 0.0]), 2, 2)
    probe = ProbeSpec(RIGHT, 2, 4)
    assert probe.dim_total == 8


@pytest.mark.parametrize(
    "phi, dim_x, dim_a",
    [(RIGHT, 2.0, 2), (RIGHT, 2, 4.0), ([1.0], True, 4), ([1.0], 1, True), (RIGHT, "2", 4)],
)
def test_probe_spec_dimensions_take_only_integers(phi, dim_x, dim_a):
    # 2.0 used to fail later inside projected_evolution, and True to run as 1
    with pytest.raises(ValueError, match="dim_[xa] must be an integer"):
        ProbeSpec(phi, dim_x, dim_a)


def test_probe_spec_stores_numpy_integer_dimensions_as_ints():
    probe = ProbeSpec(RIGHT, np.int64(2), np.int32(4))
    assert (probe.dim_x, probe.dim_a) == (2, 4)
    assert {type(probe.dim_x), type(probe.dim_a)} == {int}


def test_array_holding_values_compare_by_identity():
    values = [
        Operator(np.eye(2)), Operator(np.eye(2)),
        Operator(np.ones((1, 1))), Operator(np.ones((1, 1))),
        ProbeSpec(RIGHT, 2, 4), ProbeSpec(RIGHT, 2, 4),
    ]
    for i, a in enumerate(values):
        assert a == a
        assert all(a != b for b in values[i + 1 :])
    assert len(set(values)) == len(values)


def test_density_matrix_validation():
    with pytest.raises(ValueError):
        DensityMatrix(Operator(np.array([[0.5, 0.5], [-0.5, 0.5]], dtype=complex)))
    with pytest.raises(ValueError):
        DensityMatrix(Operator(np.diag([1.5, -0.5]).astype(complex)))
    with pytest.raises(ValueError):
        DensityMatrix(Operator(np.diag([0.7, 0.7]).astype(complex)))
    rho = DensityMatrix.pure(np.array([3.0, 4.0]))
    np.testing.assert_allclose(np.trace(rho.entries), 1.0)


# one owner per value rule (linalg): every entry point rejects the same input.
# MATRIX_4 has four entries of unit total norm, so it used to pass, flattened,
# as a 4-vector; the bad reals used to construct a ModelParams.
MATRIX_4 = np.eye(2) / np.sqrt(2.0)
NON_HERMITIAN = np.array([[0.5, 0.5], [-0.5, 0.5]], dtype=complex)
BAD_REALS = {"nan": np.nan, "inf": np.inf, "-inf": -np.inf, "bool": True, "400-digit": 10**400}


def _bad_inputs():
    """(id, build(h, probe, rho) on the paper model, exception) rows."""
    rows = [
        ("probe-spec-matrix", lambda h, probe, rho: ProbeSpec(MATRIX_4, 4, 1), DimensionMismatch),
        (
            "fidelity-matrix",
            lambda h, probe, rho: fidelity(DensityMatrix(Operator(np.eye(4) / 4)), MATRIX_4),
            DimensionMismatch,
        ),
        (
            "run-protocol-target-matrix",
            lambda h, probe, rho: run_protocol(rho, h, 1.0, probe, 2, target=MATRIX_4),
            DimensionMismatch,
        ),
        ("pure-matrix", lambda h, probe, rho: DensityMatrix.pure(MATRIX_4), DimensionMismatch),
        (
            "density-matrix-non-hermitian",
            lambda h, probe, rho: DensityMatrix(Operator(NON_HERMITIAN)),
            NonHermitianInput,
        ),
        (
            "hermitian-spectrum-non-hermitian",
            lambda h, probe, rho: Operator(NON_HERMITIAN).hermitian_spectrum,
            NonHermitianInput,
        ),
        ("probe-spec-zero-dim", lambda h, probe, rho: ProbeSpec(RIGHT, 0, 4), ValueError),
        ("pure-zero-vector", lambda h, probe, rho: DensityMatrix.pure(np.zeros(4)), ValueError),
        (
            "probe-block-wrong-size",
            lambda h, probe, rho: probe_block(DensityMatrix(Operator(np.eye(4) / 4)), probe),
            DimensionMismatch,
        ),
        (
            "evolve-negative-steps",
            lambda h, probe, rho: evolve(condition(rho, h, 1.0, probe), -1),
            ValueError,
        ),
    ]
    for label, x in dict(BAD_REALS, negative=-1.0).items():
        for field in ("tau",) if label == "negative" else ("omega", "g", "tau"):
            kwargs = dict({"omega": 1.0, "g": 0.25, "tau": 1.0}, **{field: x})
            rows.append((
                f"model-params-{field}-{label}",
                lambda h, probe, rho, kwargs=kwargs: ModelParams(**kwargs),
                ValueError,
            ))
        rows.append((
            f"projected-evolution-tau-{label}",
            lambda h, probe, rho, x=x: projected_evolution(h, x, probe),
            ValueError,
        ))
    return rows


@pytest.mark.parametrize(
    "build, error", [row[1:] for row in _bad_inputs()], ids=[row[0] for row in _bad_inputs()]
)
def test_bad_value_is_rejected_by_its_rule(build, error):
    _, h, probe = reference_setup()
    rho = DensityMatrix.pure(np.kron(RIGHT, UP_DOWN), (2, 4))
    with pytest.raises(error):
        build(h, probe, rho)


def test_non_hermitian_input_is_a_value_error():
    assert issubclass(NonHermitianInput, ValueError)


# ---------------------------------------------------------------------------
# projected_evolution


def test_projected_evolution_identity_at_zero_hamiltonian():
    probe = ProbeSpec(RIGHT, 2, 3)
    h = Operator(np.zeros((6, 6), dtype=complex), (2, 3))
    v = projected_evolution(h, 1.7, probe)
    np.testing.assert_allclose(v.entries, np.eye(3), atol=1e-14)
    assert v.factors == (3,)


def test_projected_evolution_contraction():
    rng = np.random.default_rng(23)
    for _ in range(20):
        dim_x, dim_a = int(rng.integers(2, 4)), int(rng.integers(2, 5))
        h = Operator(rand_hermitian(rng, dim_x * dim_a, 2.0), (dim_x, dim_a))
        probe = ProbeSpec(rand_state(rng, dim_x), dim_x, dim_a)
        v = projected_evolution(h, rng.uniform(0.0, 4.0), probe)
        svals = np.linalg.svd(v.entries, compute_uv=False)
        assert svals.max() <= 1.0 + 1e-10
        mags = np.abs(np.linalg.eigvals(v.entries))
        assert mags.max() <= 1.0 + 1e-10


def test_projected_evolution_matches_full_space_sandwich():
    rng = np.random.default_rng(29)
    h = rand_hermitian(rng, 8, 1.5)
    phi = rand_state(rng, 2)
    probe = ProbeSpec(phi, 2, 4)
    v = projected_evolution(Operator(h, (2, 4)), 0.9, probe)
    o = np.kron(np.outer(phi, phi.conj()), np.eye(4))
    sandw = o @ scipy.linalg.expm(-1j * h * 0.9) @ o
    # <phi (x) a| sandwich |phi (x) b> reproduces V entrywise
    full = np.einsum(
        "i,iajb,j->ab", phi.conj(), sandw.reshape(2, 4, 2, 4), phi
    )
    np.testing.assert_allclose(v.entries, full, atol=1e-12)


def test_projected_evolution_errors():
    probe = ProbeSpec(RIGHT, 2, 4)
    with pytest.raises(DimensionMismatch):
        projected_evolution(Operator(np.zeros((6, 6), dtype=complex)), 1.0, probe)
    with pytest.raises(NonHermitianInput):
        h = np.zeros((8, 8), dtype=complex)
        h[0, 1] = 1.0
        projected_evolution(Operator(h, (2, 4)), 1.0, probe)
    with pytest.raises(ValueError):
        projected_evolution(Operator(np.zeros((8, 8), dtype=complex), (2, 4)), -1.0, probe)


@pytest.mark.parametrize("tau", [np.nan, np.inf, True, np.True_, "1.0", 1j])
def test_projected_evolution_checks_tau_up_front(tau):
    # nan and inf used to warn from np.exp and then fail on "entries must be
    # finite"; True ran as tau = 1
    probe = ProbeSpec(RIGHT, 2, 4)
    h = Operator(np.zeros((8, 8), dtype=complex), (2, 4))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="tau must be"):
            projected_evolution(h, tau, probe)


def test_non_hermitian_hamiltonian_rejected_on_every_call():
    # a failed Hermiticity check is not cached, nor are the probe rows: the
    # second round of calls raises too
    probe = ProbeSpec(RIGHT, 2, 4)
    m = np.zeros((8, 8), dtype=complex)
    m[0, 1] = 1.0
    h = Operator(m, (2, 4))
    rho = DensityMatrix(Operator(np.eye(8) / 8.0, (2, 4)))
    shown = repr(h)
    for _ in range(2):
        for call in (
            lambda: projected_evolution(h, 1.0, probe),
            lambda: condition(rho, h, 1.0, probe),
            lambda: run_shots(rho, h, 1.0, probe, ShotConfig(shots=5, seed=1, n_steps=1)),
        ):
            with pytest.raises(NonHermitianInput):
                call()
    assert set(vars(h)) == {"entries", "factors"}
    assert repr(h) == shown


def counted_eigh(monkeypatch, dim):
    """A list that gets one entry per ``np.linalg.eigh`` call at ``dim``."""
    calls = []
    original = np.linalg.eigh

    def counted(m, *args, **kwargs):
        if np.shape(m)[-1] == dim:
            calls.append(1)
        return original(m, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    return calls


def test_one_hermitian_eigendecomposition_per_hamiltonian(monkeypatch):
    rng = np.random.default_rng(53)
    dim_x, dim_a = 2, 3
    h = Operator(rand_hermitian(rng, dim_x * dim_a), (dim_x, dim_a))
    probe = ProbeSpec(rand_state(rng, dim_x), dim_x, dim_a)
    rho = DensityMatrix(Operator(rand_density(rng, dim_x * dim_a), (dim_x, dim_a)))
    h_calls = counted_eigh(monkeypatch, dim_x * dim_a)
    block_calls = counted_eigh(monkeypatch, dim_a)
    matrix_exponential(h, 0.3)
    for tau in (0.3, 1.1, 2.9):
        projected_evolution(h, tau, probe)
    for tau in (0.3, 1.1, 2.9):
        run_protocol(rho, h, tau, probe, 3)
    run_shots(rho, h, 1.1, probe, ShotConfig(shots=50, seed=3, n_steps=3))
    # one eigh per Hamiltonian, and one of rho'_A per state and probe, at any tau
    assert len(h_calls) == 1 and len(block_calls) == 1


def test_conditioning_ensemble_is_kept_for_one_probe_per_state(monkeypatch):
    rng = np.random.default_rng(59)
    dim_x, dim_a = 2, 3
    h = Operator(rand_hermitian(rng, dim_x * dim_a), (dim_x, dim_a))
    rho = DensityMatrix(Operator(rand_density(rng, dim_x * dim_a), (dim_x, dim_a)))
    first, second = (ProbeSpec(rand_state(rng, dim_x), dim_x, dim_a) for _ in range(2))
    shown = repr(rho)
    calls = counted_eigh(monkeypatch, dim_a)
    a = condition(rho, h, 0.7, first)
    # an equal probe built anew hits the cache, at another tau
    b = condition(rho, h, 1.9, ProbeSpec(first.phi_x.copy(), dim_x, dim_a))
    assert len(calls) == 1
    assert b.weights is a.weights and b.members is a.members and b.p0 == a.p0
    condition(rho, h, 0.7, second)
    assert len(calls) == 2
    # one slot: going back to the first probe diagonalizes again
    c = condition(rho, h, 0.7, first)
    assert len(calls) == 3
    np.testing.assert_array_equal(c.weights, a.weights)
    np.testing.assert_array_equal(c.members, a.members)
    # an equal but distinct DensityMatrix has its own cache
    condition(DensityMatrix(Operator(rho.entries, (dim_x, dim_a))), h, 0.7, first)
    assert len(calls) == 4
    assert repr(rho) == shown


def counted_projections(monkeypatch):
    """A list that gets one entry per projection of H's eigenvectors onto a probe."""
    calls = []
    original = engine._probe_rows

    def counted(h_tot, probe):
        calls.append(1)
        return original(h_tot, probe)

    monkeypatch.setattr(engine, "_probe_rows", counted)
    return calls


def test_probe_rows_are_kept_for_one_probe_per_hamiltonian(monkeypatch):
    rng = np.random.default_rng(67)
    dim_x, dim_a = 2, 3
    h = Operator(rand_hermitian(rng, dim_x * dim_a), (dim_x, dim_a))
    rho = DensityMatrix(Operator(rand_density(rng, dim_x * dim_a), (dim_x, dim_a)))
    first, second = (ProbeSpec(rand_state(rng, dim_x), dim_x, dim_a) for _ in range(2))
    shown = repr(h)
    calls = counted_projections(monkeypatch)
    a = projected_evolution(h, 0.3, first)
    for tau in (1.1, 2.9):
        projected_evolution(h, tau, first)
    # an equal probe built anew hits the slot, through condition and run_shots too
    again = ProbeSpec(first.phi_x.copy(), dim_x, dim_a)
    b = condition(rho, h, 0.3, again).v
    run_shots(rho, h, 1.1, again, ShotConfig(shots=50, seed=3, n_steps=3))
    assert len(calls) == 1
    np.testing.assert_array_equal(b.entries, a.entries)
    projected_evolution(h, 0.3, second)
    assert len(calls) == 2
    # one slot: going back to the first probe projects again
    c = projected_evolution(h, 0.3, first)
    assert len(calls) == 3
    np.testing.assert_array_equal(c.entries, a.entries)
    # the held rows are the last probe's, read-only
    held = {k: v for k, v in vars(h).items() if k not in ("entries", "factors")}
    assert set(held) == {"hermitian_spectrum", "_probe_rows"}
    key, rows = held["_probe_rows"]
    assert key == (dim_x, dim_a, first.phi_x.tobytes())
    assert not any(r.flags.writeable for r in rows)
    assert repr(h) == shown


def test_failed_conditioning_checks_raise_on_every_call(monkeypatch):
    # rho_tot passes STATE_TOL, but rho'_A / p0 has the eigenvalue -5e-11 / 1e-3
    rho = DensityMatrix(Operator(np.diag([1e-3 + 5e-11, -5e-11, 1.0 - 1e-3, 0.0]), (2, 2)))
    h = Operator(np.zeros((4, 4)), (2, 2))
    probe = ProbeSpec(np.array([1.0, 0.0]), 2, 2)
    calls = counted_eigh(monkeypatch, 2)
    for _ in range(2):
        with pytest.raises(NotPositiveSemidefinite, match="-5.000e-08"):
            condition(rho, h, 1.0, probe)
    assert len(calls) == 2
    # a state of the wrong dimension, on a Hamiltonian that fits the probe
    wide = DensityMatrix(Operator(np.eye(6) / 6.0))
    for _ in range(2):
        with pytest.raises(DimensionMismatch, match="state dimension 6"):
            condition(wide, h, 1.0, probe)


def test_one_conditioning_ensemble_is_held_after_many_probes(monkeypatch):
    rng = np.random.default_rng(61)
    dim_x, dim_a = 2, 32
    h = Operator(rand_hermitian(rng, dim_x * dim_a), (dim_x, dim_a))
    rho = DensityMatrix(Operator(rand_density(rng, dim_x * dim_a), (dim_x, dim_a)))
    calls = counted_eigh(monkeypatch, dim_a)
    for _ in range(50):
        system = condition(rho, h, 0.4, ProbeSpec(rand_state(rng, dim_x), dim_x, dim_a))
    assert len(calls) == 50
    # the state holds its entries and one ensemble, the last probe's
    held = {k: v for k, v in vars(rho).items() if k != "op"}
    assert len(held) == 1
    (_, ensemble), = held.values()
    assert ensemble[0] is system.weights and ensemble[1] is system.members


# ---------------------------------------------------------------------------
# condition_on_probe


def test_condition_on_probe_product_state():
    rng = np.random.default_rng(37)
    rho_a = rand_density(rng, 4)
    phi = rand_state(rng, 2)
    chi = rand_state(rng, 2)
    rho_tot = DensityMatrix(
        Operator(np.kron(np.outer(chi, chi.conj()), rho_a), (2, 4))
    )
    probe = ProbeSpec(phi, 2, 4)
    cond, p0 = condition_on_probe(rho_tot, probe)
    np.testing.assert_allclose(p0, abs(np.vdot(phi, chi)) ** 2, atol=1e-12)
    np.testing.assert_allclose(cond.entries, rho_a, atol=1e-12)


def test_condition_on_probe_zero_probability():
    rho_tot = DensityMatrix(
        Operator(np.kron(np.diag([0.0, 1.0]), np.eye(4) / 4.0), (2, 4))
    )
    probe = ProbeSpec(np.array([1.0, 0.0]), 2, 4)
    with pytest.raises(ZeroProbability):
        condition_on_probe(rho_tot, probe)


# ---------------------------------------------------------------------------
# fidelity


def test_fidelity_hand_values():
    psi = DensityMatrix.pure(PSI_MINUS, (2, 2))
    assert fidelity(psi, PSI_MINUS) == pytest.approx(1.0)
    up_down = DensityMatrix.pure(UP_DOWN, (2, 2))
    assert fidelity(up_down, PSI_MINUS) == pytest.approx(0.5)
    mixed = DensityMatrix(Operator(np.eye(4, dtype=complex) / 4.0, (2, 2)))
    assert fidelity(mixed, PSI_MINUS) == pytest.approx(0.25)


def test_fidelity_errors():
    psi = DensityMatrix.pure(PSI_MINUS, (2, 2))
    with pytest.raises(DimensionMismatch):
        fidelity(psi, np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        fidelity(psi, 2.0 * PSI_MINUS)
    with pytest.raises(ValueError):
        fidelity(psi, np.array([np.nan, 0.0, 0.0, 0.0]))


# ---------------------------------------------------------------------------
# run_protocol


def test_run_protocol_matches_full_space_oracle():
    rng = np.random.default_rng(41)
    for _ in range(10):
        h = rand_hermitian(rng, 8, 1.2)
        rho = rand_density(rng, 8)
        phi = rand_state(rng, 2)
        tau = rng.uniform(0.2, 3.0)
        probe = ProbeSpec(phi, 2, 4)
        trace = run_protocol(
            DensityMatrix(Operator(rho, (2, 4))), Operator(h, (2, 4)), tau, probe, 8
        )
        states, probs = full_space_trace(rho, h, tau, phi, 2, 4, 8)
        for step, state, prob in zip(trace.steps, states, probs):
            np.testing.assert_allclose(step.state.entries, state, atol=1e-9)
            np.testing.assert_allclose(step.success_prob, prob, atol=1e-9)


def test_run_protocol_success_probability_convention_and_monotonicity():
    rng = np.random.default_rng(43)
    h = rand_hermitian(rng, 8, 1.0)
    rho = rand_density(rng, 8)
    phi = rand_state(rng, 2)
    probe = ProbeSpec(phi, 2, 4)
    rho_dm = DensityMatrix(Operator(rho, (2, 4)))
    trace = run_protocol(rho_dm, Operator(h, (2, 4)), 1.1, probe, 12)
    _, p0 = condition_on_probe(rho_dm, probe)
    assert trace.steps[0].success_prob == pytest.approx(p0, abs=1e-14)
    probs = trace.success_probabilities()
    assert np.all(probs >= 0.0)
    assert np.all(np.diff(probs) <= 1e-12)


@pytest.mark.parametrize("n_steps", [True, 3.0, 2.5, "3"])
def test_run_protocol_takes_only_integer_steps(n_steps):
    p, h, probe = reference_setup()
    rho = DensityMatrix.pure(np.kron(RIGHT, UP_DOWN), (2, 2, 2))
    with pytest.raises(ValueError, match="n_steps must be an integer"):
        run_protocol(rho, h, p.tau, probe, n_steps)
    assert len(run_protocol(rho, h, p.tau, probe, np.int64(3)).success_prob) == 4


def test_run_protocol_states_stay_physical():
    from zenopur.model3q import bell_basis

    p, h, probe = reference_setup()
    rho = DensityMatrix.pure(np.kron(RIGHT, UP_DOWN), (2, 2, 2))
    trace = run_protocol(rho, h, p.tau, probe, 20, target=bell_basis().psi_minus)
    for step in trace.steps:
        m = step.state.entries
        np.testing.assert_allclose(m, m.conj().T, atol=1e-9)
        assert np.linalg.eigvalsh(m).min() >= -1e-9
        np.testing.assert_allclose(np.trace(m).real, 1.0, atol=1e-9)
        assert 0.0 <= step.fidelity <= 1.0
    fids = trace.fidelities()
    assert fids[0] == pytest.approx(0.5)
    assert fids[-1] > 0.999999


def test_run_protocol_underflow_guard():
    # probe permanently orthogonal to where the evolution parks the system
    h = np.zeros((4, 4), dtype=complex)
    h[0, 0] = 0.0
    probe = ProbeSpec(np.array([np.sqrt(1 - 1e-8), np.sqrt(1e-8)]), 2, 2)
    # rotate the X qubit hard away from the probe each step
    h = np.kron(np.array([[0.0, 1.0], [1.0, 0.0]]), np.eye(2)).astype(complex)
    rho = DensityMatrix(Operator(np.eye(4, dtype=complex) / 4.0, (2, 2)))
    with pytest.raises(ZeroProbability):
        run_protocol(rho, Operator(h, (2, 2)), np.pi / 2, probe, 50)


def paper_start(kind):
    """The paper's starts on the model's 2 x 4 split: ``product`` is
    |+> (x) |ud> (rank 1), ``mixed`` is |+><+| (x) (|ud><ud| + |du><du|)/2
    (rank 2)."""
    down_up = np.array([0.0, 0.0, 1.0, 0.0], dtype=complex)
    if kind == "product":
        rho_ab = np.outer(UP_DOWN, UP_DOWN)
    else:
        rho_ab = (np.outer(UP_DOWN, UP_DOWN) + np.outer(down_up, down_up)) / 2.0
    return DensityMatrix(Operator(np.kron(np.outer(RIGHT, RIGHT), rho_ab), (2, 2, 2)))


def factor_starts(kind):
    """(rho_tot, H, tau, probe, target) of one start of the factor tests."""
    if kind in ("paper-product", "paper-mixed"):
        p, h, probe = reference_setup()
        return paper_start(kind.removeprefix("paper-")), h, p.tau, probe, PSI_MINUS
    rng = np.random.default_rng(61)
    if kind == "random-full-rank":
        h = Operator(rand_hermitian(rng, 6, 1.3), (2, 3))
        probe = ProbeSpec(rand_state(rng, 2), 2, 3)
        rho = rand_density(rng, 6)
    else:
        # |chi><chi| (x) rho_a with rho_a indefinite: eigenvalues 0.6, 0.4
        # and +-1e-11, inside STATE_TOL
        h = Operator(rand_hermitian(rng, 8, 1.3), (2, 4))
        probe = ProbeSpec(rand_state(rng, 2), 2, 4)
        u = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))[0]
        rho_a = (u * [0.6, 0.4, 1e-11, -1e-11]) @ u.conj().T
        chi = rand_state(rng, 2)
        rho = np.kron(np.outer(chi, chi.conj()), rho_a)
    return DensityMatrix(Operator(rho, (2, probe.dim_a))), h, 0.8, probe, rand_state(rng, probe.dim_a)


@pytest.mark.parametrize(
    "kind", ["paper-product", "paper-mixed", "random-full-rank", "indefinite"]
)
def test_factor_recursion_matches_dense_reference(kind):
    rho, h, tau, probe, target = factor_starts(kind)
    trace = run_protocol(rho, h, tau, probe, 60, target=target)
    probs, states, fids = dense_reference(rho, h, tau, probe, 60, target)
    np.testing.assert_allclose(trace.success_prob, probs, rtol=1e-12, atol=0)
    np.testing.assert_allclose(trace.states, states, rtol=0, atol=1e-12)
    np.testing.assert_allclose(trace.fidelity, fids, rtol=0, atol=1e-12)
    assert trace.states.shape == (61, probe.dim_a, probe.dim_a)
    assert [step.n for step in trace.steps] == list(range(61))
    # the untruncated start: V is a contraction, so the members condition
    # drops move P(n) by at most the sum of their |lambda_k|
    full, _, _ = dense_reference(rho, h, tau, probe, 60, truncate=False)
    bound = dropped_weight(rho, probe) + 1e-12 * full
    assert np.all(np.abs(trace.success_prob - full) <= bound)


def test_detuned_run_underflows_at_the_reference_step():
    p, h, probe = reference_setup()
    rho = paper_start("product")
    args = (rho, h, 2.2 * np.pi, probe, 8000)
    with pytest.raises(ZeroProbability) as reference:
        dense_reference(*args)
    with pytest.raises(ZeroProbability) as factor:
        run_protocol(*args)
    assert str(factor.value) == str(reference.value)
    assert str(factor.value).endswith("step 6876")


def test_start_with_a_rounding_negative_member_runs_to_the_end():
    # rho_A = (1 + 1e-11)|psi+><psi+| - 1e-11|psi-><psi-| is a valid
    # DensityMatrix; psi- is V's |lambda| = 1 eigenvector, so the signed P(n)
    # of the whole rho'_A falls below zero once the psi+ share has decayed
    p, h, probe = reference_setup()
    psi_plus = np.array([0.0, 1.0, 1.0, 0.0], dtype=complex) / np.sqrt(2.0)
    rho_a = (1 + 1e-11) * np.outer(psi_plus, psi_plus) - 1e-11 * np.outer(PSI_MINUS, PSI_MINUS)
    rho = DensityMatrix(Operator(np.kron(np.outer(RIGHT, RIGHT), rho_a), (2, 2, 2)))
    probs = run_protocol(rho, h, p.tau, probe, 200).success_prob
    assert probs.shape == (201,)
    assert np.all(probs >= 0.0)
    # non-increasing up to rounding: once the psi+ share has decayed, P(n) is
    # the square of the fill's absolute rounding error, about (d eps)^2 P(0)
    assert np.all(probs[1:] <= probs[:-1] * (1.0 + 1e-12) + 1e-30 * probs[0])
    # against the oracle on the whole start: within the dropped weight,
    # plus a rounding allowance of 1e-12 P(0)
    _, oracle = full_space_trace(rho.entries, h.entries, p.tau, probe.phi_x, 2, 4, 200)
    bound = dropped_weight(rho, probe)
    assert bound > 0.0
    assert np.all(np.abs(probs - oracle) <= bound + 1e-12 * probs[0])


def set_block_steps(monkeypatch, steps, dim_a):
    """Make ``evolve`` fill and build its states in blocks of ``steps`` steps."""
    monkeypatch.setattr(engine, "_STATE_BLOCK_ELEMENTS", steps * dim_a * dim_a)


@pytest.mark.parametrize("steps", [1, 3, 16, 2048])
@pytest.mark.parametrize("kind", ["paper-product", "paper-mixed"])
def test_doubled_fill_matches_dense_reference_across_blocks(monkeypatch, kind, steps):
    # 3000 steps cross the block boundaries and every V^(2^k) up to 2^10
    rho, h, _, probe, target = factor_starts(kind)
    set_block_steps(monkeypatch, steps, probe.dim_a)
    trace = run_protocol(rho, h, 2 * np.pi, probe, 3000, target=target)
    probs, states, fids = dense_reference(rho, h, 2 * np.pi, probe, 3000, target)
    np.testing.assert_allclose(trace.success_prob, probs, rtol=1e-12, atol=0)
    np.testing.assert_allclose(trace.states, states, rtol=0, atol=1e-12)
    np.testing.assert_allclose(trace.fidelity, fids, rtol=0, atol=1e-12)


@pytest.mark.parametrize("steps", [1, 3, 16, 2048])
def test_doubled_fill_underflows_at_the_reference_step(monkeypatch, steps):
    p, h, probe = reference_setup()
    set_block_steps(monkeypatch, steps, probe.dim_a)
    with pytest.raises(ZeroProbability) as factor:
        run_protocol(paper_start("product"), h, 1.3, probe, 1600)
    assert str(factor.value).endswith("step 1514")


@pytest.mark.parametrize(
    "kind", ["paper-product", "paper-mixed", "random-full-rank", "indefinite"]
)
def test_one_step_blocks_are_the_plain_loop(monkeypatch, kind):
    # at one step a block (d^2 > _STATE_BLOCK_ELEMENTS) no power of V is formed
    monkeypatch.setattr(engine, "_STATE_BLOCK_ELEMENTS", 1)
    rho, h, tau, probe, target = factor_starts(kind)
    system = condition(rho, h, tau, probe)
    trace = evolve(system, 40, target=target)
    # C order, as in the orbit's buffer: a product with the column slice
    # ``members`` may round otherwise
    w = np.ascontiguousarray(system.members * np.sqrt(system.weights / system.p0))
    probs, states, fids = [], [], []
    for n in range(41):
        if n > 0:
            w = system.v.entries @ w
        # P = p0 |W|_F^2 and the fidelity |t^dag W|^2 / |W|_F^2, each sum
        # from the real and imaginary parts
        q = np.einsum("ij,ij->", w.real, w.real) + np.einsum("ij,ij->", w.imag, w.imag)
        tw = target.conj() @ w
        overlap = np.einsum("j,j->", tw.real, tw.real) + np.einsum("j,j->", tw.imag, tw.imag)
        m = w @ w.conj().T
        m.view(float)[...] /= np.einsum("ii->", m).real
        probs.append(system.p0 * q)
        states.append(m)
        fids.append(np.clip(overlap / q, 0.0, 1.0))
    assert np.array_equal(trace.success_prob, probs)
    assert np.array_equal(trace.states, states)
    assert np.array_equal(trace.fidelity, fids)


def rounding_bound(trace):
    """First-order rounding bound between a column taken from the factors
    and the same value taken from the states: each is a sum over d x r or
    d x d terms, and for the fidelity |S_ij| <= sqrt(S_ii S_jj) bounds
    sum |t_i S_ij t_j| by 1 (absolute; relative for P)."""
    _, d, r = trace.factors.shape
    return 4 * (d + r) * np.finfo(float).eps


@pytest.mark.parametrize("length", [1, 2, 7, 501])
def test_fidelity_column_is_fidelity_of_the_states(length):
    p, h, probe = reference_setup()
    trace = run_protocol(paper_start("mixed"), h, p.tau, probe, length - 1, target=PSI_MINUS)
    assert trace.fidelity.shape == (length,)
    bound = rounding_bound(trace)
    for n in range(length):
        assert abs(trace.fidelity[n] - fidelity(Operator(trace.states[n]), PSI_MINUS)) <= bound
        assert trace.steps[n].fidelity == trace.fidelity[n]


@pytest.mark.parametrize(
    "kind", ["paper-product", "paper-mixed", "random-full-rank", "indefinite"]
)
def test_states_are_built_once_from_the_factors(kind):
    rho, h, tau, probe, target = factor_starts(kind)
    trace = run_protocol(rho, h, tau, probe, 40, target=target)
    assert not trace.factors.flags.writeable
    states = trace.states
    assert trace.states is states
    with pytest.raises(ValueError):
        states[0, 0, 0] = 0.0
    for w, m in zip(trace.factors, states):
        ref = w @ w.conj().T
        ref.view(float)[...] /= np.einsum("ii->", ref).real
        assert np.array_equal(m, ref)


def test_evolve_keeps_no_state_stack():
    # 2 x 32, rank-2 start, 2000 steps: one (N+1) d^2 complex state stack
    # would take 2001 * 32^2 * 16 B = 32.8 MB, the factors 2001 * 32 * 2 * 16 B
    rng = np.random.default_rng(29)
    b = rng.normal(size=(32, 2)) + 1j * rng.normal(size=(32, 2))
    rho_a = b @ b.conj().T
    rho = np.kron(np.outer(RIGHT, RIGHT), rho_a / np.trace(rho_a).real)
    probe = ProbeSpec(RIGHT, 2, 32)
    system = condition(
        DensityMatrix(Operator(rho, (2, 32))), Operator(rand_hermitian(rng, 64), (2, 32)),
        0.1, probe,
    )
    tracemalloc.start()
    try:
        trace = evolve(system, 2000, target=rand_state(rng, 32))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert trace.factors.shape == (2001, 32, 2)
    assert peak < 2001 * 32 * 32 * 16 / 4


def test_non_psd_conditional_start_rejected():
    # rho_tot's eigenvalue -5e-11 passes STATE_TOL, but conditioning on a
    # probe outcome of probability 1e-3 scales it to -5e-8
    rho = DensityMatrix(Operator(np.diag([1e-3, -5e-11, 1.0 - 1e-3 + 5e-11, 0.0]), (2, 2)))
    probe = ProbeSpec(np.array([1.0, 0.0]), 2, 2)
    h = Operator(np.zeros((4, 4)), (2, 2))
    with pytest.raises(ValueError) as reference:
        condition_on_probe(rho, probe)
    with pytest.raises(ValueError) as factor:
        run_protocol(rho, h, 1.0, probe, 3)
    assert str(factor.value) == str(reference.value)
    assert "negative eigenvalue" in str(factor.value)


def test_trace_columns_are_read_only():
    p, h, probe = reference_setup()
    trace = run_protocol(paper_start("product"), h, p.tau, probe, 4)
    assert trace.fidelity is None
    assert np.all(np.isnan(trace.fidelities()))
    for col in (trace.success_prob, trace.states):
        with pytest.raises(ValueError):
            col[0] = 0.0


# ---------------------------------------------------------------------------
# spectral_report / efficiency_check


def test_spectral_report_reference_point():
    p, h, probe = reference_setup()
    v = projected_evolution(h, p.tau, probe)
    rho_a = DensityMatrix.pure(UP_DOWN, (2, 2))
    report = spectral_report(v, rho_a)
    assert report.dominant_index == 0
    assert report.dominant_unique
    assert abs(report.eigensystem.eigenvalues[0]) == pytest.approx(1.0, abs=1e-10)
    assert report.gap_ratio == pytest.approx(0.444, abs=1e-3)
    overlap = abs(np.vdot(PSI_MINUS, report.asymptotic_state)) ** 2
    assert overlap == pytest.approx(1.0, abs=1e-10)
    assert report.yield_coefficient == pytest.approx(0.5, abs=1e-10)


def test_spectral_report_identity_degenerate():
    report = spectral_report(Operator(np.eye(4, dtype=complex)))
    assert not report.dominant_unique
    assert report.asymptotic_state is None
    assert report.dominant_index == 0
    assert report.gap_ratio == pytest.approx(1.0)


def test_spectral_report_zero_operator():
    report = spectral_report(Operator(np.zeros((3, 3), dtype=complex)))
    assert report.dominant_index is None
    assert not report.dominant_unique
    with pytest.raises(NoDominantEigenvalue):
        efficiency_check(report)


def test_spectral_report_yield_needs_unique_diagonalizable_dominance():
    jordan = Operator(np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex))
    report = spectral_report(jordan, DensityMatrix.pure(np.array([1.0, 1.0])))
    assert report.yield_coefficient is None

    rho4 = DensityMatrix(Operator(np.eye(4, dtype=complex) / 4.0))
    report = spectral_report(Operator(np.eye(4, dtype=complex)), rho4)
    assert report.yield_coefficient is None

    # unique dominant eigenvalue 1, defective block at 0.5 below it: V is not
    # diagonalizable, but lambda0 is simple, so its left vector gives the yield
    # <l0|rho|l0> = 1/3, which P(N) reaches exactly from N = 50 on
    tail = np.array([[1.0, 0.0, 0.0], [0.0, 0.5, 1.0], [0.0, 0.0, 0.5]], dtype=complex)
    rho3 = DensityMatrix(Operator(np.eye(3, dtype=complex) / 3.0))
    report = spectral_report(Operator(tail), rho3)
    assert report.dominant_unique
    assert np.linalg.cond(np.linalg.eig(tail)[1]) > engine.CONDITION_LIMIT
    assert report.yield_coefficient == pytest.approx(1.0 / 3.0, rel=0.0, abs=1e-12)


def eig_inv_reference(v, rho):
    """The dominant pair and yield from a full ``eig`` and ``inv``: r0 is the
    unit right vector, l0 the first row of the inverse of the unit columns."""
    w, vr = np.linalg.eig(v)
    order = np.lexsort((-w.imag, -w.real, -np.abs(w)))
    w, vr = w[order], vr[:, order] / np.linalg.norm(vr[:, order], axis=0)
    l0 = np.linalg.inv(vr)[0]
    return vr[:, 0], float(np.real(l0 @ rho @ l0.conj())), np.linalg.cond(vr), np.abs(w)


def dominant_pair_matches(v, rho):
    """False where the reference is undefined (no unique dominance, or its
    eigenvector matrix beyond CONDITION_LIMIT); else assert the match, True."""
    report = spectral_report(Operator(v), rho)
    r_ref, yield_ref, cond_ref, mags = eig_inv_reference(v, rho.entries)
    if not report.dominant_unique or cond_ref > engine.CONDITION_LIMIT:
        return False
    s0 = report.dominant_condition
    bound = 1e-14 * s0 / (mags[0] - mags[1]) + 1e-12
    assert abs(report.yield_coefficient - yield_ref) <= bound * abs(yield_ref)
    assert 1.0 - abs(np.vdot(r_ref, report.asymptotic_state)) <= bound
    assert np.linalg.norm(report.asymptotic_state) == pytest.approx(1.0, abs=1e-14)
    return True


def conjugate_pair_operator(rng, d):
    """Real V = Q C Q^-1: C is 1, then 2 x 2 blocks r [[cos t, -sin t], [sin t,
    cos t]] with r in (0.1, 0.9) (one real r fills an even d), and Q = I +
    N(0, 1) / (2 sqrt d).  Below lambda0 = 1 the magnitudes tie in conjugate pairs."""
    core = np.diag(np.r_[1.0, np.zeros(d - 2), rng.uniform(0.1, 0.9)])
    for k in range(1, d - 1, 2):
        r, t = rng.uniform(0.1, 0.9), rng.uniform(0.0, np.pi)
        core[k : k + 2, k : k + 2] = r * np.array([[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]])
    q = np.eye(d) + rng.normal(size=(d, d)) / (2.0 * np.sqrt(d))
    return q @ core @ np.linalg.inv(q)


@pytest.mark.parametrize("d", [2, 4, 16, 64, 256])
def test_dominant_pair_matches_full_eigendecomposition(d):
    rng = np.random.default_rng(1000 + d)
    for _ in range(6 if d < 256 else 2):
        v = (rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))) / np.sqrt(2.0 * d)
        assert dominant_pair_matches(v, DensityMatrix(Operator(rand_density(rng, d))))
    if d in (64, 256):
        for _ in range(3):
            v = conjugate_pair_operator(rng, d)
            assert dominant_pair_matches(v, DensityMatrix(Operator(rand_density(rng, d))))


def test_dominant_pair_matches_full_eigendecomposition_on_model_tau_scan():
    from zenopur.model3q import build_hamiltonian, probe_spec

    p = ModelParams(omega=1.0, g=0.25, tau=1.0)
    h, probe = build_hamiltonian(p), probe_spec(p)
    rho = DensityMatrix.pure(UP_DOWN)
    taus = np.linspace(4.0 * np.pi, 0.0, 300, endpoint=False)
    compared = [dominant_pair_matches(projected_evolution(h, t, probe).entries, rho) for t in taus]
    assert sum(compared) >= 150


def test_dominant_pair_resolves_a_close_gap_under_non_normality():
    # V = R diag(lambda) R^-1 with lambda1 = 0.99 - gap just below lambda0 = 0.99
    # and R = I + c (strict upper Gaussian) / d: B's largest column and row
    # alone miss the bound on some of these draws, the inverse-iteration
    # steps meet it on all
    rng = np.random.default_rng(0)
    compared = 0
    for _ in range(100):
        d = int(rng.choice([4, 8, 16]))
        gap, c = 10.0 ** rng.uniform(-8, -3), 10.0 ** rng.uniform(0, 3)
        lam = np.empty(d, dtype=complex)
        lam[0], lam[1] = 0.99, 0.99 - gap
        phases = np.exp(2j * np.pi * rng.uniform(size=d - 2))
        lam[2:] = 0.9 * lam[1] * rng.uniform(size=d - 2) * phases
        upper = np.triu(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)), 1)
        r = np.eye(d) + c * upper / d
        v = r @ np.diag(lam) @ np.linalg.inv(r)
        compared += dominant_pair_matches(v, DensityMatrix(Operator(rand_density(rng, d))))
    assert compared >= 60


def test_dominant_pair_of_an_exact_eigenvalue():
    # lambda0 = 1 is exact in floating point: the shift keeps V - s I invertible
    rho = DensityMatrix(Operator(np.diag([0.3, 0.7]).astype(complex)))
    report = spectral_report(Operator(np.diag([1.0, 0.5]).astype(complex)), rho)
    np.testing.assert_array_equal(report.asymptotic_state, [1.0, 0.0])
    assert report.yield_coefficient == pytest.approx(0.3, rel=1e-15)
    assert report.dominant_condition == pytest.approx(1.0, rel=1e-15)


def test_nearly_defective_dominant_eigenvalue_gives_no_yield():
    v = Operator(np.array([[1.0, 1e9], [0.0, 1.0 - 1e-4]], dtype=complex))
    rho = DensityMatrix(Operator(np.eye(2, dtype=complex) / 2.0))
    report = spectral_report(v, rho)
    assert report.dominant_unique
    assert report.dominant_condition > engine.CONDITION_LIMIT
    assert report.yield_coefficient is None


def test_degenerate_dominance_has_no_dominant_condition():
    report = spectral_report(Operator(np.eye(3, dtype=complex)))
    assert report.dominant_condition is None and report.asymptotic_state is None


def test_efficiency_check_examples():
    p, h, probe = reference_setup()
    v = projected_evolution(h, p.tau, probe)
    ok, gap = efficiency_check(spectral_report(v))
    assert ok
    assert gap == pytest.approx(0.444, abs=1e-3)

    from dataclasses import replace
    from zenopur.model3q import build_hamiltonian

    p_bad = replace(p, tau=np.pi)
    v_bad = projected_evolution(build_hamiltonian(p_bad), p_bad.tau, probe)
    ok_bad, _ = efficiency_check(spectral_report(v_bad))
    assert not ok_bad

    diag = spectral_report(Operator(np.diag([0.9, 0.1]).astype(complex)))
    ok_diag, gap_diag = efficiency_check(diag)
    assert not ok_diag
    assert gap_diag == pytest.approx(1.0 / 9.0)


def test_spectral_report_dimension_mismatch():
    rho = DensityMatrix(Operator(np.eye(2, dtype=complex) / 2.0))
    with pytest.raises(DimensionMismatch):
        spectral_report(Operator(np.eye(4, dtype=complex)), rho)


# ---------------------------------------------------------------------------
# asymptotic behavior (decay of the state error and the fidelity deficit)


def _protocol_errors(n_list):
    p, h, probe = reference_setup()
    v = projected_evolution(h, p.tau, probe)
    report = spectral_report(v)
    gap = report.gap_ratio
    u0 = report.asymptotic_state
    target_mat = np.outer(u0, u0.conj())
    rho = DensityMatrix.pure(np.kron(RIGHT, UP_DOWN), (2, 2, 2))
    trace = run_protocol(rho, h, p.tau, probe, max(n_list), target=PSI_MINUS)
    state_err = {
        n: np.max(np.abs(trace.steps[n].state.entries - target_mat)) for n in n_list
    }
    fid_def = {n: 1.0 - trace.steps[n].fidelity for n in n_list}
    return gap, state_err, fid_def


def test_asymptotic_state_error_decays_at_gap_rate():
    gap, state_err, _ = _protocol_errors([10, 30])
    c = state_err[10] / gap**10
    assert state_err[30] <= 10.0 * c * gap**30


def test_fidelity_deficit_decays_at_squared_gap_rate():
    gap, _, fid_def = _protocol_errors([10, 30])
    c = fid_def[10] / gap**20
    # the 2N-rate bound at N = 30 sits below double-precision resolution
    # around F = 1, so cap the expectation at a few machine epsilons
    assert fid_def[30] <= max(10.0 * c * gap**60, 1e-14)


# ---------------------------------------------------------------------------
# invariants over random systems, probes and states


def complex_arrays(shape):
    parts = hnp.arrays(np.float64, (2,) + shape, elements=st.floats(-1.0, 1.0))
    return parts.map(lambda a: a[0] + 1j * a[1])


@st.composite
def protocol_inputs(draw):
    dim_x = draw(st.integers(1, 3))
    dim_a = draw(st.integers(1, 6))
    dim = dim_x * dim_a
    a = draw(complex_arrays((dim, dim)))
    phi = draw(complex_arrays((dim_x,)))
    assume(np.linalg.norm(phi) > 0.1)
    b = draw(complex_arrays((dim, dim)))
    # the identity share keeps the probe outcome probability away from zero
    rho = b @ b.conj().T + 1e-3 * np.eye(dim)
    tau = draw(st.floats(0.0, 5.0))
    return (
        DensityMatrix(Operator(rho / np.trace(rho).real, (dim_x, dim_a))),
        Operator((a + a.conj().T) / 2.0, (dim_x, dim_a)),
        tau,
        ProbeSpec(phi / np.linalg.norm(phi), dim_x, dim_a),
    )


@settings(max_examples=100, derandomize=True, deadline=None)
@given(protocol_inputs())
def test_protocol_invariants_over_random_inputs(inputs):
    rho, h, tau, probe = inputs
    v = projected_evolution(h, tau, probe)
    assert np.linalg.norm(v.entries, 2) <= 1.0 + 1e-12
    # V against the probe block of the full-space propagator
    u = scipy.linalg.expm(-1j * h.entries * tau)
    blocks = u.reshape(probe.dim_x, probe.dim_a, probe.dim_x, probe.dim_a)
    oracle = np.einsum("i,iajb,j->ab", probe.phi_x.conj(), blocks, probe.phi_x)
    np.testing.assert_allclose(v.entries, oracle, rtol=0, atol=1e-10)
    trace = run_protocol(rho, h, tau, probe, 8)
    p = trace.success_probabilities()
    # V is a contraction up to rounding, so P(n) may only rise by rounding
    assert np.all(p[1:] <= p[:-1] * (1.0 + 1e-12))
    for step in trace.steps:
        m = step.state.entries
        assert np.max(np.abs(m - m.conj().T)) <= 1e-10
        assert np.linalg.eigvalsh(m).min() >= -1e-10
        assert abs(np.trace(m).real - 1.0) <= 1e-10


@settings(max_examples=50, derandomize=True, deadline=None)
@given(protocol_inputs())
def test_warm_projection_equals_fresh_projection(inputs):
    _, h, tau, probe = inputs
    projected_evolution(h, tau + 1.0, probe)
    warm = projected_evolution(h, tau, probe)
    fresh = projected_evolution(Operator(h.entries.copy(), h.factors), tau, probe)
    assert np.array_equal(warm.entries, fresh.entries)


@settings(max_examples=50, derandomize=True, deadline=None)
@given(protocol_inputs())
def test_warm_conditioning_equals_fresh_conditioning(inputs):
    rho, h, tau, probe = inputs
    condition(rho, h, tau + 1.0, probe)
    warm = condition(rho, h, tau, probe)
    fresh = condition(DensityMatrix(Operator(rho.entries.copy(), rho.op.factors)), h, tau, probe)
    assert warm.p0 == fresh.p0
    for name in ("weights", "members"):
        assert np.array_equal(getattr(warm, name), getattr(fresh, name))
    assert np.array_equal(warm.v.entries, fresh.v.entries)


@settings(max_examples=100, derandomize=True, deadline=None)
@given(protocol_inputs())
def test_long_protocol_invariants_over_random_inputs(inputs):
    # 200 steps in 5-step blocks: each block is filled through V, V^2 and V^4
    rho, h, tau, probe = inputs
    with pytest.MonkeyPatch.context() as mp:
        set_block_steps(mp, 5, probe.dim_a)
        trace = run_protocol(rho, h, tau, probe, 200)
    p = trace.success_prob
    assert np.all(p[1:] <= p[:-1] * (1.0 + 1e-12))
    states = trace.states
    assert np.max(np.abs(states - states.conj().transpose(0, 2, 1))) <= 1e-10
    assert np.linalg.eigvalsh(states).min() >= -1e-10
    assert np.max(np.abs(np.einsum("nii->n", states).real - 1.0)) <= 1e-10


@settings(max_examples=100, derandomize=True, deadline=None)
@given(protocol_inputs(), st.data())
def test_protocol_matches_full_space_oracle_over_random_inputs(inputs, data):
    rho, h, tau, probe = inputs
    t = data.draw(complex_arrays((probe.dim_a,)))
    assume(np.linalg.norm(t) > 0.1)
    target = t / np.linalg.norm(t)
    trace = run_protocol(rho, h, tau, probe, 8, target=target)
    states, probs = full_space_trace(
        rho.entries, h.entries, tau, probe.phi_x, probe.dim_x, probe.dim_a, 8
    )
    bound = rounding_bound(trace)
    for step, state, prob in zip(trace.steps, states, probs):
        np.testing.assert_allclose(step.state.entries, state, rtol=0, atol=1e-10)
        np.testing.assert_allclose(step.success_prob, prob, rtol=1e-10, atol=0)
        assert abs(step.fidelity - fidelity(step.state, target)) <= bound
        assert abs(step.fidelity - np.real(target.conj() @ state @ target)) <= 1e-10


@settings(max_examples=100, derandomize=True, deadline=None)
@given(protocol_inputs())
def test_success_probability_is_the_trace_of_the_unnormalised_states(inputs):
    rho, h, tau, probe = inputs
    system = condition(rho, h, tau, probe)
    trace = evolve(system, 8)
    w = trace.factors
    unnormalised = system.p0 * np.einsum("nii->n", w @ w.conj().transpose(0, 2, 1)).real
    bound = rounding_bound(trace) * unnormalised
    assert np.all(np.abs(trace.success_prob - unnormalised) <= bound)


def check_one_ensemble(rho, h, tau, probe):
    """The sampler's members, drawn with probability lambda_k and surviving
    step n with S_k(n), give evolve's P(n) = sum_k lambda_k S_k(n)."""
    system = condition(rho, h, tau, probe)
    assert np.all(system.weights > 0.0)
    table, _ = trajectories._member_survival(system, 8)
    probs = evolve(system, 8).success_prob
    np.testing.assert_allclose(system.weights @ table, probs, rtol=1e-12, atol=0)


@settings(max_examples=100, derandomize=True, deadline=None)
@given(protocol_inputs())
def test_sampler_and_protocol_read_one_ensemble(inputs):
    check_one_ensemble(*inputs)


def test_sampler_and_protocol_read_one_ensemble_without_noise_members():
    # rho'_A carries members of weight +-1e-11 p0, inside STATE_TOL
    rho, h, tau, probe, _ = factor_starts("indefinite")
    check_one_ensemble(rho, h, tau, probe)


@settings(max_examples=100, derandomize=True, deadline=None)
@given(protocol_inputs(), st.data())
def test_evolve_on_a_conditioned_system_is_run_protocol(inputs, data):
    rho, h, tau, probe = inputs
    t = data.draw(complex_arrays((probe.dim_a,)))
    assume(np.linalg.norm(t) > 0.1)
    target = t / np.linalg.norm(t)
    system = condition(rho, h, tau, probe)
    for arr in (system.weights, system.members):
        assert not arr.flags.writeable
    trace = evolve(system, 8, target=target)
    reference = run_protocol(rho, h, tau, probe, 8, target=target)
    for col in ("success_prob", "fidelity", "states"):
        assert np.array_equal(getattr(trace, col), getattr(reference, col))
