import cmath
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from zenopur.engine import projected_evolution, spectral_report
from zenopur.exceptions import BranchUnavailable
from zenopur.linalg import eig_general
from zenopur.model3q import (
    INV_SQRT2,
    ModelParams,
    analytic_eigenvalues,
    analytic_v_phi,
    bell_basis,
    build_hamiltonian,
    check_conditions,
    probe_spec,
    singlet_eigenvalue,
)

REF = ModelParams(omega=1.0, g=0.25, tau=2 * np.pi)


def rand_params(rng):
    theta = rng.uniform(0.0, np.pi / 2)
    pa, pb = rng.uniform(0.0, 2 * np.pi, size=2)
    return ModelParams(
        omega=rng.uniform(-2.0, 2.0),
        g=rng.uniform(-1.0, 1.0),
        tau=rng.uniform(0.0, 6.0),
        alpha=math.cos(theta) * cmath.exp(1j * pa),
        beta=math.sin(theta) * cmath.exp(1j * pb),
    )


def numeric_v(p):
    return projected_evolution(build_hamiltonian(p), p.tau, probe_spec(p))


# ---------------------------------------------------------------------------
# ModelParams / BellBasis


def test_params_normalization_enforced():
    with pytest.raises(ValueError):
        ModelParams(omega=1.0, g=0.1, tau=1.0, alpha=1.0, beta=1.0)
    with pytest.raises(ValueError):
        ModelParams(omega=1.0, g=0.25, tau=1.0, alpha=math.nan)
    ModelParams(omega=1.0, g=0.1, tau=1.0, alpha=0.6, beta=0.8j)


def test_params_store_numpy_reals_as_floats():
    p = ModelParams(omega=np.float64(1.0), g=np.float32(0.25), tau=np.int64(2))
    assert (p.omega, p.g, p.tau) == (1.0, 0.25, 2.0)
    assert {type(p.omega), type(p.g), type(p.tau)} == {float}


def test_bell_basis_orthonormal():
    basis = bell_basis()
    vecs = [basis.psi_minus, basis.psi_plus, basis.up_up, basis.down_down]
    gram = np.array([[np.vdot(a, b) for b in vecs] for a in vecs])
    np.testing.assert_allclose(gram, np.eye(4), atol=1e-12)


# ---------------------------------------------------------------------------
# build_hamiltonian


def test_hamiltonian_decoupled_diagonal_counts_excitations():
    p = ModelParams(omega=1.0, g=0.0, tau=1.0)
    h = build_hamiltonian(p).entries
    # basis index bits (X, A, B) with |up> = 0: up-spin count = 3 - popcount
    counts = [3 - bin(i).count("1") for i in range(8)]
    np.testing.assert_allclose(h, np.diag(counts).astype(complex), atol=1e-14)


def test_hamiltonian_conserves_excitation_number():
    p = ModelParams(omega=1.0, g=0.25, tau=1.0)
    h = build_hamiltonian(p).entries
    n_tot = build_hamiltonian(replace(p, omega=1.0, g=0.0)).entries
    comm = h @ n_tot - n_tot @ h
    assert np.max(np.abs(comm)) < 1e-12


def test_hamiltonian_swap_symmetric():
    swap_ab = np.zeros((8, 8))
    for x in range(2):
        for a in range(2):
            for b in range(2):
                swap_ab[x * 4 + b * 2 + a, x * 4 + a * 2 + b] = 1.0
    p = ModelParams(omega=0.7, g=0.33, tau=1.0)
    h = build_hamiltonian(p).entries
    np.testing.assert_allclose(swap_ab @ h @ swap_ab, h, atol=1e-14)


def test_hamiltonian_hermitian_with_factors():
    op = build_hamiltonian(REF)
    np.testing.assert_allclose(op.entries, op.entries.conj().T)
    assert op.factors == (2, 2, 2)


# ---------------------------------------------------------------------------
# analytic_v_phi: the module's central oracle


def test_analytic_v_matches_numeric_over_random_draws():
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(50):
        p = rand_params(rng)
        diff = np.max(np.abs(analytic_v_phi(p).entries - numeric_v(p).entries))
        worst = max(worst, diff)
    assert worst <= 1e-10


def test_analytic_v_identity_at_zero_time():
    p = ModelParams(omega=1.3, g=0.4, tau=0.0)
    np.testing.assert_allclose(analytic_v_phi(p).entries, np.eye(4), atol=1e-14)


def test_analytic_v_pole_probe_decoupled():
    # alpha = 1, beta = 0, g = 0: V diagonal, singlet entry exp(-2 i Omega tau)
    p = ModelParams(omega=0.9, g=0.0, tau=1.7, alpha=1.0, beta=0.0)
    v = analytic_v_phi(p).entries
    basis = bell_basis()
    lam = basis.psi_minus.conj() @ v @ basis.psi_minus
    np.testing.assert_allclose(lam, cmath.exp(-2j * p.omega * p.tau), atol=1e-12)
    np.testing.assert_allclose(
        v @ basis.psi_minus, lam * basis.psi_minus, atol=1e-12
    )
    # diagonal in the Bell-adapted basis: every basis vector is an eigenvector
    for vec in (basis.psi_plus, basis.up_up, basis.down_down):
        ev = vec.conj() @ v @ vec
        np.testing.assert_allclose(v @ vec, ev * vec, atol=1e-12)


def test_v_commutes_with_swap():
    rng = np.random.default_rng(103)
    swap = np.zeros((4, 4))
    for a in range(2):
        for b in range(2):
            swap[b * 2 + a, a * 2 + b] = 1.0
    for _ in range(10):
        v = analytic_v_phi(rand_params(rng)).entries
        assert np.max(np.abs(swap @ v - v @ swap)) < 1e-12


def test_singlet_is_always_an_eigenvector():
    rng = np.random.default_rng(107)
    psi_minus = bell_basis().psi_minus
    for _ in range(20):
        p = rand_params(rng)
        v = numeric_v(p).entries
        lam = singlet_eigenvalue(p)
        residual = np.linalg.norm(v @ psi_minus - lam * psi_minus)
        assert residual <= 1e-10


# ---------------------------------------------------------------------------
# analytic_eigenvalues


def test_eigenvalues_reference_point():
    ev = analytic_eigenvalues(REF)
    assert abs(ev.psi_minus) == pytest.approx(1.0, abs=1e-12)
    assert abs(ev.phi_minus) == pytest.approx(0.197, abs=1e-3)
    assert abs(ev.plus) == pytest.approx(0.444, abs=1e-3)
    assert abs(ev.minus) == pytest.approx(0.444, abs=1e-3)
    # complex branch: |lambda_pm| = |cos(g tau / sqrt(2))|
    assert abs(ev.plus) == pytest.approx(
        abs(math.cos(REF.g * REF.tau / math.sqrt(2.0))), abs=1e-12
    )


def test_eigenvalues_match_numeric_spectrum():
    for g in (0.05, 0.15, 0.25, 0.40):
        p = replace(REF, g=g)
        analytic = np.array(list(analytic_eigenvalues(p)))
        numeric = eig_general(numeric_v(p)).eigenvalues
        for lam in analytic:
            assert np.min(np.abs(numeric - lam)) <= 1e-8
        np.testing.assert_allclose(
            np.sort(np.abs(analytic)), np.sort(np.abs(numeric)), atol=1e-8
        )


def test_eigenvalues_degenerate_point():
    # g tau / sqrt(2) = pi / 2 while Omega tau = 2 pi
    p = replace(REF, g=math.pi / (math.sqrt(2.0) * REF.tau))
    ev = analytic_eigenvalues(p)
    assert ev.phi_minus == pytest.approx(0.0, abs=1e-12)
    vals = sorted((ev.plus, ev.minus), key=lambda z: z.real)
    assert vals[0] == pytest.approx(-1.0, abs=1e-12)
    assert vals[1] == pytest.approx(0.0, abs=1e-12)
    assert abs(ev.psi_minus) == pytest.approx(1.0, abs=1e-12)


def test_eigenvalues_decoupled_limit():
    p = replace(REF, g=0.0)
    ev = analytic_eigenvalues(p)
    np.testing.assert_allclose([abs(x) for x in ev], np.ones(4), atol=1e-12)


def test_eigenvalues_branch_unavailable():
    with pytest.raises(BranchUnavailable):
        analytic_eigenvalues(replace(REF, tau=np.pi))
    with pytest.raises(BranchUnavailable):
        analytic_eigenvalues(replace(REF, alpha=1.0, beta=0.0))
    # singlet eigenvalue still has a closed form off the branch
    lam = singlet_eigenvalue(replace(REF, tau=np.pi))
    assert abs(lam) == pytest.approx(0.0, abs=1e-12)


# ---------------------------------------------------------------------------
# check_conditions


def test_conditions_reference_point():
    assert check_conditions(REF) == (True, True, True)


def test_conditions_pole_probe():
    flags = check_conditions(replace(REF, alpha=1.0, beta=0.0))
    assert flags.tuning_ok and not flags.probe_ok


def test_conditions_coupling_boundary():
    p = replace(REF, g=math.pi / (math.sqrt(2.0) * REF.tau))
    flags = check_conditions(p)
    assert flags.tuning_ok and flags.probe_ok and not flags.coupling_ok
    assert not check_conditions(replace(REF, g=0.0)).coupling_ok


def test_conditions_tau_zero_excluded():
    flags = check_conditions(replace(REF, tau=0.0))
    assert not flags.tuning_ok


def test_conditions_detuned():
    assert not check_conditions(replace(REF, tau=np.pi)).tuning_ok


# ---------------------------------------------------------------------------
# conditions imply clean dominance


def test_conditions_imply_singlet_dominance():
    rng = np.random.default_rng(109)
    psi_minus = bell_basis().psi_minus
    for _ in range(10):
        n = int(rng.integers(1, 4))
        omega = rng.uniform(0.5, 2.0)
        tau = 2 * np.pi * n / omega
        g = rng.uniform(0.05, 0.45) * omega
        p = ModelParams(omega=omega, g=g, tau=tau)
        flags = check_conditions(p)
        if not all(flags):
            continue
        report = spectral_report(numeric_v(p))
        assert report.dominant_unique
        overlap = abs(np.vdot(psi_minus, report.asymptotic_state)) ** 2
        assert overlap >= 1.0 - 1e-9


# ---------------------------------------------------------------------------
# closed forms against the numerics over random parameters


@st.composite
def model_params(draw):
    theta = draw(st.floats(0.0, math.pi / 2))
    pa, pb = draw(st.floats(0.0, 2 * math.pi)), draw(st.floats(0.0, 2 * math.pi))
    return ModelParams(
        omega=draw(st.floats(-2.0, 2.0)),
        g=draw(st.floats(-1.0, 1.0)),
        tau=draw(st.floats(0.0, 6.0)),
        alpha=math.cos(theta) * cmath.exp(1j * pa),
        beta=math.sin(theta) * cmath.exp(1j * pb),
    )


@settings(max_examples=100, derandomize=True, deadline=None)
@given(model_params())
def test_closed_forms_match_numerics_over_random_params(p):
    v = numeric_v(p).entries
    np.testing.assert_allclose(analytic_v_phi(p).entries, v, rtol=0, atol=1e-10)
    psi_minus = bell_basis().psi_minus
    residual = v @ psi_minus - singlet_eigenvalue(p) * psi_minus
    assert np.linalg.norm(residual) <= 1e-10


@settings(max_examples=100, derandomize=True, deadline=None)
@given(
    st.floats(0.2, 2.0), st.sampled_from([-1.0, 1.0]), st.floats(-1.0, 1.0), st.integers(1, 3)
)
def test_analytic_spectrum_matches_numerics_on_tuned_branch(omega, sign, g, periods):
    p = ModelParams(omega=sign * omega, g=g, tau=2 * math.pi * periods / omega)
    analytic = np.array(list(analytic_eigenvalues(p)))
    # a near-coincident pair is ill-conditioned (a Jordan block in the
    # limit), so numeric eigenvalues there are only good to sqrt(eps)
    gaps = np.abs(analytic[:, None] - analytic[None, :]) + np.eye(4)
    assume(gaps.min() > 1e-3)
    numeric = eig_general(numeric_v(p)).eigenvalues
    dist = np.abs(analytic[:, None] - numeric[None, :])
    assert dist.min(axis=1).max() <= 1e-8
    assert dist.min(axis=0).max() <= 1e-8
