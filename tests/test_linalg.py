import numpy as np
import pytest

from zenopur.exceptions import ConvergenceFailure, NonHermitianInput
from zenopur.linalg import (
    Eigensystem,
    Operator,
    eig_general,
    matrix_exponential,
)


# ---------------------------------------------------------------------------
# independent oracle: scaling-and-squaring Taylor series for exp(M)


def expm_taylor(m):
    norm = np.linalg.norm(m, np.inf)
    k = max(0, int(np.ceil(np.log2(norm))) + 1) if norm > 0 else 0
    small = m / (2.0**k)
    result = np.eye(m.shape[0], dtype=complex)
    term = np.eye(m.shape[0], dtype=complex)
    for j in range(1, 40):
        term = term @ small / j
        result = result + term
        if np.linalg.norm(term, np.inf) < 1e-18:
            break
    for _ in range(k):
        result = result @ result
    return result


def rand_hermitian(rng, dim, scale=1.0):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return scale * (a + a.conj().T) / 2.0


def test_expm_taylor_oracle_sanity():
    # oracle must reproduce a hand-computable case: exp(i pi sigma_y / 2) = i sigma_y
    sy = np.array([[0.0, -1j], [1j, 0.0]])
    got = expm_taylor(1j * (np.pi / 2) * sy)
    want = np.array([[0.0, 1.0], [-1.0, 0.0]], dtype=complex)
    np.testing.assert_allclose(got, want, atol=1e-12)


# ---------------------------------------------------------------------------
# Operator


def test_operator_validation():
    with pytest.raises(ValueError):
        Operator(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        Operator(np.array([[np.inf, 0], [0, 1]]))
    with pytest.raises(ValueError):
        Operator(np.eye(6), (2, 2))
    op = Operator(np.eye(6), (2, 3))
    assert op.dim == 6
    assert op.factors == (2, 3)


@pytest.mark.parametrize(
    "dim, factors", [(4, (2.7, 2)), (4, (2.0, 2)), (2, (True, 2)), (4, ("2", 2))]
)
def test_operator_factors_take_only_integers(dim, factors):
    # (2.7, 2) used to become (2, 2), and True to run as 1
    with pytest.raises(ValueError, match="factors must be an integer"):
        Operator(np.eye(dim), factors)


def test_operator_stores_numpy_integer_factors_as_ints():
    op = Operator(np.eye(6), (np.int32(2), np.int64(3)))
    assert op.factors == (2, 3)
    assert {type(f) for f in op.factors} == {int}


def test_operator_default_factors_and_immutability():
    op = Operator(np.eye(3))
    assert op.factors == (3,)
    with pytest.raises(ValueError):
        op.entries[0, 0] = 2.0


# ---------------------------------------------------------------------------
# matrix_exponential


def test_matrix_exponential_zero_time():
    rng = np.random.default_rng(2)
    h = Operator(rand_hermitian(rng, 5))
    np.testing.assert_allclose(matrix_exponential(h, 0.0).entries, np.eye(5), atol=1e-14)


def test_matrix_exponential_phase_convention():
    # exp(-i h t) with h = diag(0, 1), t = pi flips the sign of the excited state
    h = Operator(np.diag([0.0, 1.0]).astype(complex))
    u = matrix_exponential(h, np.pi).entries
    np.testing.assert_allclose(u, np.diag([1.0, -1.0]), atol=1e-14)


def test_matrix_exponential_against_taylor_oracle():
    rng = np.random.default_rng(31)
    for _ in range(50):
        dim = int(rng.integers(2, 9))
        h = rand_hermitian(rng, dim, scale=rng.uniform(0.1, 3.0))
        t = rng.uniform(0.0, 5.0)
        got = matrix_exponential(Operator(h), t).entries
        want = expm_taylor(-1j * h * t)
        np.testing.assert_allclose(got, want, atol=1e-8)


def test_matrix_exponential_unitarity():
    rng = np.random.default_rng(7)
    h = Operator(rand_hermitian(rng, 8, scale=4.0))
    u = matrix_exponential(h, 17.3).entries
    np.testing.assert_allclose(u @ u.conj().T, np.eye(8), atol=1e-12)


def test_matrix_exponential_rejects_non_hermitian():
    m = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    with pytest.raises(NonHermitianInput):
        matrix_exponential(Operator(m), 1.0)


def test_matrix_exponential_accepts_tiny_asymmetry():
    h = np.array([[1.0, 1e-12j], [0.0, 2.0]], dtype=complex)
    matrix_exponential(Operator(h), 1.0)


# ---------------------------------------------------------------------------
# hermitian_spectrum: computed once per Operator, read-only, never stale


def test_hermitian_spectrum_reconstructs_entries():
    rng = np.random.default_rng(41)
    h = Operator(rand_hermitian(rng, 6))
    w, q = h.hermitian_spectrum
    assert np.all(np.diff(w) >= 0)
    np.testing.assert_allclose(q.conj().T @ q, np.eye(6), atol=1e-12)
    np.testing.assert_allclose((q * w) @ q.conj().T, h.entries, atol=1e-12)


def test_matrix_exponential_diagonalizes_once_per_operator(monkeypatch):
    rng = np.random.default_rng(43)
    h = Operator(rand_hermitian(rng, 6))
    calls = []
    original = np.linalg.eigh

    def counted(m, *args, **kwargs):
        calls.append(1)
        return original(m, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    u1 = matrix_exponential(h, 0.4).entries
    u2 = matrix_exponential(h, 0.4).entries
    matrix_exponential(h, 2.5)
    assert len(calls) == 1
    np.testing.assert_array_equal(u1, u2)
    # an equal but distinct Operator has its own cache
    matrix_exponential(Operator(h.entries), 0.4)
    assert len(calls) == 2


def test_hermitian_spectrum_is_read_only():
    rng = np.random.default_rng(47)
    w, q = Operator(rand_hermitian(rng, 4)).hermitian_spectrum
    with pytest.raises(ValueError):
        w[0] = 0.0
    with pytest.raises(ValueError):
        q[0, 0] = 0.0


def test_non_hermitian_spectrum_raises_on_every_access():
    op = Operator(np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex))
    for _ in range(2):
        with pytest.raises(NonHermitianInput):
            op.hermitian_spectrum
        with pytest.raises(NonHermitianInput):
            matrix_exponential(op, 1.0)


# ---------------------------------------------------------------------------
# eig_general


def test_eig_sorting_order():
    vals = [0.5, -1.0, 1j, -1j, 0.9]
    es = eig_general(Operator(np.diag(vals).astype(complex)))
    want = np.array([1j, -1j, -1.0, 0.9, 0.5])
    np.testing.assert_allclose(es.eigenvalues, want, atol=1e-12)


def test_eig_biorthonormal_and_reconstruction():
    rng = np.random.default_rng(13)
    for _ in range(20):
        dim = int(rng.integers(2, 7))
        m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        es = eig_general(Operator(m))
        assert es.diagonalizable
        np.testing.assert_allclose(
            np.linalg.norm(es.right_vectors, axis=0), np.ones(dim), atol=1e-12
        )
        np.testing.assert_allclose(
            es.left_vectors @ es.right_vectors, np.eye(dim), atol=1e-10
        )
        rebuilt = (es.right_vectors * es.eigenvalues) @ es.left_vectors
        np.testing.assert_allclose(rebuilt, m, atol=1e-10)


def test_eig_spectral_power_matches_repeated_multiplication():
    rng = np.random.default_rng(17)
    m = 0.9 * (rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))) / np.sqrt(5)
    es = eig_general(Operator(m))
    for n in (1, 5, 12, 30):
        spectral = (es.right_vectors * es.eigenvalues**n) @ es.left_vectors
        direct = np.linalg.matrix_power(m, n)
        np.testing.assert_allclose(spectral, direct, atol=1e-10)


def test_eig_jordan_block_flagged():
    j = np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex)
    es = eig_general(Operator(j))
    assert not es.diagonalizable
    assert es.left_vectors is None
    np.testing.assert_allclose(es.eigenvalues, [1.0, 1.0], atol=1e-7)


def test_eig_degenerate_but_diagonalizable():
    es = eig_general(Operator(np.eye(3, dtype=complex)))
    assert es.diagonalizable
    np.testing.assert_allclose(es.eigenvalues, np.ones(3))
    np.testing.assert_allclose(
        es.left_vectors @ es.right_vectors, np.eye(3), atol=1e-12
    )


def test_eig_convergence_failure_surfaces(monkeypatch):
    def boom(*args, **kwargs):
        raise np.linalg.LinAlgError("did not converge")

    monkeypatch.setattr(np.linalg, "eig", boom)
    with pytest.raises(ConvergenceFailure):
        eig_general(Operator(np.eye(2, dtype=complex)))


def test_eigensystem_shape_validation():
    with pytest.raises(ValueError):
        Eigensystem(np.ones(2), np.eye(3), np.eye(2), True)
