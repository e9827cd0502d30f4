"""Seeded inputs and the independent oracle of each benchmark workload.

Nothing here imports zenopur.  The oracle propagates with
``scipy.linalg.expm`` in the full probe (x) target space and iterates
``rho <- Pi U rho U^dag Pi`` there, so it shares no code path with the
package's eigh-based propagator or its reduced ``V`` recursion.  The
three-qubit Hamiltonian and the paper's closed forms are coded here
again rather than taken from ``zenopur.model3q``.
"""

from __future__ import annotations

import cmath
import json
import math
import os

import numpy as np
import scipy.linalg

TWO_PI = 2.0 * math.pi
INV_SQRT2 = 1.0 / math.sqrt(2.0)
RIGHT = np.array([INV_SQRT2, INV_SQRT2], dtype=complex)
PSI_MINUS = np.array([0.0, INV_SQRT2, -INV_SQRT2, 0.0], dtype=complex)

# The config block of the repository README, byte for byte.
README_CONFIG = """{
  "units": "omega",
  "system": {"kind": "model3q", "g": 0.25, "tau": 6.283185307179586},
  "initial_state": "paper-product",
  "target": "psi-minus",
  "n_steps": 10,
  "sweep": {"axis": "g", "start": 0.05, "stop": 0.45, "count": 9},
  "shots": {"shots": 10000, "seed": 42}
}
"""
README = json.loads(README_CONFIG)

# Oracle eigen-data count as well conditioned (so that the yield and the
# dominant eigenvector are meaningful) only inside these limits.
MIN_RELATIVE_GAP = 1e-6
MAX_EIGVEC_CONDITION = 1e4
MAX_BASIS_CONDITION = 1e6


# ----------------------------------------------------------------- oracle


def model3q_hamiltonian(omega: float, g: float) -> np.ndarray:
    """8 x 8 Hamiltonian of the paper's probe + two-qubit model, X (x) A (x) B."""
    i2 = np.eye(2)
    sp = np.array([[0.0, 1.0], [0.0, 0.0]])
    n = np.diag([1.0, 0.0])

    def three(a, b, c):
        return np.kron(a, np.kron(b, c))

    h = omega * (three(n, i2, i2) + three(i2, n, i2) + three(i2, i2, n))
    h = h + g * (three(sp, sp.T, i2) + three(sp.T, sp, i2))
    h = h + g * (three(sp, i2, sp.T) + three(sp.T, i2, sp))
    return h.astype(complex)


def bell_spectrum(g: float, tau: float) -> np.ndarray:
    """Closed-form spectrum of V at Omega tau = 2 pi n, equatorial probe.

    {1, cos^2 x, 1 - sin x (3 sin x +- sqrt(1 - 9 cos^2 x)) / 2}, x = g tau / sqrt 2.
    """
    x = g * tau / math.sqrt(2.0)
    s, c = math.sin(x), math.cos(x)
    root = cmath.sqrt(1.0 - 9.0 * c * c)
    return np.array(
        [1.0, c * c, 1.0 - 0.5 * s * (3.0 * s + root), 1.0 - 0.5 * s * (3.0 * s - root)],
        dtype=complex,
    )


def singlet_eigenvalue(omega: float, tau: float, alpha: complex, beta: complex) -> complex:
    """Eigenvalue of V on the singlet: e^{-i Omega tau}(|beta|^2 + |alpha|^2 e^{-i Omega tau})."""
    e = cmath.exp(-1j * omega * tau)
    return e * (abs(beta) ** 2 + abs(alpha) ** 2 * e)


def propagator(h: np.ndarray, tau: float) -> np.ndarray:
    return scipy.linalg.expm(-1j * tau * h)


def sandwich(m: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """<phi|_X m |phi>_X for m on X (x) A with dim X = len(phi)."""
    dx = phi.shape[0]
    da = m.shape[0] // dx
    return np.einsum("i,iajb,j->ab", phi.conj(), m.reshape(dx, da, dx, da), phi)


def probe_projector(phi: np.ndarray, dim_a: int) -> np.ndarray:
    return np.kron(np.outer(phi, phi.conj()), np.eye(dim_a))


def conditional_run(u, rho, phi, n_steps, target=None):
    """Full-space recursion rho <- Pi U rho U^dag Pi for n = 0 .. n_steps.

    Returns ``log P(n)``, the fidelity of each conditional target state to
    ``target`` (NaN without one) and the final conditional state.  The
    state is renormalised at every step, so ``log P`` stays finite where
    ``P`` itself underflows.
    """
    dim_a = u.shape[0] // phi.shape[0]
    proj = probe_projector(phi, dim_a)
    step = proj @ u
    r = proj @ rho @ proj
    log_p = np.empty(n_steps + 1)
    fid = np.full(n_steps + 1, math.nan)
    acc = 0.0
    for n in range(n_steps + 1):
        if n > 0:
            r = step @ r @ step.conj().T
        q = np.trace(r).real
        acc += math.log(q)
        log_p[n] = acc
        r = r / q
        if target is not None:
            fid[n] = np.real(target.conj() @ sandwich(r, phi) @ target)
    return log_p, fid, sandwich(r, phi)


def eigen_data(v: np.ndarray, rho_a: np.ndarray | None = None) -> dict:
    """numpy eigendecomposition of V with the dominance and conditioning figures."""
    w, r = np.linalg.eig(v)
    order = np.lexsort((-w.imag, -w.real, -np.abs(w)))
    w, r = w[order], r[:, order]
    r = r / np.linalg.norm(r, axis=0)
    basis_cond = float(np.linalg.cond(r))
    mags = np.abs(w)
    gap = (mags[0] - mags[1]) / mags[0] if mags.size > 1 else 1.0
    out = {
        "eigenvalues": w,
        "dominant": r[:, 0],
        "gap_ratio": float(mags[1] / mags[0]) if mags.size > 1 else 0.0,
        "magnitude_gap": float(mags[0] - mags[1]) if mags.size > 1 else math.inf,
        "well_conditioned": False,
        "yield": math.nan,
    }
    if basis_cond < MAX_BASIS_CONDITION and gap > MIN_RELATIVE_GAP:
        left = np.linalg.inv(r)[0]
        kappa = float(np.linalg.norm(left))
        out["well_conditioned"] = kappa < MAX_EIGVEC_CONDITION
        if rho_a is not None:
            out["yield"] = float(np.real(left @ rho_a @ left.conj()))
    return out


# ----------------------------------------------------------------- inputs


def _rng(seed: int, name: str) -> np.random.Generator:
    return np.random.default_rng([seed, sum(map(ord, name))])


def _child_seed(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**63))


def make_bell_paper(seed: int, work: str) -> dict:
    """The paper's model at the README point; scan grid and shot seeds from ``seed``."""
    rng = _rng(seed, "bell-paper")
    points = 300
    jitter = rng.uniform(0.0, 1.0, points)
    taus = 2.0 * TWO_PI * (np.arange(points) + 1.0 - jitter) / points
    with open(os.path.join(work, "readme.json"), "w", encoding="utf-8") as fh:
        fh.write(README_CONFIG)
    sysc = README["system"]
    up_down = np.array([0.0, 1.0, 0.0, 0.0], dtype=complex)
    down_up = np.array([0.0, 0.0, 1.0, 0.0], dtype=complex)
    rho_ab = (np.outer(up_down, up_down) + np.outer(down_up, down_up)) / 2.0
    product = np.kron(RIGHT, up_down)
    return {
        "workload": "bell-paper",
        "omega": 1.0,
        "g": sysc["g"],
        "tau": sysc["tau"],
        "alpha": INV_SQRT2,
        "beta": INV_SQRT2,
        "protocol_steps": 500,
        "scan_taus": taus.tolist(),
        "shots": 10_000,
        "shot_steps": 10,
        "shot_seed": _child_seed(rng),
        "detuned_tau": 2.2 * math.pi,
        "detuned_steps": 8000,
        "cli_config": "readme.json",
        "cli_seed": _child_seed(rng),
        "cli_commands": ["run", "spectrum", "sweep", "shots"],
        "sweep_config": "readme.json",
        "arrays": {
            "product": np.outer(product, product.conj()),
            "mixed": np.kron(np.outer(RIGHT, RIGHT.conj()), rho_ab),
            "target": PSI_MINUS,
        },
    }


def _pairs(m: np.ndarray) -> list:
    return np.stack([m.real, m.imag], axis=-1).tolist()


def make_dense_target(seed: int, work: str) -> dict:
    """Random Hermitian H on 2 x 256, equatorial probe, low-rank mixed start.

    Entries are rounded to a fixed number of decimals before anything
    uses them, so the in-process calls, the CLI config and the oracle all
    see the same numbers.
    """
    rng = _rng(seed, "dense-target")
    dim_x, dim_a, rank = 2, 256, 4
    dim = dim_x * dim_a
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    h = np.round((a + a.conj().T) / (2.0 * math.sqrt(2.0 * dim)), 10)
    b = rng.standard_normal((dim_a, rank)) + 1j * rng.standard_normal((dim_a, rank))
    rho_a = (b * rng.dirichlet(np.ones(rank))) @ b.conj().T
    # Each of the four probe blocks of |phi><phi| (x) rho_a is rho_a / 2; the
    # rounded block keeps that exact product form and its trace at 1/2.
    block = rho_a / (2.0 * np.trace(rho_a).real)
    block = np.round((block + block.conj().T) / 2.0, 12)
    block[0, 0] += 0.5 - np.trace(block).real
    rho = np.block([[block, block], [block, block]])
    target = rng.standard_normal(dim_a) + 1j * rng.standard_normal(dim_a)
    target = np.round(target / np.linalg.norm(target), 12)
    tau = 0.5
    shots, shot_steps, cli_seed = 1000, 10, _child_seed(rng)
    config = {
        "system": {
            "kind": "custom",
            "dim_x": dim_x,
            "dim_a": dim_a,
            "tau": tau,
            "hamiltonian": _pairs(h),
            "probe": RIGHT.real.tolist(),
        },
        "initial_state": _pairs(rho),
        "target": _pairs(target),
        "n_steps": shot_steps,
        "shots": {"shots": shots, "seed": cli_seed},
    }
    with open(os.path.join(work, "dense.json"), "w", encoding="utf-8") as fh:
        json.dump(config, fh)
    with open(os.path.join(work, "readme.json"), "w", encoding="utf-8") as fh:
        fh.write(README_CONFIG)
    return {
        "workload": "dense-target",
        "dim_x": dim_x,
        "dim_a": dim_a,
        "tau": tau,
        "protocol_steps": 20,
        "scan_taus": (tau * rng.uniform(0.8, 1.2, 3)).tolist(),
        "shots": shots,
        "shot_steps": shot_steps,
        "shot_seed": _child_seed(rng),
        "cli_config": "dense.json",
        "cli_seed": cli_seed,
        "cli_commands": ["run", "spectrum", "shots"],
        "sweep_config": "readme.json",
        "arrays": {"hamiltonian": h, "probe": RIGHT, "rho": rho, "target": target},
    }


MAKERS = {"bell-paper": make_bell_paper, "dense-target": make_dense_target}


def write_inputs(name: str, seed: int, work: str) -> dict:
    """Generate the workload's inputs into ``work``; return its description."""
    spec = MAKERS[name](seed, work)
    arrays = spec.pop("arrays")
    np.savez(os.path.join(work, "inputs.npz"), **arrays)
    with open(os.path.join(work, "inputs.json"), "w", encoding="utf-8") as fh:
        json.dump(spec, fh)
    spec["arrays"] = arrays
    return spec


def readme_sweep_oracle() -> dict:
    """Oracle rows of ``zenopur sweep`` on the README config."""
    sysc, sweep = README["system"], README["sweep"]
    tau = sysc["tau"]
    values = np.sort(np.linspace(sweep["start"], sweep["stop"], sweep["count"]))
    rows = []
    for g in values:
        v = sandwich(propagator(model3q_hamiltonian(1.0, g), tau), RIGHT)
        ed = eigen_data(v)
        rows.append(
            {
                "value": float(g),
                "singlet_magnitude": abs(singlet_eigenvalue(1.0, tau, INV_SQRT2, INV_SQRT2)),
                "gap_ratio": ed["gap_ratio"],
                "dominant_fidelity": abs(np.vdot(PSI_MINUS, ed["dominant"])) ** 2,
                "well_conditioned": ed["well_conditioned"],
            }
        )
    return {"rows": rows}


def oracle(spec: dict) -> dict:
    """Everything the checks compare the program against, for one workload."""
    arr = spec["arrays"]
    out = {"sweep": readme_sweep_oracle()}
    if spec["workload"] == "bell-paper":
        h = model3q_hamiltonian(spec["omega"], spec["g"])
        phi = np.array([spec["alpha"], spec["beta"]], dtype=complex)
        start, mixed = arr["product"], arr["mixed"]
        out["closed_form"] = bell_spectrum(spec["g"], spec["tau"])
        out["singlet"] = np.array(
            [singlet_eigenvalue(spec["omega"], t, spec["alpha"], spec["beta"]) for t in spec["scan_taus"]]
        )
        u_det = propagator(h, spec["detuned_tau"])
        log_p, _, final = conditional_run(u_det, start, phi, spec["detuned_steps"])
        ed = eigen_data(sandwich(u_det, phi))
        out["detuned"] = {"log_p": log_p, "final": final, **ed}
    else:
        h, phi, start = arr["hamiltonian"], arr["probe"], arr["rho"]
        mixed = start
    u = propagator(h, spec["tau"])
    v = sandwich(u, phi)
    log_p, fid, final = conditional_run(u, start, phi, spec["protocol_steps"], arr["target"])
    rho_a = sandwich(start, phi)
    rho_a = rho_a / np.trace(rho_a).real
    out["protocol"] = {"P": np.exp(log_p), "fidelity": fid, "final": final}
    out["spectrum"] = {"V": v, **eigen_data(v)}
    shot_log_p, _, _ = conditional_run(u, mixed, phi, spec["shot_steps"])
    out["shots"] = {"P": np.exp(shot_log_p)}
    out["scan"] = []
    for t in spec["scan_taus"]:
        vt = sandwich(propagator(h, t), phi)
        out["scan"].append({"V": vt, **eigen_data(vt, rho_a)})
    return out
