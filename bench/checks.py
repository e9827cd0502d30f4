"""Property and oracle checks on the program's outputs.

Every check returns a list of problems, empty when the output passes, so
a run can report all that is wrong with it at once.
"""

from __future__ import annotations

import csv
import io
import json
import math

import numpy as np
from scipy.optimize import linear_sum_assignment

CONTRACTION_TOL = 1e-12
TRACE_TOL = 1e-10
SHOT_SIGMAS = 5.0


def close(name, got, want, rtol=1e-9, atol=1e-12):
    got, want = np.asarray(got), np.asarray(want)
    if got.shape != want.shape:
        return [f"{name}: shape {got.shape} != oracle {want.shape}"]
    err = np.abs(got - want)
    bad = err > atol + rtol * np.abs(want)
    if np.any(bad):
        i = tuple(int(k) for k in np.unravel_index(np.argmax(err - rtol * np.abs(want)), err.shape))
        return [f"{name}: {int(bad.sum())} entries off the oracle, worst at {i}: {got[i]} vs {want[i]}"]
    return []


def contraction(name, v):
    """sigma_max(V) <= 1 + 1e-12: V is a compression of a unitary."""
    s = float(np.linalg.norm(v, 2))
    return [] if s <= 1.0 + CONTRACTION_TOL else [f"{name}: sigma_max(V) = {s!r} > 1"]


def same_spectrum(name, got, want, atol=1e-8):
    """Eigenvalue multisets agree after the best one-to-one matching."""
    got, want = np.asarray(got, dtype=complex), np.asarray(want, dtype=complex)
    if got.shape != want.shape:
        return [f"{name}: {got.size} eigenvalues, oracle has {want.size}"]
    cost = np.abs(got[:, None] - want[None, :])
    rows, cols = linear_sum_assignment(cost)
    worst = float(cost[rows, cols].max())
    return [] if worst <= atol else [f"{name}: eigenvalues differ from the oracle by {worst:.3e}"]


def contains(name, eigenvalues, value, atol=1e-9):
    d = float(np.min(np.abs(np.asarray(eigenvalues) - value)))
    return [] if d <= atol else [f"{name}: no eigenvalue within {atol} of {value!r} (nearest {d:.3e})"]


def nonincreasing(name, p, rtol=1e-12):
    p = np.asarray(p, dtype=float)
    rise = np.nonzero(p[1:] > p[:-1] * (1.0 + rtol))[0]
    if rise.size:
        n = int(rise[0]) + 1
        return [f"{name}: P rises at n = {n}: {p[n - 1]} -> {p[n]}"]
    return []


def unit_traces(name, traces):
    dev = np.abs(np.asarray(traces) - 1.0)
    return [] if dev.max() <= TRACE_TOL else [f"{name}: conditional state trace off 1 by {dev.max():.3e}"]


def binomial(name, freq, p, shots):
    """Shot frequencies within SHOT_SIGMAS binomial sigma of the exact P(n)."""
    freq, p = np.asarray(freq, dtype=float), np.asarray(p, dtype=float)
    sigma = np.sqrt(np.clip(p * (1.0 - p), 0.0, None) / shots)
    z = np.abs(freq - p) - SHOT_SIGMAS * sigma
    bad = np.nonzero(z > 1e-12)[0]
    if bad.size:
        n = int(bad[0])
        return [f"{name}: frequency {freq[n]} at n = {n} is beyond {SHOT_SIGMAS} sigma of {p[n]}"]
    return []


def underflow_aware(name, p, log_p_oracle, log_p=None):
    """P(n) = 0.0 only where the oracle's P truly underflows; elsewhere log P agrees."""
    p = np.asarray(p, dtype=float)
    tiny = math.log(np.nextafter(0.0, 1.0))
    problems = []
    zero = p == 0.0
    if np.any(zero & (log_p_oracle > tiny + 1.0)):
        problems.append(f"{name}: P(n) = 0.0 where the oracle's log P is above underflow")
    live = ~zero
    problems += close(f"{name} log P", np.log(p[live]), log_p_oracle[live], rtol=1e-8, atol=1e-8)
    if log_p is not None:
        problems += close(f"{name} log P", log_p, log_p_oracle, rtol=1e-8, atol=1e-8)
    return problems


def parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], [[math.nan if c == "" else float(c) for c in row] for row in rows[1:]]


def cli_run(text, oracle_p, oracle_fid):
    header, rows = parse_csv(text)
    if header != ["n", "fidelity", "success_probability"]:
        return [f"cli run: header {header}"]
    a = np.array(rows)
    n = a.shape[0]
    return (
        close("cli run n", a[:, 0], np.arange(n))
        + close("cli run P", a[:, 2], oracle_p[:n], rtol=1e-9)
        + close("cli run fidelity", a[:, 1], oracle_fid[:n], rtol=0.0, atol=1e-9)
        + nonincreasing("cli run P", a[:, 2], rtol=1e-11)
    )


def cli_spectrum(text, oracle, flags=None):
    payload = json.loads(text)
    lam = np.array([complex(e["re"], e["im"]) for e in payload["eigenvalues"]])
    problems = same_spectrum("cli spectrum", lam, oracle["eigenvalues"])
    problems += close("cli spectrum gap_ratio", payload["gap_ratio"], oracle["gap_ratio"], rtol=1e-8)
    if oracle["magnitude_gap"] > 1e-8 or oracle["magnitude_gap"] < 1e-10:
        if payload["dominant_unique"] != (oracle["magnitude_gap"] > 1e-9):
            problems.append("cli spectrum: dominant_unique disagrees with the oracle")
    for key, want in (flags or {}).items():
        if payload.get(key) is not want:
            problems.append(f"cli spectrum: {key} = {payload.get(key)!r}, expected {want!r}")
    return problems


def cli_sweep(text, oracle_rows):
    header, rows = parse_csv(text)
    if header != ["value", "singlet_magnitude", "gap_ratio", "dominant_fidelity"]:
        return [f"cli sweep: header {header}"]
    if len(rows) != len(oracle_rows):
        return [f"cli sweep: {len(rows)} rows, oracle has {len(oracle_rows)}"]
    problems = []
    for row, want in zip(rows, oracle_rows):
        tag = f"cli sweep at {want['value']}"
        problems += close(tag, row[:3], [want["value"], want["singlet_magnitude"], want["gap_ratio"]], rtol=1e-9)
        if want["well_conditioned"]:
            problems += close(f"{tag} dominant_fidelity", row[3], want["dominant_fidelity"], rtol=0.0, atol=1e-8)
    return problems


def cli_shots(text, oracle_p, shots):
    header, rows = parse_csv(text)
    if header != ["n", "mc_frequency", "exact_probability", "abs_error"]:
        return [f"cli shots: header {header}"]
    a = np.array(rows)
    n = a.shape[0]
    return (
        close("cli shots exact", a[:, 2], oracle_p[:n], rtol=1e-9)
        + close("cli shots abs_error", a[:, 3], np.abs(a[:, 1] - a[:, 2]), rtol=1e-9, atol=1e-11)
        + binomial("cli shots", a[:, 1], oracle_p[:n], shots)
    )
