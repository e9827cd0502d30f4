import cmath
import json
import math
import subprocess
import sys
import time
import tracemalloc
from argparse import Namespace
from pathlib import Path

import numpy as np
import pytest

from zenopur import cli, engine
from zenopur.cli import load_config, main
from zenopur.engine import projected_evolution, spectral_report
from zenopur.model3q import ModelParams, bell_basis, probe_spec, singlet_eigenvalue

TAU = 2 * math.pi
GOLDEN = Path(__file__).parent / "golden"


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def model_config(**overrides):
    cfg = {
        "units": "omega",
        "system": {"kind": "model3q", "g": 0.25, "tau": TAU},
        "initial_state": "paper-product",
        "target": "psi-minus",
        "n_steps": 10,
    }
    cfg.update(overrides)
    return cfg


def run_cli(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


# in-test oracle for the sweep: the closed-form spectrum at tuned tau
def triplet_gap(g, tau):
    x = g * tau / math.sqrt(2.0)
    sx, cx = math.sin(x), math.cos(x)
    root = cmath.sqrt(1.0 - 9.0 * cx * cx)
    lams = (cx * cx, 1.0 - 0.5 * sx * (3.0 * sx + root), 1.0 - 0.5 * sx * (3.0 * sx - root))
    return max(abs(lam) for lam in lams)


# ---------------------------------------------------------------------------
# run


def test_run_product_preset(tmp_path, capsys):
    cfg = write_config(tmp_path, "run.json", model_config())
    code, out, err = run_cli(capsys, ["run", "--config", cfg])
    assert code == 0 and err == ""
    lines = out.strip().split("\n")
    assert lines[0] == "n,fidelity,success_probability"
    assert len(lines) == 12
    rows = [line.split(",") for line in lines[1:]]
    assert [int(r[0]) for r in rows] == list(range(11))
    final_fid = float(rows[10][1])
    final_p = float(rows[10][2])
    assert final_fid >= 0.9999
    assert final_p == pytest.approx(0.5, abs=1e-3)
    assert float(rows[0][1]) == pytest.approx(0.5)


def test_run_zero_steps(tmp_path, capsys):
    cfg = write_config(tmp_path, "run0.json", model_config(n_steps=0))
    code, out, _ = run_cli(capsys, ["run", "--config", cfg])
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 2
    assert float(lines[1].split(",")[1]) == pytest.approx(0.5)


def test_run_twelve_digit_format(tmp_path, capsys):
    cfg = write_config(tmp_path, "run.json", model_config(n_steps=3))
    _, out, _ = run_cli(capsys, ["run", "--config", cfg])
    row1 = out.strip().split("\n")[2].split(",")
    assert row1[1] == "0.594023118366"
    assert row1[2] == "0.841718082245"


def test_run_mixed_equals_product_fidelity(tmp_path, capsys):
    cfg_p = write_config(tmp_path, "p.json", model_config())
    cfg_m = write_config(tmp_path, "m.json", model_config(initial_state="paper-mixed"))
    _, out_p, _ = run_cli(capsys, ["run", "--config", cfg_p])
    _, out_m, _ = run_cli(capsys, ["run", "--config", cfg_m])
    fid_p = [float(r.split(",")[1]) for r in out_p.strip().split("\n")[1:]]
    fid_m = [float(r.split(",")[1]) for r in out_m.strip().split("\n")[1:]]
    np.testing.assert_allclose(fid_p, fid_m, atol=1e-9)


def test_run_writes_file_and_reruns_identically(tmp_path, capsys):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    cfg = write_config(tmp_path, "run.json", model_config())
    assert main(["run", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["run", "--config", cfg, "--out", str(out2)]) == 0
    capsys.readouterr()
    assert out1.read_bytes() == out2.read_bytes()
    assert out1.read_bytes().endswith(b"\n")
    assert b"\r" not in out1.read_bytes()


def test_run_output_path_from_config(tmp_path, capsys):
    dest = tmp_path / "trace.csv"
    cfg = write_config(
        tmp_path, "run.json", model_config(output={"path": str(dest), "format": "csv"})
    )
    code, out, _ = run_cli(capsys, ["run", "--config", cfg])
    assert code == 0 and out == ""
    assert dest.read_text().startswith("n,fidelity,success_probability\n")


def test_run_steps_override(tmp_path, capsys):
    cfg = write_config(tmp_path, "run.json", model_config())
    _, out, _ = run_cli(capsys, ["run", "--config", cfg, "--steps", "2"])
    assert len(out.strip().split("\n")) == 4


def test_run_custom_system(tmp_path, capsys):
    # X flip-flopped with a single target qubit: H = g (s+ s- + s- s+)
    g = 0.3
    h = np.zeros((4, 4))
    h[1, 2] = h[2, 1] = g
    payload = {
        "system": {
            "kind": "custom",
            "dim_x": 2,
            "dim_a": 2,
            "tau": 1.0,
            "hamiltonian": [[[v, 0.0] for v in row] for row in h.tolist()],
            "probe": [[1.0, 0.0], [0.0, 0.0]],
        },
        "initial_state": [
            [[0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]],
            [[0.0, 0.0], [1.0, 0.0], [0.0, 0.0], [0.0, 0.0]],
            [[0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]],
            [[0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]],
        ],
        "n_steps": 3,
    }
    cfg = write_config(tmp_path, "custom.json", payload)
    code, out, err = run_cli(capsys, ["run", "--config", cfg])
    assert code == 0, err
    rows = [r.split(",") for r in out.strip().split("\n")[1:]]
    # survival decays by cos(g tau)^2 per step: P(n) = cos(0.3)^(2n)
    for n, row in enumerate(rows):
        assert row[1] == ""
        assert float(row[2]) == pytest.approx(math.cos(g) ** (2 * n), abs=1e-10)


def test_run_custom_system_has_no_default_target(tmp_path, capsys):
    # a 4-dim target space of a custom system is not the model's A (x) B,
    # so no singlet is assumed and the fidelity column stays blank
    rng = np.random.default_rng(11)
    a = rng.standard_normal((4, 4))
    payload = {
        "system": {
            "kind": "custom",
            "dim_x": 1,
            "dim_a": 4,
            "tau": 0.7,
            "hamiltonian": ((a + a.T) / 2.0).tolist(),
            "probe": [1],
        },
        "initial_state": np.diag([0.4, 0.3, 0.2, 0.1]).tolist(),
        "n_steps": 2,
    }
    cfg = write_config(tmp_path, "custom4.json", payload)
    code, out, err = run_cli(capsys, ["run", "--config", cfg])
    assert code == 0, err
    rows = [r.split(",") for r in out.strip().split("\n")[1:]]
    assert len(rows) == 3
    assert [row[1] for row in rows] == ["", "", ""]


def test_run_model_target_defaults_to_singlet(tmp_path, capsys):
    payload = json.loads((GOLDEN / "readme.json").read_text(encoding="utf-8"))
    del payload["target"]
    cfg = write_config(tmp_path, "no_target.json", payload)
    code, out, _ = run_cli(capsys, ["run", "--config", cfg])
    assert code == 0
    assert out == (GOLDEN / "run.csv").read_text(encoding="utf-8")


@pytest.mark.parametrize(
    "field, nulled",
    [("target", {"target": None}), ("output.path", {"output": {"path": None}})],
    ids=["target", "output.path"],
)
def test_null_field_is_config_error(tmp_path, capsys, field, nulled):
    # a JSON null is neither the field's default nor "absent"
    payload = json.loads((GOLDEN / "readme.json").read_text(encoding="utf-8"))
    payload.update(nulled)
    cfg = write_config(tmp_path, "null.json", payload)
    code, out, err = run_cli(capsys, ["run", "--config", cfg])
    assert code == 1 and out == ""
    assert f"config error: {field}: " in err
    assert "Traceback" not in err


# ---------------------------------------------------------------------------
# spectrum


def test_spectrum_reference_config(tmp_path, capsys):
    cfg = write_config(tmp_path, "spec.json", model_config())
    code, out, _ = run_cli(capsys, ["spectrum", "--config", cfg])
    assert code == 0
    payload = json.loads(out)
    assert list(payload.keys()) == [
        "eigenvalues",
        "dominant_index",
        "dominant_unique",
        "gap_ratio",
        "tuning_ok",
        "probe_ok",
        "coupling_ok",
    ]
    mags = [e["magnitude"] for e in payload["eigenvalues"]]
    np.testing.assert_allclose(mags, [1.0, 0.444, 0.444, 0.197], atol=1e-3)
    assert mags == sorted(mags, reverse=True)
    assert payload["dominant_index"] == 0
    assert payload["dominant_unique"] is True
    assert payload["gap_ratio"] == pytest.approx(0.444, abs=1e-3)
    assert payload["tuning_ok"] and payload["probe_ok"] and payload["coupling_ok"]
    for entry in payload["eigenvalues"]:
        assert list(entry.keys()) == ["re", "im", "magnitude"]


def test_spectrum_decoupled(tmp_path, capsys):
    payload = model_config()
    payload["system"]["g"] = 0.0
    cfg = write_config(tmp_path, "spec.json", payload)
    _, out, _ = run_cli(capsys, ["spectrum", "--config", cfg])
    report = json.loads(out)
    mags = [e["magnitude"] for e in report["eigenvalues"]]
    np.testing.assert_allclose(mags, np.ones(4), atol=1e-9)
    assert report["dominant_unique"] is False
    assert report["coupling_ok"] is False


def test_spectrum_degenerate_coupling(tmp_path, capsys):
    payload = model_config()
    payload["system"]["g"] = math.pi / (math.sqrt(2.0) * TAU)
    cfg = write_config(tmp_path, "spec.json", payload)
    _, out, _ = run_cli(capsys, ["spectrum", "--config", cfg])
    report = json.loads(out)
    assert report["dominant_unique"] is False
    assert report["coupling_ok"] is False
    assert report["tuning_ok"] is True


def test_spectrum_custom_system_has_no_flags(tmp_path, capsys):
    payload = {
        "system": {
            "kind": "custom",
            "dim_x": 2,
            "dim_a": 2,
            "tau": 1.0,
            "hamiltonian": [[0.0] * 4 for _ in range(4)],
            "probe": [1.0, 0.0],
        }
    }
    cfg = write_config(tmp_path, "spec.json", payload)
    _, out, _ = run_cli(capsys, ["spectrum", "--config", cfg])
    report = json.loads(out)
    assert list(report.keys()) == [
        "eigenvalues",
        "dominant_index",
        "dominant_unique",
        "gap_ratio",
    ]


# ---------------------------------------------------------------------------
# sweep


def sweep_rows(out):
    """CSV body of a sweep as floats; a blank field reads as NaN."""
    lines = out.strip().split("\n")[1:]
    return [[float(x) if x else math.nan for x in line.split(",")] for line in lines]


def test_sweep_g_matches_closed_form_oracle(tmp_path, capsys):
    payload = model_config()
    payload["sweep"] = {"axis": "g", "start": 0.05, "stop": 0.45, "count": 9}
    cfg = write_config(tmp_path, "sweep.json", payload)
    code, out, _ = run_cli(capsys, ["sweep", "--config", cfg])
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "value,singlet_magnitude,gap_ratio,dominant_fidelity"
    rows = [[float(x) for x in line.split(",")] for line in lines[1:]]
    assert len(rows) == 9
    values = [r[0] for r in rows]
    np.testing.assert_allclose(values, np.linspace(0.05, 0.45, 9), atol=1e-12)
    for value, singlet, gap, fid in rows:
        assert singlet == pytest.approx(1.0, abs=1e-9)
        assert gap == pytest.approx(triplet_gap(value, TAU), abs=1e-9)
        assert fid == pytest.approx(1.0, abs=1e-9)
    gaps = [r[2] for r in rows]
    # interior dip at g = 0.25 next to the near-degenerate point g ~ 0.354,
    # and the grid minimum sits at the right edge (g = 0.45)
    assert gaps[4] < gaps[3] and gaps[4] < gaps[5]
    assert int(np.argmin(gaps)) == 8


def test_sweep_tau_singlet_pattern(tmp_path, capsys):
    payload = model_config()
    payload["sweep"] = {"axis": "tau", "start": math.pi, "stop": TAU, "count": 2}
    cfg = write_config(tmp_path, "sweep.json", payload)
    _, out, _ = run_cli(capsys, ["sweep", "--config", cfg])
    rows = sweep_rows(out)
    assert rows[0][1] == pytest.approx(0.0, abs=1e-12)
    assert rows[1][1] == pytest.approx(1.0, abs=1e-12)
    assert rows[0][0] < rows[1][0]
    # at tau = pi the two largest eigenvalues are a conjugate pair of equal
    # magnitude, so no dominant eigenvector exists to take a fidelity from
    assert math.isnan(rows[0][3])
    assert rows[1][3] == pytest.approx(1.0, abs=1e-9)


def test_sweep_degenerate_dominance_leaves_fidelity_blank(tmp_path, capsys):
    payload = model_config()
    payload["sweep"] = {"axis": "tau", "start": 0.0, "stop": TAU, "count": 3}
    cfg = write_config(tmp_path, "sweep.json", payload)
    code, out, _ = run_cli(capsys, ["sweep", "--config", cfg])
    assert code == 0
    first = out.strip().split("\n")[1].split(",")
    # tau = 0 gives V = 1: every eigenvalue has magnitude 1
    assert first[2] == "1"
    assert first[3] == ""


def test_tau_sweep_builds_hamiltonian_once(tmp_path, capsys, monkeypatch):
    # H depends on neither tau nor the probe angle: one build for either axis
    original = cli.build_hamiltonian
    base = ModelParams(omega=1.0, g=0.25, tau=TAU)
    psi_minus = bell_basis().psi_minus
    for axis, start, stop in (("tau", 1.0, TAU), ("alpha-angle", 0.1, 1.4)):
        payload = model_config()
        payload["sweep"] = {"axis": axis, "start": start, "stop": stop, "count": 5}
        cfg = write_config(tmp_path, "sweep.json", payload)
        calls = []

        def counted(params):
            calls.append(params)
            return original(params)

        monkeypatch.setattr(cli, "build_hamiltonian", counted)
        code, out, _ = run_cli(capsys, ["sweep", "--config", cfg])
        assert code == 0
        assert len(calls) == 1
        # the same rows from a fresh Hamiltonian and probe at every point
        lines = [cli.SWEEP_HEADER]
        for value in np.sort(np.linspace(start, stop, 5)):
            params = cli._sweep_params(base, axis, float(value))
            v = projected_evolution(original(params), params.tau, probe_spec(params))
            report = spectral_report(v)
            u0 = report.asymptotic_state
            fid = "" if u0 is None else cli._fmt(abs(np.vdot(psi_minus, u0)) ** 2)
            singlet = abs(singlet_eigenvalue(params))
            lines.append(",".join(cli._fmt(x) for x in (value, singlet, report.gap_ratio)) + "," + fid)
        assert out == "\n".join(lines) + "\n"


def test_sweep_alpha_angle(tmp_path, capsys):
    payload = model_config()
    payload["sweep"] = {"axis": "alpha-angle", "start": 0.1, "stop": np.pi / 2 - 0.1, "count": 5}
    cfg = write_config(tmp_path, "sweep.json", payload)
    code, out, _ = run_cli(capsys, ["sweep", "--config", cfg])
    assert code == 0
    rows = [[float(x) for x in r.split(",")] for r in out.strip().split("\n")[1:]]
    for value, singlet, gap, fid in rows:
        # tuned tau keeps the singlet on the unit circle for any probe angle
        assert singlet == pytest.approx(1.0, abs=1e-9)
        assert fid == pytest.approx(1.0, abs=1e-9)


def test_sweep_count_one_rejected(tmp_path, capsys):
    payload = model_config()
    payload["sweep"] = {"axis": "g", "start": 0.1, "stop": 0.4, "count": 1}
    cfg = write_config(tmp_path, "sweep.json", payload)
    code, _, err = run_cli(capsys, ["sweep", "--config", cfg])
    assert code == 1
    assert "sweep.count" in err


def test_sweep_needs_model3q(tmp_path, capsys):
    payload = {
        "system": {
            "kind": "custom",
            "dim_x": 2,
            "dim_a": 2,
            "tau": 1.0,
            "hamiltonian": [[0.0] * 4 for _ in range(4)],
            "probe": [1.0, 0.0],
        },
        "sweep": {"axis": "g", "start": 0.1, "stop": 0.4, "count": 3},
    }
    cfg = write_config(tmp_path, "sweep.json", payload)
    code, _, err = run_cli(capsys, ["sweep", "--config", cfg])
    assert code == 1
    assert "sweep.axis" in err


# ---------------------------------------------------------------------------
# shots


def test_shots_agreement(tmp_path, capsys):
    payload = model_config(n_steps=5)
    payload["shots"] = {"shots": 10_000, "seed": 42}
    cfg = write_config(tmp_path, "shots.json", payload)
    code, out, _ = run_cli(capsys, ["shots", "--config", cfg])
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "n,mc_frequency,exact_probability,abs_error"
    rows = [[float(x) for x in r.split(",")] for r in lines[1:]]
    assert len(rows) == 6
    assert rows[5][3] < 0.02
    # abs_error is the difference of the printed columns, so no noise digits
    for line, row in zip(lines[1:], rows):
        assert line.split(",")[3] == format(abs(row[1] - row[2]), ".12g")


def test_shots_single_shot_undisturbed(tmp_path, capsys):
    payload = {
        "system": {
            "kind": "custom",
            "dim_x": 2,
            "dim_a": 2,
            "tau": 1.0,
            "hamiltonian": [[0.0] * 4 for _ in range(4)],
            "probe": [1.0, 0.0],
        },
        "initial_state": [
            [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]],
            [[0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]],
            [[0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]],
            [[0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]],
        ],
        "n_steps": 4,
        "shots": {"shots": 1, "seed": 11},
    }
    cfg = write_config(tmp_path, "shots.json", payload)
    code, out, _ = run_cli(capsys, ["shots", "--config", cfg])
    assert code == 0
    rows = [r.split(",") for r in out.strip().split("\n")[1:]]
    assert all(float(r[1]) == 1.0 for r in rows)


def test_shots_deterministic_files(tmp_path, capsys):
    payload = model_config(n_steps=4)
    cfg = write_config(tmp_path, "shots.json", payload)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["shots", "--config", cfg, "--seed", "7", "--shots", "2000", "--out", str(a)]) == 0
    assert main(["shots", "--config", cfg, "--seed", "7", "--shots", "2000", "--out", str(b)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


def test_shots_seed_override_changes_output(tmp_path, capsys):
    payload = model_config(n_steps=4)
    payload["shots"] = {"shots": 2000, "seed": 1}
    cfg = write_config(tmp_path, "shots.json", payload)
    _, out1, _ = run_cli(capsys, ["shots", "--config", cfg])
    _, out2, _ = run_cli(capsys, ["shots", "--config", cfg, "--seed", "2"])
    assert out1 != out2


# ---------------------------------------------------------------------------
# config validation and exit codes


def test_missing_field_reported(tmp_path, capsys):
    cfg = write_config(tmp_path, "bad.json", {"system": {"kind": "model3q", "g": 0.1}})
    code, _, err = run_cli(capsys, ["run", "--config", cfg])
    assert code == 1
    assert "config error" in err and "system.omega" in err


def test_invalid_json_reported(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    code, _, err = run_cli(capsys, ["run", "--config", str(path)])
    assert code == 1
    assert "invalid JSON" in err


def test_missing_file_reported(capsys):
    code, _, err = run_cli(capsys, ["run", "--config", "/nonexistent/cfg.json"])
    assert code == 1
    assert "cannot read" in err


def test_undecodable_config_reported(tmp_path, capsys):
    path = tmp_path / "latin.json"
    path.write_bytes(b"\xff\xfe{}")
    code, out, err = run_cli(capsys, ["run", "--config", str(path)])
    assert code == 1 and out == ""
    assert err.startswith(f"config error: config: cannot read {path}: ")
    assert "Traceback" not in err and err.count("\n") == 1


def test_units_omega_rejects_other_frequency(tmp_path, capsys):
    payload = model_config()
    payload["system"]["omega"] = 2.0
    cfg = write_config(tmp_path, "bad.json", payload)
    code, _, err = run_cli(capsys, ["run", "--config", cfg])
    assert code == 1
    assert "system.omega" in err


def test_bad_initial_state_reported(tmp_path, capsys):
    payload = model_config()
    payload["initial_state"] = [[0.0] * 8 for _ in range(8)]
    cfg = write_config(tmp_path, "bad.json", payload)
    code, _, err = run_cli(capsys, ["run", "--config", cfg])
    assert code == 1
    assert "initial_state" in err


def test_unnormalized_probe_reported(tmp_path, capsys):
    payload = model_config()
    payload["system"]["alpha"] = 1.0
    payload["system"]["beta"] = 1.0
    cfg = write_config(tmp_path, "bad.json", payload)
    code, _, err = run_cli(capsys, ["run", "--config", cfg])
    assert code == 1
    assert "system.alpha" in err


def test_bad_target_reported(tmp_path, capsys):
    payload = model_config(target="phi-plus")
    cfg = write_config(tmp_path, "bad.json", payload)
    code, _, err = run_cli(capsys, ["run", "--config", cfg])
    assert code == 1
    assert "target" in err


def custom_config():
    return {
        "system": {
            "kind": "custom",
            "dim_x": 2,
            "dim_a": 2,
            "tau": 1.0,
            "hamiltonian": [[[0.0, 0.0]] * 4 for _ in range(4)],
            "probe": [[1.0, 0.0], [0.0, 0.0]],
        },
        "initial_state": np.diag([1.0, 0.0, 0.0, 0.0]).tolist(),
        "target": [[1.0, 0.0], [0.0, 0.0]],
        "n_steps": 2,
    }


def with_first_pair(value, pair):
    """Copy of a nested list of [re, im] pairs with its first pair replaced."""
    if not isinstance(value[0], list):
        return pair
    return [with_first_pair(value[0], pair)] + value[1:]


def malformed_cases():
    for field in ("tau", "g"):
        for label, value in (
            ("nan", math.nan),
            ("inf", math.inf),
            ("-inf", -math.inf),
            ("400-digit", 10**400),
        ):
            yield pytest.param(f"system.{field}", value, id=f"{field}-{label}")
    arrays = custom_config()
    for field, good in (
        ("system.hamiltonian", arrays["system"]["hamiltonian"]),
        ("system.probe", arrays["system"]["probe"]),
        ("target", arrays["target"]),
    ):
        for label, pair in (
            ("bool", [True, 0.0]),
            ("string", ["1", 0.0]),
            ("null", [None, 0.0]),
            ("mixed", 0.0),  # one real among [re, im] pairs
            ("ragged", [0.0]),  # one pair of a single component
            ("nan", [math.nan, 0.0]),
        ):
            yield pytest.param(field, with_first_pair(good, pair), id=f"{field}-{label}")
        yield pytest.param(field, good + good[-1:], id=f"{field}-wrong-shape")
    for label, value in (
        ("bool", True),
        ("string", "0.7"),
        ("null", None),
        ("mixed", [[0.7, 0.0], 0.0]),
        ("ragged", [[0.7], [0.0, 0.0]]),
        ("wrong-shape", [0.7, 0.0, 0.0]),
        ("nan", math.nan),
    ):
        yield pytest.param("system.alpha", value, id=f"alpha-{label}")


def test_array_decoding_matches_per_entry_reference(tmp_path):
    rng = np.random.default_rng(3)
    pairs = np.round(rng.standard_normal((5, 5, 2)), 3).tolist()
    pairs[0][0] = [-0.0, -0.0]
    pairs[1][1] = [2, -3]  # JSON integers
    target = [0.6, -0.0, 0, 0.8, 0]
    rho = np.diag([0.5, 0.25, 0.25, 0.0, 0.0]).tolist()
    rho[4][4] = 0
    payload = {
        "system": {
            "kind": "custom",
            "dim_x": 1,
            "dim_a": 5,
            "tau": 1.0,
            "hamiltonian": pairs,
            "probe": [1],
        },
        "initial_state": rho,
        "target": target,
        "n_steps": 1,
    }
    cfg = load_config(write_config(tmp_path, "c.json", payload), "run", Namespace(out=None))
    # reference: one Python complex per entry, as the config states it
    want_h = np.array([[complex(a, b) for a, b in row] for row in pairs])
    want_rho = np.array([[complex(a) for a in row] for row in rho])
    want_target = np.array([complex(a) for a in target])
    assert cfg.h_tot.entries.tobytes() == want_h.tobytes()
    assert cfg.rho_tot.entries.tobytes() == want_rho.tobytes()
    assert cfg.target.tobytes() == want_target.tobytes()


@pytest.mark.parametrize("field, value", malformed_cases())
def test_malformed_number_is_config_error(tmp_path, capsys, field, value):
    custom = field in ("system.hamiltonian", "system.probe", "target")
    payload = custom_config() if custom else model_config()
    section, _, key = field.rpartition(".")
    (payload[section] if section else payload)[key] = value
    # json writes NaN, Infinity and -Infinity, which json.load reads back
    cfg = write_config(tmp_path, "bad.json", payload)
    code, out, err = run_cli(capsys, ["run", "--config", cfg])
    assert code == 1 and out == ""
    assert f"config error: {field}: " in err
    assert "Traceback" not in err


@pytest.mark.parametrize("value", [2.0, True, "2"], ids=["float", "bool", "string"])
@pytest.mark.parametrize(
    "field, command",
    [
        ("system.dim_x", "run"),
        ("system.dim_a", "run"),
        ("n_steps", "run"),
        ("sweep.count", "sweep"),
        ("shots.shots", "shots"),
        ("shots.seed", "shots"),
    ],
)
def test_non_integer_count_is_config_error(tmp_path, capsys, field, command, value):
    payload = custom_config() if field.startswith("system.") else model_config()
    payload["sweep"] = {"axis": "g", "start": 0.1, "stop": 0.4, "count": 3}
    payload["shots"] = {"shots": 100, "seed": 1}
    section, _, key = field.rpartition(".")
    (payload[section] if section else payload)[key] = value
    cfg = write_config(tmp_path, "bad.json", payload)
    code, out, err = run_cli(capsys, [command, "--config", cfg])
    assert code == 1 and out == ""
    assert err.startswith(f"config error: {field}: ") and err.count("\n") == 1
    assert "Traceback" not in err


def edited(base, edits):
    """Copy of the config ``base`` with each dotted field of ``edits`` set."""
    payload = json.loads(json.dumps(base))
    for field, value in edits.items():
        section, _, key = field.rpartition(".")
        (payload.setdefault(section, {}) if section else payload)[key] = value
    return payload


def readme_config():
    return json.loads((GOLDEN / "readme.json").read_text(encoding="utf-8"))


TAU_SWEEP = {"sweep.axis": "tau", "sweep.start": 0.0, "sweep.stop": 1.0}
# id, command, base config, fields set on it, extra argv, field reported; the
# last rows are counts at or past 2**63, the end of every count rule
CONFIG_ERRORS = [
    ("top-level-list", "run", "list", {}, [], "config"),
    ("system-not-object", "run", "readme", {"system": 3}, [], "system"),
    ("unknown-preset", "run", "readme", {"initial_state": "bell"}, [], "initial_state"),
    ("preset-on-2x2", "run", "custom", {"initial_state": "paper-product"}, [], "initial_state"),
    ("bad-kind", "run", "readme", {"system.kind": "qutrit"}, [], "system.kind"),
    ("bad-units", "run", "readme", {"units": "hertz"}, [], "units"),
    ("omega-on-custom", "run", "custom", {"units": "omega"}, [], "units"),
    ("negative-tau", "run", "readme", {"system.tau": -1.0}, [], "system.tau"),
    ("negative-sweep-start", "sweep", "readme", dict(TAU_SWEEP, **{"sweep.start": -1.0}), [],
     "sweep.start"),
    ("negative-sweep-stop", "sweep", "readme", dict(TAU_SWEEP, **{"sweep.stop": -1.0}), [],
     "sweep.stop"),
    ("dim-x-zero", "run", "custom", {"system.dim_x": 0}, [], "system.dim_x"),
    ("dim-a-zero", "run", "custom", {"system.dim_a": 0}, [], "system.dim_a"),
    ("psi-minus-on-2-dim", "run", "custom", {"target": "psi-minus"}, [], "target"),
    ("bad-sweep-axis", "sweep", "readme", {"sweep.axis": "omega"}, [], "sweep.axis"),
    ("negative-n-steps", "run", "readme", {"n_steps": -1}, [], "n_steps"),
    ("negative-steps-option", "run", "readme", {}, ["--steps", "-1"], "n_steps"),
    ("output-path-number", "run", "readme", {"output.path": 3}, [], "output.path"),
    ("zero-shots", "shots", "readme", {"shots.shots": 0}, [], "shots.shots"),
    ("shots-400-digit", "shots", "readme", {"shots.shots": 10**400}, [], "shots.shots"),
    ("shots-2**63", "shots", "readme", {"shots.shots": 2**63}, [], "shots.shots"),
    ("shots-option-0", "shots", "readme", {}, ["--shots", "0"], "shots.shots"),
    ("shots-option-2**63", "shots", "readme", {}, ["--shots", str(2**63)], "shots.shots"),
    ("seed-negative", "shots", "readme", {"shots.seed": -1}, [], "shots.seed"),
    ("seed-option-negative", "shots", "readme", {}, ["--seed", "-1"], "shots.seed"),
    ("seed-option-2**64", "shots", "readme", {}, ["--seed", str(2**64)], "shots.seed"),
    ("n-steps-400-digit", "run", "readme", {"n_steps": 10**400}, [], "n_steps"),
    ("steps-option-10**30", "run", "readme", {}, ["--steps", str(10**30)], "n_steps"),
    ("sweep-count-400-digit", "sweep", "readme", {"sweep.count": 10**400}, [], "sweep.count"),
    ("sweep-count-2**63", "sweep", "readme", {"sweep.count": 2**63}, [], "sweep.count"),
]


@pytest.mark.parametrize(
    "command, base, edits, argv, field", [row[1:] for row in CONFIG_ERRORS],
    ids=[row[0] for row in CONFIG_ERRORS],
)
def test_config_error_names_its_field(tmp_path, capsys, monkeypatch, command, base, edits, argv,
                                      field):
    bases = {"readme": readme_config(), "custom": custom_config(), "list": [readme_config()]}
    payload = edited(bases[base], edits)
    argv = [command, "--config", write_config(tmp_path, "bad.json", payload)] + argv
    # load_config alone first, so a count it lets through fails here, not in a
    # command that runs without end
    args = cli._build_parser().parse_args(argv)
    with pytest.raises(cli.ConfigError) as info:
        load_config(args.config, args.command, args)
    assert info.value.field == field

    def never_called(cfg):
        raise AssertionError("the command ran on an invalid config")

    monkeypatch.setitem(cli._COMMANDS, command, never_called)
    tracemalloc.start()
    try:
        code, out, err = run_cli(capsys, argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 1 and out == ""
    assert err.startswith(f"config error: {field}: ") and err.count("\n") == 1
    assert "Traceback" not in err
    assert peak < 1 << 20


@pytest.mark.parametrize(
    "argv, edits, name",
    [
        (["run", "--steps", str(2**62)], {}, "n_steps"),
        (["shots", "--steps", str(2**62)], {}, "n_steps"),
        (["sweep"], {"sweep.count": 2**62}, "sweep.count"),
        (["sweep"], {"sweep.count": 2**63 - 1}, "sweep.count"),
    ],
    ids=["run-steps-2**62", "shots-steps-2**62", "sweep-count-2**62", "sweep-count-2**63-1"],
)
def test_unallocatable_count_is_one_numeric_failure(tmp_path, capsys, argv, edits, name):
    # within the count rule, but numpy cannot allocate arrays of that length
    cfg = write_config(tmp_path, "huge.json", edited(readme_config(), edits))
    tracemalloc.start()
    try:
        code, out, err = run_cli(capsys, argv[:1] + ["--config", cfg] + argv[1:])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2 and out == ""
    assert err.startswith("numeric failure: ") and err.count("\n") == 1
    assert f"{name} = " in err and "Traceback" not in err
    assert peak < 1 << 20


def test_usage_error_exits_one(capsys):
    code, _, err = run_cli(capsys, ["run"])
    assert code == 1
    assert "config error" in err


def test_shot_options_only_on_shots(tmp_path, capsys):
    cfg = write_config(tmp_path, "run.json", model_config())
    for argv in (
        ["run", "--config", cfg, "--seed", "1"],
        ["run", "--config", cfg, "--shots", "10"],
        ["spectrum", "--config", cfg, "--steps", "2"],
    ):
        code, out, err = run_cli(capsys, argv)
        assert code == 1 and out == ""
        assert "unrecognized arguments" in err


def test_zero_probability_exits_two_and_writes_nothing(tmp_path, capsys):
    dest = tmp_path / "never.csv"
    payload = model_config()
    payload["system"]["alpha"] = 1.0
    payload["system"]["beta"] = 0.0
    # X part of the initial state orthogonal to the probe |up>
    rho = np.zeros((8, 8))
    rho[5, 5] = 1.0
    payload["initial_state"] = [[[v, 0.0] for v in row] for row in rho.tolist()]
    cfg = write_config(tmp_path, "orth.json", payload)
    code, _, err = run_cli(capsys, ["run", "--config", cfg, "--out", str(dest)])
    assert code == 2
    assert "ZeroProbability" in err
    assert not dest.exists()


@pytest.mark.parametrize("command", ["run", "shots"])
def test_non_psd_conditional_start_exits_two_and_writes_nothing(tmp_path, capsys, command):
    # rho_tot passes STATE_TOL, but rho'_A / p0 has the eigenvalue -5e-11 / 1e-3
    dest = tmp_path / "never.csv"
    payload = custom_config()
    payload["initial_state"] = np.diag([1e-3 + 5e-11, -5e-11, 1.0 - 1e-3, 0.0]).tolist()
    cfg = write_config(tmp_path, "non_psd.json", payload)
    code, out, err = run_cli(capsys, [command, "--config", cfg, "--out", str(dest)])
    assert code == 2 and out == ""
    assert err == (
        "numeric failure: NotPositiveSemidefinite: "
        "density matrix has negative eigenvalue -5.000e-08\n"
    )
    assert not dest.exists()


def test_shots_conditions_once(tmp_path, capsys, monkeypatch):
    counts = {"projected_evolution": 0, "probe_block": 0}
    for name in counts:
        original = getattr(engine, name)

        def counted(*args, _name=name, _original=original):
            counts[_name] += 1
            return _original(*args)

        monkeypatch.setattr(engine, name, counted)
    cfg = str(GOLDEN / "readme.json")
    code, out, _ = run_cli(capsys, ["shots", "--config", cfg, "--seed", "7", "--shots", "2000"])
    assert code == 0
    assert counts == {"projected_evolution": 1, "probe_block": 1}
    assert out == (GOLDEN / "shots_seed7_2000.csv").read_text(encoding="utf-8")


def test_huge_shot_count_finishes(capsys):
    # 2**62 shots cost what 2000 do: the counts are two multinomial draws
    argv = ["shots", "--config", str(GOLDEN / "readme.json"), "--shots", str(2**62)]
    start = time.perf_counter()
    code, out, err = run_cli(capsys, argv)
    elapsed = time.perf_counter() - start
    assert code == 0 and err == ""
    assert elapsed < 1.0
    lines = out.splitlines()
    assert lines[0] == "n,mc_frequency,exact_probability,abs_error"
    rows = np.array([line.split(",") for line in lines[1:]], dtype=float)
    assert rows.shape == (11, 4)
    assert np.all(np.abs(rows[:, 1] - rows[:, 2]) <= 1e-6)


@pytest.mark.parametrize("via_config", [False, True])
def test_unwritable_output_path_reported(tmp_path, capsys, monkeypatch, via_config):
    def never_called(cfg):
        raise AssertionError("the command ran before the output path was checked")

    monkeypatch.setitem(cli._COMMANDS, "run", never_called)
    dest = tmp_path / "missing" / "out.csv"
    if via_config:
        payload = model_config(output={"path": str(dest)})
        argv = []
    else:
        payload = model_config()
        argv = ["--out", str(dest)]
    cfg = write_config(tmp_path, "run.json", payload)
    code, out, err = run_cli(capsys, ["run", "--config", cfg] + argv)
    assert code == 1 and out == ""
    assert err.startswith(f"config error: output.path: cannot write {dest}: ")
    assert "Traceback" not in err and err.count("\n") == 1
    assert not dest.parent.exists()


@pytest.mark.parametrize("value", ["csv", "json"])
@pytest.mark.parametrize(
    "argv, golden",
    [(["run"], "run.csv"), (["spectrum"], "spectrum.json")],
    ids=["run", "spectrum"],
)
def test_output_format_key_ignored(tmp_path, capsys, argv, golden, value):
    # each command prints its one format; an output.format key changes nothing
    payload = json.loads((GOLDEN / "readme.json").read_text(encoding="utf-8"))
    payload["output"] = {"format": value}
    cfg = write_config(tmp_path, "format.json", payload)
    code, out, err = run_cli(capsys, argv + ["--config", cfg])
    assert code == 0 and err == ""
    assert out == (GOLDEN / golden).read_text(encoding="utf-8")


# ---------------------------------------------------------------------------
# fields each command reads


@pytest.mark.parametrize(
    "command, golden", [("spectrum", "spectrum.json"), ("sweep", "sweep.csv")]
)
def test_analysis_commands_ignore_state_fields(tmp_path, capsys, command, golden):
    # V alone fixes the spectrum and the sweep; an invalid start, step count
    # and target are never read
    payload = json.loads((GOLDEN / "readme.json").read_text(encoding="utf-8"))
    payload["initial_state"] = [[0.0] * 8 for _ in range(8)]
    payload["n_steps"] = -1
    payload["target"] = "phi-plus"
    cfg = write_config(tmp_path, "bad_state.json", payload)
    code, out, err = run_cli(capsys, [command, "--config", cfg])
    assert code == 0 and err == ""
    assert out == (GOLDEN / golden).read_text(encoding="utf-8")


@pytest.mark.parametrize("command", ["run", "spectrum", "sweep", "shots"])
def test_only_state_commands_build_the_start(monkeypatch, command):
    built = []

    class Counted(cli.DensityMatrix):
        def __post_init__(self):
            built.append(self)
            super().__post_init__()

    monkeypatch.setattr(cli, "DensityMatrix", Counted)
    args = Namespace(out=None, steps=None, seed=None, shots=None)
    cfg = load_config(str(GOLDEN / "readme.json"), command, args)
    evolves = command in ("run", "shots")
    assert len(built) == (1 if evolves else 0)
    assert (cfg.rho_tot is not None) == evolves
    if evolves:
        assert cfg.n_steps == 10
        assert cfg.target.tobytes() == bell_basis().psi_minus.tobytes()
    else:
        assert cfg.target is None


def test_spectral_paths_form_no_eigenvector_matrix(monkeypatch):
    # the report needs the eigenvalues and the dominant pair alone: no eig, no
    # cond, and at most one inv (the inverse iteration's) per report
    calls = {"eig": 0, "cond": 0, "inv": 0, "report": 0}

    def counted(name, real):
        def spy(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return spy

    for name in ("eig", "cond", "inv"):
        monkeypatch.setattr(np.linalg, name, counted(name, getattr(np.linalg, name)))
    monkeypatch.setattr(cli, "spectral_report", counted("report", cli.spectral_report))
    args = Namespace(out=None, steps=None, seed=None, shots=None)
    p = ModelParams(omega=1.0, g=0.25, tau=TAU)
    v = projected_evolution(cli.build_hamiltonian(p), p.tau, probe_spec(p))
    rho_a = cli.DensityMatrix(cli.Operator(np.eye(4, dtype=complex) / 4.0))
    assert cli.spectral_report(v, rho_a).yield_coefficient is not None
    for config in ("readme.json", "custom_rounded.json"):
        cli.cmd_spectrum(load_config(str(GOLDEN / config), "spectrum", args))
    for config in ("readme.json", "sweep_alpha.json"):
        cli.cmd_sweep(load_config(str(GOLDEN / config), "sweep", args))
    assert calls["report"] == 1 + 2 + 9 + 8
    assert calls["eig"] == 0 and calls["cond"] == 0
    assert calls["inv"] <= calls["report"]


def test_shots_reads_target(tmp_path, capsys):
    # shots prints no fidelity but loads the target, as run does, so one
    # loaded config serves both commands
    payload = custom_config()
    payload["target"] = [[0.6, 0.0], [0.0, 0.8]]
    cfg = write_config(tmp_path, "target.json", payload)
    args = Namespace(out=None, steps=None, seed=None, shots=None)
    assert load_config(cfg, "shots", args).target.tolist() == [0.6, 0.8j]
    payload = json.loads((GOLDEN / "readme.json").read_text(encoding="utf-8"))
    payload["target"] = "phi-plus"
    cfg = write_config(tmp_path, "bad.json", payload)
    code, out, err = run_cli(capsys, ["shots", "--config", cfg])
    assert code == 1 and out == ""
    assert err == "config error: target: unknown preset 'phi-plus'\n"


# ---------------------------------------------------------------------------
# entry point


def test_module_entry_point(tmp_path):
    cfg = write_config(tmp_path, "run.json", model_config(n_steps=2))
    proc = subprocess.run(
        [sys.executable, "-m", "zenopur", "run", "--config", cfg],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("n,fidelity,success_probability\n")


def test_import_loads_no_scipy():
    code = "import sys, zenopur, zenopur.cli; print(any(m.split('.')[0] == 'scipy' for m in sys.modules))"
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


# ---------------------------------------------------------------------------
# golden bytes


SHOTS_ARGV = ["shots", "--seed", "7", "--shots", "2000"]


@pytest.mark.parametrize(
    "config, argv, golden",
    [
        ("readme.json", ["run"], "run.csv"),
        ("readme.json", ["spectrum"], "spectrum.json"),
        ("readme.json", ["sweep"], "sweep.csv"),
        # the README config with an alpha-angle sweep: the probe changes, H does not
        ("sweep_alpha.json", ["sweep"], "sweep_alpha.csv"),
        ("readme.json", SHOTS_ARGV, "shots_seed7_2000.csv"),
        # a 2 x 6 custom system whose rank-2 start, rounded to 12 decimals,
        # leaves rho'_A four noise eigenvalues of about +-1e-12
        ("custom_rounded.json", ["run"], "custom_rounded_run.csv"),
        # the spectrum of a V that is not the model's
        ("custom_rounded.json", ["spectrum"], "custom_rounded_spectrum.json"),
        ("custom_rounded.json", SHOTS_ARGV, "custom_rounded_shots_seed7_2000.csv"),
    ],
    ids=[
        "run", "spectrum", "sweep", "sweep-alpha", "shots", "custom-rounded-run",
        "custom-rounded-spectrum", "custom-rounded-shots",
    ],
)
def test_readme_config_golden_bytes(tmp_path, capsys, config, argv, golden):
    # each checked-in config, byte for byte; the golden files are checked-in output
    dest = tmp_path / golden
    cfg = str(GOLDEN / config)
    assert main(argv + ["--config", cfg, "--out", str(dest)]) == 0
    capsys.readouterr()
    assert dest.read_bytes() == (GOLDEN / golden).read_bytes()
