"""Long runs, huge counts and the demos, each as a fresh Python process.

Every process runs with one BLAS thread, the condition under which the
printed bytes are reproducible, and imports the package from ``src``.
"""

import io
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
ENV = dict(
    os.environ,
    OPENBLAS_NUM_THREADS="1",
    OMP_NUM_THREADS="1",
    MKL_NUM_THREADS="1",
    PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])),
)


def python(*args):
    return subprocess.run([sys.executable, *args], capture_output=True, env=ENV, timeout=120)


def zenopur(*argv):
    """stdout of ``python -m zenopur`` on the README config, which must exit 0."""
    proc = python("-m", "zenopur", *argv, "--config", str(GOLDEN / "readme.json"))
    assert proc.returncode == 0, proc.stderr.decode()
    return proc.stdout.decode()


@pytest.mark.parametrize("demo", sorted((ROOT / "demos").glob("*.py")), ids=lambda path: path.stem)
def test_demo_prints_its_golden(demo):
    # as in pytest (pyproject.toml), a 0/0 or overflow fails instead of
    # printing NaN, and a deprecated call fails too
    proc = python("-W", "error::RuntimeWarning", "-W", "error::DeprecationWarning", str(demo))
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout == (GOLDEN / f"demo_{demo.stem}.txt").read_bytes()


def test_long_run_crosses_the_state_block():
    # 3000 steps at d = 4 cross the 2048-step state block, so the doubled
    # fill (V^(2^k) up to 2^10) and the block boundary reach the printed P
    a = np.loadtxt(io.StringIO(zenopur("run", "--steps", "3000")), delimiter=",", skiprows=1)
    fid, p = a[:, 1], a[:, 2]
    assert len(p) == 3001
    assert np.max(p[1:] / p[:-1] - 1.0) <= 1e-11  # the bound bench/checks.py applies to printed P
    assert abs(p[-1] - 0.5) <= 1e-9
    assert abs(fid[-1] - 1.0) <= 1e-9


def test_long_shot_run_matches_the_exact_probability():
    # 4096 shots of 3000 steps, checked against the exact P(n); 3000 steps at
    # d = 4 cross the 2048-step block, so the sampler's paths reach V^(2^10)
    # and the block boundary of the shared orbit
    lines = zenopur("shots", "--steps", "3000", "--shots", "4096", "--seed", "7").splitlines()
    assert lines[0] == "n,mc_frequency,exact_probability,abs_error"
    rows = [line.split(",") for line in lines[1:]]
    a = np.array(rows, dtype=float)
    freq, p = a[:, 1], a[:, 2]
    sigma = np.sqrt(np.clip(p * (1.0 - p), 0.0, None) / 4096)
    assert len(rows) == 3001
    assert np.all(np.diff(freq) <= 0.0)
    assert np.all(np.abs(freq - p) <= 5.0 * sigma)  # SHOT_SIGMAS in bench/checks.py
    assert all(r[3] == format(abs(float(r[1]) - float(r[2])), ".12g") for r in rows)


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "--steps", "1000000000000000000000000000000"],
        ["run", "--steps", "4611686018427387904"],
        ["shots", "--shots", "9223372036854775808"],
    ],
    ids=["run-steps-10**30", "run-steps-2**62", "shots-2**63"],
)
def test_huge_count_ends_in_one_line(argv):
    # a count past 2**63 is a config error (exit 1), one that numpy cannot
    # allocate a numeric failure (exit 2); neither may hang or print a traceback
    proc = python("-m", "zenopur", *argv, "--config", str(GOLDEN / "readme.json"))
    err = proc.stderr.decode()
    assert proc.returncode in (1, 2) and proc.stdout == b""
    assert err.count("\n") == 1 and "Traceback" not in err
