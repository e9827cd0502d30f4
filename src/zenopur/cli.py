"""Command-line front end.

Four subcommands drive the library from a JSON config file:

    zenopur run      --config cfg.json   protocol trace (n, fidelity, P)
    zenopur spectrum --config cfg.json   spectral report of V as JSON
    zenopur sweep    --config cfg.json   parameter sweep as CSV
    zenopur shots    --config cfg.json   Monte Carlo vs exact as CSV

The config is validated once, on load, and each command reads only the
fields it uses; every other field is ignored.  All four read ``system``,
``units`` and ``output.path``.  ``run`` and ``shots`` also read
``initial_state``, ``n_steps`` and ``target`` (which defaults to the
singlet for a ``model3q`` system); ``sweep`` reads ``sweep`` and
``shots`` reads ``shots``.  Every number in the config must be
finite.  Complex-valued fields (a custom ``hamiltonian``, ``probe``,
``initial_state`` and ``target``, and ``alpha``/``beta``) take real
entries or [re, im] pairs, one form throughout each array.

Exit codes: 0 ok, 1 config error, 2 numeric failure.  Output goes to
stdout unless an output path is configured (or given via --out).  Reals
are printed with 12 significant digits so repeated runs diff clean.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass, replace

import numpy as np

from .engine import (
    DensityMatrix,
    ProbeSpec,
    _checked_target,
    condition,
    evolve,
    projected_evolution,
    run_protocol,
    spectral_report,
)
from .exceptions import ZenopurError
from .linalg import Operator, _as_index
from .model3q import (
    DOWN,
    INV_SQRT2,
    UP,
    ModelParams,
    bell_basis,
    build_hamiltonian,
    check_conditions,
    probe_spec,
    singlet_eigenvalue,
)
from .trajectories import ShotConfig, sample
from .trajectories import run_shots  # noqa: F401  traced by name in bench/worker.py

RUN_HEADER = "n,fidelity,success_probability"
SWEEP_HEADER = "value,singlet_magnitude,gap_ratio,dominant_fidelity"
SHOTS_HEADER = "n,mc_frequency,exact_probability,abs_error"

DEFAULT_SHOTS = 10000
DEFAULT_SEED = 0


class ConfigError(Exception):
    """Invalid configuration; carries the offending field path."""

    def __init__(self, field: str, message: str):
        super().__init__(f"{field}: {message}")
        self.field = field


@dataclass
class SweepSpec:
    axis: str
    start: float
    stop: float
    count: int


@dataclass
class RunConfig:
    """Fully resolved configuration for one CLI invocation.

    The fields after ``probe`` are set only for the commands that read
    them and keep their defaults otherwise.
    """

    params: ModelParams | None
    h_tot: Operator
    tau: float
    probe: ProbeSpec
    out_path: str | None = None
    rho_tot: DensityMatrix | None = None
    n_steps: int = 0
    target: np.ndarray | None = None
    sweep: SweepSpec | None = None
    shot_cfg: ShotConfig | None = None


def _fmt(x: float) -> str:
    return format(float(x), ".12g")


def _round12(x: float) -> float:
    x = float(x)
    return float(_fmt(x)) if math.isfinite(x) else x


def _get(mapping, key, path, required=True, default=None):
    """``mapping[key]``; an absent key gives ``default`` unless required, a null never does."""
    if not isinstance(mapping, dict):
        raise ConfigError(path or "config", "expected an object")
    field = f"{path}.{key}" if path else key
    if key not in mapping:
        if required:
            raise ConfigError(field, "missing required field")
        return default
    if mapping[key] is None:
        raise ConfigError(field, "expected a value, got null")
    return mapping[key]


def _as_real(value, path) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(path, "expected a real number")
    return _as_array(value, path, ()).real.item()


def _checked(path, build, *args):
    """``build(*args)``; the ValueError or ZenopurError of a library check is a
    config error at ``path``."""
    try:
        return build(*args)
    except (ValueError, ZenopurError) as exc:
        raise ConfigError(path, str(exc)) from None


def _as_int(value, path) -> int:
    return _checked(path, _as_index, value, path.rpartition(".")[2])


def _as_array(value, path, shape) -> np.ndarray:
    """Complex array of ``shape`` from finite JSON numbers, given as all
    reals or as all [re, im] pairs (a trailing axis of length 2)."""
    raw = np.array(value, dtype=object)
    numbers = set(map(type, raw.flat)) <= {int, float}
    if not numbers or raw.shape not in (shape, shape + (2,)):
        if not shape:
            raise ConfigError(path, "expected a real number or an [re, im] pair")
        dims = " x ".join(map(str, shape))
        raise ConfigError(path, f"expected {dims} entries, all reals or all [re, im] pairs")
    try:
        x = raw.astype(float)
    except OverflowError:  # an integer beyond the float range
        x = np.array(math.inf)
    if not np.isfinite(x).all():
        raise ConfigError(path, "must be finite")
    return x.astype(complex) if x.shape == shape else x.view(complex)[..., 0]


def _preset_state(name: str, probe: ProbeSpec, path: str) -> DensityMatrix:
    if probe.dim_x != 2 or probe.dim_a != 4:
        raise ConfigError(path, f"preset '{name}' needs a 2 x 4 qubit split")
    right = (UP + DOWN) * INV_SQRT2
    up_down = np.kron(UP, DOWN)
    down_up = np.kron(DOWN, UP)
    if name == "paper-product":
        return DensityMatrix.pure(np.kron(right, up_down), (2, 2, 2))
    if name == "paper-mixed":
        rho_ab = (np.outer(up_down, up_down) + np.outer(down_up, down_up)) / 2.0
        rho = np.kron(np.outer(right, right.conj()), rho_ab)
        return DensityMatrix(Operator(rho, (2, 2, 2)))
    raise ConfigError(path, f"unknown preset '{name}'")


def _load_system(root):
    system = _get(root, "system", "")
    kind = _get(system, "kind", "system")
    if kind not in ("model3q", "custom"):
        raise ConfigError("system.kind", "expected 'model3q' or 'custom'")
    units = _get(root, "units", "", required=False, default="absolute")
    if units not in ("absolute", "omega"):
        raise ConfigError("units", "expected 'absolute' or 'omega'")

    # omega and g come before tau: a config missing omega and tau reports omega
    if kind == "model3q":
        in_omega = units == "omega"
        omega = _as_real(
            _get(system, "omega", "system", required=not in_omega, default=1.0), "system.omega"
        )
        if in_omega and omega != 1.0:
            raise ConfigError("system.omega", "must be 1 (or omitted) when units = 'omega'")
        g = _as_real(_get(system, "g", "system"), "system.g")
    elif units == "omega":
        raise ConfigError("units", "'omega' applies only to model3q systems")
    tau = _as_real(_get(system, "tau", "system"), "system.tau")
    if tau < 0:
        raise ConfigError("system.tau", "must be nonnegative")

    if kind == "model3q":
        alpha, beta = (
            _as_array(
                _get(system, key, "system", required=False, default=INV_SQRT2),
                f"system.{key}",
                (),
            ).item()
            for key in ("alpha", "beta")
        )
        params = _checked("system.alpha", ModelParams, omega, g, tau, alpha, beta)
        return "model3q", params, build_hamiltonian(params), tau, probe_spec(params)

    dim_x = _as_int(_get(system, "dim_x", "system"), "system.dim_x")
    dim_a = _as_int(_get(system, "dim_a", "system"), "system.dim_a")
    if dim_x < 1 or dim_a < 1:
        raise ConfigError("system.dim_x", "dimensions must be positive")
    dim = dim_x * dim_a
    h = _as_array(_get(system, "hamiltonian", "system"), "system.hamiltonian", (dim, dim))
    h_tot = _checked("system.hamiltonian", Operator, h, (dim_x, dim_a))
    phi = _as_array(_get(system, "probe", "system"), "system.probe", (dim_x,))
    probe = _checked("system.probe", ProbeSpec, phi, dim_x, dim_a)
    return "custom", None, h_tot, tau, probe


def _load_initial_state(root, probe):
    value = _get(root, "initial_state", "")
    if isinstance(value, str):
        return _preset_state(value, probe, "initial_state")
    matrix = _as_array(value, "initial_state", (probe.dim_total,) * 2)
    op = _checked("initial_state", Operator, matrix, (probe.dim_x, probe.dim_a))
    return _checked("initial_state", DensityMatrix, op)


def _load_target(root, kind, probe):
    value = _get(root, "target", "", required=False)
    if value is None:
        # the singlet is the model's target; a custom basis has no default
        return bell_basis().psi_minus if kind == "model3q" else None
    if isinstance(value, str):
        if value != "psi-minus":
            raise ConfigError("target", f"unknown preset '{value}'")
        if probe.dim_a != 4:
            raise ConfigError("target", "preset 'psi-minus' needs a 4-dim target space")
        return bell_basis().psi_minus
    vec = _as_array(value, "target", (probe.dim_a,))
    return _checked("target", _checked_target, vec, probe.dim_a)


def _load_sweep(root, kind):
    section = _get(root, "sweep", "")
    axis = _get(section, "axis", "sweep")
    if axis not in ("tau", "g", "alpha-angle"):
        raise ConfigError("sweep.axis", "expected 'tau', 'g' or 'alpha-angle'")
    if kind != "model3q":
        raise ConfigError("sweep.axis", "sweeps need a model3q system")
    start = _as_real(_get(section, "start", "sweep"), "sweep.start")
    stop = _as_real(_get(section, "stop", "sweep"), "sweep.stop")
    count = _as_int(_get(section, "count", "sweep"), "sweep.count")
    if count < 2:
        raise ConfigError("sweep.count", "must be at least 2")
    if axis == "tau" and (start < 0 or stop < 0):
        raise ConfigError("sweep.start", "tau values must be nonnegative")
    return SweepSpec(axis, start, stop, count)


def _load_shot_config(root, n_steps, args):
    section = _get(root, "shots", "", required=False, default={})
    shots = _as_int(
        _get(section, "shots", "shots", required=False, default=DEFAULT_SHOTS),
        "shots.shots",
    )
    seed = _as_int(
        _get(section, "seed", "shots", required=False, default=DEFAULT_SEED),
        "shots.seed",
    )
    if getattr(args, "shots", None) is not None:
        shots = args.shots
    if getattr(args, "seed", None) is not None:
        seed = args.seed
    return _checked("shots", ShotConfig, shots, seed, n_steps)


def load_config(path: str, command: str, args) -> RunConfig:
    """Read and validate a JSON config file for the given subcommand.

    ``args`` holds the command-line overrides; an absent or None
    ``steps``, ``seed`` or ``shots`` keeps the config value.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            root = json.load(fh)
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError("config", f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError("config", f"invalid JSON: {exc}") from None
    if not isinstance(root, dict):
        raise ConfigError("config", "top level must be an object")

    kind, params, h_tot, tau, probe = _load_system(root)
    cfg = RunConfig(params=params, h_tot=h_tot, tau=tau, probe=probe)

    if command in ("run", "shots"):
        # the commands that evolve the conditioned state
        cfg.rho_tot = _load_initial_state(root, probe)
        cfg.n_steps = _as_int(_get(root, "n_steps", ""), "n_steps")
        if getattr(args, "steps", None) is not None:
            cfg.n_steps = args.steps
        if cfg.n_steps < 0:
            raise ConfigError("n_steps", "must be nonnegative")
        cfg.target = _load_target(root, kind, probe)

    out_section = _get(root, "output", "", required=False, default={})
    cfg.out_path = _get(out_section, "path", "output", required=False)
    if cfg.out_path is not None and not isinstance(cfg.out_path, str):
        raise ConfigError("output.path", "expected a string")
    if args.out is not None:
        cfg.out_path = args.out

    if command == "sweep":
        cfg.sweep = _load_sweep(root, kind)
    if command == "shots":
        cfg.shot_cfg = _load_shot_config(root, cfg.n_steps, args)
    return cfg


def cmd_run(cfg: RunConfig) -> str:
    """Protocol trace as CSV rows (n, fidelity, success_probability)."""
    trace = run_protocol(
        cfg.rho_tot, cfg.h_tot, cfg.tau, cfg.probe, cfg.n_steps, target=cfg.target
    )
    probs = trace.success_prob.tolist()
    fids = [""] * len(probs) if trace.fidelity is None else map(_fmt, trace.fidelity.tolist())
    lines = [RUN_HEADER]
    for n, (fid, p) in enumerate(zip(fids, probs)):
        lines.append(f"{n},{fid},{_fmt(p)}")
    return "\n".join(lines) + "\n"


def cmd_spectrum(cfg: RunConfig) -> str:
    """Spectral report of the projected evolution operator as JSON."""
    v = projected_evolution(cfg.h_tot, cfg.tau, cfg.probe)
    report = spectral_report(v)
    eigenvalues = [
        {"re": _round12(lam.real), "im": _round12(lam.imag), "magnitude": _round12(abs(lam))}
        for lam in report.eigensystem.eigenvalues
    ]
    payload = {
        "eigenvalues": eigenvalues,
        "dominant_index": report.dominant_index,
        "dominant_unique": report.dominant_unique,
        "gap_ratio": _round12(report.gap_ratio),
    }
    if cfg.params is not None:
        flags = check_conditions(cfg.params)
        payload["tuning_ok"] = flags.tuning_ok
        payload["probe_ok"] = flags.probe_ok
        payload["coupling_ok"] = flags.coupling_ok
    return json.dumps(payload, indent=2) + "\n"


def _sweep_params(base: ModelParams, axis: str, value: float) -> ModelParams:
    if axis == "tau":
        return replace(base, tau=value)
    if axis == "g":
        return replace(base, g=value)
    return replace(base, alpha=math.cos(value), beta=math.sin(value))


def cmd_sweep(cfg: RunConfig) -> str:
    """Sweep one model parameter; CSV of singlet magnitude, gap, fidelity.

    H and the probe do not depend on tau, so a tau sweep reuses the
    config's and diagonalizes H once for all points.
    """
    spec = cfg.sweep
    values = np.sort(np.linspace(spec.start, spec.stop, spec.count))
    psi_minus = bell_basis().psi_minus
    h_tot, probe = cfg.h_tot, cfg.probe
    lines = [SWEEP_HEADER]
    for value in values:
        params = _sweep_params(cfg.params, spec.axis, float(value))
        if spec.axis != "tau":
            h_tot, probe = build_hamiltonian(params), probe_spec(params)
        v = projected_evolution(h_tot, params.tau, probe)
        report = spectral_report(v)
        u0 = report.asymptotic_state
        # blank when dominance is degenerate: no eigenvector is selected
        dom_fid = "" if u0 is None else _fmt(abs(np.vdot(psi_minus, u0)) ** 2)
        lam_s = abs(singlet_eigenvalue(params))
        lines.append(f"{_fmt(value)},{_fmt(lam_s)},{_fmt(report.gap_ratio)},{dom_fid}")
    return "\n".join(lines) + "\n"


def cmd_shots(cfg: RunConfig) -> str:
    """Monte Carlo shot frequencies against the exact P(n) of the same system, as CSV."""
    system = condition(cfg.rho_tot, cfg.h_tot, cfg.tau, cfg.probe)
    trace = evolve(system, cfg.n_steps)
    summary = sample(system, cfg.shot_cfg)
    lines = [SHOTS_HEADER]
    for n, (freq, p) in enumerate(zip(summary.frequency.tolist(), trace.success_prob.tolist())):
        # abs_error is the difference of the printed values, not of their noise digits
        lines.append(f"{n},{_fmt(freq)},{_fmt(p)},{_fmt(abs(_round12(freq) - _round12(p)))}")
    return "\n".join(lines) + "\n"


_COMMANDS = {
    "run": cmd_run,
    "spectrum": cmd_spectrum,
    "sweep": cmd_sweep,
    "shots": cmd_shots,
}


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors; remap onto the
    # config-error path so exit code 2 stays reserved for numeric failures.
    def error(self, message):
        raise ConfigError("usage", message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="zenopur", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")
    helps = {
        "run": "iterate the protocol and emit the (n, fidelity, P) trace",
        "spectrum": "emit the spectral report of the projected evolution operator",
        "sweep": "sweep tau, g or the probe angle and emit per-point diagnostics",
        "shots": "Monte Carlo shot sampling cross-checked against the exact P",
    }
    for name, text in helps.items():
        cmd = sub.add_parser(name, help=text)
        cmd.add_argument("--config", required=True, help="path to the JSON config")
        cmd.add_argument("--out", help="output path (default: config or stdout)")
        if name in ("run", "shots"):
            cmd.add_argument("--steps", type=int, help="override the step count")
        if name == "shots":
            cmd.add_argument("--seed", type=int, help="override the shot RNG seed")
            cmd.add_argument("--shots", type=int, help="override the shot count")
    return parser


def _cannot_write(path: str, reason) -> int:
    print(f"config error: output.path: cannot write {path}: {reason}", file=sys.stderr)
    return 1


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        cfg = load_config(args.config, args.command, args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    if cfg.out_path is not None:
        # checked before the command runs, so no result is computed only to be
        # dropped; the write below still reports whatever this misses
        folder = os.path.dirname(cfg.out_path) or "."
        if not os.path.isdir(folder):
            return _cannot_write(cfg.out_path, f"directory {folder} does not exist")
        if not os.access(folder, os.W_OK):
            return _cannot_write(cfg.out_path, f"directory {folder} is not writable")
    try:
        text = _COMMANDS[args.command](cfg)
    except ZenopurError as exc:
        print(f"numeric failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    if cfg.out_path is not None:
        try:
            with open(cfg.out_path, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        except OSError as exc:
            return _cannot_write(cfg.out_path, exc)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
