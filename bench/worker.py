"""One round of a workload in a fresh process; the only module that imports zenopur.

    python3 bench/worker.py WORK ROUND TRACE

Imports zenopur and warms up every function the workload uses (the
set-up time), then times one round of the workload's operations in a
fixed interleaved order and writes what it measured and returned into
WORK as ``round-ROUND.json`` plus, for round 0, ``arrays.npz``.  With
TRACE = 1 the round runs with spans on and adds the per-layer
measurements.

zenopur is imported from ``src/`` of the checkout this file sits in, and
numpy is not imported before it, so the import time is the package's
whole import.  Every round is a new process, so a process that happens
to run slow for its whole life (memory placement, a busy neighbour)
weighs on one round, not on the whole run.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import subprocess
import sys
import time
from contextlib import contextmanager, nullcontext
from types import SimpleNamespace

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CHILD_TIMEOUT_S = 150
PROBE_BUDGET_S = 0.02  # single-call probes repeat until they have used this much time


def import_zenopur():
    sys.path.insert(0, SRC)
    import zenopur

    if not os.path.abspath(zenopur.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"zenopur imported from {zenopur.__file__}, not from {SRC}")
    return zenopur


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def load_inputs(work):
    import numpy as np

    with open(os.path.join(work, "inputs.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    with np.load(os.path.join(work, "inputs.npz")) as npz:
        arrays = {k: npz[k] for k in npz.files}
    return spec, arrays


def prepare(z, spec, arr):
    """Program objects built from the generated inputs."""
    ns = SimpleNamespace(spec=spec, target=arr["target"])
    if spec["workload"] == "bell-paper":
        params = z.ModelParams(spec["omega"], spec["g"], spec["tau"], spec["alpha"], spec["beta"])
        ns.h = z.build_hamiltonian(params)
        ns.probe = z.probe_spec(params)
        ns.start = z.DensityMatrix(z.Operator(arr["product"], (2, 2, 2)))
        ns.mixed = z.DensityMatrix(z.Operator(arr["mixed"], (2, 2, 2)))
    else:
        dims = (spec["dim_x"], spec["dim_a"])
        ns.h = z.Operator(arr["hamiltonian"], dims)
        ns.probe = z.ProbeSpec(arr["probe"], *dims)
        ns.start = ns.mixed = z.DensityMatrix(z.Operator(arr["rho"], dims))
    ns.rho_a, _ = z.condition_on_probe(ns.start, ns.probe)
    return ns


def warm_up(z, ns):
    """First call of every public function the workload's operations use."""
    spec = ns.spec
    z.run_protocol(ns.start, ns.h, spec["tau"], ns.probe, 1, target=ns.target)
    v = z.projected_evolution(ns.h, spec["tau"], ns.probe)
    report = z.spectral_report(v, ns.rho_a)
    z.run_shots(ns.mixed, ns.h, spec["tau"], ns.probe, z.ShotConfig(64, spec["shot_seed"], 1))
    return v, report


class Tracer:
    """In-memory spans: name, parent index, start and end."""

    def __init__(self):
        self.spans = []
        self.enabled = True
        self._stack = []

    @contextmanager
    def span(self, name):
        if not self.enabled:
            yield
            return
        rec = [name, self._stack[-1] if self._stack else None, time.perf_counter(), None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[3] = time.perf_counter()
            self._stack.pop()

    def wrap(self, name, fn):
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    def self_times(self):
        """Self time of each layer, and any span that breaks nesting.

        A span's self time is its duration minus its children's; the self
        times of every span under a root then add up to the root's span.
        """
        child_time = [0.0] * len(self.spans)
        problems = []
        for name, parent, start, end in self.spans:
            if parent is not None:
                p = self.spans[parent]
                if start < p[2] or end > p[3]:
                    problems.append(f"span {name} lies outside its parent {p[0]}")
                child_time[parent] += end - start
        layers, root_sum, roots = {}, {}, []
        for i, (name, parent, start, end) in enumerate(self.spans):
            own = end - start - child_time[i]
            if own < -1e-9:
                problems.append(f"span {name} has negative self time {own!r}")
            layers[name.split(".")[0]] = layers.get(name.split(".")[0], 0.0) + own
            root = i if parent is None else roots[parent]
            roots.append(root)
            root_sum[root] = root_sum.get(root, 0.0) + own
        for root, total in root_sum.items():
            dur = self.spans[root][3] - self.spans[root][2]
            if abs(total - dur) > 1e-9:
                problems.append(f"self times of {self.spans[root][0]} add to {total!r}, span is {dur!r}")
        return layers, problems

    def dump(self, path):
        keys = ("name", "parent", "start", "end")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([dict(zip(keys, s)) for s in self.spans], fh)


def install_layer_spans(tracer):
    """Wrap the public names each module imports from the layer below."""
    import zenopur.cli as cli
    import zenopur.engine as engine
    import zenopur.trajectories as trajectories

    targets = [
        (engine, "matrix_exponential", "linalg"),
        (engine, "eig_general", "linalg"),
        (trajectories, "matrix_exponential", "linalg"),
        (cli, "run_protocol", "engine"),
        (cli, "projected_evolution", "engine"),
        (cli, "spectral_report", "engine"),
        (cli, "run_shots", "trajectories"),
        (cli, "build_hamiltonian", "model3q"),
    ]
    saved = []
    for module, attr, layer in targets:
        original = getattr(module, attr)
        saved.append((module, attr, original))
        setattr(module, attr, tracer.wrap(f"{layer}.{attr}", original))
    return saved


def digest(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(a.tobytes())
    return h.hexdigest()


class Runner:
    def __init__(self, z, work, spec, arrays, trace):
        import numpy as np

        self.np = np
        self.z = z
        self.work = work
        self.spec = spec
        self.ns = prepare(z, spec, arrays)
        self.v_warm, self.report_warm = warm_up(z, self.ns)
        self.tracer = Tracer() if trace else None
        self.times = {}
        self.probes = {}
        self.arrays = {}
        self.digests = {}
        self.failures = []
        self.problems = []
        self.attempted = 0
        self.failed = 0
        self.texts = {}
        self.api = SimpleNamespace()
        for name, layer in (
            ("run_protocol", "engine"),
            ("projected_evolution", "engine"),
            ("spectral_report", "engine"),
            ("run_shots", "trajectories"),
        ):
            fn = getattr(z, name)
            setattr(self.api, name, self.tracer.wrap(f"{layer}.{name}", fn) if trace else fn)
        if trace:
            import zenopur.cli as cli

            self.cli = cli
            for name in ("load_config", "cmd_run", "cmd_spectrum", "cmd_sweep", "cmd_shots"):
                setattr(self.api, name, self.tracer.wrap(f"cli.{name}", getattr(cli, name)))

    # -- bookkeeping

    def _span(self, name):
        return self.tracer.span(name) if self.tracer else nullcontext()

    def _timed(self, name, fn, count=True):
        if count:
            self.attempted += 1
        with self._span(f"op.{name}"):
            t0 = time.perf_counter()
            out = fn()
            dt = time.perf_counter() - t0
        self.times.setdefault(name, []).append(dt)
        return out

    def _keep(self, name, arrays):
        """Keep the first result and the digest of every repeat; repeats must agree."""
        d = digest(*arrays.values())
        self.digests.setdefault(name, []).append(d)
        if len(self.digests[name]) == 1:
            self.arrays.update({f"{name}.{k}": v for k, v in arrays.items()})

    def _fail(self, name, exc):
        self.failed += 1
        if not any(f.startswith(name + ":") for f in self.failures):
            self.failures.append(f"{name}: {type(exc).__name__}: {exc}")

    # -- operations

    def op_protocol(self):
        ns, spec, np = self.ns, self.spec, self.np
        tr = self._timed(
            "protocol",
            lambda: self.api.run_protocol(
                ns.start, ns.h, spec["tau"], ns.probe, spec["protocol_steps"], target=ns.target
            ),
        )
        self._keep(
            "protocol",
            {
                "P": tr.success_probabilities(),
                "fidelity": tr.fidelities(),
                "trace": np.array([np.trace(s.state.entries).real for s in tr.steps]),
                "final": tr.steps[-1].state.entries,
            },
        )

    def op_scan(self):
        """The tau scan, each point (projected evolution + spectral report) timed alone."""
        ns, np, api = self.ns, self.np, self.api
        self.attempted += 1
        samples = self.times.setdefault("scan_point", [])
        res = []
        with self._span("op.scan"):
            for tau in self.spec["scan_taus"]:
                t0 = time.perf_counter()
                v = api.projected_evolution(ns.h, tau, ns.probe)
                report = api.spectral_report(v, ns.rho_a)
                samples.append(time.perf_counter() - t0)
                res.append((v, report))
        self._keep(
            "scan",
            {
                "V": np.array([v.entries for v, _ in res]),
                "eigenvalues": np.array([r.eigensystem.eigenvalues for _, r in res]),
                "yield": np.array([r.yield_coefficient for _, r in res], dtype=float),
                "unique": np.array([r.dominant_unique for _, r in res]),
            },
        )

    def op_shots(self):
        ns, spec = self.ns, self.spec
        cfg = self.z.ShotConfig(spec["shots"], spec["shot_seed"], spec["shot_steps"])
        res = self._timed("shots", lambda: self.api.run_shots(ns.mixed, ns.h, spec["tau"], ns.probe, cfg))
        self._keep("shots", {"successes": res.successes_at_step, "frequency": res.frequency})

    def op_detuned(self):
        """The known underflow at tau = 2.2 pi: one attempted operation that fails today."""
        ns, spec, np = self.ns, self.spec, self.np
        try:
            tr = self._timed(
                "detuned",
                lambda: self.api.run_protocol(ns.start, ns.h, spec["detuned_tau"], ns.probe, spec["detuned_steps"]),
            )
        except self.z.ZenopurError as exc:
            self._fail("detuned", exc)
            return
        arrays = {"P": tr.success_probabilities(), "final": tr.steps[-1].state.entries}
        if hasattr(tr, "log_success_probabilities"):
            arrays["log_P"] = np.asarray(tr.log_success_probabilities())
        self._keep("detuned", arrays)

    def op_cli(self, cmd):
        """The command as a user runs it: a fresh ``python -m zenopur`` process."""
        spec = self.spec
        out = os.path.join(self.work, f"cli-{cmd}-{self.round}.out")
        argv = [sys.executable, "-m", "zenopur", cmd, "--config", os.path.join(self.work, spec["cli_config"])]
        argv += ["--out", out] + (["--seed", str(spec["cli_seed"])] if cmd == "shots" else [])
        proc = self._timed(
            f"cli_{cmd}",
            lambda: subprocess.run(argv, env=child_env(), capture_output=True, timeout=CHILD_TIMEOUT_S, cwd=ROOT),
        )
        if proc.returncode != 0:
            self._fail(f"cli_{cmd}", RuntimeError(f"exit {proc.returncode}: {proc.stderr.decode()[-500:]}"))
            return
        with open(out, "rb") as fh:
            text = fh.read()
        os.remove(out)
        if self.texts.setdefault(cmd, text) != text:
            self.problems.append(f"cli {cmd}: invocations on the same config gave different bytes")

    # -- traced-only measurements

    def _probe(self, name, fn):
        samples = self.probes.setdefault(name, [])
        spent = 0.0
        while spent < PROBE_BUDGET_S:
            t0 = time.perf_counter()
            fn()
            dt = time.perf_counter() - t0
            samples.append(dt)
            spent += dt

    def layer_probes(self):
        """Single calls of each layer's public functions, untraced."""
        z, ns, spec = self.z, self.ns, self.spec
        tau = spec["tau"]
        a = ns.rho_a.entries
        op_a = z.Operator(a, ns.rho_a.op.factors)
        v = z.projected_evolution(ns.h, tau, ns.probe)
        params = z.ModelParams(1.0, 0.25, 6.283185307179586)  # the README point
        cfg0 = z.ShotConfig(spec["shots"], spec["shot_seed"], 0)
        self._probe("linalg.operator", lambda: z.Operator(a, op_a.factors))
        self._probe("linalg.matrix_exponential", lambda: z.matrix_exponential(ns.h, tau))
        self._probe("linalg.eig_general", lambda: z.eig_general(v))
        self._probe("engine.density_matrix", lambda: z.DensityMatrix(op_a))
        self._probe("engine.fidelity", lambda: z.fidelity(ns.rho_a, ns.target))
        self._probe("engine.protocol_setup", lambda: z.run_protocol(ns.start, ns.h, tau, ns.probe, 0))
        self._probe("engine.projected_evolution", lambda: z.projected_evolution(ns.h, tau, ns.probe))
        self._probe("engine.spectral_report", lambda: z.spectral_report(v, ns.rho_a))
        self._probe("model3q.build_hamiltonian", lambda: z.build_hamiltonian(params))
        self._probe("trajectories.shot_setup", lambda: z.run_shots(ns.mixed, ns.h, tau, ns.probe, cfg0))

    def inprocess_cli(self):
        """The workload's CLI commands in this process, under spans.

        ``sweep`` runs on the README config in every workload, since it
        needs the three-qubit model.
        """
        spec, api = self.spec, self.api
        args = SimpleNamespace(steps=None, out=None, seed=spec["cli_seed"], shots=None)
        path = os.path.join(self.work, spec["cli_config"])
        cfg = self._timed("cli.load_config", lambda: api.load_config(path, "shots", args), count=False)
        sweep_path = os.path.join(self.work, spec["sweep_config"])
        plain = SimpleNamespace(steps=None, out=None, seed=None, shots=None)
        for cmd in dict.fromkeys(spec["cli_commands"] + ["sweep"]):
            if cmd == "sweep":
                call = lambda: api.cmd_sweep(self.cli.load_config(sweep_path, "sweep", plain))  # noqa: E731
            else:
                call = lambda fn=getattr(api, f"cmd_{cmd}"): fn(cfg)  # noqa: E731
            self.texts[f"inprocess-{cmd}"] = self._timed(f"cli.cmd_{cmd}", call, count=False).encode()

    # -- one round

    def plan(self):
        """One round: short operations interleaved with the cold CLI commands."""
        cli = [("cli", c) for c in self.spec["cli_commands"]]
        p, s, scan = ("protocol",), ("shots",), ("scan",)
        if self.spec["workload"] == "bell-paper":
            half = [p, s, cli[0], s, p, scan, cli[1], s, p, s, cli[2], s, cli[3]]
            return half[:11] + [("detuned",)] + half[11:] + half
        return [p, scan, s, cli[0], p, s, cli[1], scan, p, cli[2]]

    def run_round(self, index):
        self.round = index
        saved = install_layer_spans(self.tracer) if self.tracer else []
        try:
            for step in self.plan():
                getattr(self, f"op_{step[0]}")(*step[1:])
            if self.tracer:
                self.inprocess_cli()
                self.tracer.enabled = False
                self.layer_probes()
        finally:
            for module, attr, original in saved:
                setattr(module, attr, original)

    def write(self, setup):
        np, z, ns, spec, work = self.np, self.z, self.ns, self.spec, self.work
        out = {
            **setup,
            "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            "attempted": self.attempted,
            "failed": self.failed,
            "failures": self.failures,
            "problems": self.problems,
            "times": self.times,
            "probes": self.probes,
            "digests": self.digests,
            "texts": sorted(self.texts),
            "zenopur_file": z.__file__,
        }
        if self.tracer:
            out["layer_self"], span_problems = self.tracer.self_times()
            out["problems"] += span_problems
            out["spans"] = len(self.tracer.spans)
            self.tracer.dump(os.path.join(work, f"spans-{self.round}.json"))
        for key, text in self.texts.items():
            with open(os.path.join(work, f"{key}-{self.round}.txt"), "wb") as fh:
                fh.write(text)
        if self.round == 0:
            # Untimed: the paper's second start, for the P -> 1/2 and F -> 1 limits.
            if spec["workload"] == "bell-paper":
                tr = z.run_protocol(ns.mixed, ns.h, spec["tau"], ns.probe, 200, target=ns.target)
                self.arrays["mixed_protocol.P"] = tr.success_probabilities()
                self.arrays["mixed_protocol.fidelity"] = tr.fidelities()
            self.arrays["warm.eigenvalues"] = self.report_warm.eigensystem.eigenvalues
            self.arrays["warm.V"] = self.v_warm.entries
            np.savez(os.path.join(work, "arrays.npz"), **self.arrays)
        with open(os.path.join(work, f"round-{self.round}.json"), "w", encoding="utf-8") as fh:
            json.dump(out, fh)


def main(work, index, trace):
    t0 = time.perf_counter()
    z = import_zenopur()
    t1 = time.perf_counter()
    spec, arrays = load_inputs(work)
    t2 = time.perf_counter()
    runner = Runner(z, work, spec, arrays, trace)
    t3 = time.perf_counter()
    runner.run_round(index)
    runner.write({"import_s": t1 - t0, "setup_s": (t1 - t0) + (t3 - t2)})


if __name__ == "__main__":
    main(sys.argv[1], int(sys.argv[2]), sys.argv[3] == "1")
