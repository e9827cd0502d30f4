"""Benchmark of zenopur's purification loop, end to end and layer by layer.

    python3 bench/run.py --workload bell-paper --seed 1 --seconds 48 --trace 0

Generates the workload's inputs from the seed, computes the independent
oracle, runs timed rounds of the workload's operations, each round in a
fresh worker process, checks every output against the oracle, and prints a run record followed, as the last line, by one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``--trace 0`` reports the end-to-end metrics of
BENCHMARK.json, ``--trace 1`` repeats the workload with spans on and
reports the per-layer metrics.  See bench/README.md.
"""

import os

# One BLAS thread in this process and, through the environment, in every
# process it starts.  Set before numpy loads.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_ENV)

import argparse  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_LIMIT_S = 170  # the whole run, inputs and checks included
MIN_ROUNDS = 2  # two cold invocations of each CLI command are compared byte for byte


def run_round(work, index, trace, timeout):
    argv = [sys.executable, os.path.join(HERE, "worker.py"), work, str(index), str(int(trace))]
    proc = subprocess.Popen(
        argv, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, start_new_session=True
    )
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RuntimeError(f"round {index} did not finish within {timeout:.0f} s")
    if proc.returncode != 0:
        raise RuntimeError(f"round {index} exited with {proc.returncode}:\n{out[-2000:]}{err[-4000:]}")
    with open(os.path.join(work, f"round-{index}.json"), encoding="utf-8") as fh:
        return json.load(fh)


def run_rounds(work, seconds, trace, deadline):
    """Rounds in fresh processes until the next one would end past ``seconds``.

    A round starts while its expected end, at the mean round length so
    far, lies less than half a round beyond ``seconds``.
    """
    start = time.perf_counter()
    rounds = []
    while True:
        rounds.append(run_round(work, len(rounds), trace, deadline - time.perf_counter()))
        elapsed = time.perf_counter() - start
        mean = elapsed / len(rounds)
        if len(rounds) >= MIN_ROUNDS and (elapsed + mean / 2 > seconds or time.perf_counter() + mean > deadline):
            return rounds, elapsed


def merge(work, rounds, workload, trace):
    """One run's worth of samples from its rounds, and what the rounds disagree on."""
    res = {"times": {}, "probes": {}, "layer_self": {}, "problems": [], "failures": []}
    for r in rounds:
        for key in ("times", "probes"):
            for name, samples in r[key].items():
                res[key].setdefault(name, []).extend(samples)
        for layer, own in r.get("layer_self", {}).items():
            res["layer_self"].setdefault(layer, []).append(own)
        res["problems"] += r.get("problems", [])
        res["failures"] += [f for f in r["failures"] if f not in res["failures"]]
    for key in ("attempted", "failed"):
        res[key] = sum(r[key] for r in rounds)
    res["setup"] = [{"setup_s": r["setup_s"], "import_s": r["import_s"]} for r in rounds]
    res["rss_kb"] = [r["rss_kb"] for r in rounds]
    res["zenopur_file"] = rounds[0]["zenopur_file"]
    for name in rounds[0]["digests"]:
        if len({d for r in rounds for d in r["digests"][name]}) > 1:
            res["problems"].append(f"{name}: results differ between repeats on the same inputs")
    texts = {}
    for key in rounds[0]["texts"]:
        outputs = set()
        for i in range(len(rounds)):
            with open(os.path.join(work, f"{key}-{i}.txt"), "rb") as fh:
                outputs.add(fh.read())
        if len(outputs) > 1:
            res["problems"].append(f"cli {key}: invocations on the same config gave different bytes")
        texts[key] = outputs.pop()
    if trace:
        res["spans"] = sum(r["spans"] for r in rounds)
        spans = []
        for i in range(len(rounds)):
            with open(os.path.join(work, f"spans-{i}.json"), encoding="utf-8") as fh:
                spans.append(json.load(fh))
        with open(os.path.join(os.path.dirname(work), f"trace-{workload}.json"), "w", encoding="utf-8") as fh:
            json.dump({"rounds": spans}, fh)
    return res, texts


# ----------------------------------------------------------------- checks


def verify(spec, ref, arr, texts):
    """All oracle and property checks of one run; returns the problems found."""
    bell = spec["workload"] == "bell-paper"
    p = []
    # conditional protocol
    p += checks.close("protocol P", arr["protocol.P"], ref["protocol"]["P"])
    p += checks.nonincreasing("protocol P", arr["protocol.P"])
    p += checks.unit_traces("protocol", arr["protocol.trace"])
    p += checks.close("protocol fidelity", arr["protocol.fidelity"], ref["protocol"]["fidelity"], rtol=0, atol=1e-9)
    p += checks.close("protocol final state", arr["protocol.final"], ref["protocol"]["final"], rtol=0, atol=1e-9)
    # tau scan
    for k, want in enumerate(ref["scan"]):
        tag = f"scan point {k}"
        p += checks.close(f"{tag} V", arr["scan.V"][k], want["V"], rtol=0, atol=1e-10)
        p += checks.contraction(tag, arr["scan.V"][k])
        p += checks.same_spectrum(tag, arr["scan.eigenvalues"][k], want["eigenvalues"])
        if want["well_conditioned"]:
            p += checks.close(f"{tag} yield", arr["scan.yield"][k], want["yield"], rtol=1e-6, atol=1e-9)
        if bell:
            p += checks.contains(f"{tag} singlet", arr["scan.eigenvalues"][k], ref["singlet"][k])
    # shots
    succ, freq = arr["shots.successes"], arr["shots.frequency"]
    p += checks.close("shots frequency", freq, succ / spec["shots"])
    p += checks.nonincreasing("shots survivors", succ, rtol=0.0)
    p += checks.binomial("shots", freq, ref["shots"]["P"], spec["shots"])
    # the operator at the workload's own tau
    p += checks.close("V", arr["warm.V"], ref["spectrum"]["V"], rtol=0, atol=1e-10)
    p += checks.same_spectrum("V", arr["warm.eigenvalues"], ref["spectrum"]["eigenvalues"])
    if bell:
        p += checks.same_spectrum("closed-form spectrum", arr["warm.eigenvalues"], ref["closed_form"], atol=1e-9)
        for start in ("protocol", "mixed_protocol"):
            p += checks.close(f"{start} P(N) -> 1/2", arr[f"{start}.P"][-1], 0.5, rtol=0, atol=1e-9)
            p += checks.close(f"{start} F(N) -> 1", arr[f"{start}.fidelity"][-1], 1.0, rtol=0, atol=1e-9)
        p += verify_detuned(ref["detuned"], arr)
    # CLI, cold and (traced runs) in-process
    shots = workloads.README["shots"]["shots"] if bell else spec["shots"]
    for cmd in spec["cli_commands"] + ["sweep"]:
        for key in (cmd, f"inprocess-{cmd}"):
            if key not in texts:
                continue
            if key != cmd and cmd in texts and texts[key] != texts[cmd]:
                p.append(f"cli {cmd}: in-process output differs from the cold command's bytes")
            text = texts[key].decode()
            if cmd == "run":
                p += checks.cli_run(text, ref["protocol"]["P"], ref["protocol"]["fidelity"])
            elif cmd == "spectrum":
                flags = dict.fromkeys(("tuning_ok", "probe_ok", "coupling_ok"), True) if bell else None
                p += checks.cli_spectrum(text, ref["spectrum"], flags)
            elif cmd == "sweep":
                p += checks.cli_sweep(text, ref["sweep"]["rows"])
            else:
                p += checks.cli_shots(text, ref["protocol"]["P"], shots)
    return p


def verify_detuned(ref, arr):
    """Checks of the tau = 2.2 pi run, for the day it no longer fails."""
    if "detuned.P" not in arr:
        return []
    p = checks.nonincreasing("detuned P", arr["detuned.P"])
    p += checks.underflow_aware("detuned", arr["detuned.P"], ref["log_p"], arr.get("detuned.log_P"))
    if ref["well_conditioned"]:
        r0 = ref["dominant"]
        fid = float(np.real(r0.conj() @ arr["detuned.final"] @ r0))
        p += checks.close("detuned fidelity to the dominant eigenvector", fid, 1.0, rtol=0, atol=1e-6)
    return p


# ----------------------------------------------------------------- metrics


def end_to_end(spec, res):
    t = {k: statistics.median(v) for k, v in res["times"].items()}
    return {
        "setup_s": statistics.median(s["setup_s"] for s in res["setup"]),
        "cli_cold_s": sum(t[f"cli_{c}"] for c in spec["cli_commands"]),
        "protocol_steps_per_s": spec["protocol_steps"] / t["protocol"],
        "scan_points_per_s": 1.0 / t["scan_point"],
        "shot_steps_per_s": spec["shots"] * (spec["shot_steps"] + 1) / t["shots"],
        "peak_rss_mb": statistics.median(res["rss_kb"]) / 1024.0,
    }


def draws_used_ratio(spec, successes):
    """Uniforms consumed by live shots over uniforms drawn.

    Each shot draws one uniform for its ensemble member and one per
    measurement; a shot dead before step n never uses its draw for n.
    """
    shots, steps = spec["shots"], spec["shot_steps"]
    used = 2 * shots + int(np.sum(successes[:steps]))
    return used / (shots * (steps + 2))


def per_layer(spec, res, arr):
    med = statistics.median
    t = {k: med(v) for k, v in res["times"].items()}
    pr = {k: med(v) for k, v in res["probes"].items()}
    own = {k: med(v) for k, v in res["layer_self"].items()}
    m = {
        "package.import_s": med(s["import_s"] for s in res["setup"]),
        "cli.load_config_s": t["cli.load_config"],
        "cli.self_s": own["cli"],
        "linalg.self_s": own["linalg"],
        "engine.self_s": own["engine"],
        "trajectories.self_s": own["trajectories"],
        "engine.protocol_step_s": (t["protocol"] - pr["engine.protocol_setup"]) / spec["protocol_steps"],
        "trajectories.shot_step_s": (t["shots"] - pr["trajectories.shot_setup"]) / spec["shot_steps"],
        "trajectories.draws_used_ratio": draws_used_ratio(spec, arr["shots.successes"]),
    }
    for cmd in ("run", "spectrum", "sweep", "shots"):
        m[f"cli.cmd_{cmd}_s"] = t[f"cli.cmd_{cmd}"]
    for name, value in pr.items():
        m[f"{name}_s"] = value
    return m


# ----------------------------------------------------------------- record


def blas_threads():
    """Threads the loaded OpenBLAS reports, or None where it cannot be asked."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
        for lib in libs:
            dll = ctypes.CDLL(lib)
            for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
                if hasattr(dll, sym):
                    return int(getattr(dll, sym)())
    except OSError:
        pass
    return None


def machine():
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        openblas = None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": openblas,
        "blas_threads_env": BLAS_ENV,
        "blas_threads_runtime": blas_threads(),
    }


def src_lines():
    total = 0
    for path in sorted(glob.glob(os.path.join(ROOT, "src", "zenopur", "*.py"))):
        with open(path, "rb") as fh:
            total += fh.read().count(b"\n")
    return total


def rounded(metrics):
    return {k: float(f"{v:.6g}") for k, v in metrics.items()}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.MAKERS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    started = time.perf_counter()
    if not os.path.isfile(os.path.join(ROOT, "src", "zenopur", "__init__.py")):
        print(f"bench: no zenopur package under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    kind = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in bench[kind]}

    work = os.path.join(ROOT, ".bench_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work)
    try:
        spec = workloads.write_inputs(args.workload, args.seed, work)
        ref = workloads.oracle(spec)
        prepared = time.perf_counter() - started
        rounds, elapsed = run_rounds(work, args.seconds, args.trace, started + RUN_LIMIT_S)
        res, texts = merge(work, rounds, args.workload, args.trace)
        with np.load(os.path.join(work, "arrays.npz")) as npz:
            arr = {k: npz[k] for k in npz.files}
        problems = res["problems"] + verify(spec, ref, arr, texts)
        e2e = end_to_end(spec, res)
        metrics = per_layer(spec, res, arr) if args.trace else e2e
    finally:
        shutil.rmtree(work, ignore_errors=True)

    missing = sorted(set(units) - set(metrics))
    if missing:
        raise SystemExit(f"bench: metrics not measured: {missing}")
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "rounds": len(rounds),
        "measured_s": round(elapsed, 3),
        "inputs_and_oracle_s": round(prepared, 3),
        "attempted": res["attempted"],
        "failed": res["failed"],
        "failures": res["failures"],
        "samples_s": {
            k: {"n": len(v), "min": min(v), "median": statistics.median(v), "max": max(v)}
            for k, v in res["times"].items()
        },
        "machine": machine(),
        "src_zenopur_lines": src_lines(),
        "zenopur": res["zenopur_file"],
        "problems": problems,
    }
    if args.trace:
        record["end_to_end_traced"] = rounded(e2e)
        record["spans"] = res["spans"]
    for key, value in record.items():
        print(f"{key}: {json.dumps(value)}")
    for name, value in metrics.items():
        print(f"metric {name} = {value:.6g} {units.get(name, '')}")
    for problem in problems:
        print(f"bench: check failed: {problem}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
