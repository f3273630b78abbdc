"""magicecho benchmark: seeded CLI workloads timed from outside.

    python3 perfbench/run.py --workload sweep|program|thermo|all \\
        [--seed N] [--seconds S] [--trace 0|1] [--save RESULTS.jsonl]
    python3 perfbench/run.py --compare A.jsonl B.jsonl
    python3 perfbench/run.py --capture-reference

Each job is a fresh ``python3 -m magicecho.cli`` process built from the
checkout's ``src``; one job runs at a time (closed loop, one client). The
workload's job list is cycled until ``--seconds`` have passed, and the
figures are medians per job slot. The last stdout
line is one JSON object: correct, attempted, failed and the metrics (the
end-to-end set untraced, the per-layer set with ``--trace 1``). See
NOTES.md for what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

import outputs
import tracer
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")

SETUP_PROBES_PER_PASS = 2
RUN_LIMIT_S = 120      # start no new pass or traced pair after this
HARD_LIMIT_S = 150     # kill a job still running this long into the run
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")

END_TO_END = {"wall_s": "s", "job_p50_s": "s", "peak_rss_mb": "MB",
              "setup_s": "s"}
PER_LAYER = {
    "operators.self_s": "s", "operators.calls": "count",
    "operators.repeat_ratio": "ratio", "operators.matrix_bytes": "bytes",
    "engine.self_s": "s", "engine.evolve_calls": "count",
    "engine.acquire_samples": "count", "engine.us_per_sample": "us",
    "engine.max_dim": "count", "engine.hamiltonian_repeat_ratio": "ratio",
    "linalg.eigh_calls": "count", "linalg.eigh_s": "s",
    "thermo.self_s": "s", "thermo.solves": "count", "thermo.passes": "count",
    "thermo.grid_points": "count", "thermo.kernel_s": "s",
    "output.self_s": "s", "output.rows": "count", "output.bytes": "bytes",
    "pulseprog.self_s": "s", "pulseprog.calls": "count",
    "experiments.self_s": "s", "experiments.points": "count",
    "lattice.self_s": "s", "lattice.calls": "count", "cli.self_s": "s",
    "trace.overhead_s": "s",
}


class JobTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise JobTimeout


def spawn(argv, env, stderr_path, timeout):
    """Run one child to completion: (wall seconds, exit code, max RSS MB).

    A child still running after `timeout` seconds is killed.
    """
    with open(stderr_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=WORK, env=env,
                                stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
    signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, max(timeout, 0.01))
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except JobTimeout:
        proc.kill()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage.ru_maxrss / 1024.0


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    return env


def machine_block() -> dict:
    """Interpreter, numpy, BLAS and thread settings the numbers came from."""
    import numpy
    blas = {}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):   # numpy without the dicts mode
        pass
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count()
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "blas": blas.get("name", "unknown"),
            "blas_version": blas.get("version", "unknown"),
            "nproc": cpus, "machine": platform.machine(),
            "threads_env": {k: os.environ.get(k) for k in THREAD_VARS}}


def _import_self_s(stderr_path: str) -> dict:
    """Per-layer own import seconds from a child's -X importtime report."""
    out = {}
    with open(stderr_path, "r", errors="replace") as fh:
        for line in fh:
            if not line.startswith("import time:"):
                continue
            fields = line.split("|")
            name = fields[-1].strip()
            if name.startswith("magicecho."):
                out[name.split(".", 1)[1]] = int(fields[0].split(":")[1]) * 1e-6
    return out


class Run:
    """One benchmark run of one workload."""

    def __init__(self, workload: str, seed: int, reference=None):
        self.workload = workload
        self.jobs = workloads.jobs_for(workload, seed)
        self.env = child_env()
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.problems = []        # (slot, message)
        self.walls = {False: {}, True: {}}   # traced -> slot -> job walls
        self.setup_walls = []
        self.peak_rss = 0.0
        self.deadline = time.monotonic() + HARD_LIMIT_S
        for job in self.jobs:
            for name, text in job.files.items():
                with open(os.path.join(WORK, name), "w") as fh:
                    fh.write(text)

    def probe_setup(self, timed: bool = True) -> None:
        """One fresh `magicecho --version`: interpreter, numpy and imports."""
        err = os.path.join(WORK, "version.err")
        wall, code, _ = spawn(
            [sys.executable, "-m", "magicecho.cli", "--version"], self.env, err,
            self.deadline - time.monotonic())
        if code != 0:
            raise RuntimeError(f"magicecho --version failed: {_tail(err)}")
        if timed:
            self.setup_walls.append(wall)

    def run_job(self, job, traced: bool):
        """Run and check one job; returns its trace summary when traced."""
        out = os.path.join(WORK, job.out)
        for stale in (out, out + ".manifest.json"):
            if os.path.exists(stale):
                os.unlink(stale)
        err = os.path.join(WORK, job.slot + ".err")
        summary_path = os.path.join(WORK, job.slot + ".trace.json")
        if traced:
            argv = [sys.executable, "-X", "importtime",
                    os.path.join(HERE, "tracer.py"), summary_path]
        else:
            argv = [sys.executable, "-m", "magicecho.cli"]
        self.attempted += 1
        if time.monotonic() >= self.deadline:
            self.failed += 1
            self.problems.append((job.slot, "not run: time limit reached"))
            return None
        wall, code, rss = spawn(argv + list(job.argv), self.env, err,
                                self.deadline - time.monotonic())
        self.walls[traced].setdefault(job.slot, []).append(wall)
        if not traced:
            self.peak_rss = max(self.peak_rss, rss)
        found = self.check(job, code, out, err)
        self.failed += bool(found)
        self.problems += [(job.slot, msg) for msg in found]
        if not traced or found:
            return None
        with open(summary_path) as fh:
            summary = json.load(fh)
        summary["wall_s"] = wall
        for layer, sec in _import_self_s(err).items():
            summary["self_s"][layer] = summary["self_s"].get(layer, 0.0) + sec
        return summary

    def slot_medians(self, traced: bool) -> list[float]:
        return [statistics.median(w) for w in self.walls[traced].values()]

    def check(self, job, code, out, err) -> list[str]:
        if code != 0:
            return [f"exit code {code}: {_tail(err)}"]
        found = outputs.invariant_problems(job, out)
        if not found and self.reference is not None:
            key = f"{self.workload}/{job.slot}"
            if key not in self.reference:
                return [f"no reference record {key}"]
            found = outputs.reference_problems(self.reference[key], out)
        return found


def _tail(path: str, limit: int = 300) -> str:
    try:
        with open(path, "r", errors="replace") as fh:
            text = fh.read().strip()
    except OSError:
        return ""
    return text[-limit:]


def layer_metrics(summaries: list[dict]) -> dict:
    """Per-layer metrics of one traced pass (sums over its jobs)."""
    self_s = {}
    counts = {}
    for s in summaries:
        for layer, sec in s["self_s"].items():
            self_s[layer] = self_s.get(layer, 0.0) + sec
        for key, n in s["counts"].items():
            counts[key] = counts.get(key, 0) + n

    def ratio(num, den):
        return counts.get(num, 0) / counts[den] if counts.get(den) else 0.0

    m = {f"{layer}.self_s": self_s.get(layer, 0.0) for layer in tracer.LAYERS}
    m.update({key: counts.get(key, 0) for key, unit in PER_LAYER.items()
              if unit in ("count", "bytes")})
    m["operators.repeat_ratio"] = ratio("operators_repeats",
                                        "operators_builds")
    m["engine.hamiltonian_repeat_ratio"] = ratio("hamiltonian_repeats",
                                                 "hamiltonian_builds")
    samples = counts.get("engine.acquire_samples", 0)
    m["engine.us_per_sample"] = (m["engine.self_s"] / samples * 1e6
                                 if samples else 0.0)
    m["engine.max_dim"] = max((s["max_dim"] for s in summaries), default=0)
    m["linalg.eigh_s"] = self_s.get("linalg", 0.0)
    m["thermo.kernel_s"] = sum(s["kernel_s"] for s in summaries)
    return m


def run_workload(workload: str, seed: int, seconds: float, trace: bool):
    """Measure one workload for `seconds`; returns (result, detail).

    Untraced, the job list is cycled in order, one job at a time, until
    `seconds` have passed (the first pass always completes); wall_s is the
    sum over slots of each slot's median job wall. Traced, whole untraced
    and traced passes alternate while another pair fits in `seconds`, and
    the per-layer figures are medians over traced passes. Each pass starts with SETUP_PROBES_PER_PASS
    `--version` probes, so setup_s samples the whole run.
    """
    reference = None
    if seed == workloads.DEFAULT_SEED:
        reference = outputs.load_reference()["jobs"]
    run = Run(workload, seed, reference)
    run.probe_setup(timed=False)    # writes bytecode caches on a fresh tree
    n = len(run.jobs)
    start = time.monotonic()
    limit = min(seconds, RUN_LIMIT_S)
    passes, traced_metrics, k, pass_s = 0, [], 0, 0.0
    while k < n or (time.monotonic() - start + pass_s < limit
                    and time.monotonic() < run.deadline):
        if k % n == 0:
            passes += 1
            for _ in range(SETUP_PROBES_PER_PASS):
                run.probe_setup()
        if trace:
            # a traced pair is long: start one only if it ends in time
            t0 = time.monotonic()
            for job in run.jobs:
                run.run_job(job, traced=False)
            summaries = [run.run_job(job, traced=True) for job in run.jobs]
            if None not in summaries:
                traced_metrics.append(layer_metrics(summaries))
            k += n
            pass_s = time.monotonic() - t0
        else:
            run.run_job(run.jobs[k % n], traced=False)
            k += 1
    detail = {"passes": passes, "jobs_per_pass": n,
              "failed_ratio": run.failed / run.attempted,
              "problems": run.problems}
    if trace:
        metrics = {}
        if traced_metrics:
            metrics = {key: statistics.median(m[key] for m in traced_metrics)
                       for key in traced_metrics[0]}
        metrics["trace.overhead_s"] = (sum(run.slot_medians(True))
                                       - sum(run.slot_medians(False)))
        units = PER_LAYER
    else:
        medians = run.slot_medians(False)
        metrics = {"wall_s": sum(medians),
                   "job_p50_s": statistics.median(medians),
                   "peak_rss_mb": run.peak_rss,
                   "setup_s": statistics.median(run.setup_walls)}
        units = END_TO_END
    result = {"correct": not run.problems and set(metrics) == set(units),
              "attempted": run.attempted, "failed": run.failed,
              "metrics": {key: {"value": metrics[key], "unit": units[key]}
                          for key in units if key in metrics}}
    return result, detail


def print_report(workload, seed, trace, result, detail):
    print(f"workload {workload}  seed {seed}  trace {int(trace)}  "
          f"passes {detail['passes']} x {detail['jobs_per_pass']} jobs")
    for name, m in result["metrics"].items():
        print(f"  {name:34s} {m['value']:>16.6g} {m['unit']}")
    print(f"  {'failed_ratio':34s} {detail['failed_ratio']:>16.6g} ratio "
          f"({result['failed']} of {result['attempted']})")
    for slot, msg in detail["problems"][:20]:
        print(f"  FAILED {slot}: {msg}")


def compare(path_a: str, path_b: str) -> int:
    """Side-by-side median and quartiles per (workload, metric)."""
    def load(path):
        groups = {}
        with open(path) as fh:
            for line in fh:
                if line.strip():
                    rec = json.loads(line)
                    for name, m in rec["metrics"].items():
                        key = (rec["workload"], name, m["unit"])
                        groups.setdefault(key, []).append(m["value"])
        return groups

    def stats(values):
        if not values:
            return "-"
        med = statistics.median(values)
        if len(values) < 2:
            return f"{med:.6g} (n=1)"
        q1, _, q3 = statistics.quantiles(values, n=4)
        return f"{med:.6g} [{q1:.6g}, {q3:.6g}] n={len(values)}"

    a, b = load(path_a), load(path_b)
    print(f"{'workload':9s} {'metric':32s} {'unit':6s} "
          f"{'A: median [q1, q3]':40s} {'B: median [q1, q3]':40s} B/A")
    for key in sorted(set(a) | set(b)):
        va, vb = a.get(key, []), b.get(key, [])
        rel = "-"
        if va and vb and statistics.median(va):
            rel = f"{statistics.median(vb) / statistics.median(va):.4f}"
        print(f"{key[0]:9s} {key[1]:32s} {key[2]:6s} "
              f"{stats(va):40s} {stats(vb):40s} {rel}")
    return 0


def capture_reference() -> int:
    """Record reference samples of every default-seed job's output."""
    records = {}
    for workload in workloads.WORKLOADS:
        run = Run(workload, workloads.DEFAULT_SEED)
        for job in run.jobs:
            run.run_job(job, traced=False)
        if run.problems:
            for slot, msg in run.problems:
                print(f"FAILED {workload}/{slot}: {msg}", file=sys.stderr)
            return 1
        for job in run.jobs:
            records[f"{workload}/{job.slot}"] = outputs.sample(
                os.path.join(WORK, job.out))
    with open(outputs.REFERENCE_FILE, "w") as fh:
        json.dump({"seed": workloads.DEFAULT_SEED, "rtol": outputs.RTOL,
                   "jobs": records}, fh, indent=1)
        fh.write("\n")
    print(f"wrote {len(records)} records to {outputs.REFERENCE_FILE}")
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=(*workloads.WORKLOADS, "all"))
    p.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=36.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--save", metavar="RESULTS.jsonl",
                   help="append each workload's result and machine block")
    p.add_argument("--compare", nargs=2, metavar=("A.jsonl", "B.jsonl"))
    p.add_argument("--capture-reference", action="store_true")
    args = p.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if not os.path.isfile(os.path.join(SRC, "magicecho", "cli.py")):
        print(f"error: no magicecho sources under {SRC}", file=sys.stderr)
        return 2
    if not (args.workload or args.capture_reference):
        p.error("--workload is required")
    shutil.rmtree(WORK, ignore_errors=True)
    os.makedirs(WORK)
    try:
        if args.capture_reference:
            return capture_reference()
        names = (workloads.WORKLOADS if args.workload == "all"
                 else (args.workload,))
        machine = machine_block()
        combined = {"correct": True, "attempted": 0, "failed": 0,
                    "metrics": {}}
        for name in names:
            result, detail = run_workload(name, args.seed, args.seconds,
                                          bool(args.trace))
            print_report(name, args.seed, args.trace, result, detail)
            if args.save:
                with open(args.save, "a") as fh:
                    fh.write(json.dumps({
                        "workload": name, "seed": args.seed,
                        "trace": args.trace, "seconds": args.seconds,
                        **result, "failed_ratio": detail["failed_ratio"],
                        "machine": machine}) + "\n")
            combined["correct"] &= result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            prefix = f"{name}." if len(names) > 1 else ""
            for metric, m in result["metrics"].items():
                combined["metrics"][prefix + metric] = m
        print("machine " + json.dumps(machine, sort_keys=True))
        print(json.dumps(combined))
        return 0
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(WORK, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
