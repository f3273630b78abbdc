#!/usr/bin/env python3
"""Wall time, peak memory and exact-identity residuals of a seq1 point, a
seq2 point, a seq1 sweep, an acquire, verify, the ideal seq2/seq1 ratio,
the FID curvature, the seq1 X mirror, three pulses and the microscopic
kernel, by n.

    python3 bench/scale.py [--sizes 8 9 10 11] [--src DIR] [--save FILE]

Each (n, task) runs in a fresh child process on the [100] radius-2 cluster
cut to n sites, with the magicecho package imported from ``--src``
(default: this checkout's src), so the same script measures any checkout.
The tasks are

* ``seq1``: ``experiments.sequence1_amplitude`` at omega1 = gamma * 30 G
  and t1 = 8 half-cycles, on the default 251-sample grid;
* ``seq2``: ``experiments.sequence2_amplitude`` at the seq1 point's omega1
  and t1 on the same grid, where the acquire follows the delay directly;
* ``sweep``: ``experiments.sweep_t1("seq1", ...)`` at the seq1 point's
  omega1 over t1 and 2 t1. The record's value is the amplitude at 2 t1;
* ``acquire``: a program of I_x order and one I_x acquire over the same
  grid, run by ``experiments.run_program``;
* ``verify``: ``engine.verify_average_hamiltonian`` at omega1 = 10 omega_L
  (4 half-cycles) and ``engine.effective_propagator_a3`` over its t1. The
  record's value is err1;
* ``ratio``: the seq1 and seq2 amplitudes under ideal reversal at the
  seq1 point's omega1 and t1. The record's value is |seq2/seq1 - 2|,
  which is exactly 0 in exact arithmetic at every n;
* ``curvature``: ``experiments.fid_values`` at 0, +-h/2 and +-h with
  h = 1e-3 / sqrt(M2). G(t) = 1 - M2 t^2/2 + M4 t^4/24 - ..., so the
  central second difference D(h) is -M2 + M4 h^2/12 + O(h^4), and the
  Richardson value (4 D(h/2) - D(h)) / 3 drops the h^2 term. The record's
  value is |(that + M2) / M2|, and ``uncorrected`` is |(D(h) + M2) / M2|;
* ``mirror``: the seq1 point as a pulse-program text, parsed and run by
  ``experiments.run_program``, and its X mirror (pulses about -y, burst
  phases swapped), whose signal is exactly -s(t) because X = prod sigma^x
  maps the + burst onto the - burst and I_y onto -I_y and leaves H'
  alone. The record's value is max|s + s_mirror| / max|s|;
* ``pulse``: ``engine.evolve`` of ``initial_state("dipolar")`` through
  pulses of pi/4 about y, 0.5 about -x and 0.3 about z, with no acquire.
  A pulse is unitary, so the record's value is |norm(Delta) /
  norm(Delta_0) - 1|, 0 in exact arithmetic;
* ``kernel``: ``thermo.microscopic_kernel`` with 97 lags on
  [0, 6 / sqrt(M2)], the table ``thermo --kernel-from-cluster`` builds by
  default. The record's value is G1(0), ``meta["zero_lag"]``.

The child runs the task cold and times it. If that took under a second,
it runs the task twice more, each time with the eigendecompositions
dropped first, and ``wall_s`` is the median of the three; ``runs`` says
which. The eigendecompositions are then dropped and one more run, under
tracemalloc, gives ``peak_mb`` (traced numpy data; the per-n layout
caches are already built) and ``peak_ops``, the same peak in dense complex
d x d operators of 16 d^2 bytes. ``maxrss_mb`` is the child's peak
resident set. Each record is one JSON line, printed and appended to
``--save``. A last line per task estimates n = MAX_SIZE + 1 from the two
largest sizes (time and peak scaled by their last ratio); it is never run,
and left out where that n exceeds ``operators.MAX_SITES``, which a run
refuses.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
TASKS = ("seq1", "seq2", "sweep", "acquire", "verify", "ratio", "curvature",
         "mirror", "pulse", "kernel")


def child(src: str, n: int, task: str) -> dict:
    sys.path.insert(0, src)
    import time
    import tracemalloc

    import numpy as np
    from magicecho import engine, experiments, pulseprog, thermo
    from magicecho.lattice import (GAMMA_F19, build_cluster, local_field,
                                   second_moment)

    cluster = build_cluster("100", radius=2.0, max_sites=n)
    if len(cluster.couplings) != n:
        raise SystemExit(f"cluster has fewer than {n} sites")
    omega1 = GAMMA_F19 * 30.0
    t1 = 8 * np.pi / omega1
    window, step = 5.0 / local_field(cluster), 0.02 / local_field(cluster)

    grid = f"for {1e6 * window:.12g}us step {1e6 * step:.12g}us\n"

    def signal(text):
        return experiments.run_program(pulseprog.parse(text), cluster).values

    def seq1_signal(y, first, second):
        return signal(f"init dipolar\npulse 90 {y}\nburst {first} 30G 4hc\n"
                      f"burst {second} 30G 4hc\ndelay {0.5e6 * t1:.12g}us\n"
                      f"pulse 45 {y}\nacquire Iy " + grid)

    def run():
        if task == "seq1":
            return experiments.sequence1_amplitude(cluster, omega1, t1)
        if task == "seq2":
            return experiments.sequence2_amplitude(cluster, omega1, t1)
        if task == "sweep":
            return experiments.sweep_t1("seq1", cluster, omega1,
                                        [t1, 2 * t1]).values[-1]
        if task == "verify":
            report = engine.verify_average_hamiltonian(
                cluster, 10.0 * local_field(cluster))
            engine.effective_propagator_a3(cluster, report["omega1"],
                                           report["t1"])
            return report["err1"]
        if task == "ratio":
            seq1, seq2 = (amplitude(cluster, omega1, t1, ideal_reversal=True)
                          for amplitude in (experiments.sequence1_amplitude,
                                            experiments.sequence2_amplitude))
            return abs(seq2 / seq1 - 2.0)
        if task == "curvature":
            m2 = second_moment(cluster)
            h = 1e-3 / np.sqrt(m2)
            g = experiments.fid_values(cluster,
                                       [-h, -0.5 * h, 0.0, 0.5 * h, h])
            d_h = (g[0] - 2.0 * g[2] + g[4]) / h**2
            d_half = (g[1] - 2.0 * g[2] + g[3]) / (0.5 * h)**2
            return {"value": abs((4.0 * d_half - d_h) / 3.0 + m2) / m2,
                    "uncorrected": abs(d_h + m2) / m2}
        if task == "mirror":
            s = seq1_signal("y", "+", "-")
            s_mirror = seq1_signal("-y", "-", "+")
            return np.abs(s + s_mirror).max() / np.abs(s).max()
        if task == "pulse":
            state = engine.initial_state("dipolar", cluster)
            norm0 = np.linalg.norm(state.delta)
            out, _ = engine.evolve(state, cluster, (
                engine.Pulse("y", np.pi / 4), engine.Pulse("-x", 0.5),
                engine.Pulse("z", 0.3)))
            return abs(np.linalg.norm(out.delta) / norm0 - 1.0)
        if task == "kernel":
            tau = np.linspace(0.0, 6.0 / np.sqrt(second_moment(cluster)), 97)
            return thermo.microscopic_kernel(cluster, tau).meta["zero_lag"]
        return float(signal("init ix\nacquire Ix " + grid)[-1])

    def timed():
        engine.EIGENSYSTEMS.clear()
        t0 = time.perf_counter()
        value = run()
        return value, time.perf_counter() - t0

    value, wall = timed()
    walls = [wall]
    if wall < 1.0:   # a short cell reads as the median of three runs
        walls += [timed()[1] for _ in range(2)]
    extra = value if isinstance(value, dict) else {"value": float(value)}
    engine.EIGENSYSTEMS.clear()
    tracemalloc.start()
    run()
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    maxrss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {"n": n, "task": task, "wall_s": float(np.median(walls)),
            "runs": len(walls), "peak_mb": peak / 2**20,
            "peak_ops": peak / (16.0 * 4**n), "maxrss_mb": maxrss, **extra}


def machine() -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get(
        "blas", {})
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": blas.get("name"), "blas_version": blas.get("version"),
            "nproc": os.cpu_count(), "machine": platform.machine()}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--sizes", type=int, nargs="+", default=[8, 9, 10, 11])
    p.add_argument("--src", default=os.path.join(os.path.dirname(HERE), "src"))
    p.add_argument("--save", help="append the JSON lines to this file")
    p.add_argument("--child", nargs=2, metavar=("N", "TASK"),
                   help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    src = os.path.abspath(args.src)
    if args.child:
        print(json.dumps(child(src, int(args.child[0]), args.child[1])))
        return 0
    sys.path.insert(0, src)
    from magicecho.operators import MAX_SITES
    records = []
    info = machine()
    for task in TASKS:
        rows = []
        for n in sorted(args.sizes):
            out = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--src", src,
                 "--child", str(n), task],
                check=True, capture_output=True, text=True).stdout
            rows.append(json.loads(out.splitlines()[-1]))
        if len(rows) >= 2 and rows[-1]["n"] < MAX_SITES:
            last, prev = rows[-1], rows[-2]
            rows.append({"n": last["n"] + 1, "task": task, "estimated": True,
                         **{key: last[key] * last[key] / prev[key]
                            for key in ("wall_s", "peak_mb")}})
        records += rows
    for rec in records:
        rec["machine"] = info
        line = json.dumps(rec)
        print(line)
        if args.save:
            with open(args.save, "a") as fh:
                fh.write(line + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
