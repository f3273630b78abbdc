"""Output checks for benchmark jobs.

Every job's CSV must pass seed-independent invariants: every value finite,
row counts that match the requested grid, flat ideal-reversal sweeps, and
converged thermo trajectories that start at beta = 1. For the default seed
each CSV is also compared with reference values captured from the program
at the commit that introduced the benchmark.

The CSV reader here is independent of magicecho's own, so a writer defect
cannot hide behind a matching reader defect.
"""

from __future__ import annotations

import bisect
import json
import math
import os

RTOL = 1e-5
"""Reference tolerance: |value - reference| <= RTOL * max(|reference column|, 1).

Loose enough for a refactor that reorders floating-point sums or changes
the thermo step refinement (whose own convergence tolerance is 1e-6), tight
enough to catch a wrong sign, factor or time base.
"""

FLAT_RTOL = 1e-9
REFERENCE_POINTS = 32
REFERENCE_FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              "reference.json")


def read_csv(path: str):
    """(meta, columns) of a magicecho CSV: '# key=value' lines, header, rows."""
    meta, names, rows = {}, None, []
    with open(path, "r") as fh:
        for line in fh:
            line = line.rstrip("\n")
            if not line:
                continue
            if line.startswith("#"):
                key, _, value = line[1:].strip().partition("=")
                meta[key] = value
            elif names is None:
                names = line.split(",")
            else:
                values = [float(tok) for tok in line.split(",")]
                if len(values) != len(names):
                    raise ValueError(f"row {len(rows) + 1} has {len(values)} "
                                     f"fields, header has {len(names)}")
                rows.append(values)
    if names is None:
        raise ValueError("no header row")
    columns = {name: [row[k] for row in rows] for k, name in enumerate(names)}
    return meta, columns


def _thermo_problems(job, meta, cols) -> list[str]:
    exp = job.expect
    ycols = (("model_amplitude", "ideal_amplitude") if exp["divergence"]
             else ("beta",))
    if list(cols) != ["t1_us", *ycols]:
        return [f"columns {list(cols)}, expected {['t1_us', *ycols]}"]
    t = cols["t1_us"]
    out = []
    n0 = max(2, math.ceil(exp["t_end_us"] / exp["step_us"] - 1e-12))
    intervals = len(t) - 1
    halvings = math.log2(intervals / n0) if intervals >= n0 else -1.0
    if halvings < 1 or halvings != int(halvings):
        out.append(f"{len(t)} rows is not {n0} * 2^k + 1 for k >= 1")
    if t[0] != 0.0 or abs(t[-1] - exp["t_end_us"]) > 1e-9 * exp["t_end_us"]:
        out.append(f"t1 grid runs {t[0]}..{t[-1]}, "
                   f"expected 0..{exp['t_end_us']}")
    if exp["divergence"]:
        if cols["model_amplitude"][0] != 1.0:
            out.append("model amplitude does not start at 1")
        if any(v != 1.0 for v in cols["ideal_amplitude"]):
            out.append("ideal amplitude is not identically 1")
    else:
        if meta.get("converged") != "True":
            out.append(f"converged={meta.get('converged')}")
        if cols["beta"][0] != 1.0:
            out.append(f"beta(0) = {cols['beta'][0]}, expected 1")
        if meta.get("refinements") != str(int(halvings)):
            out.append(f"refinements={meta.get('refinements')} but the grid "
                       f"has {halvings:g} halvings")
    return out


def invariant_problems(job, path: str) -> list[str]:
    """Seed-independent checks on one job's CSV; empty when it passes."""
    try:
        meta, cols = read_csv(path)
    except (OSError, ValueError) as exc:
        return [f"unreadable output: {exc}"]
    values = [v for col in cols.values() for v in col]
    if not values:
        return ["no data rows"]
    if not all(math.isfinite(v) for v in values):
        return ["non-finite values"]
    exp = job.expect
    if "t_end_us" in exp:
        return _thermo_problems(job, meta, cols)
    out = []
    rows = len(next(iter(cols.values())))
    if rows != exp["rows"]:
        out.append(f"{rows} rows, expected {exp['rows']}")
    x = next(iter(cols.values()))
    if any(b <= a for a, b in zip(x, x[1:])):
        out.append("abscissa is not strictly increasing")
    if exp.get("flat"):
        amp = cols["amplitude"]
        if max(amp) - min(amp) > FLAT_RTOL * max(abs(v) for v in amp):
            out.append(f"ideal-reversal amplitudes are not flat: {amp}")
    return out


def sample(path: str) -> dict:
    """Reference record: every column at REFERENCE_POINTS spread rows."""
    _, cols = read_csv(path)
    names = list(cols)
    n = len(cols[names[0]])
    idx = sorted({round(k * (n - 1) / (REFERENCE_POINTS - 1))
                  for k in range(REFERENCE_POINTS)})
    return {"x": names[0], "rows": n,
            "columns": {name: [cols[name][i] for i in idx] for name in names}}


def _interp(xs, ys, x):
    k = bisect.bisect_left(xs, x)
    if k < len(xs) and xs[k] == x:
        return ys[k]
    if k == 0 or k == len(xs):
        return math.nan
    w = (x - xs[k - 1]) / (xs[k] - xs[k - 1])
    return ys[k - 1] + w * (ys[k] - ys[k - 1])


def reference_problems(ref: dict, path: str) -> list[str]:
    """Compare a CSV with its reference record within RTOL."""
    _, cols = read_csv(path)
    if list(cols) != list(ref["columns"]):
        return [f"columns {list(cols)}, reference has {list(ref['columns'])}"]
    x = cols[ref["x"]]
    ref_x = ref["columns"][ref["x"]]
    tol_x = RTOL * max(max(abs(v) for v in ref_x), 1.0)
    if abs(x[0] - ref_x[0]) > tol_x or abs(x[-1] - ref_x[-1]) > tol_x:
        return [f"{ref['x']} spans {x[0]}..{x[-1]}, "
                f"reference {ref_x[0]}..{ref_x[-1]}"]
    out = []
    for name, ref_vals in ref["columns"].items():
        if name == ref["x"]:
            continue
        tol = RTOL * max(max(abs(v) for v in ref_vals), 1.0)
        worst = max(abs(_interp(x, cols[name], xr) - vr)
                    for xr, vr in zip(ref_x, ref_vals))
        if not worst <= tol:
            out.append(f"{name} differs from the reference by {worst:.3g} "
                       f"(tolerance {tol:.3g})")
    return out


def load_reference() -> dict:
    with open(REFERENCE_FILE, "r") as fh:
        return json.load(fh)
