"""Self-checks of the benchmark: generator, output checks, tracer accounting.

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

import json
import math
import os
import sys

import pytest

import outputs
import run
import workloads

sys.path.insert(0, run.SRC)
from magicecho.cli import build_parser  # noqa: E402

SEEDS = (workloads.DEFAULT_SEED, 2, 17, 2024)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generated_argv_parses(workload):
    parser, _ = build_parser()
    for seed in SEEDS:
        for job in workloads.jobs_for(workload, seed):
            args = parser.parse_args(list(job.argv))
            assert args.out == job.out


def test_generator_is_seeded():
    for workload in workloads.WORKLOADS:
        assert workloads.jobs_for(workload, 5) == workloads.jobs_for(workload, 5)
        assert workloads.jobs_for(workload, 5) != workloads.jobs_for(workload, 6)


def test_negative_directions_are_generated():
    # the '=' spelling is what lets a leading '-' through argparse
    values = [tok.split("=", 1)[1]
              for seed in range(20) for w in workloads.WORKLOADS
              for job in workloads.jobs_for(w, seed) for tok in job.argv
              if tok.startswith(("--orientation=", "--kernel-from-cluster="))]
    assert any(v.startswith("-") for v in values)


def test_work_setting_inputs_are_fixed_per_slot():
    for workload in workloads.WORKLOADS:
        slots = [[(j.slot, j.expect.get("rows"), j.expect.get("divergence")
                   is not None) for j in workloads.jobs_for(workload, s)]
                 for s in SEEDS]
        assert all(s == slots[0] for s in slots)


def _write(path, text):
    with open(path, "w") as fh:
        fh.write(text)
    return str(path)


def test_invariants_reject_bad_outputs(tmp_path):
    ideal = workloads.Job("seq1-ideal", (), expect={"rows": 3, "flat": True})
    good = _write(tmp_path / "good.csv", "# label=x\nt1_us,amplitude\n"
                  "1,5\n2,5\n3,5\n")
    assert outputs.invariant_problems(ideal, good) == []
    sloped = _write(tmp_path / "sloped.csv", "t1_us,amplitude\n1,5\n2,5\n3,4\n")
    assert outputs.invariant_problems(ideal, sloped)
    short = _write(tmp_path / "short.csv", "t1_us,amplitude\n1,5\n2,5\n")
    assert outputs.invariant_problems(ideal, short)
    nan = _write(tmp_path / "nan.csv", "t1_us,amplitude\n1,5\n2,nan\n3,5\n")
    assert outputs.invariant_problems(ideal, nan)


def test_thermo_invariants(tmp_path):
    job = workloads.Job("gauss", (), expect={"t_end_us": 4.0, "step_us": 2.0,
                                             "divergence": False})
    rows = "\n".join(f"{0.5 * k:g},{1.0 - 0.01 * k:g}" for k in range(9))
    good = _write(tmp_path / "g.csv", "# converged=True\n# refinements=2\n"
                  "t1_us,beta\n" + rows + "\n")
    assert outputs.invariant_problems(job, good) == []
    bad = _write(tmp_path / "b.csv", "# converged=False\n# refinements=2\n"
                 "t1_us,beta\n" + rows + "\n")
    assert outputs.invariant_problems(job, bad)
    odd = _write(tmp_path / "o.csv", "# converged=True\n# refinements=2\n"
                 "t1_us,beta\n" + rows.rsplit("\n", 1)[0] + "\n")
    assert outputs.invariant_problems(job, odd)


def test_reference_comparison(tmp_path):
    base = _write(tmp_path / "a.csv", "time_us,value\n" + "\n".join(
        f"{k},{math.sin(k)}" for k in range(50)) + "\n")
    ref = outputs.sample(base)
    assert outputs.reference_problems(ref, base) == []
    moved = _write(tmp_path / "b.csv", "time_us,value\n" + "\n".join(
        f"{k},{math.sin(k) + (1e-3 if k == 30 else 0.0)}"
        for k in range(50)) + "\n")
    assert outputs.reference_problems(ref, moved)


def test_reference_covers_default_seed():
    jobs = outputs.load_reference()["jobs"]
    for workload in workloads.WORKLOADS:
        for job in workloads.jobs_for(workload, workloads.DEFAULT_SEED):
            assert f"{workload}/{job.slot}" in jobs


def test_traced_self_times_fit_in_job_wall(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "WORK", str(tmp_path))
    job = workloads.jobs_for("program", workloads.DEFAULT_SEED)[0]
    r = run.Run("program", workloads.DEFAULT_SEED)
    summary = r.run_job(job, traced=True)
    assert r.problems == []
    assert summary["spans"] > 0
    total = sum(summary["self_s"].values())
    assert 0.0 < total <= summary["wall_s"]
    metrics = run.layer_metrics([summary])
    assert metrics["engine.evolve_calls"] == 1
    assert metrics["engine.acquire_samples"] == workloads.PROGRAM_SAMPLES
    assert metrics["linalg.eigh_calls"] >= 1
    assert set(metrics) | {"trace.overhead_s"} == set(run.PER_LAYER)
    with open(os.path.join(run.WORK, job.out + ".manifest.json")) as fh:
        assert json.load(fh)["rows"] == metrics["output.rows"]
