"""End-to-end tests of the command line driver.

Each test invokes cli.main(argv) in process and inspects the exit code,
captured stdout, or emitted CSV/manifest files.
"""

import ast
import json
import os
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest

from magicecho import cli, engine, memory, output, thermo
from magicecho.lattice import GAMMA_F19


def run_main(argv):
    return cli.main(argv)


def stdout_meta(text):
    meta = {}
    for line in text.splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition("=")
            meta[key] = value
    return meta


# ---------------------------------------------------------------- lattice-info

def test_lattice_info_stdout(capsys):
    assert run_main(["lattice-info", "--radius", "1"]) == 0
    out = capsys.readouterr().out
    meta = stdout_meta(out)
    assert meta["n_sites"] == "7"
    assert float(meta["m2_cluster"]) > 0
    # ratio is evaluated on bulk shells even when the cluster is tiny:
    # the [111] first shell alone sits at the magic angle and contributes 0
    assert float(meta["m2_ratio_100_111"]) == pytest.approx(5.84405659856, rel=1e-9)
    assert "site,x,y,z" in out


def test_lattice_info_file_and_manifest(tmp_path):
    out = str(tmp_path / "lat.csv")
    assert run_main(["lattice-info", "--radius", "1", "--out", out]) == 0
    meta, cols = output.read_csv(out)
    assert cols["site"].size == 7
    manifest = json.load(open(out + ".manifest.json"))
    assert manifest["rows"] == 7
    assert manifest["command"] == "lattice-info"
    assert manifest["config"]["radius"] == 1.0
    assert "wall_time_s" in manifest


def test_manifest_tolerances_are_the_checked_constants(tmp_path):
    out = str(tmp_path / "lat.csv")
    assert run_main(["lattice-info", "--radius", "1", "--out", out]) == 0
    manifest = json.load(open(out + ".manifest.json"))
    assert manifest["tolerances"] == {
        "hermiticity": engine.HERMITICITY_TOL,
        "segment_drift": engine.SEGMENT_DRIFT_TOL,
        "signal_imaginary": engine.SIGNAL_IMAG_TOL,
        "window_start": engine.WINDOW_START_TOL,
        "thermo_step": thermo.STEP_TOL}


# ------------------------------------------------------------------------ run

def test_run_ideal_sweep_is_constant(tmp_path):
    out = str(tmp_path / "sweep.csv")
    code = run_main(["run", "builtin:seq1", "--ideal", "--orientation", "100",
                     "--radius", "1", "--max-sites", "4",
                     "--t1-grid", "2:40:2hc", "--out", out])
    assert code == 0
    meta, cols = output.read_csv(out)
    assert list(cols) == ["t1_us", "amplitude"]
    assert cols["t1_us"].size == 20
    amp = cols["amplitude"]
    assert np.ptp(amp) <= 1e-9 * amp[0]
    assert meta["ideal_reversal"] == "True"
    assert meta["label"] == "seq1-sweep"


def test_run_sweep_snaps_to_even_halfcycles(tmp_path):
    out = str(tmp_path / "snap.csv")
    assert run_main(["run", "builtin:seq1", "--orientation", "100",
                     "--radius", "1", "--max-sites", "2",
                     "--omega1-gauss", "25.3",
                     "--t1-grid", "2:6:2hc", "--out", out]) == 0
    _, cols = output.read_csv(out)
    gamma = 2.5166e4
    omega1 = gamma * 25.3
    halfcycles = cols["t1_us"] * 1e-6 * omega1 / np.pi
    np.testing.assert_allclose(halfcycles, [2.0, 4.0, 6.0], rtol=1e-9)


def test_run_single_builtin_echo(tmp_path):
    out = str(tmp_path / "rpw.csv")
    code = run_main(["run", "builtin:rpw", "--orientation", "100",
                     "--radius", "1", "--max-sites", "4",
                     "--omega1-gauss", "50", "--halfcycles", "40",
                     "--window-us", "20", "--step-us", "1", "--out", out])
    assert code == 0
    meta, cols = output.read_csv(out)
    assert list(cols) == ["time_us", "value"]
    # strong burst: echo peak sits at the first acquired sample, near full height
    assert cols["value"][0] > 0.97
    assert np.argmax(cols["value"]) == 0
    assert meta["sequence"] == "builtin:rpw"
    assert meta["macroscopic"] == "False"


def test_run_curve_columns_and_metadata(tmp_path):
    # a single run: sample times from the window start in us, the values,
    # and the curve's label, observable, start and metadata
    pp = tmp_path / "late.pp"
    pp.write_text("init ix\ndelay 5us\nacquire Iy for 20us step 4us\n")
    out = str(tmp_path / "late.csv")
    assert run_main(["run", str(pp), "--max-sites", "3", "--out", out]) == 0
    meta, cols = output.read_csv(out)
    assert list(cols) == ["time_us", "value"]
    np.testing.assert_allclose(cols["time_us"], [0, 4, 8, 12, 16, 20],
                               rtol=1e-12)
    assert meta["label"] == "signal"
    assert meta["observable"] == "y"
    assert meta["start_us"] == "5"
    assert meta["orientation"] == "100"
    assert meta["sequence"] == str(pp)


def test_run_sweep_columns_and_metadata(capsys):
    assert run_main(["run", "builtin:seq2", "--max-sites", "3",
                     "--omega1-gauss", "30", "--t1-grid", "2:4:2hc"]) == 0
    out = capsys.readouterr().out
    meta = stdout_meta(out)
    assert out.splitlines()[len(meta)] == "t1_us,amplitude"
    assert meta["label"] == "seq2-sweep"
    assert meta["observable"] == "y"
    assert meta["start_us"] == "0"
    assert meta["sequence"] == "seq2"
    t1_us = [float(row.split(",")[0]) for row in out.splitlines()[-2:]]
    t1 = engine.halfcycle_duration(GAMMA_F19 * 30, np.array([2, 4]))
    np.testing.assert_allclose(t1_us, t1 * 1e6, rtol=1e-11)


def test_run_halfcycles_default_and_where_it_applies(tmp_path, capsys):
    base = ["run", "builtin:seq2", "--orientation", "100", "--radius", "1",
            "--max-sites", "3", "--window-us", "4", "--step-us", "1"]
    outputs = []
    for flags in ([], ["--halfcycles", "40"]):
        assert run_main(base + flags) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    # a sweep sets its own burst lengths and a .pp file its statements, so
    # the flag would be silently ignored there
    pp = tmp_path / "fid.pp"
    pp.write_text("init ix\nacquire Ix for 4us step 1us\n")
    for argv in (["run", "builtin:seq1", "--t1-grid", "2:4:2hc"],
                 ["run", str(pp)]):
        assert run_main(argv + ["--max-sites", "2", "--halfcycles", "4"]) == 2
        assert "--halfcycles" in capsys.readouterr().err


def test_run_single_zero_window_or_step_exits_2(capsys):
    base = ["run", "builtin:seq2", "--orientation", "100", "--radius", "1",
            "--max-sites", "2"]
    for grid in (["--window-us", "0"], ["--step-us", "0"],
                 ["--window-us", "-5"]):
        assert run_main(base + grid) == 2
        assert "must be positive" in capsys.readouterr().err


def test_run_nonpositive_omega1_exits_2(capsys):
    base = ["run", "builtin:seq2", "--max-sites", "2"]
    for argv in (["--omega1-gauss", "0"],
                 ["--omega1-gauss", "-5", "--t1-grid", "2:4:2hc"]):
        assert run_main(base + argv) == 2
        assert "omega1 must be positive" in capsys.readouterr().err


def test_run_sweep_zero_window_or_step_exits_2(capsys):
    base = ["run", "builtin:seq1", "--orientation", "100", "--radius", "1",
            "--max-sites", "2", "--t1-grid", "2:4:2hc"]
    for grid in (["--window-us", "0"], ["--step-us", "0"],
                 ["--step-us", "-0.5"]):
        assert run_main(base + grid) == 2
        assert "must be positive" in capsys.readouterr().err


# a one-point sweep and a single run on the same explicit grid
_SAME_GRID = ["--orientation", "110", "--radius", "1", "--max-sites", "5",
              "--omega1-gauss", "30", "--window-us", "40", "--step-us", "0.5"]


def test_one_point_sweep_equals_single_run_seq2(tmp_path):
    sweep, single = str(tmp_path / "sweep.csv"), str(tmp_path / "single.csv")
    assert run_main(["run", "builtin:seq2", "--t1-grid", "12:12:2hc",
                     *_SAME_GRID, "--out", sweep]) == 0
    assert run_main(["run", "builtin:seq2", "--halfcycles", "12",
                     *_SAME_GRID, "--out", single]) == 0
    (amp,) = output.read_csv(sweep)[1]["amplitude"]
    peak = np.abs(output.read_csv(single)[1]["value"]).max()
    assert amp == pytest.approx(peak, rel=1e-12)


def test_one_point_sweep_equals_p_component_seq1(tmp_path):
    """A seq1 sweep reports only the double-quantum-borne part of the echo
    (the P component), not the full signal a single run emits, so the
    reference is max |P component| on that grid: the seq1 program without
    its 90y pulse, run from -3/8 P, rounded to the CSV's 12 digits."""
    from dataclasses import replace

    from magicecho import build_cluster, experiments, operators, pulseprog

    sweep = str(tmp_path / "sweep.csv")
    assert run_main(["run", "builtin:seq1", "--t1-grid", "12:12:2hc",
                     *_SAME_GRID, "--out", sweep]) == 0
    (amp,) = output.read_csv(sweep)[1]["amplitude"]
    cluster = build_cluster("110", radius=1.0, max_sites=5)
    omega1 = GAMMA_F19 * 30.0
    t1 = 12 * np.pi / omega1
    half = pulseprog.Burst(sign=1, amplitude_gauss=omega1 / GAMMA_F19,
                           seconds=0.5 * t1)
    program = pulseprog.sequence("seq1", half, 0.5 * t1, 40e-6, 0.5e-6)
    start = engine.DeviationState(
        operators.operator_sum(cluster, sorted_basis=True, p=-3.0 / 8.0))
    p_curve = experiments.run_program(
        replace(program, statements=program.statements[1:]), cluster,
        start=start)
    peak = float(output.CSV_FLOAT_FORMAT % np.abs(p_curve.values).max())
    assert amp == pytest.approx(peak, rel=1e-12)


def test_run_pp_file(tmp_path, capsys):
    pp = tmp_path / "fid.pp"
    pp.write_text("init ix\nacquire Ix for 20us step 4us\n")
    assert run_main(["run", str(pp), "--orientation", "100",
                     "--radius", "1", "--max-sites", "4"]) == 0
    out = capsys.readouterr().out
    lines = [l for l in out.splitlines() if l and not l.startswith("#")]
    assert lines[0] == "time_us,value"
    first = lines[1].split(",")
    assert float(first[0]) == 0.0
    assert float(first[1]) == pytest.approx(1.0, abs=1e-12)


def test_run_pp_file_rejects_window_and_step_flags(tmp_path, capsys):
    # the .pp file's acquire statement sets the grid; the flags would be
    # silently ignored
    pp = tmp_path / "fid.pp"
    pp.write_text("init ix\nacquire Ix for 4us step 1us\n")
    base = ["run", str(pp), "--orientation", "100", "--radius", "1",
            "--max-sites", "4"]
    for flags in (["--window-us", "2", "--step-us", "0.5"],
                  ["--window-us", "2"], ["--step-us", "0.5"]):
        assert run_main(base + flags) == 2
        assert flags[0] in capsys.readouterr().err


def test_run_flag_and_positional_agree(tmp_path):
    a = str(tmp_path / "a.csv")
    b = str(tmp_path / "b.csv")
    common = ["--orientation", "100", "--radius", "1", "--max-sites", "4",
              "--ideal", "--window-us", "10", "--step-us", "2"]
    assert run_main(["run", "builtin:seq2"] + common + ["--out", a]) == 0
    assert run_main(["run", "--sequence", "builtin:seq2"] + common
                    + ["--out", b]) == 0
    assert open(a, "rb").read() == open(b, "rb").read()


def test_run_determinism(tmp_path):
    pp = tmp_path / "pair.pp"
    pp.write_text("init dipolar\npulse 90 y\nburst + 30G 4hc\n"
                  "burst - 30G 4hc\npulse 45 y\n"
                  "acquire Iy for 10us step 1us\n")
    cluster = ["--orientation", "110", "--radius", "1", "--max-sites", "4"]
    for argv in (["run", "builtin:seq2", *cluster, "--omega1-gauss", "30"],
                 ["run", "builtin:seq1", *cluster, "--t1-grid", "2:6:2hc"],
                 ["run", str(pp), *cluster],
                 ["thermo", "--kernel-from-cluster", "100:1:4",
                  "--t-end-us", "50", "--step-us", "1"]):
        a = str(tmp_path / "a.csv")
        b = str(tmp_path / "b.csv")
        assert run_main(argv + ["--out", a]) == 0
        assert run_main(argv + ["--out", b]) == 0
        assert open(a, "rb").read() == open(b, "rb").read()
        ma = json.load(open(a + ".manifest.json"))
        mb = json.load(open(b + ".manifest.json"))
        ma.pop("wall_time_s"), mb.pop("wall_time_s")
        ma.pop("output"), mb.pop("output")
        assert ma == mb


def test_fresh_processes_print_the_same_bytes(tmp_path):
    # test_run_determinism reruns inside one process, where caches and
    # allocator state carry over; here each run is its own child. BLAS is
    # held to one thread, as 1 and 2 threads may differ in the 12th digit
    pp = tmp_path / "turns.pp"
    pp.write_text("init dipolar\npulse 90 x\nburst + 30G 4hc\n"
                  "pulse 30 -x\nburst - 30G 4hc\npulse 20 z\n"
                  "pulse 45 y\nacquire Iy for 10us step 1us\n")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
    for argv in (["run", str(pp), "--max-sites", "7"],
                 ["run", "builtin:seq1", "--max-sites", "6",
                  "--t1-grid", "4:12:4hc"],
                 ["thermo", "--kernel-from-cluster", "100:1:6",
                  "--t-end-us", "50"]):
        first, second = (subprocess.run(
            [sys.executable, "-m", "magicecho.cli", *argv], env=env,
            capture_output=True, check=True).stdout for _ in range(2))
        assert first and first == second


@pytest.mark.parametrize("argv", [
    ["lattice-info", "--orientation", "110", "--radius", "1.5"],
    ["run", "builtin:rpw", "--max-sites", "4", "--halfcycles", "8"],
    ["run", "builtin:seq1", "--max-sites", "4", "--t1-grid", "2:6:2hc"],
    ["thermo", "--orientation", "100", "--t-end-us", "100"],
    ["thermo", "--orientation", "111", "--t-end-us", "100", "--divergence"],
    ["dump-operator", "--name", "h1", "--max-sites", "3"],
])
def test_out_and_stdout_write_the_same_bytes(argv, tmp_path, capsys):
    out = tmp_path / "result.csv"
    assert run_main(argv + ["--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert run_main(argv) == 0
    printed = capsys.readouterr().out
    assert printed == out.read_text()
    rows = [line for line in printed.splitlines()
            if not line.startswith("#")][1:]
    manifest = json.loads((tmp_path / "result.csv.manifest.json").read_text())
    assert manifest["rows"] == len(rows) > 0


def test_run_manifest_counts_eigendecompositions(tmp_path):
    out = str(tmp_path / "sweep.csv")
    argv = ["run", "builtin:seq1", "--orientation", "100", "--radius", "1",
            "--max-sites", "4", "--t1-grid", "2:6:2hc", "--out", out]
    # counts are per job: the second run in this process reports the same
    for _ in range(2):
        assert run_main(argv) == 0
        manifest = json.load(open(out + ".manifest.json"))
        # burst + and H' once each; burst - is derived from burst + by the
        # global spin flip, and every later lookup is reused. A sweep
        # evolves only the P component, 5 lookups a point: burst +,
        # burst - (burst +'s), the delay's H' pass before the read pulse,
        # the acquire's H', and the H' pass of its window; 3 x 5 - 2
        assert manifest["eigendecompositions"] == {"computed": 2,
                                                   "reused": 13}


def test_run_pp_burst_pair_computes_two_eigendecompositions(tmp_path):
    pp = tmp_path / "pair.pp"
    pp.write_text("init ix\nburst + 30G 8hc\nburst - 30G 8hc\n"
                  "delay 10us\nacquire Ix for 10us step 1us\n")
    out = str(tmp_path / "pair.csv")
    assert run_main(["run", str(pp), "--orientation", "100", "--radius", "1",
                     "--max-sites", "5", "--out", out]) == 0
    manifest = json.load(open(out + ".manifest.json"))
    # burst + and H' are decomposed; burst - comes from burst + by the
    # global spin flip. In lookup order: burst + (computed), burst -
    # (reused), the acquire's H' (computed), which reads Delta at the
    # delay's pending H' time, so no H' pass runs before it, and the one H'
    # pass of the delay and the window (reused)
    assert manifest["eigendecompositions"] == {"computed": 2, "reused": 2}


def test_run_negative_orientation_space_separated(tmp_path):
    a = str(tmp_path / "a.csv")
    b = str(tmp_path / "b.csv")
    common = ["run", "builtin:seq2", "--radius", "1", "--max-sites", "3",
              "--ideal", "--window-us", "10", "--step-us", "2"]
    assert run_main(common + ["--orientation", "-0.63,0.78,0.05",
                              "--out", a]) == 0
    assert run_main(common + ["--orientation=-0.63,0.78,0.05",
                              "--out", b]) == 0
    assert open(a, "rb").read() == open(b, "rb").read()


def test_run_error_codes(tmp_path):
    base = ["--orientation", "100", "--radius", "1", "--max-sites", "4"]
    assert run_main(["run"] + base) == 2                       # no sequence
    assert run_main(["run", "builtin:nope"] + base) == 2       # unknown builtin
    assert run_main(["run", "builtin:rpw", "--t1-grid", "2:8:2hc"] + base) == 2
    assert run_main(["run", "builtin:seq1", "--t1-grid", "bogus"] + base) == 2
    assert run_main(["run", str(tmp_path / "missing.pp")] + base) == 2
    bad = tmp_path / "bad.pp"
    bad.write_text("frobnicate 3us\n")
    assert run_main(["run", str(bad)] + base) == 2             # parse error


def test_jobs_over_the_available_memory_exit_2(monkeypatch, capsys):
    # the estimate and the available memory are both in the message
    monkeypatch.setattr(memory, "available_bytes", lambda: 2**20)
    base = ["--orientation", "100", "--radius", "2", "--max-sites", "8"]
    for argv in (["run", "builtin:seq1"] + base,
                 ["run", "builtin:seq2", "--t1-grid", "2:4:2hc"] + base):
        assert run_main(argv) == 2
        err = capsys.readouterr().err
        assert re.search(r"an estimated \d+ MiB, but only 1 MiB", err), err


def test_a_transposed_acquire_block_fails_the_run(monkeypatch, capsys):
    # an acquire that reads Delta's (r, c) block transposed, in place of
    # its (c, r) block, keeps every per-segment invariant, so the run once
    # exited 0 with a wrong signal. The run checks the phase sum at t = 0
    # against Tr(Delta O), on the Delta the acquire reads: for seq2 that is
    # Delta before the delay folded into its grid, where the fault moves
    # the sum by about a tenth of sum |m|, so the run fails. seq1's sum
    # there is 0 with the fault as without (its signal is odd about the
    # window start); only the slope at t = 0 could see it
    def transposed_terms(blocks, obs, delta):
        for r, c, coeff, f in obs:
            (s_r, _, v_r), (s_c, _, v_c) = blocks[r], blocks[c]
            o_rc = coeff * (v_r.T @ f @ v_c)
            yield c, r, (v_c.T @ delta[s_r, s_c].T @ v_r) * o_rc.T

    base = ["--orientation", "100", "--radius", "2", "--max-sites", "7",
            "--window-us", "20", "--step-us", "1"]
    for name in ("seq1", "seq2"):
        assert run_main(["run", f"builtin:{name}", *base]) == 0
    monkeypatch.setattr(engine, "_acquire_terms", transposed_terms)
    assert run_main(["run", "builtin:seq1", *base]) == 0
    capsys.readouterr()
    assert run_main(["run", "builtin:seq2", *base]) == 1
    err = capsys.readouterr().err
    assert re.fullmatch(r"error: the signal of segment 4 \(Acquire\) starts "
                        r"at \S+, not at its identity value \S+\n", err), err


def test_a_kernel_from_perturbed_eigenvectors_fails(monkeypatch, capsys):
    # G1(0) is sum ||c||^2 over the commutator blocks, which needs no
    # eigenvectors; eigenvectors 1e-6 longer than unit, which keep the
    # kernel real, move its first value off it by 4e-6
    class Perturbed(engine.EigenCache):
        def get(self, spec, cluster_or_matrix):
            return tuple((s, w, v * (1.0 + 1e-6)) for s, w, v
                         in super().get(spec, cluster_or_matrix))

    argv = ["thermo", "--kernel-from-cluster", "100:1:6", "--t-end-us", "100"]
    assert run_main(argv) == 0
    capsys.readouterr()
    monkeypatch.setattr(engine, "EIGENSYSTEMS", Perturbed())
    assert run_main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: the microscopic kernel starts at "), err


def test_a_radius_over_the_available_memory_exits_2(monkeypatch, capsys):
    # refused from the estimates, before the lattice points (radius 400:
    # 801^3 grid points) or the coupling table (radius 20: 33,401 sites)
    # are allocated
    monkeypatch.setattr(memory, "available_bytes", lambda: 2**30)
    for argv, what in (
            (["run", "builtin:rpw", "--radius", "400", "--max-sites", "4"],
             "lattice points within radius 400"),
            (["lattice-info", "--radius", "20"],
             "coupling table of 33401 sites")):
        assert run_main(argv) == 2
        err = capsys.readouterr().err
        assert re.search(what + r" would allocate an estimated \d+ MiB, "
                         r"but only 1024 MiB", err), err


def _one_error_line(argv, capsys):
    """The stderr of a job that must exit 2 with no warning or traceback."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run_main(argv) == 2
    assert [str(w.message) for w in caught] == []
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    return err


def test_an_acquisition_over_the_available_memory_exits_2(
        tmp_path, monkeypatch, capsys):
    # a 1e-12 us step once died in np.arange with a 437 TiB allocation
    err = _one_error_line(["run", "builtin:rpw", "--max-sites", "4",
                           "--step-us", "1e-12"], capsys)
    assert "an acquisition window of 60 us sampled every 1e-12 us" in err
    # 10,001 samples: the estimate is refused, not the machine's memory
    monkeypatch.setattr(memory, "available_bytes", lambda: 2**20)
    pp = tmp_path / "fine.pp"
    pp.write_text("init ix\nacquire Ix for 100us step 0.01us\n")
    for argv in (["run", "builtin:rpw", "--window-us", "100",
                  "--step-us", "0.01"], ["run", str(pp)]):
        err = _one_error_line(argv + ["--max-sites", "2"], capsys)
        assert ("an acquisition window of 100 us sampled every 0.01 us "
                "would allocate an estimated 2 MiB, but only 1 MiB") in err


def test_an_acquisition_grid_is_refused_before_the_first_segment(
        tmp_path, monkeypatch, capsys):
    # the grid of 10^10 samples is refused before the burst ahead of it
    # is decomposed or run
    monkeypatch.setattr(memory, "available_bytes", lambda: 2**30)
    pp = tmp_path / "late.pp"
    pp.write_text("init ix\nburst + 30G 40hc\n"
                  "acquire Ix for 10us step 1e-9us\n")
    err = _one_error_line(["run", str(pp), "--radius", "2",
                           "--max-sites", "8"], capsys)
    assert err.startswith("error: an acquisition window of 10 us sampled "
                          "every 1e-09 us would allocate an estimated "), err
    assert err.endswith("but only 1024 MiB is available\n"), err
    assert engine.EIGENSYSTEMS.computed == 0


@pytest.mark.parametrize("t_end, step", [("1e12", "1"), ("1e300", "1e-300")])
def test_a_first_thermo_pass_over_the_available_memory_exits_2(
        t_end, step, capsys):
    # each once died with a traceback: a 7.28 TiB allocation, and an
    # infinite step count that no int holds
    _one_error_line(["thermo", "--orientation", "100", "--t-end-us", t_end,
                     "--step-us", step], capsys)


def test_a_halved_thermo_step_over_the_available_memory_exits_2(
        monkeypatch, capsys):
    # 1000 steps fit, and so do the halvings up to 16000; the job needs
    # 64000, and the pass of 32000 is refused before it allocates
    monkeypatch.setattr(memory, "available_bytes", lambda: 4 * 2**20)
    err = _one_error_line(["thermo", "--orientation", "100",
                           "--t-end-us", "2000"], capsys)
    assert err.startswith("error: a thermo pass of 32001 grid points would "
                          "allocate an estimated 6 MiB, but only 4 MiB"), err


# each probe reaches one check with an infinite or NaN value (1e400 reads
# as inf). Each once passed it: a zero-length burst, a beta held at 1, a
# NaN drift or an OverflowError. Run in process, an uncaught exception
# fails the test by itself, so no traceback can reach stderr
NON_FINITE_PROGRAMS = {
    "amplitude": "burst + 1e400G 4hc\nacquire Ix for 10us step 1us",
    "delay": "delay 1e400us\nacquire Ix for 10us step 1us",
    "pulse": "pulse 1e400 x\nacquire Ix for 10us step 1us",
    "window": "acquire Ix for 1e400us step 1us",
}
_SMALL = ["--radius", "1", "--max-sites", "4"]
_THERMO = ["thermo", "--orientation", "100", "--t-end-us", "100"]


@pytest.mark.parametrize("argv", [
    ["run", "amplitude.pp"] + _SMALL,
    ["run", "delay.pp"] + _SMALL,
    ["run", "pulse.pp"] + _SMALL,
    ["run", "window.pp"] + _SMALL,
    ["run", "builtin:rpw", "--omega1-gauss", "inf"] + _SMALL,
    ["run", "builtin:rpw", "--window-us", "inf"] + _SMALL,
    _THERMO + ["--offset-us", "nan"],
    _THERMO + ["--n", "nan"],
    _THERMO + ["--m-ratio", "inf"],
    ["thermo", "--kernel-from-cluster", "100:1:4", "--t-end-us", "100",
     "--offset-us", "inf"],
    ["thermo", "--orientation", "100", "--t-end-us", "inf"],
    ["lattice-info", "--radius", "inf"],
], ids=lambda argv: " ".join(argv))
def test_non_finite_values_exit_2(argv, tmp_path, monkeypatch, capsys):
    for name, body in NON_FINITE_PROGRAMS.items():
        (tmp_path / f"{name}.pp").write_text(f"init ix\n{body}\n")
    monkeypatch.chdir(tmp_path)
    assert run_main(argv) == 2
    assert capsys.readouterr().err.startswith("error: ")


# inf and NaN fail each range check written as 0 <= x < inf, so the
# message names the input, not a later symptom of it
NON_FINITE_INPUTS = [
    (["lattice-info", "--orientation", "1,1,inf"],
     "orientation '1,1,inf' must be a finite nonzero direction"),
    (["run", "builtin:seq1", "--orientation", "inf,0,0"] + _SMALL,
     "orientation 'inf,0,0' must be a finite nonzero direction"),
    (["run", "builtin:seq1", "--orientation", "nan,1,0"] + _SMALL,
     "orientation 'nan,1,0' must be a finite nonzero direction"),
    (["run", "builtin:seq1", "--t1-grid", "nan:4:2hc"] + _SMALL,
     "--t1-grid 'nan:4:2hc' must have finite"),
    (["run", "builtin:seq1", "--t1-grid", "0:inf:2hc"] + _SMALL,
     "--t1-grid '0:inf:2hc' must have finite"),
    (["thermo", "--kernel-from-cluster", "100:1:4", "--kernel-tau-us", "inf",
      "--t-end-us", "50"], "--kernel-tau-us must be positive and finite"),
]


@pytest.mark.parametrize("argv, message", NON_FINITE_INPUTS,
                         ids=[" ".join(argv) for argv, _ in NON_FINITE_INPUTS])
def test_non_finite_inputs_name_their_flag(argv, message, capsys):
    assert run_main(argv) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("gauss, message", [
    ("nan", "omega1 must be positive and finite"),
    ("inf", "omega1 must be positive and finite"),
    # finite, but 1/(2 omega1) overflows in every entry
    ("1e-320", "--omega1-gauss 1e-320 gives H1 non-finite entries"),
])
def test_dump_h1_refuses_a_non_finite_matrix(gauss, message, capsys):
    # each once exited 0 with a header and no rows: the d eps max|M|
    # filter drops every entry of a NaN or infinite matrix
    assert run_main(["dump-operator", "--name", "h1", "--radius", "1",
                     "--max-sites", "4", "--omega1-gauss", gauss]) == 2
    captured = capsys.readouterr()
    assert message in captured.err
    assert captured.out == ""


def test_dump_h1_refuses_an_overflowing_field_before_dividing(capsys):
    # 1/(2 omega1) overflows at 1e-320 G: refused before H1 is built. At
    # 1e-306 and 1e-310 G it is finite, but the commutator entries over
    # 2 omega1 overflow; either way numpy prints no overflow warning next
    # to the one error line
    for gauss in ("1e-306", "1e-310", "1e-320"):
        assert _one_error_line(["dump-operator", "--name", "h1",
                                "--max-sites", "4", "--omega1-gauss", gauss],
                               capsys) == (
            f"error: --omega1-gauss {gauss} gives H1 non-finite entries\n")


@pytest.mark.parametrize("argv", [
    ["builtin:rpw"], ["builtin:seq1", "--t1-grid", "2:4:2hc"]],
    ids=["single", "sweep"])
def test_run_names_an_omega1_whose_half_cycle_overflows(argv, capsys):
    # pi/omega1 overflows at 1e-320 G; the run once failed later with
    # "duration must be nonnegative and finite", and the sweep with two
    # RuntimeWarnings and "cannot convert float NaN to integer"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run_main(["run", *argv, "--max-sites", "2",
                         "--omega1-gauss", "1e-320"]) == 2
    assert [str(w.message) for w in caught] == []
    assert capsys.readouterr().err == (
        "error: --omega1-gauss 1e-320 gives a non-finite half-cycle "
        "pi/omega1\n")


@pytest.mark.parametrize("offset", ["inf", "nan", "-1"])
def test_offset_is_checked_before_either_kernel(offset, monkeypatch, capsys):
    # a bad --offset-us is refused by name before a kernel is built, not
    # after the microscopic kernel's whole table
    def unreachable(*args, **kwargs):
        raise AssertionError("a kernel was built")

    monkeypatch.setattr(thermo, "microscopic_kernel", unreachable)
    monkeypatch.setattr(thermo, "gaussian_kernel_for_orientation",
                        unreachable)
    for source in (["--kernel-from-cluster", "100:1:4"],
                   ["--orientation", "100"]):
        assert run_main(["thermo", *source, "--t-end-us", "50",
                         "--offset-us", offset]) == 2
        assert ("--offset-us must be nonnegative and finite"
                in capsys.readouterr().err)


def test_jobs_do_not_load_openssl():
    # hashlib's OpenSSL binding would add a few MB to every job's resident
    # set; the cluster hash uses CPython's builtin SHA-256
    jobs = [["run", "builtin:seq1", "--max-sites", "6"],
            ["thermo", "--orientation", "100", "--t-end-us", "20"]]
    code = ("import json, sys\n"
            "from magicecho import cli\n"
            "for argv in json.loads(sys.argv[1]):\n"
            "    assert cli.main(argv) == 0\n"
            "print('_hashlib' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", code, json.dumps(jobs)],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "False"


def _loaded_submodules(code, *args):
    """The magicecho.* modules a fresh interpreter holds after ``code``."""
    code += ("\nimport sys\n"
             "print(sorted(m for m in sys.modules "
             "if m.startswith('magicecho.')))\n")
    proc = subprocess.run([sys.executable, "-c", code, *args],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return set(eval(proc.stdout.splitlines()[-1]))


def _job_modules(argv):
    return _loaded_submodules(
        "import json, sys\n"
        "from magicecho import cli\n"
        "try:\n"
        "    assert cli.main(json.loads(sys.argv[1])) == 0\n"
        "except SystemExit as exc:\n"
        "    assert exc.code == 0\n", json.dumps(argv))


def test_import_magicecho_loads_no_submodule():
    assert _loaded_submodules("import magicecho") == set()
    names = _loaded_submodules(
        "import magicecho\n"
        "for name in magicecho.__all__:\n"
        "    assert getattr(magicecho, name) is not None, name\n"
        "from magicecho import *\n")
    assert "magicecho.engine" in names and "magicecho.thermo" in names


CORE_MODULES = {"magicecho.cli", "magicecho.errors", "magicecho.lattice",
                "magicecho.memory", "magicecho.output"}
ENGINE_MODULES = {"magicecho.engine", "magicecho.operators",
                  "magicecho.pulseprog", "magicecho.experiments"}


@pytest.mark.parametrize("extra", [[], ["--divergence"]])
def test_gaussian_thermo_job_loads_no_engine(extra, tmp_path):
    loaded = _job_modules(["thermo", "--orientation", "100", "--t-end-us",
                           "20", "--out", str(tmp_path / "b.csv"), *extra])
    assert loaded == CORE_MODULES | {"magicecho.thermo"}
    manifest = json.load(open(tmp_path / "b.csv.manifest.json"))
    assert manifest["eigendecompositions"] == {"computed": 0, "reused": 0}


def test_run_job_loads_no_thermo():
    for argv in (["run", "builtin:seq1", "--max-sites", "4"],
                 ["run", "builtin:seq2", "--max-sites", "4",
                  "--t1-grid", "2:4:2hc"]):
        loaded = _job_modules(argv)
        assert ENGINE_MODULES <= loaded
        assert "magicecho.thermo" not in loaded


def test_version_pays_the_imports_every_job_pays():
    # no early exit: --version is how the benchmark times start-up, so it
    # loads what a job that needs nothing more (lattice-info) loads
    assert (_job_modules(["--version"])
            == _job_modules(["lattice-info", "--radius", "1"])
            == CORE_MODULES)


def test_run_needs_exactly_one_acquire(tmp_path, capsys):
    for name, text in (("none", "init ix\ndelay 5us\n"),
                       ("two", "init ix\nacquire Ix for 4us step 1us\n"
                               "acquire Ix for 4us step 1us\n")):
        pp = tmp_path / f"{name}.pp"
        pp.write_text(text)
        assert run_main(["run", str(pp), "--max-sites", "2"]) == 2
        assert "exactly one acquire" in capsys.readouterr().err


def test_flags_that_do_not_apply_exit_2(tmp_path, capsys):
    pp = tmp_path / "fid.pp"
    pp.write_text("init ix\nacquire Ix for 4us step 1us\n")
    for argv, flag in (
            (["run", str(pp), "--max-sites", "2", "--omega1-gauss", "999"],
             "--omega1-gauss"),
            (["dump-operator", "--name", "hd", "--max-sites", "2",
              "--omega1-gauss", "-5"], "--omega1-gauss"),
            (["thermo", "--orientation", "100", "--t-end-us", "50",
              "--kernel-samples", "5"], "--kernel-samples")):
        assert run_main(argv) == 2
        assert flag in capsys.readouterr().err


@pytest.mark.parametrize("argv, flags, unset", [
    (["run", "builtin:seq1", "--max-sites", "4", "--t1-grid", "2:6:2hc"],
     ["omega1_gauss", "window_us", "step_us"], ["halfcycles"]),
    (["run", "builtin:rpw", "--max-sites", "4"],
     ["omega1_gauss", "halfcycles", "window_us", "step_us"], ["t1_grid"]),
    (["thermo", "--orientation", "100", "--t-end-us", "100"],
     ["n", "m_ratio"], ["kernel_samples", "kernel_tau_us"]),
    (["thermo", "--kernel-from-cluster", "100:1:4", "--t-end-us", "50",
      "--step-us", "1"], ["kernel_samples", "kernel_tau_us"],
     ["n", "m_ratio"]),
    (["dump-operator", "--name", "h1", "--max-sites", "3"],
     ["omega1_gauss"], []),
    (["dump-operator", "--name", "q", "--max-sites", "3"],
     [], ["omega1_gauss"]),
], ids=["sweep", "single", "gaussian", "microscopic", "h1", "q"])
def test_manifest_records_resolved_defaults(tmp_path, argv, flags, unset):
    # each applicable flag records the value it resolved to, so giving
    # those values explicitly reproduces the run; one that does not apply
    # stays null
    a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    assert run_main(argv + ["--out", a]) == 0
    config = json.load(open(a + ".manifest.json"))["config"]
    assert all(config[flag] is not None for flag in flags)
    assert all(config[flag] is None for flag in unset)
    explicit = [f"--{flag.replace('_', '-')}={config[flag]!r}"
                for flag in flags]
    assert run_main(argv + explicit + ["--out", b]) == 0
    assert open(a, "rb").read() == open(b, "rb").read()
    assert json.load(open(b + ".manifest.json"))["config"] == config


def test_directory_paths_exit_2(tmp_path, capsys):
    for argv in (["run", str(tmp_path), "--max-sites", "2"],
                 ["lattice-info", "--radius", "1", "--out", str(tmp_path)]):
        assert run_main(argv) == 2
        assert capsys.readouterr().err.startswith("error: ")
    assert list(tmp_path.iterdir()) == []


# --------------------------------------------------------------------- thermo

def test_thermo_gaussian_defaults(tmp_path):
    out = str(tmp_path / "beta.csv")
    assert run_main(["thermo", "--orientation", "100",
                     "--t-end-us", "200", "--out", out]) == 0
    meta, cols = output.read_csv(out)
    assert list(cols) == ["t1_us", "beta"]
    assert cols["t1_us"][0] == 0.0
    assert cols["beta"][0] == 1.0
    assert meta["orientation"] == "100"
    # onset delay: nothing decays during the first 80 us
    early = cols["beta"][cols["t1_us"] < 80.0]
    assert early.min() >= 0.99


def test_thermo_trajectory_columns_and_metadata(capsys):
    assert run_main(["thermo", "--orientation", "111",
                     "--t-end-us", "100"]) == 0
    out = capsys.readouterr().out
    meta = stdout_meta(out)
    rows = out.splitlines()[len(meta):]
    assert rows[0] == "t1_us,beta"
    t1_us = np.array([float(row.split(",")[0]) for row in rows[1:]])
    assert t1_us[-1] == 100.0
    assert float(meta["step_us"]) == pytest.approx(t1_us[1], rel=1e-11)
    assert rows[1] == "0,1"
    assert meta["method"] == "heun-trapezoid"
    assert meta["converged"] == "True"
    # the default 2 us step, halved once per refinement
    assert len(rows) - 2 == 50 * 2 ** int(meta["refinements"])
    assert meta["kernel"] == "gaussian"


def test_thermo_manifest_records_refinement_history(tmp_path, capsys):
    out = str(tmp_path / "beta.csv")
    argv = ["thermo", "--orientation", "100", "--t-end-us", "200"]
    assert run_main(argv + ["--out", out]) == 0
    meta, cols = output.read_csv(out)
    history = json.load(open(out + ".manifest.json"))["thermo"]
    assert set(history) == {"passes", "grid_points", "drift_per_halving"}
    refinements = int(meta["refinements"])
    assert history["passes"] == refinements + 1
    assert history["grid_points"] == len(cols["beta"])
    drifts = history["drift_per_halving"]
    assert len(drifts) == refinements
    assert drifts[-1] == float(meta["step_drift"]) < thermo.STEP_TOL
    assert all(d >= thermo.STEP_TOL for d in drifts[:-1])
    # the history is manifest-only: CSV header and stdout are unchanged
    assert not any("drift_per_halving" in key or "history" in key
                   for key in meta)
    capsys.readouterr()
    assert run_main(argv) == 0
    assert capsys.readouterr().out == open(out).read()


def test_thermo_divergence_columns(tmp_path):
    out = str(tmp_path / "div.csv")
    assert run_main(["thermo", "--orientation", "110", "--t-end-us", "400",
                     "--divergence", "--out", out]) == 0
    meta, cols = output.read_csv(out)
    assert list(cols) == ["t1_us", "model_amplitude", "ideal_amplitude"]
    assert np.all(cols["ideal_amplitude"] == 1.0)
    assert cols["model_amplitude"][0] == 1.0
    # by 350 us the memory model has collapsed while the ideal stays flat
    late = cols["model_amplitude"][cols["t1_us"] >= 350.0]
    assert np.all(np.abs(late) < 0.5)
    assert meta["label"] == "divergence"
    assert meta["macroscopic"] == "True"


def test_thermo_microscopic_kernel(tmp_path):
    out = str(tmp_path / "micro.csv")
    assert run_main(["thermo", "--kernel-from-cluster", "100:1:4",
                     "--t-end-us", "100", "--step-us", "1",
                     "--out", out]) == 0
    meta, cols = output.read_csv(out)
    assert meta["kernel"] == "tabulated"
    assert meta["ordering_flipped"] == "True"
    assert cols["beta"][0] == 1.0


def test_thermo_negative_kernel_cluster_space_separated(tmp_path):
    a = str(tmp_path / "a.csv")
    b = str(tmp_path / "b.csv")
    common = ["thermo", "--t-end-us", "50", "--step-us", "1"]
    assert run_main(common + ["--kernel-from-cluster", "-0.6,0.8,0:1:4",
                              "--out", a]) == 0
    assert run_main(common + ["--kernel-from-cluster=-0.6,0.8,0:1:4",
                              "--out", b]) == 0
    assert open(a, "rb").read() == open(b, "rb").read()


def test_thermo_gaussian_flags_rejected_with_kernel_from_cluster(capsys):
    base = ["thermo", "--kernel-from-cluster", "100:1:3", "--t-end-us", "20"]
    for flags in (["--orientation", "111"], ["--n", "0.45"],
                  ["--m-ratio", "0.25"]):
        assert run_main(base + flags) == 2
        assert f"{flags[0]} applies to the Gaussian kernel" \
            in capsys.readouterr().err


def test_thermo_gaussian_defaults_fill_unset_flags(capsys):
    base = ["thermo", "--orientation", "110", "--t-end-us", "100"]
    explicit = ["--n", str(thermo.DEFAULT_N),
                "--m-ratio", str(thermo.DEFAULT_M_RATIO)]
    outputs = []
    for flags in ([], explicit):
        assert run_main(base + flags) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


def test_thermo_error_codes(tmp_path):
    assert run_main(["thermo", "--orientation", "nope",
                     "--t-end-us", "100"]) == 2
    assert run_main(["thermo", "--kernel-from-cluster", "oops",
                     "--t-end-us", "100"]) == 2


def test_thermo_kernel_tau_must_be_positive(capsys):
    # 0 must not fall back to the 6/sqrt(M2) default, and a negative span
    # is reported as itself, not as a bad tau grid
    for tau in ("0", "-5"):
        assert run_main(["thermo", "--kernel-from-cluster", "100:1:4",
                         "--kernel-tau-us", tau, "--t-end-us", "50"]) == 2
        assert "--kernel-tau-us must be positive" in capsys.readouterr().err


def test_thermo_kernel_samples_must_be_at_least_two(capsys):
    for samples in ("1", "0"):
        assert run_main(["thermo", "--kernel-from-cluster", "100:1:4",
                         "--kernel-samples", samples,
                         "--t-end-us", "50"]) == 2
        assert "--kernel-samples must be at least 2" \
            in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    # 5e14 points: np.arange asked for 3.55 PiB and raised a traceback
    (["run", "builtin:seq1", "--max-sites", "4", "--t1-grid", "2:1e15:2hc"],
     r"error: --t1-grid '2:1e15:2hc' would allocate an estimated \d+ MiB"),
    # (STOP - START) / STEP overflows: numpy said "Maximum allowed size
    # exceeded", naming no flag
    (["run", "builtin:seq1", "--max-sites", "4", "--t1-grid", "0:1:1e-320hc"],
     r"error: --t1-grid '0:1:1e-320hc' has too many points to count"),
    # np.linspace asked for 745 GiB and raised a traceback
    (["thermo", "--kernel-from-cluster=100:1:4", "--kernel-samples",
      "100000000000", "--t-end-us", "50"],
     r"error: --kernel-samples 100000000000 would allocate an estimated "
     r"\d+ MiB"),
], ids=["t1-grid-too-big", "t1-grid-uncountable", "kernel-samples-too-big"])
def test_a_grid_too_big_to_hold_is_refused_by_its_flag(argv, message,
                                                       capsys):
    assert re.match(message, _one_error_line(argv, capsys))


def test_thermo_kernel_tau_needs_kernel_from_cluster(capsys):
    # without a microscopic kernel the span would be silently ignored
    for tau in ("-3", "20"):
        assert run_main(["thermo", "--orientation", "100",
                         "--kernel-tau-us", tau, "--t-end-us", "50"]) == 2
        assert "--kernel-tau-us needs --kernel-from-cluster" \
            in capsys.readouterr().err


def test_thermo_kernel_tau_sets_the_kernel_span(tmp_path):
    outputs = []
    for tau in (None, "20", "40"):
        out = str(tmp_path / f"micro-{tau}.csv")
        extra = [] if tau is None else ["--kernel-tau-us", tau]
        assert run_main(["thermo", "--kernel-from-cluster", "100:1:4",
                         "--t-end-us", "50", "--step-us", "1",
                         "--offset-us", "0", "--out", out]
                        + extra) == 0
        outputs.append(open(out, "rb").read())
    assert len(set(outputs)) == 3


def test_thermo_nonconvergence_exits_1(monkeypatch):
    monkeypatch.setattr(thermo, "MAX_REFINEMENTS", 0)
    code = run_main(["thermo", "--orientation", "100", "--t-end-us", "200",
                     "--step-us", "40"])
    assert code == 1


# -------------------------------------------------------------- dump-operator

def test_dump_operator_h2_pair(capsys):
    assert run_main(["dump-operator", "--name", "h2", "--orientation", "100",
                     "--radius", "1", "--max-sites", "2"]) == 0
    out = capsys.readouterr().out
    meta = stdout_meta(out)
    assert meta["name"] == "h2"
    assert meta["dim"] == "4"
    rows = [l for l in out.splitlines() if l and not l.startswith(("#", "row"))]
    # pair h2 is a single matrix element coupling |dd> to |uu>
    assert len(rows) == 1
    r, c, re, im = rows[0].split(",")
    assert (int(float(r)), int(float(c))) == (0, 3)
    assert float(im) == 0.0
    assert float(re) != 0.0


def test_dump_operator_h1_needs_omega1(tmp_path):
    out = str(tmp_path / "h1.csv")
    assert run_main(["dump-operator", "--name", "h1", "--orientation", "100",
                     "--radius", "1", "--max-sites", "4",
                     "--omega1-gauss", "50", "--out", out]) == 0
    meta, _ = output.read_csv(out)
    assert "omega1" in meta
    with pytest.raises(SystemExit) as err:  # argparse rejects unknown names
        run_main(["dump-operator", "--name", "bogus", "--orientation", "100",
                  "--radius", "1"])
    assert err.value.code == 2


def test_dump_operator_lists_no_rounding_residue(tmp_path):
    # H1 at n = 8 holds sums that cancel exactly but round to at most 5e-18
    # of max|H1|; the floor is d eps max|H1|, and the smallest real entry is
    # 3e-4 of max|H1|
    from magicecho import operators as ops, pulseprog
    from magicecho.lattice import build_cluster

    out = str(tmp_path / "h1.csv")
    assert run_main(["dump-operator", "--name", "h1", "--orientation", "100",
                     "--radius", "2", "--max-sites", "8", "--out", out]) == 0
    _, cols = output.read_csv(out)
    listed = np.abs(cols["re"] + 1j * cols["im"])
    floor = 256 * np.finfo(float).eps * listed.max()
    assert listed.min() > floor
    cluster = build_cluster("100", radius=2.0, max_sites=8)
    h1, _ = ops.magnus_first_correction(
        cluster.couplings,
        GAMMA_F19 * pulseprog.DEFAULT_AMPLITUDE_GAUSS)
    assert listed.size == np.count_nonzero(np.abs(h1) > floor) \
        < np.count_nonzero(h1)


# --------------------------------------------------------------------- verify

def test_verify_all_checks_pass(capsys):
    assert run_main(["verify"]) == 0
    out = capsys.readouterr().out
    assert "all 10 checks passed" in out
    assert "FAIL" not in out
    assert out.count("ok ") == 10


def test_verify_names_the_value_and_bound_of_a_failed_check(
        monkeypatch, capsys):
    from magicecho import experiments, verify

    monkeypatch.setattr(experiments, "fid_values",
                        lambda pair, t: np.cos(0.75e5 * t) + 1e-9)
    assert verify.run(20260819) == 1
    out = capsys.readouterr().out
    assert "FAIL pair-fid: max |G(t) - cos(3 a t / 4)| = 1.000e-09, " \
           "not below 1.000e-12\n" in out
    assert out.endswith("1 of 10 checks failed\n")


def test_package_has_no_assert_statements():
    # python -O drops assert statements, and with them any check they make
    src = os.path.dirname(cli.__file__)
    found = []
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name)) as fh:
                tree = ast.parse(fh.read(), name)
            found += [f"{name}:{node.lineno}" for node in ast.walk(tree)
                      if isinstance(node, ast.Assert)]
    assert found == []


# --------------------------------------------------------------------- config

def test_config_file_overrides_default(tmp_path, capsys):
    cfg = tmp_path / "lat.cfg"
    cfg.write_text("# comment line\nradius=1\nmax-sites=4\n")
    assert run_main(["lattice-info", "--config", str(cfg)]) == 0
    meta = stdout_meta(capsys.readouterr().out)
    assert meta["n_sites"] == "4"


def test_flag_beats_config_file(tmp_path, capsys):
    cfg = tmp_path / "lat.cfg"
    cfg.write_text("max-sites=4\n")
    assert run_main(["lattice-info", "--config", str(cfg),
                     "--max-sites", "2"]) == 0
    meta = stdout_meta(capsys.readouterr().out)
    assert meta["n_sites"] == "2"


def test_unknown_config_key_exits_2(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("frob=1\n")
    with pytest.raises(SystemExit) as err:
        run_main(["lattice-info", "--config", str(cfg)])
    assert err.value.code == 2


def test_config_file_supplies_required_thermo_flag(tmp_path):
    cfg = tmp_path / "thermo.cfg"
    cfg.write_text("orientation=100\nt-end-us=100\n")
    out = str(tmp_path / "beta.csv")
    assert run_main(["thermo", "--config", str(cfg), "--out", out]) == 0
    _, cols = output.read_csv(out)
    assert cols["t1_us"][-1] == pytest.approx(100.0)


def test_config_file_supplies_required_operator_name(tmp_path, capsys):
    cfg = tmp_path / "op.cfg"
    cfg.write_text("name=h2\nmax_sites=2\n")
    assert run_main(["dump-operator", "--config", str(cfg)]) == 0
    meta = stdout_meta(capsys.readouterr().out)
    assert (meta["name"], meta["n_sites"]) == ("h2", "2")


@pytest.mark.parametrize("argv, line, message", [
    (["dump-operator"], "name=bogus", "invalid choice"),
    (["run", "builtin:seq2"], "ideal=maybe", "true/false"),
], ids=["bad-choice", "bad-switch"])
def test_config_bad_choice_or_switch_exits_2(tmp_path, capsys, argv, line,
                                             message):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(line + "\n")
    with pytest.raises(SystemExit) as err:
        run_main(argv + ["--config", str(cfg)])
    assert err.value.code == 2
    assert message in capsys.readouterr().err


def test_config_switch_spellings_and_sequence_precedence(tmp_path, capsys):
    common = ["--orientation", "100", "--radius", "1", "--max-sites", "4",
              "--window-us", "10", "--step-us", "2"]
    cfg = tmp_path / "run.cfg"
    for text, argv, sequence, ideal in [
            ("sequence=builtin:rpw\nideal=YES\n", [], "builtin:rpw", "True"),
            ("sequence=builtin:rpw\nideal=off\n", ["builtin:seq2"],
             "builtin:seq2", "False"),
            ("sequence=builtin:rpw\nideal=On\n",
             ["builtin:seq2", "--sequence", "builtin:seq1"], "builtin:seq1",
             "True")]:
        cfg.write_text(text)
        assert run_main(["run"] + argv + common + ["--config", str(cfg)]) == 0
        meta = stdout_meta(capsys.readouterr().out)
        assert (meta["sequence"], meta["ideal_reversal"]) == (sequence, ideal)


def test_version_flag():
    with pytest.raises(SystemExit) as err:
        run_main(["--version"])
    assert err.value.code == 0


def test_console_entry_point():
    proc = subprocess.run([sys.executable, "-m", "magicecho.cli",
                           "lattice-info", "--radius", "1"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "n_sites=7" in proc.stdout
