"""Acceptance suite: one test per published criterion, verbatim tolerances.

Run with -v to get one pass/fail line per criterion item. Three tests
encode quoted reference bands that the exact dynamics of this model
provably miss; they are kept exactly as stated and fail, and each has a
sibling diagnostic test that pins the measured constant so the size of
the gap is visible at a glance:

  * ideal sequence-1 amplitude band (3/16)·max|G'|: the ideal-limit
    algebra gives exactly (1/4)·max|G'|, a factor 4/3 higher
  * bulk second-moment ratio band 5.0 +/- 0.5: the converged lattice
    sums give 5.844
  * first-correction size ratio band 20 +/- 4: the same sums give 24.59
    (the tabulated reference second moments would give 21.46, inside)
"""

import time

import numpy as np
import pytest

from magicecho import engine, experiments, output, pulseprog, thermo
from magicecho import operators as ops
from magicecho.lattice import (GAMMA_F19, build_cluster, bulk_second_moment,
                               local_field, second_moment)


def random_couplings(rng):
    n = int(rng.integers(2, 7))
    a = np.triu(rng.normal(scale=1.0e5, size=(n, n)), 1)
    return a + a.T


# ------------------------------------------------- 1. operator identities

def test_criterion_1_tilt_identity_100_random_cases():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20260819)
    for _ in range(100):
        a = random_couplings(rng)
        theta = float(rng.uniform(0.0, 2.0 * np.pi))
        report = ops.tilt_decompose(a, theta)
        hd_norm = np.linalg.norm(ops.secular_dipolar(a))
        assert report.residual < 1e-10 * hd_norm
    assert time.perf_counter() - t0 < 60.0


def test_criterion_1_conserved_commutators():
    rng = np.random.default_rng(7)
    a = random_couplings(rng)
    n = a.shape[0]
    hd = ops.secular_dipolar(a)
    iz = ops.collective("z", n)
    h2, _, _ = ops.nonsecular_pair_raising(a)
    q = ops.operator_q(a)
    scale = np.linalg.norm(hd)
    assert np.linalg.norm(ops.commutator(hd, iz)) < 1e-12 * scale
    assert np.linalg.norm(ops.commutator(iz, h2) - 2.0 * h2) < 1e-12 * scale
    double = ops.commutator(iz, ops.commutator(iz, q))
    assert np.linalg.norm(double - q) < 1e-12 * scale


# --------------------------------------------------- 2. ideal magic echo

@pytest.fixture(scope="module")
def ideal_echo():
    t0 = time.perf_counter()
    cluster = build_cluster("100", radius=1.0, max_sites=6)
    gp = experiments.max_abs_fid_derivative(cluster)
    omega1 = 10.0 * local_field(cluster)
    t1s = (0.0, 8.0e-6, 2.1e-5, 3.7e-5)
    amps1 = np.array([experiments.sequence1_amplitude(
        cluster, omega1, t1, ideal_reversal=True) for t1 in t1s])
    amp2 = experiments.sequence2_amplitude(cluster, omega1, t1s[1],
                                           ideal_reversal=True)
    echo = experiments.rpw_magic_echo(cluster, omega1, 1.0e-5,
                                      ideal_reversal=True)
    return {"gp": gp, "amps1": amps1, "amp2": amp2, "echo": echo,
            "elapsed": time.perf_counter() - t0}


def test_criterion_2a_rpw_restores_fid_peak(ideal_echo):
    values = ideal_echo["echo"].values
    assert abs(values.max() - 1.0) < 1e-6
    assert np.argmax(values) == 0  # the peak sits at the echo center


def test_criterion_2b_seq1_t1_invariance(ideal_echo):
    amps = ideal_echo["amps1"]
    assert np.ptp(amps) <= 1e-6 * amps.max()


def test_criterion_2b_seq1_amplitude_band(ideal_echo):
    # quoted band (3/16)·max|G'| within 1%. The ideal-limit reduction is
    # exact and gives (1/4)·max|G'| (see the sibling diagnostic), so this
    # assertion fails by the factor 4/3.
    band = (3.0 / 16.0) * ideal_echo["gp"]
    assert abs(ideal_echo["amps1"][0] / band - 1.0) < 0.01


def test_criterion_2b_diagnostic_exact_prefactors(ideal_echo):
    # pins the measured constants: seq1 = (1/4)·max|G'|, seq2 = (1/2)·max|G'|
    gp = ideal_echo["gp"]
    assert ideal_echo["amps1"][0] == pytest.approx(0.25 * gp, rel=1e-9)
    assert ideal_echo["amp2"] == pytest.approx(0.5 * gp, rel=1e-9)


def test_criterion_2c_seq2_over_seq1_ratio(ideal_echo):
    ratio = ideal_echo["amp2"] / ideal_echo["amps1"][1]
    assert abs(ratio - 2.0) < 1e-6


def test_criterion_2_runtime(ideal_echo):
    assert ideal_echo["elapsed"] < 120.0


# ------------------------------------------- 3. average-Hamiltonian check

@pytest.mark.parametrize("n_sites", [4, 5, 6])
def test_criterion_3_magnus_error_orders(n_sites):
    cluster = build_cluster("100", radius=1.0, max_sites=n_sites)
    omega1 = 10.0 * local_field(cluster)
    report = engine.verify_average_hamiltonian(cluster, omega1)
    doubled = engine.verify_average_hamiltonian(cluster, 2.0 * omega1)
    ratio = doubled["err0"] / report["err0"]
    assert 0.2 <= ratio <= 0.7
    assert report["err1"] < report["err0"]


# --------------------------------------------------- 4. second moments

def test_criterion_4_bulk_ratio_band():
    # quoted band 5.0 +/- 0.5 for the [100]/[111] bulk ratio at radius >= 3.
    # The converged sums give 5.844 (sibling diagnostic), so this fails.
    ratio = bulk_second_moment("100") / bulk_second_moment("111")
    assert abs(ratio - 5.0) <= 0.5


def test_criterion_4_diagnostic_converged_ratio():
    ratio = bulk_second_moment("100") / bulk_second_moment("111")
    assert ratio == pytest.approx(5.84405659856, rel=1e-9)
    # the tabulated reference moments give 2.55/0.50 = 5.1, inside the
    # band; the computed [111] sum converges 13% below its reference
    ref = thermo.REFERENCE_M2["100"] / thermo.REFERENCE_M2["111"]
    assert abs(ref - 5.0) <= 0.5


def test_criterion_4_calibration_and_cross_orientations():
    assert bulk_second_moment("100") == pytest.approx(2.55e10, rel=1e-12)
    assert abs(bulk_second_moment("110") / 0.99e10 - 1.0) < 0.15
    assert abs(bulk_second_moment("111") / 0.50e10 - 1.0) < 0.15


@pytest.mark.parametrize("label,sites", [("100", 4), ("100", 6), ("110", 6)])
def test_criterion_4_fid_curvature_matches_second_moment(label, sites):
    cluster = build_cluster(label, radius=1.0, max_sites=sites)
    m2 = second_moment(cluster)
    h = 1e-3 / local_field(cluster)
    g = experiments.fid_values(cluster, np.array([-h, 0.0, h]))
    curvature = -(g[0] - 2.0 * g[1] + g[2]) / h**2
    assert curvature == pytest.approx(m2, rel=1e-3)


# --------------------------------------------- 5. first-correction ratio

def test_criterion_5_h1_ratio_band():
    # quoted band 20 +/- 4. With the converged lattice sums the proxy
    # ratio is 24.59 (sibling diagnostic), so this fails.
    num = ops.h1_magnitude_proxy(bulk_second_moment("100"), GAMMA_F19 * 12.5)
    den = ops.h1_magnitude_proxy(bulk_second_moment("111"), GAMMA_F19 * 52.6)
    assert abs(num / den - 20.0) <= 4.0


def test_criterion_5_diagnostic_measured_ratio():
    num = ops.h1_magnitude_proxy(bulk_second_moment("100"), GAMMA_F19 * 12.5)
    den = ops.h1_magnitude_proxy(bulk_second_moment("111"), GAMMA_F19 * 52.6)
    assert num / den == pytest.approx(5.84405659856 * 52.6 / 12.5, rel=1e-9)
    # the tabulated reference moments land inside the band
    ref = (thermo.REFERENCE_M2["100"] / thermo.REFERENCE_M2["111"]
           * 52.6 / 12.5)
    assert abs(ref - 20.0) <= 4.0


# -------------------------------------------------------- 6. thermo model

def test_criterion_6_constant_kernel_cosine_oracle():
    g = (2.0 * np.pi * 4.0e3) ** 2
    kernel = thermo.KernelSpec("tabulated", times=np.array([0.0, 1.0]),
                               values=np.array([g, g]))
    t_end = 4.0 * np.pi / np.sqrt(g)
    traj = thermo.solve_beta(kernel, t_end, t_end / 50.0)
    exact = np.cos(np.sqrt(g) * traj.times)
    assert np.abs(traj.beta - exact).max() < 1e-6


def test_criterion_6_orientation_decays_and_onset():
    t0 = time.perf_counter()
    decay = {}
    for label in ("100", "110", "111"):
        kernel = thermo.gaussian_kernel_for_orientation(label)
        traj = thermo.solve_beta(kernel, 400.0e-6, 2.0e-6)
        early = traj.beta[traj.times < 80.0e-6]
        assert early.min() >= 0.99
        estimate = experiments.decay_time(thermo.amplitude_curve(traj))
        assert not estimate.censored
        decay[label] = estimate.t_d
    assert decay["100"] < decay["110"] < decay["111"]
    assert max(decay.values()) <= 350.0e-6
    assert time.perf_counter() - t0 < 10.0


# ---------------------------------------------------- 7. divergence exhibit

def test_criterion_7_divergence_exhibit(tmp_path):
    cluster = build_cluster("100", radius=1.0, max_sites=6)
    omega1 = 10.0 * local_field(cluster)
    grid = np.linspace(0.0, 350.0e-6, 8)
    sweep = experiments.sweep_t1("seq1", cluster, omega1, grid,
                                 ideal_reversal=True)
    a_ideal = float(sweep.values[0])
    assert np.ptp(sweep.values) <= 1e-9 * a_ideal  # unitary curve is flat
    kernel = thermo.gaussian_kernel_for_orientation("100")
    traj = thermo.solve_beta(kernel, 360.0e-6, 2.0e-6)
    model = a_ideal * np.interp(grid, traj.times, traj.beta)
    path = str(tmp_path / "divergence.csv")
    output.write_csv(path, {"t1_us": grid * 1e6,
                            "ideal_amplitude": sweep.values,
                            "model_amplitude": model},
                     {"orientation": "100", "label": "divergence"})
    _, cols = output.read_csv(path)
    diff = np.abs(cols["ideal_amplitude"] - cols["model_amplitude"])
    assert diff.max() > 0.5 * a_ideal


# ------------------------------------------------ 8. parser and round-trip

def test_criterion_8_builtin_golden_shapes():
    shapes = {"seq1": 6, "seq2": 5, "rpw": 4}
    for name, count in shapes.items():
        program = pulseprog.parse(pulseprog.builtin_program(name))
        assert len(program.statements) == count
    seq1 = pulseprog.parse(pulseprog.builtin_program("seq1"))
    kinds = [type(s).__name__ for s in seq1.statements]
    assert kinds == ["Pulse", "Burst", "Burst", "Evolve", "Pulse", "Acquire"]
    assert seq1.statements[3].hamiltonian.kind == "dipolar"
    assert seq1.init_kind == "dipolar"


def test_criterion_8_parse_print_idempotence():
    for name in ("seq1", "seq2", "rpw"):
        text = pulseprog.builtin_program(name)
        program = pulseprog.parse(text)
        printed = pulseprog.print_program(program)
        assert pulseprog.parse(printed) == program
        assert pulseprog.print_program(pulseprog.parse(printed)) == printed


def test_criterion_8_csv_round_trip_twelve_digits(tmp_path):
    rng = np.random.default_rng(11)
    values = rng.normal(scale=1e8, size=32)
    path = str(tmp_path / "roundtrip.csv")
    output.write_csv(path, {"t": np.arange(32.0), "v": values}, {"k": "1"})
    _, cols = output.read_csv(path)
    np.testing.assert_allclose(cols["v"], values, rtol=1e-11)
