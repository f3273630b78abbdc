"""Tests for the canned measurements: FID, echo sequences, sweeps, decays.

Ideal-reversal amplitudes are pinned to the exact identities
  seq1 (double-quantum-borne component) = (1/4) max|dG/dt|
  seq2                                  = (1/2) max|dG/dt|
which follow from Tr(Q(t) I_y) = -(4/3) G'(t) Tr(I_y^2) and the 45-degree
tilt coefficients. Both routes sample the same grid, so the equalities and
the 2:1 ratio hold to machine precision, not just to a tolerance band.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from magicecho import engine, experiments as ex, pulseprog as pp
from magicecho import operators as ops
from magicecho.lattice import (GAMMA_F19, build_cluster, local_field,
                               second_moment)

PAIR_A = 1.0e5


def pair_couplings():
    return np.array([[0.0, PAIR_A], [PAIR_A, 0.0]])


def seq1_component(part, cluster, omega1, t1, ideal_reversal=False,
                   window=None, step=None):
    """The seq1 signal borne by one part of the state after init dipolar +
    90y pulse, 'p' (-3/8 P) or 'hd' (H'/2): the seq1 program without that
    pulse, run by run_program from the part."""
    coeffs = {"p": -3.0 / 8.0} if part == "p" else {"hd": 0.5}
    start = engine.DeviationState(
        ops.operator_sum(cluster, sorted_basis=True, **coeffs))
    half = pp.Burst(sign=1, amplitude_gauss=omega1 / GAMMA_F19,
                    seconds=0.5 * t1)
    program = pp.sequence("seq1", half, 0.5 * t1,
                          *ex.acquisition_grid(cluster, window, step))
    return ex.run_program(replace(program, statements=program.statements[1:]),
                          cluster, ideal_reversal, start)


@pytest.fixture(scope="module")
def four_spin():
    return build_cluster("100", radius=1.0, max_sites=4)


@pytest.fixture(scope="module")
def six_spin():
    return build_cluster("100", radius=1.0, max_sites=6)


# ---------------------------------------------------------------- FID

def test_pair_fid_closed_form():
    # two coupled spins: G(t) = cos(3 a t / 4)
    a = pair_couplings()
    t = np.linspace(0.0, 40.0 / PAIR_A, 57)
    np.testing.assert_allclose(ex.fid_values(a, t), np.cos(0.75 * PAIR_A * t),
                               atol=1e-12)
    np.testing.assert_allclose(ex.fid_derivative(a, t),
                               -0.75 * PAIR_A * np.sin(0.75 * PAIR_A * t),
                               atol=1e-12 * 0.75 * PAIR_A)


def test_fid_normalized_and_even(four_spin):
    assert ex.fid_values(four_spin, [0.0])[0] == pytest.approx(1.0, abs=1e-13)
    t = 1.7 / local_field(four_spin)
    plus, minus = ex.fid_values(four_spin, [t, -t])
    assert plus == pytest.approx(minus, abs=1e-13)


def test_fid_curvature_matches_second_moment(four_spin):
    # -G''(0) equals the second moment of this cluster
    h = 1e-3 / local_field(four_spin)
    g = ex.fid_values(four_spin, [-h, 0.0, h])
    curvature = (g[0] - 2.0 * g[1] + g[2]) / h**2
    assert -curvature == pytest.approx(second_moment(four_spin), rel=1e-3)


def test_fid_derivative_matches_finite_difference(four_spin):
    wl = local_field(four_spin)
    h = 1e-4 / wl
    for t in (0.3 / wl, 1.1 / wl, 2.9 / wl):
        gp, gm = ex.fid_values(four_spin, [t + h, t - h])
        assert ex.fid_derivative(four_spin, [t])[0] == pytest.approx(
            (gp - gm) / (2.0 * h), rel=1e-6)


def acquire(cluster, times):
    """The I_x signal from I_x order through engine.evolve, at ``times``."""
    return engine.evolve(engine.initial_state("ix", cluster), cluster, (
        engine.Acquire("x", times[-1], times[1]),))[1]


@pytest.mark.parametrize("route", [ex.fid_values, ex.fid_derivative,
                                   acquire])
def test_fid_routes_refuse_an_imaginary_part(monkeypatch, four_spin, route):
    # G, dG/dt and the signal are real, so an imaginary part 1e-6 of the
    # real part of every sample is a fault that each route must raise on,
    # not discard. The check is phase_sum's own, so the fault goes into
    # the terms each route hands it
    def leak(terms):
        return [(r, c, m * (1.0 + 1e-6j)) for r, c, m in terms]

    fid_terms, acquire_terms = ex._fid_terms, engine._acquire_terms

    def leaky_fid_terms(*args, **kwargs):
        spectra, terms = fid_terms(*args, **kwargs)
        return spectra, leak(terms)

    monkeypatch.setattr(ex, "_fid_terms", leaky_fid_terms)
    monkeypatch.setattr(engine, "_acquire_terms",
                        lambda *args: leak(acquire_terms(*args)))
    t = np.linspace(0.0, 2.0 / local_field(four_spin), 9)
    with pytest.raises(engine.InvariantViolation, match="imaginary"):
        route(four_spin, t)


def test_fid_curve_matches_engine_route(four_spin):
    curve = ex.fid(four_spin)
    _, (raw,) = engine.evolve(
        engine.initial_state("ix", four_spin), four_spin,
        (engine.Acquire("x", curve.times[-1], curve.times[1]),))
    np.testing.assert_allclose(curve.values, raw.values, atol=1e-12)
    np.testing.assert_allclose(curve.times, raw.times, rtol=1e-12)
    assert curve.values[0] == pytest.approx(1.0, abs=1e-13)
    assert curve.label == "fid"
    assert curve.meta["macroscopic"] is False
    assert curve.meta["orientation"] == "100"


def test_max_abs_fid_derivative_pair():
    # |G'| peaks at 3a/4; the default grid samples it to second order
    exact = 0.75 * PAIR_A
    got = ex.max_abs_fid_derivative(pair_couplings())
    assert got <= exact + 1e-9 * exact
    assert got == pytest.approx(exact, rel=2e-4)


def test_local_field_of_bare_matrix():
    assert local_field(pair_couplings()) == pytest.approx(
        np.sqrt(3.0) * PAIR_A / 4.0, rel=1e-12)


# --------------------------------------------- burst timing validation

def test_check_burst_duration():
    omega1 = 1.0e6
    hc = np.pi / omega1
    assert ex.check_burst_duration(4 * hc, omega1) == 4
    assert ex.check_burst_duration(0.0, omega1) == 0
    with pytest.raises(ValueError, match="even"):
        ex.check_burst_duration(3 * hc, omega1)
    with pytest.raises(ValueError, match="even"):
        ex.check_burst_duration(4.2 * hc, omega1)
    with pytest.raises(ValueError, match="nonnegative"):
        ex.check_burst_duration(-hc, omega1)


def test_snap_t1():
    omega1 = 1.0e6
    hc = np.pi / omega1
    assert ex.snap_t1(3.9 * hc, omega1) == pytest.approx(4 * hc, rel=1e-12)
    assert ex.snap_t1(2.5 * hc, omega1) == pytest.approx(2 * hc, rel=1e-12)
    assert ex.snap_t1(0.4 * hc, omega1) == 0.0


# ------------------------------------------------- ideal-limit echoes

def test_ideal_seq1_amplitude_is_quarter_peak_derivative(four_spin):
    # perfect reversal: the double-quantum-borne echo is (1/4) max|G'|,
    # independent of the burst duration
    target = 0.25 * ex.max_abs_fid_derivative(four_spin)
    for t1 in (0.0, 1.23e-5, 3.7e-5):
        amp = ex.sequence1_amplitude(four_spin, 1.0e6, t1, ideal_reversal=True)
        assert amp == pytest.approx(target, rel=1e-9)


def test_ideal_seq1_hd_component_also_quarter(four_spin):
    # the dipolar-order-borne part contributes an equal (1/4) max|G'|
    hd_curve = seq1_component("hd", four_spin, 1.0e6, 2.0e-5,
                              ideal_reversal=True)
    target = 0.25 * ex.max_abs_fid_derivative(four_spin)
    assert np.abs(hd_curve.values).max() == pytest.approx(target, rel=1e-9)


def test_ideal_seq2_amplitude_is_half_peak_derivative(four_spin):
    target = 0.5 * ex.max_abs_fid_derivative(four_spin)
    for t1 in (0.0, 2.0e-5):
        amp = ex.sequence2_amplitude(four_spin, 1.0e6, t1, ideal_reversal=True)
        assert amp == pytest.approx(target, rel=1e-9)


def test_ideal_amplitude_ratio_is_two(four_spin):
    t1 = 1.9e-5
    a1 = ex.sequence1_amplitude(four_spin, 1.0e6, t1, ideal_reversal=True)
    a2 = ex.sequence2_amplitude(four_spin, 1.0e6, t1, ideal_reversal=True)
    assert a2 / a1 == pytest.approx(2.0, rel=1e-9)


@st.composite
def coupling_tables(draw):
    """Symmetric tables, n = 4..6, with some pairs uncoupled."""
    n = draw(st.integers(4, 6))
    value = st.one_of(st.just(0.0), st.floats(1e3, 1e5), st.floats(-1e5, -1e3))
    upper = draw(st.lists(value, min_size=n * (n - 1) // 2,
                          max_size=n * (n - 1) // 2))
    a = np.zeros((n, n))
    a[np.triu_indices(n, 1)] = upper
    return a + a.T


@settings(max_examples=30, deadline=None)
@given(coupling_tables(), st.floats(0.0, 5e-5))
def test_ideal_ratio_is_two_for_random_tables(a, t1):
    # bare tables go through the compiled builtins; the 2:1 ratio is exact
    # on any shared grid
    assume(np.any(a))
    a1 = ex.sequence1_amplitude(a, 1.0e6, t1, ideal_reversal=True)
    a2 = ex.sequence2_amplitude(a, 1.0e6, t1, ideal_reversal=True)
    assert a2 / a1 == pytest.approx(2.0, abs=1e-9)


def test_seq1_components_sum_to_full_signal(four_spin):
    # evolution is linear in the deviation: running the literal program
    # (init dipolar, 90 pulse, tail) reproduces the component sum
    omega1 = 20.0 * local_field(four_spin)
    t1 = 8 * np.pi / omega1
    p_curve, hd_curve = (seq1_component(part, four_spin, omega1, t1)
                         for part in ("p", "hd"))
    program = pp.builtin("seq1", omega1 / GAMMA_F19,
                         halfcycles=8, window_us=p_curve.times[-1] * 1e6,
                         step_us=p_curve.times[1] * 1e6)
    _, (full,) = engine.evolve(engine.initial_state("dipolar", four_spin),
                               four_spin, pp.compile(program))
    total = p_curve.values + hd_curve.values
    scale = np.abs(total).max()
    np.testing.assert_allclose(full.values, total, atol=1e-10 * scale)


def test_sequence_meta(four_spin):
    curve = ex.sequence2_signal(four_spin, 1.0e6, 0.0, ideal_reversal=True)
    assert curve.meta["sequence"] == "seq2"
    assert curve.meta["omega1"] == 1.0e6
    assert curve.meta["ideal_reversal"] is True
    assert curve.meta["cluster_hash"] == four_spin.hash_hex
    assert curve.meta["n_sites"] == 4
    assert curve.meta["macroscopic"] is False


# ---------------------------------------------- finite-field behavior

def test_seq1_amplitude_decays_with_burst_length(six_spin):
    # at omega1 = 10 omega_L the reversal defect accumulates with t1:
    # amplitude falls to < 0.8 of ideal by t1 = 20 / omega_L
    wl = local_field(six_spin)
    omega1 = 10.0 * wl
    grid = [ex.snap_t1(x / wl, omega1) for x in np.linspace(0.0, 20.0, 9)]
    amps = [ex.sequence1_amplitude(six_spin, omega1, t) for t in grid]
    ideal = 0.25 * ex.max_abs_fid_derivative(six_spin)
    assert amps[0] == pytest.approx(ideal, rel=1e-9)  # t1 = 0 is no burst
    assert max(amps) <= 1.01 * amps[0]
    assert amps[-1] < 0.8 * amps[0]


def test_seq2_amplitude_grows_with_field(six_spin):
    wl = local_field(six_spin)
    t1 = 8 * np.pi / (5.0 * wl)  # even half-cycle count for all three fields
    amps = [ex.sequence2_amplitude(six_spin, f * wl, t1)
            for f in (5.0, 10.0, 20.0)]
    ideal = 0.5 * ex.max_abs_fid_derivative(six_spin)
    assert amps[0] < amps[1] < amps[2]
    assert amps[0] > 0.7 * ideal
    assert amps[2] < ideal * (1.0 + 1e-9)


# ------------------------------------------------------ rpw magic echo

def test_rpw_ideal_replays_fid(four_spin):
    curve = ex.rpw_magic_echo(four_spin, 1.0e6, 1.7e-5, ideal_reversal=True)
    assert curve.values[0] == pytest.approx(1.0, abs=1e-10)
    replay = ex.fid_values(four_spin, curve.times)
    np.testing.assert_allclose(curve.values, replay, atol=1e-10)
    assert curve.meta["sequence"] == "rpw"


def test_rpw_zero_couplings_is_constant():
    a = np.zeros((3, 3))
    omega1 = 1.0e5
    tau = 4 * np.pi / omega1
    curve = ex.rpw_magic_echo(a, omega1, tau, window=1e-4, step=1e-5)
    np.testing.assert_allclose(curve.values, 1.0, atol=1e-12)


def test_rpw_echo_sharpens_with_field(four_spin):
    peaks = {}
    for f in (10.0, 40.0):
        omega1 = f * local_field(four_spin)
        tau = 8 * np.pi / omega1
        curve = ex.rpw_magic_echo(four_spin, omega1, tau)
        assert np.argmax(np.abs(curve.values)) == 0  # peak at the echo center
        peaks[f] = abs(curve.values[0])
    assert peaks[10.0] < peaks[40.0] < 1.0 + 1e-9
    assert peaks[40.0] > 0.999


def test_rpw_rejects_nonpositive_tau(four_spin):
    with pytest.raises(ValueError, match="tau"):
        ex.rpw_magic_echo(four_spin, 1.0e6, 0.0)


def test_run_program_advances_a_given_start(four_spin):
    # run_program(start=s) runs s itself: s ends as the run's final state
    program = pp.parse("init dipolar\npulse 45 y\ndelay 10us\n"
                       "acquire Iy for 5us step 1us\n")
    start = engine.initial_state("dipolar", four_spin)
    own, _ = engine.evolve(engine.initial_state("dipolar", four_spin),
                           four_spin, pp.compile(program))
    ex.run_program(program, four_spin, start=start)
    assert np.abs(start.delta - engine.initial_state("dipolar", four_spin)
                  .delta).max() > 1e-3 * np.abs(own.delta).max()
    np.testing.assert_array_equal(start.delta, own.delta)


# ------------------------------------------------------------- sweeps

def test_sweep_single_point_matches_direct_call(four_spin):
    omega1 = 20.0 * local_field(four_spin)
    t1 = 4 * np.pi / omega1
    curve = ex.sweep_t1("seq2", four_spin, omega1, [t1])
    assert curve.values[0] == ex.sequence2_amplitude(four_spin, omega1, t1)
    assert curve.times[0] == pytest.approx(t1, rel=1e-12)
    assert curve.label == "seq2-sweep"


def test_sweep_ideal_is_flat(four_spin):
    # the ideal bursts cancel the delay's H' time exactly, a net of 0 that
    # runs no pass, so every point acquires from the same Delta as t1 = 0
    grid = [0.0, 1.1e-5, 2.3e-5]
    for sequence in ("seq1", "seq2"):
        curve = ex.sweep_t1(sequence, four_spin, 1.0e6, grid,
                            ideal_reversal=True)
        np.testing.assert_allclose(curve.times, grid, rtol=1e-12)
        assert np.all(curve.values == curve.values[0])


@pytest.mark.parametrize("name,ideal,passes", [
    ("seq1", True, 1), ("seq2", True, 1), ("rpw", True, 1),
    ("seq1", False, 4), ("seq2", False, 3), ("rpw", False, 4)])
def test_h_prime_runs_one_pass_per_stretch(monkeypatch, four_spin, name,
                                           ideal, passes):
    # the delay and the ideal bursts are one net H' time of exactly 0, which
    # runs no pass, so an ideal run's one pass advances Delta past the
    # acquire's window, from H' alone. A finite run makes a pass per burst
    # and one for the window; seq1's read pulse and rpw's bursts follow the
    # delay, so it is a pass of its own, but seq2's acquire reads Delta at
    # the delay's pending time, and the delay runs with the window
    calls = []
    propagate = engine._propagate
    monkeypatch.setattr(engine, "_propagate",
                        lambda delta, factors: calls.append(1)
                        or propagate(delta, factors))
    cache = engine.EigenCache()
    monkeypatch.setattr(engine, "EIGENSYSTEMS", cache)
    ex.run_program(pp.builtin(name), four_spin, ideal_reversal=ideal)
    assert len(calls) == passes
    if ideal:
        assert list(cache._eigs) == [engine.HamiltonianSpec("dipolar")]
        assert cache.computed == 1


def test_sweep_snaps_to_even_halfcycles(four_spin):
    omega1 = 20.0 * local_field(four_spin)
    hc = np.pi / omega1
    requested = [0.0, 2.5 * hc, 3.9 * hc]
    curve = ex.sweep_t1("seq2", four_spin, omega1, requested)
    counts = curve.times / hc
    np.testing.assert_allclose(counts, [0.0, 2.0, 4.0], atol=1e-9)
    assert curve.meta["t1_requested"] == pytest.approx(requested)


def test_sweep_rejects_bad_input(four_spin):
    with pytest.raises(ValueError, match="unknown sequence"):
        ex.sweep_t1("fid", four_spin, 1.0e6, [0.0])
    with pytest.raises(ValueError, match="empty"):
        ex.sweep_t1("seq1", four_spin, 1.0e6, [])
    with pytest.raises(ValueError, match="nonnegative"):
        ex.sweep_t1("seq1", four_spin, 1.0e6, [-1.0e-5])


# -------------------------------------------- pulse-program round trip

def test_dsl_route_matches_direct_rpw(four_spin):
    text = pp.builtin_program("rpw", amplitude_gauss=25.3, halfcycles=40,
                              window_us=60.0, step_us=0.5)
    program = pp.parse(text)
    state = engine.initial_state(program.init_kind, four_spin)
    _, (dsl,) = engine.evolve(state, four_spin, pp.compile(program))
    omega1 = GAMMA_F19 * 25.3
    direct = ex.rpw_magic_echo(four_spin, omega1, 20 * np.pi / omega1,
                               window=60.0e-6, step=0.5e-6)
    np.testing.assert_allclose(dsl.times, direct.times, rtol=1e-12)
    scale = np.abs(direct.values).max()
    np.testing.assert_allclose(dsl.values, direct.values, atol=1e-9 * scale)


def test_dsl_route_matches_direct_seq2(four_spin):
    # both routes compile the same seq2 statements from dipolar order (init
    # dipolar, then the 45 pulse): this one through the printed and
    # re-parsed program text, the direct one without the text
    text = pp.builtin_program("seq2", amplitude_gauss=25.3, halfcycles=40,
                              window_us=60.0, step_us=0.5)
    program = pp.parse(text)
    state = engine.initial_state(program.init_kind, four_spin)
    _, (dsl,) = engine.evolve(state, four_spin, pp.compile(program))
    omega1 = GAMMA_F19 * 25.3
    direct = ex.sequence2_signal(four_spin, omega1, 40 * np.pi / omega1,
                                 window=60.0e-6, step=0.5e-6)
    scale = np.abs(direct.values).max()
    np.testing.assert_allclose(dsl.values, direct.values, atol=1e-9 * scale)


def test_dsl_route_matches_component_sum_seq1(four_spin):
    text = pp.builtin_program("seq1", amplitude_gauss=25.3, halfcycles=40,
                              window_us=60.0, step_us=0.5)
    program = pp.parse(text)
    state = engine.initial_state(program.init_kind, four_spin)
    _, (dsl,) = engine.evolve(state, four_spin, pp.compile(program))
    omega1 = GAMMA_F19 * 25.3
    p_curve, hd_curve = (seq1_component(
        part, four_spin, omega1, 40 * np.pi / omega1, window=60.0e-6,
        step=0.5e-6) for part in ("p", "hd"))
    total = p_curve.values + hd_curve.values
    scale = np.abs(total).max()
    np.testing.assert_allclose(dsl.values, total, atol=1e-9 * scale)


def test_run_program_needs_exactly_one_acquire(four_spin):
    for text in ("init ix\ndelay 5us\n",
                 "init ix\nacquire Ix for 4us step 1us\n"
                 "acquire Ix for 4us step 1us\n"):
        with pytest.raises(ValueError, match="exactly one acquire"):
            ex.run_program(pp.parse(text), four_spin)


def test_run_program_labels_the_curve(four_spin):
    program = pp.parse("init ix\nacquire Ix for 4us step 1us\n")
    curve = ex.run_program(program, four_spin, label="fid", sequence="pp")
    assert curve.values[0] == pytest.approx(1.0, abs=1e-12)
    assert curve.label == "fid"
    assert curve.meta == ex.cluster_meta(four_spin, ideal_reversal=False,
                                         sequence="pp")


# ------------------------------- exact identities beyond the dense oracles

@pytest.fixture(scope="module")
def nine_spin():
    # odd n: the spin flip X swaps the two parity classes
    return build_cluster("100", radius=2.0, max_sites=9)


def test_ideal_ratio_is_two_at_nine_sites(nine_spin):
    a1 = ex.sequence1_amplitude(nine_spin, 1.0e6, 1.9e-5, ideal_reversal=True)
    a2 = ex.sequence2_amplitude(nine_spin, 1.0e6, 1.9e-5, ideal_reversal=True)
    assert a2 / a1 == pytest.approx(2.0, abs=1e-12)


def test_fid_curvature_is_second_moment_at_nine_sites(nine_spin):
    # G(t) = 1 - M2 t^2/2 + M4 t^4/24 - ..., so the central difference
    # -(G(h) - 2 G(0) + G(-h)) / h^2 is M2 - M4 h^2/12 + O(h^4); M4 is the
    # norm of the double commutator [H', [H', I_x]] over that of I_x. The
    # M4 term is 2e-7 of M2 here, and what remains (rounding and the M6
    # term) about a thousandth of that
    m2 = second_moment(nine_spin)
    hd = ops.secular_dipolar(nine_spin)
    ix = ops.collective("x", 9)
    c2 = ops.commutator(hd, ops.commutator(hd, ix))
    m4 = np.vdot(c2, c2).real / np.vdot(ix, ix).real
    h = 1e-3 / np.sqrt(m2)
    g = ex.fid_values(nine_spin, [-h, 0.0, h])
    curvature = -(g[0] - 2.0 * g[1] + g[2]) / h**2
    m4_term = m4 * h**2 / (12.0 * m2)
    assert abs(curvature / m2 - 1.0 + m4_term) <= 0.1 * m4_term


def test_x_mirror_of_seq1_negates_the_signal(nine_spin):
    # X = prod sigma^x maps burst(+) onto burst(-), exp(i theta I_y) onto
    # exp(-i theta I_y) and I_y onto -I_y, and leaves -H' alone: pulses
    # about -y with the burst phases swapped give -s(t)
    body = ("init dipolar\npulse 90 {y}\nburst {p} 30G 4hc\n"
            "burst {m} 30G 4hc\ndelay 5us\npulse 45 {y}\n"
            "acquire Iy for 20us step 1us\n")
    signals = []
    for y, p, m in (("y", "+", "-"), ("-y", "-", "+")):
        program = pp.parse(body.format(y=y, p=p, m=m))
        state = engine.initial_state(program.init_kind, nine_spin)
        signals.append(engine.evolve(state, nine_spin,
                                     pp.compile(program))[1][0].values)
    scale = np.abs(signals[0]).max()
    assert scale > 1e-3
    assert np.abs(signals[0] + signals[1]).max() <= 1e-12 * scale


def test_relabelling_sites_leaves_seq1_and_rpw_unchanged(nine_spin):
    # collective signals do not see which site carries which label
    a = nine_spin.couplings
    perm = np.random.default_rng(12).permutation(9)
    omega1 = GAMMA_F19 * 30.0
    t1 = 8 * np.pi / omega1
    seq1, rpw = zip(*((ex.sequence1_amplitude(table, omega1, t1),
                       ex.rpw_magic_echo(table, omega1, 0.5 * t1).values)
                      for table in (a, a[np.ix_(perm, perm)])))
    assert seq1[1] == pytest.approx(seq1[0], rel=1e-12)
    assert np.abs(rpw[1] - rpw[0]).max() <= 1e-12 * np.abs(rpw[0]).max()


def test_scaling_couplings_field_and_times_scales_the_amplitudes(nine_spin):
    # a -> lam a and omega1 -> lam omega1 with every time over lam replay
    # the same dynamics; seq1's and seq2's starting states are linear in
    # H', so both amplitudes are lam times larger
    lam = 3.0
    a = nine_spin.couplings
    omega1 = GAMMA_F19 * 30.0
    t1 = 8 * np.pi / omega1
    window, step = 5.0 / local_field(a), 0.02 / local_field(a)
    for amplitude in (ex.sequence1_amplitude, ex.sequence2_amplitude):
        s = amplitude(a, omega1, t1, window=window, step=step)
        scaled = amplitude(lam * a, lam * omega1, t1 / lam,
                           window=window / lam, step=step / lam)
        assert scaled / (lam * s) == pytest.approx(1.0, abs=1e-12)


# -------------------------------------------------------- decay times

def test_decay_time_exponential():
    times = np.linspace(0.0, 5.0, 201)
    curve = engine.SignalCurve(times=times, values=np.exp(-times),
                               observable="y", start=0.0)
    est = ex.decay_time(curve)
    assert not est.censored
    assert est.t_d == pytest.approx(1.0, rel=1e-3)
    assert est.method == "one-over-e"


def test_decay_time_censored():
    times = np.linspace(0.0, 1.0, 10)
    curve = engine.SignalCurve(times=times, values=np.ones(10),
                               observable="y", start=0.0)
    est = ex.decay_time(curve)
    assert est.censored
    assert est.t_d is None


def test_decay_time_threshold_override():
    times = np.linspace(0.0, 5.0, 501)
    curve = engine.SignalCurve(times=times, values=np.exp(-times),
                               observable="y", start=0.0)
    est = ex.decay_time(curve, threshold=0.5)
    assert est.t_d == pytest.approx(np.log(2.0), rel=1e-3)
    assert est.threshold == 0.5


def test_decay_time_rejects_degenerate_curves():
    short = engine.SignalCurve(times=np.array([0.0, 1.0]),
                               values=np.array([1.0, 0.1]),
                               observable="y", start=0.0)
    with pytest.raises(ValueError, match="3 points"):
        ex.decay_time(short)
    flat0 = engine.SignalCurve(times=np.linspace(0, 1, 5),
                               values=np.zeros(5),
                               observable="y", start=0.0)
    with pytest.raises(ValueError, match="positive"):
        ex.decay_time(flat0)

