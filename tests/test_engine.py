"""Evolution engine checks.

The isolated pair gives closed-form signals (FID = cos(3at/4)); ideal burst
reversal gives exact echoes; average-Hamiltonian factorizations are compared
against exact propagators with known error orderings.
"""

import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from magicecho import engine, memory, operators as ops
from magicecho.engine import (
    Acquire,
    DeviationState,
    Evolve,
    HamiltonianSpec,
    Pulse,
    effective_propagator_a3,
    evolve,
    initial_state,
    verify_average_hamiltonian,
)
from magicecho.errors import InvariantViolation
from magicecho.lattice import GAMMA_F19, build_cluster, local_field
from test_operators import rotation

PAIR = np.array([[0.0, 1.0], [1.0, 0.0]]) * 1.0e5  # a = 1e5 rad/s


@pytest.fixture(scope="module")
def four_spin():
    return build_cluster("100", radius=1.0, max_sites=4)


def expm_hermitian(h: np.ndarray, t: float) -> np.ndarray:
    """Oracle: exp(-i h t) for a dense Hermitian h, by one complex eigh.

    Raises ValueError if h is not Hermitian to within 1e-12 of max(1, ||h||).
    """
    h = np.asarray(h)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ValueError("expected a square matrix")
    scale = max(1.0, float(np.linalg.norm(h)))
    if np.linalg.norm(h - h.conj().T) > 1e-12 * scale:
        raise ValueError("matrix is not Hermitian")
    w, v = np.linalg.eigh(h)
    return (v * np.exp(-1j * w * t)) @ v.conj().T


def test_expm_unitary_and_group_property():
    rng = np.random.default_rng(42)
    count = 0
    for dim in (4, 8, 16, 32, 64):
        for _ in range(20):
            m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            h = (m + m.conj().T) / 2.0
            t1, t2 = rng.uniform(0.1, 2.0, size=2)
            u1 = expm_hermitian(h, t1)
            u2 = expm_hermitian(h, t2)
            u12 = expm_hermitian(h, t1 + t2)
            assert np.linalg.norm(u1 @ u1.conj().T - np.eye(dim)) < 1e-11
            assert np.linalg.norm(u1 @ u2 - u12) < 1e-10
            count += 1
    assert count == 100


def test_expm_rejects_nonhermitian():
    with pytest.raises(ValueError, match="Hermitian"):
        expm_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]), 1.0)


def test_expm_zero_time_is_identity():
    h = np.diag([1.0, -2.0, 3.0])
    np.testing.assert_allclose(expm_hermitian(h, 0.0), np.eye(3),
                               atol=1e-15)


def build_hamiltonian(spec: HamiltonianSpec, cluster_or_matrix) -> np.ndarray:
    """Oracle: the Hamiltonian of ``spec``, dense in the product basis."""
    return ops.operator_sum(cluster_or_matrix, **spec.terms)


def test_build_hamiltonian_forms():
    hd = ops.secular_dipolar(PAIR)
    _, _, p = ops.nonsecular_pair_raising(PAIR)
    iz = ops.collective("z", 2)
    np.testing.assert_allclose(
        build_hamiltonian(HamiltonianSpec("dipolar"), PAIR), hd, atol=0.0)
    np.testing.assert_allclose(
        build_hamiltonian(HamiltonianSpec("ideal_burst"), PAIR), -0.5 * hd,
        atol=0.0)
    got = build_hamiltonian(HamiltonianSpec("burst", -1, 2.0e6), PAIR)
    np.testing.assert_allclose(got, -2.0e6 * iz - 0.5 * hd + 0.375 * p,
                               atol=1e-9)


def test_hamiltonian_spec_validation():
    with pytest.raises(ValueError):
        HamiltonianSpec("nonsense")
    with pytest.raises(ValueError):
        HamiltonianSpec("burst", 2, 1.0e6)
    with pytest.raises(ValueError):
        HamiltonianSpec("burst", 1, 0.0)


def test_initial_state_kinds():
    # states are built in sorted positions
    layout = ops.sector_layout(2)
    s = initial_state("ix", PAIR)
    np.testing.assert_allclose(layout.unsort(s.delta),
                               ops.collective("x", 2), atol=0.0)
    s = initial_state("dipolar", PAIR)
    np.testing.assert_allclose(layout.unsort(s.delta),
                               -ops.secular_dipolar(PAIR), atol=0.0)
    with pytest.raises(ValueError, match="unknown initial state"):
        initial_state("iy", PAIR)


def test_seq2_state_is_tilted_dipolar_order(four_spin):
    # the explicit seq2 mixture equals dipolar order conjugated by a
    # 45-degree pulse about y (positive-gamma convention)
    n = four_spin.n_sites
    layout = ops.sector_layout(n)
    direct = layout.unsort(initial_state("seq2", four_spin).delta)
    u = rotation("y", -np.pi / 4, n)
    tilted = (u @ layout.unsort(initial_state("dipolar", four_spin).delta)
              @ u.conj().T)
    np.testing.assert_allclose(direct, tilted, atol=1e-9 * np.linalg.norm(tilted))


def test_pulse_segment_on_dipolar_order():
    # 90-degree y pulse turns -H' into -(3/8)P + (1/2)H'
    state = initial_state("dipolar", PAIR)
    out, _ = evolve(state, PAIR, (Pulse("y", np.pi / 2),))
    delta = ops.sector_layout(2).unsort(out.delta)
    hd = ops.secular_dipolar(PAIR)
    _, _, p = ops.nonsecular_pair_raising(PAIR)
    c_hd = np.trace(delta @ hd).real / np.trace(hd @ hd).real
    c_p = np.trace(delta @ p.conj().T).real / np.trace(p @ p.conj().T).real
    assert c_hd == pytest.approx(0.5, abs=1e-12)
    assert c_p == pytest.approx(-0.375, abs=1e-12)


def test_pair_fid_closed_form():
    a = PAIR[0, 1]
    state = initial_state("ix", PAIR)
    window, step = 40.0e-6, 0.5e-6
    _, curves = evolve(state, PAIR, (Acquire("x", window, step),))
    (curve,) = curves
    np.testing.assert_allclose(curve.values, np.cos(0.75 * a * curve.times),
                               atol=1e-12)
    # quadrature channel stays dark for this initial state
    _, (curve_y,) = evolve(state, PAIR, (Acquire("y", window, step),))
    np.testing.assert_allclose(curve_y.values, 0.0, atol=1e-12)


def test_dipolar_order_is_stationary():
    state = initial_state("dipolar", PAIR)
    delta0 = state.delta.copy()   # the run advances state.delta in place
    out, (curve,) = evolve(state, PAIR, (
        Evolve(HamiltonianSpec("dipolar"), 1.0e-5),
        Acquire("x", 1.0e-5, 2.0e-6),
    ))
    np.testing.assert_allclose(curve.values, 0.0, atol=1e-12)
    np.testing.assert_allclose(out.delta, delta0, atol=1e-9)


def test_acquire_grid_and_state_advance():
    layout = ops.sector_layout(2)
    state = initial_state("ix", PAIR)
    delta0 = layout.unsort(state.delta)   # a copy, taken before the run
    window, step = 1.0e-5, 3.0e-6
    out, (curve,) = evolve(state, PAIR, (Acquire("x", window, step),))
    np.testing.assert_allclose(curve.times, [0.0, 3.0e-6, 6.0e-6, 9.0e-6],
                               atol=1e-18)
    # the state advances by the full window, not just to the last sample
    u = expm_hermitian(ops.secular_dipolar(PAIR), window)
    expected = u @ delta0 @ u.conj().T
    np.testing.assert_allclose(layout.unsort(out.delta), expected, atol=1e-9)


def _stepwise_acquire(delta, a, observable, window, step):
    """Oracle: sample Tr(Delta O) after each step of repeated conjugation by
    exp(-i H' step), then advance by the remainder of the window."""
    w, v = np.linalg.eigh(ops.secular_dipolar(a))

    def u(t):
        return (v * np.exp(-1j * w * t)) @ v.conj().T

    o = ops.collective(observable, a.shape[0])
    n_samp = int(np.floor(window / step + 1e-9)) + 1
    u_step = u(step)
    values = []
    for m in range(n_samp):
        if m:
            delta = u_step @ delta @ u_step.conj().T
        values.append(np.trace(delta @ o) / np.trace(o @ o))
    u_rest = u(window - (n_samp - 1) * step)
    return np.array(values), u_rest @ delta @ u_rest.conj().T


def test_spectral_acquire_matches_stepwise_oracle():
    cluster = build_cluster("100", radius=1.0, max_sites=5)
    a = cluster.couplings
    wl = local_field(cluster)
    window, step = 5.3 / wl, 0.07 / wl          # window is not a multiple
    assert window / step % 1.0 > 0.1
    rng = np.random.default_rng(5)
    m = rng.normal(size=(32, 32)) + 1j * rng.normal(size=(32, 32))
    delta0 = m + m.conj().T
    delta0 -= np.trace(delta0) / 32 * np.eye(32)
    layout = ops.sector_layout(5)
    for observable in ("x", "y"):
        out, (curve,) = evolve(DeviationState(layout.sort(delta0)), cluster,
                               (Acquire(observable, window, step),))
        values, delta = _stepwise_acquire(delta0, a, observable, window,
                                          step)
        assert curve.values.size == values.size == 76
        assert np.abs(curve.values - values).max() <= \
            1e-12 * np.abs(values).max()
        assert np.linalg.norm(layout.unsort(out.delta) - delta) <= \
            1e-12 * np.linalg.norm(delta)


# --------------------------------------------- blocked engine vs dense oracle

def _dense_evolve(delta, a, segments):
    """Oracle: every segment with full-dimension matrices. Evolutions use
    one eigendecomposition of the whole Hamiltonian, pulses the kron
    rotation, and each sample is Tr(U(t) Delta U(t)^dagger O) at its time."""
    n = a.shape[0]

    def propagator(h, t):
        w, v = np.linalg.eigh(h)
        return (v * np.exp(-1j * w * t)) @ v.conj().T

    samples = []
    for seg in segments:
        if isinstance(seg, Pulse):
            u = rotation(seg.axis, -seg.angle, n)
        elif isinstance(seg, Evolve):
            u = propagator(build_hamiltonian(seg.hamiltonian, a),
                           seg.duration)
        else:
            hd = ops.secular_dipolar(a)
            o = ops.collective(seg.observable, n)
            n_samp = int(np.floor(seg.window / seg.step + 1e-9)) + 1
            for t in np.arange(n_samp) * seg.step:
                ut = propagator(hd, t)
                samples.append(np.trace(ut @ delta @ ut.conj().T @ o).real
                               / np.vdot(o, o).real)
            u = propagator(hd, seg.window)
        delta = u @ delta @ u.conj().T
    return delta, np.array(samples)


@st.composite
def blocked_cases(draw):
    """(couplings, initial delta, segments): n = 2..7 with uncoupled pairs,
    every Hamiltonian kind, both burst signs, all six pulse axes."""
    n = draw(st.integers(2, 7))
    value = st.one_of(st.just(0.0),
                      st.floats(-1e5, 1e5, allow_nan=False, width=64))
    upper = draw(st.lists(value, min_size=n * (n - 1) // 2,
                          max_size=n * (n - 1) // 2))
    a = np.zeros((n, n))
    a[np.triu_indices(n, 1)] = upper
    a = a + a.T
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m = rng.normal(size=(2**n, 2**n)) + 1j * rng.normal(size=(2**n, 2**n))
    spec = st.one_of(
        st.just(HamiltonianSpec("dipolar")),
        st.just(HamiltonianSpec("ideal_burst")),
        st.builds(HamiltonianSpec, st.just("burst"), st.sampled_from((1, -1)),
                  st.floats(1e4, 1e6)))
    segment = st.one_of(
        st.builds(Pulse, st.sampled_from(("x", "y", "z", "-x", "-y", "-z")),
                  st.floats(-2 * np.pi, 2 * np.pi)),
        st.builds(Evolve, spec, st.floats(0.0, 3e-5)),
        st.builds(Acquire, st.sampled_from("xyz"), st.floats(2e-6, 1e-5),
                  st.just(2e-6)))
    segments = draw(st.lists(segment, min_size=1, max_size=6))
    return a, m + m.conj().T, tuple(segments)


@settings(max_examples=80, deadline=None)
@given(blocked_cases())
def test_blocked_evolve_matches_dense_oracle(case):
    a, delta0, segments = case
    layout = ops.sector_layout(a.shape[0])
    out, curves = evolve(DeviationState(layout.sort(delta0)), a, segments)
    delta, samples = _dense_evolve(delta0, a, segments)
    scale = np.linalg.norm(delta0)
    assert np.linalg.norm(layout.unsort(out.delta) - delta) <= 1e-10 * scale
    got = np.concatenate([c.values for c in curves] + [np.zeros(0)])
    assert got.shape == samples.shape
    # |s| <= ||Delta|| / ||O||, and ||O|| >= sqrt(2^n / 4)
    bound = scale / np.sqrt(2.0**a.shape[0] / 4.0)
    assert np.abs(got - samples).max(initial=0.0) <= 1e-10 * bound


# ---------------------------------- blockwise acquisition vs dense phase sum

def _dense_phase_sum_acquire(delta, a, seg):
    """Oracle: one Acquire with full-dimension matrices. Delta~ and O~ in
    the eigenbasis of the dense H', the phase sum of m = Delta~ * O~.T over
    every eigenvalue gap, and Delta advanced by the dense phase outer
    product. Returns (samples, imaginary parts, final delta)."""
    n = a.shape[0]
    w, v = np.linalg.eigh(ops.secular_dipolar(a))
    o = ops.collective(seg.observable, n)
    d_eig = v.conj().T @ delta @ v
    m = d_eig * (v.conj().T @ o @ v).T
    gaps = np.subtract.outer(w, w)
    n_samp = int(np.floor(seg.window / seg.step + 1e-9)) + 1
    s = np.array([(m * np.exp(-1j * gaps * t)).sum()
                  for t in np.arange(n_samp) * seg.step])
    s /= np.vdot(o, o).real
    phase = np.exp(-1j * w * seg.window)
    return (s.real, s.imag,
            v @ (d_eig * np.outer(phase, phase.conj())) @ v.conj().T)


@st.composite
def acquire_cases(draw):
    """(couplings, Hermitian delta, Acquire): n = 2..7, some pairs
    uncoupled, every observable."""
    n = draw(st.integers(2, 7))
    value = st.one_of(st.just(0.0),
                      st.floats(-1e5, 1e5, allow_nan=False, width=64))
    upper = draw(st.lists(value, min_size=n * (n - 1) // 2,
                          max_size=n * (n - 1) // 2))
    a = np.zeros((n, n))
    a[np.triu_indices(n, 1)] = upper
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m = rng.normal(size=(2**n, 2**n)) + 1j * rng.normal(size=(2**n, 2**n))
    seg = Acquire(draw(st.sampled_from(("x", "y", "z"))),
                  draw(st.floats(2e-6, 2e-5)), 2e-6)
    return a + a.T, m + m.conj().T, seg


@settings(max_examples=60, deadline=None)
@given(acquire_cases())
def test_blockwise_acquire_matches_dense_phase_sum(case):
    a, delta0, seg = case
    layout = ops.sector_layout(a.shape[0])
    out, (curve,) = evolve(DeviationState(layout.sort(delta0)), a, (seg,))
    samples, imag, delta = _dense_phase_sum_acquire(delta0, a, seg)
    scale = np.linalg.norm(delta0)
    # |s| <= ||Delta|| / ||O||, and ||O|| >= sqrt(2^n / 4)
    bound = scale / np.sqrt(2.0**a.shape[0] / 4.0)
    assert np.abs(imag).max() <= 1e-10 * bound   # the oracle is sound
    assert curve.values.shape == samples.shape
    assert np.abs(curve.values - samples).max() <= 1e-10 * bound
    assert np.linalg.norm(layout.unsort(out.delta) - delta) <= 1e-10 * scale


# a .pp run at n = 8 (d = 256): dipolar order, pulse, burst pair, delay,
# read pulse and an Iy acquire
_PEAK_PROGRAM = """\
init dipolar
pulse 90 y
burst + 25.3G 12hc
burst - 25.3G 12hc
delay 30us
pulse 45 y
acquire Iy for 60us step 0.5us
"""
# peak traced numpy data of that run, in dense complex operators of
# 16 d^2 bytes: the run's Delta and the eigenblocks, plus the acquire's
# phase rows and terms, which set the peak at this size (measured 2.11;
# 2.39 while a phase sum held every sector's rows; a dense acquire and
# dense Hamiltonians peak near 8.8)
PEAK_OPERATORS = 2.2


def test_pp_run_peak_memory_is_bounded():
    import tracemalloc

    from magicecho import pulseprog

    cluster = build_cluster("110", radius=2.0, max_sites=8)
    program = pulseprog.parse(_PEAK_PROGRAM)
    segments = pulseprog.compile(program)
    # warm the per-n caches, then count the run's own eigenblocks
    ops.sector_layout(8)
    ops.collective_blocks("y", 8)
    engine.EIGENSYSTEMS.clear()
    tracemalloc.start()
    try:
        state = initial_state(program.init_kind, cluster)
        _, (curve,) = evolve(state, cluster, segments)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert curve.values.size == 121
    assert peak <= PEAK_OPERATORS * 16 * 256**2


# the same program at n = 9 (d = 512) as a single run through
# experiments.run_program: the run builds its start in sorted positions and
# owns it, so it holds Delta and the cached eigenvectors, and its peak is a
# burst's class factors in the making; a pulse adds two slabs of 32 rows
# (measured 1.88; 2.02 while a propagation slab was half of Delta, 2.35
# while a pulse held a d x d work buffer)
RUN_PEAK_OPERATORS = 1.95


def test_single_run_peak_memory_is_bounded():
    import tracemalloc

    from magicecho import experiments, pulseprog

    cluster = build_cluster("110", radius=2.0, max_sites=9)
    program = pulseprog.parse(_PEAK_PROGRAM)
    ops.sector_layout(9)
    ops.collective_blocks("y", 9)
    engine.EIGENSYSTEMS.clear()
    tracemalloc.start()
    try:
        curve = experiments.run_program(program, cluster)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert curve.values.size == 121
    assert peak <= RUN_PEAK_OPERATORS * 16 * 512**2


# a seq1 sweep at n = 9, each point a run from its own start: the peak is
# still a point's acquisition, now its current phase rows and terms, level
# with a burst (measured 1.97; 2.37 while a phase sum held every sector's
# rows)
SWEEP_PEAK_OPERATORS = 2.05


def test_sweep_peak_memory_is_bounded():
    # every point of a sweep builds its own start and the run advances it
    # in place, so a sweep peaks as one of its points does
    import tracemalloc

    from magicecho import experiments

    cluster = build_cluster("110", radius=2.0, max_sites=9)
    omega1 = GAMMA_F19 * 30.0
    t1 = 8 * np.pi / omega1
    ops.sector_layout(9)
    ops.collective_blocks("y", 9)
    engine.EIGENSYSTEMS.clear()
    tracemalloc.start()
    try:
        curve = experiments.sweep_t1("seq1", cluster, omega1,
                                     [t1, 2 * t1, 3 * t1])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert curve.values.size == 3
    assert peak <= SWEEP_PEAK_OPERATORS * 16 * 512**2


def test_sorted_state_is_the_runs_own(four_spin):
    # every state is in sorted positions, and the run advances it in place
    layout = ops.sector_layout(4)
    a = four_spin.couplings
    segments = (Pulse("y", 0.7), Evolve(HamiltonianSpec("burst", -1, 3e5),
                                        2e-5), Acquire("x", 1e-5, 1e-6))
    given = initial_state("seq2", four_spin).delta
    expected, samples = _dense_evolve(layout.unsort(given), a, segments)
    expected = layout.sort(expected)
    tol = 1e-12 * np.linalg.norm(given)
    # a complex C-ordered Delta is the state's own: evolve advances it in
    # place and returns the same state
    state = DeviationState(given.copy())
    kept = state.delta
    out, (curve,) = evolve(state, four_spin, segments)
    assert out is state and out.delta is kept
    np.testing.assert_allclose(kept, expected, rtol=0, atol=tol)
    np.testing.assert_allclose(curve.values, samples, rtol=0,
                               atol=1e-12 * np.abs(samples).max())
    # a Fortran-ordered or real Delta is taken in C order as a copy, which
    # the run advances; the given array is left as it was
    assert not given.imag.any()   # so its real part is the same Delta
    for other in (np.asfortranarray(given), given.real.copy()):
        before = other.copy()
        state = DeviationState(other)
        assert state.delta is not other and state.delta.flags.c_contiguous
        out, _ = evolve(state, four_spin, segments)
        assert out is state
        np.testing.assert_array_equal(other, before)
        np.testing.assert_allclose(state.delta, expected, rtol=0, atol=tol)


def test_state_delta_cannot_be_rebound(four_spin):
    # a rebound Delta skips the checks, and a Fortran-ordered one would be
    # rotated as a copy by every pulse, leaving the state unturned
    state = initial_state("dipolar", four_spin)
    kept = state.delta
    with pytest.raises(dataclasses.FrozenInstanceError):
        state.delta = np.asfortranarray(kept)
    assert state.delta is kept


def test_memory_estimate_refuses_what_does_not_fit(monkeypatch):
    cluster = build_cluster("100", radius=2.0, max_sites=9)
    omega1 = 10.0 * local_field(cluster)
    segments = (Pulse("y", 0.5), Acquire("x", 1e-5, 1e-6))
    # n = 9: a dense operator is 4 MiB, and each job's estimate holds at
    # least the three quarters of one that a class factor takes, so none
    # fits in 1 MiB
    monkeypatch.setattr(memory, "available_bytes", lambda: 2**20)
    message = r"an estimated \d+ MiB, but only 1 MiB is available"
    with pytest.raises(ValueError, match="this run .*" + message):
        evolve(initial_state("ix", cluster), cluster, segments)
    with pytest.raises(ValueError, match="verify .*" + message):
        verify_average_hamiltonian(cluster, omega1)
    with pytest.raises(ValueError, match="A3 .*" + message):
        effective_propagator_a3(cluster, omega1, 1e-6)
    monkeypatch.setattr(memory, "available_bytes", lambda: 2**30)
    evolve(initial_state("ix", cluster), cluster, segments)


def test_a_pulse_run_fits_without_a_second_operator(monkeypatch):
    # a pulse works through two slabs, so the estimate has no pulse term:
    # a pulse-only run at n = 10 (16 MiB operators, an estimate of 5 MiB)
    # runs in 14 MiB, which the 16 MiB work-buffer term once refused
    cluster = build_cluster("100", radius=2.0, max_sites=10)
    state = initial_state("dipolar", cluster)
    norm0 = np.linalg.norm(state.delta)
    monkeypatch.setattr(memory, "available_bytes", lambda: 14 * 2**20)
    out, curves = evolve(state, cluster, (Pulse("y", np.pi / 4),
                                          Pulse("-x", 0.5)))
    assert out is state and curves == []
    assert np.linalg.norm(state.delta) == pytest.approx(norm0, rel=1e-12)


def test_only_a_burst_run_is_charged_class_factors(monkeypatch):
    # n = 10: an I_x acquire is estimated at its cached H' eigenvectors and
    # a sector factor with its slab, 6.3 MiB, so it runs in 10 MiB. It was
    # charged 12 MiB of class factors on top (13.4 MiB), as a run with a
    # burst still is (19.5 MiB with the burst's eigenvectors)
    cluster = build_cluster("100", radius=2.0, max_sites=10)
    state = initial_state("ix", cluster)
    monkeypatch.setattr(memory, "available_bytes", lambda: 10 * 2**20)
    _, (curve,) = evolve(state, cluster, (Acquire("x", 1e-5, 1e-6),))
    assert curve.values[0] == pytest.approx(1.0, rel=1e-12)
    with pytest.raises(ValueError, match=r"this run at n = 10 would "
                       r"allocate an estimated 19 MiB, but only 10 MiB"):
        evolve(state, cluster, (Evolve(HamiltonianSpec("burst", 1, 3e5),
                                       1e-6), Acquire("x", 1e-5, 1e-6)))


@pytest.mark.parametrize("segments", [
    (Acquire("x", 1e-5, 4e-8),),                       # one block of times
    (Acquire("y", 1e-5, 1e-8),),                       # four blocks
    (Pulse("y", 0.5), Evolve(HamiltonianSpec("burst", -1, 5e5), 2e-5),
     Evolve(HamiltonianSpec("dipolar"), 1e-5), Acquire("y", 1e-5, 1e-7)),
], ids=["acquire", "long-acquire", "burst-program"])
def test_run_estimate_bounds_its_traced_peak(monkeypatch, segments):
    # a run's estimate leaves out its own Delta, so it must bound the peak
    # traced above it, eigendecompositions included
    import tracemalloc

    cluster = build_cluster("100", radius=2.0, max_sites=8)
    state = initial_state("ix", cluster)
    for axis in "xy":
        ops.collective_blocks(axis, 8)
    engine.EIGENSYSTEMS.clear()
    needs = {}
    monkeypatch.setattr(engine, "check_fits",
                        lambda what, need: needs.setdefault(what, need))
    tracemalloc.start()
    try:
        evolve(state, cluster, segments)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= needs["this run at n = 8"]


def test_available_memory_without_proc_meminfo(monkeypatch):
    def missing(*args, **kwargs):
        raise FileNotFoundError(args[0])

    monkeypatch.setattr(memory, "open", missing, raising=False)
    pages = {"SC_AVPHYS_PAGES": 1000, "SC_PAGE_SIZE": 4096}
    monkeypatch.setattr(memory.os, "sysconf", pages.__getitem__)
    assert memory.available_bytes() == 4096000


# verify plus A3 at n = 8, eigendecompositions included, in the same
# units: the cached spectra, one class factor at a time and A3's d x d
# result (measured 2.12; 4.25 with dense sorted unitaries)
VERIFY_PEAK_OPERATORS = 3.0


def test_verify_and_a3_peak_memory_is_bounded():
    import tracemalloc

    cluster = build_cluster("100", radius=2.0, max_sites=8)
    omega1 = 10.0 * local_field(cluster)
    # warm the per-n layout, then count verify's own eigenblocks
    ops.sector_layout(8)
    engine.EIGENSYSTEMS.clear()
    tracemalloc.start()
    try:
        t1 = verify_average_hamiltonian(cluster, omega1)["t1"]
        effective_propagator_a3(cluster, omega1, t1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= VERIFY_PEAK_OPERATORS * 16 * 256**2


def test_burst_minus_is_burst_plus_under_spin_flip(monkeypatch):
    # a run takes the burst(-) factors from the burst(+) spectra, indexed
    # by the spin flip X (which swaps the parity classes for odd n): they
    # must be exp(-i H- t) of the true burst(-), with no eigh of their own
    rng = np.random.default_rng(3)
    plus = HamiltonianSpec("burst", 1, 3e5)
    minus = HamiltonianSpec("burst", -1, 3e5)
    for n in (4, 5):
        a = rng.normal(scale=1e4, size=(n, n))
        a = a + a.T
        layout = ops.sector_layout(n)
        h_plus, h_minus = (layout.sort(build_hamiltonian(spec, a))
                           for spec in (plus, minus))
        np.testing.assert_array_equal(
            h_plus[np.ix_(layout.flip, layout.flip)], h_minus)
        cache = engine.EigenCache()
        monkeypatch.setattr(engine, "EIGENSYSTEMS", cache)
        t = 2.0e-5
        for spec, h in ((plus, h_plus), (minus, h_minus)):
            got = np.zeros_like(h)
            for s, u in engine._segment_factors(spec, a, t):
                got[s, s] = u
            exact = expm_hermitian(h, t)
            np.testing.assert_allclose(got, exact, rtol=0, atol=1e-12)
        assert (cache.computed, cache.reused) == (1, 1)


def test_phase_sum_blocks_match_direct_sum():
    rng = np.random.default_rng(9)
    times = np.linspace(0.0, 7.0, 600)          # spans three blocks
    spectra = [rng.normal(size=size) for size in (6, 4, 7)]
    # a real sum: a Hermitian square term, and a rectangular term with
    # its conjugate transpose at the mirrored block
    h = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    m = rng.normal(size=(4, 7)) + 1j * rng.normal(size=(4, 7))
    terms = [(0, 0, h + h.conj().T), (1, 2, m), (2, 1, m.conj().T)]
    direct = [sum((m * np.exp(-1j * np.subtract.outer(spectra[r], spectra[c])
                              * t)).sum() for r, c, m in terms)
              for t in times]
    np.testing.assert_allclose(engine.phase_sum(spectra, terms, times, "s"),
                               direct, rtol=0, atol=1e-12)
    # an imaginary diagonal entry adds i eps to every sample: 2x the bound
    # SIGNAL_IMAG_TOL sum |m| raises, 0.5x does not
    scale = sum(np.abs(m).sum() for _, _, m in terms)
    for factor, rejected in ((2.0, True), (0.5, False)):
        leaky = terms[0][2].copy()
        leaky[0, 0] += 1j * factor * engine.SIGNAL_IMAG_TOL * scale
        leaky_terms = [(0, 0, leaky), *terms[1:]]
        if rejected:
            with pytest.raises(InvariantViolation,
                               match="the test sum acquired an imaginary"):
                engine.phase_sum(spectra, leaky_terms, times, "the test sum")
        else:
            engine.phase_sum(spectra, leaky_terms, times, "the test sum")


@pytest.mark.parametrize("size", [200, 700])   # one block of times, three
def test_phase_sum_reads_any_iterable_of_terms(size):
    # a generator's terms are read once, as they come; a list's may be
    # read once per block of times. Every order of the terms gives the same
    # bits both ways, each phase row reused or computed afresh
    rng = np.random.default_rng(5)
    times = np.linspace(0.0, 5.0, size)
    spectra = [rng.normal(size=k) for k in (3, 5, 4)]
    terms = []
    for r, c in ((0, 1), (1, 1), (2, 0), (1, 2), (2, 2)):
        m = rng.normal(size=(spectra[r].size, spectra[c].size)) \
            + 1j * rng.normal(size=(spectra[r].size, spectra[c].size))
        terms += [(r, c, m), (c, r, m.conj().T)]
    direct = [sum((m * np.exp(-1j * np.subtract.outer(spectra[r], spectra[c])
                              * t)).sum() for r, c, m in terms)
              for t in times]
    for order in (terms, terms[::-1], [terms[k] for k in rng.permutation(10)]):
        listed = engine.phase_sum(spectra, order, times, "s")
        streamed = engine.phase_sum(spectra, iter(order), times, "s")
        np.testing.assert_array_equal(streamed, listed)
        np.testing.assert_allclose(listed, direct, rtol=0, atol=1e-12)


def test_propagation_slabs_match_one_pass(monkeypatch):
    # slabs of 32 columns (rows), forced by a 1-byte chunk, and the dense
    # U Delta U^dagger agree to round-off
    n = 8
    rng = np.random.default_rng(6)
    a = rng.normal(scale=1e4, size=(n, n))
    a = a + a.T
    delta = rng.normal(size=(2**n,) * 2) + 1j * rng.normal(size=(2**n,) * 2)
    delta += delta.conj().T
    u = np.zeros_like(delta)
    for s, f in engine._segment_factors(HamiltonianSpec("burst", -1, 3e5),
                                        a, 2e-5):
        u[s, s] = f
    expected = u @ delta @ u.conj().T
    monkeypatch.setattr(engine, "_CHUNK_BYTES", 1)
    engine._propagate(delta, engine._segment_factors(
        HamiltonianSpec("burst", -1, 3e5), a, 2e-5))
    np.testing.assert_allclose(delta, expected, rtol=0,
                               atol=1e-13 * np.abs(expected).max())


def test_eigen_cache_holds_one_coupling_table():
    cache = engine.EigenCache()
    spec = HamiltonianSpec("dipolar")
    blocks = cache.get(spec, PAIR)
    assert cache.get(spec, PAIR) is blocks
    (_, w, v), *_ = blocks
    cache.get(HamiltonianSpec("ideal_burst"), PAIR)   # derived from H'
    cache.get(spec, 2.0 * PAIR)      # a new table drops the old entries
    cache.get(spec, PAIR)
    assert (cache.computed, cache.reused) == (3, 2)
    with pytest.raises(ValueError):
        w[0] = 0.0
    cache.clear()
    assert (cache.computed, cache.reused) == (0, 0)


def test_ideal_rpw_echo_is_exact(four_spin):
    tau = 20.0e-6
    state = initial_state("ix", four_spin)
    _, (curve,) = evolve(state, four_spin, (
        Evolve(HamiltonianSpec("dipolar"), tau),
        Evolve(HamiltonianSpec("ideal_burst"), 2.0 * tau),
        Acquire("x", 1.0e-6, 1.0e-6),
    ))
    assert curve.values[0] == pytest.approx(1.0, abs=1e-12)


def test_burst_echo_improves_with_field(four_spin):
    wl = local_field(four_spin)

    def echo_defect(omega1):
        n_half = 8
        tau = n_half * np.pi / omega1
        _, (curve,) = evolve(initial_state("ix", four_spin), four_spin, (
            Evolve(HamiltonianSpec("dipolar"), tau),
            Evolve(HamiltonianSpec("burst", +1, omega1), tau),
            Evolve(HamiltonianSpec("burst", -1, omega1), tau),
            Acquire("x", 1.0e-7, 1.0e-7),
        ))
        return 1.0 - curve.values[0]

    d1 = echo_defect(20.0 * wl)
    d2 = echo_defect(40.0 * wl)
    assert 0 < d2 < d1 < 0.2


def test_evolve_preserves_spectrum_over_ten_segments(four_spin):
    state = initial_state("seq2", four_spin)
    delta0 = state.delta.copy()   # the run advances state.delta in place
    segs = []
    for k in range(5):
        segs.append(Pulse("x" if k % 2 else "y", 0.3 + 0.1 * k))
        segs.append(Evolve(HamiltonianSpec("dipolar"), 5.0e-6))
    out, _ = evolve(state, four_spin, tuple(segs))
    w_in = np.linalg.eigvalsh(delta0)
    w_out = np.linalg.eigvalsh(out.delta)
    scale = max(1.0, np.abs(w_in).max())
    assert np.abs(w_in - w_out).max() < 1e-9 * scale


def test_deviation_state_hermiticity_reads_its_tolerance():
    # an entry eps above the diagonal of diag(1, -1) leaves the residual
    # ||d - d^dagger|| = sqrt(2) eps against ||d|| = sqrt(2), so the
    # relative residual is eps: 2x and 0.5x the tolerance
    d = np.diag([1.0, -1.0]).astype(complex)
    for factor, rejected in ((2.0, True), (0.5, False)):
        bad = d.copy()
        bad[0, 1] = factor * engine.HERMITICITY_TOL
        if rejected:
            with pytest.raises(ValueError, match="Hermitian"):
                DeviationState(bad)
        else:
            DeviationState(bad)


@pytest.mark.parametrize("name,match", [("SEGMENT_DRIFT_TOL", "drifted"),
                                        ("SIGNAL_IMAG_TOL", "imaginary"),
                                        ("WINDOW_START_TOL", "identity")])
def test_evolve_checks_read_their_tolerances(monkeypatch, name, match):
    # a negative tolerance fails every comparison, so the check that reads
    # the constant is the one that fires
    monkeypatch.setattr(engine, name, -1.0)
    with pytest.raises(InvariantViolation, match=match):
        evolve(initial_state("ix", PAIR), PAIR,
               (Acquire("x", 1.0e-5, 1.0e-6),))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_segments_refuse_non_finite_values(bad):
    # each check is one comparison that a NaN or an infinity fails
    for make in (lambda: Pulse("x", bad),
                 lambda: Evolve(HamiltonianSpec("dipolar"), bad),
                 lambda: Acquire("x", bad, 1e-6),
                 lambda: Acquire("x", 1e-5, bad),
                 lambda: HamiltonianSpec("burst", 1, bad),
                 lambda: engine.halfcycle_duration(bad, 4)):
        with pytest.raises(ValueError):
            make()


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_deviation_state_rejects_non_finite_delta(bad):
    d = np.diag([1.0, -1.0]).astype(complex)
    d[0, 0] = bad
    with pytest.raises(ValueError, match="finite"):
        DeviationState(d)


@pytest.mark.parametrize("corrupt", ["nan", "scaled"])
def test_corrupted_eigenblock_of_a_middle_evolve_is_caught(monkeypatch,
                                                           corrupt):
    # one NaN eigenvalue, or eigenvectors 1% too long, in the burst(+)
    # block of segment 1 of 4; a NaN fails no '>' comparison, so every
    # check must be written to fail on it
    a = build_cluster("100", radius=2.0, max_sites=6).couplings
    omega1 = 10.0 * local_field(a)
    t1 = 4 * np.pi / omega1
    burst = HamiltonianSpec("burst", 1, omega1)
    cache = engine.EigenCache()

    def get(spec, cluster):
        blocks = cache.get(spec, cluster)
        if spec != burst:
            return blocks
        (s, w, v), *rest = blocks
        if corrupt == "nan":
            w = w.copy()
            w[0] = np.nan
        else:
            v = 1.01 * v
        return ((s, w, v), *rest)

    monkeypatch.setattr(engine, "EIGENSYSTEMS", SimpleNamespace(get=get))
    segments = (
        Evolve(HamiltonianSpec("dipolar"), 1.0e-5), Evolve(burst, t1),
        Evolve(HamiltonianSpec("burst", -1, omega1), t1),
        Acquire("x", 1.0e-5, 1.0e-6))
    with pytest.raises(InvariantViolation, match=r"segment 1 \(Evolve\)"):
        evolve(initial_state("ix", a), a, segments)


def test_state_dimension_mismatch_rejected(four_spin):
    state = initial_state("ix", PAIR)
    with pytest.raises(ValueError, match="dimension"):
        evolve(state, four_spin, ())


def test_verify_zero_couplings_is_exact():
    zeros = np.zeros((3, 3))
    rep = verify_average_hamiltonian(zeros, omega1=1.0e6, n_halfcycles=4)
    assert rep["err0"] == pytest.approx(0.0, abs=1e-12)
    assert rep["err1"] == pytest.approx(0.0, abs=1e-12)


def test_verify_first_order_beats_zeroth(four_spin):
    wl = local_field(four_spin)
    rep = verify_average_hamiltonian(four_spin, omega1=10.0 * wl,
                                     n_halfcycles=4)
    assert 0.0 < rep["err1"] < rep["err0"]


def test_verify_error_scaling_with_field(four_spin):
    # doubling omega1 at fixed t1: the first-order term halves, higher
    # orders drop faster, so err0 should shrink by a factor in [0.2, 0.7]
    wl = local_field(four_spin)
    omega1 = 12.0 * wl
    r1 = verify_average_hamiltonian(four_spin, omega1, n_halfcycles=4)
    r2 = verify_average_hamiltonian(four_spin, 2.0 * omega1, n_halfcycles=8)
    assert r2["t1"] == pytest.approx(r1["t1"], rel=1e-12)
    ratio = r2["err0"] / r1["err0"]
    assert 0.2 <= ratio <= 0.7


def test_a3_identity_for_zero_couplings():
    zeros = np.zeros((3, 3))
    prop = effective_propagator_a3(zeros, omega1=1.0e6, t1=1.0e-5)
    np.testing.assert_allclose(prop, np.eye(8), atol=1e-12)


def test_a3_closed_form_product_unitary_and_time_ordered(four_spin):
    wl = local_field(four_spin)
    omega1 = 10.0 * wl
    a = four_spin.couplings
    hd = ops.secular_dipolar(a)
    h1, _ = ops.magnus_first_correction(a, omega1)
    t1 = 8.0 * np.pi / omega1
    prop = effective_propagator_a3(four_spin, omega1, t1)
    two_factor = (expm_hermitian(hd, 0.5 * t1)
                  @ expm_hermitian(-0.5 * hd + h1, t1))
    assert np.abs(prop - two_factor).max() <= 1e-12 * np.abs(two_factor).max()
    dim = prop.shape[0]
    assert np.linalg.norm(prop @ prop.conj().T
                          - np.eye(dim)) < 1e-10
    # it solves the time-ordered equation dA/dt = -i H1(t) A, with H1(t)
    # the correction in the frame exp(-i H' t/2); central difference
    dt = 1e-4 * t1
    frame = expm_hermitian(hd, 0.5 * t1)
    h1_t = frame @ h1 @ frame.conj().T
    slope = (effective_propagator_a3(four_spin, omega1, t1 + dt)
             - effective_propagator_a3(four_spin, omega1, t1 - dt)
             ) / (2.0 * dt)
    expected = -1j * h1_t @ prop
    assert np.linalg.norm(slope - expected) < 1e-6 * np.linalg.norm(expected)


def test_a3_matches_exact_cycle_composition(four_spin):
    # exact: + burst over t1 (even half-cycles, so the z rotation is
    # trivial) followed by free evolution t1/2; A3 models its defect
    n_half = 8
    _, _, p = ops.nonsecular_pair_raising(four_spin.couplings)
    wl = local_field(four_spin)
    discrepancies = []
    for factor in (8.0, 16.0, 32.0):
        omega1 = factor * wl
        t1 = n_half * np.pi / omega1
        hd = ops.secular_dipolar(four_spin.couplings)
        h_burst = build_hamiltonian(HamiltonianSpec("burst", 1, omega1),
                                    four_spin)
        u_exact = (expm_hermitian(hd, 0.5 * t1)
                   @ expm_hermitian(h_burst, t1))
        a3 = effective_propagator_a3(four_spin, omega1, t1)
        diff = (a3 @ p @ a3.conj().T
                - u_exact @ p @ u_exact.conj().T)
        discrepancies.append(np.linalg.norm(diff) / np.linalg.norm(p))
    assert discrepancies[2] < discrepancies[1] < discrepancies[0]


def dense_h1_parts(a, omega1):
    """Oracle: H1's two parts from four dense products in the product
    basis, the formula of ops.magnus_first_correction written out."""
    hd = ops.secular_dipolar(a)
    h2, hm2, _ = ops.nonsecular_pair_raising(a)
    return ((3.0 / 8.0) ** 2 * ops.commutator(h2, hm2) / (2.0 * omega1),
            (3.0 / 16.0) * ops.commutator(hd, hm2 - h2) / (2.0 * omega1))


def dense_verify(a, omega1, n_halfcycles=4):
    """Oracle: verify_average_hamiltonian's err0 and err1 from dense
    complex exponentials in the product basis."""
    n = a.shape[0]
    t1 = n_halfcycles * np.pi / omega1
    u_exact = expm_hermitian(build_hamiltonian(
        HamiltonianSpec("burst", 1, omega1), a), t1)
    u_z = expm_hermitian(omega1 * ops.collective("z", n), t1)
    hd = ops.secular_dipolar(a)
    h1 = sum(dense_h1_parts(a, omega1))
    return [np.linalg.norm(u_exact - u_z @ expm_hermitian(f, t1))
            / np.sqrt(2**n) for f in (-0.5 * hd, -0.5 * hd + h1)]


@pytest.mark.parametrize("n", range(2, 8))
def test_blockwise_h1_verify_and_a3_match_dense_oracle(n):
    a = build_cluster("100", radius=2.0, max_sites=n).couplings
    omega1 = 10.0 * local_field(a)
    h1, parts = ops.magnus_first_correction(a, omega1)
    dq, cross = dense_h1_parts(a, omega1)
    scale = np.abs(dq + cross).max()
    for built, oracle in ((parts["double_quantum"], dq),
                          (parts["cross"], cross), (h1, dq + cross)):
        assert np.abs(built - oracle).max() <= 1e-12 * scale
    # errors and unitaries are normalized, so 1e-12 is relative to 1
    rep = verify_average_hamiltonian(a, omega1)
    err0, err1 = dense_verify(a, omega1)
    assert abs(rep["err0"] - err0) <= 1e-12
    assert abs(rep["err1"] - err1) <= 1e-12
    t1 = rep["t1"]
    hd = ops.secular_dipolar(a)
    a3 = (expm_hermitian(hd, 0.5 * t1)
          @ expm_hermitian(-0.5 * hd + dq + cross, t1))
    assert np.abs(effective_propagator_a3(a, omega1, t1) - a3).max() <= 1e-12


def effective_propagator_a4(cluster_or_matrix, omega1: float, t1: float) -> np.ndarray:
    """First-order defect propagator of one full time-reversal cycle.

    A4 = exp(-i H' t1/2) exp[+i (H'/2 + H1) t1/2] exp[+i (H'/2 - H1) t1/2]:
    the + phase burst half, the - phase half (where the first-order
    correction flips sign), then the free evolution the burst is meant to
    unwind. With H1 = 0 the three factors cancel exactly, so A4 measures
    the first-order deviation from perfect reversal.
    """
    if not t1 > 0:
        raise ValueError("t1 must be positive")
    a = ops.couplings_of(cluster_or_matrix)
    hd = ops.secular_dipolar(a)
    h1, _ = ops.magnus_first_correction(a, omega1)
    u_free = expm_hermitian(hd, 0.5 * t1)
    u_minus = expm_hermitian(-(0.5 * hd + h1), 0.5 * t1)
    u_plus = expm_hermitian(-(0.5 * hd - h1), 0.5 * t1)
    return u_free @ u_minus @ u_plus


def test_a4_identity_cases(four_spin):
    zeros = np.zeros((4, 4))
    prop = effective_propagator_a4(zeros, omega1=1.0e6, t1=1.0e-5)
    np.testing.assert_allclose(prop, np.eye(16), atol=1e-12)
    # unitarity on a real cluster
    wl = local_field(four_spin)
    prop = effective_propagator_a4(four_spin, 10.0 * wl, 8.0 * np.pi / (10.0 * wl))
    dim = prop.shape[0]
    assert np.linalg.norm(prop @ prop.conj().T - np.eye(dim)) < 1e-10


def test_a4_small_time_leading_order(four_spin):
    # A4 - 1 ~ [H' t1/4, H1 t1/2] for small t1
    a = four_spin.couplings
    hd = ops.secular_dipolar(a)
    wl = local_field(four_spin)
    omega1 = 50.0 * wl
    h1, _ = ops.magnus_first_correction(a, omega1)
    t1 = 0.02 / np.linalg.norm(hd, 2)
    a4 = effective_propagator_a4(four_spin, omega1, t1)
    lhs = np.linalg.norm(a4 - np.eye(a4.shape[0]))
    rhs = np.linalg.norm(ops.commutator(hd * t1 / 4.0, h1 * t1 / 2.0))
    assert lhs == pytest.approx(rhs, rel=0.2)
