"""Tests for the memory-kernel inverse-temperature model.

Closed-form anchors: a constant kernel g turns the memory equation into
beta'' = -g beta, so beta(t) = cos(sqrt(g) t); an isolated pair's
microscopic kernel is constant with zero-lag value (9/32) a^2 (after the
documented ordering flip), so it must reproduce that cosine too.
"""

import dataclasses
import inspect

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from magicecho import experiments as ex, thermo
from magicecho.errors import ConvergenceError
from magicecho.lattice import REFERENCE_M2, build_cluster, second_moment

PAIR_A = 1.0e5


def pair_couplings():
    return np.array([[0.0, PAIR_A], [PAIR_A, 0.0]])


def constant_kernel(g):
    return thermo.KernelSpec("tabulated", times=np.array([0.0, 1.0]),
                             values=np.array([g, g]))


# ------------------------------------------------------------- kernels

def test_kernel_validation():
    with pytest.raises(ValueError, match="unknown kernel kind"):
        thermo.KernelSpec("lorentzian")
    with pytest.raises(ValueError, match="offset"):
        thermo.KernelSpec("gaussian", n=0.5, omega_loc=1.0, curvature=1.0,
                          offset=-1.0)
    with pytest.raises(ValueError, match="n must"):
        thermo.KernelSpec("gaussian", n=-0.1, omega_loc=1.0, curvature=1.0)
    with pytest.raises(ValueError, match="curvature"):
        thermo.KernelSpec("gaussian", n=0.5, omega_loc=1.0, curvature=0.0)
    with pytest.raises(ValueError, match="start at 0"):
        thermo.KernelSpec("tabulated", times=np.array([1.0, 2.0]),
                          values=np.array([1.0, 1.0]))
    with pytest.raises(ValueError, match="strictly increase"):
        thermo.KernelSpec("tabulated", times=np.array([0.0, 2.0, 1.0]),
                          values=np.array([1.0, 1.0, 1.0]))
    with pytest.raises(ValueError, match="finite"):
        thermo.KernelSpec("tabulated", times=np.array([0.0, 1.0]),
                          values=np.array([1.0, np.inf]))
    with pytest.raises(ValueError, match="matching"):
        thermo.KernelSpec("tabulated", times=np.array([0.0, 1.0]),
                          values=np.array([1.0]))


def test_kernel_values_even_and_clamped():
    k = thermo.KernelSpec("gaussian", n=0.5, omega_loc=2.0e4,
                          curvature=1.0e9)
    tau = 3.3e-5
    plus, minus = thermo.kernel_values(k, [tau, -tau])
    assert plus == minus
    assert plus == pytest.approx((0.5 * 2.0e4) ** 2
                                 * np.exp(-0.5 * 1.0e9 * tau**2), rel=1e-12)
    tab = thermo.KernelSpec("tabulated", times=np.array([0.0, 1.0, 2.0]),
                            values=np.array([4.0, 2.0, 1.0]))
    np.testing.assert_allclose(thermo.kernel_values(tab, [0.5, -0.5, 5.0]),
                               [3.0, 3.0, 1.0])


def test_orientation_kernel_construction():
    k = thermo.gaussian_kernel_for_orientation("110")
    m2 = REFERENCE_M2["110"]
    assert k.omega_loc == pytest.approx(np.sqrt(m2 / 3.0), rel=1e-12)
    assert k.curvature == pytest.approx(0.25 * m2, rel=1e-12)
    assert k.n == 0.45
    assert k.offset == 80.0e-6
    with pytest.raises(ValueError, match="known"):
        thermo.gaussian_kernel_for_orientation("123")


# -------------------------------------------------------------- solver

def test_zero_kernel_beta_stays_one():
    k = thermo.KernelSpec("gaussian", n=0.0, omega_loc=1.0e4, curvature=1.0e9)
    traj = thermo.solve_beta(k, 1.0e-4, 1.0e-6)
    assert np.all(traj.beta == 1.0)
    assert traj.converged
    traj = thermo.solve_beta(constant_kernel(0.0), 1.0e-4, 1.0e-6)
    assert np.all(traj.beta == 1.0)


def test_constant_kernel_cosine_oracle():
    g = (2 * np.pi * 4.0e3) ** 2
    t_end = 4 * np.pi / np.sqrt(g)
    traj = thermo.solve_beta(constant_kernel(g), t_end, t_end / 50)
    err = np.abs(traj.beta - np.cos(np.sqrt(g) * traj.times)).max()
    assert err < 1e-6
    assert traj.converged
    assert traj.method == "heun-trapezoid"
    assert traj.step == pytest.approx(t_end / (len(traj.times) - 1))
    assert traj.beta[0] == 1.0


def test_solver_is_second_order():
    k = thermo.gaussian_kernel_for_orientation("100", offset=0.0)
    _, ref = thermo._integrate(k, 200e-6, 2 ** 14)
    errs = [abs(thermo._integrate(k, 200e-6, n)[1][-1] - ref[-1])
            for n in (128, 256, 512)]
    assert errs[0] / errs[1] > 3.0
    assert errs[1] / errs[2] > 3.0


def _stepper_oracle(kernel, t_end, n_steps):
    """The original O(N^2) per-step pass, kept as the oracle for _integrate."""
    h = t_end / n_steps
    times = np.linspace(0.0, t_end, n_steps + 1)
    beta = np.ones(n_steps + 1)
    kgrid = thermo.kernel_values(kernel, times)                  # G1(k h)
    koff = thermo.kernel_values(kernel, times - kernel.offset)   # G1(t_k - onset)
    # first grid index strictly past the onset; before it beta holds at 1
    j0 = int(np.searchsorted(times, kernel.offset, side="right"))
    if j0 > n_steps:
        return times, beta
    w0 = max(times[j0] - kernel.offset, 0.0)

    def memory(k):
        # integral of beta(t') G1(t' - t_k) from the onset to t_k
        if k < j0:
            return 0.0
        acc = 0.5 * w0 * (koff[k] + beta[j0] * kgrid[k - j0])
        if k > j0:
            seg = beta[j0:k + 1] * kgrid[:k - j0 + 1][::-1]
            acc += h * (seg.sum() - 0.5 * (seg[0] + seg[-1]))
        return acc

    for k in range(n_steps):
        f0 = -memory(k)
        beta[k + 1] = beta[k] + h * f0
        f1 = -memory(k + 1)
        beta[k + 1] = beta[k] + 0.5 * h * (f0 + f1)
    return times, beta


@st.composite
def solver_cases(draw):
    """(kernel, t_end, n_steps): Gaussian or tabulated kernels over a few
    oscillation periods, onsets at 0, on and between grid points, and past
    the end."""
    n_steps = draw(st.integers(2, 2000))
    omega = draw(st.floats(1.0e4, 1.0e5))
    t_end = draw(st.floats(0.5, 30.0)) / omega
    if draw(st.booleans()):
        kernel = thermo.KernelSpec(
            "gaussian", n=draw(st.floats(0.0, 1.0)), omega_loc=omega,
            curvature=draw(st.floats(0.01, 4.0)) * omega**2)
    else:
        size = draw(st.integers(2, 12))
        lags = np.cumsum(draw(st.lists(st.floats(0.05, 2.0), min_size=size,
                                       max_size=size))) / omega
        head = draw(st.floats(0.0, 1.0))
        tail = draw(st.lists(st.floats(-0.5, 1.0), min_size=size - 1,
                             max_size=size - 1))
        kernel = thermo.KernelSpec(
            "tabulated", times=np.concatenate([[0.0], lags[:-1]]),
            values=np.array([head] + tail) * omega**2)
    grid = np.linspace(0.0, t_end, n_steps + 1)
    k = draw(st.integers(0, n_steps))
    onset = draw(st.sampled_from(["zero", "on", "between", "past"]))
    offset = {"zero": 0.0, "on": grid[k],
              "between": grid[min(k, n_steps - 1)]
              + draw(st.floats(0.01, 0.99)) * t_end / n_steps,
              "past": t_end * draw(st.floats(1.0, 2.0))}[onset]
    return dataclasses.replace(kernel, offset=offset), t_end, n_steps


@settings(max_examples=60, deadline=None)
@given(solver_cases())
# beta grows to 6.5e6; FFT products that kept the terms past the ones
# needed were off by 3.2e-11 of that here
@example((thermo.KernelSpec("tabulated", times=np.array([0.0, 1.0e-4]),
                            values=np.array([0.0, -5.0e7])), 2.7e-3, 545))
def test_toeplitz_pass_matches_stepper_oracle(case):
    kernel, t_end, n_steps = case
    times, beta = thermo._integrate(kernel, t_end, n_steps)
    ref_times, ref = _stepper_oracle(kernel, t_end, n_steps)
    np.testing.assert_array_equal(times, ref_times)
    # FFT products carry round-off relative to the largest coefficient, so
    # the bound is in max norm: a negative kernel that grows beta by 1e7
    # leaves its early samples accurate only relative to that growth
    scale = max(1.0, float(np.abs(ref).max()))
    assert np.abs(beta - ref).max() <= 1e-11 * scale
    assert np.all(beta[times <= kernel.offset] == 1.0)


def test_solver_argument_validation():
    k = constant_kernel(1.0)
    with pytest.raises(ValueError, match="step"):
        thermo.solve_beta(k, 1.0, 0.0)
    with pytest.raises(ValueError, match="t_end"):
        thermo.solve_beta(k, 1.0e-6, 1.0e-5)


def test_nonconvergence_raises(monkeypatch):
    monkeypatch.setattr(thermo, "MAX_REFINEMENTS", 0)
    g = (2 * np.pi * 4.0e3) ** 2
    with pytest.raises(ConvergenceError, match="still moving"):
        thermo.solve_beta(constant_kernel(g), 1.0e-3, 1.0e-4)


def test_trajectory_validation():
    with pytest.raises(ValueError, match="start at 1"):
        thermo.BetaTrajectory(times=np.array([0.0, 1.0]),
                              beta=np.array([0.5, 0.4]), step=1.0,
                              method="heun-trapezoid", converged=True,
                              refinements=1)
    with pytest.raises(ValueError, match="finite"):
        thermo.BetaTrajectory(times=np.array([0.0, 1.0]),
                              beta=np.array([1.0, np.nan]), step=1.0,
                              method="heun-trapezoid", converged=True,
                              refinements=1)


def test_onset_delay_holds_beta_then_translates():
    # before the onset beta is exactly 1; after it the trajectory is the
    # zero-offset solution on a shifted clock
    off = thermo.gaussian_kernel_for_orientation("100", offset=80e-6)
    k0 = thermo.gaussian_kernel_for_orientation("100", offset=0.0)
    tr_off = thermo.solve_beta(off, 240e-6, 2e-6)
    tr_0 = thermo.solve_beta(k0, 160e-6, 2e-6)
    flat = tr_off.beta[tr_off.times <= 80e-6 + 1e-12]
    assert flat.size > 10
    assert np.all(flat == 1.0)
    shifted = np.interp(tr_0.times + 80e-6, tr_off.times, tr_off.beta)
    assert np.abs(shifted - tr_0.beta).max() < 2e-6


def test_solver_input_surface_has_no_burst_field():
    # the model's decay rate cannot depend on the burst field: nothing in
    # the solver's signature or the kernel type accepts one
    params = set(inspect.signature(thermo.solve_beta).parameters)
    assert params == {"kernel", "t_end", "step"}
    field_names = {f.name for f in dataclasses.fields(thermo.KernelSpec)}
    assert not any("omega1" in name for name in params | field_names)


# ------------------------------------------------- short-time behavior

def short_time_check(kernel: thermo.KernelSpec) -> float:
    """Fitted quadratic coefficient of 1 - beta(t) at short times.

    The equation's own expansion gives beta = 1 - (n omega_loc)^2 t^2 / 2,
    so the returned coefficient should be (n omega_loc)^2 / 2. The onset
    delay is bypassed: this probes the equation, not the shifted clock.
    """
    if kernel.kind != "gaussian":
        raise ValueError("short-time check needs a gaussian kernel")
    if kernel.n == 0.0:
        return 0.0
    probe = thermo.KernelSpec("gaussian", n=kernel.n,
                              omega_loc=kernel.omega_loc,
                              curvature=kernel.curvature, offset=0.0)
    t_fit = 0.1 / np.sqrt(kernel.curvature)
    traj = thermo.solve_beta(probe, t_fit, t_fit / 64)
    t, b = traj.times, traj.beta
    return float(((1.0 - b) @ t**2) / (t**4).sum())


def test_short_time_coefficient_matches_expansion():
    k = thermo.gaussian_kernel_for_orientation("111")
    coeff = short_time_check(k)
    assert coeff == pytest.approx((0.45 * k.omega_loc) ** 2 / 2.0, rel=1e-2)


def test_short_time_coefficient_scalings():
    k = thermo.gaussian_kernel_for_orientation("111")
    zero = thermo.KernelSpec("gaussian", n=0.0, omega_loc=k.omega_loc,
                             curvature=k.curvature)
    assert short_time_check(zero) == 0.0
    double = thermo.KernelSpec("gaussian", n=0.9, omega_loc=k.omega_loc,
                               curvature=k.curvature)
    ratio = short_time_check(double) / short_time_check(k)
    assert ratio == pytest.approx(4.0, rel=2e-2)
    with pytest.raises(ValueError, match="gaussian"):
        short_time_check(constant_kernel(1.0))


# --------------------------------------------------- orientation decay

def test_orientation_decay_times_ordered_and_bounded():
    t_d = {}
    for label in ("100", "110", "111"):
        kernel = thermo.gaussian_kernel_for_orientation(label)
        traj = thermo.solve_beta(kernel, 500e-6, 2e-6)
        est = ex.decay_time(thermo.amplitude_curve(traj))
        assert not est.censored
        t_d[label] = est.t_d
    assert t_d["100"] < t_d["110"] < t_d["111"]
    assert all(v <= 350e-6 for v in t_d.values())
    # frozen solver outputs, to catch silent behavior changes
    assert t_d["100"] == pytest.approx(119.35e-6, rel=1e-3)
    assert t_d["110"] == pytest.approx(143.15e-6, rel=1e-3)
    assert t_d["111"] == pytest.approx(168.86e-6, rel=1e-3)


def test_amplitude_curve_bridge():
    k = thermo.gaussian_kernel_for_orientation("100", offset=0.0)
    traj = thermo.solve_beta(k, 100e-6, 2e-6)
    curve = thermo.amplitude_curve(traj, ideal_amplitude=2.5,
                                   orientation="100")
    np.testing.assert_allclose(curve.values, 2.5 * traj.beta, rtol=1e-12)
    assert curve.label == "thermo-seq1"
    assert curve.meta["macroscopic"] is True
    assert curve.meta["ideal_amplitude"] == 2.5
    assert curve.meta["orientation"] == "100"


# --------------------------------------------------- microscopic kernel

def test_microscopic_pair_kernel_constant():
    # single pair: the conjugating evolution commutes with the pair
    # commutator, so the kernel is flat at (9/32) a^2 after the flip
    tau = np.linspace(0.0, 1.0e-4, 9)
    k = thermo.microscopic_kernel(pair_couplings(), tau)
    assert k.meta["ordering_flipped"] is True
    expected = (9.0 / 32.0) * PAIR_A**2
    np.testing.assert_allclose(k.values, expected, rtol=1e-12)
    assert k.meta["zero_lag"] == pytest.approx(expected, rel=1e-12)


def test_microscopic_pair_kernel_drives_cosine():
    tau = np.linspace(0.0, 2.0e-4, 5)
    k = thermo.microscopic_kernel(pair_couplings(), tau)
    g0 = k.meta["zero_lag"]
    t_end = 2 * np.pi / np.sqrt(g0)
    traj = thermo.solve_beta(k, t_end, t_end / 100)
    err = np.abs(traj.beta - np.cos(np.sqrt(g0) * traj.times)).max()
    assert err < 1e-6


def test_microscopic_kernel_validation():
    with pytest.raises(ValueError, match="degenerate"):
        thermo.microscopic_kernel(np.zeros((3, 3)), np.linspace(0, 1e-5, 3))
    with pytest.raises(ValueError, match="exceeds MAX_SITES"):
        thermo.microscopic_kernel(np.ones((13, 13)), np.linspace(0, 1e-5, 3))
    with pytest.raises(ValueError, match="tau grid"):
        thermo.microscopic_kernel(pair_couplings(), [1e-6, 2e-6])
    with pytest.raises(ValueError, match="tau grid"):
        thermo.microscopic_kernel(pair_couplings(), [0.0, 2e-6, 1e-6])


def test_microscopic_six_spin_gaussian_scale():
    # the fitted Gaussian decay constant of the cluster kernel should sit
    # within a factor 3 of second_moment / 4
    cluster = build_cluster("100", radius=1.0, max_sites=6)
    m2 = second_moment(cluster)
    tau = np.linspace(0.0, 6.0 / np.sqrt(m2), 25)
    kernel = thermo.microscopic_kernel(cluster, tau)
    r = kernel.values / kernel.values[0]
    assert kernel.values[0] > 0
    # fit over the initial monotone decay, before finite-size recurrences
    head = slice(1, int(np.argmin(r)) + 1)
    mask = r[head] > 0.2
    t_fit, r_fit = tau[head][mask], r[head][mask]
    m_fit = -2.0 * (np.log(r_fit) @ t_fit**2) / (t_fit**4).sum()
    target = m2 / 4.0
    assert target / 3.0 < m_fit < target * 3.0
