"""Canned measurements: FID, time-reversal echo sequences, sweeps, decay times.

Signals are dimensionless, s(t) = Tr(Delta O) / Tr(O^2), so the free
induction decay starts at 1 and sequence amplitudes can be compared to
max|dG/dt| with no free scale. Echo amplitudes are the peak |s| over an
acquisition grid anchored at the predicted echo center; |dG/dt| is even
about the center, so the outward-running grid sees the full peak, and using
the same grid for every sequence makes amplitude ratios exact in the ideal
limit. The echo sequences are the builtin programs of the pulseprog module,
run by :func:`run_program` like any program; this module adds only the
default grid, t1 validation and snapping, and the seq1 amplitude's start
from the double-quantum-borne part of the tilted state.
Every run, each point of a sweep included, builds its own start state in
the engine's sorted positions and advances it in place.

All curves carry a ``macroscopic: False`` metadata flag: a handful of spins
evolved unitarily realizes the exact density-matrix predictions, not the
thermodynamic irreversibility of a bulk sample, and the interesting physics
is precisely where the two disagree (see the thermo module).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import engine, operators as ops, pulseprog
from .engine import HamiltonianSpec, SignalCurve
from .lattice import GAMMA_F19, local_field

DEFAULT_WINDOW_FACTOR = 5.0   # acquisition window, units of 1/omega_L
DEFAULT_STEP_FACTOR = 0.02    # acquisition step, units of 1/omega_L


def cluster_meta(cluster, **extra):
    """Metadata every curve of a cluster carries, plus ``extra``."""
    orientation = getattr(cluster, "orientation", None)
    meta = {
        "orientation": getattr(orientation, "label", None),
        "cluster_hash": getattr(cluster, "hash_hex", None),
        "n_sites": ops.site_count(cluster),
        "macroscopic": False,
    }
    meta.update(extra)
    return meta


def acquisition_grid(cluster, window=None, step=None):
    """(window, step) in seconds, each by default its factor / omega_L."""
    if window is None or step is None:
        wl = local_field(cluster)
        window = DEFAULT_WINDOW_FACTOR / wl if window is None else window
        step = DEFAULT_STEP_FACTOR / wl if step is None else step
    return float(window), float(step)


def _fid_terms(cluster, derivative=False):
    """(spectra, terms) for :func:`engine.phase_sum` of G(t), or of dG/dt:
    one term per nonzero (c, r) block of the weights |I_x~|^2 / Tr(I_x^2)
    in the H' eigenbasis, Tr(I_x^2) = n 2^n / 4."""
    a = ops.couplings_of(cluster)
    n = a.shape[0]
    blocks = engine.EIGENSYSTEMS.get(HamiltonianSpec("dipolar"), a)
    terms = []
    for r, c, coeff, f in ops.collective_blocks("x", n):
        (_, w_r, v_r), (_, w_c, v_c) = blocks[r], blocks[c]
        m = (coeff * (v_c.T @ f.T @ v_r)) ** 2 / (n * 2**n / 4)  # I_x~ real
        if derivative:
            # d/dt of each phase exp(-i gap t) brings down -i gap
            m = -1j * (w_c[:, None] - w_r[None, :]) * m
        terms.append((c, r, m))
    return [w for _, w, _ in blocks], terms


def fid_values(cluster, times) -> np.ndarray:
    """G(t) = Tr(I_x(t) I_x) / Tr(I_x^2) at arbitrary times (even in t)."""
    return engine.phase_sum(*_fid_terms(cluster), times, "the FID")


def fid_derivative(cluster, times) -> np.ndarray:
    """dG/dt evaluated analytically from the same eigendecomposition."""
    return engine.phase_sum(*_fid_terms(cluster, derivative=True), times,
                            "dG/dt")


def fid(cluster, window=None, step=None) -> SignalCurve:
    """Free induction decay G(t) on [0, window]."""
    times = engine.Acquire("x", *acquisition_grid(cluster, window, step)).times
    values = fid_values(cluster, times)
    return SignalCurve(times=times, values=values, observable="x", start=0.0,
                       label="fid", meta=cluster_meta(cluster, sequence="fid"))


def max_abs_fid_derivative(cluster, window=None, step=None) -> float:
    """max_t |dG/dt| over the standard acquisition grid."""
    times = engine.Acquire("x", *acquisition_grid(cluster, window, step)).times
    return float(np.abs(fid_derivative(cluster, times)).max())


def check_burst_duration(t1: float, omega1: float) -> int:
    """Validate t1 against the phase-alternated burst timing.

    The burst splits into two equal phase halves and average-Hamiltonian
    bookkeeping needs each half to cover an integer number of half-cycles,
    so t1 must be an even multiple of pi/omega1 (t1 = 0 is the degenerate
    no-burst case). Returns the half-cycle count.
    """
    if t1 < 0:
        raise ValueError("t1 must be nonnegative")
    hc = engine.halfcycle_duration(omega1, 1)
    n = int(round(t1 / hc))
    if abs(t1 - n * hc) > 1e-9 * max(t1, hc) or n % 2:
        raise ValueError(
            f"t1 = {t1} is not an even number of half-cycles pi/omega1; "
            f"nearest valid value is {snap_t1(t1, omega1)}")
    return n


def snap_t1(t1: float, omega1: float) -> float:
    """Nearest even multiple of the half-cycle pi/omega1."""
    hc = engine.halfcycle_duration(omega1, 1)
    return 2 * int(round(t1 / (2 * hc))) * hc


def run_program(program, cluster, ideal_reversal=False, start=None,
                label="", **meta) -> SignalCurve:
    """The signal of a program with exactly one acquire statement, run from
    ``start`` or its init state and labelled with :func:`cluster_meta`.

    The run advances the state it is given, ``start`` or the init state it
    builds, in place (see :func:`engine.evolve`): its Delta is the only
    copy the run evolves.
    """
    segments = pulseprog.compile(program, ideal_reversal)
    if sum(isinstance(s, engine.Acquire) for s in segments) != 1:
        raise ValueError("a signal needs exactly one acquire statement")
    if start is None:
        start = engine.initial_state(program.init_kind, cluster)
    _, (curve,) = engine.evolve(start, cluster, segments)
    return replace(curve, label=label, meta=cluster_meta(
        cluster, ideal_reversal=bool(ideal_reversal), **meta))


def _program(name, cluster, omega1, t1, ideal_reversal, window, step):
    """The builtin sequence with a burst of total length t1 (unless ideal,
    an even number of half-cycles) on the given or the default grid."""
    half = None
    if t1 != 0:
        if not ideal_reversal:
            check_burst_duration(t1, omega1)
        gauss = omega1 / GAMMA_F19
        half = pulseprog.Burst(sign=1, amplitude_gauss=gauss, seconds=0.5 * t1)
    window, step = acquisition_grid(cluster, window, step)
    return pulseprog.sequence(name, half, 0.5 * t1, window, step)


def sequence1_amplitude(cluster, omega1, t1, ideal_reversal=False,
                        window=None, step=None) -> float:
    """Peak |s| of the double-quantum-borne echo component, the only part
    evolved: the seq1 program without its 90y pulse, run from the P-borne
    part of the state after init dipolar + 90y pulse. That state is exactly
    -3/8 P plus an H'-borne part (the tilt of H' has no other components),
    and the signal is linear in it."""
    start = engine.DeviationState(
        ops.operator_sum(cluster, sorted_basis=True, p=-3.0 / 8.0))
    program = _program("seq1", cluster, omega1, t1, ideal_reversal, window,
                       step)
    curve = run_program(replace(program, statements=program.statements[1:]),
                        cluster, ideal_reversal, start)
    return float(np.abs(curve.values).max())


def sequence2_signal(cluster, omega1, t1, ideal_reversal=False,
                     window=None, step=None) -> SignalCurve:
    """Echo of the 45-degree-first sequence, acquired from the echo center.

    The state after the 45-degree pulse carries dipolar-order, double-
    quantum and single-quantum parts; only the single-quantum part can
    reach the transverse observable (coherence order is conserved under
    dipolar evolution), so no component splitting is needed.
    """
    return run_program(_program("seq2", cluster, omega1, t1, ideal_reversal,
                                window, step), cluster, ideal_reversal,
                       label="seq2", sequence="seq2", omega1=omega1, t1=t1)


def sequence2_amplitude(cluster, omega1, t1, ideal_reversal=False,
                        window=None, step=None) -> float:
    curve = sequence2_signal(cluster, omega1, t1, ideal_reversal, window, step)
    return float(np.abs(curve.values).max())


def rpw_magic_echo(cluster, omega1, tau, ideal_reversal=False,
                   window=None, step=None) -> SignalCurve:
    """Magic echo on transverse order: free decay tau, burst 2 tau, acquire.

    The burst reverses dipolar evolution at half speed, so the transverse
    state refocuses exactly at the end of the burst; the curve starts at
    the echo peak and replays the FID.
    """
    if not tau > 0:
        raise ValueError("tau must be positive")
    return run_program(_program("rpw", cluster, omega1, 2.0 * tau,
                                ideal_reversal, window, step), cluster,
                       ideal_reversal, label="rpw", sequence="rpw",
                       omega1=omega1, tau=tau)


_SEQUENCE_AMPLITUDES = {
    "seq1": sequence1_amplitude,
    "seq2": sequence2_amplitude,
}


def sweep_t1(sequence: str, cluster, omega1, t1_grid, ideal_reversal=False,
             window=None, step=None) -> SignalCurve:
    """Echo amplitude vs burst duration t1.

    Unless ideal, every grid value is snapped to the nearest even multiple
    of pi/omega1 before running; the executed values are the curve's
    abscissa and the requested ones are kept in the metadata.
    """
    if sequence not in _SEQUENCE_AMPLITUDES:
        raise ValueError(f"unknown sequence {sequence!r} for a t1 sweep")
    op = _SEQUENCE_AMPLITUDES[sequence]
    requested = np.asarray(list(t1_grid), float)
    if requested.size == 0:
        raise ValueError("empty t1 grid")
    if np.any(requested < 0):
        raise ValueError("t1 values must be nonnegative")
    executed = (requested if ideal_reversal
                else np.array([snap_t1(t, omega1) for t in requested]))
    amps = np.array([op(cluster, omega1, t, ideal_reversal, window, step)
                     for t in executed])
    meta = cluster_meta(cluster, sequence=sequence, omega1=omega1,
                        ideal_reversal=bool(ideal_reversal),
                        t1_requested=requested.tolist())
    return SignalCurve(times=executed, values=amps, observable="y",
                       start=0.0, label=f"{sequence}-sweep", meta=meta)


@dataclass(frozen=True)
class DecayEstimate:
    """1/e-crossing time of an amplitude curve."""

    t_d: float | None
    censored: bool
    threshold: float
    method: str = "one-over-e"


def decay_time(curve: SignalCurve, threshold: float = 1.0 / np.e
               ) -> DecayEstimate:
    """First crossing of value <= threshold * value[0], linearly interpolated.

    Returns a censored estimate when the curve never falls that far.
    """
    t = np.asarray(curve.times, float)
    v = np.asarray(curve.values, float)
    if len(t) < 3:
        raise ValueError("need at least 3 points to estimate a decay time")
    if not v[0] > 0:
        raise ValueError("first curve value must be positive")
    target = threshold * v[0]
    below = np.nonzero(v <= target)[0]
    if below.size == 0:
        return DecayEstimate(t_d=None, censored=True, threshold=threshold)
    k = below[0]
    if k == 0:
        return DecayEstimate(t_d=float(t[0]), censored=False,
                             threshold=threshold)
    frac = (v[k - 1] - target) / (v[k - 1] - v[k])
    t_d = t[k - 1] + frac * (t[k] - t[k - 1])
    return DecayEstimate(t_d=float(t_d), censored=False, threshold=threshold)
