"""Memory-kernel thermodynamics of the pumped double-quantum reservoir.

The unitary engine keeps every echo amplitude recoverable; a macroscopic
sample does not. This module implements the competing description: the
inverse spin temperature beta(t) of the reservoir prepared by the reversal
sequences obeys

    d beta / dt = - integral_0^t beta(t') G1(t' - t) dt'

with a memory kernel G1 that is either a Gaussian ansatz, amplitude
(n * omega_loc)^2 and curvature M in exp(-M tau^2 / 2), or computed
microscopically from a cluster's double-quantum fluctuations. The kernel
onset can be delayed by an offset: beta stays at 1 until the onset and the
memory integral runs from there (shifted clock).

The solver halves a fixed step until successive passes agree. A pass (Heun
steps, trapezoidal memory) is linear with coefficients that depend only on
the lag, so it is one lower-triangular Toeplitz solve: Newton power-series
inversion with FFT products, O(N log N).

Trajectories and the derived amplitude curves carry macroscopic=True
metadata: they model the bulk behavior that the exactly evolved clusters
cannot show, and the point of the package is comparing the two.

The decay rate this equation produces contains no burst field amplitude;
that independence is structural (no such parameter exists here), not a
numerical finding.

A Gaussian solve needs only numpy: the engine and operators modules are
imported inside :func:`microscopic_kernel` and :func:`amplitude_curve`,
the two functions that use them.
"""

from __future__ import annotations

import numpy as np

from dataclasses import dataclass, field

from .errors import STEP_TOL, ConvergenceError
from .lattice import (DEFAULT_M_RATIO, DEFAULT_N, DEFAULT_OFFSET_US,
                      REFERENCE_M2)
from .memory import check_fits

DEFAULT_OFFSET = DEFAULT_OFFSET_US / 1e6   # seconds, bitwise 80.0e-6
MAX_REFINEMENTS = 12

KERNEL_KINDS = ("gaussian", "tabulated")


@dataclass(frozen=True)
class KernelSpec:
    """Memory kernel G1 for the inverse-temperature equation.

    kind "gaussian": G1(tau) = (n * omega_loc)^2 exp(-curvature * tau^2 / 2);
    n = 0 is the degenerate zero kernel. kind "tabulated": linear
    interpolation of (times, values), held constant beyond the last sample.
    Kernels are even in the lag; tabulated values are given for tau >= 0.
    offset delays the onset: beta holds at 1 until then.
    """

    kind: str
    n: float = 0.0
    omega_loc: float = 0.0
    curvature: float = 0.0
    times: np.ndarray | None = None
    values: np.ndarray | None = None
    offset: float = 0.0
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in KERNEL_KINDS:
            raise ValueError(f"unknown kernel kind {self.kind!r}")
        if not 0 <= self.offset < np.inf:
            raise ValueError("offset must be nonnegative and finite")
        if self.kind == "gaussian":
            if not 0 <= self.n < np.inf:
                raise ValueError("n must be nonnegative and finite")
            if not 0 <= self.omega_loc < np.inf:
                raise ValueError("omega_loc must be nonnegative and finite")
            if not 0 < self.curvature < np.inf:
                raise ValueError("curvature must be positive and finite")
        else:
            t = np.asarray(self.times, float)
            v = np.asarray(self.values, float)
            if t.ndim != 1 or t.shape != v.shape or t.size < 2:
                raise ValueError("tabulated kernel needs matching 1-d "
                                 "times and values with at least 2 samples")
            if t[0] != 0.0 or np.any(np.diff(t) <= 0):
                raise ValueError("tabulated times must start at 0 and "
                                 "strictly increase")
            if not np.all(np.isfinite(v)):
                raise ValueError("tabulated values must be finite")
            object.__setattr__(self, "times", t)
            object.__setattr__(self, "values", v)


def kernel_values(kernel: KernelSpec, tau) -> np.ndarray:
    """G1 at the given lags (kernels are even, so |tau| is evaluated)."""
    tau = np.abs(np.atleast_1d(np.asarray(tau, float)))
    if kernel.kind == "gaussian":
        amp = (kernel.n * kernel.omega_loc) ** 2
        return amp * np.exp(-0.5 * kernel.curvature * tau**2)
    return np.interp(tau, kernel.times, kernel.values)


def gaussian_kernel_for_orientation(label, n=DEFAULT_N, m_ratio=DEFAULT_M_RATIO,
                                    offset=DEFAULT_OFFSET) -> KernelSpec:
    """Gaussian kernel from a field orientation's bulk second moment.

    omega_loc = sqrt(M2 / 3) and curvature = m_ratio * M2, with M2 the
    tabulated reference value for the orientation.
    """
    key = str(label)
    if key not in REFERENCE_M2:
        raise ValueError(f"no reference second moment for orientation "
                         f"{label!r}; known: {sorted(REFERENCE_M2)}")
    m2 = REFERENCE_M2[key]
    return KernelSpec("gaussian", n=float(n),
                      omega_loc=float(np.sqrt(m2 / 3.0)),
                      curvature=float(m_ratio * m2), offset=float(offset),
                      meta={"orientation": str(label), "m2": float(m2)})


@dataclass(frozen=True)
class BetaTrajectory:
    """Inverse-temperature trajectory, normalized to beta(0) = 1."""

    times: np.ndarray
    beta: np.ndarray
    step: float
    method: str
    converged: bool
    refinements: int
    meta: dict = field(default_factory=dict)
    # max-norm drift of each step halving; kept out of meta (CSV header)
    drift_history: tuple = ()

    def __post_init__(self):
        beta = np.asarray(self.beta, float)
        if beta.size == 0 or abs(beta[0] - 1.0) > 1e-12:
            raise ValueError("beta must start at 1")
        if not np.all(np.isfinite(beta)):
            raise ValueError("beta values must be finite")


def _integrate(kernel: KernelSpec, t_end: float, n_steps: int):
    """One fixed-step pass: Heun predictor-corrector, trapezoidal memory.

    From the onset on the memory at t_{j0+m} is M_m = G_m + sum_i a_{m-i}
    beta_{j0+i}: weights a_0 = c = h G1(0)/2, a_l = h G1(l h), and G holds
    the onset sliver and the reweighted beta[j0] column. Heun step m reads
    (1 - h c/2)(beta_{m+1} - beta_m) + h/2 [M_{m+1} + (1 - c h) M_m] = 0.
    The unknown is beta - 1, so a zero kernel keeps beta == 1 exactly.
    """
    from numpy.fft import irfft, rfft   # not loaded by "import numpy"

    # a pass peaked at 120-168 traced bytes per grid point, the most just
    # past a power of two, where the FFTs pad most, and whole Gaussian,
    # microscopic and --divergence jobs at 141-154, in their last pass;
    # writing the CSV a chunk at a time peaks lower, at 25-34 with the
    # trajectory held
    check_fits(f"a thermo pass of {n_steps + 1} grid points",
               192 * (n_steps + 1))
    h = t_end / n_steps
    times = np.linspace(0.0, t_end, n_steps + 1)
    beta = np.ones(n_steps + 1)
    # first grid index strictly past the onset; before it beta holds at 1
    j0 = int(np.searchsorted(times, kernel.offset, side="right"))
    if j0 > n_steps:
        return times, beta
    w0 = max(times[j0] - kernel.offset, 0.0)
    size = n_steps + 1 - j0
    kgrid = kernel_values(kernel, times[:size])                # G1(l h)
    koff = kernel_values(kernel, times[j0:] - kernel.offset)   # G1(t - onset)
    # beta[j0] - 1: the step onto it has no memory before it to predict from
    y0 = -0.25 * h * w0 * (koff[0] + kgrid[0])
    a = h * kgrid
    a[0] *= 0.5
    c = a[0]
    # G plus the beta = 1 part of the convolution
    g = (0.5 * w0 * koff + 0.5 * (w0 - h) * (1.0 + y0) * kgrid
         + np.cumsum(a))
    # the steps as one series identity P(x) Y(x) = R(x) mod x^size for
    # Y = beta[j0:] - 1; P(0) = 1 and R(0) = y0 reproduce the first step
    lead, damp = 1.0 - 0.5 * h * c, 1.0 - h * c
    p = 0.5 * h * a
    p[1:] += 0.5 * h * damp * a[:-1]
    p[0] += lead
    p[1:2] -= lead
    rhs = -0.5 * h * g
    rhs[1:] -= 0.5 * h * damp * g[:-1]
    rhs[0] = y0

    def mul(u, v, n):
        # first n coefficients of the product. Terms past n of a factor
        # cannot reach them, and an FFT's round-off is relative to the
        # largest coefficient, so with a growing beta they would swamp the
        # first n; they are cut first. A short factor is convolved
        # directly: faster, and its round-off stays relative to each
        # coefficient, which a coarse grid with a growing beta needs
        u, v = u[:n], v[:n]
        if min(u.size, v.size) <= 32:
            return np.convolve(u, v)[:n]
        fft_size = 1 << (u.size + v.size - 2).bit_length()
        return irfft(rfft(u, fft_size) * rfft(v, fft_size), fft_size)[:n]

    # Newton iteration q <- q (2 - p q) doubles the known terms of 1/p
    q = np.array([1.0 / p[0]])
    while q.size < size:
        m = min(2 * q.size, size)
        e = mul(p[:m], q, m)[q.size:]
        q = np.concatenate([q, -mul(q, e, m - q.size)])
    beta[j0:] += mul(rhs, q, size)
    return times, beta


def solve_beta(kernel: KernelSpec, t_end: float, step: float
               ) -> BetaTrajectory:
    """Integrate the memory equation, refining the step until converged.

    The step is halved until the trajectory stops moving: successive passes
    must agree at the shared grid points to within STEP_TOL in max norm
    (which bounds the beta(t_end) change in particular). The finer pass is
    returned. Raises ConvergenceError if MAX_REFINEMENTS halvings do not
    settle it.
    """
    if not step > 0:
        raise ValueError("step must be positive")
    if not step < t_end < np.inf:
        raise ValueError("t_end must be finite and exceed the step")
    if not t_end / step < np.inf:
        raise ValueError("t_end / step overflows")
    n = max(2, int(np.ceil(t_end / step - 1e-12)))
    _, beta = _integrate(kernel, t_end, n)
    drift = np.inf
    drifts = []
    for refinement in range(1, MAX_REFINEMENTS + 1):
        n *= 2
        times2, beta2 = _integrate(kernel, t_end, n)
        drift = float(np.abs(beta2[::2] - beta).max())
        drifts.append(drift)
        beta = beta2
        if drift < STEP_TOL:
            return BetaTrajectory(times=times2, beta=beta2, step=t_end / n,
                                  method="heun-trapezoid", converged=True,
                                  refinements=refinement,
                                  meta={"step_drift": drift,
                                        "offset": kernel.offset},
                                  drift_history=tuple(drifts))
    raise ConvergenceError(
        f"beta trajectory still moving by {drift:.3e} after "
        f"{MAX_REFINEMENTS} step halvings")


def microscopic_kernel(cluster, tau_grid, offset: float = 0.0) -> KernelSpec:
    """Tabulated kernel from a cluster's double-quantum fluctuations.

    Each coupled pair contributes the correlation of its double-quantum
    commutator with the total one, conjugated by the free dipolar evolution
    at half rate; the sum is normalized by the total double-quantum weight
    Tr(H2 Hm2). Reality is checked numerically, by :func:`engine.phase_sum`;
    evenness in the lag follows: the weights are squared moduli, so
    G1(-tau) = conj G1(tau), and |G1(tau) - G1(-tau)| is 2 |Im G1(tau)|.

    Taken literally, the stated operator ordering gives
    G1(0) = -sum ||[H2_ij, Hm2]||^2 / norm, and a kernel negative at zero
    lag cannot damp the reservoir, so the conjugate ordering (a global sign
    flip) is used, and meta["ordering_flipped"] is always True. It is never
    a choice: G1(0) = 0 would need every [H2_ij, Hm2] to vanish, so
    [H2, H2^dagger] = 0; H2 is nilpotent, and a nonzero nilpotent matrix is
    never normal, so H2 = 0, which the norm check refuses.
    """
    from . import engine, operators as ops   # only this kernel needs them

    a = ops.couplings_of(cluster)
    nspins = a.shape[0]
    tau = np.asarray(list(tau_grid), float)
    if tau.ndim != 1 or tau.size < 2 or tau[0] != 0.0 \
            or np.any(np.diff(tau) <= 0):
        raise ValueError("tau grid must start at 0 and strictly increase")
    layout = ops.sector_layout(nspins)
    sectors = layout.sectors
    # Hm2 lowers two spins: its nonzero blocks are (k + 2, k), with k the
    # down-spin count, and they are P's blocks there
    hm2 = [ops.sector_block(a, sectors[k + 2], sectors[k], p=1.0)
           for k in range(nspins - 1)]
    norm = sum(float(np.vdot(b, b)) for b in hm2)      # Tr(H2 Hm2)
    if not norm > 0.0:
        raise ValueError("degenerate kernel: cluster has no "
                         "double-quantum weight")
    blocks = engine.EIGENSYSTEMS.get(engine.HamiltonianSpec("dipolar"), a)
    # weight matrix in the dipolar eigenbasis: the lag dependence is a pure
    # phase factor per eigenvalue gap, so the pair loop runs once. For real
    # couplings [Hm2_ij, H2] = -[H2_ij, Hm2]^dagger, and v is real, so each
    # pair adds |v^T [H2_ij, Hm2] v|^2 in the conjugate ordering. Each
    # commutator conserves the magnetization, so only the diagonal sector
    # blocks are nonzero
    wmat = [np.zeros((s.stop - s.start,) * 2) for s in sectors]
    for i, j in zip(*np.nonzero(np.triu(a, 1))):
        # H2_ij has a_ij at each (dst, src), two sectors apart
        aij = a[i, j]
        dst, src = ops.pair_raising_positions(i, j, nspins)
        for k, s in enumerate(sectors):
            c = np.zeros_like(wmat[k])
            if k + 2 <= nspins:    # H2_ij[k, k + 2] Hm2[k + 2, k]
                up = (dst >= s.start) & (dst < s.stop)
                c[dst[up] - s.start] = aij * hm2[k][src[up]
                                                    - sectors[k + 2].start]
            if k >= 2:             # Hm2[k, k - 2] H2_ij[k - 2, k]
                down = (src >= s.start) & (src < s.stop)
                c[:, src[down] - s.start] -= aij * hm2[k - 2][
                    :, dst[down] - sectors[k - 2].start]
            v = blocks[k][2]
            wmat[k] += np.abs(v.T @ c @ v) ** 2
    # conjugation at half rate: phases exp(-i gap t/2) per lag t; a product
    # with 1 / norm keeps the recorded kernels bit for bit
    values = (9.0 / 64.0) * engine.phase_sum(
        [w for _, w, _ in blocks], [(k, k, m) for k, m in enumerate(wmat)],
        0.5 * tau, "the microscopic kernel") * (1.0 / norm)
    return KernelSpec("tabulated", times=tau, values=values,
                      offset=float(offset),
                      meta={"ordering_flipped": True,
                            "n_sites": int(nspins),
                            "zero_lag": float(values[0])})


def amplitude_curve(trajectory: BetaTrajectory, ideal_amplitude: float = 1.0,
                    label: str = "thermo-seq1", **extra_meta) -> SignalCurve:
    """Model echo amplitude vs burst length: ideal amplitude times beta.

    In the high-temperature regime the echo amplitude is proportional to
    the reservoir's inverse temperature, so the model curve is a rescaled
    beta trajectory. Marked macroscopic=True: this is the bulk prediction
    the unitary clusters are compared against.
    """
    from .engine import SignalCurve

    meta = {"macroscopic": True, "method": trajectory.method,
            "step": trajectory.step,
            "ideal_amplitude": float(ideal_amplitude)}
    meta.update(extra_meta)
    return SignalCurve(times=trajectory.times,
                       values=ideal_amplitude * trajectory.beta,
                       observable="y", start=0.0, label=label, meta=meta)
