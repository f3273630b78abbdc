"""Exact evolution of deviation density matrices through pulse segments.

A run is a sequence of segments applied to a deviation state Delta (the
traceless part of the density matrix, in units of the inverse spin
temperature beta, so no beta enters a signal). Unitary segments conjugate
Delta; acquisition segments sample a normalized transverse signal

    s(t) = Tr(Delta O) / Tr(O^2)

while Delta evolves freely under the secular dipolar Hamiltonian. All
exponentials go through Hermitian eigendecomposition, so propagators are
unitary to round-off.

The engine works in symmetry blocks. A :class:`DeviationState` holds Delta
in the sorted basis of :func:`~magicecho.operators.sector_layout`, built
there from a row of ``INITIAL_STATES``, and :func:`evolve` advances the
state it is given in place. H' is block-diagonal in magnetization and the
burst Hamiltonian in the parity of the down-spin count, so an
eigendecomposition is a tuple of (slice, w, v) blocks over contiguous
slices of that basis, each built real symmetric in sorted positions.
:func:`_factors` forms each block of exp(-iHt) from two real products, one
block at a time, for propagation in place, the verify errors and A3. The
global spin flip X maps burst(+) onto burst(-), so a burst(-) block factor
is a burst(+) one with rows and columns permuted by X, not decomposed
again. Decompositions are cached process-wide for the most recent coupling
table, so a sweep decomposes each distinct Hamiltonian once. A delay, an
ideal burst (-H'/2) and an acquisition window evolve under H', so each
stretch of them is one H' pass for its net time, none if that is exactly 0.

Acquisition works in the eigenbasis of H', where each sample is a phase sum
over eigenvalue gaps (:func:`phase_sum`) at the pending H' time plus its
offset, so it only reads Delta. Only the nonzero blocks of O enter it,
(m, m +- 1) for I_x and I_y and (m, m) for I_z, each meeting one block of
Delta. A pulse is one call, :func:`~magicecho.operators.rotate_sorted`: it
applies the single-site 2x2 factor to every site index of Delta in place,
a slab of columns and then a slab of rows at a time, each permuted into
the product basis and back through two slab buffers.

Memory: a run holds one d x d Delta, the state's own. Besides it there
are the cached real eigenvectors (a quarter of a dense operator per
decomposed burst or average Hamiltonian, under a tenth for H'), one
block factor in the making and propagation products of at most an
eighth of Delta; a pulse's slabs are under a tenth of an operator from
n = 10 up. An acquisition holds, over one block of sample times, the
phase rows and the product of its current term and only the terms being
summed. A seq1 point so peaks at about 1.9 dense complex operators of
16 d^2 bytes at n = 9 to 12 and at 2.25 at n = 8, where the phase rows
of 251 sample times set it. Before it allocates, a run, ``verify`` and
A3 estimate their peak this way and refuse, with a ValueError, one that
exceeds the available memory; so does an acquisition its sample grid
(:attr:`Acquire.times`). After every pulse, burst and H' pass Tr(Delta)
and the Frobenius norm sqrt(Tr(Delta^2)) are checked against their initial
values, every phase-sum sample must be real, and every phase sum at
t = 0, the sum of its terms, must be its exact value: Tr(Delta O) for an
acquisition, read from the blocks of Delta O meets, G(0) = 1 and
dG/dt(0) = 0 for the FID, and sum ||[H2_ij, H-2]||^2 for the microscopic
kernel; a failure, a NaN included, raises
:class:`~magicecho.errors.InvariantViolation`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import operators as ops
from .errors import (HERMITICITY_TOL, SEGMENT_DRIFT_TOL, SIGNAL_IMAG_TOL,
                     WINDOW_START_TOL, InvariantViolation)
from .memory import check_fits


@dataclass(frozen=True)
class HamiltonianSpec:
    """What generates an evolution segment.

    kind 'dipolar' is the secular dipolar Hamiltonian H'. kind 'burst' is
    the tilted-rotating-frame Hamiltonian during a spin-locking burst,

        sign * omega1 * I_z - 1/2 H' + 3/8 (H2 + H-2),

    with omega1 = gamma * B1 in rad/s and sign the burst phase. kind
    'ideal_burst' is the infinite-omega1 limit, -1/2 H', which reverses the
    free dipolar evolution at half speed: :func:`evolve` runs it as H' at
    rate -1/2. kind 'average' is -1/2 H' + H1 at omega1, the burst's
    average Hamiltonian to first order.
    """

    kind: str
    sign: int = 1
    omega1: float = 0.0

    def __post_init__(self):
        if self.kind not in ("dipolar", "burst", "ideal_burst", "average"):
            raise ValueError(f"unknown hamiltonian kind {self.kind!r}")
        if self.kind == "burst" and self.sign not in (-1, 1):
            raise ValueError("burst sign must be +1 or -1")
        if (self.kind in ("burst", "average")
                and not 0 < self.omega1 < math.inf):
            raise ValueError(f"{self.kind} omega1 must be positive and finite")

    @property
    def terms(self) -> dict:
        """Coefficients of H' (hd), P (p) and I_z (iz); 'average' adds H1."""
        if self.kind == "dipolar":
            return {"hd": 1.0}
        if self.kind in ("ideal_burst", "average"):
            return {"hd": -0.5}
        return {"iz": self.sign * self.omega1, "hd": -0.5, "p": 3.0 / 8.0}


@dataclass(frozen=True)
class Pulse:
    """Instantaneous resonant pulse: conjugation by exp(+i angle I_axis)."""

    axis: str
    angle: float

    def __post_init__(self):
        if not abs(self.angle) < math.inf:
            raise ValueError("pulse angle must be finite")


@dataclass(frozen=True)
class Evolve:
    hamiltonian: HamiltonianSpec
    duration: float

    def __post_init__(self):
        if not 0 <= self.duration < math.inf:
            raise ValueError("duration must be nonnegative and finite")


@dataclass(frozen=True)
class Acquire:
    """Sample s(t) every ``step`` over ``window`` under free dipolar evolution."""

    observable: str
    window: float
    step: float

    def __post_init__(self):
        if self.observable not in ("x", "y", "z"):
            raise ValueError("observable must be 'x', 'y' or 'z'")
        if not (0 < self.window < math.inf and self.step > 0):
            raise ValueError("window and step must be positive and finite")
        if self.step > self.window:
            raise ValueError("step exceeds acquisition window")

    @property
    def times(self) -> np.ndarray:
        """Sample times 0, step, 2 step, ... up to the window, refused
        (ValueError) before they are allocated if the job would not fit."""
        samples = self.window / self.step + 1e-9
        # a run job peaked at 33-36 traced bytes per sample, --out and
        # stdout alike, its CSV written a chunk at a time; 160 keeps a
        # wide margin over that
        check_fits(f"an acquisition window of {self.window * 1e6:g} us "
                   f"sampled every {self.step * 1e6:g} us",
                   160 * (samples + 1))
        return self.step * np.arange(int(samples) + 1)


@dataclass(frozen=True)
class DeviationState:
    """Traceless deviation Delta of the density matrix, in units of beta.

    Delta is in the sorted positions of
    :func:`~magicecho.operators.sector_layout`, checked here to be square,
    finite and Hermitian. A complex C-ordered array is kept as given; any
    other is taken as a complex C-ordered copy, the form :func:`evolve`
    advances in place. The field cannot be rebound, so every segment of a
    run acts on the checked array.
    """

    delta: np.ndarray

    def __post_init__(self):
        d = np.ascontiguousarray(self.delta, complex)
        if d.ndim != 2 or d.shape[0] != d.shape[1]:
            raise ValueError("delta must be square")
        scale = float(np.linalg.norm(d))
        if not np.isfinite(scale):
            raise ValueError("delta must be finite")
        # tile (i, j) against tile (j, i), 16 tiles a side: each pair is
        # read once, as blocks small next to delta, and counted twice off
        # the diagonal. einsum, not a BLAS dot, sums the squares: threaded
        # dots of this size took up to 10 ms a call on two cores
        b = max(1, d.shape[0] // 16)
        residual = 0.0
        for i in range(0, d.shape[0], b):
            for j in range(i, d.shape[0], b):
                t = (d[i:i + b, j:j + b]
                     - d[j:j + b, i:i + b].conj().T).view(float)
                residual += (1 + (j > i)) * np.einsum("ij,ij->", t, t)
        residual = np.sqrt(residual)
        if not residual <= HERMITICITY_TOL * max(1.0, scale):
            raise ValueError("delta must be Hermitian")
        object.__setattr__(self, "delta", d)


@dataclass(frozen=True)
class SignalCurve:
    """Sampled signal: times are offsets from the window start (or sweep
    abscissas for amplitude-vs-t1 curves, with meta saying which)."""

    times: np.ndarray
    values: np.ndarray
    observable: str
    start: float
    label: str = ""
    meta: dict = field(default_factory=dict)


# The deviation states a pulse program starts from, as operator_sum
# coefficients: I_x, transverse order after a 90 pulse, receiver phased so
# s_x(0) = +1; -H', dipolar order, the high-temperature ADRF limit of the
# equilibrium state; and -H' tilted by a 45-degree pulse about y, written
# out as -(1/4 H' + 3/16 (H2 + H-2) - 3/8 Q)
INITIAL_STATES = {
    "ix": {"ix": 1.0},
    "dipolar": {"hd": -1.0},
    "seq2": {"hd": -0.25, "p": -3.0 / 16.0, "q": 3.0 / 8.0},
}


def initial_state(kind: str, cluster_or_matrix) -> DeviationState:
    """The INITIAL_STATES start ``kind``, built straight in sorted positions."""
    if kind not in INITIAL_STATES:
        raise ValueError(f"unknown initial state kind {kind!r}")
    return DeviationState(ops.operator_sum(
        cluster_or_matrix, sorted_basis=True, **INITIAL_STATES[kind]))


class EigenCache:
    """Blockwise eigendecompositions of the Hamiltonians of one coupling table.

    :meth:`get` returns a tuple of (slice, w, v) blocks in the sorted basis:
    one per magnetization sector for H', one per parity class for a burst
    and the average kind; a run takes burst(-) from the burst(+) entry
    (:func:`_segment_factors`). Only the most recent coupling table is
    held: a lookup with another table drops every entry, so memory is
    bounded by the distinct Hamiltonian specs of one cluster. ``computed``
    counts lookups since the last :meth:`clear` that ran an
    eigendecomposition and ``reused`` the rest. The returned arrays are
    shared and read-only.
    """

    def __init__(self):
        self.clear()

    def clear(self) -> None:
        self._couplings = None
        self._eigs: dict[HamiltonianSpec, tuple] = {}
        self.computed = 0
        self.reused = 0

    def get(self, spec: HamiltonianSpec, cluster_or_matrix) -> tuple:
        a = ops.couplings_of(cluster_or_matrix)
        key = a.tobytes()
        if key != self._couplings:
            self._couplings, self._eigs = key, {}
        if spec in self._eigs:
            self.reused += 1
            return self._eigs[spec]
        return self._blocks(spec, a)

    def _blocks(self, spec: HamiltonianSpec, a: np.ndarray) -> tuple:
        # I_z, H', P and H1 have real matrix elements, so each block is
        # built real symmetric, straight in sorted positions
        layout = ops.sector_layout(a.shape[0])
        slices = layout.sectors if spec.kind == "dipolar" else layout.parities
        h1 = (ops.h1_parity_blocks(a, spec.omega1)
              if spec.kind == "average" else None)
        blocks = []
        for s in slices:
            if h1 is None:
                h = ops.sector_block(a, s, s, **spec.terms)
            else:   # H1's class block first: forming it is the peak
                _, h, cross = next(h1)
                h += cross
                del cross
                h += ops.sector_block(a, s, s, **spec.terms)
            blocks.append((s, *np.linalg.eigh(h)))
        self.computed += 1
        for _, w, v in blocks:
            w.setflags(write=False)
            v.setflags(write=False)
        self._eigs[spec] = tuple(blocks)
        return self._eigs[spec]


EIGENSYSTEMS = EigenCache()
"""Process-wide cache used by :func:`evolve` and the spectral helpers."""

_DIPOLAR = HamiltonianSpec("dipolar")
_PHASE_SUM_BLOCK = 256   # sample times per block, bounds the phase rows
_CHUNK_BYTES = 2**24     # product slab of a propagation pass, at most; an
                         # eighth of Delta is less up to n = 11


def _factors(blocks, t: float):
    """Yield (slice, exp(-i H t) on it) per eigenblock (slice, w, v) of H,
    each when asked for and held only by the caller; v is real, so from
    two real products."""
    for s, w, v in blocks:
        yield s, _factor(w, v, t)


def _factor(w, v, t):
    u = ((v * np.cos(w * t)) @ v.T).astype(complex)
    u.imag = (v * -np.sin(w * t)) @ v.T
    return u


def _segment_factors(spec: HamiltonianSpec, a: np.ndarray, t: float):
    """:func:`_factors` of an Evolve segment's Hamiltonian.

    burst(-) is X burst(+) X, and X keeps each parity class for even n and
    swaps the two for odd n, so the burst(-) factor of class k is the
    burst(+) factor of class k XOR (n mod 2), its rows and columns indexed
    by the spin flip: formed from the rows of burst(+)'s eigenvectors v
    taken in that order, as v[i] diag(exp(-i w t)) v[i]^T.
    """
    if spec.kind != "burst" or spec.sign > 0:
        yield from _factors(EIGENSYSTEMS.get(spec, a), t)
        return
    n = a.shape[0]
    layout = ops.sector_layout(n)
    plus = EIGENSYSTEMS.get(replace(spec, sign=1), a)
    for k, (c, w, v) in enumerate(plus):
        s = layout.parities[k ^ n % 2]
        i = layout.flip[s] - c.start
        yield s, _factor(w, v[i], t)


def _propagate(delta: np.ndarray, factors) -> None:
    """delta <- U delta U^dagger in place, from U's blocks (slice, u),
    applying each block's row and column passes together (left and right
    commute), in slabs of product of at most _CHUNK_BYTES and an eighth of
    delta, or 128 KiB if that is more."""
    slab = min(_CHUNK_BYTES, max(2 * delta.size, 2**17))
    for s, u in factors:
        step = slab // (16 * u.shape[0])
        for k in range(0, delta.shape[0], step):
            delta[s, k:k + step] = u @ delta[s, k:k + step]
        np.conjugate(u, out=u)
        for k in range(0, delta.shape[0], step):
            delta[k:k + step, s] = delta[k:k + step, s] @ u.T
        del u   # before the next factor is formed


def phase_sum(spectra, terms, times, what: str, start) -> np.ndarray:
    """The real samples s(t) = sum over (r, c, m) in ``terms`` of
    sum_jk m_jk exp(-i (w_r[j] - w_c[k]) t), w_k = spectra[k], at every t
    in ``times``; the one place a spectral sample becomes a number.

    With Delta~ and O~ the deviation and the observable in the eigenbasis
    of a block-diagonal H (one spectrum per block), Tr(exp(-iHt) Delta
    exp(iHt) O) is the phase sum of m = Delta~ * O~.T. Each term is one
    nonzero block of m, so only the blocks the observable reaches are
    summed. ``terms`` may be any iterable: within one block of times each
    term is read once, as it comes, so a generator's are never all held;
    over several blocks they are listed and the blocks looped outermost.
    A sector's phase row e_k(t) = exp(-i w_k t) over one block of times
    is formed only when a term needs it and kept only while the next term
    does, so with terms in the order of
    :func:`~magicecho.operators.collective_blocks` each is formed once per
    block. A term (r, c, m) forms x = e_r(t) @ m, conjugates it in place
    and adds sum_k conj(x)_k e_c(t)_k: the conjugate of its share of s(t)
    from the same products, so no row is conjugated, and the real part
    and |imaginary part| are those of s(t) bit for bit.

    Every caller's sum is real, and sum |m| bounds |s(t)| at every t, so
    an imaginary part above SIGNAL_IMAG_TOL sum |m| at any sample, or a
    NaN, raises InvariantViolation naming ``what``; so does s(0) = sum m
    (every phase is 1 there, whatever ``times`` holds) off ``start``, the
    caller's exact value of s(0), by more than WINDOW_START_TOL sum |m|.
    """
    times = np.atleast_1d(np.asarray(times, float))
    if times.size > _PHASE_SUM_BLOCK:
        terms = list(terms)
    out = np.zeros(times.shape, complex)   # conj(s(t))
    zero = scale = 0.0   # s(0), where every phase is 1, and its bound
    for k in range(0, times.size, _PHASE_SUM_BLOCK):
        t = times[k:k + _PHASE_SUM_BLOCK, None]
        rows = {}   # sector: exp(-i w t)
        for r, c, m in terms:
            rows = {i: rows[i] for i in (r, c) if i in rows}
            for i in {r, c} - rows.keys():
                rows[i] = -1j * t * spectra[i]
                np.exp(rows[i], out=rows[i])
            x = rows[r] @ m
            np.conjugate(x, out=x)
            out[k:k + _PHASE_SUM_BLOCK] += np.einsum("tj,tj->t", x, rows[c])
            del x   # before the next term's rows are formed
            if k == 0:
                zero += m.sum()
                scale += float(np.abs(m).sum())
    if not np.all(np.abs(out.imag) <= SIGNAL_IMAG_TOL * scale):
        raise InvariantViolation(f"{what} acquired an imaginary part")
    if not abs(zero - start) <= WINDOW_START_TOL * scale:
        raise InvariantViolation(
            f"{what} starts at {complex(zero).real:.17g}, not at its "
            f"identity value {complex(start).real:.17g}")
    return out.real


def _acquire_terms(blocks, obs, delta: np.ndarray):
    """Yield the phase-sum terms of Tr(Delta(t) O) under the H' eigenblocks.

    ``obs`` holds the nonzero blocks (r, c, coeff, f) of O, as
    :func:`~magicecho.operators.collective_blocks` gives them. The block
    O[r, c] meets Delta's block (c, r) only, so each term is
    Delta~[c, r] * O~[r, c].T, two small basis changes apiece.
    """
    for r, c, coeff, f in obs:
        (s_r, _, v_r), (s_c, _, v_c) = blocks[r], blocks[c]
        o_rc = coeff * (v_r.T @ f @ v_c)
        yield c, r, (v_c.T @ delta[s_c, s_r] @ v_r) * o_rc.T


def _check_memory(what: str, n: int, specs, arrays: int,
                  samples: int = 0) -> None:
    """Refuse (ValueError) a job whose estimated peak exceeds the available
    memory, before it allocates.

    The estimate: ``arrays`` dense complex d x d arrays of 16 d^2 bytes,
    the real eigenvectors EIGENSYSTEMS keeps for ``specs`` (8 bytes per
    block entry: H' per sector, a burst or the average kind per parity
    class; burst(-) shares burst(+)'s), and the larger of
    two work sets. A propagation holds a factor in the making, three
    complex blocks of the largest eigenblock (a parity class if ``specs``
    holds a burst or the average kind, else a sector), and one product
    slab. An acquisition of up to ``samples`` samples holds three phase
    rows of a block of times (two, and their product or one in the
    making), numpy's casting buffers of 2 x 8192 complex entries while a
    row is formed, and four terms, each row and term at most a largest
    sector wide, and every term when its times span more than one block.
    """
    d = 2**n
    spectra = {"dipolar" if s.kind == "dipolar" else (s.kind, s.omega1)
               for s in specs}
    # sum_k C(n, k)^2 = C(2n, n) entries over the sectors, d^2 / 2 over
    # the two classes
    cached = sum(8 * math.comb(2 * n, n) if key == "dipolar" else 4 * d * d
                 for key in spectra)
    sector = math.comb(n, n // 2)
    block = sector if spectra <= {"dipolar"} else d // 2
    evolution = 48 * block * block + min(_CHUNK_BYTES, max(2 * d**2, 2**17))
    # the terms of I_x or I_y are 2 C(2n, n + 1) < 2 C(2n, n) entries
    acquisition = 16 * (3 * min(samples, _PHASE_SUM_BLOCK) * sector
                        + 4 * sector * sector + 2 * 8192
                        + (samples > _PHASE_SUM_BLOCK) * 2
                        * math.comb(2 * n, n))
    check_fits(f"{what} at n = {n}", 16 * d * d * arrays + cached
               + max(evolution, acquisition))


def _check_drift(delta, norm0, tr0, where):
    tol = SEGMENT_DRIFT_TOL * max(1.0, norm0)
    if not abs(np.linalg.norm(delta) - norm0) <= tol:
        raise InvariantViolation(f"Tr(Delta^2) drifted after {where}")
    if not abs(complex(np.trace(delta)) - tr0) <= tol:
        raise InvariantViolation(f"Tr(Delta) drifted after {where}")


def evolve(state: DeviationState, cluster_or_matrix, segments):
    """Run a deviation state through a sequence of segments on a cluster.

    Returns (state, curves) where curves holds one :class:`SignalCurve`
    per Acquire segment, in segment order. The state is the run's own: its
    Delta, in sorted positions, is advanced in place, and the same object
    is returned.
    """
    a = ops.couplings_of(cluster_or_matrix)
    n = a.shape[0]
    if state.delta.shape != (2**n, 2**n):
        raise ValueError("state dimension does not match the cluster")
    # each sample grid is made, or refused, before the first segment runs
    grids = [seg.times for seg in segments if isinstance(seg, Acquire)]
    _check_memory("this run", n, [
        seg.hamiltonian if isinstance(seg, Evolve)
        and seg.hamiltonian.kind in ("burst", "average") else _DIPOLAR
        for seg in segments if not isinstance(seg, Pulse)], 0,
        max((grid.size for grid in grids), default=0))
    delta = state.delta
    norm0 = float(np.linalg.norm(delta))
    tr0 = complex(np.trace(delta))
    curves = []
    t_abs, net, first = 0.0, 0.0, 0   # net: H' time pending from `first`
    for k, seg in enumerate([*segments, None]):
        where = f"segment {k} ({type(seg).__name__})"
        if isinstance(seg, Evolve) and seg.hamiltonian.kind in (
                "dipolar", "ideal_burst"):
            net += seg.hamiltonian.terms["hd"] * seg.duration
            t_abs += seg.duration
            continue
        if isinstance(seg, Acquire):   # reads Delta at the pending H' time
            blocks = EIGENSYSTEMS.get(_DIPOLAR, a)
            obs = ops.collective_blocks(seg.observable, n)
            times = grids[len(curves)]
            # the sum at t = 0 is Tr(Delta O) = sum of Tr(Delta[c, r] O[r, c]),
            # read from O's real blocks and, Delta being Hermitian, from the
            # conjugate of Delta[r, c], which is stored in f's row order
            start = sum(coeff * np.einsum("ij,ij->", delta[blocks[r][0],
                                                           blocks[c][0]],
                                          f).conjugate()
                        for r, c, coeff, f in obs)
            # times 1 / Tr(O^2) = 4 / (n 2^n) for I_x, I_y and I_z: a product
            # with the reciprocal keeps the recorded samples bit for bit
            s = phase_sum([w for _, w, _ in blocks],
                          _acquire_terms(blocks, obs, delta),
                          net + times if net != 0.0 else times,
                          f"the signal of {where}", start) * (4 / (n * 2**n))
            curves.append(SignalCurve(
                times=times, values=s, observable=seg.observable,
                start=t_abs))
            net += seg.window
            t_abs += seg.window
            continue
        if net != 0.0:   # exactly: a net of 0 runs no pass
            _propagate(delta, _factors(EIGENSYSTEMS.get(_DIPOLAR, a), net))
            _check_drift(delta, norm0, tr0, f"segments {first} to {k - 1}")
        net, first = 0.0, k + 1
        if seg is None:
            break
        if isinstance(seg, Pulse):
            # positive-gamma pulse convention: conjugate by exp(+i angle I)
            ops.rotate_sorted(delta, seg.axis, -seg.angle)
        elif isinstance(seg, Evolve):
            if seg.duration > 0.0:
                _propagate(delta, _segment_factors(seg.hamiltonian, a,
                                                   seg.duration))
                t_abs += seg.duration
        else:
            raise TypeError(f"unknown segment type {type(seg).__name__}")
        _check_drift(delta, norm0, tr0, where)
    return state, curves


def halfcycle_duration(omega1: float, n_halfcycles):
    """Duration of n burst half-cycles, n pi / omega1 (n may be an array)."""
    if not 0 < omega1 < math.inf:
        raise ValueError("omega1 must be positive and finite")
    return n_halfcycles * np.pi / omega1


def verify_average_hamiltonian(cluster_or_matrix, omega1: float,
                               n_halfcycles: int = 4) -> dict:
    """Exact single-burst propagator vs its average-Hamiltonian factorization.

    Over t1 = n_halfcycles * pi / omega1 the exact propagator for the +
    phase burst is compared with exp(-i omega1 Iz t1) exp(-i F_k t1), where
    F_0 = -1/2 H' and F_1 = F_0 + H1 (first-order correction). Returns a
    dict with t1 and the normalized Frobenius errors err0 and err1, summed
    in squares over the parity classes, which all three propagators keep.
    """
    a = ops.couplings_of(cluster_or_matrix)
    n = a.shape[0]
    if n_halfcycles < 1 or n_halfcycles != int(n_halfcycles):
        raise ValueError("half-cycle count must be a positive integer")
    t1 = halfcycle_duration(omega1, int(n_halfcycles))
    specs = (HamiltonianSpec("burst", 1, omega1),
             HamiltonianSpec("average", omega1=omega1))
    _check_memory("verify", n, (_DIPOLAR, *specs), 0)
    sectors = EIGENSYSTEMS.get(_DIPOLAR, a)
    # exp(-i omega1 I_z t1) is diagonal: one phase per sorted state, from
    # its I_z eigenvalue n/2 - (number of down spins)
    down = (ops.sector_layout(n).order[:, None] >> np.arange(n) & 1).sum(1)
    u_z = np.exp(-1j * (omega1 * (0.5 * n - down)) * t1)[:, None]
    squares = np.zeros(2)
    burst, average = (EIGENSYSTEMS.get(spec, a) for spec in specs)
    for k, ((c, w, v), (_, w_avg, v_avg)) in enumerate(zip(burst, average)):
        u = _factor(w, v, t1)
        approx = _factor(w_avg, v_avg, t1)
        approx *= -u_z[c]
        approx += u
        squares[1] += np.linalg.norm(approx) ** 2
        # the ideal burst -H'/2 over t1 is H' over -t1/2, and the H'
        # sectors of class k are every other one from k
        for s, f in _factors(sectors[k::2], -0.5 * t1):
            r = slice(s.start - c.start, s.stop - c.start)
            u[r, r] -= u_z[s] * f
        squares[0] += np.linalg.norm(u) ** 2
        del u, approx   # before the next class's factors are formed
    err0, err1 = np.sqrt(squares / 2**n)
    return {"t1": t1, "omega1": omega1, "n_halfcycles": int(n_halfcycles),
            "err0": float(err0), "err1": float(err1)}


def effective_propagator_a3(cluster_or_matrix, omega1: float,
                            t1: float) -> np.ndarray:
    """Time-ordered exponential of the interaction-picture correction.

    A3 = Texp{ -i integral_0^t1 exp(-i H' t/2) H1 exp(+i H' t/2) dt }.
    The integrand is H1 in the interaction picture of H0 = -H'/2, so the
    product closes exactly: A3 = exp(-i H' t1/2) exp(-i (-H'/2 + H1) t1),
    two cached spectra, per parity class. For zero couplings (H1 = 0) this
    is the identity: the burst then reverses nothing and corrects nothing.
    """
    if not t1 > 0:
        raise ValueError("t1 must be positive")
    a = ops.couplings_of(cluster_or_matrix)
    average = HamiltonianSpec("average", omega1=omega1)
    _check_memory("A3", a.shape[0], (_DIPOLAR, average), 1)
    layout = ops.sector_layout(a.shape[0])
    sectors = EIGENSYSTEMS.get(_DIPOLAR, a)
    u = np.zeros((layout.order.size,) * 2, complex)
    for k, (c, w, v) in enumerate(EIGENSYSTEMS.get(average, a)):
        g = _factor(w, v, t1)
        # H' sectors nest in the classes: each multiplies its own rows
        for s, f in _factors(sectors[k::2], 0.5 * t1):
            r = slice(s.start - c.start, s.stop - c.start)
            g[r] = f @ g[r]
        u[np.ix_(layout.order[c], layout.order[c])] = g
        del g   # before the next class's factor is formed
    return u
