"""Many-spin operators for clusters of dipolar-coupled spin-1/2 nuclei.

Site 0 is the most significant qubit of the 2^N product basis and index 0
of each single-site factor is spin-up. Every builder accepts either a
:class:`~magicecho.lattice.SpinCluster` or a bare symmetric coupling matrix
in rad/s, so synthetic coupling tables can be fed straight in.

:func:`sector_layout` gives the symmetry-sorted order of the same basis
that the engine works in: states sorted by the parity of their down-spin
count, then by the count, then by index. Magnetization sectors (which H'
conserves) and the two parity classes (which the burst Hamiltonian
conserves) are then contiguous slices, and the global spin flip
X = prod sigma^x is a permutation of sorted positions.

Every operator's matrix elements are listed once, from bit patterns of
basis-state indices, and written out in one of three forms: dense in the
product basis (:func:`operator_sum`, :func:`collective`, the named
builders), for the CLI, ``verify`` and the tests; dense in sorted positions
(:func:`operator_sum` with ``sorted_basis``), for a run's initial state; or
real blocks in sorted positions (:func:`sector_block`,
:func:`collective_blocks`, :func:`pair_raising_positions`; H1 in
:func:`h1_parity_blocks`), all the engine builds of its Hamiltonians and
observables.

:func:`rotate` conjugates by a collective rotation without forming it, into
a new array: it applies the single-site 2x2 factor to every site index of
the operator, O(N 4^N) instead of the O(8^N) of two dense products.
:func:`rotate_sorted`, a run's pulse, does so in place in sorted positions.
Both run one kernel, which works in place a slab of rows or columns at a
time (:func:`_rotate_slabs`), so a rotation allocates two slabs, not a
second d x d operator.

Sign conventions, fixed once here and relied on everywhere else:

* ``rotate(op, axis, angle)`` conjugates op by exp(-i * angle * I_axis).
* A resonant RF pulse of flip angle theta about ``axis`` conjugates
  operators by exp(+i * theta * I_axis), i.e. ``rotate(op, axis, -theta)``.
  This is the positive-gamma convention; the tilt identity below only holds
  with this sign.

With that convention, conjugating the secular dipolar Hamiltonian H' by a
theta pulse about y decomposes exactly as

    H'(theta) = 1/2 (3 cos^2 theta - 1) H'
              + 3/8 sin^2 theta (H2 + H-2)
              - 3/4 sin theta cos theta Q

where H2 = sum a_ij I+i I+j is the double-quantum part and Q is the
single-quantum part defined in :func:`operator_q`.
"""

from __future__ import annotations

from functools import lru_cache, reduce
from typing import NamedTuple

import numpy as np

MAX_SITES = 12
"""Hard cap on cluster size; 2^12 = 4096 keeps dense algebra tractable."""

_S = {
    "x": np.array([[0.0, 0.5], [0.5, 0.0]], complex),
    "y": np.array([[0.0, -0.5j], [0.5j, 0.0]], complex),
    "z": np.array([[0.5, 0.0], [0.0, -0.5]], complex),
}


def couplings_of(cluster_or_matrix) -> np.ndarray:
    """Extract the symmetric coupling matrix (rad/s) and validate it."""
    a = getattr(cluster_or_matrix, "couplings", cluster_or_matrix)
    a = np.asarray(a, float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("coupling table must be a square matrix")
    n = a.shape[0]
    if n < 2:
        raise ValueError("need at least 2 sites")
    if n > MAX_SITES:
        raise ValueError(f"cluster size {n} exceeds MAX_SITES={MAX_SITES}")
    if not np.allclose(a, a.T, atol=1e-9 * max(1.0, np.abs(a).max())):
        raise ValueError("coupling table must be symmetric")
    return a


def site_count(cluster_or_matrix) -> int:
    return couplings_of(cluster_or_matrix).shape[0]


# The many-spin builders below work on bit patterns of basis-state indices
# instead of products of kron-built site operators: bit (n-1-i) of a state
# index is 1 where site i is spin-down. Every operator here is a diagonal
# part plus couplings between basis states that differ by reversed spins,
# and :func:`_entries` lists those couplings once for all builders.

def _entries(a, states, hd=0.0, p=0.0, q=0.0, iz=0.0, ix=0.0, iy=0.0):
    """Nonzero entries of hd H' + p P + q Q + iz I_z + ix I_x + iy I_y in
    the columns of the basis states ``states``.

    Yields (rows, cols, values) parts: rows are basis states, cols are
    positions in ``states``. No (row, col) appears twice: the diagonal
    gathers the zz and I_z terms, a pair flip is flip-flop (antiparallel
    spins, H') or double-quantum (parallel spins, P), and a single-site
    flip gathers I_x, I_y and Q.
    """
    n = a.shape[0]
    sites = np.arange(n)
    # z[i, c]: I_z eigenvalue (+1/2 up, -1/2 down) of site i in states[c]
    z = 0.5 - ((states >> (n - 1 - sites)[:, None]) & 1)
    cols = np.broadcast_to(np.arange(states.size), (n, states.size))
    pi, pj = np.nonzero(np.triu(a, 1))        # coupled pairs, i < j
    aij = a[pi, pj][:, None]
    zz = z[pi] * z[pj]
    if hd or iz:
        yield states, cols[0], iz * z.sum(axis=0) + hd * (aij * zz).sum(axis=0)
    if (hd or p) and pi.size:
        rows = states ^ ((1 << (n - 1 - pi)) | (1 << (n - 1 - pj)))[:, None]
        pair_cols = np.broadcast_to(cols[0], rows.shape)
        values = np.broadcast_to(aij, rows.shape)
        for coeff, sel in ((-0.25 * hd, zz < 0), (p, zz > 0)):
            if coeff:
                yield rows[sel], pair_cols[sel], coeff * values[sel]
    if q or ix or iy:
        # on site i, <b ^ m|I_x|b> = 1/2, <b ^ m|I_y|b> = i I_z(b), and Q
        # brings sum_j a_ij I_zj(b)
        values = q * ((a - np.diag(np.diag(a))) @ z) + 0.5 * ix
        if iy:
            values = values + 1j * iy * z
        rows = states ^ (1 << (n - 1 - sites))[:, None]
        yield rows.ravel(), cols.ravel(), values.ravel()


# columns whose entries _dense lists at once: about 40 bytes per coupled
# pair and column, so the lists stay under 1 MiB at n = 12
_DENSE_COLUMNS = 256


def _dense(a, sorted_basis=False, **coeffs) -> np.ndarray:
    layout = sector_layout(a.shape[0])
    states = layout.order if sorted_basis else np.arange(layout.order.size)
    out = np.zeros((states.size, states.size), complex)
    for start in range(0, states.size, _DENSE_COLUMNS):
        for rows, cols, values in _entries(
                a, states[start:start + _DENSE_COLUMNS], **coeffs):
            out[layout.position[rows] if sorted_basis else rows,
                cols + start] = values
    return out


def operator_sum(cluster_or_matrix, hd=0.0, p=0.0, q=0.0, iz=0.0, ix=0.0,
                 sorted_basis=False) -> np.ndarray:
    """hd H' + p P + q Q + iz I_z + ix I_x, dense in one buffer, in the
    product basis or (``sorted_basis``) in the sorted positions of
    :func:`sector_layout`."""
    return _dense(couplings_of(cluster_or_matrix), sorted_basis, hd=hd, p=p,
                  q=q, iz=iz, ix=ix)


def sector_block(cluster_or_matrix, rows: slice, cols: slice, hd=0.0, p=0.0,
                 q=0.0, iz=0.0, ix=0.0) -> np.ndarray:
    """Block [rows, cols] of hd H' + p P + q Q + iz I_z + ix I_x in the
    sorted positions of :func:`sector_layout`.

    All five operators have real matrix elements, so the block is real.
    Only the columns in ``cols`` are generated.
    """
    a = couplings_of(cluster_or_matrix)
    layout = sector_layout(a.shape[0])
    out = np.zeros((rows.stop - rows.start, cols.stop - cols.start))
    for r, c, values in _entries(a, layout.order[cols], hd=hd, p=p, q=q,
                                 iz=iz, ix=ix):
        r = layout.position[r] - rows.start
        keep = (r >= 0) & (r < out.shape[0])
        out[r[keep], c[keep]] = values[keep]
    return out


class SectorLayout(NamedTuple):
    """Symmetry-sorted order of the 2^n basis states (see module docstring).

    order[p] is the basis index at sorted position p and position its
    inverse. sectors[k] is the slice of the states with k down spins and
    parities the even- and odd-count slices. flip[p] is the sorted position
    of X applied to the state at p (b -> b XOR (2^n - 1)).
    """

    order: np.ndarray
    position: np.ndarray
    sectors: tuple
    parities: tuple
    flip: np.ndarray

    def sort(self, op: np.ndarray) -> np.ndarray:
        """A copy of op with rows and columns in sorted order."""
        return op[np.ix_(self.order, self.order)]

    def unsort(self, op: np.ndarray) -> np.ndarray:
        """Inverse of :meth:`sort`."""
        return op[np.ix_(self.position, self.position)]


@lru_cache(maxsize=None)
def sector_layout(n: int) -> SectorLayout:
    """The sorted layout for n sites, built once per n on first use."""
    states = np.arange(2**n)
    downs = np.zeros_like(states)
    for i in range(n):
        downs += (states >> i) & 1
    order = np.lexsort((states, downs, downs % 2))
    position = np.empty_like(order)
    position[order] = states
    sizes = np.bincount(downs, minlength=n + 1)
    # sorted order visits the even counts, then the odd ones
    starts = dict(zip([*range(0, n + 1, 2), *range(1, n + 1, 2)],
                      np.cumsum([0, *sizes[0::2], *sizes[1::2]]).tolist()))
    sectors = tuple(slice(starts[k], starts[k] + sizes[k])
                    for k in range(n + 1))
    n_even = int(sizes[0::2].sum())
    flip = position[order ^ (2**n - 1)]
    for arr in (order, position, flip):
        arr.setflags(write=False)
    return SectorLayout(order, position, sectors,
                        (slice(0, n_even), slice(n_even, 2**n)), flip)


def _split_axis(axis: str):
    sign = 1.0
    if axis.startswith("-"):
        sign, axis = -1.0, axis[1:]
    if axis not in ("x", "y", "z"):
        raise ValueError(f"unknown axis {axis!r}")
    return sign, axis


def collective(axis: str, n: int) -> np.ndarray:
    """Total spin component I_axis = sum_i I_axis,i; axis may carry a '-'."""
    sign, axis = _split_axis(axis)
    return _dense(np.zeros((n, n)), **{"i" + axis: sign})


def collective_blocks(axis: str, n: int) -> list:
    """The nonzero blocks of I_axis in sorted positions.

    Returns (r, c, coeff, f) with I_axis[sectors[r], sectors[c]] =
    coeff * f and f real. I_x and I_y move the down-spin count by one, so
    their blocks are (k +- 1, k), with f the block of I_x and
    I_y = +-i I_x there; I_z keeps it, and on sector k it is n/2 - k times
    the identity.
    """
    sign, axis = _split_axis(axis)
    if axis == "z":
        return [(k, k, sign * (0.5 * n - k), np.eye(s.stop - s.start))
                for k, s in enumerate(sector_layout(n).sectors)]
    return [(r, c, sign * (1.0 if axis == "x" else 1j * (r - c)), f)
            for r, c, f in _flip_blocks(n)]


@lru_cache(maxsize=None)
def _flip_blocks(n: int) -> tuple:
    """(r, c, f): the nonzero blocks of I_x, built once per n."""
    sectors = sector_layout(n).sectors
    zero = np.zeros((n, n))
    blocks = tuple((r, c, sector_block(zero, sectors[r], sectors[c], ix=1.0))
                   for c in range(n + 1) for r in (c - 1, c + 1)
                   if 0 <= r <= n)
    for _, _, f in blocks:
        f.setflags(write=False)
    return blocks


def secular_dipolar(cluster_or_matrix) -> np.ndarray:
    """H' = sum_{i<j} a_ij [ I_zi I_zj - 1/4 (I+i I-j + I-i I+j) ]."""
    return operator_sum(cluster_or_matrix, hd=1.0)


def nonsecular_pair_raising(cluster_or_matrix):
    """Double-quantum operators (H2, H-2, P).

    H2 = sum_{i<j} a_ij I+i I+j, H-2 = H2^dagger, P = H2 + H-2.
    """
    p = operator_sum(cluster_or_matrix, p=1.0)
    # raising clears two bits of the column index, so H2 is P's upper part
    h2 = np.triu(p)
    return h2, h2.conj().T, p


def pair_raising_positions(i: int, j: int, n: int):
    """I+i I+j in the sorted positions of :func:`sector_layout`: (rows,
    cols) of its entries, each 1, from every state with sites i and j down
    (cols) to the one with both up (rows)."""
    layout = sector_layout(n)
    mask = (1 << (n - 1 - i)) | (1 << (n - 1 - j))
    cols = np.flatnonzero(layout.order & mask == mask)
    return layout.position[layout.order[cols] ^ mask], cols


def operator_q(cluster_or_matrix) -> np.ndarray:
    """Single-quantum part Q = sum_{i<j} a_ij [I_zi (I+j + I-j) + (i <-> j)]."""
    return operator_sum(cluster_or_matrix, q=1.0)


def _site_rotation(axis: str, angle: float) -> np.ndarray:
    """Single-site factor exp(-i * angle * S_axis); axis may carry a '-'."""
    sign, axis = _split_axis(axis)
    theta = sign * angle
    return (np.cos(theta / 2.0) * np.eye(2, dtype=complex)
            - 2.0j * np.sin(theta / 2.0) * _S[axis])


# site indices per product: a 16x16 factor keeps each of a slab's n/4
# steps one BLAS product; on 2 cores it tied 3 sites and beat 2, 5 and 6
# at n = 10 and 12
_FACTOR_SITES = 4
# rows or columns per slab of a rotation: each row of a column slab is one
# 512-byte run, and the two slab buffers are 64/d of a dense operator;
# 16 and 64 were slower at n = 12 on 2 cores
_SLAB_WIDTH = 32


def rotate(op: np.ndarray, axis: str, angle: float) -> np.ndarray:
    """Conjugate: R op R^dagger with R = exp(-i * angle * I_axis), as a
    new complex C-ordered array.

    R is the kron of n copies of the site factor u, so op, read as a tensor
    of n row and n column site indices, gets u on every row index and u* on
    every column index (:func:`_rotate_slabs`): O(n 4^n), with no dense R.
    """
    out = np.array(op, complex, order="C")
    identity = np.arange(out.shape[0])
    return _rotate_slabs(out, axis, angle, identity, identity)


def rotate_sorted(op: np.ndarray, axis: str, angle: float) -> np.ndarray:
    """:func:`rotate` in place of op, complex128 and C-contiguous (else
    ValueError) and held in sorted positions; returns op."""
    if op.dtype != complex or not op.flags.c_contiguous:
        raise ValueError("rotate_sorted needs a complex C-contiguous array")
    layout = sector_layout(_sites(op))
    return _rotate_slabs(op, axis, angle, layout.position, layout.order)


def _sites(op) -> int:
    n = int(round(np.log2(op.shape[0])))
    if 2**n != op.shape[0]:
        raise ValueError("operator dimension is not a power of 2")
    return n


def _rotate_slabs(op, axis, angle, position, order):
    """R op R^dagger in place of op, whose row and column of product state
    k sit at position[k] (order is the inverse permutation); returns op.

    The row pass applies u to every row site index of each slab of w
    columns, and the column pass u* to every column site index of each
    slab of w rows. Each slab is gathered into a buffer with its product
    index in order, leading, taken through the site products and written
    back where it was read: its output depends only on its input, so two
    slab buffers are all the work space.
    """
    d = op.shape[0]
    n = _sites(op)
    u1 = _site_rotation(axis, angle)
    factors = [reduce(np.kron, [u1] * min(_FACTOR_SITES, n - k))
               for k in range(0, n, _FACTOR_SITES)]
    w = min(d, _SLAB_WIDTH)
    a, b = np.empty((2, d, w), complex)
    # chunk p (d / w) + j of op is op[p, j w:(j + 1) w]; mode 'clip' lets
    # take write straight into out ('raise' buffers a whole copy)
    chunks = op.reshape(-1, w)
    for j in range(d // w):
        rows = position * (d // w) + j
        np.take(chunks, rows, axis=0, out=a, mode="clip")
        done = _site_products(a, b, factors)
        chunks[rows] = done.reshape(w, d).T
    conj = [f.conj() for f in factors]
    for i in range(0, d, w):
        np.copyto(b, op[i:i + w].T)
        np.take(b, position, axis=0, out=a, mode="clip")
        done = _site_products(a, b, conj)
        np.take(done.reshape(w, d), order, axis=1, out=op[i:i + w],
                mode="clip")
    return op


def _site_products(x, y, factors):
    """Apply the site factors to the product index of the (d, w) slab x,
    alternating between x and y; returns the buffer holding the result,
    laid out (w, d). Each product takes the leading _FACTOR_SITES indices
    (u kron u ... as one small factor) and moves them behind the rest, so
    after all of them the slab index leads and the site order is restored.
    """
    for f in factors:
        np.matmul(x.reshape(f.shape[0], -1).T, f.T,
                  out=y.reshape(-1, f.shape[0]))
        x, y = y, x
    return x


class TiltReport(NamedTuple):
    """Least-squares split of a tilted H' over the (H', P, Q) basis."""

    coeff_hd: float
    coeff_p: float
    coeff_q: float
    residual: float      # Frobenius norm of what the basis cannot absorb
    reference_norm: float


def tilt_decompose(cluster_or_matrix, theta: float) -> TiltReport:
    """Decompose the pulse-tilted dipolar Hamiltonian over (H', P, Q).

    Tilts H' by a theta pulse about y (positive-gamma convention, so the
    conjugation is by exp(+i theta I_y)) and projects the result onto the
    mutually orthogonal operators H', P, Q under the trace inner product.
    """
    a = couplings_of(cluster_or_matrix)
    hd = secular_dipolar(a)
    _, _, p = nonsecular_pair_raising(a)
    q = operator_q(a)
    # pulse convention: conjugate by exp(+i theta I_y)
    tilted = rotate(hd, "y", -theta)
    coeffs = []
    rem = tilted.copy()
    for basis_op in (hd, p, q):
        norm2 = float(np.vdot(basis_op, basis_op).real)
        c = float(np.vdot(basis_op, tilted).real / norm2)
        coeffs.append(c)
        rem -= c * basis_op
    return TiltReport(coeff_hd=coeffs[0], coeff_p=coeffs[1], coeff_q=coeffs[2],
                      residual=float(np.linalg.norm(rem)),
                      reference_norm=float(np.linalg.norm(tilted)))


def commutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    c = a @ b
    c -= b @ a
    return c


def h1_parity_blocks(cluster_or_matrix, omega1: float):
    """The two parts of :func:`magnus_first_correction` as real blocks
    (slice, double_quantum, cross) on each parity class, the only nonzero
    blocks, yielded one class at a time. H2 lowers the down-spin count by
    two, so in sorted order it is the upper triangle of P's class block."""
    if not 0 < omega1 < np.inf:
        raise ValueError("omega1 must be positive and finite")
    a = couplings_of(cluster_or_matrix)
    for s in sector_layout(a.shape[0]).parities:
        yield (s, *_h1_class_blocks(a, s, omega1))


def _h1_class_blocks(a, s, omega1):
    h2 = np.triu(sector_block(a, s, s, p=1.0))
    cross = commutator(sector_block(a, s, s, hd=1.0), h2.T - h2)
    cross *= 3.0 / 16.0
    cross /= 2.0 * omega1
    dq = commutator(h2, h2.T)
    dq *= (3.0 / 8.0) ** 2
    dq /= 2.0 * omega1
    return dq, cross


def magnus_first_correction(cluster_or_matrix, omega1: float):
    """First-order average-Hamiltonian correction for one burst half-cycle.

    During a burst the tilted-frame Hamiltonian is
    +/- omega1 I_z - 1/2 H' + 3/8 (H2 + H-2), and the double-quantum part
    oscillates at 2 omega1 in the I_z interaction frame. Averaging one
    half-cycle pair (+ phase then - phase) leaves the zeroth-order term
    -1/2 H' and the first-order correction

        H1 = (3/8)^2 [H2, H-2] / (2 omega1)
           + (3/16) [H', H-2 - H2] / (2 omega1)

    Both parts are Hermitian. Returns (h1, parts) where parts is a dict with
    the two Hermitian pieces under keys 'double_quantum' and 'cross', dense,
    assembled from :func:`h1_parity_blocks`.
    """
    a = couplings_of(cluster_or_matrix)
    parts = np.zeros((2,) + (2 ** a.shape[0],) * 2, complex)
    for s, *blocks in h1_parity_blocks(a, omega1):
        parts[:, s, s] = blocks
    dq, cross = (sector_layout(a.shape[0]).unsort(part) for part in parts)
    return dq + cross, {"double_quantum": dq, "cross": cross}


def h1_magnitude_proxy(m2: float, omega1: float) -> float:
    """Scalar size estimate M2 / (2 omega1) for the first-order correction."""
    if not 0 < omega1 < np.inf:
        raise ValueError("omega1 must be positive and finite")
    return float(m2) / (2.0 * omega1)
