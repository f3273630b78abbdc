"""Many-spin operators for clusters of dipolar-coupled spin-1/2 nuclei.

Matrices are dense complex128 in the full 2^N product basis. Site 0 is the
most significant qubit and index 0 of each single-site factor is spin-up.
Every builder accepts either a :class:`~magicecho.lattice.SpinCluster` or a
bare symmetric coupling matrix in rad/s, so synthetic coupling tables can be
fed straight in.

:func:`sector_layout` gives the symmetry-sorted order of the same basis
that the engine works in: states sorted by the parity of their down-spin
count, then by the count, then by index. Magnetization sectors (which H'
conserves) and the two parity classes (which the burst Hamiltonian
conserves) are then contiguous slices, and the global spin flip
X = prod sigma^x is a permutation of sorted positions.

:func:`rotate` conjugates by a collective rotation without forming it: it
applies the single-site 2x2 factor to every site index of the operator,
O(N 4^N) instead of the O(8^N) of two dense products.

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
# index is 1 where site i is spin-down. Pair terms are then a diagonal zz
# part plus couplings between basis states that differ by reversed spins.

def _basis(n: int):
    """(states, z): the basis-state indices 0..2^n-1 and z[i, b], the I_z
    eigenvalue (+1/2 up, -1/2 down) of site i in state b."""
    states = np.arange(2**n)
    return states, 0.5 - ((states >> (n - 1 - np.arange(n))[:, None]) & 1)


def _mask(site: int, n: int) -> int:
    return 1 << (n - 1 - site)


def _flips(out: np.ndarray, mask: int, cols, values) -> None:
    """out[b ^ mask, b] += values for b in cols: couple each basis state to
    the one with the spins under ``mask`` reversed."""
    out[cols ^ mask, cols] += values


class SectorLayout(NamedTuple):
    """Symmetry-sorted order of the 2^n basis states (see module docstring).

    order[p] is the basis index at sorted position p and position its
    inverse. sectors holds one slice per magnetization sector and parities
    the even- and odd-count slices, all in sorted order. flip[p] is the
    sorted position of X applied to the state at p (b -> b XOR (2^n - 1)).
    """

    order: np.ndarray
    position: np.ndarray
    sectors: tuple
    parities: tuple
    flip: np.ndarray

    def sort(self, op: np.ndarray) -> np.ndarray:
        """op with rows and columns in sorted order."""
        return op.take(self.order, axis=0).take(self.order, axis=1)

    def unsort(self, op: np.ndarray) -> np.ndarray:
        """Inverse of :meth:`sort`."""
        return op.take(self.position, axis=0).take(self.position, axis=1)


@lru_cache(maxsize=None)
def sector_layout(n: int) -> SectorLayout:
    """The sorted layout for n sites, built once per n on first use."""
    states, z = _basis(n)
    downs = (0.5 * n - z.sum(axis=0)).round().astype(int)
    order = np.lexsort((states, downs, downs % 2))
    position = np.empty_like(order)
    position[order] = states
    bounds = np.flatnonzero(np.diff(downs[order])) + 1
    edges = [0, *bounds.tolist(), 2**n]
    sectors = tuple(slice(lo, hi) for lo, hi in zip(edges, edges[1:]))
    n_even = int((downs % 2 == 0).sum())
    flip = position[order ^ (2**n - 1)]
    for arr in (order, position, flip):
        arr.setflags(write=False)
    return SectorLayout(order, position, sectors,
                        (slice(0, n_even), slice(n_even, 2**n)), flip)


def _coupled_pairs(a: np.ndarray):
    n = a.shape[0]
    return [(i, j, a[i, j]) for i in range(n) for j in range(i + 1, n)
            if a[i, j] != 0.0]


def collective(axis: str, n: int) -> np.ndarray:
    """Total spin component I_axis = sum_i I_axis,i; axis may carry a '-'."""
    sign = 1.0
    if axis.startswith("-"):
        sign, axis = -1.0, axis[1:]
    if axis not in ("x", "y", "z"):
        raise ValueError(f"unknown axis {axis!r}")
    states, z = _basis(n)
    out = np.zeros((2**n, 2**n), complex)
    if axis == "z":
        out[states, states] = z.sum(axis=0)
    else:
        for i in range(n):
            # on site i, <b ^ m|I_x|b> = 1/2 and <b ^ m|I_y|b> = i I_z(b)
            _flips(out, _mask(i, n), states,
                   0.5 if axis == "x" else 1j * z[i])
    return sign * out


def secular_dipolar(cluster_or_matrix) -> np.ndarray:
    """H' = sum_{i<j} a_ij [ I_zi I_zj - 1/4 (I+i I-j + I-i I+j) ]."""
    a = couplings_of(cluster_or_matrix)
    n = a.shape[0]
    states, z = _basis(n)
    h = np.zeros((2**n, 2**n), complex)
    diag = np.zeros(2**n)
    for i, j, aij in _coupled_pairs(a):
        diag += aij * (z[i] * z[j])
        # the flip-flop term only connects antiparallel spins i, j
        _flips(h, _mask(i, n) | _mask(j, n), states[z[i] != z[j]],
               -0.25 * aij)
    h[states, states] = diag
    return h


def nonsecular_pair_raising(cluster_or_matrix):
    """Double-quantum operators (H2, H-2, P).

    H2 = sum_{i<j} a_ij I+i I+j, H-2 = H2^dagger, P = H2 + H-2.
    """
    a = couplings_of(cluster_or_matrix)
    n = a.shape[0]
    states, z = _basis(n)
    h2 = np.zeros((2**n, 2**n), complex)
    for i, j, aij in _coupled_pairs(a):
        # raises both spins: only states with i and j down
        _flips(h2, _mask(i, n) | _mask(j, n),
               states[(z[i] < 0) & (z[j] < 0)], aij)
    hm2 = h2.conj().T
    return h2, hm2, h2 + hm2


def operator_q(cluster_or_matrix) -> np.ndarray:
    """Single-quantum part Q = sum_{i<j} a_ij [I_zi (I+j + I-j) + (i <-> j)]."""
    a = couplings_of(cluster_or_matrix)
    n = a.shape[0]
    states, z = _basis(n)
    q = np.zeros((2**n, 2**n), complex)
    for i, j, aij in _coupled_pairs(a):
        # I+ + I- flips one spin; I_z of the other is the same on both sides
        _flips(q, _mask(j, n), states, aij * z[i])
        _flips(q, _mask(i, n), states, aij * z[j])
    return q


def _site_rotation(axis: str, angle: float) -> np.ndarray:
    """Single-site factor exp(-i * angle * S_axis); axis may carry a '-'."""
    sign = 1.0
    if axis.startswith("-"):
        sign, axis = -1.0, axis[1:]
    if axis not in ("x", "y", "z"):
        raise ValueError(f"unknown axis {axis!r}")
    theta = sign * angle
    return (np.cos(theta / 2.0) * np.eye(2, dtype=complex)
            - 2.0j * np.sin(theta / 2.0) * _S[axis])


# site indices per product in rotate: a 16x16 factor keeps each of the 2n/4
# steps one BLAS product; on 2 cores it beat 1, 2, 3 and 5 sites at n = 7..11
_FACTOR_SITES = 4


def rotate(op: np.ndarray, axis: str, angle: float) -> np.ndarray:
    """Conjugate: R op R^dagger with R = exp(-i * angle * I_axis).

    R is the kron of n copies of the site factor u, so op, read as a tensor
    of n row and n column site indices, gets u on every row index and u* on
    every column index. Each product takes the leading _FACTOR_SITES
    indices (u kron u ... as one small factor) and moves them to the back,
    so after all of them the index order is restored: O(n 4^n), with no
    dense R.
    """
    n = int(round(np.log2(op.shape[0])))
    if 2**n != op.shape[0]:
        raise ValueError("operator dimension is not a power of 2")
    u1 = _site_rotation(axis, angle)
    factors = [reduce(np.kron, [u1] * min(_FACTOR_SITES, n - k))
               for k in range(0, n, _FACTOR_SITES)]
    out = np.asarray(op, complex)
    for f in factors + [f.conj() for f in factors]:
        out = out.reshape(f.shape[0], -1).T @ f.T
    return out.reshape(op.shape)


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
    return a @ b - b @ a


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
    the two Hermitian pieces under keys 'double_quantum' and 'cross'.
    """
    if omega1 <= 0:
        raise ValueError("omega1 must be positive")
    a = couplings_of(cluster_or_matrix)
    hd = secular_dipolar(a)
    h2, hm2, _ = nonsecular_pair_raising(a)
    part_dq = (3.0 / 8.0) ** 2 * commutator(h2, hm2) / (2.0 * omega1)
    part_cross = (3.0 / 16.0) * commutator(hd, hm2 - h2) / (2.0 * omega1)
    h1 = part_dq + part_cross
    return h1, {"double_quantum": part_dq, "cross": part_cross}


def h1_magnitude_proxy(m2: float, omega1: float) -> float:
    """Scalar size estimate M2 / (2 omega1) for the first-order correction."""
    if omega1 <= 0:
        raise ValueError("omega1 must be positive")
    return float(m2) / (2.0 * omega1)
