"""Simple-cubic spin-1/2 cluster geometry and dipolar coupling tables.

The model lattice is the fluorine sublattice of CaF2: a simple cubic array of
19F nuclei with the static field along a chosen crystal direction. A cluster
is a finite set of lattice points around the origin together with the matrix
of secular dipolar coupling constants

    a_ij = D * (1 - 3 cos^2 theta_ij) / r_ij^3        [rad/s]

where theta_ij is the angle between the internuclear vector and the field.
The model has one material, so its constants are module constants: the
19F gyromagnetic ratio GAMMA_F19, the spacing F19_SPACING, and the single
prefactor D, calibrated so that the converged bulk Van Vleck second moment
for the field along [100] reproduces the tabulated CaF2 value. Every other
orientation then follows from pure lattice sums with no further free
parameter.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache

import numpy as np

from .memory import check_fits

# CPython's builtin SHA-256: hashlib would load OpenSSL's libcrypto, a few
# MB of every job's resident set, for one digest
try:
    from _sha2 import sha256              # CPython 3.12+
except ImportError:
    try:
        from _sha256 import sha256        # CPython 3.10, 3.11
    except ImportError:
        from hashlib import sha256

GAMMA_F19 = 2.5166e4
"""Gyromagnetic ratio of 19F, rad s^-1 G^-1."""

F19_SPACING = 2.7313e-10
"""Nearest-neighbor 19F distance in CaF2 (half the cubic cell edge), meters."""

BULK_SUM_RADIUS = 6.0
"""Default cutoff (in lattice constants) for bulk lattice sums; the 1/r^6
sums are converged to ~0.5% here."""

# Single-crystal CaF2 second moments (s^-2) as tabulated in the solid-state
# NMR literature. [100] calibrates D; the Gaussian memory kernel reads all
# three, and demo 01 reports each computed bulk value next to its reference.
REFERENCE_M2 = {"100": 2.55e10, "110": 0.99e10, "111": 0.50e10}

M2_CALIBRATION_TARGET = REFERENCE_M2["100"]

# Default settings of the standard experiments. pulseprog and thermo take
# theirs from here, and the command line resolves and prints all of them;
# they live here because this module loads with every job, so the parser
# reads them without loading pulseprog or thermo.
DEFAULT_AMPLITUDE_GAUSS, DEFAULT_HALFCYCLES = 25.3, 40   # builtin bursts
DEFAULT_WINDOW_US, DEFAULT_STEP_US = 60.0, 0.5   # builtin acquisition
DEFAULT_N, DEFAULT_M_RATIO = 0.45, 0.25          # Gaussian memory kernel
DEFAULT_OFFSET_US = 80.0                         # memory kernel onset
DEFAULT_KERNEL_SAMPLES = 97   # microscopic kernel table size


_ORIENTATION_DIRECTIONS = {
    "100": (1.0, 0.0, 0.0),
    "110": (1.0, 1.0, 0.0),
    "111": (1.0, 1.0, 1.0),
}


@dataclass(frozen=True)
class Orientation:
    """Static-field direction relative to the cubic axes (unit vector)."""

    direction: tuple[float, float, float]
    label: str = "custom"

    def __post_init__(self):
        n = np.linalg.norm(np.asarray(self.direction, float))
        if not abs(n - 1.0) <= 1e-12:
            raise ValueError(f"orientation {self.direction} must be a finite "
                             f"unit vector")

    @classmethod
    def from_spec(cls, spec) -> "Orientation":
        """Build from '100' | '110' | '111' or a comma-separated triple."""
        if isinstance(spec, Orientation):
            return spec
        text = str(spec).strip()
        if text in _ORIENTATION_DIRECTIONS:
            d = np.asarray(_ORIENTATION_DIRECTIONS[text], float)
            label = text
        else:
            try:
                d = np.asarray([float(x) for x in text.split(",")], float)
            except ValueError:
                raise ValueError(f"cannot parse orientation {spec!r}") from None
            if d.shape != (3,):
                raise ValueError("custom orientation needs three components")
            with np.errstate(over="ignore"):
                norm = np.linalg.norm(d)
            if norm in (0.0, np.inf) and np.isfinite(d).all() and d.any():
                # its squares under- or overflow: rescale the direction
                d = d / np.abs(d).max()
                norm = np.linalg.norm(d)
            if not 0 < norm < np.inf:
                raise ValueError(f"orientation {spec!r} must be a finite "
                                 f"nonzero direction")
            label = "custom"
        d = d / np.linalg.norm(d)
        return cls(direction=tuple(float(x) for x in d), label=label)

    @property
    def unit(self) -> np.ndarray:
        return np.asarray(self.direction, float)


def angular_lattice_sum(orientation, radius=BULK_SUM_RADIUS) -> float:
    """Dimensionless Van Vleck sum S = sum_k (1 - 3 cos^2 theta_k)^2 / n_k^6.

    The sum runs over all nonzero integer lattice vectors with |n| <= radius
    (origin-centered, radius in lattice constants).
    """
    orientation = Orientation.from_spec(orientation)
    pts = _lattice_points(float(radius))
    vecs = pts[1:].astype(float)  # drop the origin
    r2 = (vecs**2).sum(axis=1)
    ct = vecs @ orientation.unit / np.sqrt(r2)
    return float((((1.0 - 3.0 * ct**2) ** 2) / r2**3).sum())


@cache
def calibrated_prefactor() -> float:
    """Prefactor D (rad s^-1 m^3) pinned to the bulk [100] second moment."""
    s100 = angular_lattice_sum("100", BULK_SUM_RADIUS)
    # M2 = (9/16) (D/d^3)^2 S for I = 1/2, pinned to the [100] target.
    return F19_SPACING**3 * np.sqrt(16.0 * M2_CALIBRATION_TARGET / (9.0 * s100))


def coupling(r_vec, field_dir) -> np.ndarray:
    """Secular dipolar couplings a = D (1 - 3 cos^2 theta) / r^3 in rad/s.

    Parameters
    ----------
    r_vec : array-like, shape (..., 3)
        Internuclear vectors in meters, on the last axis.
    field_dir : array-like
        Static-field direction (need not be normalized).
    """
    v = np.asarray(r_vec, float)[..., None, :]
    d = np.asarray(field_dir, float)
    d = d / np.linalg.norm(d)
    # each product is a BLAS dot and each power libm's pow, as a single
    # pair's 1-D `@` and scalar `**` are, so a table keeps its bits
    r = np.sqrt(np.matmul(v, np.swapaxes(v, -1, -2))[..., 0, 0])
    if not (r > 0).all():
        raise ValueError("coincident sites: internuclear distance is zero")
    ct = np.matmul(v, d[:, None])[..., 0, 0] / r
    return (calibrated_prefactor() * (1.0 - 3.0 * np.float_power(ct, 2))
            / np.float_power(r, 3))


@dataclass(frozen=True)
class SpinCluster:
    """A finite cluster of lattice sites with its pairwise coupling table.

    positions are integer lattice coordinates (site 0 is the origin),
    couplings[i, j] is a_ij in rad/s (symmetric, zero diagonal).
    """

    positions: np.ndarray
    orientation: Orientation
    couplings: np.ndarray = field(repr=False)

    @property
    def n_sites(self) -> int:
        return len(self.positions)

    @property
    def hash_hex(self) -> str:
        h = sha256()
        h.update(np.ascontiguousarray(self.positions).tobytes())
        h.update(np.asarray(self.orientation.direction, float).tobytes())
        h.update(np.ascontiguousarray(self.couplings).tobytes())
        return h.hexdigest()[:12]


def _lattice_points(radius: float) -> np.ndarray:
    """Integer lattice points with |n| <= radius, sorted by (|n|^2, lex)."""
    r = int(np.floor(radius + 1e-12))
    # the meshgrid, the stacked grid, its squares and the sort peak at
    # 56-57 traced bytes per grid point (radius 10-30); 64 covers them
    check_fits(f"the lattice points within radius {radius:g}",
               64 * (2 * r + 1) ** 3)
    ax = np.arange(-r, r + 1)
    grid = np.stack(np.meshgrid(ax, ax, ax, indexing="ij"), axis=-1).reshape(-1, 3)
    r2 = (grid**2).sum(axis=1)
    keep = r2 <= radius**2 + 1e-9
    pts = grid[keep]
    r2 = r2[keep]
    # distance first, then lexicographic on (x, y, z) as the deterministic tie-break
    order = np.lexsort((pts[:, 2], pts[:, 1], pts[:, 0], r2))
    return pts[order]


def build_cluster(orientation, radius, max_sites: int | None = None
                  ) -> SpinCluster:
    """Enumerate the cluster around the origin and fill its coupling table.

    Sites are all simple-cubic lattice points within ``radius`` (in lattice
    constants, inclusive) of the origin, ordered by ascending distance with a
    lexicographic tie-break on the integer coordinates, then truncated to
    ``max_sites``.
    """
    if not 0 < radius < np.inf:
        raise ValueError("radius must be positive and finite")
    orientation = Orientation.from_spec(orientation)
    pts = _lattice_points(float(radius))
    if len(pts) < 2:
        raise ValueError(
            f"fewer than 2 sites within radius {radius}: enlarge the radius")
    if max_sites is not None:
        if max_sites < 2:
            raise ValueError("max_sites must be at least 2")
        pts = pts[:max_sites]
    n = len(pts)
    check_fits(f"the coupling table of {n} sites", 8 * n * n)
    a = np.zeros((n, n))
    # one row at a time: all pairs at once would hold index and difference
    # temporaries several times the table's own size
    for i in range(n - 1):
        a[i, i + 1:] = a[i + 1:, i] = coupling(
            (pts[i] - pts[i + 1:]) * F19_SPACING, orientation.unit)
    pts = np.ascontiguousarray(pts)
    pts.setflags(write=False)
    a.setflags(write=False)
    return SpinCluster(positions=pts, orientation=orientation, couplings=a)


def second_moment(cluster) -> float:
    """Van Vleck second moment of a cluster or coupling table, rad^2 s^-2.

    M2 = (3/4) I(I+1) (1/N) sum_{j != k} a_jk^2 with I = 1/2, which equals
    -G''(0) of the cluster free-induction decay exactly.
    """
    a = np.asarray(getattr(cluster, "couplings", cluster), float)
    return float((9.0 / 16.0) * (a**2).sum() / a.shape[0])


def local_field(cluster) -> float:
    """Local-field frequency omega_L = sqrt(M2 / 3), rad/s."""
    return float(np.sqrt(second_moment(cluster) / 3.0))


def bulk_second_moment(orientation, radius: float = BULK_SUM_RADIUS) -> float:
    """Origin-centered bulk Van Vleck second moment, rad^2 s^-2.

    Uses every lattice point within ``radius`` of the origin (no site cap),
    so with the calibrated prefactor the [100] value reproduces the
    calibration target by construction at the calibration radius.
    """
    s = angular_lattice_sum(orientation, radius)
    return float((9.0 / 16.0) * (calibrated_prefactor() / F19_SPACING**3) ** 2
                 * s)


def bulk_local_field_gauss(orientation, radius: float = BULK_SUM_RADIUS
                           ) -> float:
    """Bulk omega_L / gamma in Gauss for the given field direction."""
    m2 = bulk_second_moment(orientation, radius)
    return float(np.sqrt(m2 / 3.0) / GAMMA_F19)
