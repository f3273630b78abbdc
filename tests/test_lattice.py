"""Geometry, coupling table, and lattice-sum checks.

Expected values come from closed-form pair results and from independent
brute-force lattice sums (computed with a separate throwaway script, frozen
here as constants).
"""

import numpy as np
import pytest

from magicecho import lattice, memory
from magicecho.lattice import (
    Orientation,
    SpinCluster,
    angular_lattice_sum,
    build_cluster,
    bulk_second_moment,
    calibrated_prefactor,
    coupling,
    local_field,
    second_moment,
)

# Dimensionless Van Vleck sums S = sum (1 - 3cos^2)^2 / n^6, brute force.
S_FROZEN = {
    ("100", 3.0): 13.228231169,
    ("100", 6.0): 13.341538971,
    ("100", 10.0): 13.353884234,
    ("110", 6.0): 5.047577987,
    ("111", 6.0): 2.282924326,
}


def test_orientation_from_named_spec():
    o = Orientation.from_spec("110")
    assert o.label == "110"
    np.testing.assert_allclose(o.unit, [1 / np.sqrt(2), 1 / np.sqrt(2), 0.0],
                               atol=1e-15)


def test_orientation_from_custom_triple():
    o = Orientation.from_spec("1, 1, 2")
    assert o.label == "custom"
    assert np.linalg.norm(o.unit) == pytest.approx(1.0, abs=1e-14)


def test_orientation_rejects_garbage():
    with pytest.raises(ValueError):
        Orientation.from_spec("12x")
    with pytest.raises(ValueError):
        Orientation.from_spec("0,0,0")
    for spec in ("1,1,inf", "inf,0,0", "nan,1,0"):
        with pytest.raises(ValueError, match="must be a finite nonzero"):
            Orientation.from_spec(spec)
    with pytest.raises(ValueError, match="must be a finite unit vector"):
        Orientation((float("nan"), 0.0, 0.0))


@pytest.mark.parametrize("spec, same_as", [
    ("1e-170,0,0", "1,0,0"),        # the raw norm underflows to 0
    ("1e170,0,0", "1,0,0"),         # the raw norm overflows to inf
    ("1e200,1e200,0", "1,1,0"),
])
def test_extreme_finite_orientation_is_its_direction(spec, same_as):
    got = build_cluster(spec, radius=1.5, max_sites=6)
    want = build_cluster(same_as, radius=1.5, max_sites=6)
    assert got.orientation == want.orientation
    assert got.couplings.tobytes() == want.couplings.tobytes()
    assert got.hash_hex == want.hash_hex


@pytest.mark.parametrize("spec", ["0,0,0", "0,1e-400,0", "1e400,0,0",
                                  "1e300,nan,0", "-inf,1e-170,0"])
def test_zero_or_non_finite_orientation_is_refused(spec):
    with pytest.raises(ValueError, match="must be a finite nonzero"):
        Orientation.from_spec(spec)


def test_coupling_parallel_pair_sign_and_magnitude():
    # Vector along the field: 1 - 3cos^2 = -2, so a = -2 D / r^3.
    d = lattice.F19_SPACING
    a = coupling((d, 0.0, 0.0), (1, 0, 0)) / calibrated_prefactor()
    assert a == pytest.approx(-2.0 / d**3, rel=1e-14)


def test_coupling_magic_angle_vanishes():
    # cos^2 = 1/3 kills the secular coupling.
    v = np.array([1.0, np.sqrt(2.0), 0.0])
    a = coupling(v, (1, 0, 0)) / calibrated_prefactor()
    assert a == pytest.approx(0.0, abs=1e-12)


def test_coupling_rejects_zero_separation():
    with pytest.raises(ValueError):
        coupling((0.0, 0.0, 0.0), (1, 0, 0))
    with pytest.raises(ValueError, match="coincident"):
        coupling([(1.0, 0.0, 0.0), (0.0, 0.0, 0.0)], (1, 0, 0))


def test_coupling_table_matches_per_pair_formula_bitwise():
    # the table is built a row at a time; pair by pair, each coupling is
    # one 1-D dot product and scalar powers, and the rows keep those bits.
    # On these two directions an elementwise square in place of pow, or an
    # einsum in place of the BLAS dot, changes entries
    for spec in ("0.541,0.215,0.355", "1.37,-0.665,0.352"):
        cl = build_cluster(spec, radius=4.0)
        pts, u = cl.positions, cl.orientation.unit
        u = u / np.linalg.norm(u)
        prefactor = calibrated_prefactor()
        a = np.zeros((cl.n_sites, cl.n_sites))
        for i in range(cl.n_sites):
            for j in range(i + 1, cl.n_sites):
                r_vec = (pts[i] - pts[j]) * lattice.F19_SPACING
                r = np.linalg.norm(r_vec)
                ct = float(r_vec @ u) / r
                a[i, j] = a[j, i] = prefactor * (1.0 - 3.0 * ct**2) / r**3
        assert cl.n_sites == 257
        assert np.array_equal(cl.couplings, a), spec


def test_radius_one_cluster_has_seven_sites():
    cl = build_cluster("100", radius=1.0)
    assert cl.n_sites == 7
    assert tuple(cl.positions[0]) == (0, 0, 0)
    # the six unit-distance neighbors, lexicographic within the shell
    assert tuple(cl.positions[1]) == (-1, 0, 0)


def test_max_sites_two_picks_deterministic_pair():
    cl = build_cluster("100", radius=2.0, max_sites=2)
    assert cl.n_sites == 2
    assert tuple(cl.positions[0]) == (0, 0, 0)
    assert tuple(cl.positions[1]) == (-1, 0, 0)


def test_cluster_below_two_sites_raises():
    with pytest.raises(ValueError, match="fewer than 2 sites"):
        build_cluster("100", radius=0.5)


def test_coupling_table_symmetric_zero_diagonal():
    cl = build_cluster("110", radius=1.5, max_sites=6)
    a = cl.couplings
    np.testing.assert_allclose(a, a.T, atol=0.0)
    assert np.all(np.diag(a) == 0.0)
    assert a.shape == (6, 6)


def test_cluster_build_is_deterministic():
    c1 = build_cluster("111", radius=2.0, max_sites=8)
    c2 = build_cluster("111", radius=2.0, max_sites=8)
    assert np.array_equal(c1.positions, c2.positions)
    assert np.array_equal(c1.couplings, c2.couplings)
    assert c1.hash_hex == c2.hash_hex
    c3 = build_cluster("100", radius=2.0, max_sites=8)
    assert c3.hash_hex != c1.hash_hex


def test_cluster_hash_is_sha256_of_its_arrays():
    import hashlib

    c = build_cluster("111", radius=2.0, max_sites=8)
    digest = hashlib.sha256(
        np.ascontiguousarray(c.positions).tobytes()
        + np.asarray(c.orientation.direction, float).tobytes()
        + np.ascontiguousarray(c.couplings).tobytes()).hexdigest()
    assert c.hash_hex == digest[:12]


def test_pair_second_moment_closed_form():
    # Isolated pair with coupling a: M2 = (9/16) a^2, omega_L = sqrt(3) a / 4.
    cl = build_cluster("100", radius=1.0, max_sites=2)
    a = cl.couplings[0, 1]
    assert second_moment(cl) == pytest.approx((9.0 / 16.0) * a**2, rel=1e-12)
    assert local_field(cl) == pytest.approx(np.sqrt(3.0) * abs(a) / 4.0, rel=1e-12)


def test_angular_sums_match_frozen_brute_force():
    for (label, radius), expected in S_FROZEN.items():
        s = angular_lattice_sum(label, radius)
        assert s == pytest.approx(expected, rel=1e-8), (label, radius)


def test_calibration_reproduces_target_by_construction():
    m2 = bulk_second_moment("100")
    assert m2 == pytest.approx(lattice.M2_CALIBRATION_TARGET, rel=1e-12)


def test_calibrated_prefactor_scale():
    # D/d^3 = sqrt(16 M2 / (9 S100)) ~ 1.46e5 rad/s at the default radius.
    d3 = calibrated_prefactor() / lattice.F19_SPACING**3
    expected = np.sqrt(16.0 * 2.55e10 / (9.0 * 13.341538971))
    assert d3 == pytest.approx(expected, rel=1e-8)


def test_bulk_m2_other_orientations_against_reference():
    # Pure lattice-sum predictions land within a few percent of the
    # tabulated single-crystal values once [100] is pinned.
    m110 = bulk_second_moment("110")
    m111 = bulk_second_moment("111")
    assert m110 == pytest.approx(0.99e10, rel=0.15)
    assert m111 == pytest.approx(0.50e10, rel=0.15)


def local_field_trace(cluster: SpinCluster, hd: np.ndarray) -> float:
    """omega_L from the trace route sqrt(Tr(H'^2) / Tr(Iz^2)).

    Agrees with :func:`local_field` identically; kept as an independent
    cross-check route. ``hd`` is the secular dipolar matrix of the cluster.
    """
    n = cluster.n_sites
    tr_iz2 = n * 2.0 ** (n - 2)
    tr_h2 = float(np.trace(hd @ hd).real)
    return float(np.sqrt(tr_h2 / tr_iz2))


def test_local_field_trace_route_agrees():
    from magicecho.operators import secular_dipolar

    cl = build_cluster("110", radius=1.5, max_sites=5)
    hd = secular_dipolar(cl)
    assert local_field_trace(cl, hd) == pytest.approx(
        local_field(cl), rel=1e-12)


def test_lattice_refuses_what_does_not_fit(monkeypatch):
    # both estimates are read before anything is allocated: with 1 MiB
    # available, the radius-400 grid (801^3 points) and the 925-site table
    # of radius 6 are refused, while the radius-6 grid (13^3 points) and
    # a table cut to 8 sites fit
    monkeypatch.setattr(memory, "available_bytes", lambda: 2**20)
    message = r" would allocate an estimated \d+ MiB, but only 1 MiB"
    with pytest.raises(ValueError, match="points within radius 400" + message):
        build_cluster("100", radius=400.0, max_sites=4)
    with pytest.raises(ValueError, match="table of 925 sites" + message):
        build_cluster("100", radius=6.0)
    assert build_cluster("100", radius=6.0, max_sites=8).n_sites == 8
