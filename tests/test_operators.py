"""Operator algebra checks against closed-form pair results.

The isolated two-spin cluster is solvable by hand, which pins most of the
expected values here. Random symmetric coupling tables (seeded) cover the
identities that must hold for any cluster.
"""

from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from magicecho import operators as ops
from magicecho.lattice import build_cluster, second_moment


def random_couplings(rng, n):
    a = rng.normal(size=(n, n))
    a = a + a.T
    np.fill_diagonal(a, 0.0)
    return a


def eig_expm(h, t):
    """Independent matrix exponential exp(-i h t) via eigendecomposition."""
    w, v = np.linalg.eigh(h)
    return (v * np.exp(-1j * w * t)) @ v.conj().T


@pytest.fixture
def pair():
    """Coupling table for an isolated pair with a = 1 rad/s."""
    return np.array([[0.0, 1.0], [1.0, 0.0]])


def site_op(key: str, site: int, n: int) -> np.ndarray:
    """op on one site, identity elsewhere (site 0 = most significant)."""
    if key not in _KRON_S:
        raise ValueError(f"unknown single-site operator {key!r}")
    if not 0 <= site < n:
        raise ValueError("site index out of range")
    out = np.array([[1.0 + 0.0j]])
    for k in range(n):
        out = np.kron(out, _KRON_S[key] if k == site else np.eye(2, dtype=complex))
    return out


def test_site_ordering_convention():
    # site 0 is the most significant qubit, index 0 is spin-up
    z0 = site_op("z", 0, 2)
    np.testing.assert_allclose(np.diag(z0).real, [0.5, 0.5, -0.5, -0.5])
    z1 = site_op("z", 1, 2)
    np.testing.assert_allclose(np.diag(z1).real, [0.5, -0.5, 0.5, -0.5])


def test_collective_commutation():
    n = 3
    ix, iy, iz = (ops.collective(a, n) for a in "xyz")
    np.testing.assert_allclose(ops.commutator(ix, iy), 1j * iz, atol=1e-14)
    np.testing.assert_allclose(ops.collective("-x", n), -ix, atol=0.0)


def test_pair_dipolar_spectrum(pair):
    # eigenvalues of H' for a pair with coupling a: {a/4, a/4, 0, -a/2}
    hd = ops.secular_dipolar(pair)
    w = np.sort(np.linalg.eigvalsh(hd))
    np.testing.assert_allclose(w, [-0.5, 0.0, 0.25, 0.25], atol=1e-14)


def test_pair_trace_identities(pair):
    hd = ops.secular_dipolar(pair)
    # Tr(H'^2) = (3/8) a^2 for a pair; Tr(Iz^2) = N 2^(N-2)
    assert np.trace(hd @ hd).real == pytest.approx(3.0 / 8.0, rel=1e-14)
    iz = ops.collective("z", 2)
    assert np.trace(iz @ iz).real == pytest.approx(2.0, rel=1e-14)


def test_double_quantum_structure(pair):
    h2, hm2, p = ops.nonsecular_pair_raising(pair)
    np.testing.assert_allclose(hm2, h2.conj().T, atol=0.0)
    np.testing.assert_allclose(p, p.conj().T, atol=0.0)
    # for a pair, H2 = a |uu><dd| exactly
    expected = np.zeros((4, 4), complex)
    expected[0, 3] = 1.0
    np.testing.assert_allclose(h2, expected, atol=1e-14)


def test_q_hermitian_traceless():
    rng = np.random.default_rng(7)
    a = random_couplings(rng, 4)
    q = ops.operator_q(a)
    np.testing.assert_allclose(q, q.conj().T, atol=1e-13)
    assert abs(np.trace(q)) < 1e-13


def rotation(axis: str, angle: float, n: int) -> np.ndarray:
    """Collective rotation exp(-i * angle * I_axis) as a kron of 2x2 blocks."""
    return reduce(np.kron, [ops._site_rotation(axis, angle)] * n)


def test_rotation_matches_eigendecomposition():
    rng = np.random.default_rng(11)
    for axis in ("x", "y", "z"):
        for angle in rng.uniform(-np.pi, np.pi, size=3):
            r = rotation(axis, angle, 3)
            ref = eig_expm(ops.collective(axis, 3), angle)
            np.testing.assert_allclose(r, ref, atol=1e-13)
            np.testing.assert_allclose(r @ r.conj().T, np.eye(8), atol=1e-13)


def test_rotate_conjugates():
    n = 2
    iz = ops.collective("z", n)
    ix = ops.collective("x", n)
    # exp(-i (pi/2) Iy) Iz exp(+i (pi/2) Iy) = +Ix
    np.testing.assert_allclose(ops.rotate(iz, "y", np.pi / 2), ix, atol=1e-14)


def test_tilt_decomposition_coefficients():
    rng = np.random.default_rng(3)
    a = random_couplings(rng, 4)
    for theta in (np.pi / 6, np.pi / 4, 1.0):
        rep = ops.tilt_decompose(a, theta)
        c, s = np.cos(theta), np.sin(theta)
        assert rep.coeff_hd == pytest.approx(0.5 * (3 * c**2 - 1), abs=1e-12)
        assert rep.coeff_p == pytest.approx((3.0 / 8.0) * s**2, abs=1e-12)
        assert rep.coeff_q == pytest.approx(-(3.0 / 4.0) * s * c, abs=1e-12)
        assert rep.residual < 1e-12 * rep.reference_norm


def test_tilt_at_45_degrees():
    # the coefficients the time-reversal sequences are built on
    pairtab = np.array([[0.0, 2.0], [2.0, 0.0]])
    rep = ops.tilt_decompose(pairtab, np.pi / 4)
    assert rep.coeff_hd == pytest.approx(0.25, abs=1e-13)
    assert rep.coeff_p == pytest.approx(3.0 / 16.0, abs=1e-13)
    assert rep.coeff_q == pytest.approx(-3.0 / 8.0, abs=1e-13)


def test_magnus_first_correction_hermitian():
    rng = np.random.default_rng(19)
    a = random_couplings(rng, 4)
    h1, parts = ops.magnus_first_correction(a, omega1=50.0)
    for m in (h1, parts["double_quantum"], parts["cross"]):
        np.testing.assert_allclose(m, m.conj().T, atol=1e-12)


def test_magnus_pair_closed_form(pair):
    # for an isolated pair [H', H2] = 0, so only the double-quantum part
    # survives: H1 = (9/64) a^2 / (2 omega1) * (|uu><uu| - |dd><dd|)
    omega1 = 10.0
    h1, parts = ops.magnus_first_correction(pair, omega1)
    assert np.linalg.norm(parts["cross"]) < 1e-14
    expected = np.zeros((4, 4), complex)
    expected[0, 0] = (9.0 / 64.0) / (2.0 * omega1)
    expected[3, 3] = -expected[0, 0]
    np.testing.assert_allclose(h1, expected, atol=1e-15)


def test_h1_proxy():
    assert ops.h1_magnitude_proxy(2.0e10, 1.0e5) == pytest.approx(1.0e5)
    with pytest.raises(ValueError):
        ops.h1_magnitude_proxy(1.0, 0.0)


def second_moment_trace(cluster_or_matrix) -> float:
    """M2 = Tr([H', I_x]^dagger [H', I_x]) / Tr(I_x^2), the trace route.

    Equals the pair-sum Van Vleck formula exactly for any coupling table;
    used as a cross-check against :func:`magicecho.lattice.second_moment`.
    """
    a = ops.couplings_of(cluster_or_matrix)
    n = a.shape[0]
    hd = ops.secular_dipolar(a)
    ix = ops.collective("x", n)
    c = ops.commutator(hd, ix)
    return float(np.trace(c.conj().T @ c).real / np.trace(ix @ ix).real)


def test_trace_second_moment_equals_pair_sum():
    rng = np.random.default_rng(23)
    for n in (2, 3, 5):
        a = random_couplings(rng, n)
        m2_pairs = (9.0 / 16.0) * (a**2).sum() / n
        assert second_moment_trace(a) == pytest.approx(m2_pairs, rel=1e-12)


def test_trace_second_moment_on_cluster():
    cl = build_cluster("100", radius=1.0, max_sites=5)
    assert second_moment_trace(cl) == pytest.approx(second_moment(cl),
                                                        rel=1e-12)


def test_site_cap_enforced():
    a = np.zeros((13, 13))
    with pytest.raises(ValueError, match="MAX_SITES"):
        ops.secular_dipolar(a)


def test_asymmetric_table_rejected():
    a = np.array([[0.0, 1.0], [2.0, 0.0]])
    with pytest.raises(ValueError, match="symmetric"):
        ops.secular_dipolar(a)


# ------------------------------------------------- kron oracle for builders

_KRON_S = {
    "x": np.array([[0.0, 0.5], [0.5, 0.0]], complex),
    "y": np.array([[0.0, -0.5j], [0.5j, 0.0]], complex),
    "z": np.array([[0.5, 0.0], [0.0, -0.5]], complex),
    "p": np.array([[0.0, 1.0], [0.0, 0.0]], complex),
    "m": np.array([[0.0, 0.0], [1.0, 0.0]], complex),
}


def _kron_site(key, site, n):
    out = np.ones((1, 1), complex)
    for k in range(n):
        out = np.kron(out, _KRON_S[key] if k == site else np.eye(2))
    return out


def _kron_oracle(a):
    """H', H2, Q and I_x,y,z from dense products of kron site operators."""
    n = a.shape[0]
    s = {key: [_kron_site(key, i, n) for i in range(n)] for key in _KRON_S}
    dim = 2**n
    hd, h2, q = (np.zeros((dim, dim), complex) for _ in range(3))
    for i in range(n):
        for j in range(i + 1, n):
            hd += a[i, j] * (s["z"][i] @ s["z"][j]
                             - 0.25 * (s["p"][i] @ s["m"][j]
                                       + s["m"][i] @ s["p"][j]))
            h2 += a[i, j] * (s["p"][i] @ s["p"][j])
            q += a[i, j] * (s["z"][i] @ (s["p"][j] + s["m"][j])
                            + s["z"][j] @ (s["p"][i] + s["m"][i]))
    return {"hd": hd, "h2": h2, "q": q,
            **{axis: sum(s[axis]) for axis in "xyz"}}


@st.composite
def coupling_tables(draw):
    """Symmetric tables, n = 2..7, with some pairs uncoupled."""
    n = draw(st.integers(2, 7))
    value = st.one_of(st.just(0.0),
                      st.floats(-1e5, 1e5, allow_nan=False, width=64))
    upper = draw(st.lists(value, min_size=n * (n - 1) // 2,
                          max_size=n * (n - 1) // 2))
    a = np.zeros((n, n))
    a[np.triu_indices(n, 1)] = upper
    return a + a.T


@settings(max_examples=40, deadline=None)
@given(coupling_tables())
def test_bit_pattern_builders_match_kron_oracle(a):
    n = a.shape[0]
    ref = _kron_oracle(a)
    atol = 1e-13 * max(1.0, np.abs(a).max())
    h2, hm2, p = ops.nonsecular_pair_raising(a)
    built = {"hd": ops.secular_dipolar(a), "h2": h2, "q": ops.operator_q(a),
             **{axis: ops.collective(axis, n) for axis in "xyz"}}
    for name, matrix in built.items():
        np.testing.assert_allclose(matrix, ref[name], rtol=0, atol=atol,
                                   err_msg=name)
    np.testing.assert_allclose(hm2, ref["h2"].conj().T, rtol=0, atol=atol)
    np.testing.assert_allclose(p, ref["h2"] + ref["h2"].conj().T, rtol=0,
                               atol=atol)


@settings(max_examples=30, deadline=None)
@given(coupling_tables())
def test_sector_blocks_tile_the_sorted_dense_operators(a):
    n = a.shape[0]
    layout = ops.sector_layout(n)
    sectors = layout.sectors
    for k, s in enumerate(sectors):
        assert all(bin(int(b)).count("1") == k for b in layout.order[s])
    atol = 1e-13 * max(1.0, np.abs(a).max())
    coeffs = {"hd": 0.7, "p": -0.3, "q": 1.1, "iz": 2.0}
    dense = layout.sort(ops.operator_sum(a, **coeffs)
                        + 0.4 * ops.collective("x", n))
    assert not np.any(dense.imag)
    for rows in sectors + layout.parities:
        for cols in sectors + layout.parities:
            np.testing.assert_allclose(
                ops.sector_block(a, rows, cols, ix=0.4, **coeffs),
                dense[rows, cols].real, rtol=0, atol=atol)
    for axis in ("x", "-y", "z"):
        tiled = np.zeros_like(dense)
        for r, c, coeff, f in ops.collective_blocks(axis, n):
            tiled[sectors[r], sectors[c]] += coeff * f
        np.testing.assert_array_equal(tiled,
                                      layout.sort(ops.collective(axis, n)))
    for i in range(n):
        for j in range(i + 1, n):
            one_pair = np.zeros((n, n))
            one_pair[i, j] = one_pair[j, i] = 1.0
            built = np.zeros_like(dense)
            built[ops.pair_raising_positions(i, j, n)] = 1.0
            np.testing.assert_array_equal(
                built, layout.sort(ops.nonsecular_pair_raising(one_pair)[0]))


@settings(max_examples=20, deadline=None)
@given(coupling_tables())
def test_sorted_builds_and_in_place_permutations(a):
    # the sorted-basis builds are the sorted product-basis operators, and
    # rotate_sorted turns op itself into the sorted product-basis rotation
    n = a.shape[0]
    layout = ops.sector_layout(n)
    coeffs = {"hd": 0.7, "p": -0.3, "q": 1.1, "iz": 2.0}
    product = ops.operator_sum(a, **coeffs)
    np.testing.assert_array_equal(
        ops.operator_sum(a, sorted_basis=True, **coeffs), layout.sort(product))
    np.testing.assert_array_equal(ops.operator_sum(a, ix=-1.0,
                                                   sorted_basis=True),
                                  layout.sort(ops.collective("-x", n)))
    op = layout.sort(product)
    assert ops.rotate_sorted(op, "x", 0.4) is op
    np.testing.assert_array_equal(op,
                                  layout.sort(ops.rotate(product, "x", 0.4)))


@pytest.mark.parametrize("n", range(1, 10))
def test_rotations_match_the_dense_conjugation(n):
    # rotate and rotate_sorted share one slab kernel, so each is checked
    # against R op R^dagger with R the kron of site factors: n below
    # _FACTOR_SITES and not a multiple of it, one slab (d <= _SLAB_WIDTH)
    # and several
    rng = np.random.default_rng(100 + n)
    d = 2**n
    layout = ops.sector_layout(n)
    general = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    for op in (general + general.conj().T, general):
        atol = 1e-14 * np.linalg.norm(op)
        for axis in ("x", "y", "z", "-x", "-y", "-z"):
            angle = rng.uniform(-np.pi, np.pi)
            r = rotation(axis, angle, n)
            want = r @ op @ r.conj().T
            np.testing.assert_allclose(ops.rotate(op, axis, angle), want,
                                       rtol=0, atol=atol)
            got = layout.sort(op)
            assert ops.rotate_sorted(got, axis, angle) is got
            np.testing.assert_allclose(got, layout.sort(want), rtol=0,
                                       atol=atol)


def test_rotate_sorted_allocates_no_second_operator():
    # a pulse works through two slabs of _SLAB_WIDTH rows or columns; at
    # n = 10 they are a sixteenth of a dense operator (a d x d work buffer
    # was one)
    import tracemalloc

    n = 10
    rng = np.random.default_rng(5)
    op = rng.normal(size=(2**n, 2**n)) + 1j * rng.normal(size=(2**n, 2**n))
    ops.sector_layout(n)
    tracemalloc.start()
    try:
        ops.rotate_sorted(op, "y", 0.3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.1 * 16 * 4**n


def test_rotate_sorted_refuses_a_real_or_fortran_array():
    # either would be rotated as a copy, and the caller's array would keep
    # the unrotated operator
    op = ops.sector_layout(3).sort(ops.operator_sum(np.ones((3, 3)), hd=1.0,
                                                    ix=0.5))
    for bad in (op.real.copy(), np.asfortranarray(op)):
        before = bad.copy()
        with pytest.raises(ValueError, match="complex C-contiguous"):
            ops.rotate_sorted(bad, "y", 0.3)
        np.testing.assert_array_equal(bad, before)
