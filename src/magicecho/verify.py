"""The fast invariant suite that ``magicecho verify`` runs.

Each check gets a fresh generator from the same seed and raises on a
violation, naming the measured value and its bound. The checks are
explicit raises, not asserts, so that ``python -O`` keeps them. They
cover the operators, the engine, the experiments, the thermo solver and
the CSV round trip on small operators and clusters.
The suite is a module of its own so that no other command compiles it or
loads what it imports.
"""

from __future__ import annotations

import os

import numpy as np

from . import engine, experiments, operators as ops, output, thermo
from .errors import InvariantViolation
from .lattice import build_cluster, local_field


def _below(what: str, value: float, bound: float) -> None:
    """Raise unless ``value`` is below ``bound`` (a NaN is not)."""
    if not value < bound:
        raise InvariantViolation(f"{what} = {value:.3e}, not below "
                                 f"{bound:.3e}")


def _check_rotation_unitarity(rng):
    # pulses apply the 2x2 site factor on every site index (ops.rotate)
    op = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    op = op + op.conj().T
    norm = np.linalg.norm(op)
    for axis in "xyz":
        angle = rng.uniform(-np.pi, np.pi)
        u = ops._site_rotation(axis, angle)
        _below(f"max |U U^dagger - 1| about {axis}",
               np.abs(u @ u.conj().T - np.eye(2)).max(), 1e-12)
        turned = ops.rotate(op, axis, angle)
        _below(f"| ||R(A)|| - ||A|| | about {axis}",
               abs(np.linalg.norm(turned) - norm), 1e-12 * norm)
        _below(f"max |R(A) - R(A)^dagger| about {axis}",
               np.abs(turned - turned.conj().T).max(), 1e-12 * norm)
        _below(f"max |R^-1(R(A)) - A| about {axis}",
               np.abs(ops.rotate(turned, axis, -angle) - op).max(),
               1e-12 * norm)


def _random_couplings(rng, n):
    a = rng.normal(scale=1e4, size=(n, n))
    a = a + a.T
    np.fill_diagonal(a, 0.0)
    return a


def _check_tilt_decomposition(rng):
    for _ in range(20):
        a = _random_couplings(rng, int(rng.integers(2, 6)))
        report = ops.tilt_decompose(a, rng.uniform(0.0, np.pi))
        _below("tilt residual", report.residual,
               1e-10 * report.reference_norm)


def _check_conserved_commutators(rng):
    a = _random_couplings(rng, 4)
    hd = ops.secular_dipolar(a)
    h2, _, _ = ops.nonsecular_pair_raising(a)
    q = ops.operator_q(a)
    iz = ops.collective("z", 4)
    scale = np.abs(hd).max()
    _below("max |[H', Iz]|", np.abs(ops.commutator(hd, iz)).max(),
           1e-12 * scale)
    _below("max |[Iz, H2] - 2 H2|",
           np.abs(ops.commutator(iz, h2) - 2.0 * h2).max(), 1e-12 * scale)
    _below("max |[Iz, [Iz, Q]] - Q|",
           np.abs(ops.commutator(iz, ops.commutator(iz, q)) - q).max(),
           1e-12 * scale)


def _check_pair_fid(rng):
    a0 = 1.0e5
    pair = np.array([[0.0, a0], [a0, 0.0]])
    t = np.linspace(0.0, 3e-4, 31)
    _below("max |G(t) - cos(3 a t / 4)|",
           np.abs(experiments.fid_values(pair, t)
                  - np.cos(0.75 * a0 * t)).max(), 1e-12)


def _check_ideal_rpw(rng):
    cluster = build_cluster("100", radius=1.0, max_sites=4)
    curve = experiments.rpw_magic_echo(cluster, 1.0e6, 1.3e-5,
                                       ideal_reversal=True)
    _below("|s(0) - 1|", abs(curve.values[0] - 1.0), 1e-9)


def _check_ideal_ratio(rng):
    cluster = build_cluster("100", radius=1.0, max_sites=4)
    a1 = experiments.sequence1_amplitude(cluster, 1.0e6, 1.0e-5,
                                         ideal_reversal=True)
    a2 = experiments.sequence2_amplitude(cluster, 1.0e6, 1.0e-5,
                                         ideal_reversal=True)
    _below("|seq2 / seq1 - 2|", abs(a2 / a1 - 2.0), 1e-9)


def _check_magnus_order(rng):
    cluster = build_cluster("100", radius=1.0, max_sites=4)
    report = engine.verify_average_hamiltonian(cluster,
                                               10.0 * local_field(cluster))
    _below("first-order error err1", report["err1"], report["err0"])


def _check_reversal_identity(rng):
    a = np.zeros((3, 3))
    u = engine.effective_propagator_a3(a, 1.0e6, 2 * np.pi / 1.0e6)
    _below("max |U - 1|", np.abs(u - np.eye(8)).max(), 1e-9)


def _check_thermo_cosine(rng):
    g = (2 * np.pi * 4.0e3) ** 2
    kernel = thermo.KernelSpec("tabulated", times=np.array([0.0, 1.0]),
                               values=np.array([g, g]))
    t_end = 4 * np.pi / np.sqrt(g)
    traj = thermo.solve_beta(kernel, t_end, t_end / 50)
    _below("max |beta - cos(sqrt(g) t)|",
           np.abs(traj.beta - np.cos(np.sqrt(g) * traj.times)).max(), 1e-6)


def _check_csv_roundtrip(rng):
    import tempfile
    values = rng.normal(size=8)
    times = np.linspace(0.0, 1.0, 8)
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "roundtrip.csv")
        output.write_csv(path, {"t": times, "v": values}, {"k": "v"})
        meta, cols = output.read_csv(path)
        if meta["k"] != "v":
            raise InvariantViolation(f"metadata k read back as "
                                     f"{meta['k']!r}, not 'v'")
        _below("max |v read - v written|", np.abs(cols["v"] - values).max(),
               1e-11 * np.abs(values).max())


VERIFY_CHECKS = [
    ("rotation-unitarity", _check_rotation_unitarity),
    ("tilt-decomposition", _check_tilt_decomposition),
    ("conserved-commutators", _check_conserved_commutators),
    ("pair-fid", _check_pair_fid),
    ("ideal-rpw-echo", _check_ideal_rpw),
    ("ideal-amplitude-ratio", _check_ideal_ratio),
    ("magnus-first-order", _check_magnus_order),
    ("reversal-identity", _check_reversal_identity),
    ("thermo-cosine-oracle", _check_thermo_cosine),
    ("csv-roundtrip", _check_csv_roundtrip),
]


def run(seed: int) -> int:
    """Run every check, print one line each and a summary; 1 if any failed."""
    failures = 0
    for name, check in VERIFY_CHECKS:
        rng = np.random.default_rng(seed)
        try:
            check(rng)
        except Exception as exc:  # report every failing check, then exit 1
            failures += 1
            print(f"FAIL {name}: {exc}")
        else:
            print(f"ok {name}")
    if failures:
        print(f"{failures} of {len(VERIFY_CHECKS)} checks failed")
        return 1
    print(f"all {len(VERIFY_CHECKS)} checks passed")
    return 0
