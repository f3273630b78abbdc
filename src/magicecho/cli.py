"""Command-line frontend.

Subcommands: lattice-info (cluster geometry and moments), run (compile and
execute a pulse program, or sweep echo amplitude vs burst length), thermo
(memory-kernel inverse-temperature model), dump-operator (matrix elements
as CSV), verify (fast invariant suite).

Times on the command line and in files are microseconds; half-cycle counts
parameterize burst lengths. Exit codes: 0 success, 1 numerical failure
(non-convergence, invariant violation), 2 configuration error.

A config file (--config) holds key=value lines named after the long flags.
Each line is read as the flag --key=value (a switch as true/false) placed
before the command-line flags, so the file may supply any flag, required
ones included, and a flag given on the command line wins over it.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
import time

import numpy as np

from . import __version__, engine, experiments, operators as ops
from . import output, pulseprog, thermo
from .errors import ConvergenceError, InvariantViolation
from .lattice import (BULK_SUM_RADIUS, GAMMA_F19, build_cluster,
                      bulk_local_field_gauss, bulk_second_moment, local_field,
                      second_moment)

TOLERANCES = {
    "hermiticity": engine.HERMITICITY_TOL,
    "segment_drift": engine.SEGMENT_DRIFT_TOL,
    "signal_imaginary": engine.SIGNAL_IMAG_TOL,
    "thermo_step": thermo.STEP_TOL,
}


# ----------------------------------------------------------- plumbing

def _resolved_config(args) -> dict:
    # "out" is recorded separately as the manifest's output field
    skip = {"handler", "subcommand", "out"}
    return {k: v for k, v in sorted(vars(args).items()) if k not in skip}


def _finish(args, t_start, columns, meta, cluster=None, extra=None) -> int:
    """Emit the result to --out or stdout, plus a manifest for files."""
    out = getattr(args, "out", None)
    if out:
        rows = output.write_csv(out, columns, meta)
        manifest = {
            "artifact_version": __version__,
            "command": args.subcommand,
            "config": _resolved_config(args),
            "cluster_hash": getattr(cluster, "hash_hex", None),
            "rows": rows,
            "output": os.path.basename(out),
            "tolerances": TOLERANCES,
            "eigendecompositions": {"computed": engine.EIGENSYSTEMS.computed,
                                    "reused": engine.EIGENSYSTEMS.reused},
            **(extra or {}),
            "wall_time_s": time.perf_counter() - t_start,
        }
        output.write_manifest(out, manifest)
    else:
        sys.stdout.write(output.csv_text(columns, meta))
    return 0


def _resolve(args, **defaults) -> None:
    """Give each unset flag its default; the manifest records what ran."""
    for dest, value in defaults.items():
        if getattr(args, dest) is None:
            setattr(args, dest, value)


def _reject(args, reason, *dests) -> None:
    """Refuse the first of these flags that was given, not ignore it."""
    for dest in dests:
        if getattr(args, dest) is not None:
            raise ValueError(f"--{dest.replace('_', '-')} {reason}")


def _cluster_from_args(args):
    return build_cluster(args.orientation, args.radius, args.max_sites)


def _add_cluster_flags(p, radius=1.0, max_sites=None):
    p.add_argument("--orientation", default="100",
                   help="field orientation: 100, 110, 111, or x,y,z "
                        "(default %(default)s)")
    p.add_argument("--radius", type=float, default=radius,
                   help="lattice ball radius in units of the spacing "
                        "(default %(default)s)")
    p.add_argument("--max-sites", type=int, default=max_sites,
                   help="truncate the cluster to this many sites "
                        "(default %(default)s)")


def _parse_t1_grid(text: str) -> np.ndarray:
    """START:STOP:STEP in half-cycle counts, e.g. 2:40:2hc."""
    s = text.strip().lower()
    if s.endswith("hc"):
        s = s[:-2]
    parts = s.split(":")
    if len(parts) != 3:
        raise ValueError(f"--t1-grid {text!r} must be START:STOP:STEP "
                         f"half-cycle counts, e.g. 2:40:2hc")
    start, stop, step = (float(p) for p in parts)
    if not (0 <= start <= stop < np.inf and 0 < step < np.inf):
        raise ValueError(f"--t1-grid {text!r} must have finite "
                         f"0 <= START <= STOP and STEP > 0")
    return np.arange(start, stop + 0.5 * step, step)


# --------------------------------------------------------- subcommands

def _cmd_lattice_info(args) -> int:
    t0 = time.perf_counter()
    cluster = _cluster_from_args(args)
    # small shells can sit exactly at the magic angle for one orientation,
    # so the headline anisotropy ratio uses at least the calibration radius
    r_ratio = max(args.radius, BULK_SUM_RADIUS)
    ratio = (bulk_second_moment("100", r_ratio)
             / bulk_second_moment("111", r_ratio))
    fmt = output.CSV_FLOAT_FORMAT
    meta = {
        "orientation": cluster.orientation.label,
        "radius": fmt % args.radius,
        "n_sites": str(cluster.n_sites),
        "cluster_hash": cluster.hash_hex,
        "m2_cluster": fmt % second_moment(cluster),
        "m2_bulk": fmt % bulk_second_moment(cluster.orientation, args.radius),
        "local_field_cluster_gauss":
            fmt % (local_field(cluster) / GAMMA_F19),
        "local_field_bulk_gauss":
            fmt % bulk_local_field_gauss(cluster.orientation, args.radius),
        "m2_ratio_100_111": fmt % ratio,
    }
    pos = cluster.positions
    columns = {"site": np.arange(len(pos), dtype=float),
               "x": pos[:, 0], "y": pos[:, 1], "z": pos[:, 2]}
    return _finish(args, t0, columns=columns, meta=meta, cluster=cluster)


def _cmd_run(args) -> int:
    t0 = time.perf_counter()
    source = args.sequence
    if not source:
        raise ValueError("a pulse program is required: a .pp file path or "
                         "builtin:{seq1,seq2,rpw}")
    cluster = _cluster_from_args(args)
    name = source[len("builtin:"):] if source.startswith("builtin:") else None
    if name is None:   # the file's statements set burst and acquisition
        _reject(args, "applies to builtin programs only", "omega1_gauss",
                "halfcycles", "t1_grid", "window_us", "step_us")
        with open(source, "r") as fh:
            program = pulseprog.parse(fh.read())
    elif args.t1_grid is None:
        _resolve(args, omega1_gauss=pulseprog.DEFAULT_AMPLITUDE_GAUSS,
                 halfcycles=pulseprog.DEFAULT_HALFCYCLES,
                 window_us=pulseprog.DEFAULT_WINDOW_US,
                 step_us=pulseprog.DEFAULT_STEP_US)
        program = pulseprog.builtin(
            name, args.omega1_gauss, args.halfcycles, args.window_us,
            args.step_us)
    else:
        _reject(args, "applies to a single builtin run only", "halfcycles")
        counts = _parse_t1_grid(args.t1_grid)
        window, step = experiments.acquisition_grid(cluster, *(
            None if us is None else us * 1e-6
            for us in (args.window_us, args.step_us)))
        _resolve(args, omega1_gauss=pulseprog.DEFAULT_AMPLITUDE_GAUSS,
                 window_us=window * 1e6, step_us=step * 1e6)
        omega1 = GAMMA_F19 * args.omega1_gauss
        curve = experiments.sweep_t1(
            name, cluster, omega1, engine.halfcycle_duration(omega1, counts),
            ideal_reversal=args.ideal, window=window, step=step)
        return _finish(args, t0, *output.object_columns(curve),
                       cluster=cluster)
    curve = experiments.run_program(program, cluster, args.ideal,
                                    sequence=source)
    return _finish(args, t0, *output.object_columns(curve), cluster=cluster)


def _parse_cluster_spec(spec: str):
    parts = spec.split(":")
    if len(parts) not in (2, 3):
        raise ValueError(f"cluster spec {spec!r} must be "
                         f"ORIENTATION:RADIUS[:MAX_SITES]")
    return build_cluster(parts[0], radius=float(parts[1]),
                         max_sites=int(parts[2]) if len(parts) == 3 else None)


def _cmd_thermo(args) -> int:
    t0 = time.perf_counter()
    if not 0 <= args.offset_us < np.inf:
        raise ValueError("--offset-us must be nonnegative and finite")
    cluster = None
    if args.kernel_from_cluster:
        _reject(args, "applies to the Gaussian kernel only",
                "orientation", "n", "m_ratio")
        _resolve(args, kernel_samples=thermo.DEFAULT_KERNEL_SAMPLES)
        if args.kernel_samples < 2:
            raise ValueError("--kernel-samples must be at least 2")
        if (args.kernel_tau_us is not None
                and not 0 < args.kernel_tau_us < np.inf):
            raise ValueError("--kernel-tau-us must be positive and finite")
        cluster = _parse_cluster_spec(args.kernel_from_cluster)
        tau_max = (6.0 / np.sqrt(second_moment(cluster))
                   if args.kernel_tau_us is None
                   else args.kernel_tau_us * 1e-6)
        _resolve(args, kernel_tau_us=tau_max * 1e6)
        tau = np.linspace(0.0, tau_max, args.kernel_samples)
        kernel = thermo.microscopic_kernel(cluster, tau,
                                           offset=args.offset_us * 1e-6)
    else:
        _reject(args, "needs --kernel-from-cluster", "kernel_tau_us",
                "kernel_samples")
        if not args.orientation:
            raise ValueError("--orientation or --kernel-from-cluster "
                             "is required")
        _resolve(args, n=thermo.DEFAULT_N, m_ratio=thermo.DEFAULT_M_RATIO)
        kernel = thermo.gaussian_kernel_for_orientation(
            args.orientation, args.n, args.m_ratio,
            offset=args.offset_us * 1e-6)
    traj = thermo.solve_beta(kernel, args.t_end_us * 1e-6,
                             args.step_us * 1e-6)
    if args.divergence:
        # the unitary ideal-reversal prediction is flat at the ideal
        # amplitude; the memory-kernel model decays. Emit both.
        model = thermo.amplitude_curve(traj)
        meta = {"ideal_amplitude": output.CSV_FLOAT_FORMAT % 1.0,
                "macroscopic": "True", "method": traj.method,
                "label": "divergence"}
        columns = {"t1_us": traj.times * 1e6,
                   "model_amplitude": model.values,
                   "ideal_amplitude": np.ones_like(model.values)}
    else:
        columns, meta = output.object_columns(traj)
    # record which kernel produced this trajectory
    meta["kernel"] = kernel.kind
    meta.update({str(k): str(v) for k, v in kernel.meta.items()})
    history = {"passes": traj.refinements + 1, "grid_points": len(traj.times),
               "drift_per_halving": list(traj.drift_history)}
    return _finish(args, t0, columns=columns, meta=meta, cluster=cluster,
                   extra={"thermo": history})


_OPERATOR_BUILDERS = {
    "ix": lambda a, w1: ops.collective("x", a.shape[0]),
    "iy": lambda a, w1: ops.collective("y", a.shape[0]),
    "iz": lambda a, w1: ops.collective("z", a.shape[0]),
    "hd": lambda a, w1: ops.secular_dipolar(a),
    "h2": lambda a, w1: ops.nonsecular_pair_raising(a)[0],
    "hm2": lambda a, w1: ops.nonsecular_pair_raising(a)[1],
    "p": lambda a, w1: ops.nonsecular_pair_raising(a)[2],
    "q": lambda a, w1: ops.operator_q(a),
    "h1": lambda a, w1: ops.magnus_first_correction(a, w1)[0],
}


def _cmd_dump_operator(args) -> int:
    t0 = time.perf_counter()
    cluster = _cluster_from_args(args)
    if args.name == "h1":
        _resolve(args, omega1_gauss=pulseprog.DEFAULT_AMPLITUDE_GAUSS)
    else:
        _reject(args, "applies to --name h1 only", "omega1_gauss")
    omega1 = (None if args.omega1_gauss is None
              else GAMMA_F19 * args.omega1_gauss)
    matrix = _OPERATOR_BUILDERS[args.name](cluster.couplings, omega1)
    # d eps max|M| bounds the rounding of a length-d inner product, so an
    # entry at or below it is the residue of terms that cancel exactly
    size = np.abs(matrix)
    if not np.isfinite(size.max()):   # H1's 1/(2 omega1) overflowed
        raise ValueError(f"--omega1-gauss {args.omega1_gauss} gives H1 "
                         f"non-finite entries")
    rows, cols = np.nonzero(
        size > matrix.shape[0] * np.finfo(float).eps * size.max())
    meta = {"name": args.name, "dim": str(matrix.shape[0]),
            "n_sites": str(cluster.n_sites),
            "orientation": cluster.orientation.label,
            "cluster_hash": cluster.hash_hex}
    if args.name == "h1":
        meta["omega1"] = output.CSV_FLOAT_FORMAT % omega1
    columns = {"row": rows.astype(float), "col": cols.astype(float),
               "re": matrix[rows, cols].real, "im": matrix[rows, cols].imag}
    return _finish(args, t0, columns=columns, meta=meta, cluster=cluster)


# --------------------------------------------------------------- verify

def _check_rotation_unitarity(rng):
    # pulses apply the 2x2 site factor on every site index (ops.rotate)
    op = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    op = op + op.conj().T
    norm = np.linalg.norm(op)
    for axis in "xyz":
        angle = rng.uniform(-np.pi, np.pi)
        u = ops._site_rotation(axis, angle)
        assert np.abs(u @ u.conj().T - np.eye(2)).max() < 1e-12
        turned = ops.rotate(op, axis, angle)
        assert abs(np.linalg.norm(turned) - norm) < 1e-12 * norm
        assert np.abs(turned - turned.conj().T).max() < 1e-12 * norm
        assert np.abs(ops.rotate(turned, axis, -angle) - op).max() \
            < 1e-12 * norm


def _random_couplings(rng, n):
    a = rng.normal(scale=1e4, size=(n, n))
    a = a + a.T
    np.fill_diagonal(a, 0.0)
    return a


def _check_tilt_decomposition(rng):
    for _ in range(20):
        a = _random_couplings(rng, int(rng.integers(2, 6)))
        report = ops.tilt_decompose(a, rng.uniform(0.0, np.pi))
        assert report.residual < 1e-10 * report.reference_norm


def _check_conserved_commutators(rng):
    a = _random_couplings(rng, 4)
    hd = ops.secular_dipolar(a)
    h2, _, _ = ops.nonsecular_pair_raising(a)
    q = ops.operator_q(a)
    iz = ops.collective("z", 4)
    scale = np.abs(hd).max()
    assert np.abs(ops.commutator(hd, iz)).max() < 1e-12 * scale
    assert np.abs(ops.commutator(iz, h2) - 2.0 * h2).max() < 1e-12 * scale
    assert np.abs(ops.commutator(iz, ops.commutator(iz, q))
                  - q).max() < 1e-12 * scale


def _check_pair_fid(rng):
    a0 = 1.0e5
    pair = np.array([[0.0, a0], [a0, 0.0]])
    t = np.linspace(0.0, 3e-4, 31)
    assert np.abs(experiments.fid_values(pair, t)
                  - np.cos(0.75 * a0 * t)).max() < 1e-12


def _check_ideal_rpw(rng):
    cluster = build_cluster("100", radius=1.0, max_sites=4)
    curve = experiments.rpw_magic_echo(cluster, 1.0e6, 1.3e-5,
                                       ideal_reversal=True)
    assert abs(curve.values[0] - 1.0) < 1e-9


def _check_ideal_ratio(rng):
    cluster = build_cluster("100", radius=1.0, max_sites=4)
    a1 = experiments.sequence1_amplitude(cluster, 1.0e6, 1.0e-5,
                                         ideal_reversal=True)
    a2 = experiments.sequence2_amplitude(cluster, 1.0e6, 1.0e-5,
                                         ideal_reversal=True)
    assert abs(a2 / a1 - 2.0) < 1e-9


def _check_magnus_order(rng):
    cluster = build_cluster("100", radius=1.0, max_sites=4)
    report = engine.verify_average_hamiltonian(cluster,
                                               10.0 * local_field(cluster))
    assert report["err1"] < report["err0"]


def _check_reversal_identity(rng):
    a = np.zeros((3, 3))
    u = engine.effective_propagator_a3(a, 1.0e6, 2 * np.pi / 1.0e6)
    assert np.abs(u - np.eye(8)).max() < 1e-9


def _check_thermo_cosine(rng):
    g = (2 * np.pi * 4.0e3) ** 2
    kernel = thermo.KernelSpec("tabulated", times=np.array([0.0, 1.0]),
                               values=np.array([g, g]))
    t_end = 4 * np.pi / np.sqrt(g)
    traj = thermo.solve_beta(kernel, t_end, t_end / 50)
    assert np.abs(traj.beta - np.cos(np.sqrt(g) * traj.times)).max() < 1e-6


def _check_csv_roundtrip(rng):
    import tempfile
    values = rng.normal(size=8)
    times = np.linspace(0.0, 1.0, 8)
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "roundtrip.csv")
        output.write_csv(path, {"t": times, "v": values}, {"k": "v"})
        meta, cols = output.read_csv(path)
        assert meta["k"] == "v"
        assert np.abs(cols["v"] - values).max() < 1e-11 * np.abs(values).max()


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


def _cmd_verify(args) -> int:
    failures = 0
    for name, check in VERIFY_CHECKS:
        rng = np.random.default_rng(args.seed)
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


# ----------------------------------------------------- parser assembly

def build_parser():
    parser = argparse.ArgumentParser(
        prog="magicecho",
        description="Exact density-matrix laboratory for dipolar "
                    "time-reversal echoes in small spin-1/2 clusters.")
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="subcommand", required=True)
    registry = {}

    def sub(name, handler, **kwargs):
        p = subs.add_parser(name, **kwargs)
        p.add_argument("--config", metavar="FILE",
                       help="key=value defaults file; explicit flags win")
        p.set_defaults(handler=handler)
        registry[name] = p
        return p

    p = sub("lattice-info", _cmd_lattice_info,
            help="cluster sites, second moments, local fields")
    _add_cluster_flags(p, radius=2.0)
    p.add_argument("--out", help="write CSV here (default: stdout)")

    p = sub("run", _cmd_run,
            help="run a pulse program, or sweep amplitude vs burst length")
    # one dest for both spellings, the later one winning; the positional's
    # SUPPRESS default keeps an absent positional from clearing --sequence
    p.add_argument("sequence", nargs="?", default=argparse.SUPPRESS,
                   help="pulse program: .pp file or builtin:{seq1,seq2,rpw}")
    p.add_argument("--sequence", metavar="SEQUENCE",
                   help="alternative to the positional argument")
    _add_cluster_flags(p, radius=1.0, max_sites=6)
    p.add_argument("--omega1-gauss", type=float, default=None,
                   help=f"burst field in Gauss (default "
                        f"{pulseprog.DEFAULT_AMPLITUDE_GAUSS})")
    p.add_argument("--halfcycles", type=int, default=None,
                   help=f"total burst half-cycles (default "
                        f"{pulseprog.DEFAULT_HALFCYCLES}; single runs only)")
    p.add_argument("--t1-grid", metavar="A:B:Chc",
                   help="sweep burst lengths over half-cycle counts "
                        "START:STOP:STEP (e.g. 2:40:2hc) instead of "
                        "emitting one signal")
    p.add_argument("--ideal", action="store_true",
                   help="replace bursts with the exact reversed evolution")
    p.add_argument("--window-us", type=float, default=None,
                   help=f"acquisition window (default "
                        f"{pulseprog.DEFAULT_WINDOW_US}, sweeps 5/omega_L)")
    p.add_argument("--step-us", type=float, default=None,
                   help=f"acquisition step (default "
                        f"{pulseprog.DEFAULT_STEP_US}, sweeps 0.02/omega_L)")
    p.add_argument("--out", help="write CSV here (default: stdout)")

    p = sub("thermo", _cmd_thermo,
            help="memory-kernel model for the inverse spin temperature")
    p.add_argument("--orientation", default=None,
                   help="field orientation with tabulated second moment")
    p.add_argument("--n", type=float, default=None,
                   help=f"kernel amplitude factor (default {thermo.DEFAULT_N})")
    p.add_argument("--m-ratio", type=float, default=None,
                   help=f"kernel curvature as a fraction of M2 "
                        f"(default {thermo.DEFAULT_M_RATIO})")
    p.add_argument("--offset-us", type=float, default=80.0,
                   help="onset delay (default %(default)s)")
    p.add_argument("--t-end-us", type=float, required=True,
                   help="trajectory length")
    p.add_argument("--step-us", type=float, default=2.0,
                   help="initial solver step (default %(default)s)")
    p.add_argument("--kernel-from-cluster", metavar="ORIENT:RADIUS[:SITES]",
                   help="compute the kernel microscopically from a cluster")
    p.add_argument("--kernel-tau-us", type=float, default=None,
                   help="microscopic kernel table extent")
    p.add_argument("--kernel-samples", type=int, default=None,
                   help=f"microscopic kernel table size (default "
                        f"{thermo.DEFAULT_KERNEL_SAMPLES})")
    p.add_argument("--divergence", action="store_true",
                   help="also emit the flat ideal-reversal prediction")
    p.add_argument("--out", help="write CSV here (default: stdout)")

    p = sub("dump-operator", _cmd_dump_operator,
            help="matrix elements of a named operator as row,col,re,im")
    p.add_argument("--name", required=True,
                   choices=sorted(_OPERATOR_BUILDERS))
    _add_cluster_flags(p, radius=1.0, max_sites=4)
    p.add_argument("--omega1-gauss", type=float, default=None,
                   help=f"burst field for the h1 correction (default "
                        f"{pulseprog.DEFAULT_AMPLITUDE_GAUSS})")
    p.add_argument("--out", help="write CSV here (default: stdout)")

    p = sub("verify", _cmd_verify, help="run the fast invariant suite")
    p.add_argument("--seed", type=int, default=20260819,
                   help="RNG seed for the randomized properties "
                        "(default %(default)s)")

    return parser, registry


def _splice_config(registry, argv: list) -> list:
    """argv with the --config file's lines as flags right after the subcommand.

    A key=value line becomes --key=value (underscores read as dashes), a
    true switch --key and a false one nothing. argparse then types and
    checks every value, and a flag given on the command line wins because
    it comes later.
    """
    at = next((k for k, tok in enumerate(argv) if tok in registry), None)
    if at is None:
        return argv
    sub = registry[argv[at]]
    path = None
    for tok, value in zip(argv, argv[1:] + [None]):
        if tok == "--config":
            path = value
        elif tok.startswith("--config="):
            path = tok.split("=", 1)[1]
    if path is None:
        return argv
    try:
        with open(path, "r") as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        sub.error(f"cannot read config file: {exc}")
    flags = []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, eq, value = (part.strip() for part in line.partition("="))
        if not eq:
            sub.error(f"{path}:{lineno}: expected key=value, got {line!r}")
        flag = "--" + key.replace("_", "-")
        action = sub._option_string_actions.get(flag)
        if action is None or action.dest in ("help", "config"):
            sub.error(f"{path}:{lineno}: unknown config key {key!r}")
        if action.nargs != 0:
            flags.append(f"{flag}={value}")
        elif value.lower() in ("1", "true", "yes", "on"):
            flags.append(flag)
        elif value.lower() not in ("0", "false", "no", "off"):
            sub.error(f"{path}:{lineno}: switch {key!r} takes "
                      f"true/false, not {value!r}")
    return argv[:at + 1] + flags + argv[at + 1:]


# flags whose values may be comma lists starting with a minus sign
_NEGATIVE_VALUE_FLAGS = ("--orientation", "--kernel-from-cluster")


def _attach_negative_values(argv: list) -> list:
    """Rewrite '--orientation -0.6,0.8,0' as '--orientation=-0.6,0.8,0'.

    argparse reads a token that starts with '-' and is not a plain number
    as an option, so a negative first direction component would leave the
    flag without a value.
    """
    out = []
    for tok in argv:
        if (out and out[-1] in _NEGATIVE_VALUE_FLAGS
                and re.match(r"-\.?\d", tok)):
            out[-1] = f"{out[-1]}={tok}"
        else:
            out.append(tok)
    return out


def main(argv=None) -> int:
    argv = _attach_negative_values(sys.argv[1:] if argv is None else argv)
    parser, registry = build_parser()
    args = parser.parse_args(_splice_config(registry, argv))
    # eigendecomposition counts in the manifest are per job
    engine.EIGENSYSTEMS.clear()
    try:
        return args.handler(args)
    except (ConvergenceError, InvariantViolation) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
