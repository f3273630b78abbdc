"""Command-line frontend.

Subcommands: lattice-info (cluster geometry and moments), run (compile and
execute a pulse program, or sweep echo amplitude vs burst length), thermo
(memory-kernel inverse-temperature model), dump-operator (matrix elements
as CSV), verify (fast invariant suite).

Times on the command line and in files are microseconds; half-cycle counts
parameterize burst lengths. Exit codes: 0 success, 1 numerical failure
(non-convergence, invariant violation), 2 configuration error. Each
result is one CSV, written by output.write_csv to --out (with a JSON
manifest beside it) or to stdout, the same bytes either way.

A config file (--config) holds key=value lines named after the long flags.
Each line is read as the flag --key=value (a switch as true/false) placed
before the command-line flags, so the file may supply any flag, required
ones included, and a flag given on the command line wins over it.

Every job, ``--version`` included, loads numpy and this module's core:
output, lattice and errors. Each subcommand's handler imports the rest
it runs, so a Gaussian ``thermo`` job compiles neither the engine nor the
operators, and ``run`` never loads the thermo solver.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
import time

import numpy as np

from . import __version__, output
from .errors import TOLERANCES, ConvergenceError, InvariantViolation
from .memory import check_fits
from .lattice import (BULK_SUM_RADIUS, DEFAULT_AMPLITUDE_GAUSS,
                      DEFAULT_HALFCYCLES, DEFAULT_KERNEL_SAMPLES,
                      DEFAULT_M_RATIO, DEFAULT_N, DEFAULT_OFFSET_US,
                      DEFAULT_STEP_US, DEFAULT_WINDOW_US, GAMMA_F19,
                      build_cluster, bulk_local_field_gauss,
                      bulk_second_moment, local_field, second_moment)


# ----------------------------------------------------------- plumbing

def _eigensystems():
    """The engine's decomposition cache, or None if the engine is not loaded
    (a job that never loads it decomposes nothing)."""
    engine = sys.modules.get(f"{__package__}.engine")
    return None if engine is None else engine.EIGENSYSTEMS


def _resolved_config(args) -> dict:
    # "out" is recorded separately as the manifest's output field
    skip = {"handler", "subcommand", "out"}
    return {k: v for k, v in sorted(vars(args).items()) if k not in skip}


def _finish(args, t_start, columns, meta, cluster=None, extra=None) -> int:
    """Write the CSV to --out or stdout, and a manifest next to a file."""
    out = getattr(args, "out", None)
    rows = output.write_csv(out or sys.stdout, columns, meta)
    if out:
        cache = _eigensystems()
        output.write_manifest(out, {
            "artifact_version": __version__,
            "command": args.subcommand,
            "config": _resolved_config(args),
            "cluster_hash": getattr(cluster, "hash_hex", None),
            "rows": rows,
            "output": os.path.basename(out),
            "tolerances": TOLERANCES,
            "eigendecompositions": {
                "computed": 0 if cache is None else cache.computed,
                "reused": 0 if cache is None else cache.reused},
            **(extra or {}),
            "wall_time_s": time.perf_counter() - t_start,
        })
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


def _omega1(args) -> float:
    """GAMMA_F19 times --omega1-gauss, refused by name when the half-cycle
    pi/omega1 overflows; a field that is not positive is left to the
    'omega1 must be positive' checks downstream."""
    omega1 = GAMMA_F19 * args.omega1_gauss
    if omega1 > 0 and not np.pi / omega1 < np.inf:
        raise ValueError(f"--omega1-gauss {args.omega1_gauss} gives a "
                         f"non-finite half-cycle pi/omega1")
    return omega1


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
    points = (stop - start) / step + 1.0
    if not points < np.inf:
        raise ValueError(f"--t1-grid {text!r} has too many points to count")
    # each point is held as Python floats and arrays several times over
    # (requested, executed, amplitude, the CSV columns and metadata), about
    # 200 bytes in all
    check_fits(f"--t1-grid {text!r}", 256 * points)
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


def _curve_csv(curve, x: str, y: str):
    """(columns, meta) of a signal curve: its times in microseconds as
    column ``x``, its values as ``y``, and its label and metadata."""
    meta = {"label": curve.label or "signal", "observable": curve.observable,
            "start_us": output.CSV_FLOAT_FORMAT % (curve.start * 1e6)}
    meta.update({str(k): str(v) for k, v in curve.meta.items()})
    return {x: curve.times * 1e6, y: curve.values}, meta


def _cmd_run(args) -> int:
    from . import engine, experiments, pulseprog

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
        _resolve(args, omega1_gauss=DEFAULT_AMPLITUDE_GAUSS,
                 halfcycles=DEFAULT_HALFCYCLES, window_us=DEFAULT_WINDOW_US,
                 step_us=DEFAULT_STEP_US)
        _omega1(args)
        program = pulseprog.builtin(
            name, args.omega1_gauss, args.halfcycles, args.window_us,
            args.step_us)
    else:
        _reject(args, "applies to a single builtin run only", "halfcycles")
        counts = _parse_t1_grid(args.t1_grid)
        window, step = experiments.acquisition_grid(cluster, *(
            None if us is None else us * 1e-6
            for us in (args.window_us, args.step_us)))
        _resolve(args, omega1_gauss=DEFAULT_AMPLITUDE_GAUSS,
                 window_us=window * 1e6, step_us=step * 1e6)
        omega1 = _omega1(args)
        curve = experiments.sweep_t1(
            name, cluster, omega1, engine.halfcycle_duration(omega1, counts),
            ideal_reversal=args.ideal, window=window, step=step)
        return _finish(args, t0, *_curve_csv(curve, "t1_us", "amplitude"),
                       cluster=cluster)
    curve = experiments.run_program(program, cluster, args.ideal,
                                    sequence=source)
    return _finish(args, t0, *_curve_csv(curve, "time_us", "value"),
                   cluster=cluster)


def _parse_cluster_spec(spec: str):
    parts = spec.split(":")
    if len(parts) not in (2, 3):
        raise ValueError(f"cluster spec {spec!r} must be "
                         f"ORIENTATION:RADIUS[:MAX_SITES]")
    return build_cluster(parts[0], radius=float(parts[1]),
                         max_sites=int(parts[2]) if len(parts) == 3 else None)


def _cmd_thermo(args) -> int:
    from . import thermo

    t0 = time.perf_counter()
    if not 0 <= args.offset_us < np.inf:
        raise ValueError("--offset-us must be nonnegative and finite")
    cluster = None
    if args.kernel_from_cluster:
        _reject(args, "applies to the Gaussian kernel only",
                "orientation", "n", "m_ratio")
        _resolve(args, kernel_samples=DEFAULT_KERNEL_SAMPLES)
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
        # a kernel job peaked at 49-52 traced bytes per lag sample
        check_fits(f"--kernel-samples {args.kernel_samples}",
                   160 * args.kernel_samples)
        tau = np.linspace(0.0, tau_max, args.kernel_samples)
        kernel = thermo.microscopic_kernel(cluster, tau,
                                           offset=args.offset_us * 1e-6)
    else:
        _reject(args, "needs --kernel-from-cluster", "kernel_tau_us",
                "kernel_samples")
        if not args.orientation:
            raise ValueError("--orientation or --kernel-from-cluster "
                             "is required")
        _resolve(args, n=DEFAULT_N, m_ratio=DEFAULT_M_RATIO)
        kernel = thermo.gaussian_kernel_for_orientation(
            args.orientation, args.n, args.m_ratio,
            offset=args.offset_us * 1e-6)
    traj = thermo.solve_beta(kernel, args.t_end_us * 1e-6,
                             args.step_us * 1e-6)
    if args.divergence:
        # the unitary ideal-reversal prediction is flat at the ideal
        # amplitude 1; the memory-kernel model, 1 * beta, decays. Emit both.
        meta = {"ideal_amplitude": output.CSV_FLOAT_FORMAT % 1.0,
                "macroscopic": "True", "method": traj.method,
                "label": "divergence"}
        columns = {"t1_us": traj.times * 1e6,
                   "model_amplitude": traj.beta,
                   "ideal_amplitude": np.ones_like(traj.beta)}
    else:
        meta = {"method": traj.method,
                "step_us": output.CSV_FLOAT_FORMAT % (traj.step * 1e6),
                "converged": str(traj.converged),
                "refinements": str(traj.refinements)}
        meta.update({str(k): str(v) for k, v in traj.meta.items()})
        columns = {"t1_us": traj.times * 1e6, "beta": traj.beta}
    # record which kernel produced this trajectory
    meta["kernel"] = kernel.kind
    meta.update({str(k): str(v) for k, v in kernel.meta.items()})
    history = {"passes": traj.refinements + 1, "grid_points": len(traj.times),
               "drift_per_halving": list(traj.drift_history)}
    return _finish(args, t0, columns=columns, meta=meta, cluster=cluster,
                   extra={"thermo": history})


_OPERATOR_BUILDERS = {   # (operators module, couplings, omega1) -> matrix
    "ix": lambda ops, a, w1: ops.collective("x", a.shape[0]),
    "iy": lambda ops, a, w1: ops.collective("y", a.shape[0]),
    "iz": lambda ops, a, w1: ops.collective("z", a.shape[0]),
    "hd": lambda ops, a, w1: ops.secular_dipolar(a),
    "h2": lambda ops, a, w1: ops.nonsecular_pair_raising(a)[0],
    "hm2": lambda ops, a, w1: ops.nonsecular_pair_raising(a)[1],
    "p": lambda ops, a, w1: ops.nonsecular_pair_raising(a)[2],
    "q": lambda ops, a, w1: ops.operator_q(a),
    "h1": lambda ops, a, w1: ops.magnus_first_correction(a, w1)[0],
}


def _cmd_dump_operator(args) -> int:
    from . import operators

    t0 = time.perf_counter()
    cluster = _cluster_from_args(args)
    omega1 = None
    if args.name == "h1":
        _resolve(args, omega1_gauss=DEFAULT_AMPLITUDE_GAUSS)
        omega1 = GAMMA_F19 * args.omega1_gauss
        # H1 carries 1/(2 omega1): refuse an overflowing one before dividing
        if omega1 > 0 and not 0.5 / omega1 < np.inf:
            raise ValueError(f"--omega1-gauss {args.omega1_gauss} gives H1 "
                             f"non-finite entries")
    else:
        _reject(args, "applies to --name h1 only", "omega1_gauss")
    # H1's commutator entries over 2 omega1 can overflow where 1/(2 omega1)
    # does not; the finiteness check below names the flag instead
    with np.errstate(over="ignore"):
        matrix = _OPERATOR_BUILDERS[args.name](operators, cluster.couplings,
                                               omega1)
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

def _cmd_verify(args) -> int:
    from . import verify
    return verify.run(args.seed)


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
                        f"{DEFAULT_AMPLITUDE_GAUSS})")
    p.add_argument("--halfcycles", type=int, default=None,
                   help=f"total burst half-cycles (default "
                        f"{DEFAULT_HALFCYCLES}; single runs only)")
    p.add_argument("--t1-grid", metavar="A:B:Chc",
                   help="sweep burst lengths over half-cycle counts "
                        "START:STOP:STEP (e.g. 2:40:2hc) instead of "
                        "emitting one signal")
    p.add_argument("--ideal", action="store_true",
                   help="replace bursts with the exact reversed evolution")
    p.add_argument("--window-us", type=float, default=None,
                   help=f"acquisition window (default "
                        f"{DEFAULT_WINDOW_US}, sweeps 5/omega_L)")
    p.add_argument("--step-us", type=float, default=None,
                   help=f"acquisition step (default "
                        f"{DEFAULT_STEP_US}, sweeps 0.02/omega_L)")
    p.add_argument("--out", help="write CSV here (default: stdout)")

    p = sub("thermo", _cmd_thermo,
            help="memory-kernel model for the inverse spin temperature")
    p.add_argument("--orientation", default=None,
                   help="field orientation with tabulated second moment")
    p.add_argument("--n", type=float, default=None,
                   help=f"kernel amplitude factor (default {DEFAULT_N})")
    p.add_argument("--m-ratio", type=float, default=None,
                   help=f"kernel curvature as a fraction of M2 "
                        f"(default {DEFAULT_M_RATIO})")
    p.add_argument("--offset-us", type=float, default=DEFAULT_OFFSET_US,
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
                        f"{DEFAULT_KERNEL_SAMPLES})")
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
                        f"{DEFAULT_AMPLITUDE_GAUSS})")
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
    cache = _eigensystems()
    if cache is not None:
        cache.clear()
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
