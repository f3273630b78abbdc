"""Traced entry point for one magicecho CLI job.

    python3 -X importtime perfbench/tracer.py SUMMARY.json CLI-ARGS...

Runs ``magicecho.cli.main(CLI-ARGS)`` with every public function of each
magicecho module wrapped, plus ``numpy.linalg.eigh``. A wrapper is bound at
every module attribute that holds the function and in module-level dicts
(``experiments`` imports ``evolve`` by name, ``cli`` imports the lattice
functions by name, and ``experiments._SEQUENCE_AMPLITUDES`` holds the
sweep operations), so each call is seen whichever name it is reached by.
Private helpers are not wrapped; their time counts toward the public
function that called them.

Each call records its layer (module), name, start, end and parent span.
Spans stay in memory; at exit they are folded into per-layer self times and
counts, written to SUMMARY.json. A layer's self time is the time its spans
cover minus the time covered by their child spans. The ``-X importtime``
report on stderr gives each module's own import time, which the benchmark
adds to the layer's self time.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import json
import os
import sys
import time
from collections import Counter

LAYERS = ("lattice", "operators", "engine", "pulseprog", "experiments",
          "thermo", "output", "cli")
KERNEL_BUILDERS = ("gaussian_kernel_for_orientation", "microscopic_kernel")
AMPLITUDE_FUNCTIONS = ("sequence1_amplitude", "sequence2_amplitude")


def _couplings_digest(obj) -> str:
    import numpy as np
    a = np.ascontiguousarray(getattr(obj, "couplings", obj), dtype=float)
    return hashlib.sha1(a.tobytes() + repr(a.shape).encode()).hexdigest()


def _array_bytes(obj) -> int:
    if hasattr(obj, "nbytes") and hasattr(obj, "shape"):
        return int(obj.nbytes)
    if isinstance(obj, (tuple, list)):
        return sum(_array_bytes(x) for x in obj)
    if isinstance(obj, dict):
        return sum(_array_bytes(x) for x in obj.values())
    return 0


class Tracer:
    """Span recorder plus the counters that are read at layer boundaries."""

    def __init__(self):
        self.spans = []      # [layer, name, start, end, parent index]
        self.stack = []
        self.counts = Counter()
        self.max_dim = 0
        self._seen = set()

    def wrap(self, layer: str, name: str, fn):
        note = getattr(self, f"_note_{layer}", None)
        takes_cluster = (layer == "operators" and next(
            iter(inspect.signature(fn).parameters), "") == "cluster_or_matrix")

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self.stack[-1] if self.stack else -1
            span = [layer, name, 0.0, 0.0, parent]
            self.stack.append(len(self.spans))
            self.spans.append(span)
            span[2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                self.stack.pop()
            entry = parent < 0 or self.spans[parent][0] != layer
            if note is not None:
                note(name, entry, args, result, takes_cluster)
            return result

        return traced

    def _repeat(self, key, counter: str) -> None:
        self.counts[counter + "_builds"] += 1
        if key in self._seen:
            self.counts[counter + "_repeats"] += 1
        self._seen.add(key)

    # counters, called after each wrapped call returns

    def _note_operators(self, name, entry, args, result, takes_cluster):
        if not entry:
            return
        self.counts["operators.calls"] += 1
        self.counts["operators.matrix_bytes"] += _array_bytes(result)
        if takes_cluster and args:
            self._repeat(("operators", name, _couplings_digest(args[0]),
                          repr(args[1:])), "operators")

    def _note_engine(self, name, entry, args, result, takes_cluster):
        if name == "evolve":
            self.counts["engine.evolve_calls"] += 1
            self.counts["engine.acquire_samples"] += sum(
                len(curve.values) for curve in result[1])
            self.max_dim = max(self.max_dim, args[0].delta.shape[0])
        elif name == "build_hamiltonian":
            self._repeat(("hamiltonian", args[0], _couplings_digest(args[1])),
                         "hamiltonian")

    def _note_linalg(self, name, entry, args, result, takes_cluster):
        self.counts["linalg.eigh_calls"] += 1

    def _note_thermo(self, name, entry, args, result, takes_cluster):
        if name == "solve_beta":
            self.counts["thermo.solves"] += 1
            self.counts["thermo.passes"] += result.refinements + 1
            self.counts["thermo.grid_points"] += len(result.times)

    def _note_output(self, name, entry, args, result, takes_cluster):
        if not entry:
            return
        if name in ("emit_csv", "write_csv"):
            self.counts["output.rows"] += result
            path = args[1] if name == "emit_csv" else args[0]
            self.counts["output.bytes"] += os.path.getsize(path)
        elif name == "write_manifest":
            self.counts["output.bytes"] += os.path.getsize(result)

    def _note_pulseprog(self, name, entry, args, result, takes_cluster):
        if entry:
            self.counts["pulseprog.calls"] += 1

    def _note_experiments(self, name, entry, args, result, takes_cluster):
        if name in AMPLITUDE_FUNCTIONS:
            self.counts["experiments.points"] += 1

    def _note_lattice(self, name, entry, args, result, takes_cluster):
        if entry:
            self.counts["lattice.calls"] += 1

    def summary(self) -> dict:
        """Per-layer self seconds, kernel seconds and counters of this job."""
        child = [0.0] * len(self.spans)
        for layer, name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_s = dict.fromkeys((*LAYERS, "linalg"), 0.0)
        kernel_s = 0.0
        for k, (layer, name, start, end, parent) in enumerate(self.spans):
            self_s[layer] += (end - start) - child[k]
            if name in KERNEL_BUILDERS:
                kernel_s += end - start
        return {"self_s": self_s, "kernel_s": kernel_s,
                "max_dim": self.max_dim, "spans": len(self.spans),
                "counts": dict(self.counts)}


def install(tracer: Tracer):
    """Wrap the public functions and rebind them everywhere they are bound.

    Returns the magicecho.cli module, whose ``main`` is now traced.
    """
    import numpy as np
    import magicecho

    # __import__, not importlib.import_module: only the former goes
    # through the import path that -X importtime reports on
    modules = {}
    for layer in LAYERS:
        __import__(f"magicecho.{layer}")
        modules[layer] = sys.modules[f"magicecho.{layer}"]
    wrapped = {}
    for layer, mod in modules.items():
        for attr, obj in vars(mod).items():
            if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                    and not attr.startswith("_")):
                wrapped[obj] = tracer.wrap(layer, attr, obj)
    eigh = np.linalg.eigh
    wrapped[eigh] = tracer.wrap("linalg", "eigh", eigh)
    np.linalg.eigh = wrapped[eigh]

    def traced_version(obj):
        try:
            return wrapped.get(obj)
        except TypeError:   # unhashable attribute values
            return None

    for mod in (magicecho, *modules.values()):
        for attr, obj in list(vars(mod).items()):
            if isinstance(obj, dict):
                for key, value in list(obj.items()):
                    if traced_version(value) is not None:
                        obj[key] = traced_version(value)
            elif traced_version(obj) is not None:
                setattr(mod, attr, traced_version(obj))
    return modules["cli"]


def main(argv: list[str]) -> int:
    summary_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    cli = install(tracer)
    try:
        code = cli.main(cli_args)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    finally:
        with open(summary_path, "w") as fh:
            json.dump(tracer.summary(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
