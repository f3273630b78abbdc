"""Exact density-matrix laboratory for dipolar time-reversal echoes.

Small clusters of dipolar-coupled spin-1/2 nuclei on a simple cubic lattice,
evolved exactly, with a pulse-program DSL for burst sequences, average
Hamiltonian cross-checks, and a memory-kernel model for the inverse spin
temperature.

The public names below resolve on first access (PEP 562), so
``import magicecho`` loads no submodule and each command loads only the
modules it runs.
"""

__version__ = "0.1.0"

_EXPORTS = {
    "engine": ("DeviationState", "SignalCurve", "evolve", "initial_state",
               "verify_average_hamiltonian"),
    "errors": ("ConvergenceError", "InvariantViolation"),
    "experiments": ("DecayEstimate", "decay_time", "fid", "rpw_magic_echo",
                    "sequence1_amplitude", "sequence2_amplitude", "sweep_t1"),
    "lattice": ("Orientation", "SpinCluster", "build_cluster",
                "bulk_second_moment", "coupling", "local_field",
                "second_moment"),
    "pulseprog": ("PulseProgram", "builtin_program", "parse", "print_program"),
    "thermo": ("BetaTrajectory", "KernelSpec",
               "gaussian_kernel_for_orientation", "microscopic_kernel",
               "solve_beta"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME) + ["__version__"]


def __getattr__(name):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # __import__ rather than importlib, so -X importtime reports the load
    value = getattr(__import__(f"{__name__}.{module}", fromlist=[name]), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
