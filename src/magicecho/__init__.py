"""Exact density-matrix laboratory for dipolar time-reversal echoes.

Small clusters of dipolar-coupled spin-1/2 nuclei on a simple cubic lattice,
evolved exactly, with a pulse-program DSL for burst sequences, average
Hamiltonian cross-checks, and a memory-kernel model for the inverse spin
temperature.
"""

__version__ = "0.1.0"

from .engine import (
    DeviationState,
    SignalCurve,
    evolve,
    initial_state,
    verify_average_hamiltonian,
)
from .errors import ConvergenceError, InvariantViolation
from .experiments import (
    DecayEstimate,
    decay_time,
    fid,
    rpw_magic_echo,
    sequence1_amplitude,
    sequence2_amplitude,
    sweep_t1,
)
from .lattice import (
    Orientation,
    SpinCluster,
    build_cluster,
    bulk_second_moment,
    coupling,
    local_field,
    second_moment,
)
from .pulseprog import PulseProgram, builtin_program, parse, print_program
from .thermo import (
    BetaTrajectory,
    KernelSpec,
    gaussian_kernel_for_orientation,
    microscopic_kernel,
    solve_beta,
)

__all__ = [
    "BetaTrajectory",
    "ConvergenceError",
    "DecayEstimate",
    "DeviationState",
    "InvariantViolation",
    "KernelSpec",
    "Orientation",
    "PulseProgram",
    "SignalCurve",
    "SpinCluster",
    "build_cluster",
    "builtin_program",
    "bulk_second_moment",
    "coupling",
    "decay_time",
    "evolve",
    "fid",
    "gaussian_kernel_for_orientation",
    "initial_state",
    "local_field",
    "microscopic_kernel",
    "parse",
    "print_program",
    "rpw_magic_echo",
    "second_moment",
    "sequence1_amplitude",
    "sequence2_amplitude",
    "solve_beta",
    "sweep_t1",
    "verify_average_hamiltonian",
    "__version__",
]
