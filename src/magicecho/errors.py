"""Error types shared across the package, and the tolerances that raise them.

Every job's manifest records the tolerances (``TOLERANCES``); they live here,
beside the errors, so that writing a manifest loads neither the engine nor
the thermo solver. Those modules import them under the same names.
"""


class ConvergenceError(RuntimeError):
    """An iterative refinement failed to reach its tolerance."""


class InvariantViolation(RuntimeError):
    """A conserved quantity drifted beyond its tolerance during evolution."""


HERMITICITY_TOL = 1e-10    # ||Delta - Delta^dagger|| / max(1, ||Delta||)
SEGMENT_DRIFT_TOL = 1e-9   # Tr(Delta) and ||Delta|| over each segment
SIGNAL_IMAG_TOL = 1e-12    # |Im s(t)| / sum |m| of each phase-sum sample

# refine until halving the step moves the whole trajectory (max norm, so
# in particular beta(t_end)) by less than this. The criterion is trajectory
# wide because an endpoint-only check is blind to phase error at whole
# oscillation periods; for the order-2 stepper the true error of the finer
# pass is about a third of the measured drift
STEP_TOL = 1e-6

TOLERANCES = {
    "hermiticity": HERMITICITY_TOL,
    "segment_drift": SEGMENT_DRIFT_TOL,
    "signal_imaginary": SIGNAL_IMAG_TOL,
    "thermo_step": STEP_TOL,
}
