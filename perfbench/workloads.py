"""Seeded job generators for the three benchmark workloads.

A job is one fresh ``magicecho`` process: an argv (relative paths only; the
child runs in a work directory), the pulse-program files it reads, and
what its CSV must satisfy whatever the seed.

Every workload is a fixed list of slots. A slot fixes what sets the amount
of work (cluster size, sequence, sweep points, acquisition samples, solver
grid); the seed draws the values that do not (field direction, burst field,
burst lengths, delays, kernel shape). The work-setting values that the
seed does vary, t_end and the kernel onset, move by at most 1% of t_end, so
a run's wall time measures the program and not the draw.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

WORKLOADS = ("sweep", "program", "thermo")
DEFAULT_SEED = 1

SWEEP_POINTS = 3
PROGRAM_SAMPLES = 121

# Gaussian-kernel amplitude factor bands, one per tabulated orientation,
# inside which the thermo solver settles after the same number of step
# halvings (6) over the whole t_end and curvature range drawn below.
GAUSSIAN_N_BANDS = {"100": (0.30, 0.40), "110": (0.48, 0.64),
                    "111": (0.68, 0.90)}
# initial solver grids of the Gaussian slots at a step of about 2 us, so
# t_end is about 300, 450 and 600 us and t_end / --step-us is exact
GAUSSIAN_GRIDS = (150, 225, 300)
# (axis, sites, t_end in us) of the microscopic-kernel slots
MICROSCOPIC_SLOTS = (("110", 6, 300.0), ("100", 7, 200.0))


@dataclass(frozen=True)
class Job:
    """One CLI invocation and the checks its output must pass.

    ``expect`` keys: ``rows`` (exact CSV row count), ``flat`` (amplitudes
    equal, for ideal-reversal sweeps), ``t_end_us`` (thermo trajectory
    end), ``step_us`` (thermo initial step), ``divergence`` (thermo output
    carries the model and ideal amplitude columns).
    """

    slot: str
    argv: tuple
    files: dict = field(default_factory=dict)
    expect: dict = field(default_factory=dict)

    @property
    def out(self) -> str:
        return f"{self.slot}.csv"


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"magicecho-bench:{workload}:{seed}")


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def _direction(rng: random.Random) -> str:
    """A random unit vector as 'x,y,z' (components may be negative)."""
    while True:
        v = [rng.gauss(0.0, 1.0) for _ in range(3)]
        norm = math.sqrt(sum(c * c for c in v))
        if norm > 1e-3:
            return ",".join(f"{c / norm:.4f}" for c in v)


def _near_axis(rng: random.Random, label: str) -> str:
    """A direction within a few degrees of a cubic axis, sign drawn at random.

    d and -d give the same couplings, so the sign only changes how the
    flag value is spelled (a leading '-' is the interesting case).
    """
    base = {"100": (1.0, 0.0, 0.0), "110": (1.0, 1.0, 0.0),
            "111": (1.0, 1.0, 1.0)}[label]
    norm = math.sqrt(sum(c * c for c in base))
    sign = rng.choice((-1.0, 1.0))
    v = [sign * c / norm + rng.uniform(-0.02, 0.02) for c in base]
    norm = math.sqrt(sum(c * c for c in v))
    return ",".join(f"{c / norm:.4f}" for c in v)


def sweep_jobs(seed: int) -> list[Job]:
    """seq1/seq2 amplitude-vs-burst-length sweeps on the 7-site cluster."""
    rng = _rng("sweep", seed)
    jobs = []
    for sequence, ideal in (("seq1", False), ("seq2", False),
                            ("seq1", True), ("seq2", True)):
        start = 2 * rng.randint(1, 5)
        step = 2 * rng.randint(1, 3)
        stop = start + (SWEEP_POINTS - 1) * step
        argv = ["run", f"builtin:{sequence}",
                f"--orientation={_direction(rng)}",
                "--radius", "1", "--max-sites", "7",
                "--omega1-gauss", f"{rng.uniform(15.0, 60.0):.2f}",
                "--t1-grid", f"{start}:{stop}:{step}hc"]
        if ideal:
            argv.append("--ideal")
        slot = f"{sequence}-{'ideal' if ideal else 'finite'}"
        argv += ["--out", f"{slot}.csv"]
        jobs.append(Job(slot=slot, argv=tuple(argv),
                        expect={"rows": SWEEP_POINTS, "flat": ideal}))
    return jobs


def _pulse(rng: random.Random) -> str:
    return f"pulse {rng.uniform(5.0, 30.0):.1f} {rng.choice(('x', '-x', 'z'))}\n"


def _program_text(rng: random.Random, init: str) -> str:
    amp = rng.uniform(15.0, 60.0)
    n = rng.randint(4, 20)
    burst = f"burst + {amp:.2f}G {n}hc\nburst - {amp:.2f}G {n}hc\n"
    delay = f"delay {rng.uniform(5.0, 60.0):.2f}us\n"
    step = round(rng.uniform(0.2, 0.6), 3)
    window = (PROGRAM_SAMPLES - 1) * step
    extra = _pulse(rng) if rng.random() < 0.5 else ""
    head = f"# generated program, init {init}\ninit {init}\n"
    if init == "ix":
        body = delay + burst + extra
        observable = "Ix"
    elif init == "dipolar":
        body = "pulse 90 y\n" + burst + delay + "pulse 45 y\n" + extra
        observable = "Iy"
    else:
        body = burst + delay + extra
        observable = "Iy"
    return (head + body
            + f"acquire {observable} for {window:.10g}us step {step}us\n")


def program_jobs(seed: int) -> list[Job]:
    """Pulse-program files on the 8-site radius-2 cluster (d = 256)."""
    rng = _rng("program", seed)
    jobs = []
    for init in ("ix", "dipolar", "seq2"):
        slot = f"pp-{init}"
        text = _program_text(rng, init)
        argv = ("run", f"{slot}.pp", f"--orientation={_direction(rng)}",
                "--radius", "2", "--max-sites", "8", "--out", f"{slot}.csv")
        jobs.append(Job(slot=slot, argv=argv, files={f"{slot}.pp": text},
                        expect={"rows": PROGRAM_SAMPLES}))
    return jobs


def thermo_jobs(seed: int) -> list[Job]:
    """Gaussian and microscopic-kernel memory-equation solves."""
    rng = _rng("thermo", seed)
    jobs = []
    orientations = list(GAUSSIAN_N_BANDS)
    rng.shuffle(orientations)
    divergent = rng.randrange(len(GAUSSIAN_GRIDS))
    for k, (grid, label) in enumerate(zip(GAUSSIAN_GRIDS, orientations)):
        step = round(2.0 * rng.uniform(0.99, 1.01), 4)
        t_end = step * grid
        slot = f"gauss-{2 * grid}"
        argv = ["thermo", "--orientation", label,
                "--n", f"{rng.uniform(*GAUSSIAN_N_BANDS[label]):.4f}",
                "--m-ratio", f"{rng.uniform(0.15, 0.40):.4f}",
                "--offset-us", _fmt(t_end * rng.uniform(0.19, 0.21)),
                "--t-end-us", f"{t_end:.10g}", "--step-us", f"{step:.4f}"]
        if k == divergent:
            argv.append("--divergence")
        argv += ["--out", f"{slot}.csv"]
        jobs.append(Job(slot=slot, argv=tuple(argv),
                        expect={"t_end_us": float(f"{t_end:.10g}"),
                                "step_us": step,
                                "divergence": k == divergent}))
    for label, sites, span in MICROSCOPIC_SLOTS:
        t_end = span * rng.uniform(0.99, 1.01)
        slot = f"micro-{sites}"
        argv = ("thermo",
                f"--kernel-from-cluster={_near_axis(rng, label)}:1:{sites}",
                "--kernel-samples", str(rng.randint(81, 113)),
                "--offset-us", _fmt(t_end * rng.uniform(0.19, 0.21)),
                "--t-end-us", _fmt(t_end), "--step-us", "2",
                "--out", f"{slot}.csv")
        jobs.append(Job(slot=slot, argv=argv,
                        expect={"t_end_us": float(_fmt(t_end)),
                                "step_us": 2.0, "divergence": False}))
    return jobs


GENERATORS = {"sweep": sweep_jobs, "program": program_jobs,
              "thermo": thermo_jobs}


def jobs_for(workload: str, seed: int) -> list[Job]:
    return GENERATORS[workload](seed)
