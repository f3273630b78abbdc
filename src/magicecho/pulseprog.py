"""Line-oriented pulse-program DSL: parsing, printing, compilation.

Grammar (one statement per line, '#' starts a comment):

    init    ("dipolar" | "ix" | "seq2")
    pulse   NUMBER["deg"] AXIS            AXIS: x y z -x -y -z, angle in degrees
    burst   ("+"|"-") NUMBER"G" NUMBER("us"|"hc")
    delay   NUMBER"us"
    acquire ("Ix"|"Iy"|"Iz") "for" NUMBER"us" "step" NUMBER"us"

The first statement is the program's one init. Burst amplitudes are in
Gauss; half-cycle ("hc") durations must be positive integers and are
converted at compile time to n * pi / omega1 with omega1 = GAMMA_F19 * B1
(the one nucleus the model has), so compiled burst durations are exact
integer multiples of the half-cycle.

A program is its init kind plus its other statements. Pulse, delay and
acquire statements parse straight into the engine's own segments,
:class:`~magicecho.engine.Pulse`, :class:`~magicecho.engine.Evolve` under
H' and :class:`~magicecho.engine.Acquire`. Compilation lowers only
bursts: each becomes an evolution under the tilted-rotating-frame burst
Hamiltonian (or its infinite-field limit -H'/2 when ideal reversal is
requested), and every other statement passes through as it is. No
statement is absorbed or reordered; the standard programs compose to the
intended sequences because a 90-degree y pulse maps dipolar order exactly
onto the burst frame's reversed Hamiltonian plus the double-quantum part.

The standard sequences seq1, seq2 and rpw are spelled out once, as
statements, in :func:`sequence`; single runs, sweeps and the experiments
module all compile those statements, and :func:`builtin_program` prints
them.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace

import numpy as np

from . import engine
from .lattice import (DEFAULT_AMPLITUDE_GAUSS, DEFAULT_HALFCYCLES,
                      DEFAULT_STEP_US, DEFAULT_WINDOW_US, GAMMA_F19)


class ParseError(ValueError):
    """Syntax or structure error, carrying 1-based line and column."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


class CompileError(ValueError):
    """A parsed program that cannot be lowered to engine segments."""


@dataclass(frozen=True)
class Burst:
    sign: int
    amplitude_gauss: float
    seconds: float | None = None
    halfcycles: int | None = None

    def __post_init__(self):
        if (self.seconds is None) == (self.halfcycles is None):
            raise ValueError("burst needs exactly one of seconds/halfcycles")


@dataclass(frozen=True)
class PulseProgram:
    """A start kind of engine.INITIAL_STATES and the statements run from
    it: engine Pulse, Evolve and Acquire segments, and Bursts."""

    init_kind: str
    statements: tuple


_NUM = r"(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?"
_NUM_UNIT_RE = re.compile(rf"({_NUM})([A-Za-z]*)\Z")
_AXES = ("x", "y", "z", "-x", "-y", "-z")
_OBSERVABLES = {"Ix": "x", "Iy": "y", "Iz": "z"}
_DIPOLAR = engine.HamiltonianSpec("dipolar")


class _Tokens:
    def __init__(self, line_text: str, lineno: int):
        self.lineno = lineno
        self.items = [(m.group(), m.start() + 1)
                      for m in re.finditer(r"\S+", line_text)]
        self.pos = 0
        self.end_col = len(line_text.rstrip()) + 1

    def next(self, what: str):
        if self.pos >= len(self.items):
            raise ParseError(f"expected {what} but the line ended",
                             self.lineno, self.end_col)
        tok, col = self.items[self.pos]
        self.pos += 1
        return tok, col

    def done(self):
        if self.pos < len(self.items):
            tok, col = self.items[self.pos]
            raise ParseError(f"unexpected trailing token {tok!r}",
                             self.lineno, col)

    def number(self, what: str, units: tuple = ("",)):
        tok, col = self.next(what)
        m = _NUM_UNIT_RE.match(tok)
        if not m or m.group(2) not in units:
            shown = "/".join(u or "<none>" for u in units)
            raise ParseError(
                f"expected {what} (number with unit {shown}), got {tok!r}",
                self.lineno, col)
        return float(m.group(1)), m.group(2), col

    def keyword(self, choices: tuple, what: str):
        tok, col = self.next(what)
        if tok not in choices:
            raise ParseError(f"expected {what}, got {tok!r}", self.lineno, col)
        return tok, col


def _positive(value, what, lineno, col):
    if not 0 < value < np.inf:
        raise ParseError(f"{what} must be positive and finite", lineno, col)
    return value


def _parse_statement(toks: _Tokens):
    """The statement on one line; an init is its kind, a str."""
    head, col = toks.next("a statement keyword")
    line = toks.lineno
    if head == "init":
        kind, _ = toks.keyword(engine.INITIAL_STATES, "an initial state kind")
        toks.done()
        return kind
    if head == "pulse":
        angle_deg, _, acol = toks.number("a flip angle", units=("", "deg"))
        _positive(angle_deg, "flip angle", line, acol)
        axis, _ = toks.keyword(_AXES, "an axis")
        toks.done()
        return engine.Pulse(axis, float(np.radians(angle_deg)))
    if head == "burst":
        sign_tok, _ = toks.keyword(("+", "-"), "'+' or '-' after 'burst'")
        amp, _, acol = toks.number("a field amplitude", units=("G",))
        _positive(amp, "burst amplitude", line, acol)
        value, unit, dcol = toks.number("a burst duration", units=("us", "hc"))
        _positive(value, "burst duration", line, dcol)
        toks.done()
        sign = 1 if sign_tok == "+" else -1
        if unit == "hc":
            if value != int(value):
                raise ParseError("half-cycle count must be a positive integer",
                                 line, dcol)
            return Burst(sign=sign, amplitude_gauss=amp, halfcycles=int(value))
        return Burst(sign=sign, amplitude_gauss=amp, seconds=value * 1e-6)
    if head == "delay":
        value, _, dcol = toks.number("a delay duration", units=("us",))
        _positive(value, "delay duration", line, dcol)
        toks.done()
        return engine.Evolve(_DIPOLAR, value * 1e-6)
    if head == "acquire":
        obs_tok, _ = toks.keyword(tuple(_OBSERVABLES), "an observable (Ix/Iy/Iz)")
        toks.keyword(("for",), "'for'")
        window, _, wcol = toks.number("an acquisition window", units=("us",))
        _positive(window, "acquisition window", line, wcol)
        toks.keyword(("step",), "'step'")
        step, _, scol = toks.number("an acquisition step", units=("us",))
        _positive(step, "acquisition step", line, scol)
        if step > window:
            raise ParseError("acquisition step exceeds the window", line, scol)
        toks.done()
        return engine.Acquire(_OBSERVABLES[obs_tok], window * 1e-6,
                              step * 1e-6)
    raise ParseError(f"unknown keyword {head!r}", line, col)


def parse(text: str) -> PulseProgram:
    """Parse DSL source into a validated program."""
    statements = []
    lines = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        body = raw.split("#", 1)[0]
        toks = _Tokens(body, lineno)
        if not toks.items:
            continue
        statements.append(_parse_statement(toks))
        lines.append(lineno)
    if not statements:
        raise ParseError("empty program: missing init", 1, 1)
    if not isinstance(statements[0], str):
        raise ParseError("missing init: the first statement must be 'init'",
                         lines[0], 1)
    inits = [k for k, s in enumerate(statements) if isinstance(s, str)]
    if len(inits) > 1:
        raise ParseError("more than one init statement", lines[inits[1]], 1)
    return PulseProgram(statements[0], tuple(statements[1:]))


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def print_program(program: PulseProgram) -> str:
    """Canonical text form; parse(print_program(p)) reproduces p."""
    out = [f"init {program.init_kind}"]
    for s in program.statements:
        if isinstance(s, engine.Pulse):
            out.append(f"pulse {_fmt(np.degrees(s.angle))} {s.axis}")
        elif isinstance(s, Burst):
            sign = "+" if s.sign > 0 else "-"
            if s.halfcycles is not None:
                dur = f"{s.halfcycles}hc"
            else:
                dur = f"{_fmt(s.seconds * 1e6)}us"
            out.append(f"burst {sign} {_fmt(s.amplitude_gauss)}G {dur}")
        elif isinstance(s, engine.Evolve) and s.hamiltonian.kind == "dipolar":
            out.append(f"delay {_fmt(s.duration * 1e6)}us")
        elif isinstance(s, engine.Acquire):
            out.append(f"acquire I{s.observable} for {_fmt(s.window * 1e6)}us"
                       f" step {_fmt(s.step * 1e6)}us")
        else:
            raise TypeError(f"unknown statement {type(s).__name__}")
    return "\n".join(out) + "\n"


def compile(program: PulseProgram, ideal_reversal: bool = False) -> tuple:
    """The engine segments of a program's statements, bursts lowered.

    Pulse, Evolve and Acquire statements pass through as they are. Each hc
    burst duration becomes an exact integer multiple of pi/omega1. With
    ideal_reversal, bursts evolve under -H'/2 (the infinite-amplitude
    limit) for the same duration.
    """
    segments = []
    for s in program.statements:
        if isinstance(s, Burst):
            if not s.amplitude_gauss > 0:
                raise CompileError("burst amplitude must be positive")
            omega1 = GAMMA_F19 * s.amplitude_gauss
            duration = (s.seconds if s.halfcycles is None
                        else engine.halfcycle_duration(omega1, s.halfcycles))
            spec = (engine.HamiltonianSpec("ideal_burst") if ideal_reversal
                    else engine.HamiltonianSpec("burst", s.sign, omega1))
            s = engine.Evolve(hamiltonian=spec, duration=duration)
        elif not isinstance(s, (engine.Pulse, engine.Evolve, engine.Acquire)):
            raise CompileError(f"cannot compile {type(s).__name__}")
        segments.append(s)
    return tuple(segments)


BUILTIN_NAMES = ("seq1", "seq2", "rpw")


def sequence(name: str, half: Burst | None, delay: float, window: float,
             step: float) -> PulseProgram:
    """The statements of a standard sequence; the only place they are spelled.

    ``half`` is the + phase half of the burst and the - phase half mirrors
    it; ``delay`` is the free evolution, half the total burst length t1,
    in seconds. ``half=None`` (t1 = 0) leaves out the burst and the delay.
    The acquisition runs ``window`` seconds in ``step`` steps.

    'seq1': dipolar order, 90-degree pulse, phase-alternated burst, free
    evolution for half the burst duration, 45-degree read pulse,
    acquisition on Iy from the echo center.

    'seq2': same reversal block but with the 45-degree pulse applied first,
    acquisition starting at the echo center 3/2 burst durations in.

    'rpw': transverse order, free evolution, burst of twice that duration,
    acquisition on Ix from the burst end (the original magic-echo timing).
    """
    burst = () if half is None else (half, replace(half, sign=-1))
    free = () if half is None else (engine.Evolve(_DIPOLAR, delay),)
    if name == "seq1":
        return PulseProgram("dipolar", (
            engine.Pulse("y", np.pi / 2), *burst, *free,
            engine.Pulse("y", np.pi / 4), engine.Acquire("y", window, step)))
    if name == "seq2":
        return PulseProgram("dipolar", (
            engine.Pulse("y", np.pi / 4), *burst, *free,
            engine.Acquire("y", window, step)))
    if name == "rpw":
        return PulseProgram("ix", (*free, *burst,
                                   engine.Acquire("x", window, step)))
    raise ValueError(f"unknown builtin program {name!r}")


def builtin(name: str, amplitude_gauss: float = DEFAULT_AMPLITUDE_GAUSS,
            halfcycles: int = DEFAULT_HALFCYCLES,
            window_us: float = DEFAULT_WINDOW_US,
            step_us: float = DEFAULT_STEP_US) -> PulseProgram:
    """A standard sequence with a burst of ``halfcycles`` total half-cycles.

    ``halfcycles`` must be even so each phase half is an integer number of
    half-cycles; the delay, half the burst, is n pi / omega1 (omega1 > 0).
    """
    if halfcycles < 2 or halfcycles % 2:
        raise ValueError("halfcycles must be an even integer >= 2")
    n2 = halfcycles // 2
    half = Burst(sign=1, amplitude_gauss=amplitude_gauss, halfcycles=n2)
    delay = engine.halfcycle_duration(GAMMA_F19 * amplitude_gauss, n2)
    return sequence(name, half, delay, window_us * 1e-6, step_us * 1e-6)


def builtin_program(name: str, **settings) -> str:
    """DSL source of :func:`builtin` (see :func:`sequence`)."""
    return print_program(builtin(name, **settings))
