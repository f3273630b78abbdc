"""Pulse-program DSL: grammar, diagnostics, canonical printing, compilation."""

import numpy as np
import pytest

from magicecho import engine, pulseprog as pp
from magicecho.lattice import GAMMA_F19

SEQ1_TEXT = """\
init dipolar
pulse 90 y
burst + 25.3G 40hc
burst - 25.3G 40hc
delay 100us
pulse 45 y
acquire Iy for 60us step 0.5us
"""


def test_parse_sequence_one_shape():
    prog = pp.parse(SEQ1_TEXT)
    kinds = [type(s).__name__ for s in prog.statements]
    assert kinds == ["Pulse", "Burst", "Burst", "Evolve", "Pulse", "Acquire"]
    p90, b_plus, b_minus, delay, p45, acq = prog.statements
    assert prog.init_kind == "dipolar"
    assert p90.angle == pytest.approx(np.pi / 2) and p90.axis == "y"
    assert b_plus.sign == 1 and b_minus.sign == -1
    assert b_plus.amplitude_gauss == 25.3 and b_plus.halfcycles == 40
    assert delay.hamiltonian == engine.HamiltonianSpec("dipolar")
    assert delay.duration == pytest.approx(1.0e-4)
    assert p45.angle == pytest.approx(np.pi / 4)
    assert acq.observable == "y"
    assert acq.window == pytest.approx(60.0e-6)
    assert acq.step == pytest.approx(0.5e-6)


def test_comments_and_blank_lines_ignored():
    prog = pp.parse("# header\n\ninit ix   # transverse\n\ndelay 5us\n")
    assert prog.init_kind == "ix"
    assert len(prog.statements) == 1


def test_missing_init_reported():
    with pytest.raises(pp.ParseError, match="missing init") as err:
        pp.parse("pulse 90 y\n")
    assert err.value.line == 1


def test_burst_missing_sign_column():
    with pytest.raises(pp.ParseError, match="'\\+' or '-'") as err:
        pp.parse("init ix\nburst 25.3G 40hc\n")
    assert err.value.line == 2
    assert err.value.column == 7  # where the sign should have been


def test_unknown_keyword():
    with pytest.raises(pp.ParseError, match="unknown keyword 'pluse'") as err:
        pp.parse("init ix\npluse 90 y\n")
    assert (err.value.line, err.value.column) == (2, 1)


def test_malformed_units():
    with pytest.raises(pp.ParseError, match="delay duration"):
        pp.parse("init ix\ndelay 100ms\n")
    with pytest.raises(pp.ParseError, match="burst duration"):
        pp.parse("init ix\nburst + 10G 40cycles\n")
    with pytest.raises(pp.ParseError, match="positive integer"):
        pp.parse("init ix\nburst + 10G 40.5hc\n")


def test_nonpositive_durations_rejected():
    with pytest.raises(pp.ParseError, match="must be positive"):
        pp.parse("init ix\ndelay 0us\n")
    with pytest.raises(pp.ParseError, match="must be positive"):
        pp.parse("init ix\nburst + 0G 4hc\n")


def test_step_cannot_exceed_window():
    with pytest.raises(pp.ParseError, match="step exceeds"):
        pp.parse("init ix\nacquire Ix for 1us step 2us\n")


def test_single_init():
    with pytest.raises(pp.ParseError, match="more than one init"):
        pp.parse("init ix\ninit dipolar\n")


@pytest.mark.parametrize("text, message, where", [
    ("# nothing\n\n", "empty program", (1, 1)),
    ("# header\n\n  delay 5us\ninit ix\n", "missing init", (3, 1)),
    ("init ix\ndelay 5us\n\n   init dipolar\n", "more than one init",
     (4, 1)),
])
def test_init_errors_carry_line_and_column(text, message, where):
    with pytest.raises(pp.ParseError, match=message) as err:
        pp.parse(text)
    assert (err.value.line, err.value.column) == where


def test_frame_statement_is_rejected():
    # the grammar has no frame declaration: programs compile in the frame
    # the burst Hamiltonian is written in, and pulses carry frame changes
    with pytest.raises(pp.ParseError,
                       match=r"line 2, column 1: unknown keyword 'frame'"):
        pp.parse("init ix\nframe tilted\ndelay 1us\n")


def test_trailing_tokens_rejected():
    with pytest.raises(pp.ParseError, match="trailing"):
        pp.parse("init ix extra\n")


def test_print_parse_idempotent():
    texts = [
        SEQ1_TEXT,
        "init ix\npulse 33.3 -x\nburst - 12.5G 7.25us\n"
        "delay 0.5us\nacquire Iz for 10us step 0.125us\n",
        pp.builtin_program("seq2"),
        pp.builtin_program("rpw"),
    ]
    for text in texts:
        once = pp.print_program(pp.parse(text))
        twice = pp.print_program(pp.parse(once))
        assert once == twice
        assert pp.parse(once) == pp.parse(twice)


def test_printer_canonical_format():
    prog = pp.parse("init dipolar\npulse   90  y\nburst +   25.3G   40hc\n")
    assert pp.print_program(prog) == (
        "init dipolar\npulse 90 y\nburst + 25.3G 40hc\n")


def test_compile_sequence_segments():
    program = pp.parse(SEQ1_TEXT)
    assert program.init_kind == "dipolar"
    seg = pp.compile(program)
    assert isinstance(seg[0], engine.Pulse) and seg[0].angle == pytest.approx(
        np.pi / 2)
    omega1 = GAMMA_F19 * 25.3
    for s, sign in ((seg[1], 1), (seg[2], -1)):
        assert isinstance(s, engine.Evolve)
        assert s.hamiltonian == engine.HamiltonianSpec("burst", sign, omega1)
        # hc durations are exact integer multiples of the half-cycle
        assert s.duration == 40 * np.pi / omega1
    assert seg[3].hamiltonian == engine.HamiltonianSpec("dipolar")
    assert seg[3].duration == pytest.approx(1.0e-4)
    assert isinstance(seg[5], engine.Acquire) and seg[5].observable == "y"


def test_compile_passes_engine_statements_through():
    # a delay parses to the engine's own free dipolar evolution, and every
    # statement but a burst reaches the engine as the parsed object itself
    program = pp.parse("init ix\npulse 90 y\ndelay 12.5us\n"
                       "burst + 10G 4hc\nacquire Ix for 4us step 1us\n")
    pulse, delay, burst, acquire = program.statements
    # microseconds times 1e-6, as every duration is read: one ulp below
    # the literal 12.5e-6
    assert delay == engine.Evolve(engine.HamiltonianSpec("dipolar"),
                                  12.5 * 1e-6)
    assert delay.duration == pytest.approx(12.5e-6, rel=1e-15)
    segments = pp.compile(program)
    assert len(segments) == 4
    assert segments[0] is pulse
    assert segments[1] is delay
    assert segments[3] is acquire
    assert segments[2] == engine.Evolve(
        engine.HamiltonianSpec("burst", 1, GAMMA_F19 * 10.0),
        4 * np.pi / (GAMMA_F19 * 10.0))


def test_print_refuses_a_non_dipolar_evolve():
    program = pp.PulseProgram("ix", (
        engine.Evolve(engine.HamiltonianSpec("ideal_burst"), 1e-5),))
    with pytest.raises(TypeError, match="unknown statement Evolve"):
        pp.print_program(program)


def test_compile_ideal_reversal():
    segments = pp.compile(pp.parse(SEQ1_TEXT), ideal_reversal=True)
    bursts = [s for s in segments
              if isinstance(s, engine.Evolve)
              and s.hamiltonian.kind == "ideal_burst"]
    assert len(bursts) == 2
    assert bursts[0].duration == 40 * np.pi / (GAMMA_F19 * 25.3)


def test_compile_us_burst_duration():
    (segment,) = pp.compile(pp.parse("init ix\nburst + 10G 40us\n"))
    assert segment.duration == pytest.approx(40.0e-6)


def test_compile_rejects_nonpositive_amplitude():
    prog = pp.PulseProgram("ix", (
        pp.Burst(sign=1, amplitude_gauss=0.0, seconds=1e-5),))
    with pytest.raises(pp.CompileError, match="amplitude"):
        pp.compile(prog)


def test_builtin_programs_parse_and_shape():
    for name in pp.BUILTIN_NAMES:
        prog = pp.parse(pp.builtin_program(name))
        assert prog.init_kind == ("ix" if name == "rpw" else "dipolar")
        bursts = [s for s in prog.statements if isinstance(s, pp.Burst)]
        assert [b.sign for b in bursts] == [1, -1]
        assert all(b.halfcycles == 20 for b in bursts)
    with pytest.raises(ValueError, match="unknown builtin"):
        pp.builtin_program("seq3")
    with pytest.raises(ValueError, match="even"):
        pp.builtin_program("seq1", halfcycles=5)


def test_builtin_delay_matches_half_burst():
    # the free evolution in seq1/seq2 is half the total burst duration,
    # to 12-digit precision of the microsecond rendering
    omega1 = GAMMA_F19 * 25.3
    t1 = 40 * np.pi / omega1
    for name in ("seq1", "seq2"):
        prog = pp.parse(pp.builtin_program(name, halfcycles=40))
        (delay,) = [s for s in prog.statements
                    if isinstance(s, engine.Evolve)]
        assert delay.hamiltonian == engine.HamiltonianSpec("dipolar")
        assert delay.duration == pytest.approx(0.5 * t1, rel=1e-11)
    # rpw rewinds its own forward delay: delay equals half the burst too
    prog = pp.parse(pp.builtin_program("rpw", halfcycles=40))
    (delay,) = [s for s in prog.statements if isinstance(s, engine.Evolve)]
    assert delay.hamiltonian == engine.HamiltonianSpec("dipolar")
    assert delay.duration == pytest.approx(0.5 * t1, rel=1e-11)
