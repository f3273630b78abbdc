"""Golden outputs: fixed CLI commands rerun against captured CSVs.

Each command in COMMANDS writes a CSV with --out; ``tests/golden/<name>.csv``
holds its output captured before a refactor of the code it runs: the first
eight before the engine moved to symmetry blocks, the ideal sweep, the
zero-burst sweep and the ideal rpw run before the builtin sequences got one
definition, and lattice-info, the two dump-operator runs and the Gaussian
thermo --divergence run before the CLI emitted every result from columns.
thermo-micro-n9 was captured when the microscopic kernel's eight-site cap
was lifted, and dump-h1-n4 recaptured when dump-operator stopped listing
the rounding residue of matrix elements that are zero in exact arithmetic. A rerun must have the same metadata keys and columns, equal
non-numeric metadata, and every column and numeric metadata value within
GOLDEN_RTOL of that column's (or value's) maximum absolute value. A value
that is a list of numbers, such as a sweep's t1_requested, must have the
same length and match element by element in the same way.

Capture a new golden, or recapture one whose output is meant to change,
by name; the other files are left as they are:

    PYTHONPATH=src python3 tests/test_golden.py --capture NAME [NAME ...]

``verify.txt`` holds the stdout of ``magicecho verify`` at its default
seed, which a rerun must reproduce byte for byte; it was captured before
the phase sum returned real samples under one imaginary-part bound:

    PYTHONPATH=src python3 -m magicecho.cli verify > tests/golden/verify.txt
"""

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from magicecho import cli, output

GOLDEN_DIR = Path(__file__).parent / "golden"
GOLDEN_RTOL = 1e-9

# name -> argv without --out; commands run in GOLDEN_DIR, next to the .pp files
COMMANDS = {
    "run-seq1": ["run", "builtin:seq1", "--orientation", "100",
                 "--radius", "1", "--max-sites", "7", "--halfcycles", "24"],
    "run-seq2-ideal": ["run", "builtin:seq2", "--ideal", "--orientation",
                       "110", "--radius", "1", "--max-sites", "7"],
    "run-rpw": ["run", "builtin:rpw", "--orientation=-0.31,0.52,0.8",
                "--radius", "1", "--max-sites", "6", "--omega1-gauss", "40",
                "--halfcycles", "16", "--window-us", "30", "--step-us", "0.5"],
    "sweep-seq1-n7": ["run", "builtin:seq1", "--orientation", "111",
                      "--radius", "1", "--max-sites", "7",
                      "--omega1-gauss", "35", "--t1-grid", "4:12:4hc"],
    "sweep-seq2-n5": ["run", "builtin:seq2", "--orientation", "100",
                      "--radius", "1", "--max-sites", "5",
                      "--t1-grid", "2:14:6hc"],
    "pp-iz-n7": ["run", "iz_n7.pp", "--orientation", "0.2,0.3,0.93",
                 "--radius", "1", "--max-sites", "7"],
    "pp-seq2-n8": ["run", "seq2_n8.pp", "--orientation", "110",
                   "--radius", "2", "--max-sites", "8"],
    "sweep-seq1-ideal-n6": ["run", "builtin:seq1", "--ideal", "--orientation",
                            "100", "--radius", "1", "--max-sites", "6",
                            "--t1-grid", "0:3:1hc"],
    "sweep-seq2-zero-n6": ["run", "builtin:seq2", "--orientation", "110",
                           "--radius", "1", "--max-sites", "6",
                           "--omega1-gauss", "30", "--t1-grid", "0:8:4hc"],
    "run-rpw-ideal": ["run", "builtin:rpw", "--ideal", "--orientation", "110",
                      "--radius", "1", "--max-sites", "6",
                      "--halfcycles", "12"],
    "thermo-micro-n7": ["thermo", "--kernel-from-cluster", "110:1:7",
                        "--kernel-samples", "81", "--t-end-us", "100"],
    "lattice-info-110": ["lattice-info", "--orientation", "110",
                         "--radius", "1.5"],
    "dump-q-n4": ["dump-operator", "--name", "q", "--orientation", "100",
                  "--radius", "1", "--max-sites", "4"],
    "dump-h1-n4": ["dump-operator", "--name", "h1", "--orientation", "100",
                   "--radius", "1", "--max-sites", "4"],
    "thermo-gauss-divergence": ["thermo", "--orientation", "111",
                                "--offset-us", "10", "--t-end-us", "60",
                                "--divergence"],
    "thermo-micro-n9": ["thermo", "--kernel-from-cluster", "100:2:9",
                        "--t-end-us", "100"],
}


def _run(name: str, out: Path) -> None:
    cwd = os.getcwd()
    os.chdir(GOLDEN_DIR)
    try:
        assert cli.main(COMMANDS[name] + ["--out", str(out)]) == 0
    finally:
        os.chdir(cwd)


def _numbers(text: str):
    """The numbers a metadata value holds (one, or a bracketed list), or
    None when it is not numeric."""
    items = text[1:-1].split(",") if text[:1] + text[-1:] == "[]" else [text]
    try:
        return np.array([float(item) for item in items])
    except ValueError:
        return None


def _meta_matches(value: str, gold: str) -> bool:
    x, x0 = _numbers(value), _numbers(gold)
    if x0 is None:
        return value == gold
    return (x is not None and x.shape == x0.shape
            and np.abs(x - x0).max() <= GOLDEN_RTOL * np.abs(x0).max())


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_golden_output(name, tmp_path):
    out = tmp_path / f"{name}.csv"
    _run(name, out)
    gold_meta, gold_cols = output.read_csv(str(GOLDEN_DIR / f"{name}.csv"))
    meta, cols = output.read_csv(str(out))
    assert sorted(meta) == sorted(gold_meta)
    assert list(cols) == list(gold_cols)
    for key, gold in gold_meta.items():
        assert _meta_matches(meta[key], gold), key
    for column, gold in gold_cols.items():
        assert cols[column].shape == gold.shape, column
        scale = np.abs(gold).max()
        assert np.abs(cols[column] - gold).max() <= GOLDEN_RTOL * scale, \
            column


def test_verify_stdout_golden(capsys):
    assert cli.main(["verify"]) == 0
    out = capsys.readouterr().out
    assert out.encode() == (GOLDEN_DIR / "verify.txt").read_bytes()


def test_verify_stdout_golden_under_optimize():
    # python -O drops assert statements: the checks must still run
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
    proc = subprocess.run([sys.executable, "-O", "-m", "magicecho.cli",
                           "verify"], env=env, capture_output=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (GOLDEN_DIR / "verify.txt").read_bytes()


def test_list_metadata_compared_elementwise_at_rtol():
    grid = [0.0, 1.2e-05, 2.4e-05]
    gold = str(grid)
    one_ulp = [0.0, float(np.nextafter(1.2e-05, 1.0)), 2.4e-05]
    assert str(one_ulp) != gold
    assert _meta_matches(str(one_ulp), gold)
    assert not _meta_matches(str([0.0, 1.2e-05 * (1 + 1e-6), 2.4e-05]), gold)
    assert not _meta_matches(str(grid[:2]), gold)
    assert not _meta_matches(str(grid + [3.6e-05]), gold)
    assert not _meta_matches("[seq1, seq2]", "[seq1, seq3]")
    assert _meta_matches("seq1", "seq1") and not _meta_matches("seq1", "seq2")


def capture(names) -> None:
    unknown = sorted(set(names) - set(COMMANDS))
    if unknown:
        sys.exit(f"unknown golden(s): {', '.join(unknown)}")
    with tempfile.TemporaryDirectory() as tmp:
        for name in names:
            out = Path(tmp) / f"{name}.csv"
            _run(name, out)
            shutil.copyfile(out, GOLDEN_DIR / f"{name}.csv")
            print(f"captured {name}")


if __name__ == "__main__":
    if sys.argv[1:2] != ["--capture"] or len(sys.argv) < 3:
        sys.exit("usage: test_golden.py --capture NAME [NAME ...]\n"
                 f"names: {' '.join(sorted(COMMANDS))}")
    capture(sys.argv[2:])
