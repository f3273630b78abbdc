"""Tests for CSV/manifest emission: format, round-trip fidelity, atomicity."""

import io
import json
import os
import tracemalloc

import numpy as np
import pytest

from magicecho import output


def test_write_read_round_trip(tmp_path):
    path = str(tmp_path / "data.csv")
    rng = np.random.default_rng(7)
    cols = {"t": np.linspace(0, 1, 20),
            "v": rng.normal(scale=1e10, size=20),
            "w": rng.normal(scale=1e-7, size=20)}
    meta = {"beta": "1.0", "alpha": "two words", "n": "6"}
    rows = output.write_csv(path, cols, meta)
    assert rows == 20
    meta2, cols2 = output.read_csv(path)
    assert meta2 == meta
    for name in cols:
        np.testing.assert_allclose(cols2[name], cols[name], rtol=1e-11)


def test_csv_format_details(tmp_path):
    path = str(tmp_path / "fmt.csv")
    output.write_csv(path, {"x": [1.0 / 3.0]}, {"zeta": "1", "alpha": "2"})
    raw = open(path, "rb").read()
    assert b"\r" not in raw
    lines = raw.decode().splitlines()
    # metadata keys sorted, then header, then 12-significant-digit rows
    assert lines[0] == "# alpha=2"
    assert lines[1] == "# zeta=1"
    assert lines[2] == "x"
    assert lines[3] == "0.333333333333"
    assert raw.endswith(b"\n")


def test_csv_body_matches_per_value_formatting():
    # chunked one-pass formatting must give the bytes of formatting each
    # value on its own, across chunk edges and for zero rows
    fmt = output.CSV_FLOAT_FORMAT
    rng = np.random.default_rng(3)
    special = [0.0, -0.0, -1.5, 1e-300, -1e-300, 1e300, -1e300, 7.0, -42.0,
               123456789012345.0, 1.0 / 3.0]
    for length in (0, 1, len(special), output.CSV_ROW_CHUNK,
                   2 * output.CSV_ROW_CHUNK + 5):
        values = np.resize(special, length) * np.where(
            rng.random(length) < 0.5, 1.0, rng.normal(size=length))
        cols = {"t": np.arange(length, dtype=float), "v": values,
                "w": -values[::-1]}
        expected = "# k=v\nt,v,w\n" + "".join(
            ",".join(fmt % cols[name][k] for name in cols) + "\n"
            for k in range(length))
        stream = io.StringIO()
        assert output.write_csv(stream, cols, {"k": "v"}) == length
        assert stream.getvalue() == expected


def test_csv_stream_matches_file(tmp_path):
    cols = {"a": [1.5, 2.5], "b": [0.25, 0.75]}
    meta = {"k": "v"}
    path = str(tmp_path / "t.csv")
    stream = io.StringIO()
    assert output.write_csv(path, cols, meta) == 2
    assert output.write_csv(stream, cols, meta) == 2
    assert open(path).read() == stream.getvalue()


def test_csv_memory_stays_at_one_chunk(tmp_path):
    # rows are formatted and written a chunk at a time, to a file or a
    # stream alike, so the peak does not grow with the row count (this
    # CSV is 6.0 MB)
    length = 200_000
    cols = {"t": np.linspace(0.0, 1.0, length),
            "v": np.random.default_rng(5).normal(size=length)}
    path = str(tmp_path / "big.csv")
    with open(tmp_path / "stream.csv", "w") as stream:
        for dest in (path, stream):
            tracemalloc.start()
            try:
                assert output.write_csv(dest, cols, {"k": "v"}) == length
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 2 * 2**20, (dest, peak)


def test_empty_curve_emits_header_only(tmp_path):
    path = str(tmp_path / "empty.csv")
    assert output.write_csv(path, {"time_us": [], "value": []},
                            {"label": "fid"}) == 0
    lines = open(path).read().splitlines()
    assert lines[-1] == "time_us,value"
    meta, cols = output.read_csv(path)
    assert cols["value"].size == 0


def test_write_csv_validation(tmp_path):
    path = str(tmp_path / "bad.csv")
    with pytest.raises(ValueError, match="length"):
        output.write_csv(path, {"a": [1.0, 2.0], "b": [1.0]})
    with pytest.raises(ValueError, match="non-finite"):
        output.write_csv(path, {"a": [1.0, np.nan]})
    with pytest.raises(ValueError, match="one column"):
        output.write_csv(path, {})
    assert not os.path.exists(path)
    # every column is checked before the first byte goes to a stream
    stream = io.StringIO()
    for bad in ([1.0, np.inf], [-np.inf, 1.0], [np.nan, 1.0, 2.0]):
        with pytest.raises(ValueError, match="'b' contains non-finite"):
            output.write_csv(stream, {"a": np.arange(len(bad), dtype=float),
                                      "b": bad}, {"k": "v"})
    with pytest.raises(ValueError, match="length"):
        output.write_csv(stream, {"a": [1.0], "b": [[1.0]]})
    assert stream.getvalue() == ""
    assert os.listdir(tmp_path) == []


def test_atomic_write_replaces_and_leaves_no_temp(tmp_path):
    path = str(tmp_path / "data.csv")
    output.write_csv(path, {"a": [1.0]}, {})
    output.write_csv(path, {"a": [2.0]}, {})
    _, cols = output.read_csv(path)
    assert cols["a"][0] == 2.0
    assert os.listdir(tmp_path) == ["data.csv"]


def test_manifest_round_trip(tmp_path):
    out = str(tmp_path / "run.csv")
    payload = {"rows": 3, "config": {"radius": 1.0},
               "tolerances": {"unitarity": 1e-9}}
    mpath = output.write_manifest(out, payload)
    assert mpath == out + ".manifest.json"
    loaded = json.load(open(mpath))
    assert loaded["rows"] == 3
    assert loaded["config"]["radius"] == 1.0


def test_read_csv_requires_header(tmp_path):
    path = tmp_path / "nohdr.csv"
    path.write_text("# only=meta\n")
    with pytest.raises(ValueError, match="no header"):
        output.read_csv(str(path))
