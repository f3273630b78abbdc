"""CSV and manifest emission.

One file format for everything: '#'-prefixed metadata lines (key=value,
sorted keys), a header row, then numeric rows with 12 significant digits,
comma separated, LF line endings. Times in files are microseconds; the
library computes in seconds internally. A CSV is written in one pass,
CSV_ROW_CHUNK rows at a time, to an open stream or atomically to a file
(temp file in the target directory, then rename), so readers never see
partial output.
"""

from __future__ import annotations

import contextlib
import json
import os
import tempfile

import numpy as np

CSV_FLOAT_FORMAT = "%.12g"
CSV_ROW_CHUNK = 4096


@contextlib.contextmanager
def _atomic_file(path: str):
    """A text stream that replaces ``path`` when closed without an error."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-csv-")
    try:
        with os.fdopen(fd, "w", newline="\n") as fh:
            yield fh
        os.chmod(tmp, 0o644)   # mkstemp defaults to owner-only
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_csv(path, columns: dict, meta: dict | None = None) -> int:
    """Write named numeric columns with metadata to ``path``, a file name or
    an open text stream, once every column is checked; returns the row count.
    """
    names = list(columns)
    if not names:
        raise ValueError("need at least one column")
    arrays = [np.atleast_1d(np.asarray(columns[k], float)) for k in names]
    length = arrays[0].shape[0]
    for name, arr in zip(names, arrays):
        if arr.ndim != 1 or arr.shape[0] != length:
            raise ValueError(f"column {name!r} is not a 1-d array of "
                             f"length {length}")
        # min and max propagate NaN, so both finite means every value is
        if length and not np.isfinite([arr.min(), arr.max()]).all():
            raise ValueError(f"column {name!r} contains non-finite values")
    with (contextlib.nullcontext(path) if hasattr(path, "write")
          else _atomic_file(path)) as fh:
        lines = [f"# {key}={meta[key]}" for key in sorted(meta or {})]
        fh.write("\n".join(lines + [",".join(names)]) + "\n")
        # one % per chunk of rows, each chunk written before the next is made
        row = ",".join([CSV_FLOAT_FORMAT] * len(names)) + "\n"
        for k in range(0, length, CSV_ROW_CHUNK):
            block = np.column_stack([a[k:k + CSV_ROW_CHUNK] for a in arrays])
            fh.write((row * len(block)) % tuple(block.ravel().tolist()))
    return length


def read_csv(path: str):
    """Inverse of write_csv: returns (meta, columns).

    Metadata values come back as strings; columns as float arrays.
    """
    meta = {}
    names = None
    rows = []
    with open(path, "r", newline="\n") as fh:
        for line in fh:
            line = line.rstrip("\n")
            if not line:
                continue
            if line.startswith("#"):
                key, _, value = line[1:].strip().partition("=")
                meta[key] = value
                continue
            if names is None:
                names = line.split(",")
                continue
            rows.append([float(tok) for tok in line.split(",")])
    if names is None:
        raise ValueError(f"{path}: no header row")
    data = np.asarray(rows, float).reshape(len(rows), len(names))
    return meta, {name: data[:, k] for k, name in enumerate(names)}


def write_manifest(out_path: str, payload: dict) -> str:
    """Write the run manifest next to an output file; returns its path."""
    path = out_path + ".manifest.json"
    with _atomic_file(path) as fh:
        fh.write(json.dumps(payload, indent=2, sort_keys=True, default=str)
                 + "\n")
    return path
