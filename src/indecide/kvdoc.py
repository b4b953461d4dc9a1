"""Flat, line-oriented key-value documents for rules, reports, manifests,
and the column-wise CSV writer for traces, phase grids and study results.

Format: one `key = value` pair per line, UTF-8, LF endings, keys sorted at
write time, a mandatory `format_version` entry.  Floats are serialized with
17 significant digits so a write/read round trip is lossless; values are
parsed back as int, float, bool, or string in that order of preference.
"""

from __future__ import annotations

import numpy as np

FORMAT_VERSION = "1"

__all__ = ["FORMAT_VERSION", "dump_kv", "load_kv", "write_kv", "read_kv", "write_columns"]


def _encode(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def _decode(text: str):
    if text == "true":
        return True
    if text == "false":
        return False
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        return text


def dump_kv(entries: dict) -> str:
    """Serialize entries (format_version injected) as sorted key = value lines."""
    out = dict(entries)
    out["format_version"] = FORMAT_VERSION
    lines = []
    for key in sorted(out):
        if any(ch in str(key) for ch in "=\n"):
            raise ValueError(f"key {key!r} contains a reserved character")
        value = _encode(out[key])
        if "\n" in value:
            raise ValueError(f"value for {key!r} contains a newline")
        lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n"


def load_kv(text: str) -> dict:
    """Parse a key-value document; raises ValueError with the line number."""
    entries: dict = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        if " = " not in line:
            raise ValueError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, _, value = line.partition(" = ")
        entries[key.strip()] = _decode(value)
    if "format_version" not in entries:
        raise ValueError("missing format_version entry")
    return entries


def write_kv(entries: dict, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(dump_kv(entries))


def read_kv(path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return load_kv(fh.read())


# printf-style cell format per dtype kind: floats with 17 significant digits
# (nan for NaN), integers as str() prints them, booleans as True/False;
# strings (dtype kind U) are written as they are, through %s
_CELL_FORMATS = {"f": "%.17g", "i": "%d", "u": "%d", "b": "%s"}
_WRITE_ROWS = 1 << 16  # rows formatted per write, which bounds the text held at once


def _column_cells(chunk: np.ndarray) -> tuple[str, list]:
    """The printf format and the cell values of one column chunk.

    A chunk with repeated values formats each distinct bit pattern once and
    hands the texts on through %s.  Distinct bits, not distinct values: equal
    floats with different bits (0.0 and -0.0) print differently, and every
    NaN prints nan whatever its bits.
    """
    if chunk.dtype.kind == "U":
        return "%s", chunk.tolist()
    cell_format = _CELL_FORMATS[chunk.dtype.kind]
    bits, inverse = np.unique(chunk.view(f"u{chunk.itemsize}"), return_inverse=True)
    if bits.size == chunk.size:
        return cell_format, chunk.tolist()
    texts = np.array(list(map(cell_format.__mod__, bits.view(chunk.dtype).tolist())), dtype=object)
    return "%s", texts[inverse].tolist()


def write_columns(path, columns: dict) -> None:
    """CSV of equal-length 1-d arrays: the keys as header, then one row per index."""
    n = len(next(iter(columns.values())))
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(columns) + "\n")
        for start in range(0, n, _WRITE_ROWS):
            formats, cells = zip(*(_column_cells(c[start : start + _WRITE_ROWS]) for c in columns.values()))
            row_format = ",".join(formats) + "\n"
            fh.write("".join(map(row_format.__mod__, zip(*cells))))
