"""Flat, line-oriented key-value documents for rules, reports, manifests,
and the column-wise CSV writer for traces, phase grids and study results.

Format: one `key = value` pair per line, UTF-8, LF endings, keys sorted at
write time, a mandatory `format_version` entry.  Floats are serialized with
17 significant digits so a write/read round trip is lossless; values are
parsed back as int, float, bool, or string in that order of preference.
"""

from __future__ import annotations

import os
import pickle
import shutil
import sys
import tempfile
import threading

import numpy as np

FORMAT_VERSION = "1"

__all__ = ["FORMAT_VERSION", "dump_kv", "load_kv", "write_kv", "write_columns"]


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
    """Parse a key-value document; raises ValueError with the line number, also for a
    repeated key and a format_version other than FORMAT_VERSION, which dump_kv cannot write."""
    entries: dict = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        if " = " not in line:
            raise ValueError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, _, value = line.partition(" = ")
        key = key.strip()
        if key in entries:
            raise ValueError(f"line {lineno}: key {key!r} given twice")
        if key == "format_version" and value.strip() != FORMAT_VERSION:
            raise ValueError(f"line {lineno}: format_version {value.strip()!r} is not {FORMAT_VERSION}")
        entries[key] = _decode(value)
    if "format_version" not in entries:
        raise ValueError("missing format_version entry")
    return entries


def write_kv(entries: dict, path) -> None:
    text = dump_kv(entries)  # before the file is opened, so that entries dump_kv refuses leave it as it was
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


# printf-style cell format per dtype kind: floats with 17 significant digits
# (nan for NaN), integers as str() prints them, booleans as True/False;
# strings (dtype kind U) are written as they are, through %s
_CELL_FORMATS = {"f": "%.17g", "i": "%d", "u": "%d", "b": "%s"}
_WRITE_ROWS = 1 << 16  # rows formatted per write, which bounds the text held at once
# a block from this many rows on is written in two halves, in two processes: 8 times the break-even (about
# 8192 rows of a 6-column trace), which keeps phase's 16384-row blocks and the study files on one process
_SPLIT_WRITE_ROWS = 1 << 16


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


def write_columns(path, blocks) -> None:
    """CSV of column blocks under one header, the first block's keys.

    Each block is a dict of equal-length 1-d arrays with the same keys in the
    same order, written one row per index; each block is formatted and
    dropped before the next is drawn from the iterable.  A block of at least
    _SPLIT_WRITE_ROWS rows is written in two halves by _in_two, the second
    formatted by a forked helper; the bytes do not depend on the split.
    """
    with open(path, "wb") as fh:
        header = None
        for columns in blocks:
            if header is None:
                header = list(columns)
                fh.write((",".join(header) + "\n").encode())
            elif list(columns) != header:
                raise ValueError(f"block columns {list(columns)} differ from the header {header}")
            n = len(next(iter(columns.values())))
            if n < _SPLIT_WRITE_ROWS:
                _write_rows(fh, columns, 0, n)
            else:
                half = n // 2
                _in_two(lambda: _write_rows(fh, columns, 0, half), lambda out: _write_rows(out, columns, half, n), fh)


def _write_rows(out, columns: dict, start: int, stop: int) -> None:
    """Rows start..stop-1 of columns as UTF-8 CSV lines to the binary file out, _WRITE_ROWS at a time."""
    for lo in range(start, stop, _WRITE_ROWS):
        hi = min(lo + _WRITE_ROWS, stop)
        formats, cells = zip(*(_column_cells(c[lo:hi]) for c in columns.values()))
        row_format = ",".join(formats) + "\n"
        out.write("".join(map(row_format.__mod__, zip(*cells))).encode())


# ---------------------------------------------------------------------------
# a second process for the second half of a big job


def _start_method() -> str:
    """fork on Linux while this process runs one thread, else spawn.

    A forked worker inherits the parent's imports instead of repeating them;
    forking a process with a second thread alive can copy a lock that thread
    holds, so then, and off Linux, workers start from a fresh interpreter.
    """
    return "fork" if sys.platform == "linux" and threading.active_count() == 1 else "spawn"


def _usable_cpus() -> int:
    """CPUs this process may run on (its affinity mask where the OS has one)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _in_two(first, second, sink):
    """first()'s result, after second(out) has written its bytes to the binary file sink.

    Where this process may fork (_start_method) and has a second usable CPU,
    second runs in a forked child while first runs here: the child writes
    to an unlinked temporary file, which is copied to sink once first has
    returned.  Elsewhere both run here, first then second(sink).  The child
    is always reaped, and killed first when first raises or this process is
    interrupted.  A ValueError in the child is raised here, as it was raised
    there; any other failure of the child, its death included, as an
    OSError.
    """
    if _start_method() != "fork" or _usable_cpus() < 2:
        result = first()
        second(sink)
        return result
    with tempfile.TemporaryFile() as spool:
        pid = os.fork()
        if pid == 0:  # the child: its bytes, or its ValueError pickled, go to the spool; it never returns
            code = 2
            try:
                try:
                    second(spool)
                    code = 0
                except ValueError as exc:
                    spool.seek(0)
                    spool.truncate()
                    try:
                        pickle.dump(exc, spool)
                    except Exception:  # arguments that do not pickle: the message will do
                        spool.seek(0)
                        spool.truncate()
                        pickle.dump(ValueError(str(exc)), spool)
                    code = 1
                spool.flush()
            finally:
                os._exit(code)
        try:
            result = first()
        except BaseException:
            _reap(pid, kill=True)
            raise
        code = os.waitstatus_to_exitcode(_reap(pid, kill=False))
        spool.seek(0)
        if code == 1:
            raise pickle.load(spool)
        if code != 0:
            raise OSError(f"the helper process for the second half failed with exit status {code}")
        shutil.copyfileobj(spool, sink, 1 << 20)
    return result


def _reap(pid: int, kill: bool) -> int:
    """The wait status of child pid, killed first when kill is set, or when the wait is interrupted."""
    import signal

    if kill:
        os.kill(pid, signal.SIGKILL)
    try:
        return os.waitpid(pid, 0)[1]
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        raise
