"""Tests for the flat key-value document format and the column writer."""

import io
import math
import os
import time

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from indecide import kvdoc
from indecide.kvdoc import FORMAT_VERSION, dump_kv, load_kv, write_columns, write_kv


class TestDump:
    def test_sorted_keys_and_version(self):
        text = dump_kv({"b": 1, "a": 2})
        assert text == "a = 2\nb = 1\nformat_version = 1\n"

    def test_float_17_digits(self):
        text = dump_kv({"x": 1 / 3})
        assert "x = 0.33333333333333331" in text

    def test_bool_encoding(self):
        text = dump_kv({"yes": True, "no": False})
        assert "yes = true" in text and "no = false" in text

    def test_reserved_characters_rejected(self):
        with pytest.raises(ValueError):
            dump_kv({"a=b": 1})
        with pytest.raises(ValueError):
            dump_kv({"a": "line\nbreak"})


class TestLoad:
    def test_round_trip(self):
        entries = {"count": 7, "ratio": 0.1, "name": "run-1", "flag": True}
        back = load_kv(dump_kv(entries))
        assert back == {**entries, "format_version": int(FORMAT_VERSION)}

    def test_float_lossless(self):
        for value in (1 / 3, 1e-300, 123456.789, -0.0):
            assert load_kv(dump_kv({"x": value}))["x"] == value

    def test_skips_blanks_and_comments(self):
        text = "# header\n\na = 1\nformat_version = 1\n"
        assert load_kv(text)["a"] == 1

    def test_malformed_line_reports_number(self):
        with pytest.raises(ValueError, match="line 2"):
            load_kv("format_version = 1\nbroken-line\n")

    @pytest.mark.parametrize(
        "text, message",
        [
            ("format_version = 1\na = 1\n\na = 2\n", "line 4: key 'a' given twice"),
            ("format_version = 1\nformat_version = 1\n", "line 2: key 'format_version' given twice"),
            ("a = 1\nformat_version = 2\n", "line 2: format_version '2' is not 1"),
            ("format_version = 1.0\n", "line 1: format_version '1.0' is not 1"),
            ("format_version = true\n", "line 1: format_version 'true' is not 1"),
        ],
    )
    def test_refuses_what_dump_kv_cannot_write(self, text, message):
        with pytest.raises(ValueError, match=message):
            load_kv(text)

    def test_missing_version(self):
        with pytest.raises(ValueError, match="format_version"):
            load_kv("a = 1\n")


# every character str.splitlines, and so load_kv, ends a line at; dump_kv refuses only \n (see round trip below)
LINE_BREAKS = "\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"
KEYS = st.text(st.characters(blacklist_characters="=" + LINE_BREAKS, blacklist_categories=("Cs",)), max_size=12)
VALUES = (
    st.booleans()
    | st.integers(-(10**40), 10**40)
    | st.floats()
    | st.sampled_from([0.0, -0.0, math.inf, -math.inf, 5e-324, -2.2250738585072009e-308, 1e16, 1e17, 2.0**60])
    | st.text(st.characters(blacklist_characters=LINE_BREAKS, blacklist_categories=("Cs",)), max_size=12)
    | st.sampled_from(["true", "false", "12", " 7 ", "1_000", "nan", "-inf", "1e5", "2.50", "\u0663", "x = 1", "#"])
)


def loaded_back(value):
    """What load_kv returns for a value dump_kv wrote: a bool or an int as it was; a float as
    itself (NaN as a NaN), except that an integral float below 1e17 in magnitude, printed
    without a point, comes back as the int of its value, so -0.0 loses its sign; a string as
    itself, unless it reads as a bool, an int or a float (int() and float() allow spaces
    around the number, '_' between digits and other scripts' digits), which it comes back as."""
    if isinstance(value, float):
        return int(value) if value.is_integer() and abs(value) < 1e17 else value
    if isinstance(value, str):
        for parse in (lambda t: {"true": True, "false": False}[t], int, float):
            try:
                return parse(value)
            except (KeyError, ValueError):
                pass
    return value


class TestRoundTrip:
    @settings(max_examples=300, deadline=None)
    @given(st.dictionaries(KEYS.filter(lambda k: k == k.strip() and not k.startswith("#")), VALUES, max_size=8))
    def test_load_gives_back_what_dump_wrote(self, entries):
        """Keys come back as they were, but for what the property leaves out: a key with
        whitespace at either end (load_kv strips it), one starting with # (a comment line), and
        format_version, which dump_kv sets.  Neither keys nor values may hold a line break:
        dump_kv refuses only a newline, and load_kv would split the line at any other."""
        entries.pop("format_version", None)
        back = load_kv(dump_kv(entries))
        assert back.pop("format_version") == int(FORMAT_VERSION)
        assert list(back) == sorted(entries)
        for key, value in entries.items():
            want = loaded_back(value)
            assert type(back[key]) is type(want)
            assert back[key] == want or (want != want and back[key] != back[key])


class TestFiles:
    def test_write_read(self, tmp_path):
        path = tmp_path / "doc.kv"
        write_kv({"tau": 0.75}, path)
        assert load_kv(path.read_text(encoding="utf-8"))["tau"] == 0.75
        # LF endings regardless of platform
        assert b"\r" not in path.read_bytes()

    def test_refused_entries_leave_the_file_as_it_was(self, tmp_path):
        path = tmp_path / "doc.kv"
        path.write_text("kept\n")
        with pytest.raises(ValueError, match="reserved character"):
            write_kv({"sha256_a=b.csv": "0"}, path)
        assert path.read_text() == "kept\n"


def row_format_write_columns(path, columns: dict) -> None:
    """The column writer before repeated values were formatted once, kept as
    the oracle: one printf row format per dtype, every cell formatted inline."""
    cell_formats = {"f": "%.17g", "i": "%d", "u": "%d", "b": "%s", "U": "%s"}
    row_format = ",".join(cell_formats[c.dtype.kind] for c in columns.values()) + "\n"
    n = len(next(iter(columns.values())))
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(columns) + "\n")
        for start in range(0, n, 1 << 16):
            cells = (c[start : start + (1 << 16)].tolist() for c in columns.values())
            fh.write("".join(map(row_format.__mod__, zip(*cells))))


def _nan_with(sign: int, payload: int) -> float:
    bits = np.array([0x7FF8000000000000 | payload | (sign << 63)], dtype=np.uint64)
    return float(bits.view(np.float64)[0])


# values whose text is easy to get wrong when cells are deduplicated: signed
# zeros, NaNs with other signs and payloads (all print nan), infinities, subnormals
SPECIAL_FLOATS = [0.0, -0.0, math.nan, _nan_with(1, 0), _nan_with(0, 12345), math.inf, -math.inf,
                  5e-324, -5e-324, 2.225073858507201e-308, 1.0 / 3.0, -1e300]
LENGTHS = [0, 1, 2, 7, 65535, 65536, 65537]


@st.composite
def column_sets(draw, lengths=LENGTHS):
    """1-4 equal-length columns of float64, int64, uint64, bool or str."""
    n = draw(st.sampled_from(lengths))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    columns = {}
    for i in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["float-repeats", "float-distinct", "float-mixed", "int64", "uint64", "bool", "str"]))
        if kind.startswith("float"):
            pool = draw(st.lists(st.floats(allow_subnormal=True), max_size=12)) + SPECIAL_FLOATS
            repeats = np.array(pool)[rng.integers(0, len(pool), n)]
            distinct = rng.standard_normal(n) * 10.0 ** rng.integers(-320, 300, n)
            if kind == "float-repeats":
                column = repeats
            elif kind == "float-distinct":
                column = distinct
            else:
                column = np.where(rng.random(n) < 0.01, repeats, distinct)
        elif kind == "int64":
            pool = np.array(draw(st.lists(st.integers(-(2**63), 2**63 - 1), min_size=1, max_size=8)))
            column = pool.astype(np.int64)[rng.integers(0, pool.size, n)]
        elif kind == "uint64":
            column = rng.integers(0, 2**64 - 1, n, dtype=np.uint64, endpoint=True)
            if n and draw(st.booleans()):
                column = column[rng.integers(0, min(n, 5), n)]
        elif kind == "str":
            pool = np.array(draw(st.lists(st.text(st.characters(exclude_characters=",\n\r"), max_size=12), min_size=1, max_size=6)))
            column = pool[rng.integers(0, pool.size, n)]
        else:
            column = rng.random(n) < draw(st.floats(0.0, 1.0))
        columns[f"{kind}_{i}"] = column
    return columns


def assert_same_bytes(out, blocks, columns):
    """write_columns of blocks writes what the oracle writes of the whole columns, or both refuse."""
    outcomes = []
    for path, write, arg in [(out / "new.csv", write_columns, blocks), (out / "oracle.csv", row_format_write_columns, columns)]:
        try:
            write(path, arg)
            outcomes.append(path.read_bytes())
        except UnicodeEncodeError:  # lone surrogates have no UTF-8 bytes: both writers must refuse them
            outcomes.append(UnicodeEncodeError)
    assert outcomes[0] == outcomes[1]


class TestWriteColumns:
    @settings(max_examples=25, deadline=None)
    @given(column_sets(), st.lists(st.integers(0, max(LENGTHS)), max_size=3))
    def test_same_bytes_as_the_row_format_writer(self, tmp_path_factory, columns, cuts):
        # the new writer gets the columns cut into blocks, some of them empty;
        # the oracle gets them whole
        out = tmp_path_factory.mktemp("columns")
        edges = [0, *sorted(cuts), max(LENGTHS)]
        blocks = [{name: c[a:b] for name, c in columns.items()} for a, b in zip(edges, edges[1:])]
        assert_same_bytes(out, blocks, columns)

    def test_signed_zero_and_nan_payloads(self, tmp_path):
        x = np.array([0.0, -0.0, 0.0, math.nan, _nan_with(1, 7), -0.0, math.inf, 5e-324, 5e-324])
        write_columns(tmp_path / "x.csv", [{"x": x, "k": np.arange(9) % 2, "b": x == 0.0}])
        rows = (tmp_path / "x.csv").read_text().splitlines()
        assert [r.split(",")[0] for r in rows[1:]] == [
            "0", "-0", "0", "nan", "nan", "-0", "inf", "4.9406564584124654e-324", "4.9406564584124654e-324"
        ]
        assert rows[2] == "-0,1,True"
        assert rows[4] == "nan,1,False"

    def test_non_contiguous_columns(self, tmp_path):
        x = np.repeat(np.arange(5.0), 3)[::2]
        write_columns(tmp_path / "x.csv", [{"x": x}])
        row_format_write_columns(tmp_path / "oracle.csv", {"x": x})
        assert (tmp_path / "x.csv").read_bytes() == (tmp_path / "oracle.csv").read_bytes()

    def test_blocks_must_share_the_header(self, tmp_path):
        with pytest.raises(ValueError, match="differ from the header"):
            write_columns(tmp_path / "x.csv", [{"a": np.arange(2), "b": np.arange(2)}, {"b": np.arange(2), "a": np.arange(2)}])


class TestSplitWrite:
    """write_columns with the second half of each block formatted in a forked child
    (the forced_splits fixture)."""

    @staticmethod
    def table(n: int) -> dict:
        i = np.arange(n)
        return {
            "x": np.array([0.0, -0.0, math.nan, _nan_with(1, 7), math.inf, 1.0 / 3.0, 5e-324])[i % 7],
            "distinct": np.sqrt(i + 0.5),
            "same": np.full(n, 0.1),  # one value on both sides of the split
            "tens": i // 10 - 3,  # runs of ten that straddle the middle row
            "u": np.uint64(2**64 - 1) - i.astype(np.uint64),
            "b": i % 3 == 0,
            "s": np.array(["a", "", "\u00e9t\u00e9", "x y"])[i % 4],
        }

    @pytest.mark.parametrize("n", [2, 3, 8, 101])
    def test_same_bytes_as_the_one_process_writer(self, tmp_path, forced_splits, n):
        blocks = [self.table(n), self.table(n + 1)]
        write_columns(tmp_path / "split.csv", blocks)
        assert len(forced_splits) == 2  # one child per block
        whole = {name: np.concatenate([block[name] for block in blocks]) for name in blocks[0]}
        row_format_write_columns(tmp_path / "oracle.csv", whole)
        assert (tmp_path / "split.csv").read_bytes() == (tmp_path / "oracle.csv").read_bytes()

    @settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(column_sets(lengths=[0, 1, 2, 3, 7, 8, 65]))
    def test_same_bytes_as_the_row_format_writer(self, tmp_path_factory, forced_splits, columns):
        assert_same_bytes(tmp_path_factory.mktemp("split"), [columns], columns)

    def test_a_failing_child_is_raised_here_and_reaped(
        self, tmp_path, forced_splits, monkeypatch, assert_no_child_left
    ):
        parent = os.getpid()
        real = kvdoc._write_rows

        def second_half_fails(out, columns, start, stop):
            if os.getpid() != parent:
                raise ValueError(f"rows {start}..{stop - 1}")
            real(out, columns, start, stop)

        monkeypatch.setattr(kvdoc, "_write_rows", second_half_fails)
        with pytest.raises(ValueError, match=r"^rows 4\.\.7$"):
            write_columns(tmp_path / "x.csv", [self.table(8)])
        assert_no_child_left()


class TestInTwo:
    def test_an_interrupted_parent_kills_and_reaps_the_child(self, forced_splits, assert_no_child_left):
        def first():
            raise KeyboardInterrupt

        start = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            kvdoc._in_two(first, lambda out: time.sleep(60), io.BytesIO())
        assert time.monotonic() - start < 30  # the child was not waited out
        assert len(forced_splits) == 1
        assert_no_child_left()

    def test_one_cpu_runs_both_halves_here_in_turn(self, forced_splits, monkeypatch):
        monkeypatch.setattr(kvdoc, "_usable_cpus", lambda: 1)
        calls, sink = [], io.BytesIO()

        def first():
            calls.append(("first", os.getpid()))
            return 7

        def second(out):
            calls.append(("second", os.getpid()))
            out.write(b"second half")

        assert kvdoc._in_two(first, second, sink) == 7
        assert calls == [("first", os.getpid()), ("second", os.getpid())]
        assert sink.getvalue() == b"second half"
        assert forced_splits == []
