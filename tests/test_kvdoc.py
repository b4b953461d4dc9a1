"""Tests for the flat key-value document format and the column writer."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from indecide.kvdoc import FORMAT_VERSION, dump_kv, load_kv, read_kv, write_columns, write_kv


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

    def test_missing_version(self):
        with pytest.raises(ValueError, match="format_version"):
            load_kv("a = 1\n")


class TestFiles:
    def test_write_read(self, tmp_path):
        path = tmp_path / "doc.kv"
        write_kv({"tau": 0.75}, path)
        assert read_kv(path)["tau"] == 0.75
        # LF endings regardless of platform
        assert b"\r" not in path.read_bytes()


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
def column_sets(draw):
    """1-4 equal-length columns of float64, int64, uint64, bool or str."""
    n = draw(st.sampled_from(LENGTHS))
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


class TestWriteColumns:
    @settings(max_examples=25, deadline=None)
    @given(column_sets(), st.lists(st.integers(0, max(LENGTHS)), max_size=3))
    def test_same_bytes_as_the_row_format_writer(self, tmp_path_factory, columns, cuts):
        # the new writer gets the columns cut into blocks, some of them empty;
        # the oracle gets them whole
        out = tmp_path_factory.mktemp("columns")
        edges = [0, *sorted(cuts), max(LENGTHS)]
        blocks = [{name: c[a:b] for name, c in columns.items()} for a, b in zip(edges, edges[1:])]
        outcomes = []
        for path, write, arg in [(out / "new.csv", write_columns, blocks), (out / "oracle.csv", row_format_write_columns, columns)]:
            try:
                write(path, arg)
                outcomes.append(path.read_bytes())
            except UnicodeEncodeError:  # lone surrogates have no UTF-8 bytes: both writers must refuse them
                outcomes.append(UnicodeEncodeError)
        assert outcomes[0] == outcomes[1]

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
