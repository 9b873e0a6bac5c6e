"""Round-trip and error-reporting tests for the flat-file layer."""

import csv
import hashlib
import math
import random
import re
import time
from dataclasses import dataclass
from pathlib import Path
from unittest.mock import patch

import numpy as np
import oracles
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpqlsim import dataio
from dpqlsim.dataio import (
    DATASET_HEADER,
    DataFormatError,
    config_casts,
    config_from_mapping,
    config_to_mapping,
    format_number,
    parse_keyvalues,
    read_dataset_csv,
    read_keyvalues,
    sha256_digest,
    write_dataset_csv,
    write_keyvalues,
    write_table,
)
from dpqlsim.hmm_detector import DecodedSeries, write_decoded_csv
from dpqlsim.trajectory_sim import ExperimentConfig, simulate_hours


class TestKeyValues:
    def test_parse_basic(self):
        text = "a = 1\n\n# comment\nb = two words  # trailing\n"
        assert parse_keyvalues(text) == {"a": "1", "b": "two words"}

    def test_round_trip(self, tmp_path):
        path = tmp_path / "config.kv"
        write_keyvalues(path, {"x": 1.5, "name": "abc", "flag": True}, header="two\nlines")
        parsed = read_keyvalues(path)
        assert parsed == {"x": "1.5", "name": "abc", "flag": "true"}

    def test_duplicate_key_reports_line(self):
        with pytest.raises(DataFormatError) as err:
            parse_keyvalues("a = 1\na = 2\n", source="f.kv")
        assert err.value.line == 2
        assert "duplicate" in str(err.value)
        assert "f.kv" in str(err.value)

    def test_missing_equals_reports_line(self):
        with pytest.raises(DataFormatError) as err:
            parse_keyvalues("a = 1\nnonsense\n")
        assert err.value.line == 2

    def test_empty_key_rejected(self):
        with pytest.raises(DataFormatError):
            parse_keyvalues("= 3\n")

    def test_non_utf8_byte_reports_file_and_line(self, tmp_path):
        path = tmp_path / "config.kv"
        path.write_bytes(b"a = 1\r\nb = caf\xe9\n")
        with pytest.raises(DataFormatError) as err:
            read_keyvalues(path)
        assert (err.value.source, err.value.line) == (str(path), 2)
        assert str(err.value) == f"{path}: line 2: byte 0xe9 is not UTF-8"


@dataclass(frozen=True)
class _Knobs:
    rate: float = 1.0
    count: int = 2


class TestConfigSchema:
    def test_keys_and_casts_follow_the_fields(self):
        assert list(config_casts(_Knobs)) == ["rate", "count"]
        knobs = config_from_mapping(_Knobs, {"rate": "0.5", "count": "7"})
        assert knobs == _Knobs(rate=0.5, count=7)
        assert config_to_mapping(knobs) == {"rate": 0.5, "count": 7}

    def test_errors_name_the_key(self):
        with pytest.raises(ValueError, match="'rtae'"):
            config_from_mapping(_Knobs, {"rtae": "1"})
        with pytest.raises(ValueError, match="'count'"):
            config_from_mapping(_Knobs, {"count": "2.5"})


class TestFormatNumber:
    def test_compact(self):
        assert format_number(1.0) == "1"
        assert format_number(0.25) == "0.25"
        assert format_number(3) == "3"

    def test_round_trips_ten_digits(self):
        x = 0.0040592868
        assert float(format_number(x)) == pytest.approx(x, rel=1e-9)


class TestDatasetCsv:
    ROWS = [(0, 0, 0.04, 0), (1, 1, 0.08, 1), (2, 0, 0.12, None)]

    def test_round_trip(self, tmp_path):
        path = tmp_path / "d.csv"
        write_dataset_csv(path, *oracles.dataset_columns(self.ROWS))
        assert read_dataset_csv(path) == self.ROWS

    def test_header_written(self, tmp_path):
        path = tmp_path / "d.csv"
        write_dataset_csv(path, *oracles.dataset_columns(self.ROWS))
        assert path.read_text().splitlines()[0] == ",".join(DATASET_HEADER)

    def test_columns_are_checked(self, tmp_path):
        with pytest.raises(ValueError, match="hidden"):
            write_dataset_csv(tmp_path / "d.csv", [0], [1], [0.04], [2])
        # The reader refuses an outcome of 2, so the writer does too.
        t = np.array([0.04, 0.08, 0.12])
        with pytest.raises(ValueError, match="outcome values must be 0 or 1"):
            write_dataset_csv(tmp_path / "d.csv", np.arange(3), np.array([0, 2, 1]), t,
                              np.array([0, 0, 1]))
        assert not (tmp_path / "d.csv").exists()
        with pytest.raises(ValueError, match="length"):
            write_dataset_csv(tmp_path / "d.csv", [0, 1], [1], [0.04], [0])
        decoded = DecodedSeries(np.zeros(2, np.int8), np.zeros(2), 0.0)
        with pytest.raises(ValueError, match="length"):
            write_decoded_csv(tmp_path / "x.csv", [0, 1], decoded, indices=[5])

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,b,c,d\n0,0,0.0,NA\n")
        with pytest.raises(DataFormatError) as err:
            read_dataset_csv(path)
        assert err.value.line == 1

    def test_bad_outcome_reports_row(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("index,outcome,time_s,hidden\n0,0,0.04,NA\n1,2,0.08,NA\n")
        with pytest.raises(DataFormatError) as err:
            read_dataset_csv(path)
        assert err.value.line == 3

    def test_bad_hidden_reports_row(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("index,outcome,time_s,hidden\n0,0,0.04,maybe\n")
        with pytest.raises(DataFormatError) as err:
            read_dataset_csv(path)
        assert err.value.line == 2

    def test_wrong_column_count(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("index,outcome,time_s,hidden\n0,0,0.04\n")
        with pytest.raises(DataFormatError) as err:
            read_dataset_csv(path)
        assert err.value.line == 2

    def test_empty_file(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("")
        with pytest.raises(DataFormatError):
            read_dataset_csv(path)

    @pytest.mark.parametrize(
        "raw, line",
        [
            (b"index,outcome,time_s,hidden\n0,1,0.04,NA\xff\n", 2),
            (b"index\xc3,outcome,time_s,hidden\n0,1,0.04,NA\n", 1),
            (b"index,outcome,time_s,hidden\r\n0,1,0.04,NA\r1,0,0.08,0\r\n2,0,\x80,0\n", 4),
            (b'index,outcome,time_s,hidden\n"0\n\n",1,0.04,"N\xe9"\n', 4),
        ],
        ids=["hidden_cell", "header", "cr_line_ends", "record_over_three_lines"],
    )
    def test_non_utf8_byte_is_a_data_format_error_at_its_line(self, tmp_path, raw, line):
        path = tmp_path / "d.csv"
        path.write_bytes(raw)
        with pytest.raises(DataFormatError, match="is not UTF-8") as err:
            read_dataset_csv(path)
        assert err.value.line == line and err.value.source == str(path)


class TestWriteTable:
    def test_floats_use_shared_format(self, tmp_path):
        path = tmp_path / "t.csv"
        write_table(path, ("a", "b"), (np.array([1, 2]), np.array([0.5, 1.0])))
        assert path.read_text() == "a,b\n1,0.5\n2,1\n"

    @pytest.mark.parametrize("cell", [b"a,b", b'say "hi"', b"a\rb", b"a\nb", b"a\0b", b"\0a"])
    def test_text_cells_that_need_quoting_are_refused(self, tmp_path, cell):
        # The writer does not quote: a cell that csv would quote, or one
        # holding a NUL that the writer would drop as a pad, is refused.
        path = tmp_path / "t.csv"
        with pytest.raises(ValueError, match="may not hold"):
            write_table(path, ("n", "s"), (np.arange(2), np.array([b"ok", cell])))
        assert not path.exists()

    def test_unequal_or_missing_columns_are_refused(self, tmp_path):
        path = tmp_path / "t.csv"
        with pytest.raises(ValueError, match=r"one length, got \[2, 3\]"):
            write_table(path, ("a", "b"), (np.arange(2), np.arange(3.0)))
        with pytest.raises(ValueError, match=r"one length, got \[\]"):
            write_table(path, (), ())
        assert not path.exists()


class TestDigest:
    def test_matches_hashlib(self, tmp_path):
        path = tmp_path / "x.bin"
        payload = b"stable bytes"
        path.write_bytes(payload)
        assert sha256_digest(path) == hashlib.sha256(payload).hexdigest()

    def test_detects_change(self, tmp_path):
        path = tmp_path / "x.bin"
        path.write_bytes(b"one")
        d1 = sha256_digest(path)
        path.write_bytes(b"two")
        assert sha256_digest(path) != d1


def _same(a, b):
    """Row lists equal value for value and type (repr also matches nan to nan)."""
    return repr(a) == repr(b)


_times = st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from(
    [0.04, 7200.0, -0.0, 1e-300, 5e-324]
)
_PADS = ["", " ", "  ", "\t", " \t "]
# A body line in the layout the writers emit; the byte parse takes a body of
# these alone, its last line break optional.
_WRITER_LINE = re.compile(r"[0-9]{1,16},[01],[^\x00-,]+,(0|1|NA)")
_SPECIAL_TIMES = [0.0, -0.0, 0.04, 1e-300, 5e-324, 1e300, math.inf, -math.inf, math.nan]


@st.composite
def dataset_texts(draw, breaks=False):
    """(file text, whether the byte parse should take it): a random valid
    dataset file with quoted and padded cells, blank lines, CRLF and NA.
    With ``breaks`` a quoted cell may end in a line break, so its record
    spans lines; the flag is then not predicted.

    Hypothesis draws the shape and the rates; a seeded generator fills the
    cells, which keeps each example cheap to draw.
    """
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    p_quote, p_pad, p_blank = (draw(st.sampled_from([0.0, 0.1, 0.5])) for _ in range(3))
    p_break = draw(st.sampled_from([0.1, 0.5])) if breaks else 0.0
    header = draw(st.sampled_from([DATASET_HEADER, ('"index"', " outcome ", "time_s", "hidden\t")]))
    lines = [",".join(header)]
    for _ in range(draw(st.integers(0, 200))):
        if rng.random() < p_blank:
            lines.append("")
        if rng.random() < 0.8:
            time_s = rng.uniform(0.0, 1e4)
        else:
            time_s = rng.choice(_SPECIAL_TIMES)
        cells = [
            str(rng.randint(-(10**6), 10**15)),
            rng.choice(["0", "1", "00", "+1", "-0"]),
            rng.choice([f"{time_s:.10g}", repr(time_s)]),
            rng.choice(["0", "1", "NA"]),
        ]
        for j, cell in enumerate(cells):
            if rng.random() < p_pad:
                cells[j] = rng.choice(_PADS) + cell + rng.choice(_PADS)
            if rng.random() < p_quote:
                cells[j] = f'"{cells[j]}"'
                if p_break and rng.random() < p_break:
                    cells[j] = cells[j][:-1] + newline * rng.randint(1, 2) + '"'
        lines.append(",".join(cells))
    text = newline.join(lines) + draw(st.sampled_from(["", newline, newline * 2]))
    body = text.partition("\n")[2].splitlines()
    return text, "\r" not in text and all(map(_WRITER_LINE.fullmatch, body))


_JUNK = ["", " ", "x", "2", "-1", "1.5", "0x1", "NA", "nan", "1e3", "1_0", "00", "+1",
         "٣", '"1"', 'a"b', '"N""A"', "1,2", "3 4", "NaN", "inf", "\xa0"]


class TestColumnarReaderAgainstOracle:
    """read_dataset_csv against the csv.reader loop it replaced."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(dataset_texts())
    def test_valid_files_read_as_the_oracle(self, tmp_path_factory, case):
        text, columnar = case
        path = tmp_path_factory.mktemp("d") / "d.csv"
        path.write_bytes(text.encode())
        assert _same(read_dataset_csv(path), oracles.read_dataset_csv(path))
        assert (dataio._read_table(path.read_bytes(), str(path)) is not None) == columnar

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(dataset_texts(breaks=True))
    def test_records_spanning_lines_read_as_the_oracle(self, tmp_path_factory, case):
        text, _ = case
        path = tmp_path_factory.mktemp("d") / "d.csv"
        path.write_bytes(text.encode())
        expected = oracles.read_dataset_csv(path)
        assert _same(read_dataset_csv(path), expected)
        # The csv.reader parse on its own, whichever path the file takes.
        index, outcome, time_s, hidden = dataio._parse_rows(path.read_bytes(), str(path))
        hidden = [None if h < 0 else h for h in hidden.tolist()]
        assert _same(list(zip(index.tolist(), outcome.tolist(), time_s.tolist(), hidden)), expected)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(dataset_texts(), st.data())
    def test_single_cell_corruption(self, tmp_path_factory, case, data):
        text, _ = case
        lines = text.split("\n")
        rows = [k for k, line in enumerate(lines) if k and line.strip()]
        if not rows:
            return
        k = data.draw(st.sampled_from(rows))
        cells = lines[k].rstrip("\r").split(",")
        if '"' in lines[k]:  # a quoted cell may hold no comma; pick among whole cells
            cells = next(csv.reader([lines[k].rstrip("\r")]))
            cells = [f'"{c}"' for c in cells]
        j = data.draw(st.integers(0, len(cells) - 1))
        junk = data.draw(st.sampled_from(_JUNK + [None]))
        if junk is None:
            del cells[j]
        else:
            cells[j] = junk
        lines[k] = ",".join(cells) + ("\r" if lines[k].endswith("\r") else "")
        path = tmp_path_factory.mktemp("d") / "d.csv"
        path.write_bytes("\n".join(lines).encode())
        try:
            expected = oracles.read_dataset_csv(path)
        except DataFormatError as exc:
            with pytest.raises(DataFormatError) as err:
                read_dataset_csv(path)
            assert (err.value.line, str(err.value)) == (exc.line, str(exc))
        else:
            assert _same(read_dataset_csv(path), expected)

    @pytest.mark.parametrize(
        "text",
        [
            "index,outcome,time_s,hidden\r0,1,0.04,NA\r1,0,0.08,1\r",
            "index,outcome,time_s,hidden\n\n\n0,1,0.04,NA\n",
            "index,outcome,time_s,hidden\n",
            "index,outcome,time_s,hidden\n\n",
            '"index","outcome","time_s","hidden"\n"0","1","0.04","NA"\n',
            "index,outcome,time_s,hidden\n 0 ,1, 0.04 , NA \n",
            "index,outcome,time_s,hidden\n1_0,1,0.04,NA\n",
            "\xa0index,outcome,time_s,hidden\n0,1,0.04,1\n",
            'index,outcome,time_s,hidden\n"0\n",1,0.04, NA\n',
            'index,outcome,time_s,hidden\n0,1,0.04,"1\n"\n',
            'index,outcome,time_s,hidden\r\n"0\r\n\r\n",1,0.04, NA\r\n1,0,0.08,1\r\n',
            'index,outcome,time_s,hidden\n0,1,0.04,"NA\n',
            'index,outcome,time_s,hidden\n"0\n","1\n"," 0.04\n\n",NA\n1,0,0.08,1\n',
        ],
    )
    def test_edge_files(self, tmp_path, text):
        path = tmp_path / "d.csv"
        path.write_bytes(text.encode())
        assert _same(read_dataset_csv(path), oracles.read_dataset_csv(path))

    @pytest.mark.parametrize(
        "text, line",
        [
            ("", 1),
            ("\nindex,outcome,time_s,hidden\n", 1),
            ("index,outcome,time_s,hidden\n0,1,0.04,NA\n  \n", 3),
            ("index,outcome,time_s,hidden\r\n0,1,0.04,NA\r\n1,0,0.08\r\n", 3),
            ("index,outcome,time_s,hidden\n0,1,0.04,NA\n1,0,0.08,NA\x1c\n2,2,0.12,NA\n", 4),
            ("index,outcome,time_s,hidden\n0,1,0.04,NAN\n", 2),
            ("index,outcome,time_s,hidden\n0,1,0.04\x1c,NA\n", 2),
            ('index,outcome,time_s,hidden\n0,1,0.04,"N\nA"\n1,0,0.08,1\n', 2),
            ('index,outcome,time_s,hidden\n0,1,0.04,a"b\n1,0,0.08,1\n', 2),
            ('index,outcome,time_s,hidden\n0,1,0.04,"N""A', 2),
            ('index,outcome,time_s,hidden\n"0\n"  ,1,0.04,"N""\n"\n', 2),
            ('index,outcome,time_s,hidden\r\n"x\r\n",1,0.04,NA\r\n', 2),
            ("index,outcome,time_s,hidden\n99999999999999999999,1,1e400,NA\n", 2),
            (f"index,outcome,time_s,hidden\n0,1,0.04,NA\n{-(2**63) - 1},0,0.08,1\n", 3),
        ],
    )
    def test_edge_errors(self, tmp_path, text, line):
        path = tmp_path / "d.csv"
        path.write_bytes(text.encode())
        with pytest.raises(DataFormatError) as expected:
            oracles.read_dataset_csv(path)
        with pytest.raises(DataFormatError) as err:
            read_dataset_csv(path)
        assert err.value.line == expected.value.line == line
        assert str(err.value) == str(expected.value)

    def test_errors_name_the_first_line_of_their_record(self, tmp_path):
        # csv.reader numbers records, so after a record that spans two lines
        # the oracle names record 3; the reader names line 4, where it starts.
        path = tmp_path / "d.csv"
        path.write_text('index,outcome,time_s,hidden\n"0\n",1,0.04, NA\n1,0,0.08,2\n')
        with pytest.raises(DataFormatError) as expected:
            oracles.read_dataset_csv(path)
        with pytest.raises(DataFormatError) as err:
            read_dataset_csv(path)
        assert (expected.value.line, err.value.line) == (3, 4)
        assert str(err.value) == str(expected.value).replace("line 3", "line 4")
        path.write_text('index,outcome,time_s,hidden\n"x\n",1,0.04, NA\n')
        with pytest.raises(DataFormatError, match=r"line 2: malformed row \['x\\n'"):
            read_dataset_csv(path)

    def test_unclosed_quote_is_reported_in_linear_time(self, tmp_path):
        # The open cell takes in every later line until it passes csv's
        # field limit, where the oracle itself raises csv.Error.
        path = tmp_path / "d.csv"
        body = "".join(f"{k},0,{0.04 * k:.2f},0\n" for k in range(1, 20001))
        path.write_text('index,outcome,time_s,hidden\n0,1,0.04,"NA\n' + body)
        with pytest.raises(csv.Error):
            oracles.read_dataset_csv(path)
        start = time.perf_counter()
        with pytest.raises(DataFormatError) as err:
            read_dataset_csv(path)
        assert time.perf_counter() - start < 5.0
        assert str(err.value) == f"{path}: line 2: field larger than field limit (131072)"

    def test_header_past_the_field_limit_is_a_data_format_error(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("x" * 200000 + "\n0,1,0.04,NA\n")
        with pytest.raises(DataFormatError, match=r"line 1: field larger than field limit"):
            read_dataset_csv(path)


def _bit_equal(columns, expected):
    """Columns equal in dtype and bytes; time_s compared as its uint64 bits."""
    columns, expected = list(columns), list(expected)
    columns[2], expected[2] = columns[2].view(np.uint64), expected[2].view(np.uint64)
    return all(
        a.dtype == b.dtype and np.array_equal(a, b) for a, b in zip(columns, expected)
    )


def _parsed(path):
    """(byte parse, csv.reader parse) of a file; an error stands as its message."""
    out = []
    for parse in (dataio._read_table, dataio._parse_rows):
        try:
            out.append(parse(path.read_bytes(), str(path)))
        except DataFormatError as exc:
            out.append(str(exc))
    return out


_WRITER_TIMES = st.floats() | st.sampled_from(
    [-0.0, 5e-324, 2.2250738585072014e-308, 1e300, 1e-300, math.inf, -math.inf, math.nan,
     1e-5, 9999999999.0, 1e10, 7200.0, 0.04, 2.0**53, 2.0**53 + 2]
)
_DIGITS = st.text("0123456789", max_size=18)
_EDGE_TIME_CELLS = [
    "9007199254740992", "9007199254740993", "-0", "-.5", "5.", ".", "-", "", "1.2.3", "--1",
    "1-2", "0.0000", "nan", "-inf", "1e-05", "5e-324", "1E5", "0x10", "1.2345678.9",
    "9.513282814504773",  # 17 bytes: its digits past 2**53 would round twice
]
_NON_ASCII = ["\xa0", "\u0663", "\xe9", "\u2028"]  # float() strips, reads, refuses, strips


class TestByteParseAgainstCsvReader:
    """The block byte parse against the csv.reader parse, bit for bit."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        st.lists(st.tuples(st.integers(0, 10**17), st.sampled_from([0, 1]), _WRITER_TIMES,
                           st.sampled_from([-1, 0, 1])), max_size=60),
        st.sampled_from([8, 64, 1 << 18]),
        st.data(),
    )
    def test_written_columns(self, tmp_path_factory, rows, block, data):
        path = tmp_path_factory.mktemp("d") / "d.csv"
        write_dataset_csv(path, *(np.array(c) for c in zip(*rows)) if rows else [[]] * 4)
        lines = path.read_text().split("\n")
        edits = data.draw(st.sets(st.sampled_from(["repr", "no_final_break", "blank",
                                                   "non_ascii"])))
        for k in range(1, len(lines) - 1):
            if "repr" in edits and data.draw(st.booleans()):  # 16 digits and more
                index, outcome, _, hidden = lines[k].split(",")
                lines[k] = f"{index},{outcome},{rows[k - 1][2]!r},{hidden}"
            if "non_ascii" in edits and data.draw(st.booleans()):
                cells = lines[k].split(",")
                cells[2] = data.draw(st.sampled_from(_NON_ASCII)) + cells[2]
                lines[k] = ",".join(cells)
        if "blank" in edits:
            lines.insert(data.draw(st.integers(1, len(lines))), "")
        text = "\n".join(lines)
        if "no_final_break" in edits:
            text = text.removesuffix("\n")
        path.write_text(text)
        with patch.object(dataio, "_PARSE_BYTES", block):
            fast, expected = _parsed(path)
        body = text.partition("\n")[2]
        try:
            [float(line.split(",")[2]) for line in body.split("\n") if line]
        except ValueError:
            body = None  # a time cell float() refuses
        takes = body is not None and "+" not in body and "\n\n" not in text and all(
            index < 10**16 for index, *_ in rows
        )
        assert (fast is not None) == takes
        if fast is not None:
            assert _bit_equal(fast, expected)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.lists(st.tuples(st.sampled_from(["", "-"]), _DIGITS, st.sampled_from(["", "."]),
                              _DIGITS).map("".join)
                    | st.sampled_from(_EDGE_TIME_CELLS),
                    min_size=1, max_size=20))
    def test_time_cells_read_as_float(self, tmp_path_factory, cells):
        path = tmp_path_factory.mktemp("d") / "d.csv"
        body = "".join(f"{k},0,{cell},NA\n" for k, cell in enumerate(cells))
        path.write_text(",".join(DATASET_HEADER) + "\n" + body)
        try:
            expected = np.array([float(cell) for cell in cells])
        except ValueError:
            expected = None
        columns = dataio._read_table(path.read_bytes(), str(path))
        if expected is None:
            assert columns is None
        else:
            assert np.array_equal(columns[2].view(np.uint64), expected.view(np.uint64))

    def test_edge_bodies(self, tmp_path):
        # (body, whether the byte parse takes it)
        cases = [
            ("", True),
            ("\n", False),
            ("0,1,0.04,NA", True),
            ("0,1,0.04,NA\n\n", False),
            ("0,1,0.04,NA\r\n", False),
            ('0,1,"0.04",NA\n', False),
            ("0,1,0.04, NA\n", False),
            ("0,1,+0.04,NA\n", False),
            ("0,1,0.04,NA\x00\n", False),
            ("-1,1,0.04,NA\n", False),
            ("00,1,0.04,NA\n", True),
            ("1234567890123456,1,0.04,NA\n", True),
            ("12345678901234567,1,0.04,NA\n", False),
            ("0,1,0.04,NA,\n", False),
            ("0,1,0.04\n", False),
            ("0,2,0.04,NA\n", False),
            ("0,1,0.04,na\n", False),
            ("0,1,0.04,NB\n", False),
            ("0,1,0.04,XA\n", False),
            ("0,1,0.04,2\n", False),
            ("1a,1,0.04,NA\n", False),
            ("1a345678901,1,0.04,NA\n", False),
            ("0,1,-0.04,1\n", True),
            ("0,1,-12345678.12345678,0\n", True),
            ("0,1,x,NA\n", False),
            (f"0,1,{'1' * 200000},NA\n", False),  # past csv's field limit
        ]
        for body, takes in cases:
            path = tmp_path / "d.csv"
            path.write_text(",".join(DATASET_HEADER) + "\n" + body)
            fast, expected = _parsed(path)
            assert (fast is not None) == takes, body
            if takes:
                assert _bit_equal(fast, expected), body

    def test_open_quote_in_header_goes_to_the_csv_reader(self, tmp_path):
        # The header record runs on into the next line, as csv reads it.
        path = tmp_path / "d.csv"
        path.write_text('"index\n",outcome,time_s,hidden\n0,1,0.04,NA\n')
        assert dataio._read_table(path.read_bytes(), str(path)) is None
        assert _same(read_dataset_csv(path), oracles.read_dataset_csv(path))

    def test_two_hour_stream_takes_the_byte_parse(self, tmp_path):
        # A tripwire: the simulator's own file must not drop to csv.reader.
        path = tmp_path / "dataset.csv"
        simulate_hours(ExperimentConfig(rng_seed=7), 2.0).to_csv(path)
        fast, expected = _parsed(path)
        assert fast is not None and fast[0].size == 180000
        assert _bit_equal(fast, expected)

    def test_index_is_int64_on_either_path(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("index,outcome,time_s,hidden\n 0 ,1,0.04,NA\n1,0,0.08, 1\n")
        assert dataio._read_table(path.read_bytes(), str(path)) is None
        index = dataio._read_columns(path)[0]
        assert index.dtype == np.int64 and index.tolist() == [0, 1]
        path.write_text(f"index,outcome,time_s,hidden\n0,0,0.04,NA\n{2**63 - 1},1,0.08,NA\n")
        assert dataio._read_columns(path)[0].tolist() == [0, 2**63 - 1]
        # Past int64, with or without padding, the index names its line.
        for cell in (f" {2**63} ", f"{2**63}", f"{-(2**63) - 1}"):
            path.write_text(f"index,outcome,time_s,hidden\n0,0,0.04,NA\n{cell},1,0.08,NA\n")
            with pytest.raises(DataFormatError) as err:
                dataio._read_columns(path)
            assert err.value.line == 3
            assert str(err.value).endswith(f"index must fit in int64, got {cell!r}")

    def test_a_declined_file_is_read_once(self, tmp_path):
        # The byte parse declines a quoted cell; the csv.reader parse then
        # takes the same bytes, not a second read of the file.
        path = tmp_path / "d.csv"
        path.write_text('index,outcome,time_s,hidden\n0,1,"0.04",NA\n')
        assert dataio._read_table(path.read_bytes(), str(path)) is None
        with patch.object(Path, "read_bytes", autospec=True, side_effect=Path.read_bytes) as read:
            assert dataio._read_columns(path)[2].tolist() == [0.04]
        assert read.call_count == 1


_ints = st.integers(-(2**63), 2**63 - 1)


_TEXT = st.text(st.characters(min_codepoint=32, max_codepoint=126, exclude_characters=',"'),
                min_size=1)  # csv.writer quotes a lone empty cell
_TABLE_COLUMNS = {  # kind: (values, column of them, oracle cell of a column item)
    "i": (_ints, lambda v: np.array(v, np.int64), int),
    "f": (_times | st.sampled_from([-5e-324, 2.2e-308, -1e300]),
          lambda v: np.array(v, float), format_number),
    "S": (_TEXT, lambda v: np.array([x.encode() for x in v], "S"), bytes.decode),
}


@st.composite
def tables(draw):
    """(columns, oracle cells per column): int64, float and ASCII text columns."""
    n = draw(st.integers(0, 30))
    columns, cells = [], []
    for kind in draw(st.lists(st.sampled_from("ifS"), min_size=1, max_size=5)):
        values, build, cell = _TABLE_COLUMNS[kind]
        columns.append(build(draw(st.lists(values, min_size=n, max_size=n))))
        cells.append([cell(x) for x in columns[-1].tolist()])
    return columns, cells


class TestBlockWritersAgainstOracle:
    """The columnar writers against the csv.writer writers they replaced."""

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(st.lists(st.tuples(_ints, st.sampled_from([0, 1]), _times,
                              st.sampled_from([0, 1, None])), max_size=40))
    def test_dataset_bytes(self, tmp_path_factory, rows):
        out = tmp_path_factory.mktemp("w")
        write_dataset_csv(out / "new.csv", *oracles.dataset_columns(rows))
        oracles.write_dataset_csv(out / "old.csv", rows)
        assert (out / "new.csv").read_bytes() == (out / "old.csv").read_bytes()

    def test_dataset_bytes_across_blocks(self, tmp_path):
        rng = np.random.default_rng(5)
        n = 2 * dataio._BLOCK_ROWS + 17
        hidden = rng.integers(0, 3, n).tolist()
        rows = [
            (k, int(o), t, None if h == 2 else h)
            for k, o, t, h in zip(range(n), rng.integers(0, 2, n), rng.random(n) * 1e4, hidden)
        ]
        write_dataset_csv(tmp_path / "new.csv", *oracles.dataset_columns(rows))
        oracles.write_dataset_csv(tmp_path / "old.csv", rows)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(st.integers(0, 40), st.integers(0, 2**32 - 1), st.booleans(), st.data())
    def test_decoded_bytes(self, tmp_path_factory, n, seed, with_indices, data):
        rng = np.random.default_rng(seed)
        obs = rng.integers(0, 2, n).astype(np.int8)
        posteriors = np.array(data.draw(st.lists(_times, min_size=n, max_size=n)), dtype=float)
        decoded = DecodedSeries(
            states=rng.integers(0, 2, n).astype(np.int8), posteriors=posteriors,
            log_likelihood=0.0,
        )
        indices = data.draw(st.lists(_ints, min_size=n, max_size=n)) if with_indices else None
        out = tmp_path_factory.mktemp("w")
        write_decoded_csv(out / "new.csv", obs, decoded, indices=indices)
        oracles.write_decoded_csv(out / "old.csv", obs, decoded, indices=indices)
        assert (out / "new.csv").read_bytes() == (out / "old.csv").read_bytes()

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(tables())
    def test_table_bytes(self, tmp_path_factory, table):
        columns, cells = table
        header = [f"c{j}" for j in range(len(columns))]
        out = tmp_path_factory.mktemp("w")
        write_table(out / "new.csv", header, columns)
        oracles._write_csv(out / "old.csv", header, zip(*cells))
        assert (out / "new.csv").read_bytes() == (out / "old.csv").read_bytes()


def _formatted(column):
    """The column formatter's cells as text, its pads dropped."""
    block = dataio._cells(column)
    lines = np.hstack([block, np.full((len(block), 1), ord("\n"), np.uint8)]).ravel()
    return lines.compress(lines != dataio._PAD).tobytes().decode().split("\n")[:-1]


def _decades():
    """Every 10**e a float holds, with both neighbours."""
    for e in range(-323, 309):
        x = float(f"1e{e}")
        yield from (np.nextafter(x, 0.0), x, np.nextafter(x, math.inf))


_EDGE_FLOATS = [
    *_decades(),
    9.9999999995e-5, 99999.999995, 9999999999.5,  # round into the next decade
    1e-5, 1e-4, 9999999999.0, 1e10,  # either side of a switch of notation
    1e-290, 1e290, 9.999999999e-291, 1.000000001e290,  # either side of the fallback range
]


class TestColumnFormatterAgainstFormatNumber:
    """dataio._cells, the CSV writers' numeric kernel, against format_number."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.lists(st.floats(), max_size=60))
    def test_floats(self, values):
        column = np.array(values, dtype=float)
        assert _formatted(column) == [format_number(v) for v in values]

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.lists(_ints, max_size=60))
    def test_integers(self, values):
        column = dataio._int_column(values)
        assert column.dtype == np.int64
        assert _formatted(column) == [format_number(v) for v in values]

    def test_integer_extremes(self):
        fits = [-(2**63), 2**63 - 1, 0, -1, 9, 10, -10]
        assert _formatted(np.array(fits, np.int64)) == [str(v) for v in fits]
        assert _formatted(dataio._int_column(fits)) == [str(v) for v in fits]
        assert _formatted(np.array([0, 2**64 - 1], np.uint64)) == ["0", str(2**64 - 1)]

    @pytest.mark.parametrize("big", [2**63, -(2**63) - 1, 2**70])
    def test_writers_refuse_an_index_past_int64(self, tmp_path, big):
        # The reader refuses such an index, so neither writer emits one.
        with pytest.raises(OverflowError):
            dataio._int_column([0, big])
        with pytest.raises(OverflowError):
            write_dataset_csv(tmp_path / "d.csv", [0, big], [0, 1], [0.04, 0.08], [0, 1])
        decoded = DecodedSeries(np.zeros(2, np.int8), np.zeros(2), 0.0)
        with pytest.raises(OverflowError):
            write_decoded_csv(tmp_path / "x.csv", [0, 1], decoded, indices=[0, big])
        assert not (tmp_path / "d.csv").exists() and not (tmp_path / "x.csv").exists()

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(st.lists(st.integers(0, 1), max_size=40), st.lists(st.integers(-1, 10), max_size=40))
    def test_single_digit_columns(self, flags, digits):
        # Outcome and predicted-state columns are int8 0/1; the one-digit
        # branch takes 0..9, anything past it goes the general way.
        for values in (flags, digits, list(range(10))):
            for dtype in (np.int8, np.int64):
                column = np.array(values, dtype)
                assert _formatted(column) == [format_number(v) for v in values]

    def test_edge_floats(self):
        values = np.array(_EDGE_FLOATS + [-x for x in _EDGE_FLOATS])
        assert _formatted(values) == [format_number(v) for v in values.tolist()]

    def test_ties_round_half_even(self):
        values = np.array([1234567890.5, 123456789.25, 123456789.75])
        expected = ["1234567890", "123456789.2", "123456789.8"]
        assert _formatted(values) == [format_number(v) for v in values.tolist()] == expected

    @pytest.mark.parametrize("cycle", [0.04, 0.001, 0.1, 1 / 3])
    def test_two_hour_time_column(self, cycle):
        # The dataset's time cells are (k + 1) * cycle for every cycle of 2 h.
        n = round(7200 / cycle)
        for k in range(0, n, dataio._BLOCK_ROWS):
            times = np.arange(k + 1, min(k + dataio._BLOCK_ROWS, n) + 1) * cycle
            assert _formatted(times) == [format_number(t) for t in times.tolist()]


def test_written_stream_reads_back_exactly(tmp_path):
    dataset = simulate_hours(ExperimentConfig(rng_seed=12345), 2.0)
    path = tmp_path / "dataset.csv"
    dataset.to_csv(path)
    index, outcome, time_s, hidden = dataio._read_columns(path)
    n = dataset.outcome.size
    assert n == 180000
    assert index.dtype == np.int64 and np.array_equal(index, np.arange(n))
    assert outcome.dtype == np.int8 and np.array_equal(outcome, dataset.outcome)
    assert np.array_equal(hidden, dataset.hidden)
    times = np.arange(1, n + 1) * dataset.config.cycle
    assert time_s.tolist() == [float(f"{t:.10g}") for t in times.tolist()]
