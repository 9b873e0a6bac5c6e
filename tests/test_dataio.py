"""Round-trip and error-reporting tests for the flat-file layer."""

import hashlib
from dataclasses import dataclass

import pytest

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


@dataclass(frozen=True)
class _Knobs:
    rate: float = 1.0
    count: int = 2
    flag: bool = False
    cap: float | None = None


class TestConfigSchema:
    def test_keys_and_casts_follow_the_fields(self):
        assert list(config_casts(_Knobs)) == ["rate", "count", "flag", "cap"]
        knobs = config_from_mapping(
            _Knobs, {"rate": "0.5", "count": "7", "flag": " True ", "cap": "3"}
        )
        assert knobs == _Knobs(rate=0.5, count=7, flag=True, cap=3.0)

    def test_unset_optionals_left_out(self):
        assert config_to_mapping(_Knobs()) == {"rate": 1.0, "count": 2, "flag": False}
        knobs = _Knobs(cap=0.25)
        assert config_from_mapping(_Knobs, config_to_mapping(knobs)) == knobs

    def test_errors_name_the_key(self):
        with pytest.raises(ValueError, match="'rtae'"):
            config_from_mapping(_Knobs, {"rtae": "1"})
        with pytest.raises(ValueError, match="'flag'.*boolean"):
            config_from_mapping(_Knobs, {"flag": "maybe"})
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
        write_dataset_csv(path, self.ROWS)
        assert read_dataset_csv(path) == self.ROWS

    def test_header_written(self, tmp_path):
        path = tmp_path / "d.csv"
        write_dataset_csv(path, self.ROWS)
        assert path.read_text().splitlines()[0] == ",".join(DATASET_HEADER)

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


class TestWriteTable:
    def test_floats_use_shared_format(self, tmp_path):
        path = tmp_path / "t.csv"
        write_table(path, ("a", "b"), [(1, 0.5), (2, 1.0)])
        assert path.read_text() == "a,b\n1,0.5\n2,1\n"


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
