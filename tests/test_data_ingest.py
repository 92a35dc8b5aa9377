"""Tests for contest CSV parsing and experiment output round-trips."""

import csv
import json
import math
from pathlib import Path

import pytest

from lilklucb.data_ingest import (
    Caption,
    ContestDataset,
    ExperimentOutput,
    parse_contest_csv,
    read_output,
    write_output,
)
from lilklucb.environments import from_contest

CONTEST_512 = Path(__file__).parent / "data" / "contest_512.csv"


def _write(tmp_path, text, name="votes.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestParseContestCsv:
    def test_two_rows_with_extreme_votes(self, tmp_path):
        path = _write(
            tmp_path,
            "caption,unfunny,somewhat_funny,funny\nawful,10,0,0\ngreat,0,0,10\n",
        )
        ds = parse_contest_csv(path)
        env = from_contest(ds)
        assert env.true_means == (1.0, 0.0)

    def test_zero_vote_rows_dropped_with_warning(self, tmp_path):
        path = _write(
            tmp_path,
            "caption,unfunny,somewhat_funny,funny\na,1,0,0\nempty,0,0,0\nb,0,1,0\n",
        )
        with pytest.warns(UserWarning, match="dropped 1 zero-vote"):
            ds = parse_contest_csv(path)
        assert len(ds.captions) == 2

    def test_missing_column_diagnostic(self, tmp_path):
        path = _write(tmp_path, "caption,unfunny,funny\na,1,2\nb,2,1\n")
        with pytest.raises(ValueError, match="missing required column.*somewhat_funny"):
            parse_contest_csv(path)

    def test_non_integer_count_diagnostic(self, tmp_path):
        path = _write(
            tmp_path,
            "caption,unfunny,somewhat_funny,funny\na,1,2,3\nb,1,x,1\n",
        )
        with pytest.raises(ValueError, match="non-integer vote count"):
            parse_contest_csv(path)

    def test_too_few_captions_diagnostic(self, tmp_path):
        path = _write(
            tmp_path,
            "caption,unfunny,somewhat_funny,funny\nonly,1,2,3\nempty,0,0,0\n",
        )
        with pytest.warns(UserWarning):
            with pytest.raises(ValueError, match="fewer than 2 captions"):
                parse_contest_csv(path)

    def test_negative_count_rejected(self, tmp_path):
        path = _write(
            tmp_path,
            "caption,unfunny,somewhat_funny,funny\na,1,2,3\nb,-1,2,1\n",
        )
        with pytest.raises(ValueError, match="negative vote count"):
            parse_contest_csv(path)

    def test_contest_id_from_filename(self, tmp_path):
        path = _write(
            tmp_path,
            "caption,unfunny,somewhat_funny,funny\na,1,0,0\nb,0,1,0\n",
            name="contest_731.csv",
        )
        assert parse_contest_csv(path).contest_id == 731

    def test_utf8_bom_is_skipped(self, tmp_path):
        # Excel's "CSV UTF-8" export starts the file with a byte-order mark
        text = "caption,unfunny,somewhat_funny,funny\na,1,0,0\nb,0,1,0\n"
        plain = parse_contest_csv(_write(tmp_path, text))
        assert parse_contest_csv(_write(tmp_path, "\ufeff" + text, name="bom.csv")) == plain

    def test_missing_file_is_oserror(self, tmp_path):
        with pytest.raises(OSError):
            parse_contest_csv(tmp_path / "absent.csv")

    @pytest.mark.skipif(not CONTEST_512.exists(), reason="contest 512 data not bundled")
    def test_contest_512_top_mean(self):
        ds = parse_contest_csv(CONTEST_512)
        env = from_contest(ds)
        assert abs(env.true_means[0] - 0.8) <= 0.01


class TestDatasetInvariants:
    def test_needs_two_captions(self):
        with pytest.raises(ValueError):
            ContestDataset(1, (Caption("a", (1, 0, 0)),))

    def test_caption_needs_votes(self):
        with pytest.raises(ValueError):
            Caption("a", (0, 0, 0))


def _sample_output():
    return ExperimentOutput(
        metadata={"command": "simulate", "scheme": "kl", "delta": 0.01, "seed": 7},
        columns=("samples", "membership_probability"),
        rows=((10, 0.25), (20, 1.0 / 3.0), (30, 1.0)),
    )


class TestExperimentOutput:
    def test_rows_must_match_columns(self):
        with pytest.raises(ValueError):
            ExperimentOutput({}, ("a", "b"), ((1, 2, 3),))

    def test_rows_must_be_sorted(self):
        with pytest.raises(ValueError):
            ExperimentOutput({}, ("a", "b"), ((2, 0.0), (1, 0.0)))

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_roundtrip(self, tmp_path, fmt):
        out = _sample_output()
        path = tmp_path / f"out.{fmt}"
        write_output(out, path, fmt)
        back = read_output(path, fmt)
        assert back.metadata == out.metadata
        assert back.columns == out.columns
        assert len(back.rows) == len(out.rows)
        for got, want in zip(back.rows, out.rows):
            assert got[0] == want[0]
            assert isinstance(got[1], float)
            assert got[1] == pytest.approx(want[1], rel=1e-14)

    def test_empty_rows_keep_header_and_metadata(self, tmp_path):
        out = ExperimentOutput({"key": 1}, ("a", "b"), ())
        path = tmp_path / "empty.csv"
        write_output(out, path, "csv")
        lines = path.read_text().splitlines()
        assert lines[0] == "# key = 1"
        assert lines[1] == "a,b"
        assert len(lines) == 2
        assert read_output(path, "csv") == out

    def test_csv_loads_as_plain_two_column_table(self, tmp_path):
        # an independent reader (stdlib csv, comments skipped) sees a clean
        # two-column numeric table
        path = tmp_path / "curve.csv"
        write_output(_sample_output(), path, "csv")
        with open(path, newline="") as fh:
            rows = [r for r in csv.reader(fh) if not r[0].startswith("#")]
        assert rows[0] == ["samples", "membership_probability"]
        parsed = [(int(a), float(b)) for a, b in rows[1:]]
        assert parsed[0] == (10, 0.25)

    def test_fifteen_digit_round_trip(self, tmp_path):
        value = 0.12345678901234567  # more digits than are kept
        out = ExperimentOutput({}, ("x", "y"), ((1, value),))
        path = tmp_path / "prec.csv"
        write_output(out, path, "csv")
        got = read_output(path, "csv").rows[0][1]
        assert got == pytest.approx(value, rel=1e-14)

    def test_decimal_separator_is_always_a_dot(self, tmp_path):
        path = tmp_path / "locale.csv"
        write_output(_sample_output(), path, "csv")
        body = path.read_text()
        assert "0.25" in body
        assert "," not in body.splitlines()[-1].rsplit(",", 1)[1]

    def test_json_is_a_single_object(self, tmp_path):
        path = tmp_path / "out.json"
        write_output(_sample_output(), path, "json")
        payload = json.loads(path.read_text())
        assert set(payload) == {"metadata", "columns", "rows"}
        assert payload["rows"][0] == [10, 0.25]

    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            write_output(_sample_output(), tmp_path / "x.tsv", "tsv")

    def test_write_failure_surfaces_path(self):
        with pytest.raises(OSError):
            write_output(_sample_output(), "/nonexistent/dir/out.csv", "csv")

    def test_infinite_values_round_trip_json(self, tmp_path):
        out = ExperimentOutput({}, ("a", "b"), ((1, math.inf),))
        path = tmp_path / "inf.json"
        write_output(out, path, "json")
        assert read_output(path, "json").rows[0][1] == math.inf
