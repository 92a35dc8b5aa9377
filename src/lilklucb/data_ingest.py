"""Parsing of caption-contest vote tables and persistence of experiment outputs.

A contest CSV has a header row naming the four columns of CONTEST_COLUMNS:
the caption text and its 1/2/3-star vote counts.  Experiment outputs
round-trip through CSV (metadata as '#' comment lines, then a header and
rows) or JSON (one object with "metadata", "columns" and "rows").
"""

from __future__ import annotations

import csv
import io
import json
import re
import warnings
from pathlib import Path
from typing import Any

from . import Frozen, InputError

CONTEST_COLUMNS = ("caption", "unfunny", "somewhat_funny", "funny")


class Caption(Frozen):
    """One caption with its 1/2/3-star vote counts."""

    _fields = ("text", "star_counts")

    def __init__(self, text: str, star_counts: tuple[int, int, int]) -> None:
        if len(star_counts) != 3 or any(c < 0 for c in star_counts):
            raise InputError("star_counts must be three non-negative integers")
        if sum(star_counts) < 1:
            raise InputError(f"caption {text!r} retained with zero votes")
        object.__setattr__(self, "text", text)
        object.__setattr__(self, "star_counts", star_counts)


class ContestDataset(Frozen):
    """Parsed vote counts for one contest."""

    _fields = ("contest_id", "captions")

    def __init__(self, contest_id: int, captions: tuple[Caption, ...]) -> None:
        if len(captions) < 2:
            raise InputError("a contest dataset needs at least 2 captions")
        object.__setattr__(self, "contest_id", contest_id)
        object.__setattr__(self, "captions", captions)


def parse_contest_csv(path) -> ContestDataset:
    """Parse a comma-separated vote table with a header row.

    The header must hold CONTEST_COLUMNS (other columns are ignored): the
    caption text and the 1/2/3-star counts, in that order.  Rows whose
    three counts sum to zero are dropped with a warning reporting how many
    were removed.  A file that is not UTF-8 text is an input error.  The
    contest id is the first run of digits in the file name (0 if there is
    none).
    """
    path = Path(path)
    try:
        text = path.read_bytes().decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: not UTF-8 text: {exc}") from None
    text_col, *count_cols = CONTEST_COLUMNS
    reader = csv.DictReader(io.StringIO(text, newline=""))
    header = reader.fieldnames or []
    missing = [c for c in CONTEST_COLUMNS if c not in header]
    if missing:
        raise InputError(f"{path}: missing required column(s): {', '.join(missing)}")
    captions = []
    dropped = 0
    for lineno, row in enumerate(reader, start=2):
        counts = []
        for col in count_cols:
            raw = (row[col] or "").strip()
            try:
                counts.append(int(raw))
            except ValueError:
                raise InputError(
                    f"{path}: non-integer vote count {raw!r} in column "
                    f"{col!r} on line {lineno}"
                ) from None
        if any(c < 0 for c in counts):
            raise InputError(f"{path}: negative vote count on line {lineno}")
        if sum(counts) == 0:
            dropped += 1
            continue
        captions.append(Caption(text=row[text_col], star_counts=tuple(counts)))
    if dropped:
        warnings.warn(f"{path}: dropped {dropped} zero-vote caption row(s)")
    if len(captions) < 2:
        raise InputError(f"{path}: fewer than 2 captions with votes")
    match = re.search(r"\d+", path.stem)
    contest_id = int(match.group()) if match else 0
    return ContestDataset(contest_id=contest_id, captions=tuple(captions))


class ExperimentOutput(Frozen):
    """A plot-ready table with run metadata.

    Rows are tuples matching ``columns``; they must already be sorted by
    their first element (snapshot counts, arm indices, ...).
    """

    _fields = ("metadata", "columns", "rows")

    def __init__(self, metadata: dict[str, Any], columns: tuple[str, ...],
                 rows: tuple[tuple, ...]) -> None:
        for row in rows:
            if len(row) != len(columns):
                raise ValueError("every row must match the column count")
        firsts = [row[0] for row in rows]
        for a, b in zip(firsts, firsts[1:]):
            try:
                if b < a:
                    raise ValueError("rows must be sorted by their first column")
            except TypeError:
                pass
        object.__setattr__(self, "metadata", metadata)
        object.__setattr__(self, "columns", columns)
        object.__setattr__(self, "rows", rows)


def _format_cell(value) -> str:
    if isinstance(value, float):
        s = f"{value:.15g}"
        # keep the float/int distinction through a text round-trip
        if not any(ch in s for ch in ".eE") and s not in ("inf", "-inf", "nan"):
            s += ".0"
        return s
    return str(value)


def _parse_cell(text: str):
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        return text


def _check_format(format: str) -> None:
    """The rule on ``format`` of ``write_output`` and ``read_output``."""
    if format not in ("csv", "json"):
        raise InputError(f"format must be 'csv' or 'json', got {format!r}")


def write_output(out: ExperimentOutput, path, format: str = "csv") -> None:
    """Persist an ExperimentOutput as CSV or JSON.

    CSV carries the metadata as leading '# key = <json>' comment lines;
    numbers are written with 15 significant digits.  I/O failures propagate
    as OSError carrying the path.
    """
    _check_format(format)
    path = Path(path)
    if format == "csv":
        with open(path, "w", newline="", encoding="utf-8") as fh:
            for key, value in out.metadata.items():
                fh.write(f"# {key} = {json.dumps(value)}\n")
            writer = csv.writer(fh)
            writer.writerow(out.columns)
            for row in out.rows:
                writer.writerow([_format_cell(v) for v in row])
    else:
        payload = {
            "metadata": out.metadata,
            "columns": list(out.columns),
            "rows": [list(row) for row in out.rows],
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")


def read_output(path, format: str = "csv") -> ExperimentOutput:
    """Inverse of write_output (within float round-trip precision for CSV)."""
    _check_format(format)
    path = Path(path)
    if format == "csv":
        metadata: dict[str, Any] = {}
        rows = []
        columns: tuple[str, ...] = ()
        with open(path, newline="", encoding="utf-8") as fh:
            data_lines = []
            for line in fh:
                if line.startswith("#"):
                    key, _, value = line[1:].partition("=")
                    metadata[key.strip()] = json.loads(value)
                else:
                    data_lines.append(line)
            reader = csv.reader(data_lines)
            table = list(reader)
        if table:
            columns = tuple(table[0])
            rows = [tuple(_parse_cell(c) for c in row) for row in table[1:] if row]
        return ExperimentOutput(metadata=metadata, columns=columns, rows=tuple(rows))
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    return ExperimentOutput(
        metadata=payload["metadata"],
        columns=tuple(payload["columns"]),
        rows=tuple(tuple(row) for row in payload["rows"]),
    )
