"""Flat-file plumbing: key-value configs, dataset CSV, table export, digests.

The measurement-stream format shared by the simulator, the statistics and
the HMM decoder is a CSV with header ``index,outcome,time_s,hidden`` where
``outcome`` is 0 (bright) or 1 (dark) and ``hidden`` is 0, 1 or NA.  Hand
made experimental files use NA for the hidden column.
"""

from __future__ import annotations

import csv
import hashlib
import io
import math
from dataclasses import fields
from pathlib import Path
from typing import Callable, Iterable, Mapping, Sequence, get_args, get_type_hints

__all__ = [
    "DataFormatError",
    "read_keyvalues",
    "parse_keyvalues",
    "write_keyvalues",
    "config_casts",
    "config_to_mapping",
    "config_from_mapping",
    "DATASET_HEADER",
    "read_dataset_csv",
    "write_dataset_csv",
    "write_table",
    "format_number",
    "sha256_digest",
]

DATASET_HEADER = ("index", "outcome", "time_s", "hidden")


class DataFormatError(ValueError):
    """Malformed config or dataset content; carries the offending location."""

    def __init__(self, message: str, *, source: str | None = None, line: int | None = None):
        location = ""
        if source is not None:
            location = f"{source}: "
        if line is not None:
            location += f"line {line}: "
        super().__init__(location + message)
        self.source = source
        self.line = line


def parse_keyvalues(text: str, *, source: str | None = None) -> dict[str, str]:
    """Parse ``key = value`` lines; '#' starts a comment, blanks are skipped."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise DataFormatError(
                f"expected 'key = value', got {raw.strip()!r}", source=source, line=lineno
            )
        key, value = line.split("=", 1)
        key, value = key.strip(), value.strip()
        if not key:
            raise DataFormatError("empty key", source=source, line=lineno)
        if key in out:
            raise DataFormatError(f"duplicate key {key!r}", source=source, line=lineno)
        out[key] = value
    return out


def read_keyvalues(path: str | Path) -> dict[str, str]:
    path = Path(path)
    return parse_keyvalues(path.read_text(), source=str(path))


def write_keyvalues(
    path: str | Path, mapping: Mapping[str, object], *, header: str | None = None
) -> None:
    lines = []
    if header:
        lines.extend(f"# {part}" for part in header.splitlines())
    for key, value in mapping.items():
        if isinstance(value, bool):
            value = "true" if value else "false"
        elif isinstance(value, float):
            value = format_number(value)
        lines.append(f"{key} = {value}")
    Path(path).write_text("\n".join(lines) + "\n")


def _parse_bool(raw: object) -> bool:
    if not isinstance(raw, str):
        return bool(raw)
    lowered = raw.strip().lower()
    if lowered not in ("true", "false", "0", "1"):
        raise ValueError(f"expected a boolean, got {raw!r}")
    return lowered in ("true", "1")


_CASTS: dict[type, Callable[[object], object]] = {float: float, int: int, bool: _parse_bool}


def config_casts(cls: type) -> dict[str, Callable[[object], object]]:
    """Config key -> parser for each field of a flat config dataclass.

    The key set is the field list; a field annotated ``T | None`` parses
    as T and may be left out.
    """
    hints = get_type_hints(cls)
    casts = {}
    for f in fields(cls):
        kind = next((t for t in get_args(hints[f.name]) if t is not type(None)), hints[f.name])
        casts[f.name] = _CASTS[kind]
    return casts


def config_to_mapping(config: object) -> dict[str, object]:
    """Field values of a flat config dataclass, unset optionals left out."""
    values = ((f.name, getattr(config, f.name)) for f in fields(config))
    return {name: value for name, value in values if value is not None}


def config_from_mapping(cls: type, mapping: Mapping[str, object]):
    """Build ``cls`` from a key-value mapping; absent keys take defaults.

    Unknown keys raise ``ValueError`` so typos in config files fail loudly.
    """
    casts = config_casts(cls)
    kwargs: dict[str, object] = {}
    for key, raw in mapping.items():
        if key not in casts:
            raise ValueError(f"unknown {cls.__name__} key {key!r}")
        try:
            kwargs[key] = casts[key](raw)
        except ValueError as exc:
            raise ValueError(f"key {key!r}: {exc}") from None
    return cls(**kwargs)


def format_number(x: float) -> str:
    """Compact, reproducible decimal rendering used by every exporter."""
    if isinstance(x, int):
        return str(x)
    if math.isnan(x):
        return "nan"
    return f"{x:.10g}"


def _parse_hidden(token: str, *, source: str | None, line: int) -> int | None:
    if token == "NA":
        return None
    if token in ("0", "1"):
        return int(token)
    raise DataFormatError(f"hidden must be 0, 1 or NA, got {token!r}", source=source, line=line)


def read_dataset_csv(path: str | Path) -> list[tuple[int, int, float, int | None]]:
    """Read a measurement stream; returns (index, outcome, time_s, hidden) rows.

    Raises :class:`DataFormatError` with the offending row number on any
    malformed content, including a bad header.
    """
    path = Path(path)
    source = str(path)
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataFormatError("empty dataset file", source=source, line=1) from None
        if tuple(h.strip() for h in header) != DATASET_HEADER:
            raise DataFormatError(
                f"expected header {','.join(DATASET_HEADER)!r}, got {','.join(header)!r}",
                source=source,
                line=1,
            )
        rows: list[tuple[int, int, float, int | None]] = []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 4:
                raise DataFormatError(
                    f"expected 4 columns, got {len(row)}", source=source, line=lineno
                )
            try:
                index = int(row[0])
                outcome = int(row[1])
                time_s = float(row[2])
            except ValueError:
                raise DataFormatError(
                    f"malformed row {row!r}", source=source, line=lineno
                ) from None
            if outcome not in (0, 1):
                raise DataFormatError(
                    f"outcome must be 0 or 1, got {row[1]!r}", source=source, line=lineno
                )
            hidden = _parse_hidden(row[3].strip(), source=source, line=lineno)
            rows.append((index, outcome, time_s, hidden))
    return rows


def write_dataset_csv(
    path: str | Path, rows: Iterable[tuple[int, int, float, int | None]]
) -> None:
    """Write a measurement stream in the shared dataset format."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(DATASET_HEADER)
    for index, outcome, time_s, hidden in rows:
        writer.writerow(
            [index, outcome, format_number(float(time_s)), "NA" if hidden is None else hidden]
        )
    Path(path).write_text(buf.getvalue())


def write_table(
    path: str | Path, header: Sequence[str], rows: Iterable[Sequence[object]]
) -> None:
    """Write a generic numeric CSV with the shared number formatting."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(list(header))
    for row in rows:
        writer.writerow(
            [format_number(x) if isinstance(x, float) else x for x in row]
        )
    Path(path).write_text(buf.getvalue())


def sha256_digest(path: str | Path) -> str:
    """Hex SHA-256 of a file's bytes; manifests use this to pin outputs."""
    digest = hashlib.sha256()
    with Path(path).open("rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()
