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
import warnings
from dataclasses import fields
from itertools import islice, starmap
from pathlib import Path
from typing import Callable, Iterable, Mapping, Sequence, get_args, get_type_hints

import numpy as np

# The package re-exports these; the config and formatting helpers below
# serve the other modules and are imported from here by name.
__all__ = [
    "DataFormatError",
    "read_keyvalues",
    "write_keyvalues",
    "DATASET_HEADER",
    "read_dataset_csv",
    "write_dataset_csv",
    "write_table",
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
    return str(x) if isinstance(x, int) else f"{x:.10g}"


_ROW_DTYPE = np.dtype(
    [("index", np.int64), ("outcome", np.int8), ("time_s", np.float64), ("hidden", "U3")]
)
_HIDDEN = {"0": 0, "1": 1, "NA": -1}  # hidden cell -> column code
# Bodies made only of these bytes take the columnar parse: on them
# np.loadtxt splits quoted cells as csv does and converts a cell exactly
# when int() / float() would, to the same value.
_SAFE = b'0123456789eE+-.naiftyNAIFTY", \t\n'
_BLOCK_ROWS = 1 << 14  # rows converted, or formatted and written, per block


def _check_header(header: list[str], source: str) -> None:
    if tuple(h.strip() for h in header) != DATASET_HEADER:
        raise DataFormatError(
            f"expected header {','.join(DATASET_HEADER)!r}, got {','.join(header)!r}",
            source=source,
            line=1,
        )


def _parse_rows(path: Path, source: str) -> tuple[np.ndarray, ...]:
    """``csv.reader`` parse naming the first line of a bad record (the header is 1)."""
    raw = path.read_bytes()
    try:
        text = raw.decode()
    except UnicodeDecodeError as exc:
        line = len(raw[: exc.start + 1].splitlines())  # the bad byte is no line break
        raise DataFormatError(
            f"byte 0x{raw[exc.start]:02x} is not UTF-8", source=source, line=line
        ) from None
    columns = [], [], [], []  # index, outcome, time_s, hidden
    start = 1  # first line of the record being read
    with io.StringIO(text, newline="") as fh:
        reader = csv.reader(fh)
        try:
            _check_header(next(reader, []), source)
            start = reader.line_num + 1
            for row in reader:
                lineno, start = start, reader.line_num + 1
                if not row:
                    continue
                try:
                    values = int(row[0]), int(row[1]), float(row[2]), _HIDDEN.get(row[3].strip())
                except (ValueError, IndexError):
                    values = None
                if len(row) != 4:
                    error = f"expected 4 columns, got {len(row)}"
                elif values is None:
                    error = f"malformed row {row!r}"
                elif values[1] not in (0, 1):
                    error = f"outcome must be 0 or 1, got {row[1]!r}"
                elif values[3] is None:
                    error = f"hidden must be 0, 1 or NA, got {row[3].strip()!r}"
                else:
                    for column, value in zip(columns, values):
                        column.append(value)
                    continue
                raise DataFormatError(error, source=source, line=lineno)
        except csv.Error as exc:
            raise DataFormatError(str(exc), source=source, line=start) from None
    # object indices: the parse takes integers beyond int64
    return tuple(map(np.array, columns, (object, np.int8, float, np.int8)))


def _read_table(path: Path, source: str) -> np.ndarray | None:
    """Check the header, then parse the body in one columnar pass.

    Returns None when that pass does not take the file: a CR, a non-ASCII
    header or one longer than csv's field limit, a body character outside
    the safe set, a malformed row or padding around ``hidden``.  The stdlib
    ``csv`` reader then parses it, naming the first line of a bad record.
    """
    raw = path.read_bytes()
    if not raw:
        raise DataFormatError("empty dataset file", source=source, line=1)
    fh = io.BytesIO(raw)
    head = fh.readline()
    unsafe = len(raw.translate(None, _SAFE)) - len(head.translate(None, _SAFE))
    if unsafe or b"\r" in raw or not head.isascii() or len(head) > csv.field_size_limit():
        return None
    _check_header(next(csv.reader([head.decode()]), []), source)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # a body without rows warns
        try:
            table = np.loadtxt(fh, _ROW_DTYPE, delimiter=",", quotechar='"', comments=None,
                               ndmin=1, encoding="ascii")
        except ValueError:
            return None
    valid = np.isin(table["outcome"], (0, 1)) & np.isin(table["hidden"], tuple(_HIDDEN))
    return table if valid.all() else None


def _read_columns(path: str | Path) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """A dataset file's (index, outcome, time_s, hidden) columns; NA reads as -1."""
    path = Path(path)
    table = _read_table(path, str(path))
    if table is None:
        return _parse_rows(path, str(path))
    hidden = np.select([table["hidden"] == "1", table["hidden"] == "NA"], [1, -1]).astype(np.int8)
    return table["index"].copy(), table["outcome"].copy(), table["time_s"].copy(), hidden


def read_dataset_csv(path: str | Path) -> list[tuple[int, int, float, int | None]]:
    """Read a measurement stream; returns (index, outcome, time_s, hidden) rows.

    Cells may be quoted or padded, blank lines are skipped and ``hidden`` is
    None for NA.  A file the columnar pass declines is parsed by the stdlib
    ``csv`` reader, naming the first line of a bad record.  Malformed
    content, including a bad header, a csv error or a byte that is not
    UTF-8, raises
    :class:`DataFormatError` with the offending line number.
    """
    columns = _read_columns(path)
    rows: list[tuple[int, int, float, int | None]] = []
    for k in range(0, columns[0].size, _BLOCK_ROWS):
        index, outcome, time_s, hidden = (c[k : k + _BLOCK_ROWS].tolist() for c in columns)
        rows.extend(zip(index, outcome, time_s, (None if h < 0 else h for h in hidden)))
    return rows


def _write_blocks(
    path: str | Path, header: Sequence[str], row_format: str, rows: Iterable[Sequence[object]]
) -> None:
    """Write ``header``, then ``row_format.format(*row)`` per row, one write per block.

    ``{:.10g}`` renders any float as :func:`format_number` does.
    """
    rows = iter(rows)
    with Path(path).open("w") as fh:
        fh.write(",".join(header) + "\n")
        while block := list(islice(rows, _BLOCK_ROWS)):
            fh.write("".join(starmap(row_format.format, block)))


def write_dataset_csv(
    path: str | Path, rows: Iterable[tuple[int, int, float, int | None]]
) -> None:
    """Write a measurement stream in the shared dataset format."""
    _write_blocks(
        path,
        DATASET_HEADER,
        "{},{},{:.10g},{}\n",
        ((i, o, t, "NA" if h is None else h) for i, o, t, h in rows),
    )


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
