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
from dataclasses import fields
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping, Sequence, get_type_hints

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
    """Parse a ``key = value`` file; DataFormatError names the line of a non-UTF-8 byte."""
    return parse_keyvalues(_decode(Path(path).read_bytes(), str(path)), source=str(path))


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


_CASTS: dict[type, Callable[[object], object]] = {float: float, int: int}


def config_casts(cls: type) -> dict[str, Callable[[object], object]]:
    """Config key -> parser for each field of a flat config dataclass."""
    hints = get_type_hints(cls)
    return {f.name: _CASTS[hints[f.name]] for f in fields(cls)}


def config_to_mapping(config: object) -> dict[str, object]:
    """Field values of a flat config dataclass, by field name."""
    return {f.name: getattr(config, f.name) for f in fields(config)}


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


_HIDDEN = {"0": 0, "1": 1, "NA": -1}  # hidden cell -> column code
_BLOCK_ROWS = 1 << 14  # rows converted, or formatted and written, per block
_PARSE_BYTES = 1 << 18  # body bytes parsed per block, cut at a line end


def _check_header(header: list[str], source: str) -> None:
    if tuple(h.strip() for h in header) != DATASET_HEADER:
        raise DataFormatError(
            f"expected header {','.join(DATASET_HEADER)!r}, got {','.join(header)!r}",
            source=source,
            line=1,
        )


def _decode(raw: bytes, source: str) -> str:
    """``raw`` as UTF-8 text; DataFormatError naming the line of a bad byte."""
    try:
        return raw.decode()
    except UnicodeDecodeError as exc:
        line = len(raw[: exc.start + 1].splitlines())  # the bad byte is no line break
        raise DataFormatError(
            f"byte 0x{raw[exc.start]:02x} is not UTF-8", source=source, line=line
        ) from None


def _parse_rows(raw: bytes, source: str) -> tuple[np.ndarray, ...]:
    """``csv.reader`` parse naming the first line of a bad record (the header is 1)."""
    columns = [], [], [], []  # index, outcome, time_s, hidden
    start = 1  # first line of the record being read
    with io.StringIO(_decode(raw, source), newline="") as fh:
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
                elif not -(2**63) <= values[0] < 2**63:
                    error = f"index must fit in int64, got {row[0]!r}"
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
    index, *rest = columns
    return (_int_column(index), *map(np.array, rest, (np.int8, float, np.int8)))


# The byte parse reads a cell as the little-endian words of text that end
# where the cell ends: a cell of w <= 8 bytes fills the last w bytes of its
# low word, a longer one goes on in its high word, and the bytes before the
# cell are set to "0", which leaves its value as it is.
_U = np.uint64
_EACH = 0x0101010101010101  # one in each byte of a word
_ZEROS = _U(ord("0") * _EACH)
_SIXES = _U(6 * _EACH)
_POINTS = _U(ord(".") * _EACH)
_LOW7 = _U(0x7F * _EACH)
_HIGH1 = _U(0x80 * _EACH)
_HIGH4 = _U(0xF0 * _EACH)
_BEFORE = np.array([(1 << 8 * (8 - w)) - 1 for w in range(9)], _U)  # w: all but the last w bytes
_ROW_SEPARATORS = int.from_bytes(b",,,\n", "little")
_LEAD = 16  # "0" bytes ahead of a block, so that every cell has two whole words
_NO_ROWS = (np.zeros(0, np.int64), np.zeros(0, np.int8), np.zeros(0), np.zeros(0, np.int8))


def _cell_words(words: np.ndarray, ends: np.ndarray, widths: np.ndarray):
    """(high, low) words of the cells of ``widths`` <= 16 bytes that end at
    ``ends``; high is None where every cell fits in its low word."""
    low = words[ends - 8]
    low ^= (low ^ _ZEROS) & _BEFORE.take(np.minimum(widths, 8))
    if widths.max() <= 8:
        return None, low
    high = words[ends - 16]
    high ^= (high ^ _ZEROS) & _BEFORE.take(np.clip(widths - 8, 0, 8))
    return high, low


def _all_digits(x: np.ndarray) -> np.ndarray:
    """Whether each byte of each word is an ASCII digit."""
    return ((x & _HIGH4) == _ZEROS) & (((x + _SIXES) & _HIGH4) == _ZEROS)


def _digit_value(x: np.ndarray) -> np.ndarray:
    """The number each word's eight ASCII digits spell, its first byte leading."""
    x = x - _ZEROS
    x = (x * _U(10) + (x >> _U(8))) & _U(0x00FF00FF00FF00FF)
    x = (x * _U(100) + (x >> _U(16))) & _U(0x0000FFFF0000FFFF)
    return (x * _U(10000) + (x >> _U(32))) & _U(0xFFFFFFFF)


def _cell_values(high: np.ndarray | None, low: np.ndarray) -> np.ndarray:
    value = _digit_value(low)
    return value if high is None else _digit_value(high) * _U(10**8) + value


def _point_to_zero(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Read each word's "." bytes as "0", in place.

    Returns whether a word held one "." at most, and the number of bytes
    after it in the word, -1 where there is none.
    """
    t = x ^ _POINTS
    marks = ~(((t & _LOW7) + _LOW7) | t) & _HIGH1  # 0x80 in each "." byte
    x += marks >> _U(6)  # ord(".") + 2 == ord("0")
    after = (64 - np.frexp(marks.astype(float))[1]) // 8  # 0x80 << 8j -> 7 - j
    return (marks & (marks - _U(1))) == 0, np.where(marks != 0, after, -1)


def _parse_block(b: np.ndarray) -> tuple[np.ndarray, ...] | None:
    """The columns of rows ``b[_LEAD:]``, each ending in a line feed, or None
    unless every row is ``digits,0|1,time,0|1|NA``.

    A time cell ``[-]digits[.digits]`` of at most 16 bytes, its sign aside,
    is N / 10**f with N its digits read as one integer.  With a point N has
    15 digits at most, so it and 10**f are exact floats and the division
    rounds once, as ``float()`` does (Clinger's fast path); without one,
    N / 1 rounds once too.  Any other time cell goes to ``float()``.
    """
    sep = np.flatnonzero(b <= ord(","))
    if sep.size % 4 or not (b[sep].view("<u4") == _ROW_SEPARATORS).all():
        return None
    s0, s1, s2, s3 = sep.reshape(-1, 4).T
    words = np.ndarray((b.size - 7,), "<u8", b, 0, (1,))  # the word at each byte
    outcome = b[s0 + 1] - np.uint8(ord("0"))
    width = s3 - s2 - 1
    first = b[s2 + 1]
    na = (width == 2) & (first == ord("N")) & (b[s3 - 1] == ord("A"))
    hidden = first - np.uint8(ord("0"))
    if not ((s1 - s0 == 2) & (outcome <= 1) & (na | (width == 1) & (hidden <= 1))).all():
        return None
    hidden = np.where(na, np.int8(-1), hidden.view(np.int8))
    width = np.empty_like(s0)
    width[0] = s0[0] - _LEAD
    np.subtract(s0[1:], s3[:-1] + 1, out=width[1:])
    if not 1 <= width.min() <= width.max() <= 16:
        return None
    high, low = _cell_words(words, s0, width)
    if not (_all_digits(low).all() and (high is None or _all_digits(high).all())):
        return None
    index = _cell_values(high, low).view(np.int64)

    negative = b[s1 + 1] == ord("-")
    width = s2 - s1 - 1 - negative
    high, low = _cell_words(words, s2, np.minimum(width, 16))
    ok, after = _point_to_zero(low)
    ok &= _all_digits(low)
    if high is not None:
        high_ok, high_after = _point_to_zero(high)
        ok &= high_ok & _all_digits(high) & ((after < 0) | (high_after < 0))
        after = np.where(high_after < 0, after, high_after + 8)
    point = after >= 0
    after = np.maximum(after, 0)
    digits = _cell_values(high, low)  # the point read as a 0
    right = digits % _UPOW10.take(after)
    digits = np.where(point, right + (digits - right) // _U(10), digits)  # that 0 dropped
    ok &= (width > point) & (width <= 16)
    time_s = digits / _POW10.take(after)
    np.negative(time_s, out=time_s, where=negative)
    for k in np.flatnonzero(~ok).tolist():
        cell = b[s1[k] + 1 : s2[k]].tobytes()
        try:
            if len(cell) > csv.field_size_limit():
                return None
            time_s[k] = float(cell.decode())
        except ValueError:
            return None
    return index, outcome.view(np.int8), time_s, hidden


def _read_table(raw: bytes, source: str) -> tuple[np.ndarray, ...] | None:
    """Check the header, then parse the body as bytes, a block of rows at a time.

    Returns None unless every body line is ``digits,0|1,time,0|1|NA`` (the
    layout the writers emit, its last line break optional), or when the
    header holds a CR, a non-ASCII byte, an open quote or more than csv's
    field limit.  A quote, padding, a CR, a blank line or a ``+`` in the
    body declines it, and so does a time cell ``float()`` refuses.  The
    stdlib ``csv`` reader then parses the file, naming the first line of a
    bad record.
    """
    if not raw:
        raise DataFormatError("empty dataset file", source=source, line=1)
    start = raw.find(b"\n") + 1 or len(raw)
    head = raw[:start]
    if b"\r" in head or not head.isascii() or len(head) > csv.field_size_limit():
        return None
    header = next(csv.reader([head.decode()]), [])
    if any("\n" in cell for cell in header):  # a quote left open: the record goes on
        return None
    _check_header(header, source)
    blocks = [_NO_ROWS]
    while start < len(raw):
        stop = raw.find(b"\n", start + _PARSE_BYTES - 1) + 1 or len(raw)
        block = np.empty(_LEAD + stop - start + 1, np.uint8)
        block[:_LEAD] = ord("0")
        block[_LEAD:-1] = np.frombuffer(raw, np.uint8, stop - start, start)
        block[-1] = ord("\n")  # ends a last line that has no line break
        columns = _parse_block(block[:-1] if raw[stop - 1] == ord("\n") else block)
        if columns is None:
            return None
        blocks.append(columns)
        start = stop
    return tuple(map(np.concatenate, zip(*blocks)))


def _read_columns(path: str | Path) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """A dataset file's (index, outcome, time_s, hidden) columns; NA reads as -1.

    The index is int64: an index outside it is a :class:`DataFormatError`.
    """
    raw = Path(path).read_bytes()  # read once: both parses see the same bytes
    columns = _read_table(raw, str(path))
    return _parse_rows(raw, str(path)) if columns is None else columns


class _Rows(Sequence):
    """Read-only ``(index, outcome, time_s, hidden)`` rows of the dataset ``columns``,
    built on access; a hidden -1 (NA) reads as None.  Indexing takes an int."""

    def __init__(self, *columns: np.ndarray):
        self.columns = columns

    def __len__(self) -> int:
        return self.columns[0].size

    def __getitem__(self, k: int) -> tuple[int, int, float, int | None]:
        k = range(len(self))[k]
        return next(iter(_Rows(*(c[k : k + 1] for c in self.columns))))  # as __iter__ builds it

    def __iter__(self) -> Iterator[tuple[int, int, float, int | None]]:
        for k in range(0, len(self), _BLOCK_ROWS):
            *rows, hidden = (c[k : k + _BLOCK_ROWS].tolist() for c in self.columns)
            # (0, 1, None)[h] is h for 0 and 1, and None for -1.
            yield from zip(*rows, map((0, 1, None).__getitem__, hidden))


def read_dataset_csv(path: str | Path) -> list[tuple[int, int, float, int | None]]:
    """Read a measurement stream; returns (index, outcome, time_s, hidden) rows.

    Cells may be quoted or padded, blank lines are skipped and ``hidden`` is
    None for NA.  A body in the layout the writers emit is parsed as numpy
    bytes, a block of rows at a time; any other file by the stdlib ``csv``
    reader, naming the first line of a bad record.  Malformed content (a bad
    header, a csv error, a non-UTF-8 byte, an index outside int64) raises
    :class:`DataFormatError` with the offending line number.
    """
    return list(_Rows(*_read_columns(path)))


_PAD = 0  # byte dropped from a formatted block: no cell holds a NUL
_POW10 = np.array([float(10**k) for k in range(301)])  # correctly rounded, exact to 10**22
_UPOW10 = np.array([10**k for k in range(20)], np.uint64)

# Lookup tables of cell bytes, read as little-endian words so that one
# ``take`` moves a whole row.  q runs over the four-digit groups 0..9999.
_QDIGITS = np.indices((10,) * 4, np.uint8).reshape(4, -1).T + np.uint8(ord("0"))
_QDIGITS = np.ascontiguousarray(_QDIGITS)  # row q: q as four digits
_DIGITS4 = _QDIGITS.view("<u4").ravel()
_TRAILING = np.logical_and.accumulate(_QDIGITS[:, ::-1] == ord("0"), axis=1).sum(axis=1)  # of q
_PAIRS = np.full((10**4, 8), ord("."), np.uint8)  # "d.d.d.d."
_PAIRS[:, ::2] = _QDIGITS
_PAIRS = _PAIRS.view("<u8").ravel()
_LAST = np.tril(np.full((33, 32), 0xFF, np.uint8), -1)[:, ::-1].copy()  # row L: last L bytes

# A float cell is four words: the sign and a leading "0.000"; digits 0-3 and
# 4-7 each followed by a point slot; digits 8, 9 with the slot between them,
# then the exponent.  _KEEP masks the last three.
_LEADS = np.array(
    [sign + lead for lead in (b"", b"0.", b"0.0", b"0.00", b"0.000") for sign in (b"\0", b"-")],
    "S8",
).view("<u8")  # row 2 * (-e) + sign
_TAILS = np.zeros((100, 8), np.uint8)  # "d.d" for q < 100
_TAILS[:, [0, 2]] = _QDIGITS[:100, 2:]
_TAILS[:, 1] = ord(".")
_TAILS = _TAILS.view("<u8").ravel()
_EXPONENTS = np.zeros((602, 8), np.uint8)  # row e + 301 ends in "e+XX", row 0 is empty
_E = np.arange(-300, 301)
_EXPONENTS[1:, 3] = ord("e")
_EXPONENTS[1:, 4] = np.where(_E < 0, ord("-"), ord("+"))
_EXPONENTS[1:, 5:] = _QDIGITS[np.abs(_E), 1:]
_EXPONENTS[1:, 5] *= np.abs(_E) >= 100  # two digits at least
_EXPONENTS = _EXPONENTS.view("<u8").ravel()
_KEEP = np.zeros((100, 24), np.uint8)  # row 10 * k + p: digits 0..k, a point after p - 1
for _k in range(10):
    _KEEP[10 * _k : 10 * _k + 10, 0 : 2 * _k + 1 : 2] = 0xFF
    _KEEP[10 * _k + np.arange(1, 10), np.arange(1, 19, 2)] = 0xFF
_KEEP[:, 19:] = 0xFF
_KEEP = _KEEP.view("<u8")
_HIDDEN_CELLS = np.array([b"NA", b"0", b"1"])  # by hidden + 1
_UNSAFE = np.frombuffer(b',"\r\n', np.uint8)  # text cell bytes the unquoted writer refuses


def _splice(block: np.ndarray, rows: np.ndarray, cells: list[str]) -> np.ndarray:
    """``block`` with ``rows`` replaced by the text ``cells``, widened to fit."""
    if not rows.size:
        return block
    text = np.array([cell.encode() for cell in cells])  # NUL-padded to the longest
    out = np.zeros((len(block), max(block.shape[1], text.itemsize)), np.uint8)
    out[:, : block.shape[1]] = block
    out[rows] = _PAD
    out[rows, : text.itemsize] = text.view(np.uint8).reshape(rows.size, -1)
    return out


def _int_cells(values: np.ndarray) -> np.ndarray:
    """``str(int(v))`` of each value, one row of bytes per value."""
    if values.size and 0 <= values.min() <= values.max() <= 9:
        return (values.astype(np.uint8) + np.uint8(ord("0")))[:, None]  # one digit
    negative = values < 0
    magnitude = values.astype(np.uint64)
    magnitude[negative] = ~magnitude[negative] + np.uint64(1)  # two's complement |v|
    length = np.maximum(np.searchsorted(_UPOW10, magnitude, side="right"), 1)
    width = int(length.max()) if values.size else 1
    quads = -(-width // 4)
    digits = np.empty((values.size, quads), "<u4")
    for j in range(quads - 1, -1, -1):  # four digits at a time, from the right
        magnitude, quad = np.divmod(magnitude, np.uint64(10**4))
        digits[:, j] = _DIGITS4.take(quad)
    sign = int(negative.any())
    block = np.empty((values.size, sign + width), np.uint8)
    block[:, :sign] = negative[:, None] * np.uint8(ord("-"))
    np.bitwise_and(  # leading zeros become pads
        digits.view(np.uint8)[:, 4 * quads - width :],
        _LAST.take(length, axis=0)[:, 32 - width :],
        out=block[:, sign:],
    )
    return block


def _float_cells(values: np.ndarray) -> np.ndarray:
    """``f"{v:.10g}"`` of each value, one row of bytes per value.

    With e = floor(log10 |v|), the ten digits are m = round(|v| * 10**(9 - e)),
    a carry to 10**10 moving to the next decade.  The product takes one
    rounding while 10**|9 - e| is exact and two beyond, far inside the
    1e-4 margin kept from a tie, so m is the correctly rounded mantissa.
    Zeros, non-finite values, |v| outside [1e-290, 1e290], near-ties and
    misjudged decades are formatted by :func:`format_number` instead.

    A row holds every byte some layout may need, pads where this value's
    layout has none: the sign, a leading ``0.000`` (fixed notation below
    1), the digits with a point slot after each, and the exponent.  The
    fraction's trailing zeros are pads, and so is a point with no digit
    after it.
    """
    a = np.abs(values)
    fast = (a >= 1e-290) & (a <= 1e290)
    a[~fast] = 1.0
    e = np.floor(np.log10(a)).astype(np.int64)
    power = _POW10.take(np.abs(9 - e))
    r = np.divide(a, power)
    np.multiply(a, power, out=r, where=e <= 9)
    m = np.floor(r + 0.5)
    fast &= (r >= 1e9) & (m <= 1e10) & (np.abs(r - np.floor(r) - 0.5) >= 1e-4)
    carry = m == 1e10
    m[carry] = 1e9
    e += carry
    m[~fast] = 1e9
    m = m.astype(np.int64)
    head = m // 10**6  # digits 0-3
    middle = m // 100 - head * 10**4  # digits 4-7
    tail = m - m // 100 * 100  # digits 8-9
    last = 3 - _TRAILING.take(head)  # the last nonzero digit
    last = np.where(middle > 0, 7 - _TRAILING.take(middle), last)
    last = np.where(tail > 0, 9 - _TRAILING.take(tail), last)
    fixed = (e >= -4) & (e < 10)
    below_one = fixed & (e < 0)
    whole = np.where(fixed & (e > 0), e, 0)  # the last digit before the point
    point = np.where(below_one | (last <= whole), 0, whole + 1)
    block = np.empty((values.size, 4), "<u8")
    block[:, 0] = _LEADS.take(2 * np.where(below_one, -e, 0) + np.signbit(values))
    block[:, 1] = _PAIRS.take(head)
    block[:, 2] = _PAIRS.take(middle)
    block[:, 3] = _TAILS.take(tail) | _EXPONENTS.take(np.where(fixed, 0, e + 301))
    block[:, 1:] &= _KEEP.take(10 * np.maximum(last, whole) + point, axis=0)
    slow = np.flatnonzero(~fast)
    cells = [format_number(v) for v in values[slow].tolist()]
    return _splice(block.view(np.uint8), slow, cells)


def _int_column(values: Iterable[int]) -> np.ndarray:
    """A numpy integer array as it is, else an int64 column; OverflowError past int64."""
    if isinstance(values, np.ndarray):
        if values.dtype.kind in "biu":
            return values
        values = values.tolist()
    return np.array(list(values), np.int64)


def _cells(values: np.ndarray) -> np.ndarray:
    """A column's cells as NUL-padded rows of bytes.

    Numbers are written as :func:`format_number` writes them; a bytes
    column is written as it is.
    """
    if values.dtype.kind == "S":
        return values.view(np.uint8).reshape(values.size, values.itemsize)
    return _float_cells(values) if values.dtype.kind == "f" else _int_cells(values)


def write_table(
    path: str | Path, header: Sequence[str], columns: Sequence[np.ndarray]
) -> None:
    """Write ``header``, then one line per row of the equal-length ``columns``.

    Numbers are written as :func:`format_number` writes them and a bytes
    (``S``) column as it is, unquoted.  A block of ``_BLOCK_ROWS`` rows is
    formatted at once: each column becomes a NUL-padded byte block (see
    :func:`_cells`), the blocks are laid side by side between commas, and
    the block is written with its pads dropped.  No columns, columns of
    unequal length, or a bytes cell that would need quoting (a comma, a
    quote, a CR, a LF or an interior NUL) raise ``ValueError``.
    """
    lengths = {len(column) for column in columns}
    if len(lengths) != 1:
        raise ValueError(f"a table needs one or more columns of one length, got {sorted(lengths)}")
    for cells in (_cells(column) for column in columns if column.dtype.kind == "S"):
        pads = cells == _PAD
        if np.isin(cells, _UNSAFE).any() or (pads[:, :-1] > pads[:, 1:]).any():
            raise ValueError("text cells may not hold a comma, quote, CR, LF or NUL")
    n = len(columns[0])
    with Path(path).open("wb") as fh:
        fh.write((",".join(header) + "\n").encode())
        for k in range(0, n, _BLOCK_ROWS):
            rows = min(_BLOCK_ROWS, n - k)
            blocks = []
            for column in columns:
                blocks += [_cells(column[k : k + rows]), np.full((rows, 1), ord(","), np.uint8)]
            blocks[-1][:] = ord("\n")  # the last separator ends the line
            data = np.hstack(blocks).ravel()
            fh.write(data.compress(data != _PAD).tobytes())


def write_dataset_csv(
    path: str | Path,
    index: np.ndarray,
    outcome: np.ndarray,
    time_s: np.ndarray,
    hidden: np.ndarray,
) -> None:
    """Write a measurement stream in the shared dataset format.

    Takes the columns as :func:`_read_columns` returns them: a hidden -1
    is written as NA.  As the reader does, it refuses an outcome outside {0, 1}
    or a hidden value outside {-1, 0, 1} (ValueError) and an index past int64 (OverflowError).
    """
    outcome, hidden = _int_column(outcome), np.asarray(hidden)
    if outcome.size and not 0 <= outcome.min() <= outcome.max() <= 1:  # an integer column
        raise ValueError("outcome values must be 0 or 1")
    if not np.isin(hidden, (-1, 0, 1)).all():
        raise ValueError("hidden values must be -1 (NA), 0 or 1")
    columns = _int_column(index), outcome, np.asarray(time_s, dtype=float)
    write_table(path, DATASET_HEADER, (*columns, _HIDDEN_CELLS[hidden.astype(np.intp) + 1]))


def sha256_digest(path: str | Path) -> str:
    """Hex SHA-256 of a file's bytes; manifests use this to pin outputs."""
    digest = hashlib.sha256()
    with Path(path).open("rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()
