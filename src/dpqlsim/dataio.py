"""Flat-file plumbing: key-value configs, dataset CSV, table export, digests.

The measurement-stream format shared by the simulator, the statistics and
the HMM decoder is a CSV with header ``index,outcome,time_s,hidden`` where
``outcome`` is 0 (bright) or 1 (dark) and ``hidden`` is 0, 1 or NA.  Hand
made experimental files use NA for the hidden column.
"""

from __future__ import annotations

import codecs
import csv
import hashlib
import io
import math
import re
from dataclasses import fields
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping, Sequence, get_type_hints

import numpy as np

# The package re-exports these; the config and formatting helpers below
# serve the other modules and are imported from here by name.
__all__ = [
    "DataFormatError",
    "read_keyvalues",
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
    """Parse ``key = value`` lines; '#' starts a comment, blanks are skipped.

    Lines end at LF, CRLF or CR, as :func:`_decode` counts them: a form
    feed, a vertical tab or a Unicode separator stays inside its line.
    """
    out: dict[str, str] = {}
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    for lineno, raw in enumerate(lines, start=1):
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
_HEADER_LINE = (",".join(DATASET_HEADER) + "\n").encode()  # as the writers start a file
_BLOCK_ROWS = 1 << 14  # rows formatted and written per block
_PARSE_BYTES = 1 << 18  # body bytes parsed per block, cut at a line end


def _check_binary(values: Sequence[int] | np.ndarray, name: str = "observations") -> np.ndarray:
    """A 0/1 stream as an int8 copy; ValueError naming ``name`` unless 1-d and all 0 or 1."""
    column = np.asarray(values)
    if column.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional")
    bad = (column != 0) & (column != 1)
    if bad.any():
        raise ValueError(f"{name} must be 0 or 1, got {column[bad][0].item()!r}")
    return column.astype(np.int8)


# The scalar argument rules.  Each is a comparison chain, which a NaN fails.
def _check_probability(name: str, v: float) -> None:
    if not 0.0 <= v <= 1.0:
        raise ValueError(f"{name} must lie in [0, 1], got {v!r}")


def _check_positive(name: str, v: float) -> None:
    if not 0.0 < v < math.inf:
        raise ValueError(f"{name} must be finite and positive, got {v!r}")


def _check_nonnegative(name: str, v: float) -> None:
    if not 0.0 <= v < math.inf:
        raise ValueError(f"{name} must be finite and >= 0, got {v!r}")


def _check_at_least(name: str, v: float, low: int = 1) -> None:
    if not v >= low:
        raise ValueError(f"{name} must be >= {low}, got {v!r}")


def _decode(raw: bytes, source: str) -> str:
    """``raw`` as UTF-8 text past any BOM; DataFormatError naming the line of a bad byte."""
    raw = raw.removeprefix(codecs.BOM_UTF8)
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
            header = next(reader, None)
            if header is None:
                raise DataFormatError("empty dataset file", source=source, line=1)
            if tuple(h.strip() for h in header) != DATASET_HEADER:
                error = f"expected header {','.join(DATASET_HEADER)!r}, got {','.join(header)!r}"
                raise DataFormatError(error, source=source, line=1)
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
    return tuple(map(np.array, columns, (np.int64, np.int8, float, np.int8)))


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
_EXPONENT_TIME = re.compile(rb"[0-9](\.[0-9]+)?e-[0-9]{2,3}")  # format_number below 1e-4
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

    A time cell is 1 to 16 bytes of digits with at most one point, and reads
    as N / 10**f, N its digits as one integer and f the digits after the
    point.  With a point N has 15 digits at most, so it and 10**f are exact
    floats and the division rounds once, to the nearest float of the
    decimal (Clinger's fast path); without one, N / 1 rounds once too.
    :func:`format_number`'s ``e-XX`` cells, below 1e-4, read as ``float()``.
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

    width = s2 - s1 - 1
    if not 1 <= width.min() <= width.max() <= 16:
        return None
    high, low = _cell_words(words, s2, width)
    ok, after = _point_to_zero(low)
    ok &= _all_digits(low)
    if high is not None:
        high_ok, high_after = _point_to_zero(high)
        ok &= high_ok & _all_digits(high) & ((after < 0) | (high_after < 0))
        after = np.where(high_after < 0, after, high_after + 8)
    point = after >= 0
    ok &= width > point  # a lone point is no number
    after = np.maximum(after, 0)
    digits = _cell_values(high, low)  # the point read as a 0
    right = digits % _UPOW10.take(after)
    digits = np.where(point, right + (digits - right) // _U(10), digits)  # that 0 dropped
    time_s = digits / _POW10.take(after)
    cells = [b[s1[k] + 1 : s2[k]].tobytes() for k in np.flatnonzero(~ok).tolist()]
    if not all(map(_EXPONENT_TIME.fullmatch, cells)):
        return None
    time_s[~ok] = list(map(float, cells))
    return index, outcome.view(np.int8), time_s, hidden


def _read_table(raw: bytes, source: str) -> tuple[np.ndarray, ...] | None:
    """Parse a file in the writers' layout as bytes, a block of rows at a time.

    Returns None unless the file starts with the writers' header line, ends
    with a line feed and every body line is ``digits,0|1,time,0|1|NA`` as
    :func:`_parse_block` takes it.  The stdlib ``csv`` reader then parses
    the file, naming the first line of a bad record.
    """
    if not (raw.startswith(_HEADER_LINE) and raw.endswith(b"\n")):
        return None
    blocks = [_NO_ROWS]
    start = len(_HEADER_LINE)
    while start < len(raw):
        stop = raw.find(b"\n", start + _PARSE_BYTES - 1) + 1 or len(raw)
        block = np.empty(_LEAD + stop - start, np.uint8)
        block[:_LEAD] = ord("0")
        block[_LEAD:] = np.frombuffer(raw, np.uint8, stop - start, start)
        columns = _parse_block(block)
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
        *rows, hidden = map(memoryview, self.columns)  # items read as Python scalars
        # (0, 1, None)[h] is h for 0 and 1, and None for -1.
        return zip(*rows, map((0, 1, None).__getitem__, hidden))


def read_dataset_csv(path: str | Path) -> list[tuple[int, int, float, int | None]]:
    """Read a measurement stream; returns (index, outcome, time_s, hidden) rows.

    Cells may be quoted or padded, blank lines are skipped and ``hidden`` is
    None for NA.  A file in the writers' layout (their header line, LF line
    ends, a final LF, time cells of at most 16 bytes, unsigned decimal or
    ``e-XX``) is parsed as numpy bytes, a block of rows at a time; any
    other file by the stdlib ``csv`` reader, naming the first line of a bad
    record.  Malformed content (a bad header, a csv error, a non-UTF-8
    byte, an index outside int64) raises :class:`DataFormatError` with the
    offending line number.
    """
    return list(_Rows(*_read_columns(path)))


_PAD = 0  # byte dropped from a formatted block: no cell holds a NUL
_POW10 = np.array([float(10**k) for k in range(301)])  # correctly rounded, exact to 10**22
_UPOW10 = np.array([10**k for k in range(20)], np.uint64)

# Lookup tables of cell bytes, read as little-endian words so that one
# ``take`` moves a whole row.  q runs over the four-digit groups 0..9999.
_QDIGITS = np.indices((10,) * 4, np.uint8).reshape(4, -1).T + np.uint8(ord("0"))
_QDIGITS = np.ascontiguousarray(_QDIGITS)  # row q: q as four digits
_DIGITS4 = _QDIGITS.view("<u4").ravel().astype(_U)
_PAIRS = np.full((10**4, 8), ord("."), np.uint8)  # "d.d.d.d."
_PAIRS[:, ::2] = _QDIGITS
_PAIRS = _PAIRS.view("<u8").ravel()

# The words of a float cell (see _float_cells).  Its decade e picks the
# lead, the exponent and the point's place, by row e + 301.
_E = np.arange(-301, 301)
_LEADS = np.array([b"", b"0.", b"0.0", b"0.00", b"0.000"], "S8").view("<u8")
_LEADS = _LEADS[np.where((_E >= -4) & (_E < 0), -_E, 0)]
_TAILS = _PAIRS[:100] >> _U(32) & _U(0xFFFFFF)  # "d.d" for q < 100
_EXPONENTS = np.zeros((602, 8), np.uint8)  # "e+XX" outside fixed notation, -4 <= e < 10
_EXPONENTS[:, 3] = ord("e")
_EXPONENTS[:, 4] = np.where(_E < 0, ord("-"), ord("+"))
_EXPONENTS[:, 5:] = _QDIGITS[np.abs(_E), 1:]
_EXPONENTS[:, 5] *= np.abs(_E) >= 100  # two digits at least
_EXPONENTS[(_E >= -4) & (_E < 10)] = 0
_EXPONENTS = _EXPONENTS.view("<u8").ravel()
# The digit the point follows: digit e in fixed notation from 1 up, else
# the first, and 10 (none: the lead holds the point) below 1.
_WHOLE = np.where((_E >= 0) & (_E < 10), _E, np.where((_E >= -4) & (_E < 0), 10, 0)).astype(np.int8)
# Which of q's four digits is its last nonzero one; -9 for q = 0.
_LAST_DIGIT = 3 - np.logical_and.accumulate(_QDIGITS[:, ::-1] == ord("0"), axis=1).sum(
    axis=1, dtype=np.int8
)
_LAST_DIGIT[0] = -9
# Row 11 * last + whole: the lead, digits 0..max(last, whole), the point slot
# after digit whole where a digit follows it, and the exponent.
_KEEP = np.zeros((10, 11, 32), np.uint8)
_KEEP[..., :8] = _KEEP[..., 27:] = 0xFF
for _last, _whole in np.ndindex(10, 11):
    _KEEP[_last, _whole, 8 : 9 + 2 * max(_last, _whole % 10) : 2] = 0xFF
    if _whole < _last:
        _KEEP[_last, _whole, 9 + 2 * _whole] = 0xFF
_KEEP = _KEEP.view("<u8").reshape(110, 4)
_HIDDEN_CELLS = np.array([b"NA", b"0", b"1"])  # by hidden + 1
_UNSAFE = np.frombuffer(b',"\r\n', np.uint8)  # text cell bytes the unquoted writer refuses


def _int_cells(values: np.ndarray) -> np.ndarray:
    """``str(int(v))`` of each value, one row of bytes per value.

    A column in [0, 10**8) is one little-endian word of eight digits per
    value, from two ``_DIGITS4`` lookups; a row's "0" bytes before its first
    nonzero digit, its last digit aside, become pads.  Any other column is
    formatted by :func:`format_number`.
    """
    if not (values.size and 0 <= values.min() and values.max() < 10**8):
        text = [format_number(v).encode() for v in values.tolist()]
        return np.array(text, "S20").view(np.uint8).reshape(values.size, 20)  # any 64-bit int
    if values.max() <= 9:
        return (values.astype(np.uint8) + np.uint8(ord("0")))[:, None]  # one digit
    group = values.astype(np.uint32)
    high = group // np.uint32(10**4)  # digits 0-3; the group keeps digits 4-7
    group -= high * np.uint32(10**4)
    word = _DIGITS4.take(high) | _DIGITS4.take(group) << _U(32)
    x = word ^ _ZEROS  # nonzero from the first nonzero digit on
    word &= np.negative(x) | x | ~_BEFORE[1]  # the bytes from that digit on, and the last
    return word.view(np.uint8).reshape(values.size, 8)


def _float_cells(values: np.ndarray) -> np.ndarray:
    """``f"{v:.10g}"`` of each value, one row of bytes per value.

    With e = floor(log10 v), the ten digits are m = round(r) for
    r = v * 10**(9 - e).  The product takes one rounding while
    10**|9 - e| is exact and two beyond, far inside the 1e-4 margin kept
    from a tie (|r - m| <= 0.4999), so m is the correctly rounded mantissa.
    Values outside [1e-290, 1e290] (zeros, negatives, non-finite values),
    near-ties, misjudged decades and a mantissa that rounds up to 10**10 (a
    carry into the next decade) are formatted by :func:`format_number`.

    A row is four words: a leading ``0.000`` (fixed notation below 1);
    digits 0-3 and 4-7, each followed by a point slot; digits 8
    and 9 with the slot between them, then the exponent.  Each word is one
    table ``take`` into a contiguous plane, and one AND with the ``_KEEP``
    row of the last nonzero digit and the point's place pads what this
    value's layout lacks: the fraction's trailing zeros, a point no digit
    follows.  The lead word, and the exponent bytes, are cut where no row
    of the block uses them.
    """
    fast = (values >= 1e-290) & (values <= 1e290)
    a = np.where(fast, values, 1.0)
    e = np.floor(np.log10(a)).astype(np.intp)
    power = _POW10.take(np.abs(9 - e))
    r = np.divide(a, power)
    np.multiply(a, power, out=r, where=e <= 9)
    m = np.rint(r)
    fast &= (r >= 1e9) & (m < 1e10) & (np.abs(r - m) <= 0.5 - 1e-4)
    e += 301  # the decade's table row
    m = m.astype(np.intp)  # past 10**10 in a fallback row, whose head takes "clip"
    middle = m // 100
    tail = m - 100 * middle  # digits 8-9
    head = middle // 10**4  # digits 0-3
    middle -= 10**4 * head  # digits 4-7
    last = np.maximum(_LAST_DIGIT.take(head, mode="clip"), _LAST_DIGIT.take(middle) + 4)
    np.maximum(last, _LAST_DIGIT.take(tail) + 6, out=last)  # the last nonzero digit
    keep = 11 * last + _WHOLE.take(e)
    planes = np.empty((4, values.size), "<u8")  # "clip": "raise" would buffer out
    _LEADS.take(e, out=planes[0], mode="clip")
    _PAIRS.take(head, out=planes[1], mode="clip")
    _PAIRS.take(middle, out=planes[2], mode="clip")
    _TAILS.take(tail, out=planes[3], mode="clip")
    exponents = _EXPONENTS.take(e)
    planes[3] |= exponents
    block = _KEEP.take(keep, axis=0)
    block &= planes.T
    slow = np.flatnonzero(~fast)
    text = [format_number(v).encode() for v in values[slow].tolist()]  # 17 bytes at most
    block[slow] = np.array(text, "S32").view("<u8").reshape(-1, 4)
    start = 0 if slow.size or planes[0].any() else 8  # a lead or a fallback cell
    return block.view(np.uint8)[:, start : 32 if exponents.any() else 27]


def _int_column(values: Iterable[int]) -> np.ndarray:
    """An int64 column; OverflowError past int64, ValueError for a non-integer."""
    if isinstance(values, np.ndarray) and values.dtype.kind in "bi":
        return values.astype(np.int64, copy=False)
    items = values.tolist() if isinstance(values, np.ndarray) else list(values)
    ints = [int(v) for v in items]
    if ints != items:
        raise ValueError("index values must be integers")
    return np.array(ints, np.int64)


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
    ``bytes.translate`` drops the pads as the block is written.  No
    columns, columns of unequal length, or a bytes cell that would need
    quoting (a comma, a quote, a CR, a LF or an interior NUL) raise
    ``ValueError``.
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
            fh.write(np.hstack(blocks).tobytes().translate(None, bytes([_PAD])))


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
    (:func:`_check_binary`) or a hidden value outside {-1, 0, 1} (ValueError)
    and an index past int64 (OverflowError) or not an integer (ValueError).
    The file is in the layout that :func:`_read_table` parses as bytes while
    every time lies in [0, 1e10) and none is -0.0.
    """
    outcome, hidden = _check_binary(outcome, "outcome"), np.asarray(hidden)
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
