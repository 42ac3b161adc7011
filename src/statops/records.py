"""The ``key=value`` record syntax of traces, generator specs, repair logs
and their truth sidecars.

A record is one line of whitespace-separated ``key=value`` fields in a fixed
order; no value holds an ASCII control character (0x00-0x1f) or a lone
surrogate (which only a library caller's ``str`` can hold).  Lines end at
every boundary ``str.splitlines`` knows and count from 1, blank ones
included; a blank line holds no record.  This module writes every error of
the syntax: ``line N: expected K fields, got M``, ``line N: expected field
'k', got 't'`` and ``line N: bad k 'v'``.  A format is described once, by
its field list; ``read_columns`` reads traces, repair logs and truth
sidecars from ``str``, in one pass.
"""

from __future__ import annotations

from collections import defaultdict
from itertools import islice
from typing import Callable, NamedTuple, NoReturn, Sequence

import numpy as np

# (key, converter): the converter returns the field's value from its raw text,
# or rejects it with ValueError or LookupError.
Field = tuple[str, Callable[[str], object]]

# Characters per block of the block reader: numpy's per-call cost stays small
# next to a block, and a block's masks and tokens (about 4x its size) stay
# small next to the rest of a command's memory.
_BLOCK_BYTES = 1 << 17


class RecordError(ValueError):
    """A malformed record; carries the 1-based line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class BadValue(ValueError):
    """Raised by a converter to say more than ``bad k 'v'``: the error then
    reads ``bad k <message>``."""


class Number(NamedTuple):
    """Converter of a number field: an ASCII spelling of ``kind`` (float or
    int) in [low, high).  With ``low >= 0``, a finite x < 0 is 'negative'."""

    kind: type
    low: float
    high: float

    def __call__(self, raw: str):
        if not raw.isascii():
            raise ValueError(raw)
        x = self.kind(raw)
        if self.low <= x < self.high:
            return x
        if -np.inf < x < 0 <= self.low:
            raise BadValue(f"'{x}': negative")
        raise ValueError(raw)


def tokenize(line_no: int, line: str, fields: Sequence[Field]) -> list | None:
    """The converted values of ``line``'s fields, or None for a blank line.

    The field count is checked first, then each key and its value in field
    order, so the error names the first thing wrong with the line.
    """
    tokens = line.split()
    if not tokens:
        return None
    if len(tokens) != len(fields):
        raise RecordError(line_no, f"expected {len(fields)} fields, got {len(tokens)}")
    odd = not line.isprintable()  # a value may hold a control character or a surrogate
    values = []
    for token, (key, convert) in zip(tokens, fields):
        name, equals, raw = token.partition("=")
        if name != key or not equals:
            raise RecordError(line_no, f"expected field '{key}', got '{token}'")
        try:
            if odd and any(c < " " or "\ud800" <= c <= "\udfff" for c in raw):
                raise ValueError(raw)
            values.append(convert(raw))
        except BadValue as exc:
            raise RecordError(line_no, f"bad {key} {exc}") from None
        except (ValueError, LookupError):
            raise RecordError(line_no, f"bad {key} '{raw}'") from None
    return values


def read_columns(text: str, fields: Sequence[Field],
                 decode: Callable[[int, list], object]) -> tuple[np.ndarray, np.ndarray, list]:
    """Columns of records whose first field is a ``Number`` and whose other
    fields form a key that many lines share: (numbers, codes, keys), where
    record i's key is ``keys[codes[i]]``, the value of ``decode(line_no,
    values)`` at the key's first line for its fields after the first.

    Only the block reader builds columns: from ASCII text as written, else
    from the text normalized (each non-blank line's fields joined by single
    spaces), with each record mapped back to its line.  If both fail,
    ``_raise_first_error`` raises the first bad line's error.
    """
    found = _block_columns(text, fields) if text.isascii() else None
    line_of: Sequence[int] = range(1, len(text) + 2)  # as written, record k is line k + 1
    if found is None:
        lines = [" ".join(line.split()) for line in text.splitlines()]
        line_of = [line_no for line_no, line in enumerate(lines, start=1) if line]
        found = _block_columns("\n".join(filter(None, lines)), fields)
    if found is None:
        _raise_first_error(text, fields, decode)
    numbers, code_of, firsts = found
    return numbers, code_of, [decode(line_of[k], values) for k, values in firsts]


def _raise_first_error(text: str, fields: Sequence[Field], decode: Callable) -> NoReturn:
    """Tokenize every line of text that the block reader rejected, and decode
    each key at its first line, in line order, so that the first bad line's
    error is the one raised."""
    keys: set[str] = set()
    for line_no, line in enumerate(text.splitlines(), start=1):
        values, key = tokenize(line_no, line, fields), " ".join(line.split()[1:])
        if values is not None and key not in keys:
            keys.add(key)
            decode(line_no, values[1:])
    raise RuntimeError("record reader bug: the block reader rejected text with no bad line")


def _block_columns(text: str, fields: Sequence[Field]):
    """(numbers, codes, [(first record, values)]) of ``text`` if it is all
    in the written form, else None: ``\\n`` line ends and no other byte at or
    below a space, each line ``<first key>=<number> <rest>`` with single
    spaces between fields, the number accepted by the first field's
    ``Number`` and ``rest`` by ``tokenize``.  Blocks of about ``_BLOCK_BYTES``
    characters, cut at line ends, are checked with numpy, and each distinct
    rest is tokenized at its first record.  A byte check cannot see non-ASCII
    whitespace, so the caller hands over no text that holds it."""
    number = fields[0][1]
    prefix = np.frombuffer(f"{fields[0][0]}=".encode(), np.uint8)
    layout = np.array([32] * (len(fields) - 1) + [10], np.uint8)  # a line's gaps
    rows = text.count("\n") + 1  # at least the number of lines
    numbers, code_of = np.empty(rows, np.dtype(number.kind)), np.empty(rows, np.intp)
    codes: dict[bytes, int] = defaultdict()
    codes.default_factory = codes.__len__  # a new rest gets the next code
    firsts: list = []
    row = start = 0
    while start < len(text):
        end = text.rfind("\n", start, start + _BLOCK_BYTES) + 1
        if end <= start:  # a line longer than a block
            end = text.find("\n", start + _BLOCK_BYTES) + 1 or len(text)
        try:
            buf = bytearray(text[start:end].encode())
        except UnicodeEncodeError:  # a lone surrogate: the line loop names its line
            return None
        start = end
        if not buf.endswith(b"\n"):
            buf += b"\n"
        b = np.frombuffer(buf, np.uint8)
        # A line's bytes at or below a space are its len(fields) - 1 spaces,
        # then its line end: no other control byte.  Its first value is not
        # empty.
        gaps = np.flatnonzero(b <= 32)
        if gaps.size % len(fields):
            return None
        gaps = gaps.reshape(-1, len(fields))
        starts = np.r_[0, gaps[:-1, -1] + 1]
        if ((b[gaps] != layout).any() or (gaps[:, 0] - starts <= prefix.size).any()
                or (b[starts[:, None] + np.arange(prefix.size)] != prefix).any()):
            return None
        b[starts + prefix.size - 1] = b[gaps[:, 0]] = 10  # each line: key, number, rest
        tokens = bytes(buf).split(b"\n")
        n = len(gaps)
        try:  # float() and int() of bytes read ASCII spellings only
            x = np.fromiter(map(number.kind, tokens[1::3]), numbers.dtype, n)
        except (ValueError, OverflowError):
            return None
        if not ((number.low <= x) & (x < number.high)).all():
            return None
        known = len(codes)
        c = np.fromiter(map(codes.__getitem__, tokens[2::3]), np.intp, n)
        new = np.flatnonzero(c >= known)
        first = row + new[np.unique(c[new], return_index=True)[1]]
        for k, rest in zip(first.tolist(), islice(codes, known, None)):
            try:
                values = tokenize(k + 1, rest.decode(), fields[1:])
            except RecordError:
                values = None
            if values is None:  # a rest of spaces alone
                return None
            firsts.append((k, values))
        numbers[row:row + n], code_of[row:row + n] = x, c
        row += n
    return numbers[:row], code_of[:row], firsts
