"""The ``key=value`` record syntax of traces, generator specs, repair logs
and their truth sidecars.

A record is one line of whitespace-separated ``key=value`` fields in a fixed
order.  Lines end at every boundary ``str.splitlines`` knows, CRLF included,
and count from 1, blank ones included; a blank line holds no record.  This
module writes every error of the syntax: ``line N: expected K fields, got
M``, ``line N: expected field 'k', got 't'`` and ``line N: bad k 'v'``.

A format is described once, by its field list.  ``read_columns`` reads
traces, repair logs and truth sidecars from ``str``.  Text in the written
form (ASCII, ``\\n`` line ends, single spaces) is read a block at a time
with numpy, and each distinct key is checked with the field list at its
first line; any other text goes through a loop that tokenizes every line,
which gives the same values and raises every error.
"""

from __future__ import annotations

from collections import defaultdict
from itertools import islice
from typing import Callable, Sequence

import numpy as np

# (key, converter): the converter returns the field's value from its raw text,
# or rejects it with ValueError or LookupError.
Field = tuple[str, Callable[[str], object]]

# Text per block of the written-form reader: numpy's per-call cost stays
# small next to a block, and a block's masks and tokens (about 4x its size)
# stay small next to the rest of a command's memory.
_BLOCK_BYTES = 1 << 17


class RecordError(ValueError):
    """A malformed record; carries the 1-based line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class BadValue(ValueError):
    """Raised by a converter to say more than ``bad k 'v'``: the error then
    reads ``bad k <message>``."""


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
    values = []
    for token, (key, convert) in zip(tokens, fields):
        if not token.startswith(key + "="):
            raise RecordError(line_no, f"expected field '{key}', got '{token}'")
        raw = token[len(key) + 1:]
        try:
            values.append(convert(raw))
        except BadValue as exc:
            raise RecordError(line_no, f"bad {key} {exc}") from None
        except (ValueError, LookupError):
            raise RecordError(line_no, f"bad {key} '{raw}'") from None
    return values


def read_columns(text: str, fields: Sequence[Field], decode: Callable[[int, list], object],
                 number: Callable, low: float, high: float) -> tuple[np.ndarray, np.ndarray, list]:
    """Columns of records whose first field is a number and whose other
    fields form a key that many lines share.

    Returns (numbers, codes, keys): ``numbers`` has the dtype of ``number``
    (``float`` or ``int``), and line i's key is ``keys[codes[i]]``, the value
    of ``decode(line_no, values)`` at the key's first line, where ``values``
    are the converted fields after the first.  Text in the written form is
    read a block at a time (``_written_columns``).  Any other text goes
    through the line loop, which tokenizes every line in order, so the first
    bad line's error is the one raised.
    """
    found = _written_columns(text, fields, number, low, high)
    if found is not None:
        numbers, code_of, firsts = found
        return numbers, code_of, [decode(line_no, values) for line_no, values in firsts]
    codes: dict[str, int] = {}
    keys: list = []
    numbers: list = []
    code_of: list[int] = []
    for line_no, line in enumerate(text.splitlines(), start=1):
        values = tokenize(line_no, line, fields)
        if values is None:
            continue
        key = " ".join(line.split()[1:])
        code = codes.get(key)
        if code is None:
            code = codes[key] = len(keys)
            keys.append(decode(line_no, values[1:]))
        numbers.append(values[0])
        code_of.append(code)
    return np.array(numbers, dtype=np.dtype(number)), np.array(code_of, dtype=np.intp), keys


def _written_columns(text: str, fields: Sequence[Field], number: Callable,
                     low: float, high: float):
    """(numbers, codes, [(first line, values)]) of ``text`` if it is all in
    the written form, else None: ASCII with ``\\n`` line ends and no other
    control byte, each line ``<first key>=<number> <rest>`` with single
    spaces between fields, ``number(...)`` in [low, high), and ``rest``
    accepted by ``tokenize`` with the other fields, whose values are kept.
    Blocks of about ``_BLOCK_BYTES``, cut at line ends, are checked with
    numpy; each distinct rest is tokenized once, at its first line.
    """
    prefix = np.frombuffer(f"{fields[0][0]}=".encode(), np.uint8)
    layout = np.array([32] * (len(fields) - 1) + [10], np.uint8)  # a line's gaps
    rows = text.count("\n") + 1  # at least the number of lines
    numbers, code_of = np.empty(rows, np.dtype(number)), np.empty(rows, np.intp)
    codes: dict[bytes, int] = defaultdict()
    codes.default_factory = codes.__len__  # a new rest gets the next code
    firsts: list = []
    line_no = start = 0
    while start < len(text):
        end = text.rfind("\n", start, start + _BLOCK_BYTES) + 1
        if end <= start:  # a line longer than a block
            end = text.find("\n", start + _BLOCK_BYTES) + 1 or len(text)
        buf = bytearray(text[start:end].encode())
        start = end
        if not buf.isascii():
            return None
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
        try:
            x = np.fromiter(map(number, tokens[1::3]), numbers.dtype, n)
        except (ValueError, OverflowError):
            return None
        if not ((low <= x) & (x < high)).all():
            return None
        known = len(codes)
        c = np.fromiter(map(codes.__getitem__, tokens[2::3]), np.intp, n)
        new = np.flatnonzero(c >= known)
        first = line_no + 1 + new[np.unique(c[new], return_index=True)[1]]
        for first_no, rest in zip(first.tolist(), islice(codes, known, None)):
            try:
                values = tokenize(first_no, rest.decode(), fields[1:])
            except RecordError:
                values = None
            if values is None:  # a rest of spaces alone
                return None
            firsts.append((first_no, values))
        numbers[line_no:line_no + n], code_of[line_no:line_no + n] = x, c
        line_no += n
    return numbers[:line_no], code_of[:line_no], firsts
