"""The ``key=value`` record syntax of traces, generator specs, repair logs
and their truth sidecars.

A record is one line of whitespace-separated ``key=value`` fields in a fixed
order.  Lines end at every boundary ``str.splitlines`` knows, CRLF included,
and count from 1, blank ones included; a blank line holds no record.  This
module writes every error of the syntax: ``line N: expected K fields, got
M``, ``line N: expected field 'k', got 't'`` and ``line N: bad k 'v'``.

``read_columns`` reads traces, repair logs and truth sidecars.  Text in the
written form (ASCII, ``\\n`` line ends, single spaces) is read a block at a
time with numpy; any other text goes through a line-checked loop, which
gives the same values and raises every error.
"""

from __future__ import annotations

import re
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
_BLOCK_BYTES = 1 << 15


class RecordError(ValueError):
    """A malformed record; carries the 1-based line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class BadValue(ValueError):
    """Raised by a converter to say more than ``bad k 'v'``: the error then
    reads ``bad k <message>``."""


def split_lines(source) -> list[str]:
    """The lines of bytes (UTF-8), str, a file-like object or an iterable."""
    if hasattr(source, "read"):
        source = source.read()
    if isinstance(source, bytes):
        source = source.decode("utf-8")
    return source.splitlines() if isinstance(source, str) else list(source)


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


def read_columns(source, fields: Sequence[Field], rest_form: re.Pattern,
                 decode: Callable[[int, str], object], number: Callable,
                 low: float, high: float) -> tuple[np.ndarray, np.ndarray, list]:
    """Columns of records whose first field is a number and whose other
    fields form a key that many lines share.

    Returns (numbers, codes, keys): ``numbers`` has the dtype of ``number``
    (``float`` or ``int``), and line i's key is ``keys[codes[i]]``, the value
    of ``decode(line_no, key)`` at the key's first line, where ``key`` is the
    key's fields joined by single spaces.  Str or bytes in the written form
    are read a block at a time (``_written_columns``).  Anything else goes
    through the line loop, which tokenizes each key's first line and each
    line not in the written form, in order, so the first bad line's error is
    the one raised.
    """
    if hasattr(source, "read"):
        source = source.read()
    if isinstance(source, (str, bytes)):
        found = _written_columns(source, fields, rest_form, number, low, high)
        if found is not None:
            numbers, code_of, firsts = found
            return numbers, code_of, [decode(line_no, key) for line_no, key in firsts]
    prefix = fields[0][0] + "="
    codes: dict[str, int] = {}
    keys: list = []
    numbers: list = []
    code_of: list[int] = []
    for line_no, line in enumerate(split_lines(source), start=1):
        # A line whose key passed tokenize and decode at an earlier line
        # needs only its number checked, if it is written with no padding.
        head, _, key = line.partition(" ")
        raw = head[len(prefix):]
        code = codes.get(key) if head.startswith(prefix) and raw == raw.strip() else None
        if code is not None:
            try:
                x = number(raw)
            except ValueError:
                code = None
            else:
                code = code if low <= x < high else None
        if code is None:
            values = tokenize(line_no, line, fields)
            if values is None:
                continue
            x, key = values[0], " ".join(line.split()[1:])
            code = codes.get(key)
            if code is None:
                code = codes[key] = len(keys)
                keys.append(decode(line_no, key))
        numbers.append(x)
        code_of.append(code)
    return np.array(numbers, dtype=np.dtype(number)), np.array(code_of, dtype=np.intp), keys


def _written_columns(text: str | bytes, fields: Sequence[Field], rest_form: re.Pattern,
                     number: Callable, low: float, high: float):
    """(numbers, codes, [(first line, key)]) of ``text`` if it is all in the
    written form, else None: ASCII with ``\\n`` line ends and no other
    control byte, each line ``<first key>=<number> <rest>`` with single
    spaces between fields, ``number(...)`` in [low, high), and ``rest``
    fully matching ``rest_form``, which must admit only single-spaced fields
    that ``tokenize`` accepts.  Blocks of about ``_BLOCK_BYTES``, cut at line
    ends, are checked with numpy; each distinct rest is matched once.
    """
    newline = "\n" if isinstance(text, str) else b"\n"
    prefix = np.frombuffer(f"{fields[0][0]}=".encode(), np.uint8)
    layout = np.array([32] * (len(fields) - 1) + [10], np.uint8)  # a line's gaps
    rows = text.count(newline) + 1  # at least the number of lines
    numbers, code_of = np.empty(rows, np.dtype(number)), np.empty(rows, np.intp)
    codes: dict[bytes, int] = defaultdict()
    codes.default_factory = codes.__len__  # a new rest gets the next code
    firsts: list = []
    line_no = start = 0
    while start < len(text):
        end = text.rfind(newline, start, start + _BLOCK_BYTES) + 1
        if end <= start:  # a line longer than a block
            end = text.find(newline, start + _BLOCK_BYTES) + 1 or len(text)
        buf = bytearray(text[start:end].encode() if isinstance(text, str) else text[start:end])
        start = end
        if not buf.isascii():
            return None
        if not buf.endswith(b"\n"):
            buf += b"\n"
        b = np.frombuffer(buf, np.uint8)
        # A line's bytes at or below a space are its len(fields) - 1 spaces,
        # then its line end: no other control byte.  Its first value is not
        # empty, and rest_form admits no empty field.
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
        rests = [rest.decode() for rest in islice(codes, known, None)]
        if not all(map(rest_form.fullmatch, rests)):
            return None
        new = np.flatnonzero(c >= known)
        first = new[np.unique(c[new], return_index=True)[1]]
        firsts += zip((line_no + 1 + first).tolist(), rests)
        numbers[line_no:line_no + n], code_of[line_no:line_no + n] = x, c
        line_no += n
    return numbers[:line_no], code_of[:line_no], firsts
