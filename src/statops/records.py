"""The ``key=value`` record syntax of traces, generator specs, repair logs
and their truth sidecars.

A record is one line of whitespace-separated ``key=value`` fields in a fixed
order.  Lines end at every boundary ``str.splitlines`` knows, CRLF included,
and count from 1, blank ones included; a blank line holds no record.  This
module writes every error of the syntax: ``line N: expected K fields, got
M``, ``line N: expected field 'k', got 't'`` and ``line N: bad k 'v'``.
"""

from __future__ import annotations

import re
from typing import Callable, Sequence

import numpy as np

# (key, converter): the converter returns the field's value from its raw text,
# or rejects it with ValueError or LookupError.
Field = tuple[str, Callable[[str], object]]


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


def read_columns(source, canonical: re.Pattern, fields: Sequence[Field],
                 decode: Callable[[int, str], object], number: Callable,
                 low: float, high: float) -> tuple[list, np.ndarray, list]:
    """Columns of records whose first field is a number and whose other
    fields form a key that many lines share.

    Returns (numbers, codes, keys): line i's key is ``keys[codes[i]]``, the
    value of ``decode(line_no, key)`` at the key's first line, where ``key``
    is the key's fields joined by single spaces.  A line that ``canonical``
    fully matches as (number, key), with ``number(...)`` in [low, high), is
    taken as it is; any other line goes through ``tokenize``, which raises
    its error.  Lines are read in order, so the first bad line's error is the
    one raised.
    """
    match = canonical.fullmatch
    codes: dict[str, int] = {}
    keys: list = []
    numbers: list = []
    code_of: list[int] = []
    add_number, add_code = numbers.append, code_of.append
    for line_no, line in enumerate(split_lines(source), start=1):
        m = match(line)
        if m is not None:
            x, key = m.groups()
            try:
                x = number(x)
            except ValueError:
                m = None
            else:
                if not low <= x < high:
                    m = None
        if m is None:
            values = tokenize(line_no, line, fields)
            if values is None:
                continue
            x, key = values[0], " ".join(line.split()[1:])
        code = codes.get(key)
        if code is None:
            code = codes[key] = len(keys)
            keys.append(decode(line_no, key))
        add_number(x)
        add_code(code)
    return numbers, np.array(code_of, dtype=np.intp), keys
