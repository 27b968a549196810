"""Plain-text matrix files.

One matrix row per line, values comma-separated, no header.  Values are
written with repr(), the shortest decimal that round-trips the double,
so write -> read -> write is byte-identical.
"""

from __future__ import annotations

import math
import os
import re

import numpy as np

from .errors import ParseError
from .model import as_matrix

# what the "surrogateescape" error handler turns undecodable bytes into
_UNDECODABLE = re.compile("[\udc80-\udcff]")


def write_matrix(path: str | os.PathLike, A) -> None:
    A = as_matrix(A, "matrix")
    with open(path, "w", encoding="utf-8") as fh:
        for row in A:
            fh.write(",".join(repr(float(v)) for v in row))
            fh.write("\n")


def read_matrix(path: str | os.PathLike):
    """Read a matrix written by write_matrix (or by hand).

    Raises ParseError with 1-based line and column positions on ragged
    rows, unparsable fields, or non-finite values, and with the line of
    the first byte that is not UTF-8; an empty file is an error too.
    """
    rows: list[list[float]] = []
    width = None
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            if _UNDECODABLE.search(line):
                raise ParseError("not UTF-8 text", line=lineno)
            line = line.strip()
            if not line:
                continue
            fields = line.split(",")
            if width is None:
                width = len(fields)
            elif len(fields) != width:
                raise ParseError(
                    f"row has {len(fields)} values, expected {width}", line=lineno)
            values = []
            for colno, field in enumerate(fields, start=1):
                try:
                    v = float(field)
                except ValueError:
                    raise ParseError(f"not a number: {field.strip()!r}",
                                     line=lineno, column=colno) from None
                if not math.isfinite(v):
                    raise ParseError(f"non-finite value {field.strip()!r}",
                                     line=lineno, column=colno)
                values.append(v)
            rows.append(values)
    if not rows:
        raise ParseError("no rows found")
    return np.array(rows, dtype=float)
