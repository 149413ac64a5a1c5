"""Deterministic output encoding and the matrix and pattern file layout.

JSON numbers are written with 17 significant digits so that doubles
round-trip and repeated runs are byte-identical.
"""

from __future__ import annotations

import math
import re

import numpy as np

from .errors import InvalidInput


def _format_float(x: float) -> str:
    if x != x or x in (float("inf"), float("-inf")):
        raise InvalidInput("non-finite value in output")
    return format(x, ".17g")


def json_dumps(obj) -> str:
    """Serialize dicts/lists/scalars with fixed float formatting."""
    parts: list[str] = []
    _write(obj, parts)
    return "".join(parts)


def _write(obj, parts: list[str]):
    if obj is None:
        parts.append("null")
    elif isinstance(obj, bool):
        parts.append("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        parts.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        parts.append(_format_float(float(obj)))
    elif isinstance(obj, str):
        parts.append('"' + obj.replace("\\", "\\\\").replace('"', '\\"') + '"')
    elif isinstance(obj, dict):
        parts.append("{")
        for k, (key, val) in enumerate(obj.items()):
            if k:
                parts.append(", ")
            _write(str(key), parts)
            parts.append(": ")
            _write(val, parts)
        parts.append("}")
    elif isinstance(obj, (list, tuple)):
        parts.append("[")
        for k, val in enumerate(obj):
            if k:
                parts.append(", ")
            _write(val, parts)
        parts.append("]")
    else:
        raise InvalidInput(f"cannot serialize {type(obj).__name__}")


def split_grid_text(text: str, noun: str) -> tuple[int, list[str]]:
    """Header and rows of the ``.sgn`` and ``.mat`` formats.

    Checks the 'n m' header and that exactly n rows follow, trailing
    blank lines aside; returns m and the n row lines.  ``noun`` names the
    file kind in the error messages.
    """
    lines = text.splitlines()
    if not lines:
        raise InvalidInput(f"line 1: empty {noun} file")
    header = lines[0].split()
    if len(header) != 2:
        raise InvalidInput("line 1: expected 'n m' dimension header")
    try:
        n, m = int(header[0]), int(header[1])
    except ValueError as exc:
        raise InvalidInput("line 1: non-integer dimensions") from exc
    if n < 1 or m < 1:
        raise InvalidInput("line 1: dimensions must be positive")
    rows = lines[1:]
    while len(rows) > n and not rows[-1].strip():
        rows.pop()
    if len(rows) != n:
        raise InvalidInput(f"expected {n} {noun} rows, found {len(rows)}")
    return m, rows


def parse_matrix_text(text: str) -> np.ndarray:
    """Parse the ``.mat`` format: 'n m' header, then n rows of m finite numbers."""
    m, lines = split_grid_text(text, "matrix")
    rows = []
    for k, line in enumerate(lines):
        fields = line.split()
        if len(fields) != m:
            raise InvalidInput(f"line {k + 2}: expected {m} values, got {len(fields)}")
        row = []
        for col, f in enumerate(fields, start=1):
            try:
                value = float(f)
            except ValueError:
                raise InvalidInput(f"line {k + 2}, column {col}: bad number {f!r}") from None
            if not math.isfinite(value):
                raise InvalidInput(f"line {k + 2}, column {col}: non-finite number {f!r}")
            row.append(value)
        rows.append(row)
    return np.array(rows)


def format_matrix_text(M: np.ndarray) -> str:
    lines = [f"{M.shape[0]} {M.shape[1]}"]
    for row in M:
        lines.append(" ".join(_format_float(float(v)) for v in row))
    return "\n".join(lines) + "\n"


def parse_complex_list(text: str) -> list[complex]:
    """Parse finite eigenvalues like '1+2i,1-2i,-1,-3' (i or j notation).

    The imaginary unit ends a token (before an optional closing
    parenthesis), so only a final ``i`` is read as ``j``; ``inf`` and
    ``nan`` are parsed as such and rejected as non-finite.
    """
    out = []
    for k, tok in enumerate(text.split(","), start=1):
        s = re.sub(r"i(\)?)$", r"j\1", tok.replace(" ", "").strip())
        if not s:
            raise InvalidInput(f"eigenvalue {k}: empty token")
        try:
            z = complex(s)
        except ValueError:
            raise InvalidInput(f"eigenvalue {k}: cannot parse {tok!r}") from None
        if not (math.isfinite(z.real) and math.isfinite(z.imag)):
            raise InvalidInput(f"eigenvalue {k}: non-finite value {tok!r}")
        out.append(z)
    return out
