"""Sign patterns and the qualitative matrix classes they define.

A sign pattern is a grid over {+, -, 0}; its class is the set of real
matrices whose entrywise signs match the grid.  This module holds the
pattern value type, class membership, super/subpattern relations,
irreducibility, and the ``.sgn`` text format.

All indices in this module are 0-based; the CLI and file formats convert
to 1-based at the boundary.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import DimensionError, InvalidInput
from .serialize import split_grid_text


class Sign(enum.Enum):
    PLUS = "+"
    MINUS = "-"
    ZERO = "0"

    def __repr__(self):
        return f"Sign({self.value!r})"


_SIGN_VALUE = {Sign.PLUS: 1, Sign.MINUS: -1, Sign.ZERO: 0}


def sign_of(x: float) -> Sign:
    """Sign of a finite real number, by exact comparison with zero.

    Class membership is a structural claim, so no tolerance is applied
    here; see :func:`member_of_class_tol` for solver output.
    """
    x = float(x)
    if not math.isfinite(x):
        raise InvalidInput(f"sign_of requires a finite value, got {x!r}")
    if x > 0.0:
        return Sign.PLUS
    if x < 0.0:
        return Sign.MINUS
    return Sign.ZERO


@dataclass(frozen=True)
class SignPattern:
    """Immutable grid of :class:`Sign` entries."""

    entries: tuple[tuple[Sign, ...], ...]

    def __post_init__(self):
        if not self.entries or not self.entries[0]:
            raise InvalidInput("pattern must have at least one row and column")
        width = len(self.entries[0])
        for row in self.entries:
            if len(row) != width:
                raise InvalidInput("pattern rows must have equal length")

    @classmethod
    def from_rows(cls, rows: Iterable[Sequence[Sign] | str]) -> "SignPattern":
        """Build from rows given as strings like ``"+-0"`` or Sign sequences."""
        grid = []
        for row in rows:
            if isinstance(row, str):
                try:
                    grid.append(tuple(Sign(ch) for ch in row))
                except ValueError as exc:
                    raise InvalidInput(f"bad sign character in {row!r}") from exc
            else:
                grid.append(tuple(row))
        return cls(tuple(grid))

    @property
    def n_rows(self) -> int:
        return len(self.entries)

    @property
    def n_cols(self) -> int:
        return len(self.entries[0])

    @property
    def is_square(self) -> bool:
        return self.n_rows == self.n_cols

    @functools.cached_property
    def _sign_grid(self) -> np.ndarray:
        # +1, -1, 0 per entry; int8 keeps a cached grid small
        return np.array(
            [[_SIGN_VALUE[s] for s in row] for row in self.entries], dtype=np.int8
        )

    def __getitem__(self, pos: tuple[int, int]) -> Sign:
        i, j = pos
        return self.entries[i][j]

    def nonzero_positions(self) -> Iterator[tuple[int, int]]:
        for i, row in enumerate(self.entries):
            for j, s in enumerate(row):
                if s is not Sign.ZERO:
                    yield (i, j)

    def with_entry(self, i: int, j: int, s: Sign) -> "SignPattern":
        """A copy with one entry replaced."""
        rows = [list(row) for row in self.entries]
        rows[i][j] = s
        return SignPattern(tuple(tuple(row) for row in rows))

    def to_text(self) -> str:
        """Serialize in the ``.sgn`` format (dimension header, then rows)."""
        lines = [f"{self.n_rows} {self.n_cols}"]
        lines.extend("".join(s.value for s in row) for row in self.entries)
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "SignPattern":
        """Parse the ``.sgn`` format; raises InvalidInput with line numbers."""
        m, lines = split_grid_text(text, "pattern")
        grid = []
        for k, row in enumerate(lines):
            if len(row) != m:
                raise InvalidInput(f"line {k + 2}: expected {m} characters, got {len(row)}")
            try:
                grid.append(tuple(Sign(ch) for ch in row))
            except ValueError:
                raise InvalidInput(f"line {k + 2}: entries must be one of + - 0") from None
        return cls(tuple(grid))


def as_matrix(A) -> np.ndarray:
    """Coerce to a float array and reject non-finite entries."""
    M = np.asarray(A, dtype=float)
    if M.ndim != 2:
        raise InvalidInput("matrix input must be two-dimensional")
    if not np.all(np.isfinite(M)):
        raise InvalidInput("matrix entries must be finite")
    return M


def _check_same_shape(A: np.ndarray, S: SignPattern):
    if A.shape != (S.n_rows, S.n_cols):
        raise DimensionError(
            f"matrix shape {A.shape} does not match pattern {S.n_rows}x{S.n_cols}"
        )


def member_of_class(A, S: SignPattern) -> bool:
    """True iff the entrywise signs of ``A`` equal the pattern exactly.

    One comparison of ``np.sign(A)`` with the pattern's sign grid: -0.0
    counts as ZERO and a subnormal keeps its sign, as with
    :func:`sign_of`.  Raises InvalidInput for a non-finite entry and
    DimensionError for a shape other than the pattern's.
    """
    M = as_matrix(A)
    _check_same_shape(M, S)
    return np.array_equal(np.sign(M), S._sign_grid)


def member_of_class_tol(A, S: SignPattern, eps: float = 1e-12) -> bool:
    """Tolerance-aware membership check for iterative-solver output.

    Nonzero positions must exceed ``eps`` in magnitude with the required
    sign; zero positions must not exceed ``eps``.  The same one comparison
    as :func:`member_of_class`, with entries of magnitude at most ``eps``
    counted as zero.  Raises InvalidInput for a non-finite entry or an
    ``eps`` that is negative or NaN, and DimensionError for a shape other
    than the pattern's.
    """
    M = as_matrix(A)
    _check_same_shape(M, S)
    if not eps >= 0.0:
        raise InvalidInput(f"tolerance must be non-negative, got {eps!r}")
    return np.array_equal(np.sign(M) * (np.abs(M) > eps), S._sign_grid)


def is_superpattern(U: SignPattern, S: SignPattern) -> bool:
    """True iff ``U`` agrees with ``S`` on every nonzero entry of ``S``."""
    if (U.n_rows, U.n_cols) != (S.n_rows, S.n_cols):
        raise DimensionError("patterns must have equal dimensions")
    return all(U.entries[i][j] is S.entries[i][j] for i, j in S.nonzero_positions())


def one_entry_subpatterns(S: SignPattern) -> list[tuple[tuple[int, int], SignPattern]]:
    """All patterns obtained by zeroing exactly one nonzero entry of ``S``.

    Returns ``(position, subpattern)`` pairs, one per nonzero entry.
    """
    return [(pos, S.with_entry(*pos, Sign.ZERO)) for pos in S.nonzero_positions()]


def nonzero_count(S: SignPattern) -> int:
    return sum(1 for _ in S.nonzero_positions())


def adjacency(S: SignPattern) -> list[list[int]]:
    """Digraph of the pattern: arc i -> j whenever entry (i, j) is nonzero."""
    if not S.is_square:
        raise InvalidInput("digraph is defined for square patterns only")
    return [
        [j for j, s in enumerate(row) if s is not Sign.ZERO]
        for row in S.entries
    ]


def strongly_connected_components(adj: list[list[int]]) -> list[list[int]]:
    """Tarjan's algorithm, iterative; components in reverse topological order."""
    n = len(adj)
    index = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    stack: list[int] = []
    comps: list[list[int]] = []
    counter = 0
    for root in range(n):
        if index[root] != -1:
            continue
        work = [(root, 0)]
        while work:
            v, pi = work[-1]
            if pi == 0:
                index[v] = low[v] = counter
                counter += 1
                stack.append(v)
                on_stack[v] = True
            advanced = False
            for k in range(pi, len(adj[v])):
                w = adj[v][k]
                if index[w] == -1:
                    work[-1] = (v, k + 1)
                    work.append((w, 0))
                    advanced = True
                    break
                if on_stack[w]:
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[v])
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp.append(w)
                    if w == v:
                        break
                comps.append(sorted(comp))
    return comps


def is_irreducible(S: SignPattern) -> bool:
    """True iff the digraph of the (square) pattern is strongly connected."""
    return len(strongly_connected_components(adjacency(S))) == 1
