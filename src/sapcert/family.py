"""The two-parameter sign-pattern family under study and its realizations.

For order n and feedback offset r (2 <= r <= n) the pattern has a positive
first column (rows 1..n-1), a negative superdiagonal, one positive entry in
the last row at column n-r+1, and a negative (n, n) corner: 2n nonzeros in
total.  Realizations are normalized so the superdiagonal and corner have
magnitude one; general magnitudes are recoverable by positive diagonal
similarity and positive scaling, which preserve both the sign class and
the structure of the characteristic coefficients.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .charpoly import CoeffVector
from .errors import InvalidInput
from .patterns import Sign, SignPattern


# largest order accepted.  The nilpotent certificate, which every command
# but njverify builds, is slowest at r = 2: 0.3-0.5 s at n = 320, and
# less at r = n/2 and r = n - 1, on a 2-vCPU Xeon.  `realize` on a random
# target at r = 2 returns its typed result in about 3 s at n = 160 and
# 20 s at n = 320, most of it in the sign proofs of its scales
MAX_N = 320


@dataclass(frozen=True)
class FamilyParams:
    """Order ``n`` and feedback offset ``r`` with 2 <= r <= n <= MAX_N."""

    n: int
    r: int

    def __post_init__(self):
        if not (2 <= self.r <= self.n):
            raise InvalidInput(f"need 2 <= r <= n, got n={self.n}, r={self.r}")
        if self.n > MAX_N:
            raise InvalidInput(f"n={self.n} exceeds the largest supported order MAX_N={MAX_N}")


@dataclass(frozen=True)
class FamilyRealization:
    """Normalized realization: first-column values ``a`` and feedback ``b``.

    ``a`` holds a_1..a_{n-1} (all positive); the implicit a_0 = 1 never
    appears as a field.  ``b`` is the positive feedback entry.
    """

    params: FamilyParams
    a: tuple[float, ...]
    b: float

    def __post_init__(self):
        if len(self.a) != self.params.n - 1:
            raise InvalidInput(
                f"expected {self.params.n - 1} first-column values, got {len(self.a)}"
            )
        if any(v <= 0 for v in self.a) or self.b <= 0:
            raise InvalidInput("realization parameters must be strictly positive")


# a pattern at n = MAX_N holds n^2 Signs, about 1 MB with its cached sign
# grid, so the memo is bounded
@functools.lru_cache(maxsize=64)
def build_pattern(p: FamilyParams) -> SignPattern:
    """The n-by-n family pattern for the given parameters, memoized.

    Patterns are immutable, so callers share one per (n, r), and with it
    the sign grid that class membership caches on it.
    """
    n, r = p.n, p.r
    grid = [[Sign.ZERO] * n for _ in range(n)]
    for i in range(n - 1):
        grid[i][0] = Sign.PLUS
        grid[i][i + 1] = Sign.MINUS
    grid[n - 1][n - r] = Sign.PLUS
    grid[n - 1][n - 1] = Sign.MINUS
    return SignPattern(tuple(tuple(row) for row in grid))


def build_matrix(x: FamilyRealization) -> np.ndarray:
    """Materialize the normalized realization as a dense matrix."""
    n, r = x.params.n, x.params.r
    M = np.zeros((n, n))
    for i in range(n - 1):
        M[i, 0] = x.a[i]
        M[i, i + 1] = -1.0
    M[n - 1, n - r] = x.b
    M[n - 1, n - 1] = -1.0
    return M


def coeff_map(x: FamilyRealization) -> CoeffVector:
    """Coefficient vector of ``build_matrix(x)`` without forming the matrix.

    Valid for every 2 <= r <= n (at r = n the middle band is empty).
    """
    n, r = x.params.n, x.params.r
    row = coeff_values_batch(n, r, np.array([x.a], dtype=float), np.array([x.b]))[0]
    return CoeffVector(tuple(row.tolist()))


def coeff_values_batch(
    n: int, r: int, a: np.ndarray, b: np.ndarray, corner: float = -1.0
) -> np.ndarray:
    """Characteristic coefficients of the normalized structure, closed form.

    One row per row of ``a`` (a_1..a_{n-1}; a_0 = 1 is injected here) and
    entry of ``b``.  Valid for any real parameter values and for r = n
    (empty middle band).  ``corner`` is the (n, n) entry: -1 in the
    normalized family, 0 when that entry is deleted.  In general
    v_j = a_j + corner a_{j-1} (+ b a_{j-r} for j >= r) for j < n and
    v_n = b a_{n-r} + corner a_{n-1}.
    """
    m = a.shape[0]
    # one contiguous row per coefficient, so each operation covers all
    # coefficients and samples at once; written in place, because large
    # temporaries make the allocator return and re-fault heap pages
    full = np.concatenate([np.ones((1, m)), a.T])  # a_0..a_{n-1}
    out = np.empty((n, m))
    np.multiply(corner, full[:-1], out=out[:-1])
    np.add(full[1:], out[:-1], out=out[:-1])
    out[n - 1] = b * full[n - r] + corner * full[n - 1]
    full[: n - r] *= b
    out[r - 1 : n - 1] += full[: n - r]
    return out.T


def _next_column(prev, low, const: int) -> tuple[int, ...]:
    # prev - b low + const, ascending, without trailing zeros
    cs = list(prev) or [0]
    if len(cs) <= len(low):
        cs += [0] * (len(low) + 1 - len(cs))
    for i, c in enumerate(low, start=1):
        cs[i] -= c
    cs[0] += const
    while cs and not cs[-1]:
        cs.pop()
    return tuple(cs)


def eliminate_integers(
    n: int, r: int, scale: int, steps: Sequence[int]
) -> tuple[list[tuple[int, ...]], tuple[int, ...] | None]:
    """The coefficient equations for a target solved forward in b, on integers.

    The target alpha is given as D = ``scale``, any positive common
    denominator, and ``steps[j - 1]`` = D alpha_j.  Every a'_j and g' is
    then an integer polynomial, with a_j(b) = a'_j(b) / D:

        a'_0 = D,   a'_j = a'_{j-1} - b a'_{j-r} + D alpha_j,

    with a'_{j-r} read as 0 for j < r.  The closing polynomial
    g'(b) = b a'_{n-r} - a'_{n-1} - D alpha_n vanishes at the b that
    realize the target.  Returns ([a'_0, a'_1, ...], g') as ascending
    coefficient tuples, without trailing zeros.  The constants
    a'_1..a'_{r-1} come first; when one of them is not positive the
    elimination stops there and g' is None.  Otherwise the leading
    coefficients of the a'_j alternate in sign with j // r and never
    cancel, so a'_j has degree exactly j // r and g' degree n // r: at
    2r > n g' = g0 + g1 b with g1 > 0.  At alpha = 0 and D = 1 this
    is the nilpotent recurrence, closed by h = -g'.
    """
    a = [(scale,)]
    for j in range(1, n):
        a.append(_next_column(a[j - 1], a[j - r] if j >= r else (), steps[j - 1]))
        if j < r and (not a[j] or a[j][0] <= 0):  # the constant a'_j
            return a, None
    return a, tuple(-c for c in _next_column(a[n - 1], a[n - r], steps[n - 1]))

