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

from dataclasses import dataclass

import numpy as np

from .charpoly import CoeffVector
from .errors import InvalidInput, UnsupportedParams
from .patterns import Sign, SignPattern


@dataclass(frozen=True)
class FamilyParams:
    """Order ``n`` and feedback offset ``r`` with 2 <= r <= n."""

    n: int
    r: int

    def __post_init__(self):
        if not (2 <= self.r <= self.n):
            raise InvalidInput(f"need 2 <= r <= n, got n={self.n}, r={self.r}")


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


def build_pattern(p: FamilyParams) -> SignPattern:
    """The n-by-n family pattern for the given parameters."""
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


def coeff_values(n: int, r: int, a, b: float) -> list[float]:
    """Characteristic coefficients of the normalized structure, closed form.

    Valid for any real parameter values (positivity is not needed for the
    identity itself).  ``a`` is indexed a[0] = a_1, ..., a[n-2] = a_{n-1};
    a_0 = 1 is injected here.
    """

    def av(j):
        return 1.0 if j == 0 else a[j - 1]

    vals = [av(1) - 1.0]
    for j in range(2, r):
        vals.append(av(j) - av(j - 1))
    for j in range(r, n):
        vals.append(av(j) - av(j - 1) + b * av(j - r))
    vals.append(b * av(n - r) - av(n - 1))
    return vals


def coeff_map(x: FamilyRealization) -> CoeffVector:
    """Coefficient vector of ``build_matrix(x)`` without forming the matrix.

    Refuses r = n, where the middle band of the closed form is empty and
    the construction is handled separately; route those through
    ``charpoly.char_coeffs`` instead.
    """
    n, r = x.params.n, x.params.r
    if r >= n:
        raise UnsupportedParams("closed-form coefficients require r < n")
    return CoeffVector(tuple(coeff_values(n, r, x.a, x.b)))


def coeff_values_batch(
    n: int, r: int, a: np.ndarray, b: np.ndarray, corner: float = -1.0
) -> np.ndarray:
    """Vectorized :func:`coeff_values` over rows of ``a`` and entries of ``b``.

    Accepts r = n (empty middle band); used by sampling-based checks.
    ``corner`` is the (n, n) entry: -1 in the normalized family, 0 when
    that entry is deleted.  In general
    v_j = a_j + corner a_{j-1} (+ b a_{j-r} for j >= r) for j < n and
    v_n = b a_{n-r} + corner a_{n-1}.
    """
    m = a.shape[0]
    full = np.concatenate([np.ones((m, 1)), a], axis=1)  # a_0..a_{n-1}
    out = np.empty((m, n))
    for j in range(1, r):
        out[:, j - 1] = full[:, j] + corner * full[:, j - 1]
    for j in range(r, n):
        out[:, j - 1] = full[:, j] + corner * full[:, j - 1] + b * full[:, j - r]
    out[:, n - 1] = b * full[:, n - r] + corner * full[:, n - 1]
    return out
