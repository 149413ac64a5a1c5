"""Characteristic-polynomial coefficients in the alternating convention.

Throughout the package a monic characteristic polynomial is stored as the
vector (v_1, ..., v_n) with

    p(x) = x^n - v_1 x^{n-1} + v_2 x^{n-2} - ... + (-1)^n v_n,

so v_j equals the sum of the j-by-j principal minors (the j-th elementary
symmetric function of the eigenvalues).  Only the CLI converts to plain
monic coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Optional

import numpy as np

from .errors import ConvergenceError, InvalidInput, SizeLimitExceeded
from .patterns import as_matrix

_ORACLE_MAX_N = 14
# slots of N_k kept between two gathers of the Jacobian entries
_RING = 32


@dataclass(frozen=True)
class CoeffVector:
    """Coefficients (v_1..v_n) of a degree-n monic polynomial, alternating form."""

    values: tuple[float, ...]

    def __post_init__(self):
        if len(self.values) < 1:
            raise InvalidInput("coefficient vector must have length >= 1")

    @property
    def n(self) -> int:
        return len(self.values)

    def __iter__(self):
        return iter(self.values)

    def __getitem__(self, j: int) -> float:
        return self.values[j]


def _square(A) -> np.ndarray:
    M = as_matrix(A)
    if M.shape[0] != M.shape[1]:
        raise InvalidInput(f"expected a square matrix, got shape {M.shape}")
    return M


def _square_stack(A) -> np.ndarray:
    M = np.asarray(A, dtype=float)
    if M.ndim != 3 or M.shape[1] != M.shape[2]:
        raise InvalidInput(
            f"expected an (m, n, n) stack of square matrices, got shape {M.shape}"
        )
    if not np.all(np.isfinite(M)):
        raise InvalidInput("matrix entries must be finite")
    return M


def _faddeev_leverrier(M: np.ndarray, positions=()) -> tuple[np.ndarray, Optional[np.ndarray]]:
    """The Faddeev-LeVerrier recursion on an (n, n) matrix or an (m, n, n) stack.

    Returns the coefficients, shape (..., n), and, when ``positions`` are
    given, their exact partial derivatives with respect to the entries at
    those positions, shape (..., n, len(positions)).  The N_k of the
    recursion are the coefficients of adj(xI - M), so Jacobi's formula
    gives dv_k/dM_ij = (-1)^(k+1) (N_{k-1})_ji at no extra matrix product.

    Each step costs one matrix product into a reused ``AN`` buffer and one
    ``AN + c_k I`` (through a reused ``c_k I`` buffer) written straight into
    the slot of N_k.  With no positions there is one slot; with positions
    there is a ring of min(n, _RING) slots, and the (N_{k-1})_ji of a full
    ring are gathered in one indexing pass, so the extra memory per matrix
    is O(_RING n^2 + n p).  The signs are applied once at the end by
    multiplying by -1.0 (negation would flip the sign bit of a NaN), so
    every float, signed zeros included, is what a step-by-step recursion
    gives.  Every matrix of a stack goes through the same floating-point
    operations as it would alone, so each row equals the single-matrix
    result bit for bit.
    """
    n = M.shape[-1]
    batch = M.shape[:-2]
    eye = np.eye(n)
    # a single matrix keeps a scalar c_k, so it costs what the unbatched loop
    # did; a stack needs one c_k per matrix
    per_matrix = (Ellipsis, None, None) if batch else ()
    slots = min(n, _RING) if positions else 1
    ring = np.empty((slots,) + M.shape)
    ring[0] = eye
    ring_slots = list(ring)
    AN = np.empty(M.shape)
    cI = np.empty(M.shape)
    cks = np.empty((n,) + batch)
    if positions:
        rows = np.array([i for i, _ in positions], dtype=np.intp)
        cols = np.array([j for _, j in positions], dtype=np.intp)
        jac = np.empty((n,) + batch + (len(positions),))
    for k in range(1, n + 1):
        slot = (k - 1) % slots
        np.matmul(M, ring_slots[slot], out=AN)
        ck = -AN.trace(0, -2, -1) / k
        cks[k - 1] = ck
        if k == n:
            break
        if positions and slot == slots - 1:  # the ring holds N_{k-slots}..N_{k-1}
            jac[k - slots : k] = ring[..., cols, rows]
        np.multiply(ck[per_matrix], eye, out=cI)
        np.add(AN, cI, out=ring_slots[k % slots])
    # v_k = (-1)^k c_k; the +1.0 factors leave every float as it is
    np.multiply(-1.0, cks[0::2], out=cks[0::2])
    if not positions:
        return cks.T, None
    filled = (n - 1) % slots + 1
    jac[n - filled :] = ring[:filled, ..., cols, rows]
    # dv_k/dM_ij = (-1)^(k+1) (N_{k-1})_ji
    np.multiply(-1.0, jac[1::2], out=jac[1::2])
    return cks.T, np.moveaxis(jac, 0, -2)


def char_coeffs(A) -> CoeffVector:
    """Alternating-form coefficients via the Faddeev-LeVerrier recursion.

    O(n^4) and free of pivot-order nondeterminism, which keeps repeated
    runs byte-identical.
    """
    vals, _ = _faddeev_leverrier(_square(A))
    return CoeffVector(tuple(vals.tolist()))


def char_coeffs_batch(A) -> np.ndarray:
    """Coefficients of every matrix of an (m, n, n) stack, as an (m, n) array.

    Row k equals ``char_coeffs(A[k]).values`` bit for bit.  The pass keeps
    three (m, n, n) buffers, for N_k, ``AN`` and ``c_k I``, reused by every
    step, and gathers no Jacobian.
    """
    vals, _ = _faddeev_leverrier(_square_stack(A))
    return vals


def coeff_jacobian(A, positions) -> tuple[CoeffVector, np.ndarray]:
    """Coefficients of ``A`` and their exact Jacobian with respect to some entries.

    ``positions`` are 0-based (i, j) pairs; column k of the returned
    n-by-len(positions) matrix holds the derivatives of (v_1..v_n) with
    respect to the entry at ``positions[k]``.  The coefficients are those
    of :func:`char_coeffs`, bit for bit.  The derivatives are entries of the
    recursion's N_{k-1}, kept in a ring of at most _RING n-by-n slots and
    gathered once per ring fill, so the pass needs O(_RING n^2 + n p)
    extra memory, not the n^3 of keeping every N_k.
    """
    M = _square(A)
    n = M.shape[0]
    positions = [tuple(pos) for pos in positions]
    for i, j in positions:
        if not (0 <= i < n and 0 <= j < n):
            raise InvalidInput(f"position {(i, j)} out of range")
    vals, jac = _faddeev_leverrier(M, positions)
    return CoeffVector(tuple(vals.tolist())), jac


def _principal_minor(sub: np.ndarray) -> float:
    """Determinant by cofactor expansion along rows, memoized over column sets.

    Equivalent to a Laplace expansion with shared subproblems; used only as
    the independent test oracle, never on the main path.
    """
    k = sub.shape[0]
    if k == 0:
        return 1.0
    full = (1 << k) - 1
    d = [0.0] * (full + 1)
    d[0] = 1.0
    rows = sub.tolist()
    for mask in range(full):
        v = d[mask]
        if v == 0.0:
            continue
        row = rows[mask.bit_count()]
        for c in range(k):
            bit = 1 << c
            if mask & bit:
                continue
            if (mask >> (c + 1)).bit_count() & 1:
                d[mask | bit] -= v * row[c]
            else:
                d[mask | bit] += v * row[c]
    return d[full]


def char_coeffs_oracle(A) -> CoeffVector:
    """Coefficients as explicit sums of principal minors (test oracle).

    Exponential cost; refuses n > 14.
    """
    M = _square(A)
    n = M.shape[0]
    if n > _ORACLE_MAX_N:
        raise SizeLimitExceeded(f"oracle supports n <= {_ORACLE_MAX_N}, got {n}")
    vals = []
    for j in range(1, n + 1):
        total = 0.0
        for rows in combinations(range(n), j):
            total += _principal_minor(M[np.ix_(rows, rows)])
        vals.append(total)
    return CoeffVector(tuple(vals))


def spectrum(A) -> tuple[complex, ...]:
    """Eigenvalue multiset, deterministically ordered.

    Sorted by (real part, |imaginary part|) with the +imaginary member of
    each conjugate pair first, so conjugates are adjacent in the output.
    """
    M = _square(A)
    try:
        eigs = np.linalg.eigvals(M)
    except np.linalg.LinAlgError as exc:
        cond = float(np.linalg.cond(M)) if M.size else float("nan")
        raise ConvergenceError(
            f"eigenvalue iteration failed (condition estimate {cond:.3e})"
        ) from exc
    ordered = sorted(
        (complex(z) for z in eigs),
        key=lambda z: (z.real, abs(z.imag), -z.imag),
    )
    return tuple(ordered)


def coeffs_to_monic(c: CoeffVector) -> tuple[float, ...]:
    """Convert to plain monic coefficients (c_1..c_n), p(x) = x^n + sum c_j x^{n-j}."""
    return tuple(((-1.0) ** j) * v for j, v in enumerate(c.values, start=1))


def monic_to_coeffs(cs) -> CoeffVector:
    """Inverse of :func:`coeffs_to_monic`."""
    return CoeffVector(tuple(((-1.0) ** j) * float(v) for j, v in enumerate(cs, start=1)))
