"""Jacobian certification: the nonsingularity check behind spectral arbitrariness.

Two independent determinant routes are computed for the family Jacobian:
partial-pivoting LU on the assembled matrix of partial derivatives, and
the closed-form block factorization (an identity-triangular leading block
times a structured block with provably positive determinant).  Their
agreement is the core cross-check of the whole artifact, so both values
are always recorded.

A generic verifier is also provided: given any sign pattern, a nilpotent
member of its class, and n chosen entry positions, it takes the exact
derivatives of the characteristic coefficients from the same
Faddeev-LeVerrier pass that computes them, and reports whether the
Jacobian determinant certifies every superpattern as spectrally arbitrary.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .charpoly import coeff_jacobian
from .errors import CertificationFailed, InvalidInput, PreconditionViolated
from .family import FamilyParams, FamilyRealization
from .nilpotent import NilpotentCertificate
from .patterns import Sign, SignPattern, member_of_class

DET_CROSSCHECK_RTOL = 1e-8
NJ_DET_THRESHOLD = 1e-8
NJ_NILPOTENCY_TOL_PER_N = 1e-9

SAP_CERTIFIED = "SAP_certified"
INCONCLUSIVE = "Inconclusive"


@dataclass(frozen=True)
class JacobianReport:
    """Both determinant routes for the family Jacobian at one point."""

    jacobian: np.ndarray
    det_lu: float
    det_blocks: float
    positive: bool
    point: FamilyRealization

    def as_json_dict(self) -> dict:
        return {
            "n": self.point.params.n,
            "r": self.point.params.r,
            "det_lu": self.det_lu,
            "det_blocks": self.det_blocks,
            "positive": self.positive,
        }


@dataclass(frozen=True)
class NJCertificate:
    """Outcome of the generic nilpotent-Jacobian verification.

    ``conclusion`` is SAP_certified when |det| clears the threshold and
    Inconclusive otherwise; a small determinant never disproves anything,
    since nonsingularity is sufficient but not necessary.
    """

    pattern: SignPattern
    nilpotent_point: np.ndarray
    positions: tuple[tuple[int, int], ...]  # 0-based
    jacobian_det: float
    conclusion: str

    def as_json_dict(self) -> dict:
        return {
            "jacobian_det": self.jacobian_det,
            "conclusion": self.conclusion,
            "positions": [[i + 1, j + 1] for i, j in self.positions],
        }


def jacobian_matrix(x: FamilyRealization) -> np.ndarray:
    """Partial derivatives of the characteristic coefficients.

    Row i is coefficient i+1; columns are a_1, ..., a_{n-1}, b.  Entries
    follow from the closed-form coefficient map: each coefficient is
    affine in every single parameter.
    """
    n, r = x.params.n, x.params.r

    def av(j):
        return 1.0 if j == 0 else x.a[j - 1]

    J = np.zeros((n, n))
    b_col = n - 1
    for j in range(1, n):  # coefficient j: a_j - a_{j-1} (+ b a_{j-r} for j >= r)
        row = j - 1
        J[row, j - 1] = 1.0
        if j >= 2:
            J[row, j - 2] = -1.0
        if j >= r:
            if j - r >= 1:
                J[row, j - r - 1] = x.b
            J[row, b_col] = av(j - r)
    row = n - 1  # coefficient n: b a_{n-r} - a_{n-1}
    J[row, n - 2] = -1.0
    if n - r >= 1:
        J[row, n - r - 1] = x.b
    J[row, b_col] = av(n - r)
    return J


def build_A_block(k: int, r: int, t_h: float) -> np.ndarray:
    """The k-by-k upper-bidiagonal block with a feedback band.

    Diagonal -1, superdiagonal +1, and t_h at (i, i-r+1) in 1-based terms,
    so the last row carries t_h in column k-r+1; no band appears if r > k.
    """
    M = np.zeros((k, k))
    for i in range(k):
        M[i, i] = -1.0
        if i + 1 < k:
            M[i, i + 1] = 1.0
    for i in range(r - 1, k):  # 0-based row i has the band at column i-r+1
        M[i, i - r + 1] = t_h
    return M


def build_B_block(l: int, r: int, t_h: float, c) -> np.ndarray:
    """The l-by-l lower-bidiagonal block with last column ``c``.

    Diagonal +1 (rows 1..l-1), subdiagonal -1, the t_h band at (i, i-r)
    in 1-based terms, and c_1..c_l down the last column; no band appears
    if r >= l.
    """
    c = [float(v) for v in c]
    if len(c) != l:
        raise InvalidInput(f"last column needs {l} entries, got {len(c)}")
    if any(v <= 0 for v in c):
        raise InvalidInput("last-column entries must be positive")
    M = np.zeros((l, l))
    for i in range(l - 1):
        M[i, i] = 1.0
    for i in range(1, l):
        M[i, i - 1] = -1.0
    for i in range(r, l):  # 0-based: 1-based row i+1 has the band at column i+1-r
        M[i, i - r] = t_h
    for i in range(l):
        M[i, l - 1] = c[i]
    return M


def det_A_brute(k: int, p: FamilyParams, t_h: float) -> float:
    """LU determinant of the materialized A-style block."""
    if not (1 <= k < p.n):
        raise InvalidInput(f"need 1 <= k < n, got k={k}")
    return float(np.linalg.det(build_A_block(k, p.r, t_h)))


def det_A_closed(k: int, p: FamilyParams, cert: NilpotentCertificate) -> float:
    """Closed-form determinant of the A-style block at the certificate.

    (-1)^k a0_k for r <= k, (-1)^k for r > k, and 1 for k = 0.
    """
    if not (0 <= k < p.n):
        raise InvalidInput(f"need 0 <= k < n, got k={k}")
    if k == 0:
        return 1.0
    sign = -1.0 if k % 2 else 1.0
    if p.r > k:
        return sign
    return sign * cert.a0[k - 1]


def det_B_brute(l: int, p: FamilyParams, t_h: float, c) -> float:
    """LU determinant of the materialized B-style block."""
    if not (1 <= l <= p.n):
        raise InvalidInput(f"need 1 <= l <= n, got l={l}")
    return float(np.linalg.det(build_B_block(l, p.r, t_h, c)))


def jacobian_det(x: FamilyRealization) -> JacobianReport:
    """Determinant of the family Jacobian by both routes.

    The leading (r-1)-by-(r-1) block of the Jacobian is lower triangular
    with unit diagonal, so the block route reduces to the determinant of
    the trailing B-style block of order n-r+1 whose last column is
    (a_0, a_1, ..., a_{n-r}).
    """
    n, r = x.params.n, x.params.r
    J = jacobian_matrix(x)
    d_lu = float(np.linalg.det(J))
    c = [1.0] + list(x.a[: n - r])
    d_blocks = det_B_brute(n - r + 1, x.params, x.b, c)
    if abs(d_lu - d_blocks) > DET_CROSSCHECK_RTOL * max(1.0, abs(d_lu)):
        # the two routes are independent; disagreement is a hard failure
        raise CertificationFailed(
            f"determinant routes disagree: LU {d_lu!r} vs blocks {d_blocks!r}"
        )
    return JacobianReport(
        jacobian=J,
        det_lu=d_lu,
        det_blocks=d_blocks,
        positive=d_lu > 0.0,
        point=x,
    )


def nj_verify(S: SignPattern, M, positions) -> NJCertificate:
    """Generic nilpotent-Jacobian check at a user-supplied nilpotent point.

    ``positions`` are n distinct 0-based (i, j) pairs naming nonzero
    entries of the pattern.  The Jacobian of the characteristic
    coefficients with respect to those entries comes from one
    Faddeev-LeVerrier pass: dv_k/dM_ij = (-1)^(k+1) (N_{k-1})_ji, where the
    N_k are the adjugate coefficients the recursion forms anyway.  It is
    exact up to the rounding of that pass; there is no step size.
    """
    M = np.array(M, dtype=float)
    if not S.is_square:
        raise PreconditionViolated("pattern must be square")
    n = S.n_rows
    positions = [tuple(pos) for pos in positions]
    if len(positions) != n:
        raise InvalidInput(f"need exactly {n} positions, got {len(positions)}")
    if len(set(positions)) != len(positions):
        raise InvalidInput("positions must be pairwise distinct")
    for (i, j) in positions:
        if not (0 <= i < n and 0 <= j < n):
            raise InvalidInput(f"position {(i, j)} out of range")
        if S.entries[i][j] is Sign.ZERO:
            raise InvalidInput(f"position {(i, j)} is a zero entry of the pattern")
    if not member_of_class(M, S):
        raise PreconditionViolated("matrix is not a member of the pattern class")
    base, J = coeff_jacobian(M, positions)
    nilp_residual = max(abs(v) for v in base)
    if nilp_residual > NJ_NILPOTENCY_TOL_PER_N * n:
        raise PreconditionViolated(
            f"matrix is not nilpotent to tolerance: residual {nilp_residual:.3e}"
        )
    det = float(np.linalg.det(J))
    conclusion = SAP_CERTIFIED if abs(det) > NJ_DET_THRESHOLD else INCONCLUSIVE
    return NJCertificate(
        pattern=S,
        nilpotent_point=M,
        positions=tuple(positions),
        jacobian_det=det,
        conclusion=conclusion,
    )
