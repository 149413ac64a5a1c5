"""Constructive realization of target characteristic polynomials.

Within the normalized family structure the coefficient equations eliminate
forward (:func:`sapcert.family.eliminate`): once the target's denominators
are cleared (floats are dyadic rationals), each first-column value becomes
an integer polynomial in the feedback entry b, and the last equation
closes the system as a scalar integer polynomial g(b).  Certified root
isolation then either finds an admissible positive root or proves there is
none at the current scale; values at the root are exact rationals.

Targets with no admissible root are handled by the scaling fallback: the
coefficients c^j * v_j of the scaled matrix c*A are realized instead and
the result is divided by c.  The returned matrix then realizes the
original target exactly in exact arithmetic; in doubles the entry
rounding is amplified by c^{-j}, so after the power-of-two descent the
scale is refined upward by dyadic bisection to the largest admissible c.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Sequence

import numpy as np

from .charpoly import CoeffVector, char_coeffs
from .errors import ConvergenceError, InvalidInput, RealizationFailed
from .family import (
    FamilyParams,
    FamilyRealization,
    build_matrix,
    build_pattern,
    eliminate,
)
from .nilpotent import nilpotent_realization
from .patterns import Sign, member_of_class
from .polyroots import RootBracket, positive_roots, refine, sign_at_root

RESIDUAL_RTOL = 1e-8
_LADDER_MAX_HALVINGS = 40
_LADDER_REFINE_STEPS = 14
_ROOT_WIDTH = Fraction(1, 2**60)
# candidates are isolated this coarsely; only the accepted one is refined
# to _ROOT_WIDTH, which continues the same bisection tree and so ends in
# the bracket that isolating at _ROOT_WIDTH would give
_ISOLATE_WIDTH = Fraction(1, 2**8)


@dataclass(frozen=True)
class RealizationResult:
    """A matrix in the pattern class with the requested characteristic polynomial.

    ``params`` are the normalized-form parameters of the scaled solve;
    ``matrix`` is the delivered (unscaled) member of the class, equal to
    the materialized params divided by ``scaling_c``.
    """

    matrix: np.ndarray
    params: FamilyRealization
    scaling_c: float
    residual: float
    newton_iters: int

    def as_json_dict(self) -> dict:
        return {
            "n": self.params.params.n,
            "r": self.params.params.r,
            "matrix": [[float(v) for v in row] for row in self.matrix],
            "scaling_c": self.scaling_c,
            "residual": self.residual,
            "newton_iters": self.newton_iters,
        }


@dataclass(frozen=True)
class _ScaledSolution:
    b: Fraction
    a_values: tuple[Fraction, ...]


def _solve_scaled(n: int, r: int, alpha: Sequence[Fraction]) -> _ScaledSolution | None:
    """Admissible solution of the coefficient equations, or None.

    Eliminates a_1..a_{n-1} as polynomials in b, takes the positive roots
    of the closing polynomial coarsely and in increasing order, and stops
    at the first at which all first-column values are certifiably
    positive; no root past it is isolated, and only its bracket is
    refined.
    """
    scale, a_polys, g = eliminate(n, r, alpha)
    if g is None:
        return None

    if g.is_zero:
        # every b solves the closing equation; probe b = 1
        candidates: Iterable[RootBracket] = [
            RootBracket(lo=Fraction(1, 2), hi=Fraction(2), poly=g, exact=Fraction(1))
        ]
    else:
        candidates = positive_roots(g, width=_ISOLATE_WIDTH)

    for bracket in candidates:
        if not all(sign_at_root(q, bracket) == 1 for q in a_polys[r:]):
            continue
        b = refine(bracket, _ROOT_WIDTH).midpoint
        values = tuple(a_polys[j](b) / scale for j in range(1, n))
        if all(v > 0 for v in values):
            return _ScaledSolution(b=b, a_values=values)
    return None


def _deliver(
    p: FamilyParams,
    target: CoeffVector,
    c: Fraction,
    sol: _ScaledSolution,
) -> RealizationResult:
    n, r = p.n, p.r
    a_float = tuple(float(v) for v in sol.a_values)
    b_float = float(sol.b)
    if any(v <= 0.0 for v in a_float) or b_float <= 0.0:
        # exact values are positive but can underflow to zero as doubles
        raise RealizationFailed(
            f"solution parameter underflowed at scaling {float(c):.3e}"
        )
    params = FamilyRealization(params=p, a=a_float, b=b_float)
    M = np.zeros((n, n))
    inv = 1 / c
    for i in range(n - 1):
        M[i, 0] = float(sol.a_values[i] * inv)
        M[i, i + 1] = float(-inv)
    M[n - 1, n - r] = float(sol.b * inv)
    M[n - 1, n - 1] = float(-inv)
    if not member_of_class(M, build_pattern(p)):
        raise RealizationFailed(
            f"delivered matrix left the sign class at scaling {float(c):.3e}"
        )
    with np.errstate(over="ignore", invalid="ignore"):
        got = char_coeffs(M)
    if not all(math.isfinite(v) for v in got.values):
        raise RealizationFailed(
            "non-finite round trip: the characteristic coefficients of the "
            f"delivered matrix overflow at scaling {float(c):.3e}"
        )
    residual = max(abs(g - t) for g, t in zip(got.values, target.values))
    limit = RESIDUAL_RTOL * max(1.0, max(abs(t) for t in target.values))
    if residual > limit:
        raise RealizationFailed(
            f"round-trip residual {residual:.3e} exceeds {limit:.3e} "
            f"at scaling {float(c):.3e}"
        )
    return RealizationResult(
        matrix=M,
        params=params,
        scaling_c=float(c),
        residual=residual,
        newton_iters=0,
    )


def _scaled_target(alpha: list[Fraction], c: Fraction) -> list[Fraction]:
    return [v * c**j for j, v in enumerate(alpha, start=1)]


def _diagnose_scaled(n: int, r: int, alpha: Sequence[Fraction]) -> str:
    """Failure diagnostics for one scale: closing-poly signs, root verdicts."""
    scale, a_polys, g = eliminate(n, r, alpha)
    if g is None:
        j = len(a_polys) - 1
        return f"column value {j} is {a_polys[j](0) / scale:.3e} <= 0 before any root"
    g_signs = "".join("+" if v > 0 else "-" if v < 0 else "0" for v in g.coeffs)
    if g.is_zero or g.degree < 1:
        return f"closing polynomial degenerate (coefficient signs {g_signs})"
    roots = list(positive_roots(g))
    verdicts = []
    for br in roots:
        worst_j, worst_val = None, None
        for j in range(r, n):
            val = float(a_polys[j](br.midpoint) / scale)
            if worst_val is None or val < worst_val:
                worst_j, worst_val = j, val
        verdicts.append(f"b~{float(br.midpoint):.4g}: min a_{worst_j}={worst_val:.3e}")
    return (
        f"closing-poly coefficient signs {g_signs}; "
        f"{len(roots)} positive roots ({'; '.join(verdicts) or 'none'})"
    )


def _check_target(n: int, target: CoeffVector) -> None:
    if target.n != n:
        raise InvalidInput(f"target length {target.n} does not match n={n}")
    if not all(math.isfinite(v) for v in target.values):
        raise InvalidInput("target coefficients must be finite")


def realize(p: FamilyParams, target: CoeffVector) -> RealizationResult:
    """Matrix in the pattern class whose characteristic coefficients are ``target``.

    Tries the unscaled system first, then descends the scaling ladder by
    halving; the first admissible scale is refined upward because the
    delivered accuracy degrades with c^{-n}.  Raises RealizationFailed
    with the attained diagnostics if the ladder bottoms out, and
    InvalidInput for a target of the wrong length or with a non-finite
    coefficient.
    """
    n, r = p.n, p.r
    _check_target(n, target)
    alpha = [Fraction(v) for v in target.values]

    c = Fraction(1)
    sol = _solve_scaled(n, r, alpha)
    if sol is not None:
        return _deliver(p, target, c, sol)

    for _ in range(_LADDER_MAX_HALVINGS):
        c = c / 2
        sol = _solve_scaled(n, r, _scaled_target(alpha, c))
        if sol is not None:
            break
    else:
        raise RealizationFailed(
            f"no admissible solution for any scale down to 2^-{_LADDER_MAX_HALVINGS}; "
            f"at the last scale: {_diagnose_scaled(n, r, _scaled_target(alpha, c))}"
        )

    # refine the scale upward: largest admissible c in (c, 2c), dyadically
    lo, hi = c, 2 * c
    for _ in range(_LADDER_REFINE_STEPS):
        mid = (lo + hi) / 2
        trial = _solve_scaled(n, r, _scaled_target(alpha, mid))
        if trial is not None:
            lo, sol = mid, trial
        else:
            hi = mid
    return _deliver(p, target, lo, sol)


@dataclass(frozen=True)
class NewtonResult:
    x: np.ndarray
    iterations: int
    residual: float


def newton_solve(
    F: Callable[[np.ndarray], np.ndarray],
    J: Callable[[np.ndarray], np.ndarray],
    x0,
    tol: float,
    max_iter: int,
    positive_mask: Sequence[bool] | None = None,
) -> NewtonResult:
    """Damped Newton iteration with an open-orthant constraint.

    Steps are halved (up to 30 times) until the residual decreases and
    every masked coordinate stays strictly positive; failure to find such
    a step, or exhausting ``max_iter``, raises ConvergenceError carrying
    the best iterate.
    """
    x = np.array(x0, dtype=float)
    if positive_mask is not None:
        positive_mask = np.asarray(positive_mask, dtype=bool)
    fx = np.asarray(F(x), dtype=float)
    norm = float(np.max(np.abs(fx)))
    best = (norm, x.copy())
    for it in range(max_iter):
        if norm <= tol:
            return NewtonResult(x=x, iterations=it, residual=norm)
        try:
            step = np.linalg.solve(np.asarray(J(x), dtype=float), -fx)
        except np.linalg.LinAlgError as exc:
            raise ConvergenceError("singular Jacobian in Newton step", best=best[1]) from exc
        scale = 1.0
        for _ in range(31):
            cand = x + scale * step
            if positive_mask is not None and np.any(cand[positive_mask] <= 0.0):
                scale *= 0.5
                continue
            f_cand = np.asarray(F(cand), dtype=float)
            n_cand = float(np.max(np.abs(f_cand)))
            if n_cand < norm:
                x, fx, norm = cand, f_cand, n_cand
                break
            scale *= 0.5
        else:
            raise ConvergenceError(
                f"no acceptable damped step (residual {norm:.3e})", best=best[1]
            )
        if norm < best[0]:
            best = (norm, x.copy())
    if norm <= tol:
        return NewtonResult(x=x, iterations=max_iter, residual=norm)
    raise ConvergenceError(
        f"Newton did not reach tol={tol:.1e} in {max_iter} iterations "
        f"(residual {norm:.3e})",
        best=best[1],
    )


def realize_superpattern(
    p: FamilyParams,
    extra: Sequence[tuple[int, int, Sign]],
    target: CoeffVector,
) -> RealizationResult:
    """Realize a target over a chosen superpattern of the family pattern.

    Each extra entry (0-based position plus sign) is pinned at a small
    magnitude eps and the full coefficient system is solved by damped
    Newton seeded at the nilpotent certificate, under the same scaling
    fallback as :func:`realize`.  Eps backs off geometrically when Newton
    stalls.  Targets are checked as in :func:`realize`.
    """
    n, r = p.n, p.r
    _check_target(n, target)
    base_pattern = build_pattern(p)
    extra = list(extra)
    seen = set()
    for (i, j, s) in extra:
        if not (0 <= i < n and 0 <= j < n):
            raise InvalidInput(f"extra position {(i, j)} out of range")
        if base_pattern.entries[i][j] is not Sign.ZERO:
            raise InvalidInput(f"extra position {(i, j)} is already nonzero")
        if s is Sign.ZERO:
            raise InvalidInput("extra entries must carry a nonzero sign")
        if (i, j) in seen:
            raise InvalidInput(f"duplicate extra position {(i, j)}")
        seen.add((i, j))

    cert = nilpotent_realization(p)
    x0 = np.array(list(cert.a0) + [cert.t_h])
    scale0 = max(max(cert.a0), cert.t_h)
    alpha = np.array([float(v) for v in target.values])
    mask = np.ones(n, dtype=bool)

    def matrix_at(x: np.ndarray, eps: float) -> np.ndarray:
        M = build_matrix(
            FamilyRealization(params=p, a=tuple(x[:-1]), b=float(x[-1]))
        )
        for (i, j, s) in extra:
            M[i, j] = eps if s is Sign.PLUS else -eps
        return M

    def run_newton(scaled_alpha: np.ndarray, eps: float) -> NewtonResult:
        def F(x):
            return np.array(char_coeffs(matrix_at(x, eps)).values) - scaled_alpha

        def J(x):
            out = np.zeros((n, n))
            for k in range(n):
                h = 1e-6 * max(1.0, abs(x[k]))
                up = x.copy()
                up[k] += h
                dn = x.copy()
                dn[k] -= h
                out[:, k] = (F(up) - F(dn)) / (2 * h)
            return out

        ftol = 2e-13 * max(1.0, float(np.max(np.abs(scaled_alpha))))
        return newton_solve(F, J, x0, tol=ftol, max_iter=60, positive_mask=mask)

    limit = RESIDUAL_RTOL * max(1.0, float(np.max(np.abs(alpha))))
    c = Fraction(1)
    for _ in range(_LADDER_MAX_HALVINGS + 1):
        fc = float(c)
        scaled = alpha * fc ** np.arange(1, n + 1)
        eps = 1e-3 * scale0
        for _ in range(10):
            try:
                res = run_newton(scaled, eps)
            except ConvergenceError:
                eps /= 4.0
                continue
            x = res.x
            sol_matrix = matrix_at(x, eps) / fc
            got = char_coeffs(sol_matrix)
            residual = max(abs(g - t) for g, t in zip(got.values, alpha))
            if residual <= limit:
                params = FamilyRealization(params=p, a=tuple(x[:-1]), b=float(x[-1]))
                return RealizationResult(
                    matrix=sol_matrix,
                    params=params,
                    scaling_c=fc,
                    residual=residual,
                    newton_iters=res.iterations,
                )
            # converged but out of tolerance: the c^{-j} amplification is
            # the bottleneck and only grows deeper in the ladder
            raise RealizationFailed(
                f"residual {residual:.3e} exceeds {limit:.3e} at scaling {fc:.3e}"
            )
        c = c / 2
    raise RealizationFailed(
        "superpattern realization failed after scaling and eps back-off"
    )
