"""Constructive realization of target characteristic polynomials.

Within the normalized family structure the coefficient equations eliminate
forward (:func:`sapcert.family.eliminate_integers`): once the target's
denominators are cleared (floats and ladder scales are dyadic, so one
power of two clears them), each first-column value becomes an integer
polynomial in the feedback entry b, and the last equation closes the
system as a scalar integer polynomial g(b).  Either an admissible
positive root is found or there is none at the current scale; values at
the root are exact rationals.  The column values a_r..a_{min(2r,n)-1}
are linear in b and decreasing, so the least of their roots, B, bounds
every admissible b (:func:`_solve_scaled`).

For r > n/2 every column value is linear and so is g, with a positive
slope: its one root is admissible exactly when it lies in (0, B), which
a sign test and one cross-multiplication of integers decide, and b is
that root, exactly; nothing is isolated.

For r <= n/2 each scale is solved on integers by one Descartes kernel:
Descartes' rule of signs isolates the positive roots of g and proves the
sign of every a_j at a root.  A scale is judged on the one-root
intervals as isolation finds them and on sign proofs, which walk each
interval down its bisection tree only as far as they need; B rejects a
scale before isolation, ends the scale at the first root past it, and
one proof against it stands for all the linear column values.  The one
walk narrowed to full width is that of the delivered scale.

:func:`_deliver` runs once per call: it evaluates the a_j at the
delivered b in integers and turns each into a double by one correctly
rounded integer division, so at r > n/2 every delivered double is the
correctly rounded value of the exact solution.

Targets with no admissible root are handled by the scaling fallback: the
coefficients c^j * v_j of the scaled matrix c*A are realized instead and
the result is divided by c.  The returned matrix then realizes the
original target exactly in exact arithmetic; in doubles the entry
rounding is amplified by c^{-j}, so after the power-of-two descent the
scale is refined upward by dyadic bisection to the largest admissible c.
Every scale is kept as m / 2^E in integers, and the target's numerators
and denominators are read once per call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from .charpoly import CoeffVector, char_coeffs, char_coeffs_batch
from .errors import ConvergenceError, InvalidInput, RealizationFailed
from .family import (
    FamilyParams,
    FamilyRealization,
    build_matrix,
    build_pattern,
    eliminate_integers,
)
from .nilpotent import nilpotent_realization
from .patterns import Sign, member_of_class
from .polyroots import IntPolynomial, _homogeneous, _isolated, _Root, positive_roots

RESIDUAL_RTOL = 1e-8
_LADDER_MAX_HALVINGS = 40
_LADDER_REFINE_STEPS = 14
_ROOT_WIDTH = Fraction(1, 2**60)


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
    """An admissible root of one scale's closing polynomial, not yet narrowed.

    ``root`` is b's walk where the last sign proof left it, or at 2r > n
    the exact root of the linear closing polynomial (see
    :func:`_solve_scaled`); ``scale`` and ``a`` are the elimination's D and
    a'_j, the latter as ascending integer coefficient tuples, so that
    a_j(b) = a'_j(b) / D.
    """

    scale: int
    a: list[tuple[int, ...]]
    root: _Root


def _solve_scaled(
    n: int, r: int, alpha: Sequence[tuple[int, int]], m: int, q: int
) -> _ScaledSolution | None:
    """Admissible root of the coefficient equations at scale c = m/q, or None.

    ``alpha`` holds the target as (numerator, denominator) pairs.
    Eliminates a_1..a_{n-1} as integer polynomials in b
    (:func:`eliminate_integers` on :func:`_scaled_target`) and finds the
    least root of the closing polynomial at which a_r..a_{n-1} are
    positive.

    Once the constants a'_1..a'_{r-1} are positive, the column values
    a'_r..a'_{min(2r,n)-1} are linear, k0 + k1 b with
    k1 = -(D + a'_1 + ... + a'_{j-r}) < 0, so each is positive exactly
    below its root -k0/k1.  The least of those roots, B, bounds every
    admissible b, and B <= 0 rejects the scale at once.  At r = n no
    column value is linear and no bound applies.

    At 2r > n every column value is linear, and so is the closing
    polynomial g' = b a'_{n-r} - a'_{n-1} - D alpha_n = g0 + g1 b: a'_{n-r}
    is a positive constant (D at r = n) and a'_{n-1} has slope k1 <= 0, so
    g1 >= a'_{n-r} > 0 and g' is never constant.  Its one root -g0/g1 is
    admissible exactly when it lies in (0, B), or is positive at r = n,
    which a sign test and one cross-multiplication decide; nothing is
    isolated and no sign is proved, and the root is returned exact.

    At 2r <= n g' has degree floor(n/r) >= 2, so it is never zero.  Its
    positive roots are isolated by Descartes subdivision in increasing
    order, and the scale stops at the first at which a_r..a_{n-1} are
    certifiably positive; no root past it is isolated.  A root whose
    walk starts at or past B ends the scale, as every later root lies
    further right.  One sign proof of the linear
    column value whose root is B stands for all of them: on a linear q
    the proof holds exactly once the walk's hi is below q's root, so it
    stops where the proofs of a_r..a_{2r-1} in turn would.

    Each root's walk (:class:`sapcert.polyroots._Root`) goes to the sign
    proofs as the subdivision hands it over, not narrowed
    (:func:`sapcert.polyroots._isolated`): each proof steps on from the
    integer ends where the one before it held, so the walk returned lies
    inside every proof: a_r..a_{n-1} are positive on all of it, and the
    constants a_1..a_{r-1} are positive or the elimination would have
    stopped.  Nothing is narrowed here; :func:`_deliver` narrows the walk
    of the delivered scale only, so b ends where isolating at
    ``_ROOT_WIDTH`` would put it unless a sign proof went narrower.
    """
    scale, steps = _scaled_target(alpha, m, q)
    a, g_coeffs = eliminate_integers(n, r, scale, steps)
    if g_coeffs is None:
        return None
    linear = a[r : 2 * r]
    if linear:
        # B = bn / bd, the least root of the linear column values
        bn, bd = linear[0][0], -linear[0][1]
        for k0, k1 in linear:
            if k0 <= 0:
                return None
            if k0 * bd < bn * -k1:
                bn, bd = k0, -k1

    if 2 * r > n:
        g0, g1 = g_coeffs
        # 0 < -g0/g1 < bn/bd, for g1 > 0 and bd > 0
        if g0 >= 0 or (linear and -g0 * bd >= bn * g1):
            return None
        root = _Root(IntPolynomial(g_coeffs), 0, -g0, g1, Fraction(-g0, g1))
        return _ScaledSolution(scale, a, root)

    # the one proof of bn - bd b stands for all the linear column values
    proofs = [(bn, -bd), *a[2 * r :]]
    for root in _isolated(IntPolynomial(g_coeffs), _ROOT_WIDTH):
        if root.a * bd >= bn * root.d:
            return None
        if all(root.sign(cs) == 1 for cs in proofs):
            return _ScaledSolution(scale=scale, a=a, root=root)
    return None


def _deliver(
    p: FamilyParams,
    target: CoeffVector,
    c: tuple[int, int],
    sol: _ScaledSolution,
) -> RealizationResult:
    """The matrix of ``sol`` divided by the scale c = m/q, given as (m, q), checked.

    The one narrowing of realize; it steps on along the sign proofs' walk,
    so b lies in every proof bracket and b and every a_j are positive
    exactly.  b is the exact root when it is known, as it always is at
    2r > n, else the midpoint of the walk narrowed to ``_ROOT_WIDTH``.
    With b = u/v, a_j = C_j / (v^deg D) for C_j = v^deg a'_j(u/v),
    accumulated in integers, and each double is one int/int true
    division, which rounds correctly as ``float(Fraction)`` does: the
    first column is C_j q / (v^deg D m).  A value beyond the double range
    raises RealizationFailed, as do one that underflows to zero, a matrix
    that leaves the sign class and a round trip that misses the target.
    """
    n, r = p.n, p.r
    m, q = c
    fc = m / q
    root = sol.root.narrow(_ROOT_WIDTH)
    if root.exact is None:
        u, v = root.a + root.b, 2 * root.d
    else:
        u, v = root.exact.numerator, root.exact.denominator
    D = sol.scale
    # a_1..a_{n-1} at b = u/v, as integer numerators and denominators
    cols = [(_homogeneous(cs, u, v), v ** (len(cs) - 1) * D) for cs in sol.a[1:]]
    M = np.zeros((n, n))
    try:
        a_float = tuple(num / den for num, den in cols)
        b_float = u / v
        if any(x <= 0.0 for x in a_float) or b_float <= 0.0:
            # the exact values are positive, but can underflow to zero as
            # doubles; a double is positive only when its exact value is
            raise RealizationFailed(f"solution parameter underflowed at scaling {fc:.3e}")
        inv = q / m
        for i, (num, den) in enumerate(cols):
            M[i, 0] = num * q / (den * m)
            M[i, i + 1] = -inv
        M[n - 1, n - r] = u * q / (v * m)
        M[n - 1, n - 1] = -inv
    except OverflowError:
        raise RealizationFailed(
            f"solution parameter overflows a double at scaling {fc:.3e}"
        ) from None
    params = FamilyRealization(params=p, a=a_float, b=b_float)
    if not member_of_class(M, build_pattern(p)):
        raise RealizationFailed(
            f"delivered matrix left the sign class at scaling {fc:.3e}"
        )
    with np.errstate(over="ignore", invalid="ignore"):
        got = char_coeffs(M)
    if not all(math.isfinite(v) for v in got.values):
        raise RealizationFailed(
            "non-finite round trip: the characteristic coefficients of the "
            f"delivered matrix overflow at scaling {fc:.3e}"
        )
    residual = max(abs(g - t) for g, t in zip(got.values, target.values))
    limit = RESIDUAL_RTOL * max(1.0, max(abs(t) for t in target.values))
    if residual > limit:
        raise RealizationFailed(
            f"round-trip residual {residual:.3e} exceeds {limit:.3e} "
            f"at scaling {fc:.3e}"
        )
    return RealizationResult(
        matrix=M,
        params=params,
        scaling_c=fc,
        residual=residual,
        newton_iters=0,
    )


def _scaled_target(
    alpha: Sequence[tuple[int, int]], m: int, q: int
) -> tuple[int, list[int]]:
    """(D, [D alpha_j c^j]) in integers: the target at scale c = m/q over one denominator.

    For alpha_j = N_j / d_j, given as the pairs (N_j, d_j), D is the lcm
    of the products d_j q^j and D alpha_j c^j = N_j m^j (D / (d_j q^j)),
    with q^j and m^j as running products; no Fraction is built.  Floats
    and ladder scales are dyadic, so for d_j = 2^e_j and q = 2^E,
    D = 2^max_j(e_j + E j).  As N_j m^j / (d_j q^j) is not reduced, D can
    exceed the least common denominator; any positive common multiple
    gives a_j(b) = a'_j(b) / D exactly and changes no sign and no
    primitive part.
    """
    dens, qpow = [], 1
    for _, d in alpha:
        qpow *= q
        dens.append(d * qpow)
    scale = math.lcm(*dens)
    steps, mpow = [], 1
    for (num, _), den in zip(alpha, dens):
        mpow *= m
        steps.append(num * mpow * (scale // den))
    return scale, steps


def _diagnose_scaled(n: int, r: int, alpha: Sequence[Fraction], c: Fraction) -> str:
    """Failure diagnostics for one scale: closing-poly signs, root verdicts."""
    ratios = [v.as_integer_ratio() for v in alpha]
    scale, steps = _scaled_target(ratios, c.numerator, c.denominator)
    a, g_coeffs = eliminate_integers(n, r, scale, steps)
    a_polys = [IntPolynomial(cs) for cs in a]
    if g_coeffs is None:
        j = len(a_polys) - 1
        return f"column value {j} is {a_polys[j](0) / scale:.3e} <= 0 before any root"
    g = IntPolynomial(g_coeffs)
    g_signs = "".join("+" if v > 0 else "-" if v < 0 else "0" for v in g.coeffs)
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
    delivered accuracy degrades with c^{-n}.  Every scale is solved once,
    in integers (:func:`_solve_scaled`: at r > n/2 by comparing the one
    root of the linear closing polynomial with a linear bound, otherwise
    by Descartes tests that isolate its roots and prove the a_j
    positive), and the last admissible one is delivered.  The target's
    numerators and denominators are read once, and each scale is kept as
    m / 2^E in integers.  Raises RealizationFailed with the attained
    diagnostics if the ladder bottoms out, and InvalidInput for a target
    of the wrong length or with a non-finite coefficient.
    """
    n, r = p.n, p.r
    _check_target(n, target)
    fractions = [Fraction(v) for v in target.values]
    alpha = [v.as_integer_ratio() for v in fractions]

    sol = _solve_scaled(n, r, alpha, 1, 1)
    if sol is not None:
        return _deliver(p, target, (1, 1), sol)

    for e in range(1, _LADDER_MAX_HALVINGS + 1):
        sol = _solve_scaled(n, r, alpha, 1, 1 << e)
        if sol is not None:
            break
    else:
        c = Fraction(1, 1 << _LADDER_MAX_HALVINGS)
        raise RealizationFailed(
            f"no admissible solution for any scale down to 2^-{_LADDER_MAX_HALVINGS}; "
            f"at the last scale: {_diagnose_scaled(n, r, fractions, c)}"
        )

    # refine the scale upward: the largest admissible c in (c, 2c),
    # dyadically; lo = m/2^e and hi = (m + 1)/2^e
    m = 1
    for _ in range(_LADDER_REFINE_STEPS):
        m, e = 2 * m, e + 1
        trial = _solve_scaled(n, r, alpha, m + 1, 1 << e)
        if trial is not None:
            m, sol = m + 1, trial
    return _deliver(p, target, (m, 1 << e), sol)


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


def _superpattern_matrix(
    p: FamilyParams, extra: Sequence[tuple[int, int, Sign]], x: np.ndarray, eps: float
) -> np.ndarray:
    """The family matrix at Newton's x = (a_1..a_{n-1}, b), extra entries at +-eps."""
    M = build_matrix(FamilyRealization(params=p, a=tuple(x[:-1]), b=float(x[-1])))
    for (i, j, s) in extra:
        M[i, j] = eps if s is Sign.PLUS else -eps
    return M


def _newton_jacobian(
    p: FamilyParams,
    extra: Sequence[tuple[int, int, Sign]],
    x: np.ndarray,
    eps: float,
    scaled_alpha: np.ndarray,
) -> np.ndarray:
    """Central-difference Jacobian of F(x) = v(M(x)) - scaled_alpha.

    Column k is (F(x + h_k e_k) - F(x - h_k e_k)) / (2 h_k) with
    h_k = 1e-6 max(1, |x_k|).  The 2n perturbed matrices, x_k +- h_k
    written at coordinate k's position ((k, 0) for a_{k+1}, (n-1, n-r) for
    b), go through one stacked Faddeev-LeVerrier pass, whose rows equal
    :func:`char_coeffs` bit for bit.  Raises InvalidInput, as
    :class:`FamilyRealization` does, when some x_k - h_k is not positive.
    """
    n, r = p.n, p.r
    h = 1e-6 * np.maximum(1.0, np.abs(x))
    lower = x - h
    if np.any(lower <= 0.0):
        raise InvalidInput("realization parameters must be strictly positive")
    rows = np.arange(n)
    cols = np.zeros(n, dtype=int)
    cols[-1] = n - r
    stack = np.repeat(_superpattern_matrix(p, extra, x, eps)[None], 2 * n, axis=0)
    stack[rows, rows, cols] = x + h
    stack[n + rows, rows, cols] = lower
    # the target comes off each row before the difference, as F(up) - F(dn)
    # took it; differencing the raw coefficients would round otherwise
    F = char_coeffs_batch(stack) - scaled_alpha
    return (F[:n] - F[n:]).T / (2 * h)


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

    Newton's Jacobian is taken by central differences, all 2n perturbed
    matrices in one stacked Faddeev-LeVerrier pass
    (:func:`_newton_jacobian`); its rows equal the one-matrix coefficients
    bit for bit, so the iterates are those of a per-column loop.  A
    difference step that would take a parameter to zero or below raises
    InvalidInput ("realization parameters must be strictly positive"):
    a known fault of this iteration, which gives up on such targets
    rather than shortening the step.
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

    def run_newton(scaled_alpha: np.ndarray, eps: float) -> NewtonResult:
        def F(x):
            M = _superpattern_matrix(p, extra, x, eps)
            return np.array(char_coeffs(M).values) - scaled_alpha

        def J(x):
            return _newton_jacobian(p, extra, x, eps, scaled_alpha)

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
            sol_matrix = _superpattern_matrix(p, extra, x, eps) / fc
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
