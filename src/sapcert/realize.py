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

The closing polynomial has degree floor(n/r), and each scale is decided
in one of three regimes:

- Linear, r > n/2: every column value is linear and so is g, with a
  positive slope; its one root is admissible exactly when it lies in
  (0, B), which a sign test and one cross-multiplication of integers
  decide, and b is that root, exactly.
- Quadratic, floor(n/r) = 2: g's roots are (-g1 +- sqrt(disc)) / (2 g2),
  and the sign of any linear form at either one, after each quadratic
  column value is reduced modulo g, is decided on integers by signs and
  one comparison with the integer square root of disc (of squares, when
  that is too close to tell): 0 < root < B and every a_j > 0 at it.
- Descartes, floor(n/r) >= 3: Descartes' rule of signs isolates the
  positive roots of g and proves the sign of every a_j at a root.  A
  scale is judged on the one-root intervals as isolation finds them and
  on sign proofs, which walk each interval down its bisection tree only
  as far as they need; B rejects a scale before isolation, ends the
  scale at the first root past it, and one proof against it stands for
  all the linear column values.  The subdivision starts at the least
  power of two at or above B, or at g's root bound if that is lower, and
  runs on g itself: its one-variation nodes prove each root simple, and
  only a repeated root sends the search back to g's square-free part
  (:func:`_walk`).

Neither closed form builds a root for the scales it judges: only the
delivered scale gets one, the exact root when linear, and when quadratic
the one walk of the Descartes regime's isolation and proofs, run once.
The one walk narrowed to full width is that of the delivered scale.

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
from functools import cached_property, partial
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
from .polyroots import (
    IntPolynomial,
    _bound_exponent,
    _homogeneous,
    _isolated,
    _RepeatedRoot,
    _Root,
    _sign,
    positive_roots,
)

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
    """An admissible scale of the coefficient equations and, once asked for, b's root.

    ``scale`` and ``a`` are the elimination's D and a'_j, the latter as
    ascending integer coefficient tuples, so that a_j(b) = a'_j(b) / D;
    ``g`` is the closing polynomial g'.  ``proofs`` are the forms proved
    positive on a walk of b: first bn - bd b, whose root is the bound B,
    then a'_{2r}..a'_{n-1}; none at 2r > n.

    The regime of floor(n/r) says how the scale was decided
    (:func:`_solve_scaled`): at 2r > n (linear) and at floor(n/r) = 2
    (quadratic) in closed form, with no root built, and at
    floor(n/r) >= 3 (Descartes) by the walk kept as ``walk``.  ``branch``
    is the s of the admitted quadratic root rho_s.  :attr:`root` builds
    b's root on first use, which is delivery, so only the delivered scale
    of a call ever has one.
    """

    scale: int
    a: list[tuple[int, ...]]
    g: tuple[int, ...]
    proofs: list[tuple[int, ...]]
    walk: _Root | None = None
    branch: int = 0

    @cached_property
    def root(self) -> _Root | None:
        """b's root: exact when linear, else a walk where its last sign proof left it.

        Linear: the exact root -g0/g1 of g' = g0 + g1 b.  Descartes: the
        walk that decided the scale.  Quadratic: the one walk of
        :func:`_walk`, which steps and proves exactly as the Descartes
        regime's trials do; None when it does not end at rho_s with every
        sign proved, which only the ``_MAX_SIGN_REFINE`` cap of
        :meth:`sapcert.polyroots._Root.sign` can cause.
        """
        if self.walk is not None:
            return self.walk
        if len(self.g) == 2:
            g0, g1 = self.g
            return _Root(IntPolynomial(self.g), 0, -g0, g1, Fraction(-g0, g1))
        root = _walk(self.g, self.proofs)
        if root is None:
            return None
        sign = partial(_QuadraticRoots(self.g).sign, self.branch)
        if root.exact is not None:
            at = sign((-root.exact.numerator, root.exact.denominator)) == 0
        else:
            # a/d < rho_s <= b/d
            at = sign((-root.a, root.d)) > 0 and sign((root.b, -root.d)) >= 0
        return root if at else None


def _walk(g: tuple[int, ...], proofs: list[tuple[int, ...]]) -> _Root | None:
    """The walk of the least root of g' below B at which every proof holds, or None.

    ``proofs[0]`` is bn - bd b, the form whose root is B.  The positive
    roots are isolated by Descartes subdivision in increasing order, and
    the walk stops at the first at which every form in ``proofs`` is
    certifiably positive; no root past it is isolated.  A root whose walk
    starts at or past B ends the search, as every later root lies further
    right.  One sign proof of bn - bd b stands for all the linear column
    values a'_r..a'_{2r-1}: on a linear q the proof holds exactly once the
    walk's hi is below q's root, so it stops where their proofs in turn
    would.

    The tree starts at (0, 2^k], for 2^k the least of root_bound(g') and
    the least power of two at or above B, with k read from bit lengths and
    one comparison of shifted integers.  It is a node of the tree from
    root_bound(g') and cuts off only roots past B, so the verdict and the
    walk returned are those of that tree.  It runs on g' itself,
    whose square-free part is not taken: a one-variation node proves its
    root simple.  Where the tree meets a repeated root
    (:func:`sapcert.polyroots._isolated` with ``lazy``) the search starts
    over from the same top, on the square-free part of g'.

    Each root's walk (:class:`sapcert.polyroots._Root`) goes to the sign
    proofs as the subdivision hands it over, not narrowed: each proof
    steps on from the integer ends where the one before it held, so the
    walk returned lies inside every proof.
    """
    bn, bd = proofs[0][0], -proofs[0][1]
    # the least k with B <= 2^k is L(bn) - L(bd) or one more
    k = bn.bit_length() - bd.bit_length()
    k += bn << max(-k, 0) > bd << max(k, 0)
    p, top = IntPolynomial(g), min(_bound_exponent(g), k)

    def first(roots):
        for root in roots:
            if root.a * bd >= bn * root.d:
                return None
            if all(root.sign(cs) == 1 for cs in proofs):
                return root
        return None

    try:
        return first(_isolated(p, _ROOT_WIDTH, top, lazy=True))
    except _RepeatedRoot:
        return first(_isolated(p, _ROOT_WIDTH, top))


class _QuadraticRoots:
    """The real roots of g = g0 + g1 b + g2 b^2, and exact signs at them.

    rho_s = (-g1 + s sqrt(disc)) / (2 g2) for s = 1 and -1, with
    disc = g1^2 - 4 g0 g2; there are none for disc < 0, where
    :meth:`sign` must not be asked.
    """

    def __init__(self, g: tuple[int, ...]):
        g0, g1, g2 = g
        self.g, self.disc = g, g1 * g1 - 4 * g0 * g2
        self.low = math.isqrt(self.disc) if self.disc > 0 else 0

    def sign(self, s: int, q: tuple[int, ...]) -> int:
        """The sign of q, of degree at most 2, at rho_s.

        Reduced by g, g2 q - q2 g = u + w b, which is g2 q(rho_s) at the
        root, and 2 g2 (u + w rho_s) = (2 g2 u - w g1) + s w sqrt(disc)
        = P + Q sqrt(disc) is 2 g2^2 q(rho_s), of q's sign.  Decided on
        integers: by the sign of P when Q is zero or of the same sign, else
        by comparing |P| with |Q| sqrt(disc), first against the bounds
        that the integer square root of disc gives and, when |P| falls
        between them, by comparing P^2 with Q^2 disc.
        """
        (g0, g1, g2), disc = self.g, self.disc
        q0, q1, q2 = q if len(q) == 3 else (*q, 0)
        u, w = g2 * q0 - q2 * g0, g2 * q1 - q2 * g1
        p, t = 2 * g2 * u - w * g1, s * w
        sp, st = _sign(p), _sign(t)
        if sp == st or not st or not disc:
            return sp
        ap, at = abs(p), abs(t)
        bound = at * self.low  # <= |Q| sqrt(disc) < bound + |Q|
        if ap < bound:
            return st
        if ap >= bound + at:
            return sp
        return _sign(p * p - t * t * disc) * sp


def _solve_scaled(
    n: int, r: int, alpha: Sequence[tuple[int, int]], m: int, q: int
) -> _ScaledSolution | None:
    """Admissible root of the coefficient equations at scale c = m/q, or None.

    ``alpha`` holds the target as (numerator, denominator) pairs.
    Eliminates a_1..a_{n-1} as integer polynomials in b
    (:func:`eliminate_integers` on :func:`_scaled_target`) and admits the
    scale when the closing polynomial g' has a positive root at which
    a_r..a_{n-1} are positive; b is the least such root.

    Once the constants a'_1..a'_{r-1} are positive, the column values
    a'_r..a'_{min(2r,n)-1} are linear, k0 + k1 b with
    k1 = -(D + a'_1 + ... + a'_{j-r}) < 0, so each is positive exactly
    below its root -k0/k1.  The least of those roots, B, bounds every
    admissible b, and B <= 0 rejects the scale at once.  At r = n no
    column value is linear and no bound applies.  g' has degree
    floor(n/r), which picks one of three regimes:

    - Linear, 2r > n: g' = b a'_{n-r} - a'_{n-1} - D alpha_n = g0 + g1 b,
      with a'_{n-r} a positive constant (D at r = n) and a'_{n-1} of
      slope k1 <= 0, so g1 >= a'_{n-r} > 0.  Its one root -g0/g1 is
      admissible exactly when it lies in (0, B), or is positive at r = n,
      which a sign test and one cross-multiplication decide.
    - Quadratic, floor(n/r) = 2: g' = g0 + g1 b + g2 b^2 with g2 < 0 and
      disc = g1^2 - 4 g0 g2.  For disc < 0 there is no real root;
      otherwise the roots rho_s = (-g1 + s sqrt(disc)) / (2 g2), s = 1
      and -1 (one when disc = 0), are taken in increasing order, which is
      s = 1 first as g2 < 0.  The first root in (0, B) at which every
      quadratic a'_{2r}..a'_{n-1} is positive is admitted, the walk's
      rule; each sign is decided exactly on integers
      (:meth:`_QuadraticRoots.sign`).
    - Descartes, floor(n/r) >= 3: the walk of :func:`_walk` isolates the
      roots of g' and proves the signs, and is kept for delivery.

    Only the Descartes regime builds a root here; the closed forms leave
    it to :attr:`_ScaledSolution.root`, so a trial of the ladder that is
    not delivered never has one.
    """
    scale, steps = _scaled_target(alpha, m, q)
    a, g = eliminate_integers(n, r, scale, steps)
    if g is None:
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
        g0, g1 = g
        # 0 < -g0/g1 < bn/bd, for g1 > 0 and bd > 0
        if g0 >= 0 or (linear and -g0 * bd >= bn * g1):
            return None
        return _ScaledSolution(scale, a, g, [])

    # the one proof of bn - bd b stands for all the linear column values
    proofs = [(bn, -bd), *a[2 * r :]]
    if 3 * r <= n:
        walk = _walk(g, proofs)
        return None if walk is None else _ScaledSolution(scale, a, g, proofs, walk)

    roots = _QuadraticRoots(g)
    if roots.disc < 0:
        return None
    # g2 < 0, as the leading coefficients of the a'_j alternate in sign,
    # so rho_1 < rho_-1
    for s in (1, -1) if roots.disc else (1,):
        if roots.sign(s, (0, 1)) <= 0:
            continue
        if roots.sign(s, proofs[0]) <= 0:
            return None
        if all(roots.sign(s, cs) > 0 for cs in proofs[1:]):
            return _ScaledSolution(scale, a, g, proofs, branch=s)
    return None


def _deliver(
    p: FamilyParams,
    target: CoeffVector,
    c: tuple[int, int],
    sol: _ScaledSolution,
) -> RealizationResult:
    """The matrix of ``sol`` divided by the scale c = m/q, given as (m, q), checked.

    b's root is built here, for the delivered scale only
    (:attr:`_ScaledSolution.root`): in the linear regime the exact root
    of g', in the quadratic one the walk of isolation and sign proofs run
    once, and in the Descartes regime the walk that decided the scale.  A
    quadratic walk that cannot prove a sign the closed form decided, which
    only the ``_MAX_SIGN_REFINE`` cap can cause, raises RealizationFailed.
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
    if sol.root is None:
        raise RealizationFailed(
            f"the sign proofs at the admitted root did not converge at scaling {fc:.3e}"
        )
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
    root of the linear closing polynomial with a linear bound, at
    floor(n/r) = 2 by exact sign tests at the quadratic's roots, otherwise
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
