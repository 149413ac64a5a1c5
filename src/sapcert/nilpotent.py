"""Certified construction of nilpotent realizations for the family.

Setting a_1 = ... = a_{r-1} = 1 and the feedback entry to t turns the
vanishing of the characteristic coefficients into an integer-coefficient
recurrence

    a_j(t) = a_{j-1}(t) - t a_{j-r}(t),    a_0 = ... = a_{r-1} = 1,

closed by h(t) = a_{n-1}(t) - t a_{n-r}(t) = 0.  This is the elimination
that realizes every target (:func:`sapcert.family.eliminate`) taken at the
zero target, whose closing polynomial is -h.  The smallest positive root
of h keeps every a_j strictly positive, which is certified here with
exact rational brackets on integer polynomials rather than assumed, by
the Intermediate Value Theorem instead of an explicit check: every a_j
starts at a_j(0) = 1, and one chain of separation points proves both the
order of the smallest roots and that no a_j has a root up to h's
bracket.  A separation point is found by signs alone and proved by one
Descartes test of a_j, Sturm count as fallback, so no a_j needs a Sturm
chain; h's is built once, to isolate its root.  The whole proof for one
(n, r) is built in one pass and memoized once; the public functions read
that one certificate.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import islice

from .errors import CertificationFailed, PreconditionViolated
from .family import FamilyParams, FamilyRealization, coeff_map, eliminate
from .polyroots import (
    IntPolynomial,
    RootBracket,
    _homogeneous,
    bisections,
    min_positive_root,
    positive_up_to,
    sturm_chain,
    variations,
)

RESIDUAL_TOL_PER_N = 1e-10

# extra-tight default so the exported double is correctly rounded and the
# float residual is rounding-limited, not bracket-limited
_CERT_WIDTH = Fraction(1, 2**70)
# bisection steps allowed to separate two consecutive smallest roots
_SEPARATION_STEPS = 200


@dataclass(frozen=True)
class NilpotentCertificate:
    """A verified nilpotent member of the pattern class.

    ``a0`` holds the realized first-column values a_1..a_{n-1}; ``t_h`` is
    the feedback entry (the isolated smallest positive root of the closing
    polynomial, kept with its exact bracket).  What is certified is that
    every a_j is positive on the whole bracket: a_j(0) = 1 and a_j has no
    root in (0, s_j], where s_j is the separation point of the root-order
    link from a_j (:func:`verify_min_chain`) and lies at or above the
    bracket.  ``chain_verified`` records that proof and is true on every
    returned certificate.  ``a0_margins`` are min(a_j(lo), a_j(hi)),
    plain evaluations at the bracket ends; a margin is not a lower bound,
    a_j may dip below both endpoint values inside the bracket.
    ``residual`` is the largest characteristic-coefficient magnitude of
    the emitted double matrix (mode "double") or of the exact rational
    construction at the bracket midpoint (mode "extended").
    """

    params: FamilyParams
    t_h: float
    bracket: RootBracket
    a0: tuple[float, ...]
    residual: float
    chain_verified: bool
    a0_margins: tuple[float, ...]
    precision_mode: str = "double"

    def realization(self) -> FamilyRealization:
        return FamilyRealization(params=self.params, a=self.a0, b=self.t_h)

    def as_json_dict(self) -> dict:
        return {
            "n": self.params.n,
            "r": self.params.r,
            "t_h": self.t_h,
            "t_h_bracket": [
                str(self.bracket.lo.numerator),
                str(self.bracket.lo.denominator),
                str(self.bracket.hi.numerator),
                str(self.bracket.hi.denominator),
            ],
            "a0": list(self.a0),
            "residual": self.residual,
            "chain_verified": self.chain_verified,
        }


def recurrence_polys(p: FamilyParams) -> tuple[tuple[IntPolynomial, ...], IntPolynomial]:
    """Exact recurrence polynomials (a_0 .. a_{n-1}) and the closing h.

    Defined for every 2 <= r <= n; at r = n every a_j is the constant 1
    and h(t) = 1 - t.
    """
    _, a, g = eliminate(p.n, p.r, (0,) * p.n)
    return tuple(a), IntPolynomial(()).subtract(g)


def _sturm_root_below(prev: IntPolynomial, q: IntPolynomial) -> Fraction | None:
    """:func:`_root_below` by Sturm count: the reference walk and the fallback.

    Bisects prev's chain on (0, 1], always keeping prev's smallest root
    in (lo, hi], and returns the first dyadic lo it moved to with
    q(lo) < 0.  prev has no root in (0, lo] by the bisection invariant.
    None when q(0) <= 0, when prev has no root in (0, 1] or when the
    guard runs out first (equal or reversed roots never separate).
    """
    chain = sturm_chain(prev)
    if q(0) <= 0 or variations(chain, 0, 1) == variations(chain, 1, 1):
        return None
    a = 0  # lo = a/d
    for new_a, _, d, _ in islice(bisections(chain, 0, 1, 1), _SEPARATION_STEPS):
        if new_a != 2 * a and q(s := Fraction(new_a, d)) < 0:
            return s
        a = new_a
    return None


def _root_below(prev: IntPolynomial, q: IntPolynomial, bound: Fraction) -> Fraction | None:
    """A separation point s of q's smallest positive root below prev's, both in (0, 1].

    ``bound`` lies at or above prev's smallest root: the previous link's
    s, where prev < 0, or 1 for a_r = 1 - t.  The walk halves (0, 1] as
    :func:`_sturm_root_below` does but decides each step by prev's sign:
    a midpoint at or past ``bound`` goes left unevaluated, prev(m) <= 0
    goes left (prev(0) > 0, so prev has a root in (0, m] by the
    Intermediate Value Theorem), any other goes right.  s is the first
    lo it moved to with q(s) < 0, and prev has no root in (0, s] by
    Descartes' rule (:func:`positive_up_to`).  Every lo moved to lies in
    (0, s], so every step was the Sturm walk's and s is its dyadic.
    q(0) > 0 gives q a root in (0, s): t_q < s < t_prev.  The Sturm walk
    is the fallback when the Descartes test fails, prev(0) <= 0,
    prev(bound) > 0 or the guard runs out; None as there.
    """
    if q(0) <= 0:
        return None
    if prev(0) > 0 and prev(bound) <= 0:
        pc, qc = prev.coeffs, q.coeffs
        bn, bd = bound.numerator, bound.denominator
        a, b, d = 0, 1, 1  # (a/d, b/d]
        for _ in range(_SEPARATION_STEPS):
            m, d = a + b, 2 * d
            if m * bd >= bn * d or _homogeneous(pc, m, d) <= 0:
                a, b = 2 * a, m
            else:
                a, b = m, 2 * b
                if _homogeneous(qc, m, d) < 0:
                    if positive_up_to(prev, m, d):
                        return Fraction(m, d)
                    break
    return _sturm_root_below(prev, q)


def verify_min_chain(p: FamilyParams) -> bool:
    """Certify the strict order of the smallest positive roots: True, or raise.

    t_h < t_{n-1} < ... < t_{r+1} < t_r = 1, where t_q is the smallest
    positive root of q (at r = n the chain is t_h = 1).  Each link
    (prev, q) is a separation point s (:func:`_root_below`): prev has no
    root in (0, s] by Descartes' rule, Sturm count as fallback, and
    q(0) = 1 > 0 > q(s) gives q a root in (0, s) by the Intermediate
    Value Theorem, so t_q < s < t_prev; the roots themselves are never
    refined.  The same links prove what the nilpotent point needs: every
    a_j starts at a_j(0) = 1 and has no root in (0, s_j], and
    s_r > ... > s_{n-1} >= bracket.hi of h, so every a_j is positive on
    h's bracket.  The verdict is part of the memoized certificate of
    (n, r), which raises :class:`CertificationFailed` when a link or the
    bracket bound fails.
    """
    return _certify(p).chain_verified


def _values(polys, x: Fraction) -> tuple[float, ...]:
    # float(q(x)) for each q: int / int true division rounds correctly, as
    # float(Fraction) does, so the reduced Fraction is never built
    p, d = x.numerator, x.denominator
    return tuple(_homogeneous(q.coeffs, p, d) / d**q.degree for q in polys)


# the one memo of the module: one pass per (n, r); an a_j chain is built
# only by a link's Sturm fallback, as a local, so none outlives the pass
@functools.lru_cache(maxsize=None)
def _certify(p: FamilyParams) -> NilpotentCertificate:
    """The double-mode certificate of ``p``, its residual not yet checked.

    Isolates h's smallest positive root and runs the separation links
    (a_r, a_{r+1}), ..., (a_{n-1}, h); the last separation point bounds
    h's bracket, which proves every a_j positive on it.
    """
    r = p.r
    a_polys, h = recurrence_polys(p)
    t_float, bracket = min_positive_root(h, width=_CERT_WIDTH)
    # a_r(t) = 1 - t, root exactly 1; at r = n that polynomial is h itself
    order = a_polys[r:] + (h,)
    if order[0].coeffs != (1, -1):
        raise CertificationFailed(f"a_{r} is not 1 - t")
    s = Fraction(1)  # the root of a_r, the first link's bound
    for j, (prev, q) in enumerate(zip(order, order[1:]), start=r):
        s = _root_below(prev, q, s)
        if s is None:
            raise CertificationFailed(f"no separation point below the smallest root of a_{j}")
    # a_1..a_{r-1} are the constant 1, a_r..a_{n-1} are root-free on (0, s];
    # at r = n no link runs and every a_j is the constant 1
    if r < p.n and bracket.hi > s:
        raise CertificationFailed("h's bracket reaches past the last separation point")
    lo, hi = _values(a_polys[1:], bracket.lo), _values(a_polys[1:], bracket.hi)
    margins = tuple(map(min, lo, hi))
    a0 = _values(a_polys[1:], bracket.midpoint)
    reali = FamilyRealization(params=p, a=a0, b=t_float)
    return NilpotentCertificate(
        params=p,
        t_h=t_float,
        bracket=bracket,
        a0=a0,
        residual=max(abs(v) for v in coeff_map(reali)),
        chain_verified=True,
        a0_margins=margins,
    )


def nilpotent_realization(
    p: FamilyParams, precision: str = "double"
) -> NilpotentCertificate:
    """Construct and certify a nilpotent realization for the parameters.

    The smallest positive root of h is isolated (at r = n, h = 1 - t and
    the root is exactly 1), every a_j is certified positive on the
    bracket through the root-order links, and the coefficient residual
    of the emitted realization is checked against
    RESIDUAL_TOL_PER_N * n.  In "extended" mode the
    residual is that of the exact rational construction at the bracket
    midpoint: the recurrence makes every coefficient but the last vanish
    identically, so it is |h(t_mid)|.
    """
    if precision not in ("double", "extended"):
        raise PreconditionViolated(f"unknown precision mode {precision!r}")
    cert = _certify(p)
    if precision == "extended":
        _, h = recurrence_polys(p)
        cert = replace(
            cert, residual=abs(float(h(cert.bracket.midpoint))), precision_mode="extended"
        )
    limit = RESIDUAL_TOL_PER_N * p.n
    if cert.residual > limit:
        raise CertificationFailed(
            f"coefficient residual {cert.residual:.3e} exceeds "
            f"{limit:.3e} (bracket width {float(cert.bracket.width):.3e})"
        )
    return cert
