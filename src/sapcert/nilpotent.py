"""Certified construction of nilpotent realizations for the family.

Setting a_1 = ... = a_{r-1} = 1 and the feedback entry to t turns the
vanishing of the characteristic coefficients into an integer-coefficient
recurrence

    a_j(t) = a_{j-1}(t) - t a_{j-r}(t),    a_0 = ... = a_{r-1} = 1,

closed by h(t) = a_{n-1}(t) - t a_{n-r}(t) = 0.  This is the elimination
that realizes every target (:func:`sapcert.family.eliminate_integers`)
taken at the zero target, whose closing polynomial is -h.  The smallest
positive root of h keeps every a_j strictly positive, which is certified
here with exact rational brackets on integer polynomials rather than
assumed, by the Intermediate Value Theorem instead of an explicit check:
every a_j starts at a_j(0) = 1, and one chain of separation points
proves both the order of the smallest roots and that no a_j has a root
up to h's bracket.  Each separation point is found by signs on the
dyadic walk of :func:`sapcert.polyroots.bisections`, run inline below the
point before it, where the chain has already shown the polynomial
negative (:func:`_separation`); h's bracket by the root walk of
:mod:`sapcert.polyroots` below the last point, down the tree of
:func:`sapcert.polyroots.positive_roots`, which starts at the dyadic
root bound, and centred as that walk centres a rational root.  Each is
proved by one Descartes test; a failed test raises
:class:`CertificationFailed`.  The values of every a_j at a point
come from the recurrence in integers, one step each.  The whole proof
for one (n, r) is built in one pass and memoized once; the public
functions read that one certificate.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace
from fractions import Fraction

from .errors import CertificationFailed, PreconditionViolated
from .family import FamilyParams, FamilyRealization, coeff_map, eliminate_integers
from .polyroots import (
    IntPolynomial,
    RootBracket,
    _homogeneous,
    _Root,
    one_root_up_to,
    positive_up_to,
    root_bound,
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
    a, g = eliminate_integers(p.n, p.r, 1, (0,) * p.n)
    return tuple(map(IntPolynomial._of, a)), IntPolynomial._of(tuple(-c for c in g))


def _root_below(prev: IntPolynomial, q: IntPolynomial, bound: Fraction) -> Fraction | None:
    """A separation point s of q's smallest positive root below prev's, both in (0, 1].

    ``bound`` is a point where prev <= 0, the previous link's s or 2 for
    a_r = 1 - t, and caps the walk of :func:`_separation` on (0, 1] by
    prev's sign.  s is the first lo it moved to with q(s) < 0, and prev has
    no root in (0, s] by Descartes' rule (:func:`positive_up_to`).  q(0) > 0
    gives q a root in (0, s): t_q < s < t_prev.  None when q(0) <= 0,
    prev(0) <= 0, prev(bound) > 0, the Descartes test fails or
    ``_SEPARATION_STEPS`` halvings find no s (equal or reversed roots
    never separate).
    """
    if _homogeneous(prev.coeffs, bound.numerator, bound.denominator) > 0:
        return None
    return _separation(prev, q, bound)


def _separation(prev: IntPolynomial, q: IntPolynomial, bound: Fraction) -> Fraction | None:
    """:func:`_root_below` for a ``bound`` at which prev <= 0 is already proved.

    The walk is that of :func:`sapcert.polyroots.bisections` of prev on
    (0, 1] below ``bound``: a midpoint at or past it goes left
    unevaluated, else prev's sign there picks the half (prev(0) > 0).  It
    runs inline, and q is evaluated only where the lo end moves.  In the
    chain the bound is the previous link's s, where q < 0 was shown, or
    2 for a_r = 1 - t, so prev is not evaluated there again.
    """
    pc, qc = prev.coeffs, q.coeffs
    if not qc or qc[0] <= 0 or not pc or pc[0] <= 0:
        return None
    bn, bd = bound.numerator, bound.denominator
    a, b, d = 0, 1, 1
    for _ in range(_SEPARATION_STEPS):
        m, d = a + b, 2 * d
        if m * bd < bn * d and _homogeneous(pc, m, d) > 0:
            if _homogeneous(qc, m, d) < 0:
                return Fraction(m, d) if positive_up_to(prev, m, d) else None
            a, b = m, 2 * b
        else:
            a, b = 2 * a, m
    return None


def verify_min_chain(p: FamilyParams) -> bool:
    """Certify the strict order of the smallest positive roots: True, or raise.

    t_h < t_{n-1} < ... < t_{r+1} < t_r = 1, where t_q is the smallest
    positive root of q (at r = n the chain is t_h = 1).  Each link
    (prev, q) is a separation point s (:func:`_root_below`): prev has no
    root in (0, s] by Descartes' rule, and q(0) = 1 > 0 > q(s) gives q a
    root in (0, s) by the Intermediate Value Theorem, so t_q < s < t_prev;
    the roots themselves are never refined.  The same links prove what
    the nilpotent point needs: every a_j starts at a_j(0) = 1 and has no
    root in (0, s_j], and s_r > ... > s_{n-1} >= bracket.hi of h, so
    every a_j is positive on h's bracket.  The verdict is part of the
    memoized certificate of (n, r), which raises
    :class:`CertificationFailed` when a link or h's bracket fails.
    """
    return _certify(p).chain_verified


def _recurrence_at(p: FamilyParams, x: Fraction) -> list[float]:
    """a_1(x), ..., a_{n-1}(x) and a_n(x) = h(x) as floats, from the recurrence in integers.

    At x = u/v, C_j = v^(j//r) a_j(x) (a_j has degree j//r) satisfies
    C_j = v^[r | j] C_{j-1} - u C_{j-r} with C_0 = ... = C_{r-1} = 1, so
    every value takes one step; C_j / v^(j//r) is an int / int true
    division, which rounds correctly, as float(a_j(x)) does.
    """
    n, r = p.n, p.r
    u, v = x.numerator, x.denominator
    c = [1] * r
    for j in range(r, n + 1):
        c.append((c[-1] * v if j % r == 0 else c[-1]) - u * c[j - r])
    vpow = [v**k for k in range(n // r + 1)]
    return [c[j] / vpow[j // r] for j in range(1, n + 1)]


def _h_bracket(h: IntPolynomial, s: Fraction) -> RootBracket:
    """h's smallest positive root t_h, bracketed as the first of positive_roots(h, _CERT_WIDTH).

    ``s`` is the last link's separation point.  h(0) = 1, as for every
    closing polynomial, and one Descartes test (:func:`one_root_up_to`)
    proves one simple root t_h in (0, s), which h's signs bracket on the
    tree of positive_roots: the walk of (0, root_bound(h)] below s
    (:class:`sapcert.polyroots._Root`), narrowed to the first node
    (lo, hi] no wider than ``_CERT_WIDTH`` or to a midpoint that hits
    t_h.  Otherwise a rational t_h is some 1/k in (lo, hi].  An exact t_h
    is centred by the walk, as positive_roots centres it.  With its hi at
    most s the bracket holds t_h alone, so it is positive_roots' first
    bracket, whose rational search finds every rational t_h for
    n <= MAX_N; its poly is h, square-free for every supported (n, r).
    Raises :class:`CertificationFailed` when h(0) != 1, the test fails,
    the node leaves more than four k to try, or the bracket reaches past s.
    """
    cs = h.coeffs
    if cs[:1] != (1,) or not one_root_up_to(h, s.numerator, s.denominator):
        raise CertificationFailed(f"no one-root proof for h on (0, {s})")
    bound = root_bound(h)
    root = _Root(h, 0, bound.numerator, bound.denominator, below=s).narrow(_CERT_WIDTH)
    if root.exact is None:
        a, b, d = root.a, root.b, root.d
        # a rational root of h is some 1/k, as h(0) = 1, here with d/b <= k < d/a
        if not a or (d - 1) // a - (d - 1) // b > 4:
            raise CertificationFailed("too many rational candidates for h's root")
        ks = range((d - 1) // b + 1, (d - 1) // a + 1)
        root.exact = next((Fraction(1, k) for k in ks if not _homogeneous(cs, 1, k)), None)
    bracket = root.centre(_CERT_WIDTH).bracket()
    if bracket.hi > s:
        raise CertificationFailed("h's bracket reaches past the last separation point")
    return bracket


# the one memo of the module: one pass per (n, r).  Bounded, as a process
# that certifies every (n, r) up to MAX_N would otherwise keep 51,040
# certificates and most of a GB; 256 holds every pair up to n = 23
@functools.lru_cache(maxsize=256)
def _certify(p: FamilyParams) -> NilpotentCertificate:
    """The double-mode certificate of ``p``, its residual not yet checked.

    Runs the separation links (a_r, a_{r+1}), ..., (a_{n-1}, h), each
    walked below the point of the one before (:func:`_separation`), then
    brackets h's smallest positive root below the last separation point
    (:func:`_h_bracket`), which bounds the bracket and so proves every a_j
    positive on it.  a0 and the margins are the recurrence's values at
    the bracket's midpoint and ends (:func:`_recurrence_at`).
    """
    r = p.r
    a_polys, h = recurrence_polys(p)
    # a_r(t) = 1 - t, root exactly 1; at r = n that polynomial is h itself
    order = a_polys[r:] + (h,)
    if order[0].coeffs != (1, -1):
        raise CertificationFailed(f"a_{r} is not 1 - t")
    s = Fraction(2)  # a_r(2) < 0: the first link's bound
    for j, (prev, q) in enumerate(zip(order, order[1:]), start=r):
        # prev(s) < 0: a_r(2) = -1, then q(s) < 0 from the link before
        s = _separation(prev, q, s)
        if s is None:
            raise CertificationFailed(f"no separation point below the smallest root of a_{j}")
    # a_1..a_{r-1} are the constant 1, a_r..a_{n-1} are root-free on (0, s],
    # which holds the bracket; at r = n no link runs and s stays 2
    bracket = _h_bracket(h, s)
    lo, hi = _recurrence_at(p, bracket.lo)[:-1], _recurrence_at(p, bracket.hi)[:-1]
    margins = tuple(map(min, lo, hi))
    a0 = tuple(_recurrence_at(p, bracket.midpoint)[:-1])
    reali = FamilyRealization(params=p, a=a0, b=bracket.as_float())
    return NilpotentCertificate(
        params=p,
        t_h=reali.b,
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
    identically, so it is |h(t_mid)|, the recurrence's last value there.
    """
    if precision not in ("double", "extended"):
        raise PreconditionViolated(f"unknown precision mode {precision!r}")
    cert = _certify(p)
    if precision == "extended":
        h_mid = _recurrence_at(p, cert.bracket.midpoint)[-1]
        cert = replace(cert, residual=abs(h_mid), precision_mode="extended")
    limit = RESIDUAL_TOL_PER_N * p.n
    if cert.residual > limit:
        raise CertificationFailed(
            f"coefficient residual {cert.residual:.3e} exceeds "
            f"{limit:.3e} (bracket width {float(cert.bracket.width):.3e})"
        )
    return cert
