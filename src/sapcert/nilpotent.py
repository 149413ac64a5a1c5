"""Certified construction of nilpotent realizations for the family.

Setting a_1 = ... = a_{r-1} = 1 and the feedback entry to t turns the
vanishing of the characteristic coefficients into an integer-coefficient
recurrence

    a_j(t) = a_{j-1}(t) - t a_{j-r}(t),    a_0 = ... = a_{r-1} = 1,

closed by h(t) = a_{n-1}(t) - t a_{n-r}(t) = 0.  This is the elimination
that realizes every target (:func:`sapcert.family.eliminate`) taken at the
zero target, whose closing polynomial is -h.  The smallest positive root
of h keeps every a_j strictly positive, which is certified here with
exact rational brackets on integer polynomials rather than assumed.
The whole proof for one (n, r) is built in one pass and memoized once;
the public functions read that one certificate.
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
    bisections,
    count_roots,
    min_positive_root,
    sign_variations,
    sturm_chain,
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
    polynomial, kept with its exact bracket).  ``a0_margins`` are the
    smaller endpoint values of each a_j; what is certified is that each
    a_j is positive at both ends of the bracket and has no root inside,
    so it is positive on the whole bracket.  A margin is not a lower
    bound: a_j may dip below both endpoint values inside the bracket.
    ``residual`` is the
    largest characteristic-coefficient magnitude of the emitted double
    matrix (mode "double") or of the exact rational construction at the
    bracket midpoint (mode "extended").
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


def _root_below(prev_chain, q_chain) -> bool:
    """Prove that q's smallest positive root lies below prev's, both in (0, 1].

    Bisects prev's chain on (0, 1], always keeping prev's smallest root
    in (lo, hi], until the dyadic lo has count(prev, (0, lo]) = 0 and
    count(q, (0, lo]) >= 1: then t_q <= lo < t_prev.  False when prev has
    no root in (0, 1] or the guard runs out first (equal or reversed
    roots never separate).
    """
    lo, hi = Fraction(0), Fraction(1)
    if sign_variations(prev_chain, lo) == sign_variations(prev_chain, hi):
        return False
    q_zero = sign_variations(q_chain, lo)
    for new_lo, _, _ in islice(bisections(prev_chain, lo, hi), _SEPARATION_STEPS):
        if new_lo != lo:
            lo = new_lo
            if q_zero - sign_variations(q_chain, lo) >= 1:
                return True
    return False


def verify_min_chain(p: FamilyParams) -> bool:
    """Certify the strict order of the smallest positive roots.

    t_h < t_{n-1} < ... < t_{r+1} < t_r = 1, where t_q is the smallest
    positive root of q (at r = n the chain is t_h = 1).  Each link
    (prev, q) is a separation certificate: a dyadic s with
    count(prev, (0, s]) = 0 and count(q, (0, s]) >= 1 by Sturm count, so
    t_q <= s < t_prev; the roots themselves are never refined.  Read
    through the Intermediate Value Theorem: every a_j starts at
    a_j(0) = 1 and has no root in (0, t_h], so it is positive on
    [0, t_h], which is what the nilpotent point needs.  The verdict is
    part of the memoized certificate of (n, r), so this raises
    :class:`CertificationFailed` too if a first-column value is not
    certifiably positive on h's bracket (which no valid (n, r) has shown).
    """
    return _certify(p).chain_verified


def _certify_positive_on_bracket(q: IntPolynomial, chain, bracket: RootBracket) -> float:
    """Certify that ``q`` is positive on the bracket, or raise.

    Positive at both endpoints and root-free inside (by the Sturm count
    of ``chain``, the chain of ``q``) implies positive throughout.
    Returns the smaller endpoint value, which is not a lower bound of
    ``q`` over the bracket: a positive, root-free ``q`` may still dip
    below both endpoint values inside.
    """
    lo_val = q(bracket.lo)
    hi_val = q(bracket.hi)
    if lo_val <= 0 or hi_val <= 0:
        raise CertificationFailed("first-column value not positive at bracket endpoint")
    if count_roots(chain, bracket.lo, bracket.hi) != 0:
        raise CertificationFailed("first-column value changes sign inside bracket")
    return float(min(lo_val, hi_val))


# the one memo of the module: one pass per (n, r) builds every Sturm
# chain it needs as locals, so no chain outlives the certificate
@functools.lru_cache(maxsize=None)
def _certify(p: FamilyParams) -> NilpotentCertificate:
    """The double-mode certificate of ``p``, its residual not yet checked.

    Isolates h's smallest positive root, certifies every a_j positive on
    its bracket, and proves the root order from the same chains.
    """
    n, r = p.n, p.r
    a_polys, h = recurrence_polys(p)
    chains = [sturm_chain(q) if q.degree >= 1 else (q.coeffs,) for q in a_polys]
    t_float, bracket = min_positive_root(h, width=_CERT_WIDTH)
    t_mid = bracket.midpoint
    margins = tuple(
        _certify_positive_on_bracket(a_polys[j], chains[j], bracket) for j in range(1, n)
    )
    a0 = tuple(float(a_polys[j](t_mid)) for j in range(1, n))
    # a_r(t) = 1 - t, root exactly 1; at r = n that polynomial is h itself
    order = chains[r:] + [bracket.sturm()]
    chain_verified = (a_polys + (h,))[r].coeffs == (1, -1) and all(
        _root_below(prev, q) for prev, q in zip(order, order[1:])
    )
    reali = FamilyRealization(params=p, a=a0, b=t_float)
    return NilpotentCertificate(
        params=p,
        t_h=t_float,
        bracket=bracket,
        a0=a0,
        residual=max(abs(v) for v in coeff_map(reali)),
        chain_verified=chain_verified,
        a0_margins=margins,
    )


def nilpotent_realization(
    p: FamilyParams, precision: str = "double"
) -> NilpotentCertificate:
    """Construct and certify a nilpotent realization for the parameters.

    The smallest positive root of h is isolated (at r = n, h = 1 - t and
    the root is exactly 1), every a_j is certified positive on the
    bracket, and the coefficient residual of the emitted realization is
    checked against RESIDUAL_TOL_PER_N * n.  In "extended" mode the
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
