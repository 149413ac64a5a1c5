"""Exact integer polynomials and certified positive-root brackets.

Roots are located by Sturm-sequence counting, so every bracket comes with
a proof that it contains exactly one root, and brackets from
:func:`min_positive_root` with a proof that no smaller positive root
exists.  Grid scanning can miss close root pairs; counting cannot.

The Sturm chain is a fraction-free remainder sequence: each
pseudo-remainder is scaled by a positive factor, which keeps its signs,
and divided by its content.  Isolation stops at the width the caller asks
for and a bracket is narrowed only on demand (:func:`refine`), one
certified bisection step (:func:`halve`) at a time, with the chain built
once and carried by the bracket.

Every polynomial in the package is an :class:`IntPolynomial`.  Signs and
values at rational points are evaluated homogeneously in integer
arithmetic, which keeps deep bisection cheap, and positive rational roots
are divided out in integers (Gauss's lemma makes the division by
den*x - num exact).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, isqrt

from .errors import InvalidInput, NoPositiveRoot, PreconditionViolated

DEFAULT_WIDTH = Fraction(1, 10**14)

_MAX_BISECTIONS = 4000
# bisections sign_at_root spends separating q from zero at a bracketed root
_MAX_SIGN_REFINE = 200
_RATROOT_COEFF_LIMIT = 10**9


@dataclass(frozen=True)
class IntPolynomial:
    """Polynomial with arbitrary-precision integer coefficients.

    ``coeffs`` is ascending in degree with no trailing zeros; the zero
    polynomial is the empty tuple.
    """

    coeffs: tuple[int, ...]

    def __post_init__(self):
        if self.coeffs and self.coeffs[-1] == 0:
            raise InvalidInput("leading coefficient must be nonzero")

    @classmethod
    def from_coeffs(cls, coeffs) -> "IntPolynomial":
        cs = [int(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        return cls(tuple(cs))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def __call__(self, x):
        """Exact value at an int or Fraction argument; Horner otherwise.

        At x = p/q the numerator sum c_i p^i q^(d-i) is accumulated in
        integers, as :func:`_sign_at` does, and divided by q^d once.
        """
        if isinstance(x, Fraction) and self.coeffs:
            return Fraction(_homogeneous(self.coeffs, x), x.denominator**self.degree)
        acc = 0 * x
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def derivative(self) -> "IntPolynomial":
        return IntPolynomial.from_coeffs(
            i * c for i, c in enumerate(self.coeffs) if i > 0
        )

    def subtract(self, other: "IntPolynomial") -> "IntPolynomial":
        n = max(len(self.coeffs), len(other.coeffs))
        a = list(self.coeffs) + [0] * (n - len(self.coeffs))
        for i, c in enumerate(other.coeffs):
            a[i] -= c
        return IntPolynomial.from_coeffs(a)

    def shift_up(self) -> "IntPolynomial":
        """Multiply by the variable."""
        if self.is_zero:
            return self
        return IntPolynomial((0,) + self.coeffs)

    def plus(self, c: int) -> "IntPolynomial":
        """Add the integer constant ``c``."""
        if not c:
            return self
        head = self.coeffs[0] if self.coeffs else 0
        return IntPolynomial.from_coeffs((head + c,) + self.coeffs[1:])


@dataclass(frozen=True)
class RootBracket:
    """Certified enclosure of a single positive root.

    The Sturm count of ``poly`` on (lo, hi] is one, ``poly`` changes sign
    across (lo, hi) unless the root is a deflated rational one of even
    multiplicity, and the count on (0, lo] is zero when produced by
    :func:`min_positive_root`.  ``exact`` is set when the root is a known
    rational: a root found by deflation lies strictly inside (lo, hi), a
    bisection midpoint that hit the root is ``hi``.  ``chain`` is the Sturm
    chain of ``poly``, built at most once (:meth:`sturm`) and passed on to
    refined brackets.
    """

    lo: Fraction
    hi: Fraction
    poly: IntPolynomial
    exact: Fraction | None = None
    chain: tuple[tuple[int, ...], ...] | None = field(
        default=None, repr=False, compare=False
    )

    def sturm(self) -> tuple[tuple[int, ...], ...]:
        if self.chain is None:
            object.__setattr__(self, "chain", sturm_chain(self.poly))
        return self.chain

    @property
    def midpoint(self) -> Fraction:
        return self.exact if self.exact is not None else (self.lo + self.hi) / 2

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    def as_float(self) -> float:
        return float(self.midpoint)


def _homogeneous(ints, x: Fraction) -> int:
    # sum c_i p^i q^(d-i) for x = p/q, q > 0: q^d f(x), in integers
    p, q = x.numerator, x.denominator
    acc = 0
    qpow = 1
    for c in reversed(ints):
        acc = acc * p + c * qpow
        qpow *= q
    return acc


def _sign_at(ints: tuple[int, ...], x: Fraction) -> int:
    acc = _homogeneous(ints, x)
    return (acc > 0) - (acc < 0)


def _content_free(ints: list[int]) -> tuple[int, ...]:
    # divide by the (positive) gcd of the coefficients; signs are kept
    g = 0
    for c in ints:
        g = gcd(g, c)
    g = g or 1
    return tuple(c // g for c in ints)


def _positive_remainder(num: list[int], den: tuple[int, ...]) -> list[int]:
    """A positive multiple of the remainder of ``num`` by ``den``.

    Each elimination step scales the running remainder by a positive
    integer before subtracting, so signs are those of the exact remainder.
    """
    rem = list(num)
    lead = den[-1]
    lead_abs, lead_sign = abs(lead), (lead > 0) - (lead < 0)
    while len(rem) >= len(den):
        g = gcd(lead_abs, rem[-1])
        scale, k = lead_abs // g, lead_sign * (rem[-1] // g)
        off = len(rem) - len(den)
        if scale != 1:
            rem = [c * scale for c in rem]
        for i, c in enumerate(den):
            rem[i + off] -= k * c
        rem.pop()
        while rem and rem[-1] == 0:
            rem.pop()
    return rem


def sturm_chain(p: IntPolynomial) -> tuple[tuple[int, ...], ...]:
    """Sturm sequence of ``p``: p, p', then the negated remainders, each primitive.

    The remainders come from integer pseudo-division (no Fraction
    arithmetic) and are equal, member by member, to the primitive parts
    of the classical rational remainder sequence.  The chain runs down to
    gcd(p, p'), so root counts are of distinct roots and remain valid for
    non-square-free input.
    """
    if p.is_zero:
        raise InvalidInput("Sturm chain of the zero polynomial")
    chain = [tuple(p.coeffs)]
    d = p.derivative()
    if not d.is_zero:
        chain.append(tuple(d.coeffs))
        while True:
            rem = _positive_remainder(chain[-2], chain[-1])
            if not rem:
                break
            chain.append(_content_free([-c for c in rem]))
    return tuple(chain)


def sign_variations(chain, x: Fraction) -> int:
    v, prev = 0, 0
    for f in chain:
        s = _sign_at(f, x)
        if s != 0:
            if prev != 0 and s != prev:
                v += 1
            prev = s
    return v


def count_roots(chain, a: Fraction, b: Fraction) -> int:
    """Distinct roots in (a, b] for a < b; ``a`` must not be a root."""
    return sign_variations(chain, a) - sign_variations(chain, b)


def halve(chain, lo: Fraction, hi: Fraction, v_lo: int, v_hi: int):
    """One certified bisection step on (lo, hi].

    ``v_lo`` and ``v_hi`` are the sign variations of ``chain`` at the
    ends, so a step evaluates the chain at the midpoint only.  Keeps the
    left half when its Sturm count is at least one, else the right half,
    and returns the kept (lo, hi, v_lo, v_hi) with the midpoint when it is
    a root of ``chain[0]`` (it is then the kept ``hi``), else None.
    """
    mid = (lo + hi) / 2
    v_mid = sign_variations(chain, mid)
    if v_lo - v_mid >= 1:
        hit = mid if _sign_at(chain[0], mid) == 0 else None
        return lo, mid, v_lo, v_mid, hit
    return mid, hi, v_mid, v_hi, None


def refine(bracket: RootBracket, width: Fraction) -> RootBracket:
    """The bracket narrowed by bisection to ``width`` at most.

    Stops early when a midpoint is the root, which is then reported as
    ``exact``; brackets that are exact or narrow enough come back as is.
    """
    if bracket.exact is not None or bracket.width <= width:
        return bracket
    chain = bracket.sturm()
    lo, hi = bracket.lo, bracket.hi
    v_lo, v_hi = sign_variations(chain, lo), sign_variations(chain, hi)
    hit = None
    while hi - lo > width and hit is None:
        lo, hi, v_lo, v_hi, hit = halve(chain, lo, hi, v_lo, v_hi)
    return RootBracket(lo=lo, hi=hi, poly=bracket.poly, exact=hit, chain=chain)


def cauchy_bound(p: IntPolynomial) -> Fraction:
    """Strict upper bound on the magnitude of every root."""
    if p.degree < 1:
        raise InvalidInput("bound requires degree >= 1")
    lead = abs(p.coeffs[-1])
    rest = max((abs(c) for c in p.coeffs[:-1]), default=0)
    return 1 + Fraction(rest, lead)


def _divisors(n: int) -> list[int]:
    out = []
    for d in range(1, isqrt(n) + 1):
        if n % d == 0:
            out.append(d)
            if d != n // d:
                out.append(n // d)
    return sorted(out)


def _divide_out(ints: list[int], root: Fraction) -> list[int]:
    # quotient by (den x - num) for root = num/den; by Gauss's lemma it is
    # exact in integers when ``ints`` is primitive and ``root`` a root
    num, den = root.numerator, root.denominator
    out = [0] * (len(ints) - 1)
    acc = 0
    for i in range(len(ints) - 1, 0, -1):
        acc = (ints[i] + num * acc) // den
        out[i - 1] = acc
    return out


def _centred(p: IntPolynomial, exact: Fraction, delta: Fraction, alone):
    """(exact - delta, exact + delta) around the rational root ``exact`` of ``p``.

    ``delta`` is halved until neither end is a root of ``p`` and
    ``alone(lo, hi)`` holds: the caller's proof that no other root of
    ``p`` lies in (lo, hi].
    """
    lo, hi = exact - delta, exact + delta
    while not alone(lo, hi) or _sign_at(p.coeffs, lo) == 0 or _sign_at(p.coeffs, hi) == 0:
        delta /= 2
        lo, hi = exact - delta, exact + delta
    return lo, hi


def positive_rational_roots(p: IntPolynomial) -> list[Fraction]:
    """Exact positive rational roots, each listed once.

    Candidate enumeration needs the constant and leading coefficients
    factored, so this gives up (returns []) when they are too large; the
    bisection path stays fully general either way.
    """
    cs = list(p.coeffs)
    shift = 0
    while cs and cs[0] == 0:
        cs.pop(0)
        shift += 1
    if not cs or len(cs) == 1:
        return []
    c0, lead = abs(cs[0]), abs(cs[-1])
    if c0 > _RATROOT_COEFF_LIMIT or lead > _RATROOT_COEFF_LIMIT:
        return []
    roots = []
    for num in _divisors(c0):
        for den in _divisors(lead):
            cand = Fraction(num, den)
            if cand not in roots and p(cand) == 0:
                roots.append(cand)
    return sorted(roots)


def min_positive_root(
    p: IntPolynomial, width: Fraction = DEFAULT_WIDTH
) -> tuple[float, RootBracket]:
    """Smallest positive root of ``p``, certified.

    Requires p(0) > 0.  The returned bracket (lo, hi) has width at most
    ``width``, contains exactly one root by Sturm count, shows a sign
    change of ``p`` across its endpoints, and carries a zero count on
    (0, lo].  Known rational roots are reported exactly.
    """
    if p.is_zero or p.degree < 1:
        raise NoPositiveRoot("constant polynomial has no positive root")
    if p(0) <= 0:
        raise PreconditionViolated("min_positive_root requires p(0) > 0")
    chain = sturm_chain(p)
    bound = cauchy_bound(p)
    lo, hi = Fraction(0), bound
    v_lo, v_hi = sign_variations(chain, lo), sign_variations(chain, hi)
    if v_lo == v_hi:
        raise NoPositiveRoot("no root on the positive half-axis")

    rational = positive_rational_roots(p)

    # the count on (0, lo] stays zero: a midpoint root is kept as ``hi``
    for _ in range(_MAX_BISECTIONS):
        if hi - lo <= width and v_lo - v_hi == 1:
            break
        lo, hi, v_lo, v_hi, _ = halve(chain, lo, hi, v_lo, v_hi)
    else:
        raise PreconditionViolated("root isolation did not converge")

    exact = next((q for q in rational if lo < q <= hi), None)
    if exact is None and _sign_at(p.coeffs, hi) == 0:
        exact = hi  # bisection midpoint landed on the root
    if exact is not None:
        # re-center a sign-change bracket around the exact root
        delta = min(width / 2, exact - lo if exact > lo else width / 2)
        lo, hi = _centred(p, exact, delta, lambda a, b: count_roots(chain, a, b) == 1)

    s_lo = _sign_at(p.coeffs, lo)
    s_hi = _sign_at(p.coeffs, hi)
    if s_lo == 0 or s_hi == 0 or s_lo == s_hi:
        raise PreconditionViolated(
            "smallest positive root admits no sign-change bracket "
            "(even multiplicity); cannot certify by bisection"
        )
    if count_roots(chain, Fraction(0), lo) != 0:
        raise PreconditionViolated("a smaller positive root slipped below the bracket")
    bracket = RootBracket(lo=lo, hi=hi, poly=p, exact=exact, chain=chain)
    return bracket.as_float(), bracket


def isolate_positive_roots(
    p: IntPolynomial, width: Fraction = DEFAULT_WIDTH
) -> list[RootBracket]:
    """Brackets for every distinct positive root, in increasing order.

    Exact rational roots are deflated first so that bisection endpoints
    can never collide with a root; each is centred in a bracket of width
    at most ``width`` that holds no other root.  Each irrational root gets
    a certified one-root bracket of width at most ``width``.  Isolate
    coarsely and :func:`refine` only the brackets that are used.
    """
    if p.is_zero:
        raise InvalidInput("cannot isolate roots of the zero polynomial")
    if p.degree < 1:
        return []
    lowest = next(i for i, c in enumerate(p.coeffs) if c)  # roots at zero are not positive
    work = list(_content_free(p.coeffs[lowest:]))
    rational = positive_rational_roots(IntPolynomial(tuple(work)))
    for q in rational:
        while len(work) > 1 and _sign_at(work, q) == 0:
            work = _divide_out(work, q)
    deflated = IntPolynomial(tuple(work))
    chain = sturm_chain(deflated) if deflated.degree >= 1 else None

    def alone(lo, hi):
        # one rational root in (lo, hi], the centre, and no root of the
        # deflated polynomial; 0 < lo keeps out the roots at zero
        return (
            lo > 0
            and sum(lo < o <= hi for o in rational) == 1
            and (chain is None or count_roots(chain, lo, hi) == 0)
        )

    brackets = [
        RootBracket(*_centred(p, q, width / 2, alone), poly=p, exact=q) for q in rational
    ]

    if chain is not None:
        bound = cauchy_bound(deflated)
        zero = Fraction(0)
        pending = [(zero, bound, sign_variations(chain, zero), sign_variations(chain, bound))]
        guard = 0
        while pending:
            guard += 1
            if guard > _MAX_BISECTIONS * (p.degree + 1):
                raise PreconditionViolated("root isolation did not converge")
            lo, hi, v_lo, v_hi = pending.pop()
            cnt = v_lo - v_hi
            if cnt == 0:
                continue
            if cnt == 1 and hi - lo <= width:
                # right endpoint may be an exact (dyadic) hit from subdivision;
                # the deflated polynomial certifies the root, so store it:
                # the original may have deflated rational roots nearby
                hit = hi if _sign_at(deflated.coeffs, hi) == 0 else None
                brackets.append(
                    RootBracket(lo=lo, hi=hi, poly=deflated, exact=hit, chain=chain)
                )
                continue
            mid = (lo + hi) / 2
            v_mid = sign_variations(chain, mid)
            pending.append((lo, mid, v_lo, v_mid))
            pending.append((mid, hi, v_mid, v_hi))
    return sorted(brackets, key=lambda b: b.midpoint)


def sign_at_root(q: IntPolynomial, bracket: RootBracket) -> int:
    """Certified sign of ``q`` at the root enclosed by ``bracket``.

    Returns +1/-1 when provable, 0 when the sign could not be separated
    from zero within ``_MAX_SIGN_REFINE`` bisection steps of the bracket
    (including the case that the root of the bracket polynomial is also a
    root of ``q``).  The bracket's own chain drives the bisection.
    """
    if bracket.exact is not None:
        v = q(bracket.exact)
        return (v > 0) - (v < 0)
    lo, hi = bracket.lo, bracket.hi
    q_chain = None
    v_lo = v_hi = None
    for _ in range(_MAX_SIGN_REFINE):
        s_lo = _sign_at(q.coeffs, lo)
        s_hi = _sign_at(q.coeffs, hi)
        if s_lo == s_hi and s_lo != 0:
            if q_chain is None:
                q_chain = sturm_chain(q)
            if count_roots(q_chain, lo, hi) == 0:
                return s_lo
        # count-based refinement works for any root multiplicity
        chain = bracket.sturm()
        if v_lo is None:
            v_lo, v_hi = sign_variations(chain, lo), sign_variations(chain, hi)
        lo, hi, v_lo, v_hi, hit = halve(chain, lo, hi, v_lo, v_hi)
        if hit is not None:
            return _sign_at(q.coeffs, hit)
    return 0
