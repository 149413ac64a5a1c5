"""Exact integer polynomials and certified positive-root brackets.

Roots are located by Sturm-sequence counting, so every bracket comes with
a proof that it contains exactly one root, and brackets from
:func:`min_positive_root` with a proof that no smaller positive root
exists.  Grid scanning can miss close root pairs; counting cannot.

The Sturm chain is a fraction-free remainder sequence: each
pseudo-remainder is scaled by a positive factor, which keeps its signs,
and divided by its content.  :func:`positive_roots` is the one isolation
routine: a lazy, leftmost-first subdivision on the square-free part of
the polynomial that yields one-root brackets in increasing order, so a
caller that needs only the first admissible root stops there; a rational
root is recognised and centred on the first interval that holds it
alone.  Isolation stops at the width the caller asks for and a bracket
is narrowed only on demand (:func:`refine`, :func:`sign_at_root`) by
one certified bisection sequence (:func:`bisections`), with the chain
built once and carried by the bracket.

Every polynomial in the package is an :class:`IntPolynomial`.  Signs and
values at rational points are evaluated homogeneously in integer
arithmetic, which keeps deep bisection cheap.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from math import ceil, gcd, isqrt
from typing import Iterator

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

    The Sturm count of ``poly`` on (lo, hi] is one; ``poly`` from
    :func:`positive_roots` is square-free, so it changes sign across the
    bracket, and the count on (0, lo] is zero when produced by
    :func:`min_positive_root`.  ``exact`` is set when the root is a known
    rational, which lies strictly inside (lo, hi) in every bracket from
    :func:`positive_roots`; :func:`refine` stops at a bisection midpoint
    that hits the root and keeps it as ``hi``.  ``chain`` is the Sturm
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


def bisections(
    chain, lo: Fraction, hi: Fraction
) -> Iterator[tuple[Fraction, Fraction, Fraction | None]]:
    """Certified bisection steps on (lo, hi], one per item, without end.

    Keeps the left half when its Sturm count is at least one, else the
    right half, and yields the kept (lo, hi) with the midpoint when it is
    a root of ``chain[0]`` (it is then the kept ``hi``), else None.  The
    sign variations at the kept ``lo`` are carried along, so a step
    evaluates the chain at the midpoint only.
    """
    v_lo = sign_variations(chain, lo)
    while True:
        mid = (lo + hi) / 2
        v_mid = sign_variations(chain, mid)
        if v_lo - v_mid >= 1:
            hi, hit = mid, (mid if _sign_at(chain[0], mid) == 0 else None)
        else:
            lo, v_lo, hit = mid, v_mid, None
        yield lo, hi, hit


def refine(bracket: RootBracket, width: Fraction) -> RootBracket:
    """The bracket narrowed by bisection to ``width`` at most.

    Stops early when a midpoint is the root, which is then reported as
    ``exact``; brackets that are exact or narrow enough come back as is.
    """
    if bracket.exact is not None or bracket.width <= width:
        return bracket
    chain = bracket.sturm()
    for lo, hi, hit in bisections(chain, bracket.lo, bracket.hi):
        if hit is not None or hi - lo <= width:
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


def _exact_quotient(num: tuple[int, ...], den: tuple[int, ...]) -> tuple[int, ...]:
    # num / den for a primitive factor den of num: by Gauss's lemma every
    # quotient coefficient is an integer, so the long division is exact
    rem = list(num)
    out = [0] * (len(num) - len(den) + 1)
    for k in range(len(out) - 1, -1, -1):
        c = rem[k + len(den) - 1] // den[-1]
        out[k] = c
        for i, d in enumerate(den):
            rem[k + i] -= c * d
    return tuple(out)


def _square_free(ints: tuple[int, ...]) -> tuple[IntPolynomial, tuple[tuple[int, ...], ...]]:
    """The primitive ``ints`` divided by gcd(p, p'), with its Sturm chain.

    At a repeated root every member of the chain of p vanishes, so a
    subdivision midpoint that hits one loses count; the square-free part
    has the same distinct roots and no such points.
    """
    poly = IntPolynomial(ints)
    chain = sturm_chain(poly)
    g = _content_free(chain[-1])
    if len(g) == 1:
        return poly, chain
    poly = IntPolynomial(_exact_quotient(ints, g))
    return poly, sturm_chain(poly)


def _rational_root(ints, lo: Fraction, hi: Fraction, nums: list[int], dens: list[int]):
    """The root num/den of ``ints`` in (lo, hi] with num in ``nums`` and den in ``dens``, or None.

    (lo, hi] holds one simple root, so the sign at a candidate tells its
    side; for each den the sorted numerators in (lo * den, hi * den] are
    bisected by sign, which narrows (lo, hi] for the next den.
    """
    s_hi = _sign_at(ints, hi)
    for den in dens:
        i, j = bisect_right(nums, lo * den), bisect_right(nums, hi * den)
        while i < j:
            k = (i + j) // 2
            x = Fraction(nums[k], den)
            s = _sign_at(ints, x)
            if s == 0:
                return x
            if s == s_hi:
                hi, j = x, k
            else:
                lo, i = x, k + 1
    return None


def _centred(poly: IntPolynomial, chain, exact: Fraction, delta: Fraction):
    """(exact - delta, exact + delta) around the root ``exact`` of ``poly``.

    ``delta`` is halved until 0 < lo, neither end is a root of ``poly``
    and ``chain`` counts one root, the centre, on (lo, hi].
    """
    lo, hi = exact - delta, exact + delta
    while (
        lo <= 0
        or _sign_at(poly.coeffs, lo) == 0
        or _sign_at(poly.coeffs, hi) == 0
        or count_roots(chain, lo, hi) != 1
    ):
        delta /= 2
        lo, hi = exact - delta, exact + delta
    return lo, hi


def positive_roots(p: IntPolynomial, width: Fraction = DEFAULT_WIDTH) -> Iterator[RootBracket]:
    """Brackets for the distinct positive roots of ``p``, lazily, in increasing order.

    Works on the primitive part of ``p`` with its roots at zero divided
    out, and on the square-free part of that when gcd(p, p') is not
    constant.  A leftmost-first Sturm subdivision of (0, cauchy_bound(p)]
    yields each bracket as soon as it holds one root and is at most
    ``width`` wide; isolate coarsely and :func:`refine` only the brackets
    that are used.  Rational roots num/den, num dividing the constant and
    den the leading coefficient (both at most 1e9), are looked for once,
    on the first interval that holds the root alone; one found there, or a
    midpoint that hits a root, is reported as ``exact`` and centred at once
    in a bracket that holds no other root.  Each bracket lies right of the
    one before.
    """
    if p.is_zero:
        raise InvalidInput("cannot isolate roots of the zero polynomial")
    lowest = next(i for i, c in enumerate(p.coeffs) if c)  # roots at zero are not positive
    work = _content_free(p.coeffs[lowest:])
    if len(work) < 2:
        return
    poly, chain = _square_free(work)
    candidates = None  # sorted divisors of poly(0) and lead, on the first search
    zero, bound = Fraction(0), cauchy_bound(p)
    # searched: an enclosing interval with one root held no rational root
    pending = [(zero, bound, sign_variations(chain, zero), sign_variations(chain, bound), False)]
    floor = zero  # hi of the last bracket; a centred one can reach past its parent
    for _ in range(_MAX_BISECTIONS * len(work)):
        if not pending:
            return
        lo, hi, v_lo, v_hi, searched = pending.pop()
        if v_lo == v_hi:
            continue
        narrow = hi - lo <= width
        if v_lo - v_hi == 1 and lo >= floor:
            exact = hi if narrow and _sign_at(poly.coeffs, hi) == 0 else None
            if exact is None and not searched:
                if candidates is None:
                    c0, lead = abs(poly.coeffs[0]), abs(poly.coeffs[-1])
                    small = c0 <= _RATROOT_COEFF_LIMIT and lead <= _RATROOT_COEFF_LIMIT
                    candidates = (_divisors(c0), _divisors(lead)) if small else ([], [])
                exact = _rational_root(poly.coeffs, lo, hi, *candidates)
                searched = True
            if exact is not None:
                # centred on the cell that bisecting on to ``width`` ends in,
                # after the fewest halvings k with 2^k >= cells
                cells = ceil((hi - lo) / width)
                step = (hi - lo) / 2 ** (cells - 1).bit_length()
                lo, hi = _centred(poly, chain, exact, min(width / 2, (exact - lo) % step or step))
            if exact is not None or narrow:
                floor = hi
                yield RootBracket(lo=lo, hi=hi, poly=poly, exact=exact, chain=chain)
                continue
        mid = (lo + hi) / 2
        v_mid = sign_variations(chain, mid)
        pending += [(mid, hi, v_mid, v_hi, searched), (lo, mid, v_lo, v_mid, searched)]
    raise PreconditionViolated("root isolation did not converge")


def min_positive_root(
    p: IntPolynomial, width: Fraction = DEFAULT_WIDTH
) -> tuple[float, RootBracket]:
    """Smallest positive root of ``p``, certified: the first of :func:`positive_roots`.

    Requires p(0) > 0.  The returned bracket (lo, hi) has width at most
    ``width``, contains exactly one root by Sturm count, shows a sign
    change of ``p`` across its endpoints, and carries a zero count on
    (0, lo].  Known rational roots are reported exactly.
    """
    if p.is_zero or p.degree < 1:
        raise NoPositiveRoot("constant polynomial has no positive root")
    if p(0) <= 0:
        raise PreconditionViolated("min_positive_root requires p(0) > 0")
    bracket = next(positive_roots(p, width), None)
    if bracket is None:
        raise NoPositiveRoot("no root on the positive half-axis")
    s_lo, s_hi = _sign_at(p.coeffs, bracket.lo), _sign_at(p.coeffs, bracket.hi)
    if s_lo == 0 or s_hi == 0 or s_lo == s_hi:
        raise PreconditionViolated(
            "smallest positive root admits no sign-change bracket "
            "(even multiplicity); cannot certify by bisection"
        )
    if count_roots(bracket.sturm(), Fraction(0), bracket.lo) != 0:
        raise PreconditionViolated("a smaller positive root slipped below the bracket")
    return bracket.as_float(), bracket


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
    q_chain = steps = None
    for _ in range(_MAX_SIGN_REFINE):
        s_lo = _sign_at(q.coeffs, lo)
        s_hi = _sign_at(q.coeffs, hi)
        if s_lo == s_hi and s_lo != 0:
            if q_chain is None:
                q_chain = sturm_chain(q)
            if count_roots(q_chain, lo, hi) == 0:
                return s_lo
        # count-based refinement works for any root multiplicity
        if steps is None:
            steps = bisections(bracket.sturm(), lo, hi)
        lo, hi, hit = next(steps)
        if hit is not None:
            return _sign_at(q.coeffs, hit)
    return 0
