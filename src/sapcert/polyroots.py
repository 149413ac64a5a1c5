"""Exact integer polynomials and certified positive-root brackets.

One Descartes kernel (:func:`_variations`) isolates, refines and
proves: the sign variations of the polynomial mapped from an interval
(a/d, b/d) onto (0, inf), by integer Taylor shifts, bound its roots
there and match their number in parity (Descartes' rule of signs).  No
variation proves the interval root-free and one proves one simple root
in it.  Grid scanning can miss close root pairs; the variations cannot.

:func:`positive_roots` is the one isolation routine: a lazy,
leftmost-first dyadic subdivision on the square-free part of the
polynomial that drops an interval with no variation, halves one with
more, and yields one-root brackets in increasing order, so a caller that
needs only the first admissible root stops there; a rational root is
recognised and centred on the first interval that holds it alone.  The
tree starts at (0, 2^e], a Fujiwara bound read from bit lengths
(:func:`root_bound`), so every node's denominator is a power of two, and
each node's interval polynomial is derived from its parent's in the
manner of Collins and Akritas, by bit shifts and additions
(:func:`_halved`, :func:`_shifted_by_one`); an interval that is not a
tree node has it built from the polynomial (:func:`_shifted_variations`,
also the proof of a centred bracket).  The square-free part comes from
gcd(p, p') modulo Mersenne primes, each lift checked by exact division
(:func:`_square_free`).  A tree can also start lower, at a node of that
one, and run on the polynomial itself, letting its one-variation nodes
prove each root simple until a repeated root shows (:func:`_isolated`,
as realize's walks run it).
:func:`bisections` is the one loop that halves an interval by a
polynomial's sign: across the one root of an interval the sign at each
midpoint picks the half that holds the root, at one evaluation per step.
One root is one walk (:class:`_Root`): the subdivision hands each
one-root interval over as a walk (:func:`_isolated`), with the signs at
its ends read from the node's interval polynomial, and sign proofs
(:func:`sign_at_root`) and narrowing to a width (:func:`refine`) step on
along its one :func:`bisections` generator, each from where the last
stopped, so a caller that proves signs on the intervals as isolation
finds them narrows each only as far as its proofs need.  The nilpotent
certificate walks it below a bound of its own for h, and takes the same
steps inline for the links of its chain.  :func:`positive_up_to` and
:func:`one_root_up_to` prove a polynomial root-free, or with one simple
root, on (0, s].

Every polynomial in the package is an :class:`IntPolynomial`.  Signs and
values at a rational point p/q are evaluated homogeneously, as
q^d f(p/q), by one integer kernel that takes p and q as two integers
and shifts where q is a power of two.
Bisection keeps its endpoints as integer numerators over one common
denominator d, so the midpoint of (a/d, b/d] is (a + b)/2d with no gcd;
Fractions are built only for the brackets handed back.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from math import ceil, gcd, isqrt, lcm
from numbers import Rational
from typing import Iterator

from .errors import InvalidInput, PreconditionViolated, SizeLimitExceeded

DEFAULT_WIDTH = Fraction(1, 10**14)

_MAX_BISECTIONS = 4000
# bisections sign_at_root spends separating q from zero at a bracketed root,
# counted on brackets at most _LOCATED_WIDTH wide: the steps on wider ones
# locate the root, which a one-root interval from isolation leaves to them
_MAX_SIGN_REFINE = 200
_LOCATED_WIDTH = Fraction(1, 2**8)
_RATROOT_COEFF_LIMIT = 10**9
# the exponents e of the Mersenne primes 2^e - 1 modulo which _square_free
# takes gcd(p, p'), in turn
_MERSENNE_EXPONENTS = (
    61, 89, 107, 127, 521, 607, 1279, 2203, 2281, 3217, 4253, 4423, 9689, 9941, 11213, 19937,
    21701, 23209,
)
# levels below its top at which a lazy tree checks a node of two or more
# variations for a repeated root, if half Mahler's separation has not come
# first: that bound alone is 13,000 levels down at degree 64 with 200-bit
# coefficients, and each level costs more than the check
_SEPARATION_DEPTH = 64


@dataclass(frozen=True)
class IntPolynomial:
    """Polynomial with arbitrary-precision integer coefficients.

    ``coeffs`` is ascending in degree with no trailing zeros; the zero
    polynomial is the empty tuple.
    """

    coeffs: tuple[int, ...]

    def __post_init__(self):
        if not {*map(type, self.coeffs)} <= {int}:
            object.__setattr__(self, "coeffs", tuple(map(_integer, self.coeffs)))
        if self.coeffs and self.coeffs[-1] == 0:
            raise InvalidInput("leading coefficient must be nonzero")

    @classmethod
    def _of(cls, ints: tuple[int, ...]) -> "IntPolynomial":
        # ``ints`` already ints with no trailing zero: built without the constructor's checks
        p = object.__new__(cls)
        object.__setattr__(p, "coeffs", ints)
        return p

    @classmethod
    def from_coeffs(cls, coeffs) -> "IntPolynomial":
        cs = list(map(_integer, coeffs))
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
        integers by :func:`_homogeneous` and divided by q^d once; any
        other argument is taken as x/1, which that loop evaluates by
        Horner's rule.
        """
        if isinstance(x, Fraction):
            q = x.denominator
            return Fraction(_homogeneous(self.coeffs, x.numerator, q), q ** max(self.degree, 0))
        return _homogeneous(self.coeffs, x, 1)

    def derivative(self) -> "IntPolynomial":
        return IntPolynomial.from_coeffs(
            i * c for i, c in enumerate(self.coeffs) if i > 0
        )


@dataclass(frozen=True)
class RootBracket:
    """Certified enclosure of a single positive root.

    ``poly`` has one root in (lo, hi].  Unless the root is ``exact``,
    ``poly`` is nonzero at both ends, of opposite signs, so the root is
    where it changes sign; :func:`refine` and :func:`sign_at_root` raise
    :class:`PreconditionViolated` on a bracket that breaks this.  Brackets
    from :func:`positive_roots` hold a simple root of a square-free
    ``poly``, proved by one sign variation.  :func:`refine` and
    :func:`sign_at_root` hand back brackets on the bisection tree of the
    one they start from, so those hold the same root alone; a sign
    proof's bracket carries, besides, the Descartes proof of each sign
    shown on it.  ``exact`` is set when the root is a known rational,
    which lies strictly inside (lo, hi) in every bracket from
    :func:`positive_roots`; :func:`refine` stops at a bisection midpoint
    that hits the root and keeps it as ``hi``.
    """

    lo: Fraction
    hi: Fraction
    poly: IntPolynomial
    exact: Fraction | None = None

    @property
    def midpoint(self) -> Fraction:
        return self.exact if self.exact is not None else (self.lo + self.hi) / 2

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    def as_float(self) -> float:
        return float(self.midpoint)


def _integer(c) -> int:
    # an integer coefficient as an int: ints, integral Fractions and numpy integers
    if isinstance(c, Rational) and c.denominator == 1:
        return int(c)
    raise InvalidInput(f"polynomial coefficient {c!r} is not an integer")


def _homogeneous(ints, p: int, q: int) -> int:
    # sum c_i p^i q^(d-i) for q > 0: q^d f(p/q), in integers; p/q need not
    # be in lowest terms, which scales the value by a positive factor only.
    # The points of the dyadic tree have q = 2^m: the powers are shifts
    acc = 0
    if q & (q - 1):
        qpow = 1
        for c in reversed(ints):
            acc = acc * p + c * qpow
            qpow *= q
        return acc
    m, shift = q.bit_length() - 1, 0
    for c in reversed(ints):
        acc = acc * p + (c << shift)
        shift += m
    return acc


def _sign(v: int) -> int:
    return (v > 0) - (v < 0)


def _content_free(ints: list[int]) -> tuple[int, ...]:
    # divide by the (positive) gcd of the coefficients; signs are kept
    g = 0
    for c in ints:
        g = gcd(g, c)
    g = g or 1
    return tuple(c // g for c in ints)


def _over_common(lo: Fraction, hi: Fraction) -> tuple[int, int, int]:
    # (a, b, d) with lo = a/d and hi = b/d
    d = lcm(lo.denominator, hi.denominator)
    return lo.numerator * (d // lo.denominator), hi.numerator * (d // hi.denominator), d


def bisections(
    p: IntPolynomial, a: int, b: int, d: int, below: Fraction | None = None
) -> Iterator[tuple[int, int, int, bool]]:
    """Certified bisection steps on (a/d, b/d], d > 0, one per item, without end.

    ``p`` is nonzero at a/d.  Each step halves the interval at (a + b)/2d
    and keeps the left half when p's sign there differs from its sign at
    a/d, else the right half, and yields the kept ends over the doubled
    denominator as (a, b, d), with True when the midpoint is a root of p
    (it is then the kept hi).  A midpoint at or past ``below`` keeps the
    left half unevaluated.  When p has one root in (a/d, b/d], and below
    ``below`` if given, across which it changes sign, every kept interval
    holds it.  The lo end moved exactly when the new a is not twice the
    one before.
    """
    return _bisections(p.coeffs, a, b, d, _homogeneous(p.coeffs, a, d) > 0, below)


def _bisections(cs, a: int, b: int, d: int, lo_positive: bool, below: Fraction | None = None):
    # bisections of the polynomial cs, whose sign at a/d is positive when lo_positive
    if below is not None:
        bn, bd = below.numerator, below.denominator
    while True:
        m, d = a + b, 2 * d
        if below is not None and m * bd >= bn * d:
            a, b, hit = 2 * a, m, False
        elif (v := _homogeneous(cs, m, d)) and (v > 0) == lo_positive:
            a, b, hit = m, 2 * b, False
        else:
            a, b, hit = 2 * a, m, not v
        yield a, b, d, hit


def refine(bracket: RootBracket, width: Fraction) -> RootBracket:
    """The bracket narrowed by bisection to ``width`` at most.

    Stops early when a midpoint is the root, which is then reported as
    ``exact``; brackets that are exact or narrow enough come back
    unchanged.  Raises :class:`PreconditionViolated` for a bracket that
    is not exact and across which its polynomial does not change sign.
    """
    walk = _Root(bracket.poly, *_over_common(bracket.lo, bracket.hi), bracket.exact)
    return walk.narrow(width).bracket()


def _interval_poly(cs: tuple[int, ...], a: int, b: int, d: int) -> list[int]:
    """P(y) = d^k p((a + (b - a) y) / d), ascending in y, for p of degree k.

    It maps y in (0, 1) onto (a/d, b/d): a Taylor shift of
    sum c_i d^(k-i) z^i by a, skipped at a = 0, then a scale by b - a.
    The powers d^(k-i) are shifts when d is a power of two, and running
    products, like (b - a)^i, otherwise: one multiplication per
    coefficient.
    """
    k = len(cs) - 1
    # d^k p((a + z)/d), ascending in z
    shifted = list(cs)
    if d & (d - 1):
        power = 1
        for i in range(k - 1, -1, -1):
            power *= d
            shifted[i] *= power
    elif d != 1:
        m = d.bit_length() - 1
        shifted = [c << (m * (k - i)) for i, c in enumerate(cs)]
    if a:
        for i in range(k):
            for j in range(k - 1, i - 1, -1):
                shifted[j] += a * shifted[j + 1]
    w = b - a
    if w != 1:
        power = 1
        for i in range(1, k + 1):
            power *= w
            shifted[i] *= power
    return shifted


def _variations(P: list[int], limit: int, hi_root: bool = False) -> int:
    """Sign variations of (1 + x)^k P(1/(1 + x)) for an interval polynomial P.

    y = 1/(1 + x) maps x in (0, inf) onto (0, 1), and the numerator is
    sum P_i (1 + x)^(k-i): P reversed, Taylor-shifted by 1, with additions
    only.  Its constant term is P(1), a positive multiple of p at the
    interval's hi, and its leading coefficient P(0), one of p at its lo.
    By Descartes' rule of signs the variations bound, and match in parity,
    its roots x > 0, which are p's roots in the open interval with their
    multiplicities.  A zero constant term (a root at hi) proves nothing
    and counts as ``limit`` + 1, as does every count past ``limit``, where
    the shift stops; with ``hi_root``, when the caller knows the root at
    hi, the term is divided out instead, and the count still bounds the
    roots in the open interval.  P is not changed.
    """
    k = len(P) - 1
    shifted = P[::-1]
    v, last = 0, 0
    for i in range(k + 1):
        for j in range(k - 1, i - 1, -1):
            shifted[j] += shifted[j + 1]
        c = shifted[i]  # final from here on
        if c:
            if last and (c < 0) != (last < 0):
                v += 1
                if v > limit:
                    break
            last = c
        elif not i and not hi_root:
            return limit + 1
    return v


def _shifted_variations(
    cs: tuple[int, ...], a: int, b: int, d: int, limit: int, hi_root: bool = False
) -> int:
    """Sign variations of the Descartes transform of ``cs`` on (a/d, b/d), for a < b, d > 0.

    :func:`_variations` of the interval polynomial built from ``cs``
    (:func:`_interval_poly`), for an interval that is not a node of the
    subdivision tree; :func:`_isolated` derives each node's polynomial
    from its parent's instead.
    """
    return _variations(_interval_poly(cs, a, b, d), limit, hi_root)


def _halved(P: list[int]) -> list[int]:
    """2^k P(y/2) over its largest power-of-two factor: the left half's polynomial.

    Coefficient i is shifted left by k - i bits; the common power of two
    is stripped, so only positive factors change.
    """
    k = len(P) - 1
    strip = min((c & -c).bit_length() - 1 + k - i for i, c in enumerate(P) if c)
    return [
        c << (k - i - strip) if k - i >= strip else c >> (strip - k + i) for i, c in enumerate(P)
    ]


def _shifted_by_one(P: list[int]) -> list[int]:
    """P(y + 1), ascending in y, by additions only: the right half's polynomial from the left's."""
    k = len(P) - 1
    out = list(P)
    for i in range(k):
        for j in range(k - 1, i - 1, -1):
            out[j] += out[j + 1]
    return out


def positive_up_to(p: IntPolynomial, a: int, d: int) -> bool:
    """True when Descartes' rule of signs proves p > 0 on [0, a/d], for a, d > 0.

    p(0) > 0 and no sign variation of the transform
    (:func:`_shifted_variations`): its constant term d^k p(s) is then
    positive and no coefficient negative, so p has no root in (0, s].
    False proves nothing.
    """
    return bool(p.coeffs) and p.coeffs[0] > 0 and _shifted_variations(p.coeffs, 0, a, d, 0) == 0


def one_root_up_to(p: IntPolynomial, a: int, d: int) -> bool:
    """True when Descartes' rule of signs proves p has one simple root in (0, a/d).

    p(0) nonzero and one sign variation of the transform
    (:func:`_shifted_variations`): p has exactly one root in (0, s),
    counted with multiplicity, so it is simple, p(s) is nonzero, and
    p(0) and p(s) have opposite signs (the transform's end coefficients
    are d^k p(0) and d^k p(s)).  False proves nothing.
    """
    return bool(p.coeffs) and p.coeffs[0] != 0 and _shifted_variations(p.coeffs, 0, a, d, 1) == 1


def root_bound(p: IntPolynomial) -> Fraction:
    """A power of two strictly above the magnitude of every root.

    Fujiwara's bound 2 max_i |c_{k-i}/c_k|^(1/i), read from bit lengths
    L: |c_{k-i}/c_k| < 2^(L(c_{k-i}) - L(c_k) + 1), so every root z has
    |z| < 2^(e + 1), where e is the largest
    ceil((L(c_{k-i}) - L(c_k) + 1)/i) over the nonzero c_{k-i}.  Only
    the roots of a monomial are all zero; its bound is 1.
    """
    if p.degree < 1:
        raise InvalidInput("bound requires degree >= 1")
    return Fraction(2) ** _bound_exponent(p.coeffs)


def _bound_exponent(cs: tuple[int, ...]) -> int:
    """The exponent of :func:`root_bound` for the coefficients ``cs``, of degree >= 1."""
    lead = cs[-1].bit_length()
    e = max(
        (-((lead - c.bit_length() - 1) // i) for i, c in enumerate(reversed(cs[:-1]), 1) if c),
        default=-1,
    )
    return e + 1


def _divisors(n: int) -> list[int]:
    out = []
    for d in range(1, isqrt(n) + 1):
        if n % d == 0:
            out.append(d)
            if d != n // d:
                out.append(n // d)
    return sorted(out)


def _divided(num, den: tuple[int, ...]) -> tuple[int, ...] | None:
    """num / den when den divides num over the integers, else None.

    For a primitive den, None proves by Gauss's lemma that den does not divide num over Q.
    """
    rem = list(num)
    out = [0] * (len(num) - len(den) + 1)
    for k in range(len(out) - 1, -1, -1):
        c, r = divmod(rem[k + len(den) - 1], den[-1])
        if r:
            return None
        out[k] = c
        for i, d in enumerate(den):
            rem[k + i] -= c * d
    return None if any(rem[: len(den) - 1]) else tuple(out)


def _gcd_mod(f, g, prime: int) -> list[int]:
    """The monic gcd of f and g modulo ``prime``, for leading coefficients nonzero modulo it."""
    f, g = [c % prime for c in f], [c % prime for c in g]
    while g:
        inv = pow(g[-1], -1, prime)
        g = [c * inv % prime for c in g]  # monic
        # f becomes its remainder by g
        while len(f) >= len(g):
            q, off = f[-1], len(f) - len(g)
            for i in range(len(g) - 1):
                f[off + i] = (f[off + i] - q * g[i]) % prime
            f.pop()
            while f and not f[-1]:
                f.pop()
        f, g = g, f
    return f


def _square_free(ints: tuple[int, ...]) -> IntPolynomial:
    """The primitive ``ints`` divided by gcd(p, p'): primitive, with p's leading sign.

    A repeated root counts more than once in Descartes' rule, so no
    interval around it shows one variation; the square-free part has the
    same distinct roots, each simple.  The gcd is taken modulo each prime
    of ``_MERSENNE_EXPONENTS`` in turn that does not divide lc(p) deg p.
    There the image of the primitive gcd G divides p and p', so the
    modular gcd has degree at least deg G, and a constant one proves p
    square-free.  Else |lc(p)| times it, lifted to symmetric residues and
    made primitive with a positive lead, is H; when H divides p and p'
    exactly (:func:`_divided`) it divides G and so is G, and p / H is
    returned.  A lift that fails (too small a prime, or roots that
    coincide modulo it) moves on to the next prime; past the last,
    :class:`SizeLimitExceeded`.
    """
    k, lead = len(ints) - 1, abs(ints[-1])
    derivative = [i * c for i, c in enumerate(ints) if i]
    for e in _MERSENNE_EXPONENTS:
        prime = (1 << e) - 1
        if not lead * k % prime:
            continue
        monic = _gcd_mod(ints, derivative, prime)
        if len(monic) == 1:
            return IntPolynomial(ints)
        lifted = [c - prime if 2 * c > prime else c for c in (lead * c % prime for c in monic)]
        content = gcd(*lifted) if lifted[-1] > 0 else -gcd(*lifted)
        H = tuple(c // content for c in lifted)
        quotient = _divided(ints, H)
        if quotient is not None and _divided(derivative, H) is not None:
            return IntPolynomial(quotient)
    bits = max(c.bit_length() for c in ints)
    raise SizeLimitExceeded(f"no prime lifts gcd(p, p') at degree {k}, {bits}-bit coefficients")


def _rational_root(ints, a: int, b: int, d: int, s_hi: int, nums: list[int], dens: list[int]):
    """The root num/den of ``ints`` in (a/d, b/d) with num in ``nums`` and den in ``dens``, or None.

    The interval holds one simple root, and b/d is not a root, so the sign
    at a candidate, against the sign ``s_hi`` at b/d, tells its side; for
    each den the sorted numerators in (a den/d, b den/d) are bisected by
    sign, which narrows the interval for the next den.  Its ends are kept
    as (numerator, denominator) pairs, whose signs are known.
    """
    lo, hi = (a, d), (b, d)
    for den in dens:
        i, j = bisect_right(nums, lo[0] * den // lo[1]), bisect_left(nums, -(-hi[0] * den // hi[1]))
        while i < j:
            k = (i + j) // 2
            s = _sign(_homogeneous(ints, nums[k], den))
            if s == 0:
                return Fraction(nums[k], den)
            if s == s_hi:
                hi, j = (nums[k], den), k
            else:
                lo, i = (nums[k], den), k + 1
    return None


class _Root:
    """One root of ``poly`` in (a/d, b/d], walked by sign on the dyadic tree.

    The ends are integer numerators a, b over one denominator d.  Unless
    the root is ``exact``, ``poly`` changes sign across them, and one
    bisection generator halves them towards it: :meth:`sign` and
    :meth:`narrow` step on along it from where the last call left the
    ends, so each sign proof holds on every later bracket and narrowing
    after proofs ends where narrowing alone would.  A
    midpoint that hits the root makes it ``exact``; an exact root is not
    walked, and :meth:`centre` puts it in the middle of a bracket that
    holds it alone.  With ``below``, the walk is :func:`bisections` below
    that bound, which holds the one root below it whatever the sign at
    b/d.  Otherwise ``signs``, poly's signs at the ends as the subdivision
    read them from a node's interval polynomial, spare their evaluation,
    and ends that are not exact and do not differ in sign raise
    :class:`PreconditionViolated`.
    """

    def __init__(self, poly, a, b, d, exact=None, below=None, signs=None):
        self.poly, self.a, self.b, self.d, self.exact = poly, a, b, d, exact
        if below is not None:
            self._steps = bisections(poly, a, b, d, below)
        elif exact is None:
            cs = poly.coeffs
            s_lo, s_hi = signs or (_sign(_homogeneous(cs, a, d)), _sign(_homogeneous(cs, b, d)))
            if s_lo * s_hi >= 0:
                raise PreconditionViolated(
                    "bracket polynomial does not change sign across "
                    f"({Fraction(a, d)}, {Fraction(b, d)})"
                )
            self._steps = _bisections(cs, a, b, d, s_lo > 0)

    def sign(self, q) -> int:
        """The sign of ``q`` (ascending integer coefficients) at the root, 0 if unproved.

        An exact root proves it by evaluation.  Otherwise a proof is the
        same nonzero sign at both ends and no sign variation of the
        Descartes transform on (a/d, b/d) (:func:`_shifted_variations`):
        q then has no root on the closed bracket.  While a test fails the
        walk steps on, and q is evaluated at the moved end only.  0 when
        the sign could not be separated from zero within
        ``_MAX_SIGN_REFINE`` steps on brackets at most ``_LOCATED_WIDTH``
        wide, which includes a root ``poly`` shares with ``q``.
        """
        if self.exact is not None:
            return _sign(_homogeneous(q, self.exact.numerator, self.exact.denominator))
        a, b, d = self.a, self.b, self.d
        s_lo, s_hi = _sign(_homogeneous(q, a, d)), _sign(_homogeneous(q, b, d))
        sign = 0
        wn, wd = _LOCATED_WIDTH.numerator, _LOCATED_WIDTH.denominator
        spent = 0
        while spent < _MAX_SIGN_REFINE:
            if s_lo == s_hi != 0 and _shifted_variations(q, a, b, d, 0) == 0:
                sign = s_lo
                break
            spent += (b - a) * wd <= wn * d
            prev_a = a
            a, b, d, hit = next(self._steps)
            if hit:
                self.exact = Fraction(b, d)
                sign = _sign(_homogeneous(q, b, d))
                break
            if a != 2 * prev_a:
                s_lo = _sign(_homogeneous(q, a, d))
            else:
                s_hi = _sign(_homogeneous(q, b, d))
        self.a, self.b, self.d = a, b, d
        return sign

    def narrow(self, width: Fraction) -> "_Root":
        """Step on to the first bracket at most ``width`` wide, or to a midpoint at the root."""
        wn, wd = width.numerator, width.denominator
        if self.exact is None and (self.b - self.a) * wd > wn * self.d:
            for a, b, d, hit in islice(self._steps, _MAX_BISECTIONS):
                if hit or (b - a) * wd <= wn * d:
                    break
            else:
                raise PreconditionViolated("root isolation did not converge")
            self.a, self.b, self.d = a, b, d
            if hit:
                self.exact = Fraction(b, d)
        return self

    def centre(self, width: Fraction) -> "_Root":
        """An exact root in the middle of a bracket that holds it alone.

        The half-width is min(width / 2, the root's offset in the cell that
        narrowing the ends to ``width`` ends in), which is min(width / 2,
        exact - lo) on ends no wider than ``width``.  It is halved until
        0 < lo, neither end is a root and one sign variation
        (:func:`_shifted_variations`) proves the centre the one root
        between them.  A root that is not exact stays where it is.
        """
        exact = self.exact
        if exact is None:
            return self
        lo, hi = Fraction(self.a, self.d), Fraction(self.b, self.d)
        step = (hi - lo) / 2 ** (ceil((hi - lo) / width) - 1).bit_length()
        delta = min(width / 2, (exact - lo) % step or step)
        cs = self.poly.coeffs
        while True:
            a, b, d = _over_common(exact - delta, exact + delta)
            # a root at hi fails the variation test itself
            if a > 0 and _homogeneous(cs, a, d) and _shifted_variations(cs, a, b, d, 1) == 1:
                self.a, self.b, self.d = a, b, d
                return self
            delta /= 2

    def bracket(self) -> RootBracket:
        """The walk's ends as a bracket: every sign proof so far holds on all of it."""
        lo, hi = Fraction(self.a, self.d), Fraction(self.b, self.d)
        return RootBracket(lo=lo, hi=hi, poly=self.poly, exact=self.exact)


def positive_roots(p: IntPolynomial, width: Fraction = DEFAULT_WIDTH) -> Iterator[RootBracket]:
    """Brackets for the distinct positive roots of ``p``, lazily, in increasing order.

    Works on the square-free part (:func:`_square_free`) of the primitive
    part of ``p`` with its roots at zero divided out.  A leftmost-first
    subdivision of (0, root_bound(p)] judges each interval by its sign
    variations (:func:`_variations` of the interval polynomial, derived
    from the parent's): none drops it, more than one halves it, and one proves one simple
    root in it, whose walk (:func:`_isolated`) :func:`bisections` narrows
    on the same tree until the bracket is at most ``width`` wide; isolate
    coarsely and :func:`refine` only the brackets that are used.  A
    midpoint that hits a root ends the interval to its left, which then
    holds that root and at most as many more as the variations with the
    root divided out.  Rational roots num/den, num dividing the constant
    and den the leading coefficient (both at most 1e9), are looked for
    once, on the first interval that holds the root alone; one found
    there, or a midpoint that hits a root, is reported as ``exact`` and
    centred at once in a bracket that holds no other root.  Each bracket
    lies right of the one before.

    Raises :class:`SizeLimitExceeded` when no prime of :func:`_square_free`
    lifts gcd(p, p'), which needs Mignotte's bound 2^k ||p||_2 past 2^23207
    at degree k; realize's closing polynomials at n <= 320 stay under
    2^19800, even for extreme double targets at the ladder's last scale.
    """
    for root in _isolated(p, width):
        if root.exact is None:
            root.narrow(width).centre(width)
        yield root.bracket()


class _RepeatedRoot(Exception):
    """A lazy :func:`_isolated` tree met a repeated root."""


def _separation_exponent(cs: tuple[int, ...]) -> int:
    """A t with 2^-t below the distance between any two distinct roots of square-free ``cs``.

    Mahler's bound for a square-free integer polynomial of degree k,
    sqrt(3 |disc|) k^(-(k+2)/2) ||p||_2^(1-k) with |disc| >= 1, read from
    bit lengths: log2 k < L(k), and ||p||_2 < sqrt(k + 1) 2^L for L the
    largest coefficient bit length.
    """
    k, L = len(cs) - 1, max(c.bit_length() for c in cs)
    return ((k + 2) * k.bit_length() + (k - 1) * (2 * L + (k + 1).bit_length())) // 2 + 1


def _isolated(
    p: IntPolynomial, width: Fraction, top: int | None = None, lazy: bool = False
) -> Iterator[_Root]:
    """The walks of :func:`positive_roots`, one per root, before narrowing.

    Each is the one-root interval as the subdivision found it, a node of
    the tree its walk steps down, with poly's signs at its ends read from
    the node's interval polynomial; an exact root is centred to ``width``
    first.  The consumer may step a walk on before it asks for the next,
    which then lies right of where this one ends.

    The tree's root is (0, 2^top], by default (0, root_bound(p)]; a lower
    top is a node of that tree, so every node below it keeps its interval
    and only the roots above 2^top go unseen.  Its hit flag, like every
    node's, is read from its interval polynomial.

    With ``lazy`` the tree runs on p's primitive part itself, not its
    square-free part, and the subdivision proves what it yields: one
    variation proves a simple root, and a rational root is looked for only
    on such a node.  It raises :class:`_RepeatedRoot` at a midpoint hit
    at which p' vanishes too, and at the first node of two or more
    variations narrower than half Mahler's root separation
    (:func:`_separation_exponent`), or than 2^-_SEPARATION_DEPTH of the
    top, unless p's square-free part (:func:`_square_free`) is p itself;
    then the subdivision goes on unchecked.  The separation only decides
    when to check: for a square-free p no such node exists, as the
    two-circle figure of an interval narrower than half the separation
    holds at most one root.
    """
    if p.is_zero:
        raise InvalidInput("cannot isolate roots of the zero polynomial")
    lowest = next(i for i, c in enumerate(p.coeffs) if c)  # roots at zero are not positive
    work = _content_free(p.coeffs[lowest:])
    if len(work) < 2:
        return
    poly = IntPolynomial._of(work) if lazy else _square_free(work)
    cs = poly.coeffs
    candidates = None  # sorted divisors of poly(0) and lead, on the first search
    # the tree's root is (0, 2^e], by default root_bound(p), in integers
    e = _bound_exponent(p.coeffs) if top is None else top
    b, d = (1 << e, 1) if e >= 0 else (1, 1 << -e)
    if lazy:
        derivative = [i * c for i, c in enumerate(cs) if i]
        # a node (a/d, b/d] is narrow enough to check once d reaches this
        deep = min(b << (_separation_exponent(cs) + 1), d << _SEPARATION_DEPTH)
    # (a, b, d, hit, P, right) for the interval (a/d, b/d]; hit: b/d is a
    # root; P: its interval polynomial up to a positive factor, or with
    # right the left sibling's, which is shifted by 1 once the node is taken
    P = _interval_poly(cs, 0, b, d)
    pending = [(0, b, d, sum(P) == 0, P, False)]
    fn, fd = 0, 1  # floor, the hi of the last walk; a centred one can reach past its node
    for _ in range(_MAX_BISECTIONS * len(work)):
        if not pending:
            return
        a, b, d, hit, P, right = pending.pop()
        if right:
            P = _shifted_by_one(P)
        # a bound on the roots in (a/d, b/d), capped at 2
        v = _variations(P, 1, hit)
        if v + hit == 1 and a * fd >= fn * d:
            exact, signs = Fraction(b, d) if hit else None, None
            if hit and lazy and not _homogeneous(derivative, b, d):
                raise _RepeatedRoot
            if exact is None:
                # P(0) and P(1) are positive multiples of poly at a/d and b/d
                signs = _sign(P[0]), _sign(sum(P))
                if candidates is None:
                    c0, lead = abs(cs[0]), abs(cs[-1])
                    small = c0 <= _RATROOT_COEFF_LIMIT and lead <= _RATROOT_COEFF_LIMIT
                    candidates = (_divisors(c0), _divisors(lead)) if small else ([], [])
                exact = _rational_root(cs, a, b, d, signs[1], *candidates)
            root = _Root(poly, a, b, d, exact, signs=signs).centre(width)
            yield root
            fn, fd = root.b, root.d
        elif v + hit:
            if lazy and v + hit > 1 and d >= deep:
                if len(_square_free(work).coeffs) < len(work):
                    raise _RepeatedRoot
                lazy = False  # p is square-free, so the subdivision terminates
            m, d = a + b, 2 * d
            left = _halved(P)
            # left(1) is P at the midpoint, up to a positive factor
            pending += [(m, 2 * b, d, hit, left, True), (2 * a, m, d, sum(left) == 0, left, False)]
    raise PreconditionViolated("root isolation did not converge")


def sign_at_root(q: IntPolynomial, bracket: RootBracket) -> tuple[int, RootBracket]:
    """Certified sign of ``q`` at the root enclosed by ``bracket``, with its proof bracket.

    Returns +1/-1 when provable, 0 when the sign could not be separated
    from zero within ``_MAX_SIGN_REFINE`` bisection steps of the bracket,
    counted once it is at most ``_LOCATED_WIDTH`` wide
    (including the case that the root of the bracket polynomial is also a
    root of ``q``).  The bracket polynomial's sign drives the bisection
    (:func:`bisections`), so the bracket handed back lies on the path that
    :func:`refine` takes from ``bracket`` and encloses the same root.  For
    a nonzero sign it is the proof: ``q`` has that sign at both ends and,
    by Descartes' rule of signs, no root between them, so the sign holds
    at every point of it, and a later :func:`refine` or ``sign_at_root``
    started from it stays inside.  A bracket whose root is ``exact``
    (given, or hit by a midpoint) proves the sign by evaluation there.
    For sign 0 it is where the search stopped.  Raises
    :class:`PreconditionViolated` for a bracket that is not exact and
    across which its polynomial does not change sign.
    """
    walk = _Root(bracket.poly, *_over_common(bracket.lo, bracket.hi), bracket.exact)
    return walk.sign(q.coeffs), walk.bracket()
