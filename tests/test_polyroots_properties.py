"""Property tests for positive_roots and the Descartes kernel, with sympy as the oracle.

Inputs are products of known factors: rational roots of multiplicity 1-3
(negative ones and roots at zero included), a pair of rational roots
within 2^-20 of each other, irreducible quadratics (possibly repeated),
and a common factor of up to 200 bits.  The integer-endpoint bisection
is checked step by step against a plain Fraction bisection by sign, and
below a bound against the walk the nilpotent certificate once wrote
inline; every root count claimed by the Descartes test against sympy's
count.  Each subdivision node's polynomial, derived from its parent's,
is checked against the one built from p, the dyadic root bound against
sympy's roots, and positive_roots against a copy of the tree that builds
every node's transform from p.
"""

from collections import Counter
from fractions import Fraction
from math import ceil, gcd, isqrt, lcm

import pytest

hypothesis = pytest.importorskip("hypothesis")
sympy = pytest.importorskip("sympy")
st = hypothesis.strategies

from sapcert import polyroots  # noqa: E402
from sapcert.errors import PreconditionViolated  # noqa: E402
from sapcert.polyroots import (  # noqa: E402
    DEFAULT_WIDTH,
    IntPolynomial,
    RootBracket,
    _content_free,
    _halved,
    _homogeneous,
    _interval_poly,
    _shifted_by_one,
    _shifted_variations,
    _square_free,
    _variations,
    bisections,
    one_root_up_to,
    positive_roots,
    positive_up_to,
    refine,
    root_bound,
    sign_at_root,
)

_LIMIT = 10**9  # end coefficients up to which rational roots are recognised
_X = sympy.Symbol("x")
_SETTINGS = hypothesis.settings(
    max_examples=100, deadline=None, derandomize=True, database=None
)


def _mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _linear(q: Fraction) -> tuple[int, int]:
    return (-q.numerator, q.denominator)  # den x - num, primitive


@st.composite
def factored(draw, zero_roots=True):
    """(coefficients, distinct primitive factors) of a product of known factors."""
    factors = Counter()
    for num, den, mult in draw(
        st.lists(st.tuples(st.integers(-12, 12), st.integers(1, 6), st.integers(1, 3)), max_size=4)
    ):
        if num:
            factors[_linear(Fraction(num, den))] += mult
    if draw(st.booleans()):
        q = Fraction(draw(st.integers(1, 12)), draw(st.integers(1, 6)))
        factors[_linear(q)] += 1
        factors[_linear(q + Fraction(1, 2 ** draw(st.integers(20, 24))))] += 1
    for b, c, mult in draw(
        st.lists(st.tuples(st.integers(-9, 9), st.integers(-9, 9), st.integers(1, 2)), max_size=2)
    ):
        disc = b * b - 4 * c
        if disc < 0 or isqrt(disc) ** 2 != disc:  # irreducible over the rationals
            factors[(c, b, 1)] += mult
    coeffs = [draw(st.sampled_from([1, -1, 3])) * draw(st.integers(1, 2**200))]
    for f, mult in factors.items():
        for _ in range(mult):
            coeffs = _mul(coeffs, list(f))
    if zero_roots:
        coeffs = [0] * draw(st.integers(0, 2)) + coeffs
    return coeffs, list(factors)


def _positive_roots_of(coeffs):
    """Distinct positive real roots, ascending, with their multiplicities (sympy)."""
    found = Counter(sympy.real_roots(sympy.Poly(coeffs[::-1], _X)))
    return sorted((r, m) for r, m in found.items() if r > 0)


def _rational(q: Fraction):
    return sympy.Rational(q.numerator, q.denominator)


def _count_roots(p, lo: Fraction, hi: Fraction) -> int:
    """Distinct roots of ``p`` in (lo, hi), counted by sympy; neither end may be a root."""
    assert p(lo) != 0 and p(hi) != 0
    return sympy.Poly(p.coeffs[::-1], _X).count_roots(_rational(lo), _rational(hi))


def _check_bracket(b, root, p, width):
    # a root at an end is reported as exact and centred, never left there
    assert _count_roots(p, b.lo, b.hi) == 1
    assert _count_roots(b.poly, b.lo, b.hi) == 1
    assert 0 < b.hi - b.lo <= width
    assert _rational(b.lo) < root <= _rational(b.hi)
    if b.exact is not None:
        assert b.lo < b.exact < b.hi and _rational(b.exact) == root


@_SETTINGS
@hypothesis.given(
    factored(),
    st.sampled_from([Fraction(1, 16), Fraction(1, 2**8), Fraction(1, 2**30), DEFAULT_WIDTH]),
)
def test_positive_roots_match_sympy(case, width):
    coeffs, factors = case
    p = IntPolynomial.from_coeffs(coeffs)
    brs = list(positive_roots(p, width))
    roots = _positive_roots_of(coeffs)
    assert len(brs) == len(roots)
    for b, (root, _) in zip(brs, roots):
        _check_bracket(b, root, p, width)
    for left, right in zip(brs, brs[1:]):
        assert left.hi <= right.lo
    rational = [Fraction(-f[0], f[1]) for f in factors if len(f) == 2 and -f[0] * f[1] > 0]
    exact = [b.exact for b in brs if b.exact is not None]
    assert set(exact) <= set(rational)
    lead = c0 = 1
    for f in factors:  # the primitive square-free part is their product
        lead, c0 = lead * abs(f[-1]), c0 * abs(f[0])
    if lead <= _LIMIT and c0 <= _LIMIT:
        assert exact == sorted(rational)


@_SETTINGS
@hypothesis.given(factored(zero_roots=False))
def test_min_positive_root_is_the_first_bracket_or_a_typed_error(case):
    coeffs, _ = case
    if coeffs[0] < 0:
        coeffs = [-c for c in coeffs]
    p = IntPolynomial.from_coeffs(coeffs)
    roots = _positive_roots_of(coeffs)
    b = next(positive_roots(p), None)
    if not roots:
        assert b is None
        return
    root, mult = roots[0]
    _check_bracket(b, root, p, DEFAULT_WIDTH)
    assert _count_roots(p, Fraction(0), b.lo) == 0
    # on p itself, not its square-free part, the bracket shows a sign
    # change exactly when the root's multiplicity is odd
    on_p = RootBracket(lo=b.lo, hi=b.hi, poly=p)
    if mult % 2 == 0:
        with pytest.raises(PreconditionViolated, match="does not change sign"):
            refine(on_p, DEFAULT_WIDTH)
        return
    assert p(b.lo) * p(b.hi) < 0 and refine(on_p, DEFAULT_WIDTH) == on_p


def _ref_value(coeffs, x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _ref_sign(coeffs, x: Fraction) -> int:
    v = _ref_value(coeffs, x)
    return (v > 0) - (v < 0)


def _ref_bisections(coeffs, lo: Fraction, hi: Fraction):
    """(lo, hi, hit) per step of bisection by sign, with every point a normalised Fraction."""
    s_lo = _ref_sign(coeffs, lo)
    while True:
        mid = (lo + hi) / 2
        s_mid = _ref_sign(coeffs, mid)
        if s_mid == s_lo:
            lo, hit = mid, False
        else:
            hi, hit = mid, s_mid == 0
        yield lo, hi, hit


def _ref_refine(coeffs, lo, hi, width):
    for lo, hi, hit in _ref_bisections(coeffs, lo, hi):
        if hit or hi - lo <= width:
            return lo, hi, hi if hit else None


def _ref_sign_at_root(q, coeffs, lo, hi):
    """(sign, lo, hi, exact) as sign_at_root finds them, with sympy's count for Descartes' test."""
    steps = _ref_bisections(coeffs, lo, hi)
    for _ in range(200):
        s_lo, s_hi = _ref_sign(q.coeffs, lo), _ref_sign(q.coeffs, hi)
        if s_lo == s_hi != 0 and _count_roots(q, lo, hi) == 0:
            return s_lo, lo, hi, None
        lo, hi, hit = next(steps)
        if hit:
            return _ref_sign(q.coeffs, hi), lo, hi, hi
    return 0, lo, hi, None


@_SETTINGS
@hypothesis.given(factored(zero_roots=False), st.integers(1, 2**12), st.integers(0, 12))
def test_descartes_root_free_claims_hold(case, a, k):
    coeffs, _ = case
    p = IntPolynomial.from_coeffs(coeffs)
    s = Fraction(a, 2**k)
    proved = positive_up_to(p, a, 2**k)
    hypothesis.event(f"(0, s] proved root-free: {proved}")
    if proved:
        assert p(s) > 0
        assert _count_roots(p, Fraction(0), s) == 0


@_SETTINGS
@hypothesis.given(factored(zero_roots=False), st.integers(1, 2**12), st.integers(0, 12))
def test_descartes_one_root_claims_hold(case, a, k):
    coeffs, _ = case
    p = IntPolynomial.from_coeffs(coeffs)
    s = Fraction(a, 2**k)
    proved = one_root_up_to(p, a, 2**k)
    hypothesis.event(f"one root in (0, s] proved: {proved}")
    if proved:
        assert p(0) * p(s) < 0
        assert _count_roots(p, Fraction(0), s) == 1
        # counted with multiplicity: the root is simple
        inside = [m for root, m in _positive_roots_of(coeffs) if root <= _rational(s)]
        assert inside == [1]


_coeff = st.integers(-(10**6), 10**6)


@st.composite
def int_poly(draw):
    coeffs = draw(st.lists(_coeff, min_size=2, max_size=9))
    coeffs[-1] = coeffs[-1] or draw(st.integers(1, 10**6))
    return IntPolynomial.from_coeffs(coeffs)


@st.composite
def non_dyadic_interval(draw, p):
    """(0, root_bound(p)], or random ends whose denominators need not be powers of two."""
    if draw(st.booleans()):
        return Fraction(0), root_bound(p)
    lo = Fraction(draw(st.integers(-(10**4), 10**4)), draw(st.integers(1, 999)))
    return lo, lo + Fraction(draw(st.integers(1, 10**4)), draw(st.integers(1, 999)))


@_SETTINGS
@hypothesis.given(st.data())
def test_integer_bisection_tree_equals_the_fraction_reference(data):
    p = data.draw(int_poly())
    lo, hi = data.draw(non_dyadic_interval(p))
    if p.degree < 8 and data.draw(st.booleans()):
        # a root at a point of the bisection tree, which a step can hit
        k = data.draw(st.integers(1, 6))
        x = lo + (hi - lo) * Fraction(data.draw(st.integers(0, 2 ** (k - 1) - 1)) * 2 + 1, 2**k)
        p = IntPolynomial.from_coeffs(_mul(list(p.coeffs), [-x.numerator, x.denominator]))
    bracket = RootBracket(lo=lo, hi=hi, poly=p)
    width = data.draw(st.sampled_from([Fraction(1, 2**20), Fraction(1, 10**6), Fraction(3, 7**9)]))
    q = data.draw(int_poly())
    if _ref_sign(p.coeffs, lo) * _ref_sign(p.coeffs, hi) >= 0:
        hypothesis.event("no sign change across the bracket")
        # no sign to follow: a typed error, whatever the width or q
        with pytest.raises(PreconditionViolated, match="does not change sign"):
            refine(bracket, width)
        with pytest.raises(PreconditionViolated, match="does not change sign"):
            sign_at_root(q, bracket)
        return
    ref = _ref_bisections(p.coeffs, lo, hi)
    d = lo.denominator * hi.denominator  # a common denominator, not always the least
    steps = bisections(p, lo.numerator * hi.denominator, hi.numerator * lo.denominator, d)
    for _ in range(60):
        a, b, d, hit = next(steps)
        assert (Fraction(a, d), Fraction(b, d), hit) == next(ref)

    got = refine(bracket, width)
    want = (lo, hi, None) if hi - lo <= width else _ref_refine(p.coeffs, lo, hi, width)
    assert (got.lo, got.hi, got.exact) == want

    # Descartes' test proves no more than an exact count of q's roots, so
    # the proof ends on the reference's path, at its bracket or deeper inside
    sign, proof = sign_at_root(q, bracket)
    ref_sign, ref_lo, ref_hi, ref_exact = _ref_sign_at_root(q, p.coeffs, lo, hi)
    assert sign == ref_sign
    assert ref_lo <= proof.lo < proof.hi <= ref_hi
    assert _on_path(p.coeffs, lo, hi, proof)
    deeper = (proof.lo, proof.hi) != (ref_lo, ref_hi)
    hypothesis.event(f"proof deeper than the exact-count reference: {deeper}")
    if sign and proof.exact is None:
        # q has the sign at both ends and, by an independent count, no root between
        assert _ref_sign(q.coeffs, proof.lo) == _ref_sign(q.coeffs, proof.hi) == sign
        assert _count_roots(q, proof.lo, proof.hi) == 0
    elif sign:
        # a midpoint hit the root, at or past the reference's stop
        assert proof.exact == proof.hi and _ref_sign(q.coeffs, proof.exact) == sign
    if ref_exact is not None:
        assert (proof.lo, proof.hi, proof.exact) == (ref_lo, ref_hi, ref_exact)


def _on_path(coeffs, lo, hi, bracket) -> bool:
    """True when ``bracket`` is (lo, hi] or a node of the reference bisection from it."""
    node = (lo, hi, None)
    steps = _ref_bisections(coeffs, lo, hi)
    for _ in range(400):
        if (bracket.lo, bracket.hi, bracket.exact) == node:
            return True
        if node[2] is not None:
            return False
        step_lo, step_hi, hit = next(steps)
        node = (step_lo, step_hi, step_hi if hit else None)
    return False


def _old_shifted_variations(cs, a, d, limit):
    """The (0, a/d] kernel as it stood before it took a lower end: the reference at lo = 0."""
    k = len(cs) - 1
    shifted = [cs[k - j] * a ** (k - j) * d**j for j in range(k + 1)]
    v, last = 0, 0
    for i in range(k + 1):
        for j in range(k - 1, i - 1, -1):
            shifted[j] += shifted[j + 1]
        c = shifted[i]
        if c:
            if last and (c < 0) != (last < 0):
                v += 1
                if v > limit:
                    break
            last = c
        elif not i:
            return limit + 1
    return v


@_SETTINGS
@hypothesis.given(
    int_poly(),
    st.one_of(st.just(0), st.integers(-(10**3), 10**3)),
    st.integers(1, 10**3),
    st.one_of(st.integers(1, 999), st.integers(0, 20).map(lambda k: 2**k)),
)
def test_descartes_variations_bound_the_roots_on_any_interval(p, a, width, d):
    b = a + width
    lo, hi = Fraction(a, d), Fraction(b, d)
    k = p.degree
    v = _shifted_variations(p.coeffs, a, b, d, k)
    for limit in (0, 1):
        assert _shifted_variations(p.coeffs, a, b, d, limit) == min(v, limit + 1)
    if a == 0:
        for limit in (0, 1, k):
            assert _shifted_variations(p.coeffs, a, b, d, limit) == _old_shifted_variations(
                p.coeffs, b, d, limit
            )
    if p(hi) == 0:
        assert v == k + 1
        return
    if p(lo) != 0:
        count = _count_roots(p, lo, hi)
        assert v >= count
        poly = sympy.Poly(p.coeffs[::-1], _X)
        if poly.gcd(poly.diff(_X)).degree() == 0:  # square-free: distinct roots are all the roots
            assert v % 2 == count % 2
        # v = 0: no root on the open interval by the independent count
        assert v or count == 0
    hypothesis.event(f"variations {min(v, 3)}; lo {'< 0' if a < 0 else '= 0' if a == 0 else '> 0'}")


@_SETTINGS
@hypothesis.given(
    int_poly(),
    st.integers(-(10**3), 10**3),
    st.integers(1, 10**3),
    st.one_of(st.integers(1, 999), st.integers(0, 20).map(lambda k: 2**k)),
)
def test_a_root_at_hi_divides_out_of_the_variations(p, a, width, d):
    # the transform is multiplicative, and that of d t - b on (a/d, b/d) is
    # -(b - a) x, so with the root at hi divided out the variations of
    # p (d t - b) are those of p
    b = a + width
    hypothesis.assume(p(Fraction(b, d)) != 0)
    with_root = _mul(list(p.coeffs), [-b, d])
    k = len(with_root) - 1
    assert _shifted_variations(tuple(with_root), a, b, d, k) == k + 1
    assert _shifted_variations(tuple(with_root), a, b, d, k, True) == _shifted_variations(
        p.coeffs, a, b, d, k
    )


def _ref_walk_below(cs, a, b, d, bn, bd):
    """The nilpotent certificate's inline walk before it used bisections, for p(a/d) > 0.

    A midpoint at or past bn/bd, or where p <= 0, keeps the left half
    unevaluated; any other keeps the right half.  Yields (a, b, d, hit),
    hit when p is zero at an evaluated midpoint.
    """
    while True:
        m, d = a + b, 2 * d
        capped = m * bd >= bn * d
        v = None if capped else _homogeneous(cs, m, d)
        if capped or v <= 0:
            a, b = 2 * a, m
        else:
            a, b = m, 2 * b
        yield a, b, d, v == 0


@_SETTINGS
@hypothesis.given(
    int_poly(), st.integers(-50, 50), st.integers(1, 50), st.integers(1, 20), st.data()
)
def test_bisections_below_a_bound_step_as_the_inline_walk(p, a, width, d, data):
    s_lo = (_homogeneous(p.coeffs, a, d) > 0) - (_homogeneous(p.coeffs, a, d) < 0)
    hypothesis.assume(s_lo != 0)
    lo, hi = Fraction(a, d), Fraction(a + width, d)
    # any bound, or a point of the bisection tree, which a midpoint meets
    k = data.draw(st.integers(1, 8))
    tree = lo + (hi - lo) * Fraction(data.draw(st.integers(1, 2**k - 1)), 2**k)
    anywhere = st.fractions(-10, 10, max_denominator=99)
    below = data.draw(st.sampled_from([tree, tree - Fraction(1, 10**6)]) | anywhere)
    # the inline walk assumed p > 0 at the lo end; -p takes the same steps
    ref_cs = tuple(s_lo * c for c in p.coeffs)
    steps = bisections(p, a, a + width, d, below=below)
    ref = _ref_walk_below(ref_cs, a, a + width, d, below.numerator, below.denominator)
    for _ in range(40):
        assert next(steps) == next(ref)


def _positive_remainder(num, den):
    # a positive multiple of the remainder of num by den: each elimination
    # step scales the running remainder by a positive integer
    rem = list(num)
    lead_abs, lead_sign = abs(den[-1]), (den[-1] > 0) - (den[-1] < 0)
    while len(rem) >= len(den):
        g = gcd(lead_abs, rem[-1])
        scale, k = lead_abs // g, lead_sign * (rem[-1] // g)
        off = len(rem) - len(den)
        rem = [c * scale for c in rem]
        for i, c in enumerate(den):
            rem[i + off] -= k * c
        rem.pop()
        while rem and rem[-1] == 0:
            rem.pop()
    return rem


def _ref_square_free(ints):
    """The primitive ints over gcd(p, p') by the primitive remainder sequence, of p's leading sign."""
    num, den = ints, tuple(i * c for i, c in enumerate(ints) if i)
    while rem := _positive_remainder(num, den):
        num, den = den, _content_free(rem)
    g = _content_free(den)
    if len(g) > 1:
        # exact long division by the primitive factor g (Gauss's lemma)
        rem, out = list(ints), [0] * (len(ints) - len(g) + 1)
        for k in range(len(out) - 1, -1, -1):
            out[k] = rem[k + len(g) - 1] // g[-1]
            for i, c in enumerate(g):
                rem[k + i] -= out[k] * c
        assert not any(rem)
        ints = out if (out[-1] > 0) == (ints[-1] > 0) else [-c for c in out]
    return IntPolynomial(tuple(ints))


@_SETTINGS
@hypothesis.given(
    st.one_of(
        factored(zero_roots=False).map(lambda case: case[0]),
        int_poly().map(lambda p: list(p.coeffs)),
    ).filter(lambda coeffs: len(coeffs) > 1)
)
def test_square_free_equals_the_remainder_sequence(coeffs):
    # the modular gcd, checked by exact division, gives the primitive
    # remainder sequence's square-free part with p's leading sign, and
    # agrees with sympy's
    ints = _content_free(coeffs)
    got = _square_free(ints)
    assert got == _ref_square_free(ints)
    want = sympy.Poly(ints[::-1], _X).sqf_part()
    assert sympy.Poly(got.coeffs[::-1], _X) in (want, -want)
    repeated = len(got.coeffs) < len(ints)
    hypothesis.event("repeated factor" if repeated else "square-free")


@st.composite
def tree_node(draw):
    """(p, a, b, d, path): a node of the subdivision tree of p on (0, root_bound(p)].

    p is square-free and primitive, as isolation makes it.  The path
    (True: right half) is random, or steers at a dyadic root multiplied
    into p, which then becomes a node's hi and, one step right of that
    node, a node's lo.
    """
    coeffs = list(draw(int_poly()).coeffs)
    root = None
    if draw(st.booleans()):
        root = Fraction(draw(st.integers(1, 2**8)), 2 ** draw(st.integers(0, 6)))
        coeffs = _mul(coeffs, list(_linear(root)))
    p = _square_free(_content_free(coeffs))
    bound = root_bound(p)
    a, b, d = 0, bound.numerator, bound.denominator
    path = []
    for _ in range(draw(st.integers(0, 14))):
        if root is not None and Fraction(a, d) < root <= Fraction(b, d):
            right = Fraction(a + b, 2 * d) < root
        else:
            right = draw(st.booleans())
        path.append(right)
        m, d = a + b, 2 * d
        a, b = (m, 2 * b) if right else (2 * a, m)
    return p, a, b, d, path


@_SETTINGS
@hypothesis.given(tree_node())
def test_a_node_polynomial_from_its_parent_counts_as_the_kernel_from_scratch(node):
    p, a, b, d, path = node
    bound = root_bound(p)
    P = _interval_poly(p.coeffs, 0, bound.numerator, bound.denominator)
    for right in path:
        left = _halved(P)
        P = _shifted_by_one(left) if right else left
    # a positive multiple of the interval polynomial built from p
    fresh = _interval_poly(p.coeffs, a, b, d)
    j = next(i for i, c in enumerate(fresh) if c)
    assert (P[j] > 0) == (fresh[j] > 0)
    assert all(x * fresh[j] == y * P[j] for x, y in zip(P, fresh))
    hit = _homogeneous(p.coeffs, b, d) == 0
    for limit in (0, 1, 2, p.degree):
        assert _variations(P, limit, hit) == _shifted_variations(p.coeffs, a, b, d, limit, hit)
    hypothesis.event(f"hi is a root: {hit}; lo is a root: {_homogeneous(p.coeffs, a, d) == 0}")


def _magnitudes(coeffs):
    """The magnitudes of the nonzero roots of ``coeffs`` to 40 digits (sympy's nroots)."""
    lowest = next(i for i, c in enumerate(coeffs) if c)
    if len(coeffs) - lowest < 2:
        return []
    roots = sympy.Poly(coeffs[lowest:][::-1], _X).nroots(n=40, maxsteps=400)
    return [sympy.Abs(z) for z in roots]


@_SETTINGS
@hypothesis.given(
    st.lists(
        st.one_of(
            st.integers(-(10**6), 10**6),
            st.integers(-(2**200), 2**200),
            st.sampled_from([0, 1, -1]),
        ),
        min_size=2,
        max_size=6,
    ),
    st.integers(0, 3),
)
# 2x^3 - 3x^2 - 3x - 3 has a root near 2.39: every ratio |c_{k-i}/c_k| is
# 3/2, just under 2^(L(3) - L(2) + 1), so the bound needs that extra bit
@hypothesis.example([-3, -3, -3, 2], 0)
def test_root_bound_is_a_power_of_two_above_every_root(coeffs, zeros):
    coeffs[-1] = coeffs[-1] or 1
    # times x^m: roots at zero, and a monomial when the rest is zero
    p = IntPolynomial.from_coeffs([0] * zeros + coeffs)
    bound = root_bound(p)
    exponent = (bound.numerator if bound >= 1 else bound.denominator).bit_length() - 1
    assert bound == Fraction(2) ** (exponent if bound >= 1 else -exponent)
    B = _rational(bound)
    poly = sympy.Poly(p.coeffs[::-1], _X)
    # exactly for the real roots: none at or past +-B
    assert poly.eval(B) != 0 and poly.eval(-B) != 0
    assert poly.count_roots(-B, B) == poly.count_roots()
    assert all(m < B for m in _magnitudes(p.coeffs))
    hypothesis.event(f"bound 2^{exponent if bound >= 1 else -exponent}")


def _ref_centred(coeffs, lo, hi, exact, width):
    """The bracket positive_roots centres the root ``exact`` of (lo, hi] in: the reference's copy.

    The half-width is min(width / 2, exact's offset in the cell that
    bisecting (lo, hi] to ``width`` ends in), halved until 0 < lo, neither
    end is a root and one sign variation proves one root between them.
    """
    step = (hi - lo) / 2 ** (ceil((hi - lo) / width) - 1).bit_length()
    delta = min(width / 2, (exact - lo) % step or step)
    while True:
        lo, hi = exact - delta, exact + delta
        d = lcm(lo.denominator, hi.denominator)
        a, b = lo.numerator * (d // lo.denominator), hi.numerator * (d // hi.denominator)
        if lo > 0 and _ref_sign(coeffs, lo) and _shifted_variations(coeffs, a, b, d, 1) == 1:
            return lo, hi
        delta /= 2


def _step1_positive_roots(p, width):
    """positive_roots with every node's variations taken from p itself: the reference.

    The same tree on (0, root_bound(p)], each node judged by
    _shifted_variations(cs, a, b, d, 1, hit) and the midpoint hit found by
    evaluating p there; a one-root node is narrowed by plain Fraction
    bisection (_ref_refine) and an exact root centred by _ref_centred.
    """
    lowest = next(i for i, c in enumerate(p.coeffs) if c)
    work = _content_free(p.coeffs[lowest:])
    if len(work) < 2:
        return
    poly = _square_free(work)
    cs = poly.coeffs
    c0, lead = abs(cs[0]), abs(cs[-1])
    small = c0 <= polyroots._RATROOT_COEFF_LIMIT and lead <= polyroots._RATROOT_COEFF_LIMIT
    candidates = (polyroots._divisors(c0), polyroots._divisors(lead)) if small else ([], [])
    bound = root_bound(p)
    pending = [(0, bound.numerator, bound.denominator, False)]
    floor = Fraction(0)
    while pending:
        a, b, d, hit = pending.pop()
        v = _shifted_variations(cs, a, b, d, 1, hit)
        lo, hi = Fraction(a, d), Fraction(b, d)
        if v + hit == 1 and lo >= floor:
            exact = hi if hit else polyroots._rational_root(
                cs, a, b, d, _ref_sign(cs, hi), *candidates
            )
            if exact is None and hi - lo > width:
                lo, hi, exact = _ref_refine(cs, lo, hi, width)
            if exact is not None:
                lo, hi = _ref_centred(cs, lo, hi, exact, width)
            floor = hi
            yield lo, hi, exact
        elif v + hit:
            m, d = a + b, 2 * d
            pending += [(m, 2 * b, d, hit), (2 * a, m, d, _homogeneous(cs, m, d) == 0)]


@_SETTINGS
@hypothesis.given(
    st.one_of(factored().map(lambda case: case[0]), int_poly().map(lambda p: list(p.coeffs))),
    st.sampled_from([Fraction(1, 16), Fraction(1, 2**30), DEFAULT_WIDTH]),
)
def test_positive_roots_yield_the_brackets_of_the_from_scratch_tree(coeffs, width):
    p = IntPolynomial.from_coeffs(coeffs)
    hypothesis.assume(not p.is_zero)
    got = [(b.lo, b.hi, b.exact) for b in positive_roots(p, width)]
    assert got == list(_step1_positive_roots(p, width))
    hypothesis.event(f"brackets: {min(len(got), 3)}")


@_SETTINGS
@hypothesis.given(
    st.one_of(factored().map(lambda case: case[0]), int_poly().map(lambda p: list(p.coeffs))),
    int_poly(),
    st.sampled_from([Fraction(1, 16), Fraction(1, 2**30), DEFAULT_WIDTH]),
    st.data(),
)
def test_a_walk_stepped_on_after_a_sign_proof_ends_where_a_restarted_one_does(
    coeffs, q, width, data
):
    # sign then narrow on one walk equals refine from sign_at_root's proof bracket
    p = IntPolynomial.from_coeffs(coeffs)
    hypothesis.assume(not p.is_zero)
    roots = list(polyroots._isolated(p, width))
    hypothesis.assume(roots)
    root = data.draw(st.sampled_from(roots))
    bracket = root.bracket()
    sign = root.sign(q.coeffs)
    want_sign, proof = sign_at_root(q, bracket)
    assert sign == want_sign and root.bracket() == proof
    got = root.narrow(width).bracket()
    assert got == refine(proof, width)
    hypothesis.event(f"exact: {bracket.exact is not None}; sign {sign}; moved: {got != bracket}")
