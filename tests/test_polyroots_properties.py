"""Property tests for positive_roots and min_positive_root, with sympy as the oracle.

Inputs are products of known factors: rational roots of multiplicity 1-3
(negative ones and roots at zero included), a pair of rational roots
within 2^-20 of each other, irreducible quadratics (possibly repeated),
and a common factor of up to 200 bits.  The integer-endpoint bisection
is checked step by step against a plain Fraction bisection, and every
root-free claim of the Descartes test against the Sturm count.
"""

from collections import Counter
from fractions import Fraction
from math import isqrt

import pytest

hypothesis = pytest.importorskip("hypothesis")
sympy = pytest.importorskip("sympy")
st = hypothesis.strategies

from sapcert.errors import NoPositiveRoot, PreconditionViolated  # noqa: E402
from sapcert.polyroots import (  # noqa: E402
    DEFAULT_WIDTH,
    IntPolynomial,
    RootBracket,
    _shifted_variations,
    bisections,
    cauchy_bound,
    count_roots,
    min_positive_root,
    one_root_up_to,
    positive_roots,
    positive_up_to,
    refine,
    sign_at_root,
    sturm_chain,
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


def _check_bracket(b, root, chain, width):
    assert count_roots(chain, b.lo, b.hi) == 1
    assert count_roots(b.sturm(), b.lo, b.hi) == 1
    assert 0 < b.hi - b.lo <= width
    assert _rational(b.lo) < root <= _rational(b.hi)
    # a root at an end is reported as exact and centred, never left there
    assert b.poly(b.lo) != 0 and b.poly(b.hi) != 0
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
    chain = sturm_chain(p)
    for b, (root, _) in zip(brs, roots):
        _check_bracket(b, root, chain, width)
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
    if p.degree < 1 or not roots:
        with pytest.raises(NoPositiveRoot):
            min_positive_root(p)
        return
    root, mult = roots[0]
    if mult % 2 == 0:
        with pytest.raises(PreconditionViolated, match="even multiplicity"):
            min_positive_root(p)
        return
    value, b = min_positive_root(p)
    first = next(positive_roots(p))
    assert (b.lo, b.hi, b.exact) == (first.lo, first.hi, first.exact)
    chain = sturm_chain(p)
    _check_bracket(b, root, chain, DEFAULT_WIDTH)
    assert p(b.lo) * p(b.hi) < 0
    assert count_roots(chain, Fraction(0), b.lo) == 0
    assert value == float(b.midpoint)


def _ref_value(coeffs, x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _ref_sign(coeffs, x: Fraction) -> int:
    v = _ref_value(coeffs, x)
    return (v > 0) - (v < 0)


def _ref_variations(chain, x: Fraction) -> int:
    signs = [s for s in (_ref_sign(f, x) for f in chain) if s]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def _ref_bisections(chain, lo: Fraction, hi: Fraction):
    """(lo, hi, hit) per step, with every point a normalised Fraction."""
    v_lo = _ref_variations(chain, lo)
    while True:
        mid = (lo + hi) / 2
        v_mid = _ref_variations(chain, mid)
        if v_lo - v_mid >= 1:
            hi, hit = mid, _ref_sign(chain[0], mid) == 0
        else:
            lo, v_lo, hit = mid, v_mid, False
        yield lo, hi, hit


def _ref_refine(chain, lo, hi, width):
    for lo, hi, hit in _ref_bisections(chain, lo, hi):
        if hit or hi - lo <= width:
            return lo, hi, hi if hit else None


def _ref_sign_at_root(q, chain, lo, hi):
    """(sign, lo, hi, exact) as sign_at_root finds them, evaluating both ends every step."""
    steps, q_chain = _ref_bisections(chain, lo, hi), sturm_chain(q)
    for _ in range(200):
        s_lo, s_hi = _ref_sign(q.coeffs, lo), _ref_sign(q.coeffs, hi)
        if s_lo == s_hi != 0 and _ref_variations(q_chain, lo) == _ref_variations(q_chain, hi):
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
        assert count_roots(sturm_chain(p), Fraction(0), s) == 0
        assert p(s) > 0


@_SETTINGS
@hypothesis.given(factored(zero_roots=False), st.integers(1, 2**12), st.integers(0, 12))
def test_descartes_one_root_claims_hold(case, a, k):
    coeffs, _ = case
    p = IntPolynomial.from_coeffs(coeffs)
    s = Fraction(a, 2**k)
    proved = one_root_up_to(p, a, 2**k)
    hypothesis.event(f"one root in (0, s] proved: {proved}")
    if proved:
        assert count_roots(sturm_chain(p), Fraction(0), s) == 1
        assert p(0) * p(s) < 0
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
    """(0, cauchy_bound(p)], or random ends whose denominators need not be powers of two."""
    if draw(st.booleans()):
        return Fraction(0), cauchy_bound(p)
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
    chain = sturm_chain(p)
    ref = _ref_bisections(chain, lo, hi)
    d = lo.denominator * hi.denominator  # a common denominator, not always the least
    steps = bisections(chain, lo.numerator * hi.denominator, hi.numerator * lo.denominator, d)
    for _ in range(60):
        a, b, d, hit = next(steps)
        assert (Fraction(a, d), Fraction(b, d), hit) == next(ref)

    bracket = RootBracket(lo=lo, hi=hi, poly=p)
    width = data.draw(st.sampled_from([Fraction(1, 2**20), Fraction(1, 10**6), Fraction(3, 7**9)]))
    got = refine(bracket, width)
    want = (lo, hi, None) if hi - lo <= width else _ref_refine(chain, lo, hi, width)
    assert (got.lo, got.hi, got.exact) == want

    # Descartes' test proves no more than the Sturm count of q, so the
    # proof ends on the reference's path, at its bracket or deeper inside
    q = data.draw(int_poly())
    sign, proof = sign_at_root(q, bracket)
    ref_sign, ref_lo, ref_hi, ref_exact = _ref_sign_at_root(q, chain, lo, hi)
    assert sign == ref_sign
    assert ref_lo <= proof.lo < proof.hi <= ref_hi
    assert _on_path(chain, lo, hi, proof)
    deeper = (proof.lo, proof.hi) != (ref_lo, ref_hi)
    hypothesis.event(f"proof deeper than the Sturm reference: {deeper}")
    if sign and proof.exact is None:
        # q has the sign at both ends and, by an independent count, no root between
        q_chain = sturm_chain(q)
        assert _ref_sign(q.coeffs, proof.lo) == _ref_sign(q.coeffs, proof.hi) == sign
        assert _ref_variations(q_chain, proof.lo) == _ref_variations(q_chain, proof.hi)
    elif sign:
        # a midpoint hit the root, at or past the reference's stop
        assert proof.exact == proof.hi and _ref_sign(q.coeffs, proof.exact) == sign
    if ref_exact is not None:
        assert (proof.lo, proof.hi, proof.exact) == (ref_lo, ref_hi, ref_exact)


def _on_path(chain, lo, hi, bracket) -> bool:
    """True when ``bracket`` is (lo, hi] or a node of the reference bisection from it."""
    node = (lo, hi, None)
    steps = _ref_bisections(chain, lo, hi)
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
    chain = sturm_chain(p)
    if p(lo) != 0:
        count = count_roots(chain, lo, hi)  # the open interval, as p(hi) != 0
        assert v >= count
        if len(chain[-1]) == 1:  # square-free: distinct roots are all the roots
            assert v % 2 == count % 2
    if v == 0:
        # no root on the open interval by the independent Sturm count
        assert p(lo) == 0 or count_roots(chain, lo, hi) == 0
    hypothesis.event(f"variations {min(v, 3)}; lo {'< 0' if a < 0 else '= 0' if a == 0 else '> 0'}")
