"""Property tests for positive_roots and min_positive_root, with sympy as the oracle.

Inputs are products of known factors: rational roots of multiplicity 1-3
(negative ones and roots at zero included), a pair of rational roots
within 2^-20 of each other, irreducible quadratics (possibly repeated),
and a common factor of up to 200 bits.
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
    count_roots,
    min_positive_root,
    positive_roots,
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
