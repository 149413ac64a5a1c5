"""Property tests for the nilpotent certificate's two sign walks, with sympy's root count as the oracle.

:func:`_root_below` and :func:`_h_bracket` prove what they return by
Descartes' rule alone.  Whatever they return is checked here by sympy's
count, on the recurrence's own links and on products of known factors:
a separation point s has q(s) < 0 and no root of prev in (0, s]; h's
bracket holds one root, h changes sign across it, no root lies below it,
and it is the first bracket that positive_roots gives.  The links' inline
walk is checked against the same walk taken through polyroots.bisections.
"""

from fractions import Fraction
from itertools import islice

import pytest

hypothesis = pytest.importorskip("hypothesis")
sympy = pytest.importorskip("sympy")
st = hypothesis.strategies

from sapcert import nilpotent  # noqa: E402
from sapcert.errors import CertificationFailed  # noqa: E402
from sapcert.family import FamilyParams  # noqa: E402
from sapcert.nilpotent import (  # noqa: E402
    _CERT_WIDTH,
    _h_bracket,
    _root_below,
    recurrence_polys,
)
import sapcert.polyroots as polyroots  # noqa: E402
from sapcert.polyroots import IntPolynomial  # noqa: E402

_SETTINGS = hypothesis.settings(
    max_examples=200, deadline=None, derandomize=True, database=None
)
_ZERO = Fraction(0)
_X = sympy.Symbol("x")


def _mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


@st.composite
def products(draw, unit=False):
    """A product of up to four factors: u - v t (root u/v > 0, some past 1),
    c - b t + a t^2 with b > 0 and two real roots, mostly irrational, and
    c + b t + a t^2 with none; with ``unit`` each factor's constant c or
    u is 1, so the product is 1 at 0."""
    cs = [1]
    for _ in range(draw(st.integers(1, 4))):
        c = 1 if unit else draw(st.integers(1, 9))
        kind = draw(st.sampled_from(("linear", "real", "complex")))
        if kind == "linear":
            factor = [c, -draw(st.integers(1, 12))]
        else:
            b = draw(st.integers(1, 12))
            edge = b * b // (4 * c)  # b^2 > 4ac exactly when a <= edge, barring equality
            if kind == "real":
                a = draw(st.integers(1, max(edge, 1)))
                factor = [c, -b, a] if b * b > 4 * a * c else [c, -b]
            else:
                factor = [c, draw(st.sampled_from((b, -b))), draw(st.integers(edge + 1, edge + 20))]
        cs = _mul(cs, factor)
    return IntPolynomial.from_coeffs(cs)


_points = st.builds(Fraction, st.integers(1, 2**12), st.integers(1, 2**11)).filter(lambda x: x <= 2)


def _count_roots(p, lo: Fraction, hi: Fraction) -> int:
    """Distinct roots of ``p`` in (lo, hi), counted by sympy; neither end may be a root."""
    assert p(lo) != 0 and p(hi) != 0
    ends = (sympy.Rational(x.numerator, x.denominator) for x in (lo, hi))
    return sympy.Poly(p.coeffs[::-1], _X).count_roots(*ends)


def _check_separation(prev, q, s):
    assert 0 < s <= 1 and q(s) < 0
    assert _count_roots(prev, _ZERO, s) == 0


def _check_h_bracket(h, s, got):
    assert 0 < got.lo < got.hi <= s and got.poly == h
    assert h(got.lo) * h(got.hi) < 0
    assert _count_roots(h, got.lo, got.hi) == 1
    assert _count_roots(h, _ZERO, got.lo) == 0
    want = next(polyroots.positive_roots(h, width=_CERT_WIDTH))
    assert (got.lo, got.hi, got.exact) == (want.lo, want.hi, want.exact)


@st.composite
def family_links(draw):
    n = draw(st.integers(3, 40))
    r = draw(st.integers(2, n - 1))
    a_polys, h = recurrence_polys(FamilyParams(n, r))
    order = a_polys[r:] + (h,)
    return order, draw(st.integers(0, len(order) - 2))


@_SETTINGS
@hypothesis.given(family_links())
def test_every_family_link_is_a_proved_separation_point(link):
    order, k = link
    s = Fraction(2)
    for prev, q in zip(order, order[1 : k + 2]):
        s = _root_below(prev, q, s)
        assert s is not None
    _check_separation(order[k], order[k + 1], s)
    if k == len(order) - 2:
        _check_h_bracket(order[-1], s, _h_bracket(order[-1], s))


@st.composite
def links(draw):
    """(prev, q, bound): q is random or prev(c t), whose roots are prev's over c."""
    prev = draw(products())
    c = draw(st.sampled_from((None, 2, 3)))
    if c is None:
        q = draw(products())
    else:
        q = IntPolynomial(tuple(x * c**i for i, x in enumerate(prev.coeffs)))
    return prev, q, draw(st.one_of(st.just(Fraction(2)), _points))


@st.composite
def closings(draw):
    """(h, s) with h(0) = 1 and s random or a little past h's smallest positive root."""
    h = draw(products(unit=True))
    s = draw(_points)
    if draw(st.booleans()):
        root = next(polyroots.positive_roots(h, width=Fraction(1, 2**12)), None)
        if root is not None:
            s = root.hi + Fraction(draw(st.integers(0, 64)), 2**12)
    return h, s


@_SETTINGS
@hypothesis.given(links())
def test_a_returned_separation_point_separates(link):
    prev, q, bound = link
    s = _root_below(prev, q, bound)
    if s is not None:
        _check_separation(prev, q, s)


@_SETTINGS
@hypothesis.given(closings())
def test_a_returned_h_bracket_holds_the_smallest_root_alone(closing):
    h, s = closing
    try:
        got = _h_bracket(h, s)
    except CertificationFailed:
        return
    _check_h_bracket(h, s, got)


def _root_below_by_bisections(prev, q, bound):
    """The link as it was walked through polyroots.bisections: the reference for _root_below."""
    pc, qc = prev.coeffs, q.coeffs
    if not qc or qc[0] <= 0 or not pc or pc[0] <= 0 or prev(bound) > 0:
        return None
    last_a = 0
    steps = polyroots.bisections(prev, 0, 1, 1, below=bound)
    for a, _, d, _ in islice(steps, nilpotent._SEPARATION_STEPS):
        if a != 2 * last_a and q(Fraction(a, d)) < 0:
            return Fraction(a, d) if polyroots.positive_up_to(prev, a, d) else None
        last_a = a
    return None


@_SETTINGS
@hypothesis.given(links())
def test_the_inline_link_walk_returns_what_the_bisections_walk_returned(link):
    prev, q, bound = link
    got = _root_below(prev, q, bound)
    assert got == _root_below_by_bisections(prev, q, bound)
    if prev(bound) <= 0:
        assert nilpotent._separation(prev, q, bound) == got
    hypothesis.event(f"separated: {got is not None}")


@_SETTINGS
@hypothesis.given(family_links())
def test_the_chain_walk_takes_the_separation_points_of_the_bisections_walk(link):
    # the certificate hands each link's s on as the next bound, with no
    # evaluation of prev there; the points are those of the guarded walk
    order, _ = link
    s = want = Fraction(2)
    for prev, q in zip(order, order[1:]):
        s, want = nilpotent._separation(prev, q, s), _root_below_by_bisections(prev, q, want)
        assert s == want and s is not None
