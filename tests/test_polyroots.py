import math
import random
from fractions import Fraction

import numpy as np
import pytest

from sapcert import polyroots
from sapcert.errors import InvalidInput, NoPositiveRoot, PreconditionViolated
from sapcert.polyroots import (
    IntPolynomial,
    RootBracket,
    bisections,
    cauchy_bound,
    count_roots,
    min_positive_root,
    positive_roots,
    refine,
    sign_at_root,
    sign_variations,
    sturm_chain,
)


def P(*ascending):
    return IntPolynomial.from_coeffs(ascending)


def test_int_polynomial_basics():
    p = P(1, -3, 1)  # 1 - 3t + t^2
    assert p.degree == 2
    assert p(0) == 1
    assert p(Fraction(1, 2)) == Fraction(-1, 4)
    assert p.derivative().coeffs == (-3, 2)
    assert P().is_zero
    assert P(0, 0).is_zero
    with pytest.raises(InvalidInput):
        IntPolynomial((1, 0))


def test_subtract_and_shift():
    a = P(1, 2)
    b = P(0, 1, 5)
    assert a.subtract(b).coeffs == (1, 1, -5)
    assert a.shift_up().coeffs == (0, 1, 2)
    assert a.subtract(a).is_zero


def _brute_sturm(p):
    # plain Fraction remainder chain, no primitive scaling: the oracle
    chain = [[Fraction(c) for c in p.coeffs]]
    d = [Fraction(i * c) for i, c in enumerate(p.coeffs)][1:]
    if any(d):
        chain.append(d)
        while True:
            rem = list(chain[-2])
            div = chain[-1]
            while len(rem) >= len(div):
                q = rem[-1] / div[-1]
                off = len(rem) - len(div)
                for i in range(len(div)):
                    rem[i + off] -= q * div[i]
                rem.pop()
                while rem and rem[-1] == 0:
                    rem.pop()
            if not rem:
                break
            chain.append([-c for c in rem])
    return chain


def _brute_variations(chain, x):
    signs = []
    for f in chain:
        v = sum(c * x**i for i, c in enumerate(f))
        if v != 0:
            signs.append(1 if v > 0 else -1)
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def test_sturm_chain_matches_fraction_oracle():
    rng = np.random.default_rng(21)
    for _ in range(40):
        deg = int(rng.integers(1, 7))
        coeffs = [int(c) for c in rng.integers(-9, 10, deg + 1)]
        if coeffs[-1] == 0:
            coeffs[-1] = 1
        p = P(*coeffs)
        chain = sturm_chain(p)
        oracle = _brute_sturm(p)
        for x in (Fraction(0), Fraction(1, 3), Fraction(7, 2), Fraction(-2)):
            assert sign_variations(chain, x) == _brute_variations(oracle, x)


def test_count_roots_known_factorizations():
    # (3t-1)(2t-1)(t-2): roots 1/3, 1/2, 2
    p = P(-2, 11, -17, 6)
    chain = sturm_chain(p)
    assert count_roots(chain, Fraction(0), Fraction(1)) == 2
    assert count_roots(chain, Fraction(0), Fraction(3)) == 3
    assert count_roots(chain, Fraction(1), Fraction(3)) == 1
    assert count_roots(chain, Fraction(3), Fraction(9)) == 0


def test_count_roots_handles_multiplicity():
    # (t-1)^2 (t+2) = t^3 - 3t + 2: distinct roots 1 (double), -2
    p = P(2, -3, 0, 1)
    chain = sturm_chain(p)
    assert count_roots(chain, Fraction(0), Fraction(2)) == 1
    assert count_roots(chain, Fraction(-3), Fraction(0)) == 1


def test_cauchy_bound_contains_roots():
    p = P(-2, 11, -17, 6)
    B = cauchy_bound(p)
    assert B > 2  # largest root is 2
    chain = sturm_chain(p)
    assert count_roots(chain, Fraction(0), B) == 3


def test_positive_rational_roots():
    p = P(-2, 11, -17, 6)
    assert [b.exact for b in positive_roots(p)] == [Fraction(1, 3), Fraction(1, 2), Fraction(2)]
    assert list(positive_roots(P(1, 0, 1))) == []


def test_min_positive_root_linear():
    value, bracket = min_positive_root(P(1, -2))  # 1 - 2t
    assert value == 0.5
    assert bracket.exact == Fraction(1, 2)
    assert bracket.lo < Fraction(1, 2) < bracket.hi


def test_min_positive_root_unit():
    value, bracket = min_positive_root(P(1, -1))  # 1 - t
    assert value == 1.0
    assert bracket.exact == 1


def test_min_positive_root_quadratic_closed_form():
    # t^2 - 3t + 1: smallest positive root (3 - sqrt 5)/2
    value, bracket = min_positive_root(P(1, -3, 1))
    expect = (3 - math.sqrt(5)) / 2
    assert value == pytest.approx(expect, abs=1e-13)
    assert bracket.exact is None
    assert bracket.width <= Fraction(1, 10**14)
    # certification invariants, re-checked by direct evaluation
    p = P(1, -3, 1)
    assert p(bracket.lo) * p(bracket.hi) < 0
    chain = sturm_chain(p)
    assert count_roots(chain, Fraction(0), bracket.lo) == 0
    assert count_roots(chain, bracket.lo, bracket.hi) == 1


def test_min_positive_root_skips_cluster():
    # (10t-1)(100t-11)(t-5): close root pair 0.1, 0.11, then 5
    def mul(a, b):
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] += x * y
        return out

    coeffs = mul(mul([-1, 10], [-11, 100]), [-5, 1])
    p = IntPolynomial.from_coeffs(coeffs)
    if p(0) < 0:
        p = IntPolynomial.from_coeffs([-c for c in p.coeffs])
    value, bracket = min_positive_root(p)
    assert value == pytest.approx(0.1, abs=1e-13)
    assert bracket.exact == Fraction(1, 10)


def test_min_positive_root_errors():
    with pytest.raises(NoPositiveRoot):
        min_positive_root(P(1, 0, 1))  # 1 + t^2
    with pytest.raises(NoPositiveRoot):
        min_positive_root(P(1, 1))  # root -1
    with pytest.raises(PreconditionViolated):
        min_positive_root(P(-1, 2))  # p(0) < 0
    with pytest.raises(PreconditionViolated):
        min_positive_root(P(0, 1))  # p(0) = 0


def test_min_positive_root_even_multiplicity_rejected():
    # (1 - 2t)^2: smallest positive root has no sign change; so has
    # -(t - 1)^2 (t - 15), where bisection from (0, 32] hits the double
    # root 1 as a midpoint and every member of the chain of p vanishes
    for p in (P(1, -4, 4), P(15, -31, 17, -1)):
        with pytest.raises(PreconditionViolated, match="even multiplicity"):
            min_positive_root(p)


@pytest.mark.parametrize(
    "factors,exact",
    [
        ([[-1, 1], [-1, 1], [-15, 1]], [Fraction(1), Fraction(15)]),  # (x - 1)^2 (x - 15)
        ([[-1, 2]] * 3 + [[-3, 1]], [Fraction(1, 2), Fraction(3)]),  # (2x - 1)^3 (x - 3)
        ([[-1, 2]] * 3 + [[-2, 0, 1]], [Fraction(1, 2), None]),  # (2x - 1)^3 (x^2 - 2)
    ],
)
def test_positive_roots_of_repeated_factors(factors, exact):
    coeffs = [1]
    for f in factors:
        coeffs = _mul(coeffs, f)
    p = IntPolynomial.from_coeffs(coeffs)
    brs = list(positive_roots(p))
    assert [b.exact for b in brs] == exact
    if exact[-1] is None:
        assert brs[-1].lo ** 2 < 2 < brs[-1].hi ** 2
    chain = sturm_chain(p)
    for b in brs:
        assert count_roots(chain, b.lo, b.hi) == 1
        assert b.lo < b.midpoint < b.hi


def test_midpoint_root_is_exact_beyond_the_divisor_limit():
    # (2x - 1)(x^2 - A) with A = 2^40 - 1 > 10^9: no rational candidate is
    # tried, but the bound 1 + A = 2^40 makes 1/2 a subdivision midpoint
    a = 2**40 - 1
    p = IntPolynomial.from_coeffs(_mul([-1, 2], [-a, 0, 1]))
    assert cauchy_bound(p) == 2**40
    first, second = positive_roots(p)
    assert first.exact == Fraction(1, 2) and first.lo < first.exact < first.hi
    assert second.exact is None and second.lo ** 2 < a < second.hi ** 2


def test_divisor_walk_tries_only_candidates_inside_a_bracket(monkeypatch):
    sympy = pytest.importorskip("sympy")
    # 735134400 = 2^6 3^3 5^2 7 11 13 17 has 1,344 divisors: walking every
    # (num, den) pair evaluates p about 10^6 times
    p = P(735134400, 0, 0, -2000000001, 0, 735134400)
    calls = [0]
    homogeneous = polyroots._homogeneous

    def counted(ints, x):
        calls[0] += 1
        return homogeneous(ints, x)

    monkeypatch.setattr(polyroots, "_homogeneous", counted)
    brs = list(positive_roots(p))
    assert calls[0] < 10**4
    x = sympy.Symbol("x")
    roots = [r for r in sympy.real_roots(sympy.Poly(p.coeffs[::-1], x)) if r > 0]
    assert len(brs) == len(roots) == 2
    for b, root in zip(brs, roots):
        assert b.exact is None
        assert sympy.Rational(b.lo.numerator, b.lo.denominator) < root
        assert root < sympy.Rational(b.hi.numerator, b.hi.denominator)


def test_rational_root_is_centred_without_bisecting_to_width(monkeypatch):
    # (3x - 1)(x - 7) at width 1e-14: narrowing (0, 25/3] to that width takes
    # about 50 bisections per root; a rational root is recognised on the
    # first interval that holds it alone and centred there
    calls = [0]
    variations = polyroots.sign_variations

    def counted(chain, x):
        calls[0] += 1
        return variations(chain, x)

    monkeypatch.setattr(polyroots, "sign_variations", counted)
    brs = list(positive_roots(P(7, -22, 3)))
    assert [b.exact for b in brs] == [Fraction(1, 3), Fraction(7)]
    assert all(b.width <= polyroots.DEFAULT_WIDTH for b in brs)
    assert calls[0] < 20


def test_isolate_positive_roots_known():
    p = P(-2, 11, -17, 6)  # roots 1/3, 1/2, 2
    brs = list(positive_roots(p))
    assert len(brs) == 3
    assert [b.exact for b in brs] == [Fraction(1, 3), Fraction(1, 2), Fraction(2)]


def test_isolate_positive_roots_mixed():
    # (t^2 - 2)(2t - 1): positive roots 1/2 and sqrt(2)
    p = P(2, -4, -1, 2)
    brs = list(positive_roots(p))
    assert len(brs) == 2
    assert brs[0].exact == Fraction(1, 2)
    assert brs[1].exact is None
    assert float(brs[1].midpoint) == pytest.approx(math.sqrt(2), abs=1e-12)


def test_isolate_handles_zero_roots_and_negatives():
    # t^2 (t+1) (t-3): only positive root 3
    p = P(0, 0, -3, -2, 1)
    brs = list(positive_roots(p))
    assert [b.exact for b in brs] == [Fraction(3)]


def test_sign_at_root_certified():
    p = P(1, -3, 1)  # root (3-sqrt5)/2 ~ 0.382
    _, bracket = min_positive_root(p)
    q_pos = P(1, -2)  # 1 - 2t > 0 at 0.382
    q_neg = P(-1, 3)  # 3t - 1 > 0 at 0.382 -> sign +
    assert sign_at_root(q_pos, bracket) == 1
    assert sign_at_root(q_neg, bracket) == 1
    assert sign_at_root(P(-1, 2), bracket) == -1  # 2t - 1 < 0
    # q vanishing at the root itself: undecidable, reported as 0
    assert sign_at_root(p, bracket) == 0


def test_sign_at_root_exact_bracket():
    _, bracket = min_positive_root(P(1, -2))
    assert bracket.exact == Fraction(1, 2)
    assert sign_at_root(P(-1, 2), bracket) == 0  # 2t-1 vanishes at 1/2
    assert sign_at_root(P(1, 2), bracket) == 1


def test_family_recurrence_polys_have_certifiable_roots():
    # h for (5,2) is 3t^2 - 4t + 1 = (3t-1)(t-1): min root exactly 1/3
    value, bracket = min_positive_root(P(1, -4, 3))
    assert bracket.exact == Fraction(1, 3)
    assert value == 1 / 3


def _mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _fraction_sturm_reference(p):
    # p, p', then each negated Fraction remainder scaled to a primitive
    # integer polynomial (positive denominator lcm, positive content)
    chain = [tuple(p.coeffs)]
    d = [i * c for i, c in enumerate(p.coeffs)][1:]
    if not any(d):
        return tuple(chain)
    chain.append(tuple(d))
    prev = [Fraction(c) for c in p.coeffs]
    curr = [Fraction(c) for c in d]
    while True:
        rem = list(prev)
        while len(rem) >= len(curr):
            k = rem[-1] / curr[-1]
            off = len(rem) - len(curr)
            for i in range(len(curr)):
                rem[i + off] -= k * curr[i]
            rem.pop()
            while rem and rem[-1] == 0:
                rem.pop()
        if not rem:
            return tuple(chain)
        neg = [-c for c in rem]
        den = math.lcm(*(c.denominator for c in neg))
        ints = [int(c * den) for c in neg]
        g = math.gcd(*ints)
        chain.append(tuple(c // g for c in ints))
        prev, curr = curr, neg


def _chain_test_polys():
    rng = np.random.default_rng(404)
    polys = []
    for _ in range(60):
        deg = int(rng.integers(1, 10))
        coeffs = [int(c) for c in rng.integers(-30, 31, deg + 1)]
        coeffs[-1] = coeffs[-1] or 7
        polys.append(coeffs)
    for _ in range(20):  # repeated roots
        p = [int(rng.integers(1, 5))]
        for _ in range(int(rng.integers(1, 4))):
            factor = [int(rng.integers(-6, 7)), int(rng.integers(1, 6))]
            for _ in range(int(rng.integers(1, 4))):
                p = _mul(p, factor)
        polys.append(p)
    rnd = random.Random(404)
    for _ in range(15):  # 200-bit coefficients
        deg = rnd.randint(1, 7)
        polys.append([rnd.getrandbits(200) - 2**199 for _ in range(deg)] + [rnd.getrandbits(200) | 1])
    return polys


def test_sturm_chain_bitwise_equal_to_fraction_reference():
    for coeffs in _chain_test_polys():
        p = IntPolynomial.from_coeffs(coeffs)
        chain = sturm_chain(p)
        assert chain == _fraction_sturm_reference(p)
        assert all(type(c) is int for member in chain for c in member)


def test_int_polynomial_call_is_exact_at_fractions():
    rng = np.random.default_rng(7)
    for _ in range(50):
        coeffs = [int(c) for c in rng.integers(-10**6, 10**6, int(rng.integers(1, 9)))]
        p = IntPolynomial.from_coeffs(coeffs)
        x = Fraction(int(rng.integers(-999, 1000)), int(rng.integers(1, 1000)))
        horner = Fraction(0)
        for c in reversed(p.coeffs):
            horner = horner * x + c
        got = p(x)
        assert type(got) is Fraction and got == horner
    assert P()(Fraction(1, 3)) == 0
    assert P(5)(Fraction(1, 3)) == 5


def test_bisections_keep_the_left_root_and_report_a_midpoint_hit():
    p = IntPolynomial.from_coeffs(_mul([-1, 4], [-2, 0, 1]))  # roots 1/4, +-sqrt 2
    chain = sturm_chain(p)
    one, zero = Fraction(1), Fraction(0)
    steps = bisections(chain, zero, Fraction(2))
    assert next(steps) == (zero, one, None)  # 1/4 on the left wins over sqrt 2
    assert next(steps) == (zero, Fraction(1, 2), None)
    lo, hi, hit = next(steps)
    assert (lo, hi, hit) == (zero, Fraction(1, 4), Fraction(1, 4))
    assert count_roots(chain, lo, hi) == 1
    steps = bisections(chain, Fraction(1, 2), Fraction(2))  # only sqrt 2 inside
    assert next(steps) == (Fraction(5, 4), Fraction(2), None)
    assert next(steps) == (Fraction(5, 4), Fraction(13, 8), None)


def test_refine_stops_at_an_exact_dyadic_hit():
    p = IntPolynomial.from_coeffs(_mul([-1, 4], [-2, 0, 1]))
    br = refine(RootBracket(lo=Fraction(0), hi=Fraction(1), poly=p), Fraction(1, 2**60))
    assert br.exact == Fraction(1, 4) and br.hi == br.exact
    assert br.midpoint == Fraction(1, 4)
    assert sign_at_root(P(-1, 2), RootBracket(lo=Fraction(0), hi=Fraction(1), poly=p)) == -1


def test_coarse_isolation_then_refinement_equals_fine_isolation():
    rng = np.random.default_rng(11)
    fine_w, coarse_w = Fraction(1, 2**60), Fraction(1, 2**8)
    polys = []
    for _ in range(40):
        coeffs = [int(c) for c in rng.integers(-20, 21, int(rng.integers(2, 9)))]
        coeffs[-1] = coeffs[-1] or 3
        polys.append(IntPolynomial.from_coeffs(coeffs))
    # the roots 0.5 +- 0.0014 lie within 2^-9 of the rational root 1/2
    close = IntPolynomial.from_coeffs(_mul([-1, 2], [249998, -10**6, 10**6]))
    checked = 0
    for p in polys + [close]:
        fine = list(positive_roots(p, width=fine_w))
        coarse = list(positive_roots(p, width=coarse_w))
        refined = [refine(b, fine_w) for b in coarse]
        # rational roots and midpoint hits keep exact; every other bracket is the same
        assert [b.exact or (b.lo, b.hi) for b in refined] == [
            b.exact or (b.lo, b.hi) for b in fine
        ]
        for b in coarse:
            # one root by the chain of the bracket's own polynomial
            assert count_roots(b.sturm(), b.lo, b.hi) == 1
            assert b.width <= coarse_w
            if b.exact is None:
                assert b.poly(b.lo) * b.poly(b.hi) < 0
        checked += len(coarse)
    assert checked >= 20
    assert [b.exact for b in positive_roots(close, width=coarse_w)] == [
        None, Fraction(1, 2), None
    ]


def test_rational_root_brackets_exclude_every_other_root():
    # x^2 (x + 1) (2x - 1)^2 (3x - 2) (x^2 - 2): roots 0, -1, 1/2 (double),
    # 2/3 and +-sqrt 2; at width 1 the bracket 1/2 +- 1/2 would hold 2/3
    p = IntPolynomial.from_coeffs(
        [0, 0] + _mul(_mul(_mul([1, 1], _mul([-1, 2], [-1, 2])), [-2, 3]), [-2, 0, 1])
    )
    # x (4x - 1) (x^2 - 2): at width 1 the bracket 1/4 +- 1/2 would hold 0
    p2 = IntPolynomial.from_coeffs([0] + _mul([-1, 4], [-2, 0, 1]))
    brs = list(positive_roots(p, width=Fraction(1)))
    brs2 = list(positive_roots(p2, width=Fraction(1)))
    assert [b.exact for b in brs] == [Fraction(1, 2), Fraction(2, 3), None]
    assert [b.exact for b in brs2] == [Fraction(1, 4), None]
    for b in brs + brs2:
        assert 0 < b.lo and count_roots(b.sturm(), b.lo, b.hi) == 1
        assert b.poly(b.lo) != 0 and b.poly(b.hi) != 0


def test_brackets_carry_their_chain():
    p = P(2, -4, -1, 2)
    brs = list(positive_roots(p, width=Fraction(1, 4)))
    irrational = [b for b in brs if b.exact is None]
    assert irrational and irrational[0].chain == sturm_chain(irrational[0].poly)
    assert refine(irrational[0], Fraction(1, 2**40)).chain is irrational[0].chain
    _, bracket = min_positive_root(P(1, -3, 1))
    assert bracket.chain == sturm_chain(P(1, -3, 1))
