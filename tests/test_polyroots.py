import hashlib
import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from sapcert import polyroots
from sapcert.errors import InvalidInput, PreconditionViolated, SizeLimitExceeded
from sapcert.family import FamilyParams
from sapcert.nilpotent import recurrence_polys
from sapcert.polyroots import (
    IntPolynomial,
    RootBracket,
    _shifted_variations,
    bisections,
    root_bound,
    one_root_up_to,
    positive_roots,
    positive_up_to,
    refine,
    sign_at_root,
)


def P(*ascending):
    return IntPolynomial.from_coeffs(ascending)


def _count_roots(p, lo, hi):
    """Distinct roots of ``p`` in (lo, hi), counted by sympy; neither end may be a root."""
    sympy = pytest.importorskip("sympy")
    assert p(lo) != 0 and p(hi) != 0
    lo, hi = (sympy.Rational(x.numerator, x.denominator) for x in (Fraction(lo), Fraction(hi)))
    return sympy.Poly(p.coeffs[::-1], sympy.Symbol("x")).count_roots(lo, hi)


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


def test_int_polynomial_rejects_coefficients_that_are_not_integers():
    # -1.5 + t was truncated to -1 + t, whose root 1 positive_roots then
    # certified; built directly it failed later with a TypeError
    rejected = ([-1.5, 1], [-2.0, 1], [Fraction(1, 3), 1], [float("nan"), 1], ["2", 1], [None, 1])
    for coeffs in rejected:
        with pytest.raises(InvalidInput, match="not an integer"):
            IntPolynomial.from_coeffs(coeffs)
        with pytest.raises(InvalidInput, match="not an integer"):
            IntPolynomial(tuple(coeffs))
    # integral Fractions and numpy integers are integers, stored as int
    for coeffs in ([Fraction(-6, 3), np.int64(1)], [-2, np.int32(1)], [np.int8(-2), True]):
        for p in (IntPolynomial.from_coeffs(coeffs), IntPolynomial(tuple(coeffs))):
            assert p.coeffs == (-2, 1) and all(type(c) is int for c in p.coeffs)
            assert [b.exact for b in positive_roots(p)] == [2]


def test_count_roots_known_factorizations():
    # (3t-1)(2t-1)(t-2): roots 1/3, 1/2, 2; the Descartes kernel's
    # variations on (a/d, b/d) count them exactly here
    cs = P(-2, 11, -17, 6).coeffs
    assert _shifted_variations(cs, 0, 1, 1, 3) == 2
    assert _shifted_variations(cs, 0, 3, 1, 3) == 3
    assert _shifted_variations(cs, 1, 3, 1, 3) == 1
    assert _shifted_variations(cs, 3, 9, 1, 3) == 0


def test_count_roots_handles_multiplicity():
    # (t-1)^2 (t+2) = t^3 - 3t + 2: distinct roots 1 (double), -2.  The
    # variations count the double root twice, so isolation works on the
    # square-free part and brackets the root once
    p = P(2, -3, 0, 1)
    assert _shifted_variations(p.coeffs, 0, 2, 1, 3) == 2
    assert _shifted_variations(p.coeffs, -3, 0, 1, 3) == 1
    assert [b.exact for b in positive_roots(p)] == [Fraction(1)]


def test_root_bound_contains_roots():
    p = P(-2, 11, -17, 6)
    B = root_bound(p)
    assert B == 16  # largest root is 2; Fujiwara from bit lengths: 2^(3 + 1)
    assert _count_roots(p, Fraction(0), B) == 3


def test_positive_rational_roots():
    p = P(-2, 11, -17, 6)
    assert [b.exact for b in positive_roots(p)] == [Fraction(1, 3), Fraction(1, 2), Fraction(2)]
    assert list(positive_roots(P(1, 0, 1))) == []


def test_min_positive_root_linear():
    bracket = next(positive_roots(P(1, -2)))  # 1 - 2t
    assert bracket.as_float() == 0.5
    assert bracket.exact == Fraction(1, 2)
    assert bracket.lo < Fraction(1, 2) < bracket.hi


def test_min_positive_root_unit():
    bracket = next(positive_roots(P(1, -1)))  # 1 - t
    assert bracket.as_float() == 1.0
    assert bracket.exact == 1


def test_min_positive_root_quadratic_closed_form():
    # t^2 - 3t + 1: smallest positive root (3 - sqrt 5)/2
    bracket = next(positive_roots(P(1, -3, 1)))
    expect = (3 - math.sqrt(5)) / 2
    assert bracket.as_float() == pytest.approx(expect, abs=1e-13)
    assert bracket.exact is None
    assert bracket.width <= Fraction(1, 10**14)
    # certification invariants, re-checked by direct evaluation
    p = P(1, -3, 1)
    assert p(bracket.lo) * p(bracket.hi) < 0
    assert _count_roots(p, Fraction(0), bracket.lo) == 0
    assert _count_roots(p, bracket.lo, bracket.hi) == 1


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
    bracket = next(positive_roots(p))
    assert bracket.as_float() == pytest.approx(0.1, abs=1e-13)
    assert bracket.exact == Fraction(1, 10)


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
    for b in brs:
        assert _count_roots(p, b.lo, b.hi) == 1
        assert b.lo < b.midpoint < b.hi


def test_midpoint_root_is_exact_beyond_the_divisor_limit():
    # (2x - 1)(x^2 - A) with A = 2^40 - 1 > 10^9: no rational candidate is
    # tried, but the dyadic bound 2^21 makes 1/2 a subdivision midpoint
    a = 2**40 - 1
    p = IntPolynomial.from_coeffs(_mul([-1, 2], [-a, 0, 1]))
    assert root_bound(p) == 2**21
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

    def counted(ints, p, q):
        calls[0] += 1
        return homogeneous(ints, p, q)

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
    variations = polyroots._shifted_variations

    def counted(*args):
        calls[0] += 1
        return variations(*args)

    monkeypatch.setattr(polyroots, "_shifted_variations", counted)
    brs = list(positive_roots(P(7, -22, 3)))
    assert [b.exact for b in brs] == [Fraction(1, 3), Fraction(7)]
    assert all(b.width <= polyroots.DEFAULT_WIDTH for b in brs)
    assert calls[0] < 20


def test_one_root_intervals_are_halved_by_sign(monkeypatch):
    # h of (80, 2) at the certificate's width 2^-70: Descartes tests run
    # only until h's smallest root is alone, p's sign halves the rest (a
    # test at every halving takes over 130 calls)
    calls = [0]
    variations = polyroots._shifted_variations

    def counted(*args):
        calls[0] += 1
        return variations(*args)

    _, h = recurrence_polys(FamilyParams(80, 2))
    monkeypatch.setattr(polyroots, "_shifted_variations", counted)
    bracket = next(positive_roots(h, width=Fraction(1, 2**70)))
    assert bracket.width <= Fraction(1, 2**70)
    assert calls[0] <= 70


def test_an_interval_that_starts_at_a_root_is_bisected_by_count():
    # (2t - 1)(t - 1)(2t - 3) on (0, 8]: the midpoints 1 and 1/2 are roots,
    # so (1/2, 1] and (1, 2] hold one root each and start at a root, and
    # (0, 1/2] and (1/2, 1] end at one
    p = P(-3, 11, -12, 4)
    assert root_bound(p) == 8
    brs = list(positive_roots(p, Fraction(1, 2**8)))
    assert [(b.lo, b.hi, b.exact) for b in brs] == [
        (Fraction(255, 512), Fraction(257, 512), Fraction(1, 2)),
        (Fraction(511, 512), Fraction(513, 512), Fraction(1)),
        (Fraction(767, 512), Fraction(769, 512), Fraction(3, 2)),
    ]
    assert [b.exact for b in positive_roots(p)] == [Fraction(1, 2), Fraction(1), Fraction(3, 2)]
    # (1/2, 5/4] holds the one root 1, but p is 0 at lo: no sign to follow
    bracket = RootBracket(lo=Fraction(1, 2), hi=Fraction(5, 4), poly=p)
    with pytest.raises(PreconditionViolated, match="does not change sign"):
        refine(bracket, Fraction(1, 2**40))
    with pytest.raises(PreconditionViolated, match="does not change sign"):
        sign_at_root(P(1), bracket)


def test_a_root_of_even_multiplicity_is_bisected_by_count():
    # (t - 1)^2 (t + 2) keeps its sign across 1 on (0, 3]: no sign to follow
    bracket = RootBracket(lo=Fraction(0), hi=Fraction(3), poly=P(2, -3, 0, 1))
    with pytest.raises(PreconditionViolated, match="does not change sign"):
        refine(bracket, Fraction(1, 2**40))
    with pytest.raises(PreconditionViolated, match="does not change sign"):
        sign_at_root(P(1), bracket)


def test_descartes_tests_on_zero_one_and_two_roots():
    # one Taylor-shift kernel: zero variations prove p > 0 on [0, s], one
    # variation proves one simple root in (0, s) and a sign change
    assert positive_up_to(P(1, -2), 1, 4) and not positive_up_to(P(1, -2), 1, 1)
    assert one_root_up_to(P(1, -3, 1), 1, 1)  # root (3 - sqrt 5)/2 only
    assert not one_root_up_to(P(1, -3, 1), 1, 4)  # no root up to 1/4
    assert not one_root_up_to(P(1, -5, 5), 1, 1)  # two roots in (0, 1)
    # t(1 - 2t) has one variation on (0, 1], but p(0) = 0: no sign change
    assert not one_root_up_to(P(0, 1, -2), 1, 1)
    # (1 - 2t)(1 - t) is zero at s = 1: the constant term proves nothing
    assert not one_root_up_to(P(1, -3, 2), 1, 1)
    assert not positive_up_to(P(1, -1), 1, 1)


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
    bracket = next(positive_roots(p))
    q_pos = P(1, -2)  # 1 - 2t > 0 at 0.382
    q_neg = P(-1, 3)  # 3t - 1 > 0 at 0.382 -> sign +
    assert sign_at_root(q_pos, bracket)[0] == 1
    assert sign_at_root(q_neg, bracket)[0] == 1
    assert sign_at_root(P(-1, 2), bracket)[0] == -1  # 2t - 1 < 0
    # q vanishing at the root itself: undecidable, reported as 0
    assert sign_at_root(p, bracket)[0] == 0


def test_sign_at_root_exact_bracket():
    bracket = next(positive_roots(P(1, -2)))
    assert bracket.exact == Fraction(1, 2)
    assert sign_at_root(P(-1, 2), bracket) == (0, bracket)  # 2t-1 vanishes at 1/2
    assert sign_at_root(P(1, 2), bracket) == (1, bracket)


def test_sign_at_root_proof_bracket_lies_on_the_refine_path():
    # root (3-sqrt5)/2 ~ 0.38197 of p; q = 1000t - 381 has its root just
    # left of it, so the proof needs a narrow bracket
    p = P(1, -3, 1)
    bracket = next(positive_roots(p, width=Fraction(1, 4)))
    q = P(-381, 1000)
    sign, proof = sign_at_root(q, bracket)
    assert sign == 1
    assert bracket.lo <= proof.lo < proof.hi <= bracket.hi
    assert proof.width < Fraction(1, 1000) and proof.poly == bracket.poly
    # root-free for q with q > 0 at both ends, and still the root of p
    assert q(proof.lo) > 0 and q(proof.hi) > 0
    assert _count_roots(q, proof.lo, proof.hi) == 0
    assert _count_roots(proof.poly, proof.lo, proof.hi) == 1
    # continuing from the proof bracket ends where refining the original does
    width = Fraction(1, 2**40)
    assert refine(proof, width) == refine(bracket, width)
    # a second sign proof started from the first one stays inside it
    sign2, proof2 = sign_at_root(P(-3819, 10000), proof)
    assert sign2 == 1 and proof.lo <= proof2.lo < proof2.hi <= proof.hi


def test_sign_at_root_bisects_until_descartes_proves_the_sign():
    # q = -1 - t^2 has no real root, so it has one sign on (-1, 2]; its
    # roots +-i lie near that interval, so Descartes' test counts two
    # variations there, and the proof moves on down the bisection of
    # p = t^2 - 2 until the test holds
    p, q = P(-2, 0, 1), P(-1, 0, -1)
    bracket = RootBracket(lo=Fraction(-1), hi=Fraction(2), poly=p)
    assert polyroots._shifted_variations(q.coeffs, -1, 2, 1, 2) == 2
    sign, proof = sign_at_root(q, bracket)
    assert sign == -1 and (proof.lo, proof.hi, proof.exact) == (Fraction(1, 2), Fraction(2), None)
    assert refine(bracket, Fraction(3, 2)) == proof
    assert polyroots._shifted_variations(q.coeffs, 1, 4, 2, 2) == 0


def test_sign_at_root_counts_steps_once_the_root_is_located():
    # p = 3t - 4 on (0, 2^300]: about 300 halvings locate its root 4/3, which
    # the budget does not count; q = 3t - 4 - 2^-100 needs about 100 more
    p = P(-4, 3)
    bracket = RootBracket(lo=Fraction(0), hi=Fraction(2**300), poly=p)
    q = P(-(4 * 2**100 + 1), 3 * 2**100)
    sign, proof = sign_at_root(q, bracket)
    assert sign == -1 and proof.width < Fraction(1, 2**100)
    assert proof.lo < Fraction(4, 3) < proof.hi
    # q sharing p's root: the budget runs out below 2^-8
    sign, stop = sign_at_root(P(-8, 6), bracket)
    width = stop.width / polyroots._LOCATED_WIDTH
    assert sign == 0 and width.denominator == 2**polyroots._MAX_SIGN_REFINE


def test_family_recurrence_polys_have_certifiable_roots():
    # h for (5,2) is 3t^2 - 4t + 1 = (3t-1)(t-1): min root exactly 1/3
    bracket = next(positive_roots(P(1, -4, 3)))
    assert bracket.exact == Fraction(1, 3)
    assert bracket.as_float() == 1 / 3


def _mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


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
    zero = Fraction(0)

    def ends(step):
        a, b, d, hit = step
        return Fraction(a, d), Fraction(b, d), Fraction(b, d) if hit else None

    steps = bisections(p, 0, 2, 2)  # (0, 1], p changes sign at 1/4 alone
    # (0, 1/2], over the doubled denominator: p(1/2) < 0 < p(0)
    assert next(steps) == (0, 2, 4, False)
    lo, hi, hit = ends(next(steps))
    assert (lo, hi, hit) == (zero, Fraction(1, 4), Fraction(1, 4))
    steps = bisections(p, 1, 4, 2)  # (1/2, 2], only sqrt 2 inside
    assert ends(next(steps)) == (Fraction(5, 4), Fraction(2), None)
    assert ends(next(steps)) == (Fraction(5, 4), Fraction(13, 8), None)


def test_refine_stops_at_an_exact_dyadic_hit():
    p = IntPolynomial.from_coeffs(_mul([-1, 4], [-2, 0, 1]))
    br = refine(RootBracket(lo=Fraction(0), hi=Fraction(1), poly=p), Fraction(1, 2**60))
    assert br.exact == Fraction(1, 4) and br.hi == br.exact
    assert br.midpoint == Fraction(1, 4)
    sign, proof = sign_at_root(P(-1, 2), RootBracket(lo=Fraction(0), hi=Fraction(1), poly=p))
    assert sign == -1 and proof.exact == Fraction(1, 4)


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
            # one root of the bracket's own polynomial
            assert _count_roots(b.poly, b.lo, b.hi) == 1
            assert b.width <= coarse_w
            if b.exact is None:
                assert b.poly(b.lo) * b.poly(b.hi) < 0
        checked += len(coarse)
    assert checked >= 20
    assert [b.exact for b in positive_roots(close, width=coarse_w)] == [
        None, Fraction(1, 2), None
    ]


def test_unnarrowed_isolation_then_refinement_equals_fine_isolation():
    # realize signs on each one-root interval as the subdivision finds it
    # and refines only the bracket it delivers: that ends where isolating
    # at the fine width does
    rng = np.random.default_rng(12)
    fine_w = Fraction(1, 2**60)
    unnarrowed = 0
    for _ in range(40):
        coeffs = [int(c) for c in rng.integers(-20, 21, int(rng.integers(2, 9)))]
        coeffs[-1] = coeffs[-1] or 3
        p = IntPolynomial.from_coeffs(coeffs)
        fine = list(positive_roots(p, width=fine_w))
        found = [root.bracket() for root in polyroots._isolated(p, fine_w)]
        assert [refine(b, fine_w) for b in found] == fine
        unnarrowed += sum(b.width > fine_w for b in found)
    assert unnarrowed >= 20


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
        assert 0 < b.lo and _count_roots(b.poly, b.lo, b.hi) == 1


def test_positive_roots_brackets_are_pinned():
    # (lo, hi, exact) of every bracket of 300 seeded polynomials, random
    # coefficients or products with rational roots, at two widths, as
    # first recorded: the subdivision tree does not depend on how its
    # points are represented
    rng = random.Random(4242)
    polys = []
    for k in range(300):
        if k % 2:
            coeffs = [rng.randint(-10**4, 10**4) for _ in range(rng.randint(2, 9))]
            coeffs[-1] = coeffs[-1] or 7
        else:
            coeffs = [rng.choice([1, -1, 3])]
            for _ in range(rng.randint(1, 4)):
                coeffs = _mul(coeffs, [-rng.randint(-9, 30), rng.randint(1, 12)])
            if rng.random() < 0.5:
                coeffs = _mul(coeffs, [rng.randint(-50, 50), rng.randint(-9, 9), 1])
        polys.append(IntPolynomial.from_coeffs(coeffs))
    digest = hashlib.sha256()
    brackets = 0
    for width in (polyroots.DEFAULT_WIDTH, Fraction(1, 2**8)):
        for p in polys:
            if p.is_zero:
                continue
            for b in positive_roots(p, width):
                digest.update(repr((b.lo, b.hi, b.exact)).encode())
                brackets += 1
    assert brackets > 300
    assert digest.hexdigest() == (
        "ca254b5a256dc2f6f2961192f2f9df271c3010b3bf94d771a535d596671747bf"
    )


def _spy(monkeypatch, name):
    # the arguments and result of every call to polyroots.<name>
    f = getattr(polyroots, name)
    calls = []

    def spy(*args):
        out = f(*args)
        calls.append((args, out))
        return out

    monkeypatch.setattr(polyroots, name, spy)
    return calls


def _primes(calls):
    # the prime of each _gcd_mod call
    return [args[2] for args, _ in calls]


def _brackets_hold(p: tuple[int, ...], roots) -> bool:
    brackets = list(positive_roots(IntPolynomial(p)))
    return len(brackets) == len(roots) and all(b.lo < x <= b.hi for b, x in zip(brackets, roots))


def test_square_free_falls_back_when_the_prime_divides_the_leading_coefficient(monkeypatch):
    prime = 2**61 - 1
    gcds = _spy(monkeypatch, "_gcd_mod")
    simple = tuple(_mul([-1, prime], [-2, 1]))  # (P x - 1)(x - 2)
    assert polyroots._square_free(simple) == IntPolynomial(simple)
    assert _primes(gcds) == [2**89 - 1]
    # the gcd P x - 1 times lc(p) = P^2 needs a prime above 2^123 to lift
    gcds.clear()
    double = tuple(_mul([-1, prime], [-1, prime]))  # (P x - 1)^2
    assert polyroots._square_free(double).coeffs == (-1, prime)
    assert _primes(gcds) == [2**89 - 1, 2**107 - 1, 2**127 - 1]
    assert _brackets_hold(simple, (Fraction(1, prime), 2))


def test_square_free_falls_back_when_roots_coincide_modulo_the_prime(monkeypatch):
    # 1 and 1 + P are distinct, so p is square-free, but p = (x - 1)^2
    # modulo P: the lift x - 1 divides p, not p', and 2^89 - 1 proves p
    # square-free
    prime = 2**61 - 1
    p = tuple(_mul([-1, 1], [-1 - prime, 1]))
    gcds = _spy(monkeypatch, "_gcd_mod")
    divisions = _spy(monkeypatch, "_divided")
    assert polyroots._square_free(p) == IntPolynomial(p)
    assert _primes(gcds) == [prime, 2**89 - 1]
    assert gcds[0][1] == [-1 % prime, 1]
    assert divisions == [((p, (-1, 1)), (-1 - prime, 1)), (([-2 - prime, 2], (-1, 1)), None)]
    assert _brackets_hold(p, (1, 1 + prime))


def test_square_free_takes_the_modular_proof_for_a_square_free_polynomial(monkeypatch):
    gcds = _spy(monkeypatch, "_gcd_mod")
    divisions = _spy(monkeypatch, "_divided")
    p = tuple(_mul(_mul([-1, 2], [-3, 1]), [-2, 0, 1]))  # (2x - 1)(x - 3)(x^2 - 2)
    assert polyroots._square_free(p) == IntPolynomial(p)
    assert _primes(gcds) == [2**61 - 1]
    assert divisions == []


def test_square_free_rejects_the_lift_at_an_unlucky_prime(monkeypatch):
    # x^2 + x + 8 is square-free, but its discriminant -31 vanishes modulo
    # 31, where it is (x - 15)^2: the lift x - 15 does not divide p, and
    # the next prime, 127, proves p square-free
    monkeypatch.setattr(polyroots, "_MERSENNE_EXPONENTS", (5, 7, 61))
    gcds = _spy(monkeypatch, "_gcd_mod")
    divisions = _spy(monkeypatch, "_divided")
    p = (8, 1, 1)
    assert polyroots._square_free(p) == IntPolynomial(p)
    assert _primes(gcds) == [31, 127]
    assert [out for _, out in gcds] == [[16, 1], [1]]
    assert divisions == [((p, (-15, 1)), None)]


def test_square_free_raises_past_the_last_prime(monkeypatch):
    # (c x - 1)^2 for c = 3^50: its gcd c x - 1 times lc(p) = c^2 has
    # 159-bit coefficients, which no 61-bit prime lifts
    c = 3**50
    p = tuple(_mul([-1, c], [-1, c]))
    assert polyroots._square_free(p).coeffs == (-1, c)
    monkeypatch.setattr(polyroots, "_MERSENNE_EXPONENTS", (61,))
    with pytest.raises(SizeLimitExceeded):
        polyroots._square_free(p)
    with pytest.raises(SizeLimitExceeded):
        list(positive_roots(IntPolynomial(p)))


def test_positive_roots_of_a_large_repeated_factor_end_quickly():
    # (x^2 - 2)^2 q for q of degree 96 with 300-bit coefficients: the
    # square-free part of degree 98 was 30 s by a primitive remainder sequence
    rng = random.Random(98)
    q = [rng.randint(-(2**300), 2**300) for _ in range(97)]
    p = IntPolynomial.from_coeffs(_mul(_mul([-2, 0, 1], [-2, 0, 1]), q))
    start = time.process_time()
    brackets = list(positive_roots(p))
    assert time.process_time() - start < 1.0
    assert all(b.poly.degree == 98 for b in brackets)
    assert sum(b.lo**2 < 2 < b.hi**2 for b in brackets) == 1
