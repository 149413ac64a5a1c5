import hashlib
import json
import math
from fractions import Fraction

import pytest

from sapcert.charpoly import char_coeffs, char_coeffs_oracle, spectrum
from sapcert.errors import CertificationFailed
from sapcert.family import MAX_N, FamilyParams, build_matrix, build_pattern, coeff_map
import sapcert.nilpotent as nilpotent
from sapcert.nilpotent import (
    _CERT_WIDTH,
    _h_bracket,
    _recurrence_at,
    _root_below,
    nilpotent_realization,
    recurrence_polys,
    verify_min_chain,
)
import sapcert.polyroots as polyroots
from sapcert.patterns import member_of_class
from sapcert.polyroots import IntPolynomial, _homogeneous, positive_roots, positive_up_to


def test_recurrence_3_2():
    a, h = recurrence_polys(FamilyParams(3, 2))
    assert a[0].coeffs == (1,) and a[1].coeffs == (1,)
    assert a[2].coeffs == (1, -1)  # 1 - t
    assert h.coeffs == (1, -2)  # 1 - 2t


def test_recurrence_4_2():
    a, h = recurrence_polys(FamilyParams(4, 2))
    assert a[3].coeffs == (1, -2)  # 1 - 2t
    assert h.coeffs == (1, -3, 1)  # t^2 - 3t + 1


def test_recurrence_5_3():
    a, h = recurrence_polys(FamilyParams(5, 3))
    assert a[3].coeffs == (1, -1)
    assert a[4].coeffs == (1, -2)
    assert h.coeffs == (1, -3)  # 1 - 3t


def test_recurrence_r_equal_n():
    for n in range(2, 13):
        a, h = recurrence_polys(FamilyParams(n, n))
        assert [q.coeffs for q in a] == [(1,)] * n
        assert h.coeffs == (1, -1)  # 1 - t


def test_recurrence_exactness_properties():
    for n in range(3, 26):
        for r in range(2, n):
            a, h = recurrence_polys(FamilyParams(n, r))
            for j, poly in enumerate(a):
                assert poly.degree == j // r
                assert poly(0) == 1
            assert h(0) == 1
            # early band is a_{r+i} = 1 - (i+1)t
            for i in range(0, min(r, n - r)):
                assert a[r + i].coeffs == (1, -(i + 1))


def test_verify_min_chain_anchors():
    assert verify_min_chain(FamilyParams(3, 2))
    assert verify_min_chain(FamilyParams(4, 2))
    # closed forms for (4,2): 0.382 < 0.5 < 1
    hb = next(positive_roots(recurrence_polys(FamilyParams(4, 2))[1]))
    assert float(hb.midpoint) == pytest.approx((3 - math.sqrt(5)) / 2, abs=1e-13)


@pytest.mark.parametrize("n", range(3, 13))
def test_verify_min_chain_sweep(n):
    for r in range(2, n):
        assert verify_min_chain(FamilyParams(n, r))


def _poly(*ascending):
    return IntPolynomial.from_coeffs(ascending)


def test_separation_accepts_order_and_rejects_reversed_or_equal_roots():
    one = Fraction(1)
    s = _root_below(_poly(1, -1), _poly(1, -2), one)  # 1/2 < 1
    assert s is not None and Fraction(1, 2) < s < 1
    s = _root_below(_poly(1, -3, 1), _poly(1, -4, 3), one)  # 1/3 < (3 - sqrt 5)/2
    assert s is not None and Fraction(1, 3) < s < (3 - math.sqrt(5)) / 2
    assert _root_below(_poly(1, -4, 3), _poly(1, -3, 1), one) is None  # reversed
    assert _root_below(_poly(1, -2), _poly(1, -1), one) is None  # out of order
    assert _root_below(_poly(1, -2), _poly(1, -2), one) is None  # equal minimal roots
    assert _root_below(_poly(1, 0, 1), _poly(1, -2), one) is None  # prev has no root
    assert _root_below(_poly(1, -1), _poly(-1, 1), one) is None  # q(0) < 0: q < 0 on (0, 1), no root


def test_separation_point_is_the_first_moved_dyadic_lo_where_q_is_negative():
    # prev = 1 - t moves lo to 1/2, where q = 1 - 2t is 0, then to 3/4
    assert _root_below(_poly(1, -1), _poly(1, -2), Fraction(1)) == Fraction(3, 4)


def test_a_bound_below_the_root_of_prev_is_not_trusted():
    # prev = 1 - t is positive at 1/2: going left there unevaluated would
    # end at 3/8, a point no proof stands behind
    assert _root_below(_poly(1, -1), _poly(1, -4), Fraction(1, 2)) is None


def test_a_complex_pair_near_the_interval_fails_the_descartes_test():
    # prev = (9 - 10t)(400t^2 - 240t + 37) has roots 9/10 and 3/10 +- i/20;
    # q = 4 - 5t has its root at 4/5
    prev, q = _poly(333, -2530, 6000, -4000), _poly(4, -5)
    # the quadratic factor's minimum, 1 at t = 3/10, times 9 - 10t
    assert prev(Fraction(9, 10)) == 0 and prev(Fraction(3, 10)) == 6
    # the walk's first point with q < 0 is 7/8: root-free for prev, but the
    # pair near it leaves two sign variations, so no proof and no s
    s = Fraction(7, 8)
    assert q(s) < 0 and not positive_up_to(prev, s.numerator, s.denominator)
    assert _root_below(prev, q, Fraction(1)) is None
    assert [b.exact for b in positive_roots(prev)] == [Fraction(9, 10)]


def _last_separation_point(a_polys, h, r):
    order = a_polys[r:] + (h,)
    s = Fraction(2)
    for prev, q in zip(order, order[1:]):
        s = _root_below(prev, q, s)
    return s


def test_h_bracket_is_the_min_positive_root_bracket():
    exact = set()
    for n in range(2, 41):
        for r in range(2, n + 1):
            a_polys, h = recurrence_polys(FamilyParams(n, r))
            got = _h_bracket(h, _last_separation_point(a_polys, h, r))
            want = next(positive_roots(h, width=_CERT_WIDTH))
            # RootBracket equality compares lo, hi, poly and exact
            assert got == want, (n, r)
            if got.exact is not None:
                exact.add((n, r))
    assert {(3, 2), (5, 2), (5, 3), (40, 40)} <= exact


def test_positive_roots_rational_search_covers_every_supported_order():
    # a rational root of h is some 1/k with k dividing h's leading
    # coefficient (h(0) = 1); positive_roots tries every such k while that
    # coefficient is at most 1e9, so _h_bracket's exact roots are the ones
    # it finds.  Past 1e9 (nine pairs at n <= 320) h has no root 1/k at all
    for r in range(2, MAX_N + 1):
        a_polys, h = recurrence_polys(FamilyParams(MAX_N, r))
        for n in range(r, MAX_N + 1):
            cs = (a_polys + (h,))[n].coeffs
            lead = abs(cs[-1])
            if lead > polyroots._RATROOT_COEFF_LIMIT:
                ks = polyroots._divisors(lead)
                assert all(polyroots._homogeneous(cs, 1, k) for k in ks), (n, r)


@pytest.fixture
def isolations(monkeypatch):
    called = []
    real = polyroots.positive_roots

    def counted(p, *args, **kwargs):
        called.append(p)
        return real(p, *args, **kwargs)

    monkeypatch.setattr(polyroots, "positive_roots", counted)
    return called


def test_certificate_builds_no_chain_and_isolates_no_root(isolations):
    rational = 0
    for n in range(2, 41):
        for r in range(2, n + 1):
            nilpotent._certify.cache_clear()
            cert = nilpotent._certify(FamilyParams(n, r))
            assert not isolations, (n, r)
            rational += cert.bracket.exact is not None
    nilpotent._certify.cache_clear()
    assert rational == 428  # of the 780 pairs


def test_certificate_walks_every_link_and_then_h_below_a_bound(isolations, monkeypatch):
    calls = []
    real_bisections, real_separation = polyroots.bisections, nilpotent._separation

    def counted_bisections(p, *args, **kwargs):
        # below is the fifth argument, by keyword or by position
        calls.append((p, kwargs["below"] if "below" in kwargs else (args[3:] or [None])[0]))
        return real_bisections(p, *args, **kwargs)

    def counted_separation(prev, q, bound):
        calls.append((prev, bound))
        return real_separation(prev, q, bound)

    monkeypatch.setattr(polyroots, "bisections", counted_bisections)
    monkeypatch.setattr(nilpotent, "_separation", counted_separation)
    for n, r in [(2, 2), (3, 2), (9, 4), (12, 12), (40, 3), (80, 2)]:
        nilpotent._certify.cache_clear()
        calls.clear()
        assert nilpotent_realization(FamilyParams(n, r)).chain_verified
        a_polys, h = recurrence_polys(FamilyParams(n, r))
        # one walk per link (a_r, a_{r+1}), ..., (a_{n-1}, h), its prev polynomial, then h's
        assert [p for p, _ in calls] == [*a_polys[r:], h], (n, r)
        assert None not in [below for _, below in calls]
    nilpotent._certify.cache_clear()
    assert not isolations


def test_certificate_is_memoized_and_bounded():
    # one certificate per (n, r) while it is cached; the memo is bounded
    # because a process that certifies every pair up to MAX_N would keep
    # all 51,040 of them
    maxsize = nilpotent._certify.cache_info().maxsize
    assert maxsize == 256
    nilpotent._certify.cache_clear()
    p = FamilyParams(7, 3)
    cert = nilpotent_realization(p)
    assert nilpotent_realization(FamilyParams(7, 3)) is cert
    assert nilpotent_realization(FamilyParams(7, 4)) is not cert
    others = [FamilyParams(n, r) for n in range(8, 30) for r in range(2, n + 1)][:maxsize]
    for q in others:
        nilpotent._certify(q)
    assert nilpotent._certify.cache_info().currsize == maxsize
    # p was the least recently used, so it is certified again
    rebuilt = nilpotent_realization(p)
    assert rebuilt is not cert and rebuilt == cert
    nilpotent._certify.cache_clear()


_TWO_ROOTS = _poly(1, -5, 5)  # roots (5 -+ sqrt 5)/10, about 0.2764 and 0.7236


@pytest.mark.parametrize(
    "h, exact",
    [
        (_poly(1, -2, 1, -2), Fraction(1, 2)),  # (1 - 2t)(1 + t^2): a midpoint hits 1/2
        (_poly(1, -3, 1, -3), Fraction(1, 3)),  # (1 - 3t)(1 + t^2): the root 1/3
    ],
)
def test_h_bracket_centres_a_rational_root_as_isolation_does(h, exact):
    got = _h_bracket(h, Fraction(1))
    assert got == next(positive_roots(h, width=_CERT_WIDTH)) and got.exact == exact


@pytest.mark.parametrize(
    "h, match",
    [
        (_TWO_ROOTS, "no one-root proof"),  # two roots in (0, 1]: the one-root test fails
        (_poly(2, -3), "no one-root proof"),  # h(0) = 2: a rational root need not be 1/k
        # -(1 - 3t + t^2): one root in (0, 1), signs the other way round
        (_poly(-1, 3, -1), "no one-root proof"),
        # root 1/(2^75 + 1) in the first node (0, 2^-70]: every 1/k past 2^70 is in it
        (_poly(1, -(2**75 + 1)), "too many rational candidates"),
    ],
)
def test_h_bracket_raises_without_its_proof(h, match):
    with pytest.raises(CertificationFailed, match=match):
        _h_bracket(h, Fraction(1))


def test_h_bracket_past_s_raises_and_a_root_just_past_s_does_not():
    h = _TWO_ROOTS
    want = next(positive_roots(h, width=_CERT_WIDTH))
    # the second root lies just past s: the one-root test still holds
    assert Fraction(7236, 10**4) < (5 + math.sqrt(5)) / 10 < Fraction(7237, 10**4)
    assert _h_bracket(h, Fraction(7236, 10**4)) == want
    # s inside the bracket: the walk's node reaches past s
    s = want.hi - Fraction(1, 2**80)
    assert h(s) < 0 < h(want.lo)
    with pytest.raises(CertificationFailed, match="reaches past the last separation point"):
        _h_bracket(h, s)


def test_recurrence_values_are_the_rounded_polynomial_values():
    for n in range(2, 41):
        for r in range(2, n + 1):
            p = FamilyParams(n, r)
            a_polys, h = recurrence_polys(p)
            bracket = nilpotent_realization(p).bracket
            for x in (bracket.lo, bracket.hi, bracket.midpoint):
                u, v = x.numerator, x.denominator
                want = [_homogeneous(q.coeffs, u, v) / v**q.degree for q in a_polys[1:] + (h,)]
                assert _recurrence_at(p, x) == want, (n, r, x)


def _coprime_mod(f, g, prime):
    # Euclid over GF(prime) on ascending residue lists without trailing zeros
    while g:
        inv, f = pow(g[-1], -1, prime), list(f)
        while len(f) >= len(g):
            c, off = f[-1] * inv % prime, len(f) - len(g)
            for i, x in enumerate(g):
                f[off + i] = (f[off + i] - c * x) % prime
            while f and not f[-1]:
                f.pop()
        f, g = g, f
    return len(f) == 1


def test_h_is_square_free_for_every_supported_order():
    # a square factor g^2 of h stays one of h mod a prime that keeps h's
    # degree, and g then divides h' too; so a unit gcd(h, h') mod the
    # prime proves h square-free, and the bracket's poly is h itself
    prime = 2**61 - 1
    for r in range(2, MAX_N + 1):
        a_polys, h = recurrence_polys(FamilyParams(MAX_N, r))
        for n in range(r, MAX_N + 1):
            cs = (a_polys + (h,))[n].coeffs  # h of (n, r) is a_n of the recurrence
            if n <= 20:
                assert cs == recurrence_polys(FamilyParams(n, r))[1].coeffs
            f = [c % prime for c in cs]
            assert f[-1], (n, r)
            df = [i * c % prime for i, c in enumerate(cs)][1:]
            while df and not df[-1]:
                df.pop()
            assert _coprime_mod(f, df, prime), (n, r)


@pytest.fixture
def cold_certificates():
    nilpotent._certify.cache_clear()
    yield
    nilpotent._certify.cache_clear()


def test_certificate_raises_when_a_link_is_not_separated(monkeypatch, cold_certificates):
    monkeypatch.setattr(nilpotent, "_separation", lambda prev, q, bound: None)
    for call in (nilpotent_realization, verify_min_chain):
        with pytest.raises(CertificationFailed, match="no separation point"):
            call(FamilyParams(6, 2))


@pytest.mark.parametrize(
    "test, r, match",
    [
        ("positive_up_to", 2, "no separation point"),
        ("one_root_up_to", 2, "no one-root proof"),
        ("one_root_up_to", 6, "no one-root proof"),  # r = n: h = 1 - t and s = 2
    ],
)
def test_certificate_raises_when_a_descartes_test_fails(
    monkeypatch, cold_certificates, test, r, match
):
    # a test that proves nothing ends the certificate
    monkeypatch.setattr(nilpotent, test, lambda p, a, d: False)
    for call in (nilpotent_realization, verify_min_chain):
        with pytest.raises(CertificationFailed, match=match):
            call(FamilyParams(6, r))


@pytest.mark.parametrize("n, r", [(6, 2), (9, 4), (5, 4)])
def test_certificate_raises_when_the_last_separation_point_is_below_the_bracket(
    monkeypatch, cold_certificates, n, r
):
    p = FamilyParams(n, r)
    bracket = nilpotent_realization(p).bracket
    _, h = recurrence_polys(p)
    real = nilpotent._separation

    def last_link_at(s):
        return lambda prev, q, bound: s if q == h else real(prev, q, bound)

    nilpotent._certify.cache_clear()
    monkeypatch.setattr(nilpotent, "_separation", last_link_at(bracket.hi))
    assert nilpotent_realization(p).bracket == bracket  # s = bracket.hi still bounds it
    nilpotent._certify.cache_clear()
    monkeypatch.setattr(nilpotent, "_separation", last_link_at(bracket.hi - Fraction(1, 2**80)))
    for call in (nilpotent_realization, verify_min_chain):
        with pytest.raises(CertificationFailed, match="last separation point"):
            call(p)


@pytest.mark.parametrize("r", [2, MAX_N // 2, MAX_N - 1])
def test_certificate_at_max_n(r):
    cert = nilpotent_realization(FamilyParams(MAX_N, r))
    assert cert.chain_verified
    assert all(m > 0 for m in cert.a0_margins)
    assert cert.bracket.width <= Fraction(1, 2**70)


def test_verify_min_chain_every_r_at_n_80():
    for r in range(2, 80):
        assert verify_min_chain(FamilyParams(80, r))


def test_nilpotent_realization_isolates_no_root(isolations, cold_certificates):
    # the root order is proved by separation and h's root by its signs:
    # positive_roots never runs, for a_j or for h, rational t_h included
    for r in range(2, 81):
        assert nilpotent_realization(FamilyParams(80, r)).chain_verified
    assert not isolations


def test_cert_2_2_is_the_basic_nilpotent_example():
    cert = nilpotent_realization(FamilyParams(2, 2))
    assert cert.t_h == 1.0
    assert cert.a0 == (1.0,)
    M = build_matrix(cert.realization())
    assert M.tolist() == [[1.0, -1.0], [1.0, -1.0]]
    assert max(abs(v) for v in char_coeffs(M)) <= 1e-12


def test_cert_3_2_exact():
    cert = nilpotent_realization(FamilyParams(3, 2))
    assert cert.t_h == 0.5
    assert cert.bracket.exact == Fraction(1, 2)
    assert cert.a0 == (1.0, 0.5)
    assert coeff_map(cert.realization()).values == pytest.approx((0, 0, 0), abs=1e-15)


def test_cert_4_2_golden():
    cert = nilpotent_realization(FamilyParams(4, 2))
    s5 = math.sqrt(5)
    assert cert.t_h == pytest.approx((3 - s5) / 2, abs=1e-12)
    assert cert.a0[0] == 1.0
    assert cert.a0[1] == pytest.approx((s5 - 1) / 2, abs=1e-12)
    assert cert.a0[2] == pytest.approx(s5 - 2, abs=1e-12)
    assert cert.residual <= 1e-12
    assert all(abs(z) < 1e-3 for z in spectrum(build_matrix(cert.realization())))


def test_cert_rational_anchors():
    for (n, r) in [(5, 2), (5, 3)]:
        cert = nilpotent_realization(FamilyParams(n, r))
        assert cert.bracket.exact == Fraction(1, 3)
        assert cert.t_h == 1 / 3


def test_cert_r_equals_n():
    for n in (2, 3, 5, 8):
        cert = nilpotent_realization(FamilyParams(n, n))
        assert cert.t_h == 1.0
        assert cert.a0 == (1.0,) * (n - 1)
        assert cert.chain_verified
        assert cert.residual <= 1e-10 * n


def test_cert_membership_and_margins():
    for (n, r) in [(6, 2), (9, 4), (12, 7), (15, 2)]:
        cert = nilpotent_realization(FamilyParams(n, r))
        M = build_matrix(cert.realization())
        assert member_of_class(M, build_pattern(cert.params))
        assert all(m > 0 for m in cert.a0_margins)
        assert all(v > 0 for v in cert.a0)
        assert cert.a0[: r - 1] == (1.0,) * (r - 1)
        assert cert.residual <= 1e-10 * n
        assert cert.bracket.width <= Fraction(1, 10**14)


def test_cert_extended_mode_residual_is_exact_path():
    cert_d = nilpotent_realization(FamilyParams(7, 3), precision="double")
    cert_e = nilpotent_realization(FamilyParams(7, 3), precision="extended")
    assert cert_e.precision_mode == "extended"
    assert cert_e.t_h == cert_d.t_h
    # the exact-arithmetic residual is the closing polynomial at the midpoint
    assert cert_e.residual <= cert_d.residual + 1e-15
    assert cert_e.residual <= 1e-15


def test_spectrum_decay_scaled_with_order():
    # eigenvalues of a perturbed nilpotent scale as residual^(1/n): assert
    # the achievable bound, not more
    for (n, r) in [(4, 2), (8, 3), (12, 5), (16, 2), (20, 9)]:
        cert = nilpotent_realization(FamilyParams(n, r))
        eigs = spectrum(build_matrix(cert.realization()))
        bound = 10 * (1e-12) ** (1.0 / n)
        assert max(abs(z) for z in eigs) <= bound


def test_certificate_json_schema():
    cert = nilpotent_realization(FamilyParams(3, 2))
    payload = cert.as_json_dict()
    assert set(payload) == {
        "n",
        "r",
        "t_h",
        "t_h_bracket",
        "a0",
        "residual",
        "chain_verified",
    }
    lo_n, lo_d, hi_n, hi_d = payload["t_h_bracket"]
    lo = Fraction(int(lo_n), int(lo_d))
    hi = Fraction(int(hi_n), int(hi_d))
    assert lo < Fraction(1, 2) < hi


def test_certificate_r_equal_n_through_the_recurrence():
    for n in range(2, 13):
        p = FamilyParams(n, n)
        assert verify_min_chain(p)
        for precision in ("double", "extended"):
            cert = nilpotent_realization(p, precision=precision)
            assert cert.chain_verified
            assert cert.t_h == 1.0 and cert.a0 == (1.0,) * (n - 1)
            assert all(m > 0 for m in cert.a0_margins)
            assert cert.bracket.lo < 1 < cert.bracket.hi
            assert cert.bracket.width <= Fraction(1, 2**70)
            assert cert.residual == 0.0
            oracle = char_coeffs_oracle(build_matrix(cert.realization())).values
            assert oracle == (0.0,) * n


def test_nilpotent_layer_digest_is_pinned():
    # every certificate field, margin, residual and mode for 2 <= r <= n <= 30
    # in both precisions, and the root-order verdict, as recorded when the
    # Descartes tree started at the dyadic root bound
    digest = hashlib.sha256()
    for n in range(2, 31):
        for r in range(2, n + 1):
            p = FamilyParams(n, r)
            for precision in ("double", "extended"):
                cert = nilpotent_realization(p, precision=precision)
                fields = [cert.as_json_dict(), list(cert.a0_margins), cert.residual, cert.precision_mode]
                digest.update(json.dumps(fields).encode())
            digest.update(repr(verify_min_chain(p)).encode())
    assert digest.hexdigest() == (
        "f6aaaa6c3975403d4c1b1c82c3d9542c44ca991022ed41c2c192eb5ddbd17149"
    )
