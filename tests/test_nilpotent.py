import hashlib
import json
import math
from fractions import Fraction

import pytest

from sapcert.charpoly import char_coeffs, char_coeffs_oracle, spectrum
from sapcert.family import FamilyParams, build_matrix, build_pattern, coeff_map
import sapcert.nilpotent as nilpotent
from sapcert.nilpotent import (
    _root_below,
    nilpotent_realization,
    recurrence_polys,
    verify_min_chain,
)
from sapcert.patterns import member_of_class
from sapcert.polyroots import IntPolynomial, min_positive_root, sturm_chain


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
    _, hb = min_positive_root(recurrence_polys(FamilyParams(4, 2))[1])
    assert float(hb.midpoint) == pytest.approx((3 - math.sqrt(5)) / 2, abs=1e-13)


@pytest.mark.parametrize("n", range(3, 13))
def test_verify_min_chain_sweep(n):
    for r in range(2, n):
        assert verify_min_chain(FamilyParams(n, r))


def _chain(*ascending):
    return sturm_chain(IntPolynomial.from_coeffs(ascending))


def test_separation_accepts_order_and_rejects_reversed_or_equal_roots():
    assert _root_below(_chain(1, -1), _chain(1, -2))  # 1/2 < 1
    assert _root_below(_chain(1, -3, 1), _chain(1, -4, 3))  # 1/3 < (3 - sqrt 5)/2
    assert _root_below(_chain(1, -4, 3), _chain(1, -3, 1)) is False  # reversed
    assert _root_below(_chain(1, -2), _chain(1, -1)) is False  # out of order
    assert _root_below(_chain(1, -2), _chain(1, -2)) is False  # equal minimal roots
    assert _root_below(_chain(1, 0, 1), _chain(1, -2)) is False  # prev has no root


def test_verify_min_chain_every_r_at_n_80():
    for r in range(2, 80):
        assert verify_min_chain(FamilyParams(80, r))


def test_nilpotent_realization_isolates_no_root_but_h(monkeypatch):
    # the root order is proved by separation: no a_j root is ever bisected
    nilpotent._certify.cache_clear()
    n = 40
    closing = {recurrence_polys(FamilyParams(n, r))[1] for r in range(2, n)}
    real = nilpotent.min_positive_root

    def only_h(p, *args, **kwargs):
        if p not in closing:
            raise AssertionError(f"min_positive_root called on {p.coeffs[:4]}...")
        return real(p, *args, **kwargs)

    monkeypatch.setattr(nilpotent, "min_positive_root", only_h)
    for r in range(2, n):
        cert = nilpotent_realization(FamilyParams(n, r))
        assert cert.chain_verified


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
    # in both precisions, and the root-order verdict, as first recorded
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
        "e3c44d7c2ab37b14cfc1671bd7ffae90e9f3c0dfb94f9fe5d6c24b3d8ab37f0e"
    )
