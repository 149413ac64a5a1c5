import hashlib
import json

import numpy as np
import pytest

from sapcert.charpoly import char_coeffs_oracle
from sapcert.errors import InvalidInput, PreconditionViolated
from sapcert.family import (
    FamilyParams,
    FamilyRealization,
    build_matrix,
    build_pattern,
    coeff_map,
)
from sapcert.jacobian import (
    INCONCLUSIVE,
    SAP_CERTIFIED,
    build_B_block,
    det_A_brute,
    det_A_closed,
    det_B_brute,
    jacobian_det,
    jacobian_matrix,
    nj_verify,
)
from sapcert.nilpotent import nilpotent_realization, recurrence_polys
from sapcert.patterns import SignPattern


def test_jacobian_matrix_3_2_hand_value():
    x = FamilyRealization(FamilyParams(3, 2), a=(1.0, 0.5), b=0.5)
    J = jacobian_matrix(x)
    assert J.tolist() == [[1, 0, 0], [-1, 1, 1], [0.5, -1, 1]]


def test_jacobian_r_equal_n_matches_oracle():
    # every coefficient is affine in each single parameter, so a unit
    # forward difference of the oracle is the exact partial derivative
    rng = np.random.default_rng(32)
    for n in range(2, 13):
        p = FamilyParams(n, n)
        x = FamilyRealization(
            p, a=tuple(rng.uniform(0.2, 3.0, n - 1)), b=float(rng.uniform(0.2, 3.0))
        )
        base = np.array(list(x.a) + [x.b])

        def oracle_at(v):
            point = FamilyRealization(p, a=tuple(v[:-1]), b=float(v[-1]))
            return np.array(char_coeffs_oracle(build_matrix(point)).values)

        f0 = oracle_at(base)
        fd = np.column_stack([oracle_at(base + np.eye(n)[k]) - f0 for k in range(n)])
        assert np.allclose(jacobian_matrix(x), fd, rtol=0, atol=1e-9 * 4.0**n), n
        cert = nilpotent_realization(p)
        report = jacobian_det(cert.realization())
        assert report.det_lu == report.det_blocks == 1.0
        assert report.positive
        for k in range(n):
            assert det_A_closed(k, p, cert) == (-1.0) ** k


def _fd_jacobian(x: FamilyRealization) -> np.ndarray:
    n = x.params.n
    base = np.array(list(x.a) + [x.b])
    out = np.zeros((n, n))
    for k in range(n):
        h = 1e-6
        up, dn = base.copy(), base.copy()
        up[k] += h
        dn[k] -= h
        fu = np.array(
            coeff_map(FamilyRealization(x.params, tuple(up[:-1]), float(up[-1]))).values
        )
        fd = np.array(
            coeff_map(FamilyRealization(x.params, tuple(dn[:-1]), float(dn[-1]))).values
        )
        out[:, k] = (fu - fd) / (2 * h)
    return out


def test_jacobian_matches_finite_differences():
    rng = np.random.default_rng(31)
    for _ in range(40):
        n = int(rng.integers(3, 11))
        r = int(rng.integers(2, n))
        x = FamilyRealization(
            FamilyParams(n, r),
            a=tuple(rng.uniform(0.2, 3.0, n - 1)),
            b=float(rng.uniform(0.2, 3.0)),
        )
        assert np.allclose(jacobian_matrix(x), _fd_jacobian(x), atol=1e-8)


def test_jacobian_det_3_2_cofactor_anchor():
    # det [[1,0,0],[-1,1,1],[.5,-1,1]] = 1*(1+1) = 2
    cert = nilpotent_realization(FamilyParams(3, 2))
    report = jacobian_det(cert.realization())
    assert report.det_lu == pytest.approx(2.0, abs=1e-12)
    assert report.det_blocks == pytest.approx(2.0, abs=1e-12)
    assert report.positive


def test_jacobian_positive_on_certificates():
    for n in range(3, 15):
        for r in range(2, n):
            cert = nilpotent_realization(FamilyParams(n, r))
            report = jacobian_det(cert.realization())
            assert report.positive, (n, r)
            assert abs(report.det_lu - report.det_blocks) <= 1e-8 * max(
                1.0, abs(report.det_lu)
            )


def _both_routes_are_minus_h_prime(n, r):
    # det J = -h'(t) along the elimination curve of the zero target, so at
    # the certificate both routes give -h' at the bracket midpoint
    cert = nilpotent_realization(FamilyParams(n, r))
    report = jacobian_det(cert.realization())
    h_prime = float(recurrence_polys(FamilyParams(n, r))[1].derivative()(cert.bracket.midpoint))
    assert h_prime < 0, (n, r)
    for det in (report.det_lu, report.det_blocks):
        assert abs(det + h_prime) <= 1e-10 * abs(h_prime), (n, r, det, h_prime)


def test_det_j_is_minus_h_prime_at_t_h():
    for n in range(2, 41):
        for r in range(2, n + 1):
            _both_routes_are_minus_h_prime(n, r)


def test_det_j_is_minus_h_prime_at_t_h_for_every_r_at_n_80():
    for r in range(2, 81):
        _both_routes_are_minus_h_prime(80, r)


def test_block_reading_matches_assembled_jacobian():
    # the trailing block of the Jacobian IS the B-style block whose last
    # column starts 1, 1 (the values of a_0 and a_1), then a0_2, ...
    for (n, r) in [(5, 2), (7, 3), (9, 5), (6, 4)]:
        cert = nilpotent_realization(FamilyParams(n, r))
        x = cert.realization()
        J = jacobian_matrix(x)
        l = n - r + 1
        c = [1.0] + list(x.a[: n - r])
        B = build_B_block(l, r, x.b, c)
        assert np.allclose(J[r - 1 :, r - 1 :], B, atol=0)
        assert J[r - 1, n - 1] == 1.0 and (r + 1 > n - 1 or J[r, n - 1] == 1.0)
        # leading block: unit lower triangular
        lead = J[: r - 1, : r - 1]
        assert np.allclose(np.diag(lead), 1.0)
        assert np.allclose(np.triu(lead, 1), 0.0)


def test_det_A_examples():
    cert = nilpotent_realization(FamilyParams(3, 2))
    assert det_A_closed(0, cert.params, cert) == 1.0
    # k=2, r=2 at (3,2): 1 - t_h = 0.5
    assert det_A_closed(2, cert.params, cert) == pytest.approx(0.5, abs=1e-12)
    assert det_A_brute(2, cert.params, cert.t_h) == pytest.approx(0.5, abs=1e-12)
    # r > k: upper triangular with -1 diagonal
    cert54 = nilpotent_realization(FamilyParams(5, 4))
    assert det_A_closed(3, cert54.params, cert54) == -1.0
    assert det_A_brute(3, cert54.params, cert54.t_h) == pytest.approx(-1.0, abs=1e-12)
    assert det_A_brute(1, cert.params, cert.t_h) == pytest.approx(-1.0)


def test_det_A_closed_matches_brute():
    for n in range(3, 12):
        for r in range(2, n):
            cert = nilpotent_realization(FamilyParams(n, r))
            for k in range(0, n):
                closed = det_A_closed(k, cert.params, cert)
                if k == 0:
                    assert closed == 1.0
                    continue
                brute = det_A_brute(k, cert.params, cert.t_h)
                assert abs(closed - brute) <= 1e-9 * max(1.0, abs(brute)), (n, r, k)


def test_det_A_bounds():
    cert = nilpotent_realization(FamilyParams(4, 2))
    with pytest.raises(InvalidInput):
        det_A_closed(4, cert.params, cert)
    with pytest.raises(InvalidInput):
        det_A_closed(-1, cert.params, cert)


def test_det_B_examples():
    p = FamilyParams(5, 2)
    assert det_B_brute(1, p, 0.3, [2.5]) == pytest.approx(2.5)
    assert det_B_brute(2, p, 0.3, [1.5, 2.5]) == pytest.approx(4.0)  # c2 + c1


def test_det_B_positive_random():
    # t_h must be the certified feedback value of an actual (n, r) pair;
    # the positivity claim is about those points, not arbitrary t
    rng = np.random.default_rng(32)
    for _ in range(300):
        n = int(rng.integers(3, 17))
        r = int(rng.integers(2, n))
        l = int(rng.integers(1, min(15, n) + 1))
        cert = nilpotent_realization(FamilyParams(n, r))
        c = rng.uniform(0.01, 10.0, l)
        assert det_B_brute(l, cert.params, cert.t_h, c) > 0, (n, r, l)


def test_det_B_rejects_nonpositive_column():
    with pytest.raises(InvalidInput):
        det_B_brute(2, FamilyParams(4, 2), 0.5, [1.0, -1.0])


S22 = SignPattern.from_rows(["+-", "+-"])
M22 = [[1.0, -1.0], [1.0, -1.0]]


def test_nj_verify_basic_example():
    cert = nj_verify(S22, M22, [(0, 0), (1, 1)])
    assert cert.jacobian_det == pytest.approx(2.0, abs=1e-9)
    assert cert.conclusion == SAP_CERTIFIED
    assert cert.as_json_dict()["positions"] == [[1, 1], [2, 2]]


def test_nj_verify_zero_jacobian_is_inconclusive():
    # variables at the off-diagonal slots: the trace is constant, so one
    # row of the Jacobian vanishes identically
    cert = nj_verify(S22, M22, [(0, 1), (1, 0)])
    assert abs(cert.jacobian_det) <= 1e-8
    assert cert.conclusion == INCONCLUSIVE


def test_nj_verify_branch_consistency():
    cert = nj_verify(S22, M22, [(0, 1), (1, 1)])
    if abs(cert.jacobian_det) > 1e-8:
        assert cert.conclusion == SAP_CERTIFIED
    else:
        assert cert.conclusion == INCONCLUSIVE


def test_nj_verify_matches_family_jacobian():
    for n in range(3, 13):
        for r in range(2, n):
            cert = nilpotent_realization(FamilyParams(n, r))
            M = build_matrix(cert.realization())
            pat = build_pattern(cert.params)
            positions = [(i, 0) for i in range(n - 1)] + [(n - 1, n - r)]
            nj = nj_verify(pat, M, positions)
            analytic = jacobian_det(cert.realization()).det_lu
            assert nj.jacobian_det == pytest.approx(analytic, rel=1e-6)
            assert nj.conclusion == SAP_CERTIFIED


@pytest.mark.parametrize("n", [10, 20, 30, 40])
def test_nj_verify_exact_jacobian_matches_block_route(n):
    for r in range(2, n):
        cert = nilpotent_realization(FamilyParams(n, r))
        M = build_matrix(cert.realization())
        positions = [(i, 0) for i in range(n - 1)] + [(n - 1, n - r)]
        nj = nj_verify(build_pattern(cert.params), M, positions)
        blocks = jacobian_det(cert.realization()).det_blocks
        assert abs(nj.jacobian_det - blocks) <= 1e-12 * abs(blocks), (n, r)


def test_nj_verify_layer_digest_is_pinned():
    # nj_verify at every family nilpotent point with 3 <= n <= 40, 2 <= r <= n,
    # on the first column and (n-1, n-r); recorded with the step-by-step
    # Faddeev-LeVerrier recursion that gathered each N_k as it was formed
    digest = hashlib.sha256()
    for n in range(3, 41):
        for r in range(2, n + 1):
            cert = nilpotent_realization(FamilyParams(n, r))
            M = build_matrix(cert.realization())
            positions = [(i, 0) for i in range(n - 1)] + [(n - 1, n - r)]
            nj = nj_verify(build_pattern(cert.params), M, positions)
            digest.update(json.dumps(nj.as_json_dict()).encode())
    assert digest.hexdigest() == (
        "ef2dc66c0c32ef57c0880e5a35688da5f18f90dd110f0de67b35baf5167bfc67"
    )


def test_nj_verify_preconditions():
    with pytest.raises(PreconditionViolated):
        nj_verify(S22, [[1.0, -1.0], [1.0, -2.0]], [(0, 0), (1, 1)])  # not nilpotent
    with pytest.raises(InvalidInput):
        nj_verify(S22, M22, [(0, 0), (0, 0)])  # repeated
    with pytest.raises(InvalidInput):
        nj_verify(S22, M22, [(0, 0)])  # wrong count
    with pytest.raises(PreconditionViolated):
        nj_verify(S22, [[1.0, 1.0], [1.0, -1.0]], [(0, 0), (1, 1)])  # wrong class
    bad = SignPattern.from_rows(["+0", "+-"])
    with pytest.raises(InvalidInput):
        nj_verify(bad, [[1.0, 0.0], [1.0, -1.0]], [(0, 1), (1, 1)])  # zero slot
