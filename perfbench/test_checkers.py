"""Tests of the benchmark's own output checkers.

Each checker must agree with sapcert's test oracle or a hand-worked case,
and must reject an output with one entry perturbed.  Run with
``python3 -m pytest perfbench/test_checkers.py`` from the repository root.
"""

import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from checkers import (  # noqa: E402
    check_charpoly,
    check_nilpotent_bracket,
    check_nilpotent_point,
    check_signs,
    count_roots_below,
    exact_char_coeffs,
    exact_det,
    family_char_coeffs,
    family_jacobian,
    family_recurrence,
    family_sign,
)
from sapcert import FamilyParams, FamilyRealization, build_matrix, build_pattern, jacobian_det  # noqa: E402
from sapcert import char_coeffs_oracle, nilpotent_realization  # noqa: E402
from sapcert.patterns import Sign  # noqa: E402


def test_exact_charpoly_hand_case_and_oracle():
    # det(xI - [[a, b], [c, d]]) = x^2 - (a + d) x + (ad - bc)
    assert exact_char_coeffs([[1.5, -2.0], [0.25, 3.0]]) == [Fraction(9, 2), Fraction(5)]
    rng = np.random.default_rng(5)
    for n in (1, 3, 6):
        M = rng.uniform(-3.0, 3.0, (n, n))
        exact = exact_char_coeffs(M)
        oracle = char_coeffs_oracle(M).values
        for e, o in zip(exact, oracle):
            assert abs(float(e) - o) <= 1e-9 * max(1.0, abs(o))


def test_charpoly_check_rejects_one_perturbed_entry():
    M = [[1.0, -1.0, 0.0], [2.0, 0.0, -1.0], [0.0, 3.0, -1.0]]
    target = [float(v) for v in exact_char_coeffs(M)]
    assert check_charpoly(M, target) == []
    M[1][0] += 1e-6
    assert check_charpoly(M, target) != []


def test_family_sign_matches_definition_and_rejects_perturbation():
    for n in range(2, 9):
        for r in range(2, n + 1):
            S = build_pattern(FamilyParams(n, r))
            for i in range(n):
                for j in range(n):
                    want = {Sign.PLUS: 1, Sign.MINUS: -1, Sign.ZERO: 0}[S.entries[i][j]]
                    assert family_sign(n, r, i, j) == want
            nonzero = sum(family_sign(n, r, i, j) != 0 for i in range(n) for j in range(n))
            assert nonzero == 2 * n
    M = build_matrix(nilpotent_realization(FamilyParams(5, 3)).realization())
    assert check_signs(M, lambda i, j: family_sign(5, 3, i, j)) == []
    M[2, 0] = -M[2, 0]
    assert len(check_signs(M, lambda i, j: family_sign(5, 3, i, j))) == 1


def test_recurrence_hand_case_and_nilpotency():
    a, h = family_recurrence(3, 2)
    assert a == [[1], [1], [1, -1]] and h == [1, -2]  # h = 1 - 2t, root 1/2
    # on the recurrence every coefficient but the last vanishes, and v_n = -h(t)
    n, r, t = 7, 3, Fraction(1, 3)
    a, h = family_recurrence(n, r)
    vals = [sum(c * t**i for i, c in enumerate(p)) for p in a]
    v = family_char_coeffs(n, r, vals[1:], t)
    assert v[:-1] == [0] * (n - 1)
    assert v[-1] == -sum(c * t**i for i, c in enumerate(h))


def test_family_char_coeffs_matches_exact_charpoly():
    rng = np.random.default_rng(11)
    for n, r in ((3, 2), (5, 2), (6, 4), (6, 6)):
        a = tuple(rng.uniform(0.1, 3.0, n - 1))
        b = float(rng.uniform(0.1, 3.0))
        M = build_matrix(FamilyRealization(FamilyParams(n, r), a, b))
        derived = family_char_coeffs(n, r, [Fraction(x) for x in a], Fraction(b))
        assert derived == exact_char_coeffs(M)


def test_family_jacobian_matches_unit_steps():
    # every coefficient is affine in each single entry, so a unit step is the exact derivative
    rng = np.random.default_rng(3)
    for n, r in ((3, 2), (6, 2), (7, 4), (5, 5)):
        a = [Fraction(x) for x in rng.uniform(0.1, 3.0, n - 1)]
        b = Fraction(float(rng.uniform(0.1, 3.0)))
        base = family_char_coeffs(n, r, a, b)
        steps = [a[:k] + [a[k] + 1] + a[k + 1:] for k in range(n - 1)]
        cols = [family_char_coeffs(n, r, x, b) for x in steps]
        cols.append(family_char_coeffs(n, r, a, b + 1))
        want = [[cols[k][i] - base[i] for k in range(n)] for i in range(n)]
        assert family_jacobian(n, r, a, b) == want


def test_root_count_below():
    p = [-6, 11, -6, 1]  # (t - 1)(t - 2)(t - 3)
    assert count_roots_below(p, Fraction(5, 2)) == 2
    assert count_roots_below(p, Fraction(2)) == 2  # the endpoint counts
    assert count_roots_below(p, Fraction(1, 2)) == 0
    assert count_roots_below([1, 0, 1], Fraction(100)) == 0  # t^2 + 1


def test_nilpotent_checks_accept_certificate_and_reject_perturbation():
    n, r = 9, 3
    cert = nilpotent_realization(FamilyParams(n, r))
    br = cert.bracket
    assert check_nilpotent_bracket(n, r, br.lo, br.hi) == []
    # a bracket moved above the root no longer shows the sign change
    assert check_nilpotent_bracket(n, r, br.hi, br.hi + br.width) != []
    # a bracket past a later root is caught by the root count below lo
    assert any("root(s) in (0, lo]" in p for p in check_nilpotent_bracket(n, r, br.hi, Fraction(10**6)))
    rep = jacobian_det(cert.realization())
    assert check_nilpotent_point(n, r, cert.a0, cert.t_h, rep.det_lu) == []
    assert check_nilpotent_point(n, r, cert.a0, cert.t_h, rep.det_lu * (1 + 1e-4)) != []


def test_exact_det_matches_hand_case_and_program_jacobian():
    assert exact_det([[0, 2], [3, 1]]) == -6
    assert exact_det([[2, 0, 1], [1, 3, 2], [1, 1, 2]]) == 6
    cert = nilpotent_realization(FamilyParams(6, 2))
    J = family_jacobian(6, 2, cert.a0, cert.t_h)
    program = jacobian_det(cert.realization())
    assert abs(float(exact_det(J)) - program.det_lu) <= 1e-9 * abs(program.det_lu)
    J[3][2] += 1
    assert abs(float(exact_det(J)) - program.det_lu) > 1e-6 * abs(program.det_lu)
