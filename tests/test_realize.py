import numpy as np
import pytest

from sapcert.charpoly import CoeffVector, char_coeffs, char_coeffs_oracle, spectrum
from sapcert.errors import ConvergenceError, InvalidInput
from sapcert.family import FamilyParams, build_pattern
from sapcert.nilpotent import nilpotent_realization
from sapcert.patterns import Sign, is_superpattern, member_of_class, member_of_class_tol
from sapcert.realize import newton_solve, realize, realize_superpattern


def test_zero_target_recovers_nilpotent_certificate():
    p = FamilyParams(4, 2)
    cert = nilpotent_realization(p)
    res = realize(p, CoeffVector((0.0, 0.0, 0.0, 0.0)))
    assert res.scaling_c == 1.0
    assert res.params.b == pytest.approx(cert.t_h, abs=1e-12)
    assert res.params.a == pytest.approx(cert.a0, abs=1e-12)


def test_realize_3_2_hand_elimination():
    # alpha = (6, 11, 6): a_1 = 7, a_2 = 18 - b, g(b) = 8b - 24 => b = 3
    res = realize(FamilyParams(3, 2), CoeffVector((6.0, 11.0, 6.0)))
    assert res.scaling_c == 1.0
    assert res.params.a == pytest.approx((7.0, 15.0), abs=1e-12)
    assert res.params.b == pytest.approx(3.0, abs=1e-12)
    eigs = spectrum(res.matrix)
    assert eigs == pytest.approx((1.0, 2.0, 3.0), abs=1e-6)


def test_realize_requires_matching_length():
    with pytest.raises(InvalidInput):
        realize(FamilyParams(3, 2), CoeffVector((1.0, 2.0)))


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_realize_rejects_non_finite_targets(bad):
    target = CoeffVector((bad, 1.0, 1.0))
    with pytest.raises(InvalidInput, match="finite"):
        realize(FamilyParams(3, 2), target)
    with pytest.raises(InvalidInput, match="finite"):
        realize_superpattern(FamilyParams(3, 2), [], target)


def test_realize_r_equal_n_round_trips_against_oracle():
    rng = np.random.default_rng(43)
    for n in range(2, 13):
        p = FamilyParams(n, n)
        pat = build_pattern(p)
        for _ in range(5):
            alpha = tuple(rng.uniform(-5, 5, n))
            res = realize(p, CoeffVector(alpha))
            assert member_of_class(res.matrix, pat)
            scale = max(1.0, max(abs(v) for v in alpha))
            assert res.residual <= 1e-8 * scale
            oracle = char_coeffs_oracle(res.matrix).values
            assert np.allclose(oracle, alpha, rtol=0, atol=1e-7 * scale), (n, alpha)


def test_realize_random_targets_4_2():
    rng = np.random.default_rng(41)
    p = FamilyParams(4, 2)
    pat = build_pattern(p)
    for _ in range(100):
        alpha = tuple(rng.uniform(-5, 5, 4))
        res = realize(p, CoeffVector(alpha))
        scale = max(1.0, max(abs(v) for v in alpha))
        assert res.residual <= 1e-8 * scale
        assert member_of_class(res.matrix, pat)
        assert member_of_class_tol(res.matrix, pat, eps=1e-12)


def test_realize_smallest_admissible_root_is_chosen():
    # g may have several positive roots; the delivered b must be the least
    # admissible one: re-derive g and check no smaller admissible root
    rng = np.random.default_rng(42)
    from fractions import Fraction
    from math import lcm

    from sapcert.polyroots import IntPolynomial, positive_roots, sign_at_root

    def int_poly(fracs):
        den = lcm(*(c.denominator for c in fracs))
        return IntPolynomial.from_coeffs(c * den for c in fracs)

    for _ in range(20):
        alpha = tuple(rng.uniform(-2, 2, 4))
        res = realize(FamilyParams(4, 2), CoeffVector(alpha))
        if res.scaling_c != 1.0:
            continue
        av = [Fraction(v) for v in alpha]
        # ascending coefficients in b: a_2 = a_1 - b + alpha_2,
        # a_3 = a_2 - b a_1 + alpha_3, g = b a_2 - a_3 - alpha_4
        a1 = av[0] + 1
        a2 = [a1 + av[1], Fraction(-1)]
        a3 = [a2[0] + av[2], a2[1] - a1]
        g = [-a3[0] - av[3], a2[0] - a3[1], a2[1]]
        roots = list(positive_roots(int_poly(g)))
        admissible = []
        for br in roots:
            if all(sign_at_root(int_poly(q), br) == 1 for q in (a2, a3)) and a1 > 0:
                admissible.append(float(br.midpoint))
        assert admissible, alpha
        assert res.params.b == pytest.approx(min(admissible), abs=1e-9)


def test_realize_scaling_ladder_engages():
    # alpha_1 < -1 forces a_1 <= 0 at c = 1, so scaling must kick in
    p = FamilyParams(5, 2)
    alpha = (-4.0, 3.0, -2.0, 1.0, 2.0)
    res = realize(p, CoeffVector(alpha))
    assert res.scaling_c < 1.0
    assert member_of_class(res.matrix, build_pattern(p))
    got = char_coeffs(res.matrix)
    assert got.values == pytest.approx(alpha, abs=1e-8 * 4)


def test_realize_scaling_identity():
    p = FamilyParams(6, 3)
    rng = np.random.default_rng(43)
    alpha = tuple(rng.uniform(-5, 5, 6))
    res = realize(p, CoeffVector(alpha))
    c = res.scaling_c
    scaled = char_coeffs(c * res.matrix)
    for j, v in enumerate(alpha, start=1):
        assert scaled.values[j - 1] == pytest.approx(v * c**j, abs=1e-8)


def test_realize_spectrum_fidelity():
    rng = np.random.default_rng(44)
    for (n, r) in [(4, 2), (6, 3), (8, 5)]:
        # self-conjugate spectrum: real values plus a conjugate pair
        reals = rng.uniform(-2, 2, n - 2)
        z = complex(rng.uniform(-1, 1), rng.uniform(0.2, 1.5))
        eigs = sorted(list(reals) + [z, z.conjugate()], key=lambda w: (w.real, w.imag))
        monic = np.real(np.poly(np.array(eigs)))
        alpha = tuple(((-1.0) ** j) * monic[j] for j in range(1, n + 1))
        res = realize(FamilyParams(n, r), CoeffVector(alpha))
        got = sorted(spectrum(res.matrix), key=lambda w: (w.real, w.imag))
        for a, b in zip(got, eigs):
            assert abs(a - b) <= 1e-5


def test_newton_solve_scalar_one_step():
    res = newton_solve(
        lambda x: x - 1.0,
        lambda x: np.array([[1.0]]),
        np.array([5.0]),
        tol=1e-12,
        max_iter=10,
    )
    assert res.x[0] == pytest.approx(1.0)
    assert res.iterations == 1


def test_newton_solve_zero_iterations_at_fixed_point():
    res = newton_solve(
        lambda x: x - 1.0,
        lambda x: np.array([[1.0]]),
        np.array([1.0]),
        tol=1e-12,
        max_iter=10,
    )
    assert res.iterations == 0


def test_newton_solve_respects_positive_mask():
    # root at -2 is barred; the solver must fail rather than cross zero
    def F(x):
        return np.array([x[0] + 2.0])

    with pytest.raises(ConvergenceError) as err:
        newton_solve(
            F,
            lambda x: np.array([[1.0]]),
            np.array([1.0]),
            tol=1e-12,
            max_iter=8,
            positive_mask=[True],
        )
    assert err.value.best is not None


def test_newton_solve_small_system():
    p = FamilyParams(6, 3)
    cert = nilpotent_realization(p)
    from sapcert.family import FamilyRealization, coeff_map

    rng = np.random.default_rng(45)
    target = rng.uniform(-0.1, 0.1, 6)

    def F(x):
        reali = FamilyRealization(p, a=tuple(x[:-1]), b=float(x[-1]))
        return np.array(coeff_map(reali).values) - target

    def J(x):
        out = np.zeros((6, 6))
        for k in range(6):
            up, dn = x.copy(), x.copy()
            up[k] += 1e-6
            dn[k] -= 1e-6
            out[:, k] = (F(up) - F(dn)) / 2e-6
        return out

    x0 = np.array(list(cert.a0) + [cert.t_h])
    res = newton_solve(F, J, x0, tol=1e-10, max_iter=25, positive_mask=[True] * 6)
    assert res.iterations <= 25
    assert np.max(np.abs(F(res.x))) <= 1e-10


def test_superpattern_empty_extra_agrees_with_realize():
    p = FamilyParams(4, 2)
    alpha = (0.5, -0.3, 0.2, 0.1)
    direct = realize(p, CoeffVector(alpha))
    via_newton = realize_superpattern(p, [], CoeffVector(alpha))
    got_a = char_coeffs(direct.matrix).values
    got_b = char_coeffs(via_newton.matrix).values
    assert got_a == pytest.approx(got_b, abs=1e-8)


def test_superpattern_with_extra_entry():
    p = FamilyParams(4, 2)
    extra = [(1, 3, Sign.MINUS)]  # (2,4) in 1-based terms: a zero slot
    res = realize_superpattern(p, extra, CoeffVector((1.0, 0.0, 0.0, 0.0)))
    assert res.residual <= 1e-8
    assert res.matrix[1, 3] < 0
    base = build_pattern(p)
    super_pat = base.with_entry(1, 3, Sign.MINUS)
    assert is_superpattern(super_pat, base)
    assert member_of_class(res.matrix, super_pat)


def test_superpattern_rejects_nonzero_extra_position():
    p = FamilyParams(3, 2)
    with pytest.raises(InvalidInput):
        realize_superpattern(p, [(2, 2, Sign.MINUS)], CoeffVector((0.0, 0.0, 0.0)))
    with pytest.raises(InvalidInput):
        realize_superpattern(p, [(0, 2, Sign.ZERO)], CoeffVector((0.0, 0.0, 0.0)))


def test_diagnostics_share_the_elimination_of_the_solver():
    from fractions import Fraction as F

    from sapcert.family import eliminate
    from sapcert.realize import _diagnose_scaled

    scale, a_polys, g = eliminate(4, 3, [F(-2), F(1), F(1), F(1)])
    assert g is None and scale == 1 and a_polys[-1].coeffs == (-1,)
    assert _diagnose_scaled(4, 3, [F(-2), F(1), F(1), F(1)]) == (
        "column value 1 is -1.000e+00 <= 0 before any root"
    )
    assert _diagnose_scaled(4, 3, [F(-1), F(1), F(1), F(1)]) == (
        "column value 1 is 0.000e+00 <= 0 before any root"
    )
    assert _diagnose_scaled(4, 2, [F(3), F(-2), F(1), F(5)]) == (
        "closing-poly coefficient signs -+-; 2 positive roots "
        "(b~1.438: min a_3=-4.192e+00; b~5.562: min a_3=-2.481e+01)"
    )
