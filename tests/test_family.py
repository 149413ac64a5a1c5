import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sapcert.charpoly import char_coeffs, char_coeffs_oracle
from sapcert.errors import InvalidInput
from sapcert.family import (
    MAX_N,
    FamilyParams,
    FamilyRealization,
    build_matrix,
    build_pattern,
    coeff_map,
    coeff_values_batch,
    eliminate_integers,
)
from sapcert.patterns import Sign, member_of_class, nonzero_count
from sapcert.polyroots import IntPolynomial
from sapcert.realize import _scaled_target


def test_params_validation():
    FamilyParams(2, 2)
    with pytest.raises(InvalidInput):
        FamilyParams(2, 3)
    with pytest.raises(InvalidInput):
        FamilyParams(3, 1)
    FamilyParams(MAX_N, 2)
    with pytest.raises(InvalidInput, match=f"MAX_N={MAX_N}"):
        FamilyParams(MAX_N + 1, 2)


def test_pattern_2_2_is_the_basic_example():
    pat = build_pattern(FamilyParams(2, 2))
    assert [[s.value for s in row] for row in pat.entries] == [["+", "-"], ["+", "-"]]


def test_pattern_3_2_layout():
    pat = build_pattern(FamilyParams(3, 2))
    assert [[s.value for s in row] for row in pat.entries] == [
        ["+", "-", "0"],
        ["+", "0", "-"],
        ["0", "+", "-"],
    ]


def test_pattern_structure_generic():
    for n in range(2, 16):
        for r in range(2, n + 1):
            pat = build_pattern(FamilyParams(n, r))
            assert nonzero_count(pat) == 2 * n
            for i in range(n - 1):
                assert pat[i, 0] is Sign.PLUS
                assert pat[i, i + 1] is Sign.MINUS
            assert pat[n - 1, n - r] is Sign.PLUS
            assert pat[n - 1, n - 1] is Sign.MINUS


def test_pattern_is_memoized_and_bounded():
    # one shared pattern per (n, r), so its cached sign grid is built once;
    # the memo is bounded because a pattern at MAX_N is about 1 MB
    p = FamilyParams(7, 3)
    assert build_pattern(p) is build_pattern(FamilyParams(7, 3))
    assert build_pattern(p) is not build_pattern(FamilyParams(7, 4))
    assert build_pattern.cache_info().maxsize == 64


def test_pattern_r_equals_n_feedback_in_first_column():
    pat = build_pattern(FamilyParams(4, 4))
    assert pat[3, 0] is Sign.PLUS


def test_build_matrix_example_2x2():
    x = FamilyRealization(FamilyParams(2, 2), a=(1.0,), b=1.0)
    assert build_matrix(x).tolist() == [[1.0, -1.0], [1.0, -1.0]]


def test_build_matrix_example_3x2():
    x = FamilyRealization(FamilyParams(3, 2), a=(1.0, 0.5), b=0.5)
    assert build_matrix(x).tolist() == [
        [1.0, -1.0, 0.0],
        [0.5, 0.0, -1.0],
        [0.0, 0.5, -1.0],
    ]


def test_build_matrix_is_class_member():
    rng = np.random.default_rng(11)
    for _ in range(30):
        n = int(rng.integers(2, 10))
        r = int(rng.integers(2, n + 1))
        x = FamilyRealization(
            FamilyParams(n, r),
            a=tuple(rng.uniform(0.1, 5.0, n - 1)),
            b=float(rng.uniform(0.1, 5.0)),
        )
        assert member_of_class(build_matrix(x), build_pattern(x.params))


def test_realization_validation():
    with pytest.raises(InvalidInput):
        FamilyRealization(FamilyParams(3, 2), a=(1.0,), b=1.0)
    with pytest.raises(InvalidInput):
        FamilyRealization(FamilyParams(3, 2), a=(1.0, -0.5), b=1.0)
    with pytest.raises(InvalidInput):
        FamilyRealization(FamilyParams(3, 2), a=(1.0, 0.5), b=0.0)


def test_coeff_map_nilpotent_point_3_2():
    x = FamilyRealization(FamilyParams(3, 2), a=(1.0, 0.5), b=0.5)
    assert coeff_map(x).values == pytest.approx((0.0, 0.0, 0.0), abs=1e-15)


def test_coeff_map_hand_example_4_2():
    x = FamilyRealization(FamilyParams(4, 2), a=(1.0, 2.0, 3.0), b=1.0)
    assert coeff_map(x).values == pytest.approx((0.0, 2.0, 2.0, -1.0))


def test_coeff_map_r_equal_n_matches_oracle():
    rng = np.random.default_rng(14)
    for n in range(2, 13):
        x = FamilyRealization(
            FamilyParams(n, n),
            a=tuple(rng.uniform(0.05, 4.0, n - 1)),
            b=float(rng.uniform(0.05, 4.0)),
        )
        oracle = char_coeffs_oracle(build_matrix(x)).values
        scale = max(1.0, max(x.a), x.b) ** n
        assert np.allclose(coeff_map(x).values, oracle, rtol=0, atol=1e-10 * scale), n


def test_coeff_map_matches_char_coeffs():
    rng = np.random.default_rng(12)
    for _ in range(300):
        n = int(rng.integers(3, 13))
        r = int(rng.integers(2, n))
        x = FamilyRealization(
            FamilyParams(n, r),
            a=tuple(rng.uniform(0.05, 4.0, n - 1)),
            b=float(rng.uniform(0.05, 4.0)),
        )
        closed = coeff_map(x)
        direct = char_coeffs(build_matrix(x))
        scale = max(1.0, max(x.a), x.b) ** n
        for u, v in zip(closed.values, direct.values):
            assert abs(u - v) <= 1e-10 * scale


def test_coeff_values_handles_r_equal_n():
    rng = np.random.default_rng(13)
    for n in range(2, 9):
        a = tuple(rng.uniform(0.1, 3.0, n - 1))
        b = float(rng.uniform(0.1, 3.0))
        x = FamilyRealization(FamilyParams(n, n), a=a, b=b)
        closed = coeff_values_batch(n, n, np.array([a]), np.array([b]))[0]
        direct = char_coeffs(build_matrix(x)).values
        assert np.allclose(closed, direct, atol=1e-10 * max(1.0, max(a), b) ** n)


def test_coeff_map_is_affine_in_each_parameter():
    # finite differences of an affine map are step-independent
    p = FamilyParams(6, 3)
    rng = np.random.default_rng(14)
    a = tuple(rng.uniform(0.5, 2.0, 5))
    b = 0.7
    base = np.array(coeff_map(FamilyRealization(p, a, b)).values)
    for k in range(5):
        diffs = []
        for h in (1e-3, 1e-5):
            up = list(a)
            up[k] += h
            dn = list(a)
            dn[k] -= h
            fu = np.array(coeff_map(FamilyRealization(p, tuple(up), b)).values)
            fd = np.array(coeff_map(FamilyRealization(p, tuple(dn), b)).values)
            diffs.append((fu - fd) / (2 * h))
        assert np.allclose(diffs[0], diffs[1], atol=1e-8)


def test_coeff_values_batch_matches_scalar():
    rng = np.random.default_rng(15)
    for (n, r) in [(5, 2), (6, 4), (4, 4), (7, 7)]:
        a = rng.uniform(0.1, 3.0, (40, n - 1))
        b = rng.uniform(0.1, 3.0, 40)
        batch = coeff_values_batch(n, r, a, b)
        for k in range(40):
            x = FamilyRealization(FamilyParams(n, r), tuple(a[k]), float(b[k]))
            assert np.allclose(batch[k], char_coeffs(build_matrix(x)).values)


def test_coeff_values_batch_deleted_corner_matches_oracle():
    # corner 0: v_j = a_j (+ b a_{j-r} for j >= r), v_n = b a_{n-r}
    rng = np.random.default_rng(16)
    for n in range(2, 13):
        for r in range(2, n + 1):
            a = 10.0 ** rng.uniform(-2.0, 1.0, (2, n - 1))
            b = 10.0 ** rng.uniform(-2.0, 1.0, 2)
            got = coeff_values_batch(n, r, a, b, corner=0.0)
            for k in range(2):
                x = FamilyRealization(FamilyParams(n, r), tuple(a[k]), float(b[k]))
                M = build_matrix(x)
                M[n - 1, n - 1] = 0.0
                want = char_coeffs_oracle(M).values
                np.testing.assert_allclose(got[k], want, rtol=1e-12, err_msg=f"n={n} r={r}")


def _closed_form_target(n, r, a, b):
    # alpha_j = a_j - a_{j-1} (+ b a_{j-r} for j >= r), alpha_n = b a_{n-r} - a_{n-1}
    full = [Fraction(1)] + list(a)
    alpha = [full[j] - full[j - 1] + (b * full[j - r] if j >= r else 0) for j in range(1, n)]
    return alpha + [b * full[n - r] - full[n - 1]]


def _eliminate(n, r, alpha):
    # the pair realize runs at the unscaled target: (D, [a'_j], g') as polynomials
    scale, steps = _scaled_target([Fraction(v).as_integer_ratio() for v in alpha], 1, 1)
    a, g = eliminate_integers(n, r, scale, steps)
    return scale, [IntPolynomial(cs) for cs in a], None if g is None else IntPolynomial(g)


def test_eliminate_round_trips_exact_realizations():
    rnd = random.Random(18)
    for n, r in [(3, 2), (4, 2), (5, 3), (6, 2), (7, 5), (8, 3), (10, 9), (12, 4)]:
        for _ in range(10):
            a = [Fraction(rnd.randint(1, 400), rnd.choice([1, 3, 8, 35])) for _ in range(n - 1)]
            b = Fraction(rnd.randint(1, 90), rnd.choice([1, 7, 16]))
            alpha = _closed_form_target(n, r, a, b)
            scale, a_polys, g = _eliminate(n, r, alpha)
            assert scale > 0 and all((v * scale).denominator == 1 for v in alpha)
            assert len(a_polys) == n and a_polys[0].coeffs == (scale,)
            assert [q(b) / scale for q in a_polys[1:]] == a
            assert g is not None and g(b) == 0


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_eliminated_degrees_are_exact(data):
    # once a'_1..a'_{r-1} are positive the leading coefficient of a'_j has
    # the sign (-1)^(j // r), so none cancels: a'_j has degree j // r and
    # g' degree n // r, and at 2r > n g' is linear with a positive slope
    n = data.draw(st.integers(2, 16))
    r = data.draw(st.integers(2, n))
    scale = data.draw(st.integers(1, 64))
    steps = data.draw(st.lists(st.integers(-2 * scale, 4 * scale), min_size=n, max_size=n))
    a, g = eliminate_integers(n, r, scale, steps)
    if g is None:
        # the elimination stopped at the first constant that is not positive
        assert len(a) <= r and not (a[-1] and a[-1][0] > 0)
        return
    assert len(a) == n
    assert [len(cs) - 1 for cs in a] == [j // r for j in range(n)]
    assert len(g) - 1 == n // r
    if 2 * r > n:
        assert len(g) == 2 and g[1] > 0


def test_eliminate_at_zero_is_the_nilpotent_recurrence():
    from sapcert.nilpotent import recurrence_polys

    def minus_t_times(p, q):
        # p - t q on ascending integer lists, trailing zeros dropped
        out = p + [0] * max(0, len(q) + 1 - len(p))
        for i, c in enumerate(q):
            out[i + 1] -= c
        while out and out[-1] == 0:
            out.pop()
        return out

    for n in range(3, 41):
        for r in range(2, n):
            scale, a_polys, g = _eliminate(n, r, [0] * n)
            # reference: a_0 = ... = a_{r-1} = 1, a_j = a_{j-1} - t a_{j-r}
            ref = [[1]] * r
            for j in range(r, n):
                ref.append(minus_t_times(ref[j - 1], ref[j - r]))
            h = minus_t_times(ref[n - 1], ref[n - r])
            ref_polys = [IntPolynomial(tuple(cs)) for cs in ref]
            assert scale == 1 and a_polys == ref_polys
            assert [-c for c in g.coeffs] == h
            want = (tuple(ref_polys), IntPolynomial(tuple(h)))
            assert recurrence_polys(FamilyParams(n, r)) == want
