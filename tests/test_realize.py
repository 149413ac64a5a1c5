import hashlib
import importlib
import json
import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sapcert.charpoly import CoeffVector, char_coeffs, char_coeffs_oracle, spectrum
from sapcert.errors import ConvergenceError, InvalidInput, RealizationFailed
from sapcert.family import FamilyParams, FamilyRealization, build_matrix, build_pattern
from sapcert.nilpotent import nilpotent_realization
from sapcert.patterns import Sign, is_superpattern, member_of_class, member_of_class_tol
from sapcert.realize import newton_solve, realize, realize_superpattern

# the package namespace binds ``sapcert.realize`` to the function
realize_module = importlib.import_module("sapcert.realize")


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
            if all(sign_at_root(int_poly(q), br)[0] == 1 for q in (a2, a3)) and a1 > 0:
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


def test_realize_layer_digest_is_pinned():
    # matrix bytes, scaling_c, residual, params and newton_iters of seeded
    # targets for every 2 <= r <= n, 3 <= n <= 8, most of them realized on
    # the scaling ladder, as recorded when b at 2r > n became the exact root
    rng = np.random.default_rng(2000)
    digest = hashlib.sha256()
    ladder = total = 0
    for n in range(3, 9):
        for r in range(2, n + 1):
            p = FamilyParams(n, r)
            for _ in range(6):
                res = realize(p, CoeffVector(tuple(rng.uniform(-5.0, 5.0, n))))
                total += 1
                ladder += res.scaling_c < 1.0
                fields = [res.scaling_c, res.residual, list(res.params.a), res.params.b, res.newton_iters]
                digest.update(res.matrix.astype("<f8").tobytes())
                digest.update(json.dumps(fields).encode())
    assert 2 * ladder > total
    assert digest.hexdigest() == (
        "54cf9e0902f94584de3faeca4722950b2d207c6235c5717b8278fdddd559704a"
    )


def _count_narrowings(monkeypatch):
    # (walk, its bracket before, its bracket after) per narrowing to _ROOT_WIDTH
    from sapcert import polyroots

    calls = []
    narrow = polyroots._Root.narrow

    def counted(root, width):
        before = root.bracket()
        out = narrow(root, width)
        if width == realize_module._ROOT_WIDTH:
            calls.append((root, before, out.bracket()))
        return out

    monkeypatch.setattr(polyroots._Root, "narrow", counted)
    return calls


def test_realize_refines_once_per_target(monkeypatch):
    # the root of the delivered scale is narrowed once per target; at
    # 2r > n it is exact, and narrowing it takes no step
    calls = _count_narrowings(monkeypatch)
    rng = np.random.default_rng(46)
    ladder = 0
    for n in range(3, 8):
        for r in range(2, n + 1):
            for _ in range(3):
                before = len(calls)
                res = realize(FamilyParams(n, r), CoeffVector(tuple(rng.uniform(-5.0, 5.0, n))))
                ladder += 2 * r <= n and res.scaling_c < 1.0
                assert len(calls) == before + 1
                _, bracket_before, bracket_after = calls[-1]
                if 2 * r > n:
                    assert bracket_before.exact is not None and bracket_after == bracket_before
    assert ladder > 0


def test_realize_failure_on_the_ladder_refines_nothing(monkeypatch):
    calls = _count_narrowings(monkeypatch)
    # the exact solution needs a scale below the ladder's floor of 2^-40
    with pytest.raises(RealizationFailed, match="no admissible solution"):
        realize(FamilyParams(3, 2), CoeffVector((-1e15, 1.0, -1.0)))
    assert calls == []


def test_realize_proof_bracket_narrower_than_root_width(monkeypatch):
    # the sign proofs start on the one-root intervals that isolation finds,
    # nodes of the dyadic tree at most 32 wide on these targets; with a
    # root width of 32 no proof's bracket is wider, so narrowing leaves the
    # walk as it is.
    # At every delivered scale b and all a_j must still be exactly
    # positive, and realize must return them or fail with a typed error.
    # Only 2r <= n keeps walks: at 2r > n no root is isolated
    from fractions import Fraction

    from sapcert.polyroots import IntPolynomial

    width = Fraction(32)
    monkeypatch.setattr(realize_module, "_ROOT_WIDTH", width)
    calls = _count_narrowings(monkeypatch)
    delivered = []
    deliver = realize_module._deliver

    def spy(p, target, c, sol):
        delivered.append(sol)
        return deliver(p, target, c, sol)

    monkeypatch.setattr(realize_module, "_deliver", spy)
    rng = np.random.default_rng(47)
    targets = 0
    for n in (4, 5, 6, 7, 8):
        for r in range(2, n // 2 + 1):
            for _ in range(2):
                targets += 1
                try:
                    res = realize(FamilyParams(n, r), CoeffVector(tuple(rng.uniform(-5.0, 5.0, n))))
                except RealizationFailed:
                    continue
                assert res.params.b > 0 and all(v > 0 for v in res.params.a)
    assert len(delivered) == len(calls) == targets
    for sol, (root, before, after) in zip(delivered, calls):
        assert root is sol.root and after == before
        assert before.exact is not None or before.width <= width
        b = after.midpoint
        assert b > 0 and all(IntPolynomial(q)(b) > 0 for q in sol.a)


def test_realize_evaluates_g_at_no_end_of_an_isolated_interval(monkeypatch):
    # isolation reads g's signs at the ends of each one-root interval from
    # the node's interval polynomial, and the sign proofs and the delivery
    # step on along the same walk: g is evaluated at midpoints only
    from fractions import Fraction

    from sapcert import polyroots

    handed, evaluated = [], set()
    rational_root, homogeneous = polyroots._rational_root, polyroots._homogeneous

    def spied_rational_root(ints, a, b, d, *rest):
        # called once on every one-root interval that is not a midpoint hit
        out = rational_root(ints, a, b, d, *rest)
        if out is None:
            handed.append((tuple(ints), Fraction(a, d), Fraction(b, d)))
        return out

    def spied_homogeneous(ints, p, q):
        evaluated.add((tuple(ints), Fraction(p, q)))
        return homogeneous(ints, p, q)

    monkeypatch.setattr(polyroots, "_rational_root", spied_rational_root)
    monkeypatch.setattr(polyroots, "_homogeneous", spied_homogeneous)
    # the unscaled system has no admissible root: realize walks the roots
    # of every scale it solves, as g has degree floor(7/2) = 3
    res = realize(FamilyParams(7, 2), CoeffVector((-4.0, 3.0, -2.0, 1.0, 2.0, -1.0, 3.0)))
    assert res.scaling_c < 1.0
    polys = {cs for cs, _, _ in handed}
    assert len(handed) >= 10 and any(cs in polys for cs, _ in evaluated)
    ends = {(cs, x) for cs, lo, hi in handed for x in (lo, hi)}
    assert not ends & evaluated


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


def _reference_newton_jacobian(p, extra, x, eps, scaled_alpha):
    # the per-column central-difference loop that the stacked pass replaced
    n = p.n

    def matrix_at(y):
        M = build_matrix(FamilyRealization(params=p, a=tuple(y[:-1]), b=float(y[-1])))
        for (i, j, s) in extra:
            M[i, j] = eps if s is Sign.PLUS else -eps
        return M

    def F(y):
        return np.array(char_coeffs(matrix_at(y)).values) - scaled_alpha

    out = np.zeros((n, n))
    for k in range(n):
        h = 1e-6 * max(1.0, abs(x[k]))
        up = x.copy()
        up[k] += h
        dn = x.copy()
        dn[k] -= h
        out[:, k] = (F(up) - F(dn)) / (2 * h)
    return out


@st.composite
def _newton_point(draw, tiny=False):
    n = draw(st.integers(3, 8))
    p = FamilyParams(n, draw(st.integers(2, n)))
    pattern = build_pattern(p)
    zeros = [(i, j) for i in range(n) for j in range(n) if pattern[i, j] is Sign.ZERO]
    positions = draw(st.lists(st.sampled_from(zeros), min_size=1, max_size=2, unique=True))
    extra = [(i, j, draw(st.sampled_from([Sign.PLUS, Sign.MINUS]))) for i, j in positions]
    x = np.array(draw(st.lists(st.floats(1e-5, 1e4), min_size=n, max_size=n)))
    if tiny:
        # a coordinate at or below its difference step h = 1e-6
        x[draw(st.integers(0, n - 1))] = draw(st.floats(5e-324, 1e-6))
    eps = draw(st.floats(1e-8, 1.0))
    scaled_alpha = np.array(draw(st.lists(st.floats(-10.0, 10.0), min_size=n, max_size=n)))
    return p, extra, x, eps, scaled_alpha


_NEWTON_SETTINGS = settings(max_examples=150, deadline=None, derandomize=True, database=None)


@_NEWTON_SETTINGS
@given(_newton_point())
def test_stacked_newton_jacobian_equals_per_column_loop_bitwise(point):
    want = _reference_newton_jacobian(*point)
    got = realize_module._newton_jacobian(*point)
    assert np.array_equal(got, want)


@_NEWTON_SETTINGS
@given(_newton_point(tiny=True))
def test_stacked_newton_jacobian_raises_the_loop_error_on_a_tiny_coordinate(point):
    with pytest.raises(InvalidInput) as want:
        _reference_newton_jacobian(*point)
    with pytest.raises(InvalidInput) as got:
        realize_module._newton_jacobian(*point)
    assert str(got.value) == str(want.value)
    assert str(got.value) == "realization parameters must be strictly positive"


def test_diagnostics_share_the_elimination_of_the_solver():
    from fractions import Fraction as F

    from sapcert.family import eliminate_integers
    from sapcert.realize import _diagnose_scaled, _scaled_target

    scale, steps = _scaled_target([(-2, 1), (1, 1), (1, 1), (1, 1)], 1, 1)
    a, g = eliminate_integers(4, 3, scale, steps)
    assert g is None and scale == 1 and a[-1] == (-1,)
    assert _diagnose_scaled(4, 3, [F(-2), F(1), F(1), F(1)], F(1)) == (
        "column value 1 is -1.000e+00 <= 0 before any root"
    )
    assert _diagnose_scaled(4, 3, [F(-1), F(1), F(1), F(1)], F(1)) == (
        "column value 1 is 0.000e+00 <= 0 before any root"
    )
    assert _diagnose_scaled(4, 2, [F(3), F(-2), F(1), F(5)], F(1)) == (
        "closing-poly coefficient signs -+-; 2 positive roots "
        "(b~1.438: min a_3=-4.192e+00; b~5.562: min a_3=-2.481e+01)"
    )


def _parent_solve_scaled(n, r, alpha, m, q):
    # the loop realize ran before the linear bound: every positive root of
    # g isolated in turn, and each of a_r..a_{n-1} proved on its walk; the
    # first admissible walk, or None
    from sapcert.family import eliminate_integers
    from sapcert.polyroots import IntPolynomial, _isolated

    scale, steps = realize_module._scaled_target(alpha, m, q)
    a, g_coeffs = eliminate_integers(n, r, scale, steps)
    if g_coeffs is None:
        return None
    for root in _isolated(IntPolynomial(g_coeffs), realize_module._ROOT_WIDTH):
        if all(root.sign(cs) == 1 for cs in a[r:]):
            return root
    return None


def _walk_end(root):
    # the walk's node as a reduced interval: a tree cut at a lower top keeps
    # every node, over a smaller denominator, so (6, 7, 16) is (48, 56, 128)
    return Fraction(root.a, root.d), Fraction(root.b, root.d), root.exact


def _narrowed_b(root):
    # b as _deliver takes it from a walk: narrowed to _ROOT_WIDTH
    root.narrow(realize_module._ROOT_WIDTH)
    return root.exact if root.exact is not None else Fraction(root.a + root.b, 2 * root.d)


@st.composite
def _scaled_system(draw):
    # (n, r, alpha as (numerator, denominator) pairs, m, q): integer,
    # small-rational or float targets at a dyadic scale m / 2^e in (0, 1]
    n = draw(st.integers(3, 12))
    r = draw(st.integers(2, n))
    kind = draw(st.sampled_from(["integer", "rational", "float"]))
    if kind == "integer":
        alpha = [(v, 1) for v in draw(st.lists(st.integers(-6, 6), min_size=n, max_size=n))]
    elif kind == "rational":
        nums = draw(st.lists(st.integers(-40, 40), min_size=n, max_size=n))
        dens = draw(st.lists(st.integers(1, 12), min_size=n, max_size=n))
        alpha = [Fraction(v, d).as_integer_ratio() for v, d in zip(nums, dens)]
    else:
        alpha = [v.as_integer_ratio() for v in draw(st.lists(st.floats(-5.0, 5.0), min_size=n, max_size=n))]
    e = draw(st.integers(0, 8))
    m = draw(st.integers(1, 1 << e))
    return n, r, alpha, m, 1 << e


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(_scaled_system())
def test_linear_bound_keeps_every_verdict_and_walk_end(system):
    # the bound B of the linear column values only skips roots and proofs
    # that cannot change the verdict, and its one proof stops the walk
    # where the proofs of a_r..a_{min(2r,n)-1} in turn would; at 2r > n,
    # where no walk is kept, the exact root lies in the bracket that
    # narrowing the walk ends in, or is the walk's exact root
    want = _parent_solve_scaled(*system)
    sol = realize_module._solve_scaled(*system)
    assert (sol is None) == (want is None)
    if sol is None:
        return
    n, r = system[:2]
    if 2 * r > n:
        rho = sol.root.exact
        assert rho is not None and sol.root.poly(rho) == 0
        want.narrow(realize_module._ROOT_WIDTH)
        if want.exact is None:
            assert Fraction(want.a, want.d) < rho < Fraction(want.b, want.d)
        else:
            assert rho == want.exact
    else:
        assert _walk_end(sol.root) == _walk_end(want)


def test_linear_bound_prunes_roots_and_proofs_on_the_ladder(monkeypatch):
    # a_r..a_{min(2r,n)-1} are linear in b and share one sign proof per
    # walk, so at r = n/2 each walk gets one proof; no proof starts on a
    # walk at or past their least root B, and a scale with B <= 0 is
    # rejected before isolation.  Only 2r <= n isolates roots at all: at
    # floor(n/r) >= 3 on every scale, at floor(n/r) = 2 only on the
    # delivered one, whose walk runs in _deliver.  A scale is pruned at B
    # by a walk at or past B, or by the tree's top, 2^top >= B, when the
    # search finds nothing and g has a root at or past 2^top
    from sapcert import polyroots

    events = []
    eliminate, isolated, sign, deliver, walk = (
        realize_module.eliminate_integers,
        realize_module._isolated,
        polyroots._Root.sign,
        realize_module._deliver,
        realize_module._walk,
    )

    def spied_eliminate(n, r, scale, steps):
        a, g = eliminate(n, r, scale, steps)
        events.append(("scale", n, r, a, g))
        return a, g

    def spied_isolated(p, width, top=None, **kwargs):
        events.append(("isolate", top))
        for root in isolated(p, width, top, **kwargs):
            events.append(("walk", root, Fraction(root.a, root.d)))
            yield root

    def spied_sign(root, q):
        events.append(("sign", root))
        return sign(root, q)

    def spied_deliver(p, target, c, sol):
        events.append(("deliver", p.n, p.r, sol))
        return deliver(p, target, c, sol)

    def spied_walk(g, proofs):
        out = walk(g, proofs)
        events.append(("walked", out))
        return out

    monkeypatch.setattr(realize_module, "eliminate_integers", spied_eliminate)
    monkeypatch.setattr(realize_module, "_isolated", spied_isolated)
    monkeypatch.setattr(polyroots._Root, "sign", spied_sign)
    monkeypatch.setattr(realize_module, "_deliver", spied_deliver)
    monkeypatch.setattr(realize_module, "_walk", spied_walk)
    rng = np.random.default_rng(23)
    pairs = [(4, 2), (6, 3), (8, 4), (10, 5), (12, 6), (6, 2), (8, 3), (10, 4), (7, 2), (9, 3)]
    for n, r in pairs:
        for _ in range(6):
            try:
                realize(FamilyParams(n, r), CoeffVector(tuple(rng.uniform(-5.0, 5.0, n))))
            except RealizationFailed:
                pass
    scales = []  # (B or None, proofs per walk, g, the events of the scale)
    for event in events:
        if event[0] == "scale":
            _, n, r, a, g = event
            bound = None if g is None else min(Fraction(k0, -k1) for k0, k1 in a[r : 2 * r])
            scales.append((bound, 1 + max(0, n - 2 * r), g, []))
        elif event[0] == "deliver":
            # the delivered scale again: its walk, if not yet built
            _, n, r, sol = event
            bn, bd = sol.proofs[0][0], -sol.proofs[0][1]
            scales.append((Fraction(bn, bd), 1 + n - 2 * r, sol.g, []))
        else:
            scales[-1][3].append(event)
    rejected = pruned = proved = 0
    for bound, most, g, seen in scales:
        if bound is None or bound <= 0:
            rejected += bound is not None
            assert not seen
            continue
        walks = [e[1:] for e in seen if e[0] == "walk"]
        signed = [id(e[1]) for e in seen if e[0] == "sign"]
        assert all(signed.count(i) <= most for i in set(signed))
        for i, (root, lo) in enumerate(walks):
            if lo >= bound:
                # the scale ends at the first walk at or past B, unproved
                assert id(root) not in signed and i == len(walks) - 1
                pruned += 1
        tops = [e[1] for e in seen if e[0] == "isolate"]
        if tops and [e[1] for e in seen if e[0] == "walked"] == [None]:
            top = Fraction(2) ** tops[-1]
            roots = polyroots.positive_roots(polyroots.IntPolynomial(g))
            if all(lo < bound for _, lo in walks) and any(
                br.lo >= top or br.exact == top for br in roots
            ):
                pruned += 1
        if most == 1:
            proved += len(signed)
    # the ladder ran, and the rejection, the pruning and the proofs were
    # all exercised
    assert len(scales) > 100 and rejected > 10 and pruned > 10 and proved > 10


def test_realize_isolates_and_proves_nothing_at_2r_above_n(monkeypatch):
    # at 2r > n each scale is decided by comparing the root of the linear
    # closing polynomial with B, and b is that root, exact: on no scale of
    # the ladder is a root isolated, a sign proved or a bisection stepped,
    # and the one narrowing per target takes no step
    from sapcert import polyroots

    called = []

    def spy(name, f):
        def spied(*args, **kwargs):
            called.append(name)
            return f(*args, **kwargs)

        return spied

    monkeypatch.setattr(realize_module, "_isolated", spy("_isolated", realize_module._isolated))
    monkeypatch.setattr(polyroots, "_isolated", spy("_isolated", polyroots._isolated))
    monkeypatch.setattr(polyroots, "_square_free", spy("_square_free", polyroots._square_free))
    monkeypatch.setattr(polyroots, "_bisections", spy("_bisections", polyroots._bisections))
    monkeypatch.setattr(polyroots, "bisections", spy("bisections", polyroots.bisections))
    monkeypatch.setattr(polyroots._Root, "sign", spy("sign", polyroots._Root.sign))
    narrowed = _count_narrowings(monkeypatch)
    rng = np.random.default_rng(48)
    ladder = targets = 0
    for n in range(3, 11):
        for r in range(n // 2 + 1, n + 1):
            for _ in range(4):
                res = realize(FamilyParams(n, r), CoeffVector(tuple(rng.uniform(-5.0, 5.0, n))))
                ladder += res.scaling_c < 1.0
                targets += 1
    assert ladder > 20
    assert called == []
    assert len(narrowed) == targets
    assert all(before.exact is not None and after == before for _, before, after in narrowed)


def _walk_delivered_b(n, r, alpha, m, q):
    # _solve_scaled and _deliver as they ran at 2r > n with a Descartes
    # walk: g' isolated, the one sign proof against B, then the delivered
    # scale's walk narrowed to _ROOT_WIDTH; b, or None for no admissible root
    from sapcert.family import eliminate_integers
    from sapcert.polyroots import IntPolynomial, _isolated

    scale, steps = realize_module._scaled_target(alpha, m, q)
    a, g_coeffs = eliminate_integers(n, r, scale, steps)
    if g_coeffs is None:
        return None
    linear = a[r:]
    if any(k0 <= 0 for k0, _ in linear):
        return None
    bound = min((Fraction(k0, -k1) for k0, k1 in linear), default=None)
    for root in _isolated(IntPolynomial(g_coeffs), realize_module._ROOT_WIDTH):
        if bound is not None and Fraction(root.a, root.d) >= bound:
            return None
        if bound is None or root.sign((bound.numerator, -bound.denominator)) == 1:
            return _narrowed_b(root)
    return None


_CORNERS = ("free", "integer", "hit", "near_bound", "tiny", "nonpositive", "bound_nonpositive")
# the walk narrows a root to 2^-_ROOT_BITS
_ROOT_BITS = realize_module._ROOT_WIDTH.denominator.bit_length() - 1


@st.composite
def _steered_system(draw, corner):
    # (n, r, alpha, m, q) at 2r > n and a dyadic scale m / 2^e, with
    # alpha_n (alpha_r for bound_nonpositive) solved for so that the root
    # rho of g' falls where ``corner`` says; the values a_j(b) = a'_j / D
    # do not depend on the common denominator D, so neither does rho.
    # Also returns the root steered for, or None
    from sapcert.family import eliminate_integers

    n = draw(st.integers(3, 12))
    r = draw(st.integers(n // 2 + 1, n))
    e = draw(st.integers(0, 8))
    m, q = draw(st.integers(1, 1 << e)), 1 << e
    c = Fraction(m, q)
    if corner == "integer":
        alpha = [(v, 1) for v in draw(st.lists(st.integers(-6, 6), min_size=n, max_size=n))]
    elif draw(st.booleans()):
        alpha = [v.as_integer_ratio() for v in draw(st.lists(st.floats(-5.0, 5.0), min_size=n, max_size=n))]
    else:
        nums = draw(st.lists(st.integers(-40, 40), min_size=n, max_size=n))
        dens = draw(st.lists(st.integers(1, 12), min_size=n, max_size=n))
        alpha = [Fraction(v, d).as_integer_ratio() for v, d in zip(nums, dens)]
    if corner in ("free", "integer"):
        return n, r, alpha, m, q, None
    if corner == "bound_nonpositive":
        assume(r < n)
        scale, steps = realize_module._scaled_target(alpha, m, q)
        a, g = eliminate_integers(n, r, scale, steps)
        assume(g is not None)
        # a_r's constant a_{r-1} + alpha_r c^r, made -delta <= 0
        delta = draw(st.sampled_from([Fraction(0), Fraction(1, 3), Fraction(5)]))
        alpha[r - 1] = ((-delta - Fraction(a[r - 1][0], scale)) / c**r).as_integer_ratio()
        return n, r, alpha, m, q, None
    alpha[n - 1] = (0, 1)
    scale, steps = realize_module._scaled_target(alpha, m, q)
    a, g = eliminate_integers(n, r, scale, steps)
    assume(g is not None and all(k0 > 0 for k0, _ in a[r:]))
    # B, or at r = n, where there is none, the end of the range drawn from
    bound = min((Fraction(k0, -k1) for k0, k1 in a[r:]), default=Fraction(8))
    if corner == "hit":
        # a dyadic rho whose denominator 2^k exceeds the rational search's
        # limit and lies on the walk's path, so a midpoint hits it
        k = draw(st.integers(31, _ROOT_BITS))
        top = (math.ceil(bound * 2**k) - 2) // 2
        assume(top >= 0)
        rho = Fraction(2 * draw(st.integers(0, min(top, 1 << 62))) + 1, 2**k)
    elif corner == "near_bound":
        # the walk goes past _ROOT_WIDTH before its hi is below B
        assume(r < n)
        t = draw(st.integers(_ROOT_BITS + 1, 150))
        rho = bound - draw(st.sampled_from([Fraction(1), Fraction(1, 3)])) / 2**t
        width = realize_module._ROOT_WIDTH
        assume(rho > 0 and (rho // width + 1) * width >= bound)
    elif corner == "tiny":
        # the tree starts at (0, 2^e] with e < -_ROOT_BITS
        t = draw(st.integers(_ROOT_BITS + 3, 120))
        rho = Fraction(draw(st.integers(1, 1 << 20)), 2**t * draw(st.integers(1 << 20, 1 << 21)))
        assume(rho < bound)
    else:
        rho = -draw(st.sampled_from([Fraction(0), Fraction(1, 7), Fraction(3)]))
    # rho = (k0 + D alpha_n c^n) / g1 with k0 the constant of a'_{n-1}
    alpha[n - 1] = ((rho * g[1] - a[n - 1][0]) / (scale * c**n)).as_integer_ratio()
    return n, r, alpha, m, q, rho


@pytest.mark.parametrize("corner", _CORNERS)
@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_closed_form_matches_the_walk_at_2r_above_n(corner, data):
    # the verdict of the closed form is that of the Descartes walk, in
    # every corner of it, and an admitted scale delivers the exact root
    from sapcert.family import eliminate_integers
    from sapcert.polyroots import _bound_exponent

    n, r, alpha, m, q, rho = data.draw(_steered_system(corner))
    scale, steps = realize_module._scaled_target(alpha, m, q)
    _, g = eliminate_integers(n, r, scale, steps)
    # g' = g0 + g1 b with g1 >= a'_{n-r} > 0: never zero, never constant
    assert g is None or (len(g) == 2 and g[1] > 0)
    want = _walk_delivered_b(n, r, alpha, m, q)
    sol = realize_module._solve_scaled(n, r, alpha, m, q)
    got = None if sol is None else _narrowed_b(sol.root)
    assert (got is None) == (want is None)
    if got is not None:
        assert got == Fraction(-g[0], g[1])
    if rho is not None:
        assert Fraction(-g[0], g[1]) == rho
    if corner in ("nonpositive", "bound_nonpositive"):
        assert got is None
    elif corner in ("hit", "near_bound"):
        assert got == rho
    elif corner == "tiny":
        assert got is not None and _bound_exponent(g) < -_ROOT_BITS


def test_closed_form_admits_a_root_just_below_the_bound():
    # n = 3, r = 2, alpha = (0, 0, alpha_3): a_1 = 1, a_2 = 1 - b and
    # g = 2b - 1 - alpha_3, so B = 1 and rho = (1 + alpha_3) / 2, here
    # 1 - 2^-300 / 3.  The walk's sign proof of a_2 gives up after
    # _MAX_SIGN_REFINE steps past width 2^-8, near 2^-208, and rejected
    # the scale; the exact comparison admits it, and b is rho itself
    from sapcert import polyroots

    alpha3 = 1 - Fraction(1, 3 * 2**299)
    alpha = [(0, 1), (0, 1), alpha3.as_integer_ratio()]
    assert polyroots._MAX_SIGN_REFINE < 300
    assert _walk_delivered_b(3, 2, alpha, 1, 1) is None
    sol = realize_module._solve_scaled(3, 2, alpha, 1, 1)
    rho = 1 - Fraction(1, 3 * 2**300)
    assert _narrowed_b(sol.root) == rho
    res = realize_module._deliver(FamilyParams(3, 2), CoeffVector((0.0, 0.0, 1.0)), (1, 1), sol)
    assert res.scaling_c == 1.0 and res.params.b == 1.0
    assert res.params.a == (1.0, float(Fraction(1, 3 * 2**300)))


def _exact_solution_above_half(n, r, alpha, c):
    # (b, [a_1..a_{n-1}]) solving the coefficient equations at scale c, for
    # 2r > n, in Fractions: a_j = a_{j-1} - b a_{j-r} + alpha_j c^j with
    # a_0 = 1, so each a_j is k0 + k1 b and a_{j-r} (j - r < r) a constant,
    # and b a_{n-r} - a_{n-1} - alpha_n c^n = 0 is linear in b
    cols = [(Fraction(1), Fraction(0))]
    for j in range(1, n):
        k0, k1 = cols[j - 1]
        low = cols[j - r][0] if j >= r else 0
        cols.append((k0 + alpha[j - 1] * c**j, k1 - low))
    k0, k1 = cols[n - 1]
    b = (k0 + alpha[n - 1] * c**n) / (cols[n - r][0] - k1)
    return b, [k0 + k1 * b for k0, k1 in cols[1:]]


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_delivery_at_2r_above_n_is_the_correctly_rounded_exact_solution(data):
    # every double realize delivers at 2r > n, b and each a_j, is the
    # exact solution at the delivered scale, correctly rounded
    n = data.draw(st.integers(2, 12))
    r = data.draw(st.integers(n // 2 + 1, n))
    values = data.draw(st.lists(st.floats(-5.0, 5.0), min_size=n, max_size=n))
    try:
        res = realize(FamilyParams(n, r), CoeffVector(tuple(values)))
    except RealizationFailed:
        assume(False)
    alpha = [Fraction(v) for v in values]
    b, a = _exact_solution_above_half(n, r, alpha, Fraction(res.scaling_c))
    assert b > 0 and all(v > 0 for v in a)
    assert res.params.b == float(b)
    assert res.params.a == tuple(float(v) for v in a)


_QUADRATIC_CORNERS = ("free", "integer", "double", "complex", "rational", "at_bound")


@st.composite
def _quadratic_system(draw, corner):
    # (n, r, alpha, m, q) at floor(n/r) = 2 and a dyadic scale m / 2^e;
    # with "double", "rational" and "at_bound" alpha_n is solved for so
    # that g' has a root rho that is rational: the vertex -g1 / (2 g2)
    # (disc = 0), a multiple of B (disc a perfect square), or B itself;
    # "complex" takes the double root's alpha_n and lowers g' by a
    # positive constant, which leaves no real root as g2 < 0.
    # a_j(b) = a'_j / D and g'(b) / D do not depend on the common
    # denominator D, and alpha_n moves only g0, so neither does rho
    from sapcert.family import eliminate_integers
    from sapcert.polyroots import IntPolynomial

    n = draw(st.integers(4, 14))
    r = draw(st.integers(n // 3 + 1, n // 2))
    e = draw(st.integers(0, 8))
    m, q = draw(st.integers(1, 1 << e)), 1 << e
    if corner == "integer":
        alpha = [(v, 1) for v in draw(st.lists(st.integers(-6, 6), min_size=n, max_size=n))]
    else:
        alpha = [v.as_integer_ratio() for v in draw(st.lists(st.floats(-5.0, 5.0), min_size=n, max_size=n))]
    if corner in ("free", "integer"):
        return n, r, alpha, m, q
    alpha[n - 1] = (0, 1)
    scale, steps = realize_module._scaled_target(alpha, m, q)
    a, g = eliminate_integers(n, r, scale, steps)
    assume(g is not None and all(k0 > 0 for k0, _ in a[r : 2 * r]))
    bound = min(Fraction(k0, -k1) for k0, k1 in a[r : 2 * r])
    if corner in ("double", "complex"):
        rho = Fraction(-g[1], 2 * g[2])
    elif corner == "rational":
        rho = bound * Fraction(draw(st.integers(1, 15)), 8)
    else:
        rho = bound
    c = Fraction(m, q)
    lower = 0
    if corner == "complex":
        lower = draw(st.sampled_from([Fraction(1, 2**40), Fraction(1, 3), Fraction(7)]))
    alpha[n - 1] = (IntPolynomial(g)(rho) / (scale * c**n) + lower).as_integer_ratio()
    return n, r, alpha, m, q


@pytest.mark.parametrize("corner", _QUADRATIC_CORNERS)
@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_quadratic_closed_form_matches_the_walk(corner, data):
    # at floor(n/r) = 2 the closed form admits a scale exactly when the
    # Descartes walk does, and the one walk built for delivery ends where
    # that walk ends, at the root rho_s the closed form chose; at a
    # rational root each exact sign test equals the sign of the form there
    from dataclasses import replace

    from sapcert.family import eliminate_integers

    n, r, alpha, m, q = data.draw(_quadratic_system(corner))
    scale, steps = realize_module._scaled_target(alpha, m, q)
    a, g = eliminate_integers(n, r, scale, steps)
    sol = realize_module._solve_scaled(n, r, alpha, m, q)
    if g is None or any(k0 <= 0 for k0, _ in a[r : 2 * r]):
        assert sol is None
        return
    assert len(g) == 3 and g[2] < 0 and all(len(cs) == 3 for cs in a[2 * r :])
    bn, bd = min(((k0, -k1) for k0, k1 in a[r : 2 * r]), key=lambda t: Fraction(*t))
    proofs = [(bn, -bd), *a[2 * r :]]
    walk = realize_module._walk(g, proofs)
    assert (sol is None) == (walk is None)
    disc = g[1] ** 2 - 4 * g[0] * g[2]
    if corner == "double":
        assert disc == 0
    elif corner == "complex":
        assert disc < 0 and sol is None
    elif corner in ("rational", "at_bound"):
        assert math.isqrt(disc) ** 2 == disc
    if disc >= 0 and math.isqrt(disc) ** 2 == disc:
        for s in (-1, 1):
            rho = Fraction(-g[1] + s * math.isqrt(disc), 2 * g[2])
            for cs in [(0, 1), *proofs]:
                value = sum(c * rho**i for i, c in enumerate(cs))
                want = (value > 0) - (value < 0)
                assert realize_module._QuadraticRoots(g).sign(s, cs) == want
    if sol is None:
        return
    assert sol.root is not None and _walk_end(sol.root) == _walk_end(walk)
    if disc:
        # the walk ends at rho_s, not at the other root
        assert replace(sol, branch=-sol.branch).root is None


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(
    st.tuples(st.integers(-6, 6), st.integers(-6, 6), st.integers(-6, 6).filter(bool)),
    st.lists(st.integers(-6, 6), min_size=2, max_size=3),
    st.sampled_from([1, -1]),
)
def test_quadratic_sign_is_the_sign_at_the_root(g, q, s):
    # the exact sign test against sympy's sign of q at the root
    # (-g1 + s sqrt(disc)) / (2 g2), zeros and both signs of g2 included
    sympy = pytest.importorskip("sympy")
    g0, g1, g2 = g
    disc = g1 * g1 - 4 * g0 * g2
    assume(disc >= 0)
    rho = (-g1 + s * sympy.sqrt(disc)) / (2 * g2)
    value = sympy.expand(sum(c * rho**i for i, c in enumerate(q)))
    assert realize_module._QuadraticRoots(g).sign(s, tuple(q)) == int(sympy.sign(value))


def test_quadratic_closed_form_ends_in_a_typed_failure_past_the_sign_cap():
    # n = 4, r = 2, alpha = (0, 0, 0, alpha_4): a_1 = 1, a_2 = 1 - b,
    # a_3 = 1 - 2b and g = -b^2 + 3b - 1 - alpha_4, so B = 1/2.  alpha_4
    # puts the least root at rho = 1/2 - 2^-300 / 3; the other is
    # 3 - rho > B.  The closed form admits the scale; the delivery walk's
    # proof of 1 - 2b gives up after _MAX_SIGN_REFINE steps past width
    # 2^-8, so delivery ends in RealizationFailed
    from sapcert import polyroots

    rho = Fraction(1, 2) - Fraction(1, 3 * 2**300)
    alpha4 = -rho * rho + 3 * rho - 1
    alpha = [(0, 1), (0, 1), (0, 1), alpha4.as_integer_ratio()]
    assert polyroots._MAX_SIGN_REFINE < 300
    sol = realize_module._solve_scaled(4, 2, alpha, 1, 1)
    assert sol is not None and sol.walk is None
    assert realize_module._walk(sol.g, sol.proofs) is None
    target = CoeffVector((0.0, 0.0, 0.0, float(alpha4)))
    with pytest.raises(RealizationFailed, match="did not converge"):
        realize_module._deliver(FamilyParams(4, 2), target, (1, 1), sol)


def test_realize_isolates_once_per_call_at_floor_n_over_r_two(monkeypatch):
    # at floor(n/r) = 2 every scale is decided in closed form and only the
    # delivered one is walked: one isolation per successful call, none for
    # a ladder with no admissible scale, and none at all at 2r > n
    calls = []
    isolated = realize_module._isolated

    def spied(p, width, *args, **kwargs):
        calls.append(p)
        return isolated(p, width, *args, **kwargs)

    monkeypatch.setattr(realize_module, "_isolated", spied)
    rng = np.random.default_rng(49)
    ladder = 0
    for n in range(4, 13):
        for r in range(n // 3 + 1, n // 2 + 1):
            for _ in range(3):
                calls.clear()
                res = realize(FamilyParams(n, r), CoeffVector(tuple(rng.uniform(-5.0, 5.0, n))))
                ladder += res.scaling_c < 1.0
                assert len(calls) == 1
    assert ladder > 10
    calls.clear()
    # the exact solution needs a scale below the ladder's floor of 2^-40
    with pytest.raises(RealizationFailed, match="no admissible solution"):
        realize(FamilyParams(4, 2), CoeffVector((-1e15, 1.0, -1.0, 1.0)))
    for n, r in ((3, 2), (5, 3), (7, 4), (8, 8)):
        realize(FamilyParams(n, r), CoeffVector(tuple(rng.uniform(-5.0, 5.0, n))))
    assert calls == []


def test_quadratic_closed_form_admits_a_double_root():
    # n = 4, r = 2, alpha = (0, 3, 5, 0): a_1 = 1, a_2 = 4 - b, a_3 = 9 - 2b,
    # so B = 4, and g = -b^2 + 6b - 9 = -(b - 3)^2 has disc = 0; its double
    # root 3 lies in (0, B) and is delivered exactly, at scale 1
    alpha = [(0, 1), (3, 1), (5, 1), (0, 1)]
    sol = realize_module._solve_scaled(4, 2, alpha, 1, 1)
    assert sol.g == (-9, 6, -1) and sol.walk is None
    assert sol.root.exact == 3
    res = realize(FamilyParams(4, 2), CoeffVector((0.0, 3.0, 5.0, 0.0)))
    assert res.scaling_c == 1.0 and res.params.b == 3.0
    assert res.params.a == (1.0, 1.0, 3.0)
    # alpha_4 = 2^-40 lowers g to -(b - 3)^2 - 2^-40: disc < 0 and no
    # real root, though the vertex still lies in (0, B)
    assert realize_module._solve_scaled(4, 2, [*alpha[:3], (1, 2**40)], 1, 1) is None


def _parent_walk(g, proofs):
    # the walk realize ran before its tree was cut at B: (0, root_bound(g)]
    # on the square-free part of g, taken before isolation
    from sapcert.polyroots import IntPolynomial, _isolated

    bn, bd = proofs[0][0], -proofs[0][1]
    for root in _isolated(IntPolynomial(g), realize_module._ROOT_WIDTH):
        if root.a * bd >= bn * root.d:
            return None
        if all(root.sign(cs) == 1 for cs in proofs):
            return root
    return None


def _times(*factors):
    # the product of integer polynomials, ascending coefficient tuples
    out = (1,)
    for f in factors:
        prod = [0] * (len(out) + len(f) - 1)
        for i, x in enumerate(out):
            for j, y in enumerate(f):
                prod[i + j] += x * y
        out = tuple(prod)
    return out


def _ceil_log2(x):
    # the least k with x <= 2^k, for a positive Fraction x
    k = x.numerator.bit_length() - x.denominator.bit_length() + 1
    while Fraction(2) ** (k - 1) >= x:
        k -= 1
    return k


_WALK_CORNERS = (
    "free",
    "root_at_top",
    "bound_power_of_two",
    "bound_above_root_bound",
    "double_rational",
    "double_irrational",
    "close_pair",
)


@st.composite
def _walk_system(draw, corner):
    # (g, proofs) as _walk takes them: proofs[0] = bn - bd b, whose root is
    # B, then up to two forms of degree <= 3; g steered into ``corner``.
    # A root of g at 2^k for the least 2^k >= B, a power of two B, a B above
    # root_bound(g), a double rational root below B (as in (b - 1)^2 (b - 3)),
    # a double irrational one below B (as in (b^2 - 2)^2 (b - 3)) and two
    # simple roots 2^-80 apart; each times a small cofactor
    from sapcert.polyroots import IntPolynomial, root_bound

    small = st.integers(-6, 6)
    cofactor = tuple(draw(st.lists(small, min_size=1, max_size=3)))
    assume(cofactor[-1])
    if corner == "free":
        g = tuple(draw(st.lists(st.integers(-(2**40), 2**40), min_size=4, max_size=7)))
        assume(g[-1] and any(g[:-1]))
    elif corner in ("root_at_top", "bound_power_of_two", "bound_above_root_bound"):
        k = draw(st.integers(-6, 6))
        top = (1 << k, 1) if k >= 0 else (1, 1 << -k)
        g = _times((-top[0], top[1]), (draw(small), draw(small), 1), cofactor)
    elif corner == "double_rational":
        u, v = draw(st.integers(1, 40)), draw(st.integers(1, 12))
        g = _times((-u, v), (-u, v), (-3 * u - draw(st.integers(1, 9)), v), cofactor)
        double = Fraction(u, v)
    elif corner == "double_irrational":
        m = draw(st.sampled_from([2, 3, 5, 7, 11]))
        s = draw(st.integers(1, 8))
        g = _times((-m, 0, s * s), (-m, 0, s * s), (-3 * m, s), cofactor)
        double = Fraction(math.isqrt(m) + 1, s)  # above sqrt(m) / s
    else:
        x = draw(st.integers(1, 1 << 82))
        g = _times((-x, 1 << 80), (-x - 1, 1 << 80), (-draw(st.integers(1, 9)), 1), cofactor)
    if corner == "bound_power_of_two":
        e = draw(st.integers(-8, 8))
        bn, bd = (1 << e, 1) if e >= 0 else (1, 1 << -e)
    elif corner == "root_at_top":
        # B in (2^(k-1), 2^k], so that the tree's top is 2^k, a root
        j = draw(st.integers(1, 64))
        bn, bd = top[0] * (64 + j), top[1] * 128
    elif corner == "bound_above_root_bound":
        bound = root_bound(IntPolynomial(g)) * Fraction(draw(st.integers(8, 40)), 8)
        bn, bd = bound.numerator, bound.denominator
    elif corner.startswith("double"):
        bound = double * Fraction(draw(st.integers(9, 40)), 8)
        bn, bd = bound.numerator, bound.denominator
    else:
        bn, bd = draw(st.integers(1, 200)), draw(st.integers(1, 40))
    extra = draw(st.lists(st.lists(small, min_size=2, max_size=4), max_size=2))
    return g, [(bn, -bd), *(tuple(q) for q in extra)]


@pytest.mark.parametrize("corner", _WALK_CORNERS)
@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_capped_lazy_walk_matches_the_parent_walk(corner, data):
    # the walk from 2^k >= B on g itself, with no square-free part taken
    # up front, gives the verdict of the walk from root_bound(g) on g's
    # square-free part, and ends on the same node, before and after
    # narrowing to _ROOT_WIDTH
    g, proofs = data.draw(_walk_system(corner))
    got, want = realize_module._walk(g, proofs), _parent_walk(g, proofs)
    assert (got is None) == (want is None)
    if got is None:
        return
    assert _walk_end(got) == _walk_end(want)
    got.narrow(realize_module._ROOT_WIDTH)
    want.narrow(realize_module._ROOT_WIDTH)
    assert _walk_end(got) == _walk_end(want)


def _spy_isolated(monkeypatch):
    # (g, top, lazy) per tree that realize's walks build
    from sapcert.polyroots import _isolated

    trees = []

    def spied(p, width, top=None, lazy=False):
        trees.append((p.coeffs, top, lazy))
        return _isolated(p, width, top, lazy)

    monkeypatch.setattr(realize_module, "_isolated", spied)
    return trees


def test_realize_walks_from_the_bound_and_takes_no_square_free_part(monkeypatch):
    # floor(n/r) >= 3 walks on every scale: each tree starts at the least
    # of root_bound(g) and the least power of two at or above B, and the
    # one-variation nodes prove every root simple, so no square-free part
    # is taken or proved
    from sapcert import polyroots

    called = []

    def spy(name, f):
        def spied(*args):
            called.append(name)
            return f(*args)

        return spied

    for name in ("_square_free", "_gcd_mod"):
        monkeypatch.setattr(polyroots, name, spy(name, getattr(polyroots, name)))
    trees = _spy_isolated(monkeypatch)
    bounds = []
    walk = realize_module._walk

    def spied_walk(g, proofs):
        bounds.append(Fraction(proofs[0][0], -proofs[0][1]))
        return walk(g, proofs)

    monkeypatch.setattr(realize_module, "_walk", spied_walk)
    rng = np.random.default_rng(50)
    for n in range(6, 11):
        for _ in range(6):
            try:
                realize(FamilyParams(n, 2), CoeffVector(tuple(rng.uniform(-5.0, 5.0, n))))
            except RealizationFailed:
                pass
    assert called == []
    assert len(trees) == len(bounds) > 200
    for (g, top, lazy), bound in zip(trees, bounds):
        assert lazy and top == min(polyroots._bound_exponent(g), _ceil_log2(bound))


@pytest.mark.parametrize(
    "g",
    [
        # a midpoint hits the double root 1, where g' vanishes too
        _times((-1, 1), (-1, 1), (-3, 1)),
        # sqrt(2) is met by nodes of two variations down to the separation
        # check, which finds gcd(g, g') not constant
        _times((-2, 0, 1), (-2, 0, 1), (-3, 1)),
    ],
)
def test_walk_on_a_repeated_root_starts_over_once(monkeypatch, g):
    # B = 5/2: the lazy tree gives up at the repeated root and the walk
    # runs once more, on the square-free part, to the parent's end
    trees = _spy_isolated(monkeypatch)
    proofs = [(5, -2)]
    got = realize_module._walk(g, proofs)
    assert [lazy for _, _, lazy in trees] == [True, False]
    assert trees[0][1] == trees[1][1] == 2
    want = _parent_walk(g, proofs)
    assert got is not None and _walk_end(got) == _walk_end(want)


def test_walk_on_a_large_repeated_root_starts_over_once_and_ends_quickly(monkeypatch):
    # g = (b^2 - 2)^2 q of degree 60, q with positive 200-bit coefficients
    # and so no positive root: the lazy tree meets the double root sqrt(2)
    # below B = 5/2, and the rerun on the square-free part admits it
    rng = random.Random(60)
    q = tuple(rng.randint(1, 2**200) for _ in range(57))
    g = _times((-2, 0, 1), (-2, 0, 1), q)
    trees = _spy_isolated(monkeypatch)
    start = time.process_time()
    got = realize_module._walk(g, [(5, -2)])
    assert time.process_time() - start < 1.0
    assert [lazy for _, _, lazy in trees] == [True, False]
    assert got is not None and got.poly.degree == 58
    assert Fraction(got.a, got.d) ** 2 < 2 < Fraction(got.b, got.d) ** 2
