"""An exact oracle for realize's verdicts that shares none of its proof machinery.

For 3 <= n <= 8 and every r, the coefficient equations are read off the
characteristic polynomial of the symbolic family matrix in sympy, solved
forward for a_1..a_{n-1} as polynomials in b, and closed by g(b).  A
scale is admissible exactly when some positive real root of g has every
a_j > 0, and b is the least such root.  Signs at a root are decided
exactly on sympy's isolating intervals.  ``_solve_scaled`` must give the
same verdict, and the walk it delivers must hold that root.  Steered
``_walk`` cases on closing polynomials with a double root go through the
rerun on the square-free part.
"""

import importlib
from functools import lru_cache

import pytest

hypothesis = pytest.importorskip("hypothesis")
sympy = pytest.importorskip("sympy")
st = hypothesis.strategies

realize_module = importlib.import_module("sapcert.realize")

_SETTINGS = hypothesis.settings(max_examples=150, deadline=None, derandomize=True, database=None)
_X, _B = sympy.symbols("x b")


@lru_cache(maxsize=None)
def _equations(n: int, r: int):
    """(a_1..a_{n-1}, v_1..v_n): the family matrix's symbols and characteristic coefficients.

    v_j is the sum of the j-by-j principal minors, read off det(xI - M).
    """
    a = sympy.symbols(f"a1:{n}")
    M = sympy.zeros(n, n)
    for i in range(n - 1):
        M[i, 0], M[i, i + 1] = a[i], -1
    M[n - 1, n - r] += _B
    M[n - 1, n - 1] += -1
    det = sympy.Poly((_X * sympy.eye(n) - M).det(method="berkowitz"), _X)
    return a, [(-1) ** j * det.coeff_monomial(_X ** (n - j)) for j in range(1, n + 1)]


def _solved(n: int, r: int, targets):
    """([a_1(b), ..., a_{n-1}(b)], g(b)) as Polys in b: v_j = targets[j - 1], solved forward."""
    a, v = _equations(n, r)
    values = {}
    for j in range(n - 1):
        eq = sympy.expand(v[j].subs(values) - targets[j])
        slope = eq.coeff(a[j])
        assert slope.is_number and slope != 0
        values[a[j]] = sympy.expand(-(eq - slope * a[j]) / slope)
    g = sympy.expand(v[n - 1].subs(values) - targets[n - 1])
    return [sympy.Poly(values[s], _B, domain="QQ") for s in a], sympy.Poly(g, _B, domain="QQ")


def _positive_roots(g):
    """Closed isolating intervals [s, t] of the positive roots of square-free g, increasing.

    sympy's interval for one root can end at another, so each is refined
    until it is a point or neither end is a root.
    """
    out = []
    for (s, t), _ in g.intervals(inf=0):
        while s < t and not (g.eval(s) and g.eval(t)):
            s, t = g.refine_root(s, t, steps=1)
        if t > 0:
            out.append((s, t))
    return sorted(out)


def _sign_at(q, g, s, t) -> int:
    """The exact sign of the Poly q at the one root of square-free g in [s, t]."""
    if s == t:
        return int(sympy.sign(q.eval(s)))
    if sympy.gcd(q, g).count_roots(s, t):
        return 0  # [s, t] holds no other root of g
    while q.count_roots(s, t):
        s, t = g.refine_root(s, t, steps=1)
    return int(sympy.sign(q.eval((s + t) / 2)))


def _least_admissible(forms, g):
    """[s, t] isolating the least positive root of g at which every form is positive, or None."""
    g = g.sqf_part()
    for s, t in _positive_roots(g):
        if all(_sign_at(q, g, s, t) > 0 for q in forms):
            return s, t
    return None


def _holds(g, s, t, root) -> bool:
    """Whether the walk ``root`` holds the root of g isolated by [s, t]: its exact root, or in (lo, hi]."""
    g = g.sqf_part()
    if root.exact is not None:
        x = sympy.Rational(root.exact.numerator, root.exact.denominator)
        return s <= x <= t and g.eval(x) == 0
    lo, hi = sympy.Rational(root.a, root.d), sympy.Rational(root.b, root.d)
    for x in (lo, hi):
        if s <= x <= t and g.eval(x) == 0:
            return x == hi
    while not (lo < s and t <= hi) and lo < t and s <= hi:
        s, t = g.refine_root(s, t, steps=1)
    return lo < s and t <= hi


_coefficient = st.one_of(
    st.integers(-6, 6).map(lambda k: (k, 1)),
    st.floats(-5, 5, allow_nan=False).map(float.as_integer_ratio),
)


@_SETTINGS
@hypothesis.given(st.data())
def test_solve_scaled_admits_the_least_root_the_oracle_admits(data):
    n = data.draw(st.integers(3, 8), label="n")
    # r = 2 half the time, so that floor(n/r) >= 3 is drawn at n >= 6
    r = data.draw(st.just(2) | st.integers(2, n), label="r")
    alpha = data.draw(st.lists(_coefficient, min_size=n, max_size=n), label="alpha")
    e = data.draw(st.integers(0, 6), label="e")
    m = data.draw(st.integers(1, 2**e), label="m")
    c = sympy.Rational(m, 2**e)
    targets = [sympy.Rational(num, den) * c ** (j + 1) for j, (num, den) in enumerate(alpha)]
    a, g = _solved(n, r, targets)
    constant = [q for q in a if q.degree() <= 0]
    if any(q.eval(0) <= 0 for q in constant):
        want = None  # every b leaves that a_j nonpositive
    else:
        assert not g.is_zero
        want = _least_admissible(a, g)
    sol = realize_module._solve_scaled(n, r, alpha, m, 2**e)
    regime = "linear" if 2 * r > n else "quadratic" if 3 * r > n else "descartes"
    hypothesis.event(f"{regime}, {'admitted' if want else 'rejected'}")
    assert (sol is not None) == (want is not None)
    if sol is not None:
        assert sol.root is not None and _holds(g, *want, sol.root)


_DOUBLE_ROOTS = st.one_of(
    # a rational rho = num / den as den b - num
    st.tuples(st.integers(1, 40), st.integers(1, 9)).map(lambda t: (-t[0], t[1])),
    # an irrational rho = sqrt(k) as b^2 - k
    st.sampled_from([2, 3, 5, 7, 10]).map(lambda k: (-k, 0, 1)),
)


def _poly(cs):
    # ascending integer coefficients as a Poly in b
    return sympy.Poly(list(reversed(cs)), _B, domain="QQ")


def _times(*factors):
    out = (1,)
    for f in factors:
        prod = [0] * (len(out) + len(f) - 1)
        for i, x in enumerate(out):
            for j, y in enumerate(f):
                prod[i + j] += x * y
        out = tuple(prod)
    return out


@_SETTINGS
@hypothesis.given(st.data())
def test_walk_on_a_double_root_agrees_with_the_oracle(data):
    # g = f^2 h: h has positive coefficients, times a root past f's when
    # drawn, so f's root is g's least positive root and the lazy tree meets
    # it; B and the proof forms are free, and a form may vanish at the root
    f = data.draw(_DOUBLE_ROOTS, label="f")
    h = tuple(data.draw(st.lists(st.integers(1, 2**40), min_size=1, max_size=4), label="h"))
    if data.draw(st.booleans(), label="later root"):
        h = _times(h, (-data.draw(st.integers(7, 30), label="sigma"), 1))
    g = _times(f, f, h)
    bn, bd = data.draw(st.integers(1, 60), label="bn"), data.draw(st.integers(1, 9), label="bd")
    forms = [(bn, -bd)]
    for _ in range(data.draw(st.integers(0, 2), label="forms")):
        q = tuple(data.draw(st.lists(st.integers(-50, 50), min_size=1, max_size=3)))
        if data.draw(st.booleans(), label="vanishing form"):
            q = _times(q, f)
        forms.append(q)
    trees = []
    isolated = realize_module._isolated
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(
            realize_module,
            "_isolated",
            lambda p, width, top=None, lazy=False: trees.append(lazy) or isolated(p, width, top, lazy),
        )
        got = realize_module._walk(g, forms)
    want = _least_admissible([_poly(q) for q in forms], _poly(g))
    # f's root below B: num / den < bn / bd, or sqrt(k) < bn / bd
    below = -f[0] * bd < bn * f[1] if len(f) == 2 else -f[0] * bd * bd < bn * bn
    hypothesis.event("admitted" if want else "rejected")
    if below:
        assert trees == [True, False]
    assert (got is not None) == (want is not None)
    if got is not None:
        assert _holds(_poly(g), *want, got)
