"""Output checkers written apart from sapcert.

Every check here is derived from the definitions in the README, not from
the package's code: exact rational arithmetic on the delivered floats, the
family sign pattern written from its description, the nilpotency
recurrence, a Descartes-rule root counter (sapcert counts roots with Sturm
chains) and an exact sparse determinant.  Each ``check_*`` function
returns a list of problems; an empty list means the output passed.
"""

from __future__ import annotations

from fractions import Fraction

# ---------------------------------------------------------------- charpoly


def _charpoly_int(A: list[list[int]]) -> list[int]:
    """Coefficients of det(xI - A), highest degree first (Berkowitz).

    Division-free, so it runs in exact integer arithmetic; sapcert uses
    Faddeev-LeVerrier in floats, a different recursion.
    """
    n = len(A)
    if n == 0:
        return [1]
    poly = [1, -A[0][0]]
    for r in range(1, n):
        # border the leading r-by-r block M by column C, row R and corner A[r][r]
        M = [row[:r] for row in A[:r]]
        C = [A[i][r] for i in range(r)]
        R = A[r][:r]
        col = [1, -A[r][r]]
        v = C
        for k in range(r):
            col.append(-sum(R[i] * v[i] for i in range(r)))
            if k + 1 < r:
                v = [sum(M[i][m] * v[m] for m in range(r)) for i in range(r)]
        poly = [
            sum(col[i - k] * poly[k] for k in range(min(i, r) + 1)) for i in range(r + 2)
        ]
    return poly


def exact_char_coeffs(M) -> list[Fraction]:
    """Exact (v_1..v_n) of a float matrix, alternating convention.

    Each double is an exact dyadic rational, so scaling by a common power
    of two gives an integer matrix Z = 2^s M with v_j(M) = v_j(Z) / 2^(sj).
    """
    rows = [[Fraction(float(x)) for x in row] for row in M]
    s = max((x.denominator.bit_length() - 1 for row in rows for x in row), default=0)
    Z = [[int(x * (1 << s)) for x in row] for row in rows]
    coeffs = _charpoly_int(Z)
    return [
        Fraction((-1) ** j * coeffs[j], 1 << (s * j)) for j in range(1, len(coeffs))
    ]


def check_charpoly(M, target) -> list[str]:
    """Exact charpoly of ``M`` within 1e-8 * max(1, |target|_inf) of ``target``."""
    got = exact_char_coeffs(M)
    target = [float(t) for t in target]
    if len(got) != len(target):
        return [f"degree {len(got)} != target degree {len(target)}"]
    scale = max(1.0, max(abs(t) for t in target))
    worst = max(abs(float(g - Fraction(t))) for g, t in zip(got, target))
    if worst > 1e-8 * scale:
        return [f"exact charpoly off target by {worst:.3e} (limit {1e-8 * scale:.3e})"]
    return []


# ---------------------------------------------------------------- patterns


def family_sign(n: int, r: int, i: int, j: int) -> int:
    """Sign of entry (i, j), 0-based, of the order-n family pattern with offset r.

    Positive first column in rows 1..n-1, negative superdiagonal, positive
    feedback in the last row at column n-r+1 and a negative (n, n) corner
    (1-based), which gives 2n nonzero entries.
    """
    if i == n - 1:
        if j == n - 1:
            return -1
        return 1 if j == n - r else 0
    if j == 0:
        return 1
    return -1 if j == i + 1 else 0


def check_signs(M, signs) -> list[str]:
    """Every entry of ``M`` carries the sign ``signs(i, j)`` exactly."""
    bad = []
    for i, row in enumerate(M):
        for j, x in enumerate(row):
            x = float(x)
            got = (x > 0) - (x < 0)
            if got != signs(i, j):
                bad.append(f"entry ({i + 1},{j + 1}) = {x!r}, expected sign {signs(i, j)}")
    return bad


# ---------------------------------------------------------------- integer polynomials


def _sub(p: list[int], q: list[int]) -> list[int]:
    out = list(p) + [0] * max(0, len(q) - len(p))
    for i, c in enumerate(q):
        out[i] -= c
    while out and out[-1] == 0:
        out.pop()
    return out


def family_recurrence(n: int, r: int) -> tuple[list[list[int]], list[int]]:
    """Ascending integer coefficients of a_0..a_{n-1}(t) and of h(t).

    a_0 = ... = a_{r-1} = 1, a_j = a_{j-1} - t a_{j-r}, h = a_{n-1} - t a_{n-r}:
    with the first r-1 column values set to one and feedback t, these make
    every characteristic coefficient but the last vanish.
    """
    a = [[1] for _ in range(r)]
    for j in range(r, n):
        a.append(_sub(a[j - 1], [0] + a[j - r]))
    return a[:n], _sub(a[n - 1], [0] + a[n - r])


def sign_at(p: list[int], x: Fraction) -> int:
    """Sign of p(x), from the integer sum c_i num^i den^(d-i)."""
    num, den = x.numerator, x.denominator
    acc, dpow = 0, 1
    for c in reversed(p):
        acc = acc * num + c * dpow
        dpow *= den
    return (acc > 0) - (acc < 0)


def _variations(cs: list[int]) -> int:
    signs = [c > 0 for c in cs if c != 0]
    return sum(1 for s, t in zip(signs, signs[1:]) if s != t)


def _taylor_shift1(cs: list[int]) -> list[int]:
    """Coefficients of p(x + 1), ascending."""
    out = list(cs)
    d = len(out) - 1
    for i in range(d):
        for k in range(d - 1, i - 1, -1):
            out[k] += out[k + 1]
    return out


def _roots_in_unit(cs: list[int], depth: int) -> int:
    """Distinct roots of the integer polynomial in (0, 1), Descartes bisection.

    Roots in (0, 1) are the positive roots of (x + 1)^d p(1 / (x + 1)); a
    sign-variation count of 0 or 1 there is exact (Vincent's theorem), so
    halves are split until each count is 0 or 1.
    """
    v = _variations(_taylor_shift1(cs[::-1]))
    if v <= 1:
        return v
    if depth == 0:
        raise ArithmeticError("Descartes bisection did not separate the roots")
    d = len(cs) - 1
    left = [c << (d - i) for i, c in enumerate(cs)]  # 2^d p(x / 2)
    right = _taylor_shift1(left)  # 2^d p((x + 1) / 2)
    mid = 1 if right[0] == 0 else 0  # root at 1/2 itself
    return _roots_in_unit(left, depth - 1) + mid + _roots_in_unit(right, depth - 1)


def count_roots_below(p: list[int], hi: Fraction, depth: int = 80) -> int:
    """Number of distinct roots of ``p`` in (0, hi], without Sturm chains."""
    hi = Fraction(hi)
    num, den = hi.numerator, hi.denominator
    d = len(p) - 1
    if d < 1:
        return 0
    scaled = [c * num**i * den ** (d - i) for i, c in enumerate(p)]  # den^d p(hi x)
    while scaled[0] == 0:  # roots at zero are not in (0, hi]
        scaled.pop(0)
    return _roots_in_unit(scaled, depth) + (sign_at(p, hi) == 0)


def check_nilpotent_bracket(n: int, r: int, lo: Fraction, hi: Fraction) -> list[str]:
    """The bracket holds the smallest positive root of h, and every a_j > 0 there."""
    a, h = family_recurrence(n, r)
    bad = []
    s_lo, s_hi = sign_at(h, lo), sign_at(h, hi)
    if s_lo == 0 or s_lo != -s_hi:
        bad.append(f"h does not change sign across the bracket ({s_lo}, {s_hi})")
    for j in range(1, n):
        if sign_at(a[j], lo) <= 0 or sign_at(a[j], hi) <= 0:
            bad.append(f"a_{j} not positive at both bracket ends")
    below = count_roots_below(h, lo)
    if below:
        bad.append(f"h has {below} root(s) in (0, lo]")
    return bad


# ---------------------------------------------------------------- Jacobian


def family_char_coeffs(n: int, r: int, a, b) -> list:
    """(v_1..v_n) of the family matrix with first column ``a`` and feedback ``b``.

    Derived from the null vector of xI - A: with u_0 = 1 the first n-1 rows
    force u_k = a_k - x u_{k-1}, so u_k = sum_m a_{k-m} (-x)^m, and the
    last row leaves f(x) = (x + 1) u_{n-1} - b u_{n-r}, which equals the
    characteristic polynomial up to the sign of its leading term.
    """
    av = [1] + list(a)  # a_0 = 1
    f = [0] * (n + 1)  # ascending
    for m in range(n):  # (x + 1) u_{n-1}
        term = av[n - 1 - m] * (-1) ** m
        f[m] += term
        f[m + 1] += term
    for m in range(n - r + 1):  # - b u_{n-r}
        f[m] -= b * av[n - r - m] * (-1) ** m
    lead = f[n]
    return [(-1) ** j * f[n - j] / lead for j in range(1, n + 1)]


def family_jacobian(n: int, r: int, a, b) -> list[list[Fraction]]:
    """Exact Jacobian of (v_1..v_n) with respect to (a_1..a_{n-1}, b).

    Differentiates the null-vector form of :func:`family_char_coeffs`:
    a_k enters f through (x + 1)(-x)^(n-1-k) and, for k <= n-r, through
    -b (-x)^(n-r-k); b enters through -u_{n-r}(x).
    """
    av = [Fraction(1)] + [Fraction(x) for x in a]
    b = Fraction(b)
    lead = (-1) ** (n - 1)  # leading coefficient of f
    J = [[Fraction(0)] * n for _ in range(n)]

    def add(col, degree, value):  # d f_degree / d param_col += value
        j = n - degree  # v_j = (-1)^j f_{n-j} / lead
        J[j - 1][col] += (-1) ** j * value * lead

    for k in range(1, n):
        m = n - 1 - k
        add(k - 1, m, (-1) ** m)
        add(k - 1, m + 1, (-1) ** m)
        if k <= n - r:
            m = n - r - k
            add(k - 1, m, -b * (-1) ** m)
    for m in range(n - r + 1):
        add(n - 1, m, -av[n - r - m] * (-1) ** m)
    return J


def exact_det(M) -> Fraction:
    """Determinant by Gaussian elimination over the rationals, on sparse rows."""
    rows = {i: {j: Fraction(x) for j, x in enumerate(row) if x != 0} for i, row in enumerate(M)}
    n = len(rows)
    det = Fraction(1)
    for c in range(n):
        holders = [i for i, row in rows.items() if c in row]
        if not holders:
            return Fraction(0)
        p = min(holders, key=lambda i: (len(rows[i]), i))
        prow = rows.pop(p)
        det *= prow[c]
        # moving row p to position c: sign of the transposition count
        if sum(1 for i in rows if i < p) % 2:
            det = -det
        for i in holders:
            if i == p:
                continue
            row = rows[i]
            f = row[c] / prow[c]
            for j, x in prow.items():
                v = row.get(j, 0) - f * x
                if v:
                    row[j] = v
                else:
                    row.pop(j, None)
    return det


def check_nilpotent_point(n: int, r: int, a0, t_h, det_reported) -> list[str]:
    """Exact Jacobian at the delivered point is positive and matches ``det_reported``."""
    det = exact_det(family_jacobian(n, r, a0, t_h))
    if det <= 0:
        return [f"exact Jacobian determinant {float(det):.6e} is not positive"]
    rel = abs(float(det) - det_reported) / abs(float(det))
    if rel > 1e-6:
        return [f"reported determinant {det_reported!r} is {rel:.2e} off the exact {float(det)!r}"]
    return []
