import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sapcert.charpoly import (
    _RING,
    _faddeev_leverrier,
    CoeffVector,
    char_coeffs,
    char_coeffs_batch,
    char_coeffs_oracle,
    coeff_jacobian,
    coeffs_to_monic,
    monic_to_coeffs,
    spectrum,
)
from sapcert.errors import InvalidInput, SizeLimitExceeded


def test_char_coeffs_nilpotent_2x2():
    assert char_coeffs([[1, -1], [1, -1]]).values == pytest.approx((0.0, 0.0), abs=1e-15)


def test_char_coeffs_identity_3x3():
    # (x-1)^3 = x^3 - 3x^2 + 3x - 1
    assert char_coeffs(np.eye(3)).values == pytest.approx((3.0, 3.0, 1.0))


def test_char_coeffs_jordan_block():
    assert char_coeffs([[0, 1], [0, 0]]).values == pytest.approx((0.0, 0.0), abs=1e-15)


def test_oracle_examples():
    assert char_coeffs_oracle([[1, -1], [1, -1]]).values == pytest.approx((0.0, 0.0))
    assert char_coeffs_oracle(np.diag([2.0, 3.0])).values == pytest.approx((5.0, 6.0))


def test_oracle_size_limit():
    with pytest.raises(SizeLimitExceeded):
        char_coeffs_oracle(np.eye(15))


def test_oracle_agreement_random():
    rng = np.random.default_rng(3)
    for _ in range(60):
        n = int(rng.integers(2, 8))
        A = rng.uniform(-1, 1, (n, n))
        fast = char_coeffs(A)
        slow = char_coeffs_oracle(A)
        for j, (a, b) in enumerate(zip(fast.values, slow.values), start=1):
            tol = 1e-10 * max(1.0, np.linalg.norm(A, np.inf) ** j)
            assert abs(a - b) <= tol


def test_char_coeffs_scaling_property():
    rng = np.random.default_rng(4)
    for _ in range(20):
        n = int(rng.integers(2, 9))
        A = rng.uniform(-2, 2, (n, n))
        base = char_coeffs(A)
        for c in (2.0, 0.5):
            scaled = char_coeffs(c * A)
            for j in range(1, n + 1):
                expect = base.values[j - 1] * c**j
                assert scaled.values[j - 1] == pytest.approx(expect, rel=1e-9, abs=1e-12)


def test_spectrum_examples():
    assert all(abs(z) < 1e-7 for z in spectrum([[1, -1], [1, -1]]))
    eigs = spectrum(np.diag([1.0, 2.0, 3.0]))
    assert eigs == pytest.approx((1.0, 2.0, 3.0))
    # companion matrix of x^2 + 1
    eigs = spectrum([[0, -1], [1, 0]])
    assert eigs[0] == pytest.approx(-1j) or eigs[0] == pytest.approx(1j)
    assert eigs[1] == pytest.approx(eigs[0].conjugate())


def test_spectrum_conjugates_adjacent_and_deterministic():
    rng = np.random.default_rng(5)
    A = rng.uniform(-1, 1, (8, 8))
    eigs = spectrum(A)
    assert eigs == spectrum(A)  # deterministic
    k = 0
    while k < len(eigs):
        z = eigs[k]
        if abs(z.imag) > 1e-12:
            assert eigs[k + 1] == z.conjugate()
            assert z.imag > 0
            k += 2
        else:
            k += 1


def test_spectrum_reconstructs_coefficients():
    rng = np.random.default_rng(6)
    for _ in range(20):
        n = int(rng.integers(2, 13))
        A = rng.uniform(-1, 1, (n, n))
        eigs = spectrum(A)
        monic = np.real(np.poly(np.array(eigs)))[1:]
        expect = coeffs_to_monic(char_coeffs(A))
        scale = max(1.0, float(np.max(np.abs(expect))))
        assert np.allclose(monic, expect, rtol=1e-7, atol=1e-7 * scale)


def test_nilpotent_coefficient_bound():
    # strictly upper triangular => nilpotent, coefficients vanish
    rng = np.random.default_rng(8)
    for n in (3, 6, 10):
        A = np.triu(rng.uniform(-3, 3, (n, n)), k=1)
        vals = char_coeffs(A).values
        bound = 1e-9 * max(1.0, np.linalg.norm(A, np.inf) ** n)
        assert max(abs(v) for v in vals) <= bound


def test_monic_conversions():
    assert coeffs_to_monic(CoeffVector((0.0, 0.0))) == (0.0, 0.0)
    assert coeffs_to_monic(CoeffVector((3.0, 3.0, 1.0))) == (-3.0, 3.0, -1.0)
    rng = np.random.default_rng(9)
    for _ in range(10):
        n = int(rng.integers(1, 9))
        alpha = CoeffVector(tuple(rng.uniform(-5, 5, n)))
        assert monic_to_coeffs(coeffs_to_monic(alpha)).values == alpha.values


def test_spectrum_matches_known_roots():
    # x^3 - 6x^2 + 11x - 6 = (x-1)(x-2)(x-3), companion matrix check
    C = np.array([[0.0, 0.0, 6.0], [1.0, 0.0, -11.0], [0.0, 1.0, 6.0]])
    assert spectrum(C) == pytest.approx((1.0, 2.0, 3.0), abs=1e-9)
    assert math.isclose(char_coeffs(C).values[2], 6.0, abs_tol=1e-12)


@pytest.mark.parametrize("n", [1, 2, 5, 12, 40])
def test_char_coeffs_batch_rows_equal_single_matrix_bitwise(n):
    rng = np.random.default_rng(n)
    stack = rng.uniform(-2, 2, (7, n, n)) * (rng.random((7, n, n)) < 0.7)
    batch = char_coeffs_batch(stack)
    assert batch.shape == (7, n)
    for k in range(7):
        single = np.array(char_coeffs(stack[k]).values)
        assert np.array_equal(batch[k].view(np.int64), single.view(np.int64))


def test_char_coeffs_batch_rejects_bad_stacks():
    for bad in (np.zeros((3, 2, 3)), np.zeros((2, 2)), np.zeros((2, 2, 2, 2))):
        with pytest.raises(InvalidInput):
            char_coeffs_batch(bad)
    with pytest.raises(InvalidInput):
        char_coeffs_batch(np.full((2, 3, 3), np.nan))


def test_coeff_jacobian_matches_central_differences():
    # a random 6x6 pattern, unrelated to the family
    rng = np.random.default_rng(12)
    mask = rng.random((6, 6)) < 0.6
    A = rng.uniform(0.5, 2.0, (6, 6)) * rng.choice([-1.0, 1.0], (6, 6)) * mask
    nonzero = [tuple(int(v) for v in ij) for ij in np.argwhere(mask)]
    positions = [nonzero[k] for k in rng.choice(len(nonzero), 6, replace=False)]
    base, J = coeff_jacobian(A, positions)
    assert base.values == char_coeffs(A).values
    assert J.shape == (6, 6)
    for k, (i, j) in enumerate(positions):
        h = 1e-6 * max(1.0, abs(A[i, j]))
        up, down = A.copy(), A.copy()
        up[i, j] += h
        down[i, j] -= h
        fd = (np.array(char_coeffs(up).values) - np.array(char_coeffs(down).values)) / (2 * h)
        scale = max(1.0, float(np.max(np.abs(fd))))
        assert np.max(np.abs(J[:, k] - fd)) <= 1e-6 * scale


def test_coeff_jacobian_rejects_positions_out_of_range():
    with pytest.raises(InvalidInput):
        coeff_jacobian(np.eye(3), [(0, 0), (3, 1)])


def _step_by_step_recursion(M, positions=()):
    """The recursion one step at a time, gathering each N_{k-1} as it is formed.

    The reference for the ring-buffered kernel: a new array per operation,
    and the Jacobian entries read from every N_{k-1} before the next product.
    """
    n = M.shape[-1]
    eye = np.eye(n)
    per_matrix = (Ellipsis, None, None) if M.ndim == 3 else ()
    rows = [i for i, _ in positions]
    cols = [j for _, j in positions]
    vals, jac = [], []
    N = eye
    for k in range(1, n + 1):
        if positions:
            jac.append((-1.0) ** (k + 1) * np.broadcast_to(N, M.shape)[..., cols, rows])
        AN = M @ N
        ck = -np.trace(AN, 0, -2, -1) / k
        vals.append((-1.0) ** k * ck)
        N = AN + ck[per_matrix] * eye
    jac = np.moveaxis(np.array(jac), 0, -2) if positions else None
    return np.array(vals).T, jac


def _kernel_case(n, m, seed, scale, zeros, positions):
    """An (n, n) matrix (m None) or an (m, n, n) stack with signed zeros mixed in."""
    rng = np.random.default_rng(seed)
    shape = (n, n) if m is None else (m, n, n)
    M = rng.uniform(-2.0, 2.0, shape) * scale
    M[rng.random(shape) < zeros] = 0.0
    M[rng.random(shape) < zeros] = -0.0
    return M, positions


@st.composite
def kernel_cases(draw):
    # small orders, and orders past the ring so that it wraps once or twice
    n = draw(st.one_of(st.integers(1, 8), st.integers(_RING + 1, 2 * _RING + 3)))
    index = st.integers(0, n - 1)
    positions = draw(st.lists(st.tuples(index, index), max_size=n + 2))
    if positions and draw(st.booleans()):
        d = draw(index)
        positions += [(d, d), positions[0]]  # a diagonal entry and a repeat
    return _kernel_case(
        n,
        draw(st.sampled_from([None, 1, 3])),
        draw(st.integers(0, 2**32 - 1)),
        draw(st.sampled_from([1.0, 1e300])),
        draw(st.sampled_from([0.0, 0.3, 0.6])),
        positions,
    )


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(kernel_cases())
@example(_kernel_case(1, None, 0, 1.0, 0.0, [(0, 0)]))
@example(_kernel_case(1, 3, 1, 1.0, 0.5, [(0, 0), (0, 0)]))
@example(_kernel_case(_RING + 1, None, 2, 1.0, 0.3, [(i, 0) for i in range(_RING)] + [(_RING, 1)]))
@example(_kernel_case(2 * _RING + 1, 2, 3, 1.0, 0.3, [(0, 0), (5, 5), (0, 0), (2 * _RING, 3)]))
@example(_kernel_case(_RING + 2, 3, 4, 1e300, 0.3, [(1, 1), (4, 0), (1, 1)]))
def test_kernel_equals_step_by_step_recursion_bitwise(case):
    # tobytes compares every bit, so a -0.0 for a 0.0 or a NaN of another
    # sign fails; entries near 1e300 overflow to inf and NaN on purpose
    M, positions = case
    with np.errstate(all="ignore"):
        want_vals, want_jac = _step_by_step_recursion(M, positions)
        vals, jac = _faddeev_leverrier(M, positions)
    assert vals.shape == want_vals.shape and vals.tobytes() == want_vals.tobytes()
    if positions:
        assert jac.shape == want_jac.shape and jac.tobytes() == want_jac.tobytes()
    else:
        assert jac is None


def test_coeff_jacobian_peak_memory_stays_below_every_n_k():
    # keeping every N_k would take n^3 * 8 bytes (13.8 MB at n = 120); the
    # ring keeps at most _RING of them between two gathers
    n = 120
    A = np.random.default_rng(5).uniform(-1.0, 1.0, (n, n))
    positions = [(i, 0) for i in range(n - 1)] + [(n - 1, n - 2)]
    tracemalloc.start()
    try:
        coeff_jacobian(A, positions)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < n**3 * 8 / 2
