import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sapcert.errors import DimensionError, InvalidInput
from sapcert.family import FamilyParams, build_pattern
from sapcert.patterns import (
    Sign,
    SignPattern,
    is_irreducible,
    is_superpattern,
    member_of_class,
    member_of_class_tol,
    nonzero_count,
    one_entry_subpatterns,
    sign_of,
    strongly_connected_components,
    adjacency,
)


def test_sign_of_basic():
    assert sign_of(3.5) is Sign.PLUS
    assert sign_of(0.0) is Sign.ZERO
    assert sign_of(-2.0) is Sign.MINUS


def test_sign_of_rejects_nonfinite():
    with pytest.raises(InvalidInput):
        sign_of(float("nan"))
    with pytest.raises(InvalidInput):
        sign_of(float("inf"))


def test_sign_of_is_exact_near_zero():
    assert sign_of(1e-300) is Sign.PLUS
    assert sign_of(-1e-300) is Sign.MINUS


S22 = SignPattern.from_rows(["+-", "+-"])


def test_member_of_class():
    assert member_of_class([[1, -1], [1, -1]], S22)
    assert not member_of_class([[0, -1], [1, -1]], S22)
    assert member_of_class([[2, -3], [5, -7]], S22)


def test_member_of_class_dimension_mismatch():
    with pytest.raises(DimensionError):
        member_of_class(np.eye(3), S22)


def test_member_positive_scaling_invariance():
    rng = np.random.default_rng(1)
    pat = build_pattern(FamilyParams(5, 3))
    M = np.zeros((5, 5))
    for (i, j) in pat.nonzero_positions():
        M[i, j] = rng.uniform(0.1, 3.0) * (1 if pat[i, j] is Sign.PLUS else -1)
    assert member_of_class(M, pat)
    for c in (2.0, 0.5, 1e-8):
        assert member_of_class(c * M, pat)


def test_member_of_class_tol():
    good = [[1e-6, -1], [1, -1]]
    assert member_of_class_tol(good, S22)
    assert not member_of_class_tol([[1e-15, -1], [1, -1]], S22)
    # near-zero where zero is required
    pat = SignPattern.from_rows(["+0", "+-"])
    assert member_of_class_tol([[1, 5e-13], [1, -1]], pat)
    assert not member_of_class_tol([[1, 1e-6], [1, -1]], pat)


def _reference_member(M, S):
    # the entrywise loop that the one-comparison form replaced
    M = np.asarray(M, dtype=float)
    return all(
        sign_of(M[i, j]) is S.entries[i][j]
        for i in range(S.n_rows)
        for j in range(S.n_cols)
    )


def _reference_member_tol(M, S, eps):
    M = np.asarray(M, dtype=float)
    for i in range(S.n_rows):
        for j in range(S.n_cols):
            s, v = S.entries[i][j], M[i, j]
            if s is Sign.ZERO and abs(v) > eps:
                return False
            if s is Sign.PLUS and v <= eps:
                return False
            if s is Sign.MINUS and v >= -eps:
                return False
    return True


_EDGE_VALUES = [0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -2.2e-308, 1e308, -1e308, 1e-12, -1e-12]
_ENTRY = st.one_of(st.sampled_from(_EDGE_VALUES), st.floats(allow_nan=False, allow_infinity=False))


@st.composite
def _matrix_and_pattern(draw):
    rows, cols = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    M = np.array(draw(st.lists(_ENTRY, min_size=rows * cols, max_size=rows * cols)))
    M = M.reshape(rows, cols)
    if draw(st.booleans()):
        # the pattern of M itself, so that most draws are members
        grid = [[sign_of(v) for v in row] for row in M]
    else:
        grid = [[draw(st.sampled_from(list(Sign))) for _ in range(cols)] for _ in range(rows)]
    if draw(st.booleans()):
        i, j = draw(st.integers(0, rows - 1)), draw(st.integers(0, cols - 1))
        grid[i][j] = draw(st.sampled_from(list(Sign)))
    return M, SignPattern.from_rows(grid)


_MEMBER_SETTINGS = settings(max_examples=300, deadline=None, derandomize=True, database=None)


@_MEMBER_SETTINGS
@given(_matrix_and_pattern())
def test_member_of_class_equals_entrywise_sign_of(case):
    M, S = case
    assert member_of_class(M, S) is _reference_member(M, S)


@_MEMBER_SETTINGS
@given(
    _matrix_and_pattern(),
    st.one_of(
        st.sampled_from([0.0, 5e-324, 1e-12, 1e308, float("inf")]),
        st.floats(0.0, 1e3),
    ),
)
def test_member_of_class_tol_equals_entrywise_reference(case, eps):
    M, S = case
    assert member_of_class_tol(M, S, eps) is _reference_member_tol(M, S, eps)


@pytest.mark.parametrize("check", [member_of_class, member_of_class_tol])
def test_membership_errors(check):
    for bad in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(InvalidInput):
            check([[1.0, -1.0], [bad, -1.0]], S22)
    with pytest.raises(DimensionError):
        check(np.ones((2, 3)), S22)
    with pytest.raises(DimensionError):
        check([[1.0, -1.0]], S22)


@pytest.mark.parametrize("eps", [-1e-12, float("nan")])
def test_member_of_class_tol_rejects_a_negative_or_nan_tolerance(eps):
    with pytest.raises(InvalidInput):
        member_of_class_tol([[1.0, -1.0], [1.0, -1.0]], S22, eps)


def test_is_superpattern():
    S = SignPattern.from_rows(["+0", "+-"])
    U = SignPattern.from_rows(["+-", "+-"])
    assert is_superpattern(U, S)
    assert not is_superpattern(SignPattern.from_rows(["--", "+-"]), S22)
    assert is_superpattern(S22, S22)


def test_superpattern_antisymmetry_and_transitivity():
    A = SignPattern.from_rows(["+00", "0-0", "00+"])
    B = SignPattern.from_rows(["+-0", "0-0", "00+"])
    C = SignPattern.from_rows(["+-0", "0-+", "00+"])
    assert is_superpattern(B, A) and is_superpattern(C, B)
    assert is_superpattern(C, A)
    assert is_superpattern(A, B) is False
    # mutual superpatterns are equal
    assert is_superpattern(A, A) and A == A


def test_one_entry_subpatterns_enumeration():
    subs = one_entry_subpatterns(S22)
    assert len(subs) == 4
    for pos, sub in subs:
        assert sub[pos] is Sign.ZERO
        assert is_superpattern(S22, sub)
        assert nonzero_count(sub) == nonzero_count(S22) - 1
        diffs = [
            (i, j)
            for i in range(2)
            for j in range(2)
            if sub.entries[i][j] is not S22.entries[i][j]
        ]
        assert diffs == [pos]


def test_one_entry_subpatterns_empty_for_zero_pattern():
    Z = SignPattern.from_rows(["000", "000", "000"])
    assert one_entry_subpatterns(Z) == []
    assert nonzero_count(Z) == 0


def test_one_entry_subpatterns_family_count():
    pat = build_pattern(FamilyParams(3, 2))
    assert len(one_entry_subpatterns(pat)) == nonzero_count(pat) == 6


def _reachable(adj, src):
    seen = {src}
    stack = [src]
    while stack:
        v = stack.pop()
        for w in adj[v]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return seen


def _irreducible_oracle(S):
    # independent of Tarjan: full pairwise reachability both ways
    adj = adjacency(S)
    n = len(adj)
    radj = [[] for _ in range(n)]
    for v in range(n):
        for w in adj[v]:
            radj[w].append(v)
    return all(
        len(_reachable(adj, v)) == n and len(_reachable(radj, v)) == n
        for v in range(n)
    )


def test_is_irreducible_basic():
    assert is_irreducible(S22)
    assert not is_irreducible(SignPattern.from_rows(["+0", "+-"]))


@pytest.mark.parametrize("n", range(2, 9))
def test_family_patterns_irreducible(n):
    for r in range(2, n + 1):
        pat = build_pattern(FamilyParams(n, r))
        assert is_irreducible(pat)
        assert _irreducible_oracle(pat)


def test_irreducible_matches_oracle_on_random_patterns():
    rng = np.random.default_rng(7)
    for _ in range(60):
        n = int(rng.integers(2, 7))
        grid = rng.choice(["+", "-", "0"], size=(n, n), p=[0.3, 0.3, 0.4])
        S = SignPattern.from_rows(["".join(row) for row in grid])
        assert is_irreducible(S) == _irreducible_oracle(S)


def test_scc_partition_is_a_partition():
    S = SignPattern.from_rows(["+-0", "00-", "0+-"])
    comps = strongly_connected_components(adjacency(S))
    flat = sorted(v for comp in comps for v in comp)
    assert flat == [0, 1, 2]


def test_nonzero_count_family():
    assert nonzero_count(S22) == 4
    for n in range(2, 21):
        for r in range(2, n + 1):
            assert nonzero_count(build_pattern(FamilyParams(n, r))) == 2 * n


def test_sgn_round_trip():
    text = "2 2\n+-\n+-\n"
    S = SignPattern.from_text(text)
    assert S == S22
    assert S.to_text() == text


def test_sgn_parse_errors_have_line_numbers():
    with pytest.raises(InvalidInput, match="line 1"):
        SignPattern.from_text("2\n+-\n+-\n")
    with pytest.raises(InvalidInput, match="line 3"):
        SignPattern.from_text("2 2\n+-\n+x\n")
    with pytest.raises(InvalidInput, match="line 2"):
        SignPattern.from_text("2 2\n+-0\n+-\n")


def test_patterns_are_immutable_values():
    subs = one_entry_subpatterns(S22)
    assert all(sub is not S22 for _, sub in subs)
    with pytest.raises(AttributeError):
        S22.entries = ()
