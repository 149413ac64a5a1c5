import sys

import numpy as np
import pytest

from sapcert import charpoly
from sapcert import minimality
from sapcert.charpoly import char_coeffs
from sapcert.errors import InvalidInput
from sapcert.family import FamilyParams, build_pattern
from sapcert.minimality import (
    FIXED_SIGN_COEFF,
    REDUCIBLE_FIXED_TRACE,
    TOO_FEW_ENTRIES,
    confirm_fixed_sign,
    entry_count_obstruction,
    family_deletions,
    family_verdict,
    fixed_sign_obstruction,
    obstruction_scan,
    reducibility_obstruction,
    verify_msap,
)
from sapcert.patterns import Sign, SignPattern, one_entry_subpatterns


def test_entry_count_family_itself_unobstructed():
    for (n, r) in [(3, 2), (5, 3), (8, 2)]:
        assert entry_count_obstruction(build_pattern(FamilyParams(n, r))) is None


def test_entry_count_fires_on_sparse_irreducible():
    # delete (1,1) and (2,1): still one strongly connected component but
    # only 2n-2 entries remain
    pat = build_pattern(FamilyParams(4, 2))
    pat = pat.with_entry(0, 0, Sign.ZERO).with_entry(1, 0, Sign.ZERO)
    obs = entry_count_obstruction(pat)
    assert obs is not None and obs.kind == TOO_FEW_ENTRIES
    assert obs.detail == {"count": 6, "required": 7}
    assert obs.hereditary


def test_entry_count_guard_for_reducible():
    pat = SignPattern.from_rows(["+-0", "0+0", "00-"])
    assert entry_count_obstruction(pat) is None  # reducible: rule does not apply


def test_reducibility_3_2_delete_superdiagonal():
    pat = build_pattern(FamilyParams(3, 2)).with_entry(0, 1, Sign.ZERO)
    obs = reducibility_obstruction(pat)
    assert obs is not None and obs.kind == REDUCIBLE_FIXED_TRACE
    assert obs.detail["partition"] == [[1], [2, 3]]
    signs = {b["block"]: b["trace_sign"] for b in obs.detail["fixed_trace_blocks"]}
    assert signs[0] == "+"


def test_reducibility_absent_for_irreducible():
    assert reducibility_obstruction(build_pattern(FamilyParams(5, 3))) is None


@pytest.mark.parametrize("n", range(3, 11))
def test_reducibility_all_superdiagonal_deletions(n):
    for r in range(2, n):
        base = build_pattern(FamilyParams(n, r))
        for i in range(n - 1):
            sub = base.with_entry(i, i + 1, Sign.ZERO)
            obs = reducibility_obstruction(sub)
            assert obs is not None, (n, r, i)


@pytest.mark.parametrize("n", range(2, 41))
def test_family_deletions_equal_the_generic_detectors(n):
    # the closed form must reproduce the generic detectors' obstruction,
    # partition order included, at every position of every order
    for r in range(2, n + 1):
        p = FamilyParams(n, r)
        base = build_pattern(p)
        rows = family_deletions(p)
        assert [pos for pos, _ in rows] == list(base.nonzero_positions())
        for (i, j), obs in rows:
            if j == i + 1:
                sub = base.with_entry(i, j, Sign.ZERO)
                want = reducibility_obstruction(sub) or entry_count_obstruction(sub)
            else:
                want = fixed_sign_obstruction(p, (i, j))
            assert obs == want, (n, r, (i, j))


@pytest.mark.parametrize("n", [2, 3, 4, 7, 12, 40, 160])
def test_family_verdict_is_the_verdict_of_family_deletions(n, monkeypatch):
    for r in range(2, n + 1):
        assert all(obs is not None for _, obs in family_deletions(FamilyParams(n, r)))

    def no_partition(*args):
        raise AssertionError("the verdict walk built a partition")

    monkeypatch.setattr(minimality, "_split_obstruction", no_partition)
    for r in range(2, n + 1):
        assert family_verdict(FamilyParams(n, r)) is True


def _sample_alpha_of_deleted(p, deleted, samples=1000, seed=123):
    # independent confirmation oracle: materialize the deleted structured
    # form and run the matrix-level coefficient computation
    n, r = p.n, p.r
    rng = np.random.default_rng(seed)
    out = np.empty((samples, n))
    for k in range(samples):
        a = rng.uniform(0.01, 10.0, n - 1)
        b = float(rng.uniform(0.01, 10.0))
        M = np.zeros((n, n))
        for i in range(n - 1):
            M[i, 0] = a[i]
            M[i, i + 1] = -1.0
        M[n - 1, n - r] = b
        M[n - 1, n - 1] = -1.0
        M[deleted[0], deleted[1]] = 0.0
        out[k] = char_coeffs(M).values
    return out


def test_fixed_sign_delete_a3_in_5_2():
    p = FamilyParams(5, 2)
    obs = fixed_sign_obstruction(p, (2, 0))  # a_3
    assert obs.kind == FIXED_SIGN_COEFF
    assert obs.detail["index"] == 4 and obs.detail["sign"] == "+"
    vals = _sample_alpha_of_deleted(p, (2, 0))
    assert np.all(vals[:, 3] > 0)


def test_fixed_sign_delete_feedback():
    for (n, r) in [(4, 2), (6, 3), (5, 5)]:
        p = FamilyParams(n, r)
        obs = fixed_sign_obstruction(p, (n - 1, n - r))
        assert obs.detail["index"] == n and obs.detail["sign"] == "-"
        vals = _sample_alpha_of_deleted(p, (n - 1, n - r))
        assert np.all(vals[:, n - 1] < 0)


def test_fixed_sign_corner_and_head():
    p = FamilyParams(4, 2)
    head = fixed_sign_obstruction(p, (0, 0))
    assert head.detail == {"index": 1, "sign": "-", "certified": True}
    corner = fixed_sign_obstruction(p, (3, 3))
    assert corner.detail == {"index": 1, "sign": "+", "certified": True}
    assert np.all(_sample_alpha_of_deleted(p, (0, 0))[:, 0] < 0)
    assert np.all(_sample_alpha_of_deleted(p, (3, 3))[:, 0] > 0)


def test_fixed_sign_superdiagonal_routed_away():
    assert fixed_sign_obstruction(FamilyParams(4, 2), (0, 1)) is None


def test_fixed_sign_invalid_position():
    with pytest.raises(InvalidInput):
        fixed_sign_obstruction(FamilyParams(4, 2), (2, 2))


def test_every_family_claim_is_an_exact_fixed_sign():
    # v_k is a sum of distinct signed monomials in the entries (one per
    # cycle cover), so a claim holds over the whole class iff every term
    # carries the claimed sign
    sp = pytest.importorskip("sympy")
    lam = sp.Symbol("lam")
    for n in range(2, 6):
        for r in range(2, n + 1):
            p = FamilyParams(n, r)
            for pos, sub in one_entry_subpatterns(build_pattern(p)):
                obs = fixed_sign_obstruction(p, pos)
                if obs is None:
                    continue
                entries = list(sub.nonzero_positions())
                xs = sp.symbols(f"x0:{len(entries)}", positive=True)
                M = sp.zeros(n, n)
                for x, (i, j) in zip(xs, entries):
                    M[i, j] = x if sub.entries[i][j] is Sign.PLUS else -x
                charpoly = (lam * sp.eye(n) - M).det(method="berkowitz")
                k = obs.detail["index"]
                v_k = sp.expand((-1) ** k * sp.Poly(charpoly, lam).all_coeffs()[k])
                want = 1 if obs.detail["sign"] == "+" else -1
                terms = sp.Poly(v_k, *xs).coeffs()
                assert v_k != 0 and all(t * want > 0 for t in terms), (n, r, pos)


def test_confirm_fixed_sign_agrees_with_oracle():
    p = FamilyParams(6, 3)
    for deleted, idx, sign in [
        ((3, 0), 5, "+"),
        ((5, 3), 6, "-"),
        ((0, 0), 1, "-"),
        ((5, 5), 1, "+"),
    ]:
        assert confirm_fixed_sign(p, deleted, idx, sign, samples=500, seed=9)
        vals = _sample_alpha_of_deleted(p, deleted, samples=500, seed=10)
        col = vals[:, idx - 1]
        assert np.all(col > 0) if sign == "+" else np.all(col < 0)


def test_hereditary_after_second_deletion():
    # the fixed sign may collapse to zero but never flips strictly
    p = FamilyParams(5, 2)
    rng = np.random.default_rng(77)
    for extra in [(1, 0), (0, 1), (4, 4)]:
        for k in range(300):
            a = rng.uniform(0.01, 10.0, 4)
            b = float(rng.uniform(0.01, 10.0))
            M = np.zeros((5, 5))
            for i in range(4):
                M[i, 0] = a[i]
                M[i, i + 1] = -1.0
            M[4, 3] = b
            M[4, 4] = -1.0
            M[2, 0] = 0.0  # the obstructed deletion: index 4 stays >= 0
            M[extra[0], extra[1]] = 0.0
            assert char_coeffs(M).values[3] >= -1e-12


def test_verify_msap_2_2():
    report = verify_msap(FamilyParams(2, 2), samples=300)
    assert report.verdict
    kinds = {pos: obs.kind for pos, obs in report.per_deletion}
    assert kinds[(0, 1)] == REDUCIBLE_FIXED_TRACE
    assert kinds[(0, 0)] == FIXED_SIGN_COEFF
    assert kinds[(1, 0)] == FIXED_SIGN_COEFF
    assert kinds[(1, 1)] == FIXED_SIGN_COEFF


@pytest.mark.parametrize("n", range(2, 13))
def test_verify_msap_sweep(n):
    for r in range(2, n + 1):
        report = verify_msap(FamilyParams(n, r), samples=200, seed=1)
        assert report.verdict, (n, r)
        for pos, obs in report.per_deletion:
            assert obs is not None
            if obs.kind == FIXED_SIGN_COEFF:
                assert obs.detail["sample_confirmed"]


def test_verify_msap_case_assignment():
    n, r = 7, 3
    report = verify_msap(FamilyParams(n, r), samples=200, seed=2)
    for (i, j), obs in report.per_deletion:
        if j == i + 1:
            assert obs.kind == REDUCIBLE_FIXED_TRACE
        elif (i, j) == (0, 0):
            assert obs.detail["index"] == 1 and obs.detail["sign"] == "-"
        elif (i, j) == (n - 1, n - r):
            assert obs.detail["index"] == n and obs.detail["sign"] == "-"
        elif (i, j) == (n - 1, n - 1):
            assert obs.detail["index"] == 1 and obs.detail["sign"] == "+"
        else:
            assert j == 0
            assert obs.detail["index"] == i + 2 and obs.detail["sign"] == "+"


def test_superpattern_is_not_minimal():
    base = build_pattern(FamilyParams(4, 2))
    super_pat = base.with_entry(1, 3, Sign.MINUS)
    report = obstruction_scan(super_pat, samples=400, seed=3)
    assert not report.verdict
    assert report.obstruction_at((1, 3)) is None  # deleting the extra restores a SAP
    payload = report.as_json_dict()
    entry = next(d for d in payload["deletions"] if d["position"] == [2, 4])
    assert entry["obstruction"] == "Unobstructed"


def test_obstruction_scan_sampled_detail_not_certified():
    # scanning the family pattern generically: deleting the head entry
    # keeps the digraph strongly connected, so the fixed trace sign is
    # found by sampling and must be labelled as evidence, not proof
    report = obstruction_scan(build_pattern(FamilyParams(3, 2)), samples=400, seed=4)
    assert report.verdict
    obs = report.obstruction_at((0, 0))
    assert obs.kind == FIXED_SIGN_COEFF
    assert obs.detail["index"] == 1 and obs.detail["sign"] == "-"
    assert obs.detail["certified"] is False


@pytest.mark.parametrize("samples", [0, -1])
def test_sample_count_below_one_is_rejected(samples):
    # zero samples would confirm every fixed-sign claim vacuously: this
    # pattern scans False on real samples
    S = SignPattern.from_rows(["+-+", "+--", "-+-"])
    assert not obstruction_scan(S, samples=1000).verdict
    p = FamilyParams(4, 2)
    with pytest.raises(InvalidInput, match="at least one sample"):
        obstruction_scan(S, samples=samples)
    with pytest.raises(InvalidInput, match="at least one sample"):
        verify_msap(p, samples=samples)
    with pytest.raises(InvalidInput, match="at least one sample"):
        confirm_fixed_sign(p, (0, 0), 1, "-", samples=samples)


def test_negative_seed_is_rejected():
    S = SignPattern.from_rows(["+-+", "+--", "-+-"])
    p = FamilyParams(4, 2)
    with pytest.raises(InvalidInput, match="seed must be non-negative, got -1"):
        obstruction_scan(S, seed=-1)
    with pytest.raises(InvalidInput, match="seed must be non-negative, got -1"):
        verify_msap(p, seed=-1)
    with pytest.raises(InvalidInput, match="seed must be non-negative, got -1"):
        confirm_fixed_sign(p, (0, 0), 1, "-", seed=-1)


def test_sample_count_over_the_budget_is_rejected():
    S = SignPattern.from_rows(["+-+", "+--", "-+-"])
    p = FamilyParams(3, 2)
    with pytest.raises(InvalidInput, match="sampling budget"):
        obstruction_scan(S, samples=10**11)
    with pytest.raises(InvalidInput, match="sampling budget"):
        verify_msap(p, samples=3 * 10**9)
    with pytest.raises(InvalidInput, match="sampling budget"):
        confirm_fixed_sign(p, (0, 0), 1, "-", samples=3 * 10**9)


def test_sample_budget_counts_the_largest_sampled_array(monkeypatch):
    # the family samples n coefficients per draw, a user pattern an n x n
    # matrix: at n = 3 and 30 samples that is 90 and 270 values
    monkeypatch.setattr(minimality, "SAMPLE_VALUE_BUDGET", 100)
    p = FamilyParams(3, 2)
    assert verify_msap(p, samples=30).verdict
    with pytest.raises(InvalidInput, match="30 samples of 9 values each"):
        obstruction_scan(build_pattern(p), samples=30)
    with pytest.raises(InvalidInput, match="34 samples of 3 values each"):
        verify_msap(p, samples=34)


def test_default_samples_fit_the_budget():
    # the largest orders the golden set, the tests and the benchmark scan
    assert minimality.DEFAULT_SAMPLES * 12 * 12 <= minimality.SAMPLE_VALUE_BUDGET
    assert minimality.DEFAULT_SAMPLES * 80 <= minimality.SAMPLE_VALUE_BUDGET


def test_msap_report_json_layout():
    report = verify_msap(FamilyParams(3, 2), samples=100, seed=5)
    payload = report.as_json_dict()
    assert payload["verdict"] is True
    assert payload["n"] == 3 and payload["r"] == 2
    assert len(payload["deletions"]) == 6
    for row in payload["deletions"]:
        assert set(row) == {"position", "obstruction", "detail"}


def test_confirm_fixed_sign_corner_rejects_the_opposite_claim():
    # the corner confirmation evaluates real samples, so it cannot pass vacuously
    for (n, r) in [(4, 2), (6, 6), (12, 5)]:
        p = FamilyParams(n, r)
        assert confirm_fixed_sign(p, (n - 1, n - 1), 1, "+")
        assert not confirm_fixed_sign(p, (n - 1, n - 1), 1, "-")


@pytest.mark.parametrize("index", [0, -1, 5])
def test_confirm_fixed_sign_rejects_an_index_outside_one_to_n(index):
    p = FamilyParams(4, 2)
    assert confirm_fixed_sign(p, (2, 0), 4, "+")
    with pytest.raises(InvalidInput, match=f"coefficient index {index} outside 1..4"):
        confirm_fixed_sign(p, (2, 0), index, "+")


@pytest.mark.parametrize("sign", ["?", "", "\u2212", "plus"])
def test_confirm_fixed_sign_rejects_a_sign_other_than_plus_or_minus(sign):
    p = FamilyParams(4, 2)
    with pytest.raises(InvalidInput, match="claimed sign must be"):
        confirm_fixed_sign(p, (2, 0), 4, sign)


def test_sampling_paths_run_no_per_matrix_char_coeffs(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("single-matrix char_coeffs called on a sampling path")

    for name, mod in list(sys.modules.items()):
        if name.split(".")[0] == "sapcert" and hasattr(mod, "char_coeffs"):
            monkeypatch.setattr(mod, "char_coeffs", refuse)
    recursion = charpoly._faddeev_leverrier
    stacks = []

    def stacked_only(M, positions=()):
        stacks.append(M.ndim)
        return recursion(M, positions)

    monkeypatch.setattr(charpoly, "_faddeev_leverrier", stacked_only)
    for r in range(2, 9):
        assert verify_msap(FamilyParams(8, r)).verdict
    assert not stacks  # every family confirmation is closed form
    for r in range(2, 6):
        assert obstruction_scan(build_pattern(FamilyParams(5, r))).verdict
    assert stacks and set(stacks) == {3}
