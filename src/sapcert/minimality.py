"""Hereditary obstructions to spectral arbitrariness under entry deletion.

Minimality of the family pattern is verified deletion by deletion: zeroing
any single nonzero entry either disconnects the digraph into fixed-trace
blocks, or pins the sign of one characteristic coefficient over the whole
class.  Both obstructions survive further deletions, so they rule out
every subpattern at once.

For the family both obstructions are read from the deleted position alone.
``fixed_sign_obstruction`` is the one table of fixed-sign claims: it reads
the coefficient and its sign off the closed-form coefficient map, where
they are sums of strictly positive terms.  A deleted superdiagonal entry
splits the digraph at a place fixed by the position, n and r, so its
partition into strongly connected components is written down directly.
``family_deletions`` walks the family's 2n nonzero positions with these
two rules; it builds no subpattern, runs no graph search and draws no
samples, and ``family_verdict`` walks them for the verdict alone.  Only
``verify_msap`` samples: it confirms each fixed-sign claim on seeded
random parameters, through the closed-form coefficient map on the whole
sample at once.  For arbitrary user patterns
``obstruction_scan`` runs the generic detectors on each one-entry
subpattern: the strongly connected components, the entry count and a
sampled fixed-sign search, one stacked Faddeev-LeVerrier pass over all
samples, whose verdicts are evidence, never proofs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .charpoly import char_coeffs_batch
from .errors import InvalidInput
from .family import FamilyParams, build_pattern, coeff_values_batch
from .patterns import (
    Sign,
    SignPattern,
    adjacency,
    is_irreducible,
    nonzero_count,
    one_entry_subpatterns,
    strongly_connected_components,
)

TOO_FEW_ENTRIES = "TooFewEntries"
REDUCIBLE_FIXED_TRACE = "ReducibleFixedTraceBlocks"
FIXED_SIGN_COEFF = "FixedSignCoefficient"
UNOBSTRUCTED = "Unobstructed"

DEFAULT_SAMPLES = 1000
# largest sampled array, in float64 values (256 MiB)
SAMPLE_VALUE_BUDGET = 2**25


@dataclass(frozen=True)
class Obstruction:
    """One detected obstruction; ``detail`` is kind-specific and JSON-ready."""

    kind: str
    detail: dict = field(default_factory=dict)
    hereditary: bool = True


@dataclass(frozen=True)
class MsapReport:
    """Per-deletion obstruction map for a pattern.

    ``verdict`` is True iff every one-entry deletion carries an
    obstruction (confirmed by sampling where applicable).
    """

    pattern: SignPattern
    per_deletion: tuple[tuple[tuple[int, int], Optional[Obstruction]], ...]
    verdict: bool
    seed: int
    samples: int
    params: Optional[FamilyParams] = None

    def obstruction_at(self, pos: tuple[int, int]) -> Optional[Obstruction]:
        for p, obs in self.per_deletion:
            if p == pos:
                return obs
        raise KeyError(pos)

    def as_json_dict(self) -> dict:
        deletions = []
        for (i, j), obs in self.per_deletion:
            deletions.append(
                {
                    "position": [i + 1, j + 1],
                    "obstruction": obs.kind if obs else UNOBSTRUCTED,
                    "detail": dict(obs.detail) if obs else {},
                }
            )
        out = {"verdict": self.verdict, "seed": self.seed, "deletions": deletions}
        if self.params is not None:
            out["n"] = self.params.n
            out["r"] = self.params.r
        return out


def entry_count_obstruction(S: SignPattern) -> Optional[Obstruction]:
    """Too few entries: an irreducible square pattern of order n needs 2n-1."""
    if not S.is_square:
        raise InvalidInput("entry count rule applies to square patterns")
    count = nonzero_count(S)
    threshold = 2 * S.n_rows - 1
    if is_irreducible(S) and count < threshold:
        return Obstruction(
            kind=TOO_FEW_ENTRIES,
            detail={"count": count, "required": threshold},
        )
    return None


def reducibility_obstruction(S: SignPattern) -> Optional[Obstruction]:
    """Block-triangular split with a fixed-sign-trace diagonal block.

    The strongly connected components give the finest block lower
    triangular form.  If some block's diagonal entries are nonzero of a
    single sign, its trace sign is fixed, that block requires a nonzero
    eigenvalue, and no subpattern can be spectrally arbitrary.
    """
    if not S.is_square:
        raise InvalidInput("reducibility rule applies to square patterns")
    comps = strongly_connected_components(adjacency(S))
    if len(comps) == 1:
        return None
    fixed_blocks = []
    for idx, comp in enumerate(comps):
        diag = [S.entries[v][v] for v in comp]
        nonzero = {s for s in diag if s is not Sign.ZERO}
        if len(nonzero) == 1:
            fixed_blocks.append({"block": idx, "trace_sign": nonzero.pop().value})
    if not fixed_blocks:
        return None
    return Obstruction(
        kind=REDUCIBLE_FIXED_TRACE,
        detail={
            "partition": [[v + 1 for v in comp] for comp in comps],
            "fixed_trace_blocks": fixed_blocks,
        },
    )


def fixed_sign_obstruction(
    p: FamilyParams, deleted: tuple[int, int]
) -> Optional[Obstruction]:
    """Fixed-sign coefficient forced by zeroing one family entry.

    Derived from the closed-form coefficient map with the corresponding
    parameter set to zero; every surviving term has one sign, so the sign
    claim holds across the whole class (positive scaling and diagonal
    similarity preserve coefficient signs).  Superdiagonal deletions are
    not of this kind and return None.
    """
    claim = _fixed_sign_claim(p, deleted)
    if claim is None:
        return None
    index, sign = claim
    return Obstruction(
        kind=FIXED_SIGN_COEFF,
        detail={"index": index, "sign": sign, "certified": True},
    )


def _fixed_sign_claim(
    p: FamilyParams, deleted: tuple[int, int]
) -> Optional[tuple[int, str]]:
    # (coefficient index, sign) of ``fixed_sign_obstruction``, None for a
    # superdiagonal entry; InvalidInput for a zero position
    n, r = p.n, p.r
    i, j = deleted
    if (i, j) == (n - 1, n - 1):
        # trace reduces to the positive (1,1) entry
        index, sign = 1, "+"
    elif (i, j) == (n - 1, n - r):
        # last coefficient reduces to -a_{n-1}; checked before column one,
        # where the feedback entry sits at r = n
        index, sign = n, "-"
    elif 0 <= i < n - 1 and j == i + 1:
        return None
    elif 0 <= i < n - 1 and j == 0:
        # deleting a_1 leaves the trace the negative corner; with a_j = 0
        # (j >= 2) coefficient j+1 is a sum of strictly positive terms
        index, sign = (1, "-") if i == 0 else (i + 2, "+")
    else:
        raise InvalidInput(f"{deleted} is not a nonzero position of the pattern")
    return index, sign


def _split_obstruction(p: FamilyParams, k: int) -> Obstruction:
    # Deleting superdiagonal (k, k+1), 1-based, leaves 1..k reaching only
    # themselves, and k+1..n cycling only through the feedback arc
    # n -> f = n-r+1 when f > k.  The partition lists the components in
    # the order Tarjan's search from vertex 1 pops them, as
    # ``reducibility_obstruction`` does: [1..k] holds the positive (1, 1)
    # entry, and the next block holds the negative corner (n, n).
    n, f = p.n, p.n - p.r + 1
    top = n
    partition = [list(range(1, k + 1))]
    if f > k:
        partition.append(list(range(f, n + 1)))
        top = f - 1
    partition += [[v] for v in range(top, k, -1)]
    return Obstruction(
        kind=REDUCIBLE_FIXED_TRACE,
        detail={
            "partition": partition,
            "fixed_trace_blocks": [
                {"block": 0, "trace_sign": "+"},
                {"block": 1, "trace_sign": "-"},
            ],
        },
    )


def _family_positions(p: FamilyParams):
    # the 2n nonzero positions of the family pattern, 0-based, row-major
    n, r = p.n, p.r
    for i in range(n - 1):
        yield (i, 0)
        yield (i, i + 1)
    yield (n - 1, n - r)
    yield (n - 1, n - 1)


def family_deletions(
    p: FamilyParams,
) -> tuple[tuple[tuple[int, int], Obstruction], ...]:
    """The obstruction of every one-entry deletion of the family pattern.

    Walks the 2n nonzero positions (0-based) in row-major order and reads
    each obstruction from the position: ``fixed_sign_obstruction`` for the
    first column, the feedback entry and the corner, the fixed-trace split
    for a superdiagonal entry.  Equal to what the generic detectors find
    on each subpattern; builds no subpattern and draws no samples.
    """
    return tuple(
        (pos, fixed_sign_obstruction(p, pos) or _split_obstruction(p, pos[1]))
        for pos in _family_positions(p)
    )


def family_verdict(p: FamilyParams) -> bool:
    """True iff every one-entry deletion of the family pattern is obstructed.

    The verdict of ``family_deletions`` without its detail: walks the same
    2n positions and asks each only for a fixed-sign claim or a
    superdiagonal place, whose deletion always splits off a positive-trace
    and a negative-trace block.  Builds no partition and no detail dict,
    so it costs O(n) where ``family_deletions`` builds O(n^2) lists.
    """
    return all(
        j == i + 1 or _fixed_sign_claim(p, (i, j)) is not None
        for i, j in _family_positions(p)
    )


def _sample_parameters(
    rng: np.random.Generator, m: int, count: int
) -> np.ndarray:
    # log-uniform over [1e-2, 1e1] exercises three orders of magnitude
    return 10.0 ** rng.uniform(-2.0, 1.0, size=(m, count))


def check_sampling(samples: int, seed: int, values_per_sample: int) -> None:
    """Raise InvalidInput unless ``samples`` and ``seed`` are usable.

    Rejects ``samples < 1``, a negative ``seed``, and a sample count whose
    largest sampled array, ``samples`` times ``values_per_sample`` values,
    exceeds ``SAMPLE_VALUE_BUDGET``.
    """
    # zero samples would confirm every sign claim vacuously
    if samples < 1:
        raise InvalidInput(f"need at least one sample, got {samples}")
    if seed < 0:
        raise InvalidInput(f"seed must be non-negative, got {seed}")
    if samples * values_per_sample > SAMPLE_VALUE_BUDGET:
        raise InvalidInput(
            f"{samples} samples of {values_per_sample} values each exceed "
            f"the sampling budget of {SAMPLE_VALUE_BUDGET} values"
        )


def confirm_fixed_sign(
    p: FamilyParams,
    deleted: tuple[int, int],
    index: int,
    sign: str,
    samples: int = DEFAULT_SAMPLES,
    seed: int = 0,
) -> bool:
    """Sampling confirmation of a family fixed-sign claim.

    Draws random positive parameters for the structured form, zeroes the
    deleted entry, and checks that coefficient ``index`` keeps the
    claimed strict sign in every sample.  Every deletion, the (n, n)
    corner included, is evaluated through the closed-form coefficient map.
    Raises InvalidInput for ``samples < 1``, a negative ``seed``, a
    sample count over the sampling budget, an ``index`` outside 1..n or a
    ``sign`` other than "+" and "-".
    """
    n, r = p.n, p.r
    check_sampling(samples, seed, n)
    if not 1 <= index <= n:
        raise InvalidInput(f"coefficient index {index} outside 1..{n}")
    if sign not in ("+", "-"):
        raise InvalidInput(f"claimed sign must be '+' or '-', got {sign!r}")
    try:
        claim = fixed_sign_obstruction(p, deleted)
    except InvalidInput:
        claim = None
    if claim is None:
        raise InvalidInput(f"no fixed-sign claim for position {deleted}")
    i, j = deleted
    rng = np.random.default_rng([seed, i, j])
    a = _sample_parameters(rng, samples, n - 1)
    b = _sample_parameters(rng, samples, 1)[:, 0]
    corner = -1.0
    if (i, j) == (n - 1, n - 1):
        corner = 0.0
    elif (i, j) == (n - 1, n - r):
        b[:] = 0.0
    else:
        a[:, i] = 0.0
    col = coeff_values_batch(n, r, a, b, corner)[:, index - 1]
    if sign == "+":
        return bool(np.all(col > 0.0))
    return bool(np.all(col < 0.0))


def verify_msap(
    p: FamilyParams, samples: int = DEFAULT_SAMPLES, seed: int = 0
) -> MsapReport:
    """Obstruction scan over every one-entry deletion of the family pattern.

    The obstructions are those of ``family_deletions``, read in closed form
    from each position, so every deletion is obstructed.  This is the only
    family scan that samples: each fixed-sign claim is confirmed on seeded
    samples, and a failed confirmation (which would indicate a bug, not a
    property of the pattern) clears the verdict.  Raises InvalidInput for
    ``samples < 1``, a negative ``seed`` or a sample count over the
    sampling budget.
    """
    check_sampling(samples, seed, p.n)
    rows = []
    verdict = True
    for pos, obs in family_deletions(p):
        if obs.kind == FIXED_SIGN_COEFF:
            index, sign = obs.detail["index"], obs.detail["sign"]
            confirmed = confirm_fixed_sign(p, pos, index, sign, samples, seed)
            verdict = verdict and confirmed
            detail = {**obs.detail, "sample_confirmed": confirmed, "samples": samples}
            obs = Obstruction(kind=obs.kind, detail=detail)
        rows.append((pos, obs))
    return MsapReport(
        pattern=build_pattern(p),
        per_deletion=tuple(rows),
        verdict=verdict,
        seed=seed,
        samples=samples,
        params=p,
    )


def obstruction_scan(
    S: SignPattern, samples: int = DEFAULT_SAMPLES, seed: int = 0
) -> MsapReport:
    """Deletion scan for an arbitrary square pattern.

    Uses the structural detectors plus a sampled fixed-sign search: a
    coefficient that keeps one strict sign over all sampled realizations
    of the deleted pattern is reported with ``certified: False``.  Absence
    of an obstruction yields verdict False, which is not a claim that any
    subpattern is spectrally arbitrary.  Raises InvalidInput for
    ``samples < 1``, a negative ``seed`` or a sample count over the
    sampling budget.
    """
    if not S.is_square:
        raise InvalidInput("pattern must be square")
    # any pattern other than the family is sampled as a stack of n x n matrices
    check_sampling(samples, seed, S.n_rows * S.n_rows)
    rng = None
    rows = []
    for pos, sub in one_entry_subpatterns(S):
        obs = reducibility_obstruction(sub) or entry_count_obstruction(sub)
        if obs is None:
            # one generator across deletions, made once the seed is checked
            rng = rng or np.random.default_rng(seed)
            obs = _sampled_fixed_sign(sub, rng, samples)
        rows.append((pos, obs))
    return MsapReport(
        pattern=S,
        per_deletion=tuple(rows),
        verdict=all(obs is not None for _, obs in rows),
        seed=seed,
        samples=samples,
    )


def _sampled_fixed_sign(
    S: SignPattern, rng: np.random.Generator, samples: int
) -> Optional[Obstruction]:
    n = S.n_rows
    positions = list(S.nonzero_positions())
    rows = [i for i, _ in positions]
    cols = [j for _, j in positions]
    signs = np.array(
        [1.0 if S.entries[i][j] is Sign.PLUS else -1.0 for i, j in positions]
    )
    stack = np.zeros((samples, n, n))
    stack[:, rows, cols] = _sample_parameters(rng, samples, len(positions)) * signs
    vals = char_coeffs_batch(stack)
    for col in range(n):
        column = vals[:, col]
        if np.all(column > 0.0):
            sign = "+"
        elif np.all(column < 0.0):
            sign = "-"
        else:
            continue
        return Obstruction(
            kind=FIXED_SIGN_COEFF,
            detail={
                "index": col + 1,
                "sign": sign,
                "certified": False,
                "samples": samples,
            },
        )
    return None
