"""Pin seeded ``realize`` outputs to one sha256 digest.

Realizes uniform(-5, 5) targets, six for every 2 <= r <= n, 3 <= n <= 10,
and a few at n = 20 and n = 30, most of them on the scaling ladder.  For
each it hashes the delivered matrix's bytes, ``scaling_c``, the residual
and the normalized parameters, or the typed failure and its message, then
compares the digest with ``PINNED``.  Exit status 0 on a match, 1
otherwise.  Run from the repository root:

    PYTHONPATH=src python scripts/pin_realizations.py

A change to how ``realize`` solves a scale must leave the digest as it is.
"""

from __future__ import annotations

import hashlib
import json
import sys

import numpy as np

from sapcert.charpoly import CoeffVector
from sapcert.errors import SapcertError
from sapcert.family import FamilyParams
from sapcert.realize import realize

PINNED = "509a404d0f54e8ce8bcce5a187d7dbb9916e1b7576ff2e73368548af913300e2"

# (n, r, number of targets): every r up to n = 10, then a few r at n = 20, 30
CASES = [(n, r, 6) for n in range(3, 11) for r in range(2, n + 1)] + [
    (20, 2, 3), (20, 3, 3), (20, 10, 3), (20, 19, 3), (20, 20, 3),
    (30, 2, 2), (30, 3, 2), (30, 15, 2), (30, 29, 2), (30, 30, 2),
]


def realization_digest() -> str:
    rng = np.random.default_rng(2015)
    digest = hashlib.sha256()
    for n, r, count in CASES:
        p = FamilyParams(n, r)
        for _ in range(count):
            target = CoeffVector(tuple(rng.uniform(-5.0, 5.0, n)))
            try:
                res = realize(p, target)
            except SapcertError as exc:
                digest.update(json.dumps([type(exc).__name__, str(exc)]).encode())
                continue
            digest.update(res.matrix.astype("<f8").tobytes())
            fields = [res.scaling_c, res.residual, list(res.params.a), res.params.b]
            digest.update(json.dumps(fields).encode())
    return digest.hexdigest()


def main() -> int:
    got = realization_digest()
    print(got)
    if got != PINNED:
        print(f"realization digest changed: pinned {PINNED}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
