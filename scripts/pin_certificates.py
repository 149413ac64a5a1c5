"""Pin every supported nilpotent certificate to one sha256 digest.

Hashes, for every 2 <= r <= n <= family.MAX_N and both precision modes,
the certificate's JSON, its margins, its residual and its bracket's lo,
hi and exact, then compares the digest with ``PINNED``.  Exit status 0
on a match, 1 otherwise.  Run from the repository root:

    PYTHONPATH=src python scripts/pin_certificates.py

A change to the certificate proof must leave the digest as it is; one
that raises for some (n, r) fails here before it fails a user.
"""

from __future__ import annotations

import hashlib
import json
import sys

from sapcert.family import MAX_N, FamilyParams
from sapcert.nilpotent import nilpotent_realization

PINNED = "4c31bc4de4ddf6fed3da639d5a14a6c377a5488654962556c73e08fc493e8f48"


def certificate_digest() -> str:
    digest = hashlib.sha256()
    for n in range(2, MAX_N + 1):
        for r in range(2, n + 1):
            for precision in ("double", "extended"):
                cert = nilpotent_realization(FamilyParams(n, r), precision=precision)
                b = cert.bracket
                fields = [
                    cert.as_json_dict(),
                    list(cert.a0_margins),
                    cert.residual,
                    cert.precision_mode,
                    [str(b.lo), str(b.hi), None if b.exact is None else str(b.exact)],
                ]
                digest.update(json.dumps(fields).encode())
    return digest.hexdigest()


def main() -> int:
    got = certificate_digest()
    print(got)
    if got != PINNED:
        print(f"certificate digest changed: pinned {PINNED}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
