"""Golden deletion-scan reports: sha256 of the JSON of ``obstruction_scan``
and ``verify_msap`` reports.

Each digest covers the reports of one group of inputs, joined by
newlines: the family patterns of one order n (every 2 <= r <= n), the
(4, 2) superpattern with (2, 4) "-", or the 3 x 3 pattern
``+-+ / +-- / -+-``.  ``obstruction_scan`` runs 300 samples at seeds 0 and
3, ``verify_msap`` 200 samples at seed 0.  A refactor must leave every
report byte-identical; an intended change updates the digest here and is
logged with its reason in CHANGES.md.
"""

import hashlib

import pytest

from sapcert.family import FamilyParams, build_pattern
from sapcert.minimality import obstruction_scan, verify_msap
from sapcert.patterns import Sign, SignPattern
from sapcert.serialize import json_dumps


def _family(n):
    return [build_pattern(FamilyParams(n, r)) for r in range(2, n + 1)]


USER_PATTERNS = {
    "superpattern": lambda: [build_pattern(FamilyParams(4, 2)).with_entry(1, 3, Sign.MINUS)],
    "3x3": lambda: [SignPattern.from_rows(["+-+", "+--", "-+-"])],
}


def _digest(reports):
    text = "\n".join(json_dumps(report.as_json_dict()) for report in reports)
    return hashlib.sha256(text.encode()).hexdigest()


def _scan_digest(group, seed):
    patterns = USER_PATTERNS[group]() if group in USER_PATTERNS else _family(int(group))
    return _digest(obstruction_scan(S, samples=300, seed=seed) for S in patterns)


def _msap_digest(n):
    return _digest(verify_msap(FamilyParams(n, r), samples=200) for r in range(2, n + 1))


SCAN_GOLDEN = [
    ('2', 0, 'fc59245eec0b52dbf4b44c466889dda594a044f587edbbf40ac80e4a465f8c8b'),
    ('3', 0, 'bbe74d403cee0d4d8bed0ee7f6cd9f7e4f858afe4d526b00df7182e28248c6ee'),
    ('4', 0, 'ad314227aa3aa29521f6d2df3b2bfe3102e1c00123f72e83305468bec4fe4f48'),
    ('5', 0, 'b1d02b49c3b3fabfbca3cd3ae15a340b37f8daf902cbaf5739ec8d2c8aca9e7d'),
    ('6', 0, '3e5da7e2ff4a4eca1a057901a2f7127aa2fd866fc5d1cdb3bb9d6ebcec620a0d'),
    ('superpattern', 0, 'ecf51f25ad42bab3520585753f7626bb1255093a4f483a048968ed22704e7b51'),
    ('3x3', 0, 'd769edb5d4e303c5fe2da1a5246b4a3265012c86329e0516ab43cf74a4fef439'),
    ('2', 3, '5591bdd27664e2cbad6ff532ad8d0b0ce7ae3c485beaba620a75802bda9b8a1e'),
    ('3', 3, '57717c1a46aea074d1f2405c98b2db374c0d622618e225ff9a03e8e2b2907845'),
    ('4', 3, 'ddee8e8fa749ec234fdfd107f72793403cdffa2e55e8a71316a0f42cccd4b16c'),
    ('5', 3, '27b086163403ddb57566ef56292f6adde3e823b610674ce04514402fffc9ec3e'),
    ('6', 3, 'c56dd734b38350a9a3af3aa6687c065856c097b3581a5b29e923878b0b971daf'),
    ('superpattern', 3, 'b5ec1408c70c85335fd8cae057deb1fdca9ff020a5e8af80a601ad367c57789b'),
    ('3x3', 3, 'be945610e75581ac94514ba6234e711da88c3007e0bf4ceef4fa53a38d4ad0e3'),
]

MSAP_GOLDEN = [
    (2, '240c6c97282561fe308b3b39e966fe95b122ddcaf55ffa8f17f29fe0bb9ea39e'),
    (3, '0348c2c158238320fa5f87cccb6839e1762a7204e1c6fe80b3b34cdb34f93194'),
    (4, 'f2bafed713514019bc7d15eaaf48599ddff54a8819202c5b0a159b1f72cf50fe'),
    (5, 'f2cee9d2d6253a8a24daacd95477f4b4670ee01631d5cc81f94c2a5598b6727b'),
    (6, '290f0356f578533212ef2a5921d6f7e83c2f9e6c55bef8c74c57d186ed07a649'),
    (7, '6556c92a5d0d939db61dc1f3ef586ddeda00d89d50a18040e3693f543c658fc0'),
    (8, '271b4beeb9056f24cc27fb4ac09df28e6c2819127b5a805e68c7b13b11b0553e'),
    (9, '5ef5e502453624b18f2ec4c41a6f29ad8a3dea7798841a1f66def063a9ee71c6'),
    (10, 'f047f8715b67452d2ae7ab054dd66806db9ef33c145f73985abdc78874f10559'),
]


@pytest.mark.parametrize("group,seed,digest", SCAN_GOLDEN, ids=[f"{g}-seed{s}" for g, s, _ in SCAN_GOLDEN])
def test_obstruction_scan_report_matches_golden_digest(group, seed, digest):
    assert _scan_digest(group, seed) == digest


@pytest.mark.parametrize("n,digest", MSAP_GOLDEN, ids=[f"n{n}" for n, _ in MSAP_GOLDEN])
def test_verify_msap_report_matches_golden_digest(n, digest):
    assert _msap_digest(n) == digest
