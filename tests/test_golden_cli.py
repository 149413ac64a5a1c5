"""Golden CLI outputs: sha256 of stdout and the exit code of fixed invocations.

The digests pin the deterministic stdout of ``nilpotent``, ``jacobian``,
``msap``, ``sweep`` and ``realize --monic`` (one unscaled target, one that
takes the scaling ladder, and one whose closing polynomial has the
positive rational roots 1 and 7, so that it goes through rational-root
recognition), with r = n cases for ``nilpotent``,
``jacobian`` and ``realize``.  A refactor must leave every one of them
byte-identical; an intended output change updates the digest here and is
logged with its reason in CHANGES.md.
"""

import hashlib

import pytest

from sapcert.cli import main

GOLDEN = [
    ('nilpotent --n 3 --r 2 --format json', 0, '0613f951065e719acef66416c76e2e7a445eaf998eb1bff72516f974f724c21e'),
    ('nilpotent --n 3 --r 2 --format csv', 0, '656ad09c0219220c4200fae3c0297991f859d936addea152b503f6750c069b52'),
    ('nilpotent --n 3 --r 2 --format text', 0, 'd2102cbb8a2997a16917795810d79344f46bbc4369b35a84e446ad937b7cdddf'),
    ('nilpotent --n 10 --r 4 --format json', 0, 'fe3a17a6ff3a4d4d4941e2b4de46717083cf10cbc81aed53e4f0bdcda1347dea'),
    ('nilpotent --n 10 --r 4 --format csv', 0, '74668b96dfcd821b93b28adc3fd0a6acde362872b88cd3997d96c86b2f1994c9'),
    ('nilpotent --n 10 --r 4 --format text', 0, '4e18eb1b04f7533d22b87dddd975ecffa4ab035257071847c5ad1ce4a9d9536e'),
    ('nilpotent --n 25 --r 13 --format json', 0, '1dce6cc3eb32efc5a175a51e6f21d226609de68122d2f241e068c19623cf442e'),
    ('nilpotent --n 25 --r 13 --format csv', 0, '6e1b8ba9ddc20ec40bbb31789decda09eca85eb44ee497b7be91350e5d9ff402'),
    ('nilpotent --n 25 --r 13 --format text', 0, '5bd6a67dc71e4d33bdfdcac9aad40ca7479a0088b8a02bb4c9c36b8ec2a74644'),
    ('nilpotent --n 40 --r 2 --format json', 0, '4e3fc2074c6311bcfadc84002e0655b560f5c7dc09d6c3f63487e3dfa7e0c76f'),
    ('nilpotent --n 40 --r 2 --format csv', 0, '5da0e5306d006c3f717549899dc98cfbc8c673d3150d47471b01e93133f49641'),
    ('nilpotent --n 40 --r 2 --format text', 0, 'e4ce7e9f40aa8e8bc6438e717d16bb68fbd1d925cc6ff939394565719318b295'),
    ('nilpotent --n 80 --r 2 --format json', 0, '2c3877b7edf3f94da78bba2878bf05f88b5b38e8c6015639dd9cffda92126e6d'),
    ('nilpotent --n 80 --r 2 --format csv', 0, '12a7b16f9836d409a2d3655d97be47068215a0219a2a789533293affd32ba023'),
    ('nilpotent --n 80 --r 2 --format text', 0, 'e72d880c69a44b9eef5cc71018f73810e841365cf18fd09912c8ddd4c8941c18'),
    ('nilpotent --n 80 --r 79 --format json', 0, 'c6ccc7d326a7018f4077d1a33f5bde46cb9ae1d07669cb3ee68972c82d5244a5'),
    ('nilpotent --n 80 --r 79 --format csv', 0, 'd2e3510026941890770abad86dc959f8e5ed126f43a24fb1e9a2e3f3cbf581f4'),
    ('nilpotent --n 80 --r 79 --format text', 0, '0c9cd176ee678ca4f0848d27e89d5d981284be77d405d4f50e3314feeef3e82c'),
    ('jacobian --n 12 --r 5 --format json', 0, '44e86e2e81e333367f1a21b8ce9d8bed3aa4f23946815e656899221e012f0dfe'),
    ('jacobian --n 12 --r 5 --format csv', 0, 'aeb769446aed3760f5b910b8a25c894d3dfb8aec397b7603d5101203d7baf4ce'),
    ('jacobian --n 12 --r 5 --format text', 0, '979038f041bf04342b8924d1dc55b8f46b67257e8bdd44c64afac44c74aa32a2'),
    ('msap --n 6 --r 3 --format json', 0, '2cd72bff5beeca439db3f436a27c7a49cc06bf3189b8b8f6b849534ff3266cde'),
    ('msap --n 6 --r 3 --format csv', 0, 'db9b7a357423033ee1847fc53470f0fdff9037ef7597f13f1db3199eaea17c6e'),
    ('msap --n 6 --r 3 --format text', 0, '911ecf23b35ae53a05c6a0e2a506f12033e196dece42acd46dbbdffa1a08a380'),
    ('nilpotent --n 4 --r 4 --format json', 0, '83360bf8d16fa8d4663470a225e5a1d52dce0d916a517dfe8da47ea3cb76dccf'),
    ('nilpotent --n 4 --r 4 --format csv', 0, 'fb0cb0723e40220192b5cb74e42de9de81ff0260c8028eda4661827f788fade5'),
    ('nilpotent --n 4 --r 4 --format text', 0, 'e8adc4c497bb8030d8a61b31b5eb68a85056e1a15606a55282e35788131273c4'),
    ('jacobian --n 4 --r 4 --format json', 0, '734de772e88acc810d8c64c2aa26df9c0aa580172a5203b5be4bb966e9ca13a7'),
    ('jacobian --n 4 --r 4 --format csv', 0, '22e84ea505a474725a87e2d6a55973e3de3e4b8e9328d50d7261b80e25681ba9'),
    ('jacobian --n 4 --r 4 --format text', 0, '3cb6f87755ac19a41a1d145e333a8a20474f90cc46b2fb60eabd45e868c59d4e'),
    ('realize --n 4 --r 4 --monic -10,35,-50,24 --format json', 0, '10ae730f83f4727e90fa9bbce58a38ccdcaa48b2bcfcd295aa54965e22176491'),
    ('realize --n 4 --r 4 --monic -10,35,-50,24 --format csv', 0, '2f10860bdf0b5719393109377576a40fc4c48b82517d3ab2db9f2fea1ed794f9'),
    ('realize --n 4 --r 4 --monic -10,35,-50,24 --format text', 0, '5ed695db968c2cac7b4a4d72eac73acacc9acdb79d11845d9741d6ada556bf61'),
    ('sweep --n-max 12 --format json', 0, '6c2d2479dda74494ebed4a2a7991289da5c19c98a19732762d436351d39f2e5b'),
    ('sweep --n-max 12 --format csv', 0, '3dc9fc77f25f9be34b63959980dac7ed8bdbb0fabc23cda7c886f67b13dd9edd'),
    ('sweep --n-max 12 --format text', 0, '41168fd99bcf23713459fdb1ed7b597b4104e9e03de64317282dcff1200688d8'),
    ('realize --n 3 --r 2 --monic -6,11,-6 --format json', 0, 'f697defe3e5eb999ee57def38680b0d1d39079e762fb42ccf0884b065129e03f'),
    ('realize --n 3 --r 2 --monic -6,11,-6 --format csv', 0, '7476553a97aa5ba6ab306e44fdc1c423767a7cc474f60b0b5e5563f8d6df9fec'),
    ('realize --n 3 --r 2 --monic -6,11,-6 --format text', 0, 'ad12bb2e9587b98936f60057b55d9f09fd630b0146a2f8438bfc108048c3b577'),
    ('realize --n 4 --r 2 --monic 3,-2,1,5 --format json', 0, 'b0b2e5a0db0f4a3288e15eba1929058186ddd071ee6461ff1a8dc5e4dcb33548'),
    ('realize --n 4 --r 2 --monic 3,-2,1,5 --format csv', 0, '1589cb7a910030f6e9889c33e277c736c549d6c93a3ab69f9b517ce4236b8d81'),
    ('realize --n 4 --r 2 --monic 3,-2,1,5 --format text', 0, '24b3e691a5ee67a3cc4eb29aad4131c534e4537f31aa765f2bed336b4c3ad13c'),
    ('realize --n 4 --r 2 --monic -3,-1,-3,1 --format json', 0, 'e146e5667b9dcf8f3a6ccb711e99757ad117855fcaf719a41866b42986c11e49'),
    ('realize --n 4 --r 2 --monic -3,-1,-3,1 --format csv', 0, 'f26d686d0bdaf1d8d4c2250909a326ad1daf7318be63d3f08ce9d092e05be4a3'),
    ('realize --n 4 --r 2 --monic -3,-1,-3,1 --format text', 0, 'bcf01b85a9a046a6ae1af88b64dd86eed5d2f20de4fc05d4a853dffb335a4ccd'),
]


@pytest.mark.parametrize("argv,code,digest", GOLDEN, ids=[g[0] for g in GOLDEN])
def test_cli_stdout_matches_golden_digest(capsys, argv, code, digest):
    assert main(argv.split()) == code
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest
