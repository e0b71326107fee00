"""Pinned verdicts: a digest of what every builtin verifier and decoder says on a fixed battery.

A rewrite of a verifier must accept and reject exactly what it did before,
and a decoder must give the same columns or fail the same way.  For each
``tests/scheme_cases.py`` scheme, ``digest`` runs ``paths.scheme_battery``
(valid instances, their bound edits and corruptions) and the first
``MUTANTS`` of ``paths.mutants`` of its first instance through ``verify``,
``decode(check=False)`` and ``decode``, and hashes the verdicts, the decoded
columns (element types and value reprs) and the error and cause types (not
their messages, which name vertices).  ``PINS`` holds the digests.

A deliberate change of a verdict regenerates the table in one command,
``PYTHONPATH=src python tests/test_verdict_pins.py``, which prints it.
"""

from __future__ import annotations

import hashlib
import itertools
import random

import pytest

from colcirc import decode, verify
from paths import Failure, mutants, outcome, scheme_battery

from scheme_cases import CASES

MUTANTS = 100


def _observed(fn):
    got = outcome(fn)
    if isinstance(got, Failure):
        return (got.error.__name__, got.cause.__name__)
    if isinstance(got, dict):
        return sorted((label, str(t), repr(values)) for label, (t, values, _) in got.items())
    return got


def digest(sid):
    """The SHA-256 of scheme ``sid``'s verdicts, decoded columns and error types over its battery."""
    rng = random.Random(f"pins/{sid}")
    battery = scheme_battery(sid, CASES[sid], rng)
    battery += itertools.islice(mutants(rng, battery[0]), MUTANTS)
    h = hashlib.sha256()
    for inst in battery:
        seen = (
            _observed(lambda: verify(inst)),
            _observed(lambda: decode(inst, check=False)),
            _observed(lambda: decode(inst)),
        )
        h.update(repr(seen).encode())
    return h.hexdigest()


PINS = {
    'cascade': 'd63ff8e41bc54d4ba0a6274592dc845d2d35266bf590b5c8d1cb5ee9c740a38f',
    'column.complementing': '70280db411c6f068d69f052761326a7b8ba0b016c436402c141bf7a0c7d2a25a',
    'column.overlaid': '0b10ba87bd46d34e7bfe310b651453ec0a56a05a5acb6ada8dc658dd9503ec86',
    'components': 'db5963b2652a3d4b0ff0199a9bc18bb71567bfee106f29576d84145829e4d29e',
    'components.concatenated': '7e68f10adb89744aa98f99d434d3b79c5f4ade084fe480987d5d2cfdf0dbfb8c',
    'components.shattered': 'b94d7fbb6881ee46a10322e24093c541ea3e86796be267c6163a51a529239d8a',
    'constant': '2a0c57445c246e72f0e25819fd4a451b64b0222c63601fdd5049930d0488bc6f',
    'delta': '7b0b571b6a347afca9f398607c6626afa492e4948e3446eb149f514793ed3019',
    'delta.naive': '893f320d3640457cb91871950bdefb77c92d3c59ec24dc18f83e6137c747085b',
    'delta.patched': '0769aa5203537f7af40184dacb6128a90c91066d65adbe7a157d16445f4edd54',
    'dict': 'a78856113ae4247664efba9004f6316a1e1a81e4426837805decf6362afc2fa9',
    'dict.monotone': 'f2e6d1d411d9d214083ef8b4aa9f4b622c95edb778372a097d9dfaade0b5a40c',
    'dict.unique': '14dec29f4f78fd4ef6b719d210a00eeac763cfae8f3c2d0d1af99875de28b39b',
    'for': '1a7202694ee96c19f23a260703d2cc3b0b774e3814994ecc4f363de16f2a4537',
    'generated': 'e3fbec2e6d9202498c403c7d53c2a59fbe35a654ddc2a5030e7b7c49421e42e3',
    'generated.poly': '5809b994a8d60bfc2a5fde4b5ab4ad19079e4b594423ade8be529eeb53d9a156',
    'idx.common_prefix': 'e9d3d314f3b639fb080e6ab842d78de82b5a5a9ae1621ece1537713beec9892b',
    'idx.common_upper_half': 'c3d53b413e243ff6f2390960b8a8aad26a9a5ee5b20e28d80fda544b8b53a1b0',
    'indexed': '2c49aa5c77d0a494240d4ba45806427025de6a2fa937b8b4fd2519685e7235b1',
    'indexset.contiguous': 'be81c324ad0685c573f8e130fea02400676e3fd0d2c8b20827d2ea5e23c7966d',
    'indexset.dense': 'f0a5c19637d3c30cebfa254592a69a5155c6611b23144d2e9c8088aaa8eb9553',
    'indexset.sparse': '90126941472f391e3dd1717fde95b6c770fd65d883da22ebfa929a1ab46cb13b',
    'noisy.generated': '2673ffe29db8c851c17bfe322c1e4e879d4e8e4470f0e65ec2aef11d34d1a9c9',
    'nullable.complementing': 'bae57d5e4ee7a4aba93407ed4f75f6f298ffb1231ff1206e80607d6713c56fd7',
    'nullable.patched': 'a8b32247b90dc6c1c0f485d82035f7b11d1884e7de9e53225dbefc5bc008aed6',
    'nullsup': '857f9325f1be14be9010a919e5d159f26b4bc777871ef7ac3a8bc66cd3f1b0dd',
    'partition': 'ea5da2e27afd68dd650e1341db5d62407fea48aa9a4ede64755ab345c6703108',
    'partition.k': '88240a7261c58dda9d50facf5a632599a3112827a636394517f2a3f3e47d579d',
    'pvw': '646be7e8ff62fb75276b68ef8cc785e4f99008df40edf03a4704b59aa0bb08c9',
    'run.full': 'cb4726f0593a1175d9aa5917052b17c73201caf57001fb6c899788b51c888fce',
    'run.rle': '59a0e5f41755319a67dd00f4a27a994a7371ac1cf35030d4a6e6aff7a4409a49',
    'run.rle.capped': '4f8483b452093a6dc4f7caa57fb4e099e6655f360988ee0fed746701f7a01cbc',
    'run.rpe': 'e60856d19839a3985f15ea3079d87267147d76da91036cf9c0446098e246bd13',
    'segdict': '3bbf3c007480a5429a5bc2de8d96db521533e5a5eab62ed6e0e1a760c8da132f',
    'segdict.two_level': 'b75e6fb419cac7cfacf50cfdea6447b4027291f54cdcf3df5963bb6f3cb23f1c',
    'segmentation': 'dbe5ddb0bbea619a4507657841e055e0134d7870820064c1824204c2ecd60483',
    'segmentation.uniform': 'e5156914ad7a2c54845b42847f4d6807c37e35754ce781d072e9aee8613667d0',
    'segmented': 'a5d890e1f1462df8f182176071ccefc5e0ecd5cc0de1937b27b7704d0cf15d25',
    'segmented.uniform': '759f18c7b1f112d94f4cc71a0d3e0908f9c28f2a43f525fdda05b6a70385496d',
    'spline.equiknotted': '5c34229b7f4eedfb5af86c2e2165427f72d0431ff5575793b4d9f36acdbd97f7',
    'spline.generalized': '0dbc02212085d67e94d6ac0e20c3c5e8fec537526fd4b6f147b4795bcf9aeb28',
    'spline.knotted': '18b5d0aa83aec2e8cb4f5e3b9c4419f5ff4b204d49e24c4c8d793c41a952e330',
    'subcolumn.overlay': 'd1c74567d0ce14ac189a72e3db4a8329f47b4a4be97caa775a455197974b4c3a',
    'subcolumn.segmented': '01a460c113c0d614fbfc5e395c016c4e459f3a899915d49ba26dc89249566937',
    'subcolumn.std': '87a600044340c1b300e07391888514dc31c201fc1fa3051e75a0abf42183b326',
    'subcolumn.union.disjoint': '871fb19d66a1619d9bb176947ef838668749093482976e712c233b68344aba7b',
    'subdict': 'f6cceb131c42729739487d2c37dfd8e6b8147c728d0c158f03e07f13cc6d9f30',
    'value.indicators': 'c970248c45184acb4934a90a1f91df2c2653c6273bd1a73dad82dca1fec98c0a',
    'varwidth.capped': '1349059ba095ee1f2f89ba00e778189a8035703109be897c17567e97ce5e5018',
    'varwidth.std': 'ebcfa4bf0d20b5ab1cf56368dc839521345bd503abbb2357d59db799a1a46cfa',
    'vwdict': '5b9b168e9d4995ca542b58dd06969f16a889f08b50dd325b3feb20f94ecf766d',
    'vwdict.monotone': '3d7f36332fbc8dc7bb5959b26c03c7cc165fe349e68df1d434461334eaed0638',
    'vwdict.unique': 'bcfad39aca5a2bf2303e433dfaf25f20693f74a5a853b40926b1a535589ab69c',
}


@pytest.mark.parametrize("sid", sorted(CASES))
def test_verdicts_are_pinned(sid):
    assert digest(sid) == PINS[sid]


def test_every_case_is_pinned():
    assert set(PINS) == set(CASES)


def _table():
    return "\n".join(["PINS = {", *(f"    {sid!r}: {digest(sid)!r}," for sid in sorted(CASES)), "}"])


if __name__ == "__main__":
    print(_table())
