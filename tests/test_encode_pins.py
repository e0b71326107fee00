"""Pinned encodings: the SHA-256 of every encoded column's ``.col`` bytes.

Encoders are deterministic, and what they write is observable (``.col``
files, bundles, the benchmark's ``encoded_bytes``), so a rewrite of an
encoder must give the same bytes.  Each case below builds a fixed-seed
input of n values, n in ``SIZES``, encodes it and digests
``write_col_bytes`` of each encoded column; ``PINS`` holds the digests, or
``"not-encodable"`` where the encoder refuses the input.

A deliberate change of an encoding regenerates the table in one command,
``PYTHONPATH=src python tests/test_encode_pins.py``, which prints it; see
the README's "Encoding" note for what such a change must say.
"""

from __future__ import annotations

import hashlib
import random

import pytest

from colcirc import CompositionRecipe, compose, encode, make_column, registered_schemes, write_col_bytes
from colcirc.errors import NotEncodable
from colcirc.rep_schemes import canonical_varwidth
from colcirc.types import INT, U8, parse_type

SIZES = (0, 1, 5, 8000)

EWADD = "testonly.pins.ewadd"
SEG256 = "testonly.pins.seg256"
_RECIPES = (
    (
        "elementwise-add",
        EWADD,
        (("generated.poly", {"type": "u32", "degree": 1}), ("nullsup", {"type": "u32", "narrow_type": "u8"})),
        {},
    ),
    ("segmentize-uniform", SEG256, (("nullsup", {"type": "u32", "narrow_type": "u8"}),), {"segment_length": 256}),
)


def _register():
    known = set(registered_schemes())
    for kind, sid, inner, options in _RECIPES:
        if sid not in known:
            compose(CompositionRecipe(kind, sid, inner, options))


def _col(t, values):
    return {"col": make_column(parse_type(t), values)}


def _runs(rng, n, pick):
    values = []
    while len(values) < n:
        values.extend([pick()] * min(rng.randrange(1, 12), n - len(values)))
    return values


def _noisy_linear(rng, n):
    base, slope = rng.randrange(1000, 5000), rng.randrange(1, 9)
    return [base + slope * i + rng.randrange(0, 16) for i in range(n)]


def _segments(rng, n, most):
    out = []
    while sum(out) < n:
        out.append(min(rng.randrange(1, most), n - sum(out)))
    return out


def _piecewise_affine(rng, segments):
    values = []
    for l in segments:
        a, b = rng.randrange(0, 60), rng.randrange(0, 6)
        values.extend(a + b * i for i in range(l))
    return values


def _piecewise_quadratic(rng, segments, half=False):
    """Each segment ``a + b*i + c*i*i``; with ``half``, ``a + i*(i+1)/2``, whose exact fit has coefficients 1/2."""
    values = []
    for l in segments:
        a, b, c = rng.randrange(0, 60), rng.randrange(0, 6), rng.randrange(0, 3)
        values.extend(a + i * (i + 1) // 2 if half else a + b * i + c * i * i for i in range(l))
    return values


def _float_specials(rng, n):
    pool = [0.0, -0.0, 1.5, -2.25, 1e300, -1e300, float("inf"), float("-inf"), float("nan")]
    return _runs(rng, n, lambda: rng.choice(pool))


def _varwidth_family(rng, n):
    """``n`` elements whose ranges overlap and run out of order inside one data column."""
    data = [rng.randrange(0, 256) for _ in range(max(1, 3 * n))]
    starts, lengths = [], []
    for _ in range(n):
        length = rng.randrange(0, min(5, len(data) + 1))
        starts.append(rng.randrange(0, len(data) - length + 1))
        lengths.append(length)
    return {
        "start_position": make_column(INT, starts),
        "length": make_column(INT, lengths),
        "data": make_column(U8, data),
    }


# name -> (rng, n) -> (scheme id, params, family)
CASES = {
    "generated.u32": lambda rng, n: (
        "generated",
        {"type": "u32", "basis": [0, 1]},
        _col("u32", [a + 6 * i for a in [rng.randrange(0, 40)] for i in range(n)]),
    ),
    "generated.f64": lambda rng, n: (
        "generated",
        {"type": "f64", "basis": [0, 1, 2]},
        _col("f64", [0.5 - 0.25 * i + 0.125 * i * i for i in range(n)]),
    ),
    "generated.f64.inexact": lambda rng, n: (
        "generated",
        {"type": "f64", "basis": [0, 1]},
        _col("f64", [0.1 + 0.7 * i for i in range(n)]),
    ),
    "generated.poly.u32": lambda rng, n: (
        "generated.poly",
        {"type": "u32", "degree": 2},
        _col("u32", [7 + 3 * i + 2 * i * i for i in range(n)]),
    ),
    "generated.poly.i64.sparse": lambda rng, n: (
        "generated.poly",
        {"type": "i64", "basis": [0, 1, 3]},
        _col("i64", [4 - 5 * i + 2 * i**3 for i in range(n)]),
    ),
    "generated.poly.no_constant": lambda rng, n: (
        "generated.poly",
        {"type": "i64", "basis": [1, 2]},  # every row at node 0 is zero: the fit is singular
        _col("i64", [i * i - 3 * i for i in range(n)]),
    ),
    "generated.poly.half": lambda rng, n: (
        "generated.poly",
        {"type": "u32", "degree": 2},  # i*(i+1)/2: an exact fit, but not an integral one
        _col("u32", [i * (i + 1) // 2 for i in range(n)]),
    ),
    "noisy.generated.u32": lambda rng, n: (
        "noisy.generated",
        {"type": "u32", "basis": [0, 1], "noise_type": "i8"},
        _col("u32", _noisy_linear(rng, n)),
    ),
    "noisy.generated.u32.shifted": lambda rng, n: (
        "noisy.generated",
        {"type": "u32", "degree": 2, "noise_type": "i16"},
        _col("u32", [max(0, 900 + 3 * i - (i * i) // 4000 + rng.randrange(-40, 40)) for i in range(n)]),
    ),
    "noisy.generated.i64": lambda rng, n: (
        "noisy.generated",
        {"type": "i64", "basis": [0, 1, 2, 3], "noise_type": "i64"},
        _col("i64", [-(i**3) // 7 + 11 * i * i - 3000 * i + rng.randrange(-999, 999) for i in range(n)]),
    ),
    "noisy.generated.f64": lambda rng, n: (
        "noisy.generated",
        {"type": "f64", "basis": [0, 1, 2], "noise_type": "f64"},
        _col("f64", [1e3 - 0.37 * i + 1e-4 * i * i + rng.uniform(-1, 1) for i in range(n)]),
    ),
    "noisy.generated.f64.odd": lambda rng, n: (
        "noisy.generated",
        {"type": "f64", "basis": [1, 3], "noise_type": "f64"},
        _col("f64", [rng.choice([-0.0, 2.5e-3 * i, 1e-9 * i**3 - i, rng.gauss(0, 1e6)]) for i in range(n)]),
    ),
    "spline.generalized": lambda rng, n: (
        "spline.generalized",
        {"type": "u32", "basis": [0, 1], "segments": (segs := _segments(rng, n, 40))},
        _col("u32", _piecewise_affine(rng, segs)),
    ),
    "spline.knotted": lambda rng, n: (
        "spline.knotted",
        {"type": "u32", "basis": [0, 1], "segments": (segs := _segments(rng, max(n - 2, 0), 40) + [min(n, 2)])},
        _col("u32", _piecewise_affine(rng, [s for s in segs if s])),
    ),
    "spline.knotted.quadratic": lambda rng, n: (
        "spline.knotted",
        # the last segment holds 2 values under a 3-term basis
        {"type": "u32", "degree": 2, "segments": (segs := _segments(rng, max(n - 2, 0), 40) + [min(n, 2)])},
        _col("u32", _piecewise_quadratic(rng, [s for s in segs if s])),
    ),
    "spline.knotted.half": lambda rng, n: (
        "spline.knotted",
        {"type": "u32", "basis": [0, 1, 2], "segments": (segs := [min(n, 3)] + _segments(rng, max(n - 3, 0), 40))},
        _col("u32", _piecewise_quadratic(rng, [s for s in segs if s], half=True)),
    ),
    "spline.equiknotted": lambda rng, n: (
        "spline.equiknotted",
        {"type": "u32", "basis": [0, 1], "interval_length": 16},
        _col("u32", _piecewise_affine(rng, [min(16, n - at) for at in range(0, n, 16)])),
    ),
    "spline.equiknotted.f64": lambda rng, n: (
        "spline.equiknotted",
        {"type": "f64", "degree": 2, "interval_length": 50},
        _col("f64", [(i % 50) * 0.5 + (i % 50) ** 2 * 0.25 - (i // 50) for i in range(n)]),
    ),
    "run.rle": lambda rng, n: ("run.rle", {"type": "u32"}, _col("u32", _runs(rng, n, lambda: rng.randrange(0, 50)))),
    "run.rle.f64": lambda rng, n: ("run.rle", {"type": "f64"}, _col("f64", _float_specials(rng, n))),
    "run.rpe": lambda rng, n: ("run.rpe", {"type": "u32"}, _col("u32", _runs(rng, n, lambda: rng.randrange(0, 50)))),
    "run.rpe.f64": lambda rng, n: ("run.rpe", {"type": "f64"}, _col("f64", _float_specials(rng, n))),
    "run.full": lambda rng, n: ("run.full", {"type": "u16"}, _col("u16", _runs(rng, n, lambda: rng.randrange(0, 3)))),
    "run.full.f64": lambda rng, n: ("run.full", {"type": "f64"}, _col("f64", _float_specials(rng, n))),
    "run.rle.capped": lambda rng, n: (
        "run.rle.capped",
        {"type": "u32", "cap": 4},
        _col("u32", _runs(rng, n, lambda: rng.randrange(0, 4))),
    ),
    "for": lambda rng, n: (
        "for",
        {"type": "u32", "offset_type": "u16", "segment_length": 64},
        _col("u32", _noisy_linear(rng, n)),
    ),
    "for.i32": lambda rng, n: (
        "for",
        {"type": "i32", "offset_type": "u8", "segment_length": 3},
        _col("i32", [rng.randrange(-100, 100) for _ in range(n)]),
    ),
    "delta": lambda rng, n: (
        "delta",
        {"type": "u32", "delta_type": "i8", "segment_length": 128},
        _col("u32", _noisy_linear(rng, n)),
    ),
    "delta.short": lambda rng, n: (
        "delta",
        {"type": "i16", "delta_type": "i16", "segment_length": 3},
        _col("i16", [rng.randrange(-9999, 9999) for _ in range(n)]),
    ),
    "delta.naive": lambda rng, n: (
        "delta.naive",
        {"type": "u32", "delta_type": "i8"},
        _col("u32", _noisy_linear(rng, n)),
    ),
    "delta.patched": lambda rng, n: (
        "delta.patched",
        {"type": "u32", "delta_type": "i8", "segment_length": 100},
        _col("u32", [rng.choice([0, 1, 5, 1000, 70000]) for _ in range(n)]),
    ),
    "varwidth.std": lambda rng, n: ("varwidth.std", {"type": "u8"}, _varwidth_family(rng, n)),
    "varwidth.std.canonical": lambda rng, n: (
        "varwidth.std",
        {"type": "u8"},
        canonical_varwidth([tuple(rng.randrange(0, 256) for _ in range(rng.randrange(0, 6))) for _ in range(n)], U8),
    ),
    "varwidth.capped": lambda rng, n: ("varwidth.capped", {"type": "u8"}, _varwidth_family(rng, n)),
    "vwdict": lambda rng, n: ("vwdict", {"type": "u8"}, _varwidth_family(rng, n)),
    "pvw": lambda rng, n: ("pvw", {"type": "u8", "period": 3}, _varwidth_family(rng, n)),
    "elementwise-add": lambda rng, n: (EWADD, {}, _col("u32", _noisy_linear(rng, n))),
    "segmentize-uniform": lambda rng, n: (
        SEG256,
        {},
        _col("u32", _runs(rng, n, lambda: rng.randrange(0, 256))),
    ),
}


def digests(name, n):
    """``{label: sha256 of its .col bytes}`` of case ``name`` at ``n`` values, or ``"not-encodable"``."""
    _register()
    sid, params, family = CASES[name](random.Random(f"{name}/{n}"), n)
    try:
        inst = encode(sid, params, family)
    except NotEncodable:
        return "not-encodable"
    return {label: hashlib.sha256(write_col_bytes(col)).hexdigest() for label, col in sorted(inst.columns.items())}


PINS = {
    'delta/0': {'base': '5607a903361f3d71ee9e59756edaf22d6d0842249465bf4b01c03041969b4957', 'delta': '180693f64fc960099cb71974854b7d61f4e3f7255822e28e443d945adaf55779', 'segment_length': '504e75562581256da4d5a0b453b5c895a28f53db5ee60998e7f2939f37d9233c'},
    'delta/1': {'base': '0d9c5cce40064ea47595127d64d3265782dc45f395c2a92b55d321e98a250124', 'delta': '1ae831c876a950c6ea65047343c951e29953c421244a1d3af53830b289591cb2', 'segment_length': '504e75562581256da4d5a0b453b5c895a28f53db5ee60998e7f2939f37d9233c'},
    'delta/5': {'base': 'ac593e48c2e24df4e23e0b52c86981bbc4a5ce516b29a5410668b5721a1b4efb', 'delta': 'c339cf8623d5ca963de58a15d5b7f5eb3b6125764fcb1ba83c0b503f0cb0a641', 'segment_length': '504e75562581256da4d5a0b453b5c895a28f53db5ee60998e7f2939f37d9233c'},
    'delta/8000': {'base': '5fb9a42636151a5ebc6c603d6efbe595a38e75c5d561a4bd31c3bc3b6f8f55a1', 'delta': '7272a1021b8808055279360744a3b1d83d350dc20c0a8c69fb813ea20c46baf5', 'segment_length': '504e75562581256da4d5a0b453b5c895a28f53db5ee60998e7f2939f37d9233c'},
    'delta.naive/0': {'base': 'f4c71a78ca77e01d3ddcdf8f127cd2edbfe43a50990feddc1b45078b00b1ec95', 'delta': '180693f64fc960099cb71974854b7d61f4e3f7255822e28e443d945adaf55779'},
    'delta.naive/1': {'base': '34ccf3bd40ffee7d6ff4e5d7b2ac522689aa24c79f487a0a6fbdd0ea43339a7f', 'delta': '1ae831c876a950c6ea65047343c951e29953c421244a1d3af53830b289591cb2'},
    'delta.naive/5': {'base': '4449c9a4804db9706c762d6ce61a78da828b9112566532323fa80494d9475b81', 'delta': '34214e008c3966925194df73d01801e4b161187c0186daa10d01819e1f975ec3'},
    'delta.naive/8000': {'base': 'fefd67d141993fd1a15e82de171c7979f3abba12c752b39c9ed8ce510a48d2fb', 'delta': '00268a5071e56de6c310bbc783b30f0214feccbbdd468b6da8d04a5ccd42801f'},
    'delta.patched/0': {'base': '5607a903361f3d71ee9e59756edaf22d6d0842249465bf4b01c03041969b4957', 'delta': '180693f64fc960099cb71974854b7d61f4e3f7255822e28e443d945adaf55779', 'patch_data': 'b195eeb19030c0c53fdd45962f1f592978305971faf85c24d3c03d4b4c49752d', 'patch_pos': 'ede04d97f9988297a1406b3d86449f3c912daf3ab5d4034be4998eb89d1790c4', 'segment_length': '050c81ad07fdac6b8ce22b4db020b1b9a91238c50eb50d1011914dde596d3bf3'},
    'delta.patched/1': {'base': '1a4d6c5d0a7a6ed47d781183ccd63064adb5a3e426fdd1690a3b4209689cf3b0', 'delta': '1ae831c876a950c6ea65047343c951e29953c421244a1d3af53830b289591cb2', 'patch_data': 'b195eeb19030c0c53fdd45962f1f592978305971faf85c24d3c03d4b4c49752d', 'patch_pos': 'ede04d97f9988297a1406b3d86449f3c912daf3ab5d4034be4998eb89d1790c4', 'segment_length': '050c81ad07fdac6b8ce22b4db020b1b9a91238c50eb50d1011914dde596d3bf3'},
    'delta.patched/5': {'base': '1a4d6c5d0a7a6ed47d781183ccd63064adb5a3e426fdd1690a3b4209689cf3b0', 'delta': '08bf0f0445e13a3d1aa8e1e4b2dcffc1a8b6cbd5f05d564f4aa6c98815444de3', 'patch_data': '40b8985eae82595f7a4d0596a47b6b8bf504b4a6ec604ab37baa504630a9897e', 'patch_pos': '4a9ee28c31899ff2682bb35b4ab99f192737557bd2f35475ee3afbf1e55e77c0', 'segment_length': '050c81ad07fdac6b8ce22b4db020b1b9a91238c50eb50d1011914dde596d3bf3'},
    'delta.patched/8000': {'base': 'a8e2b0f6ff7127b920c74e57ac7a40c7c7c382633e6f280b6c3144f90c865d3d', 'delta': '0b61bcaa9ca163447625fcd93c29fc397b4ec33a16e306010e9a97a4d4630bf7', 'patch_data': '646b9824ccb70137a4fa19ec8cb6e4cc5244c147c6f08b77fc69864e3d0ead5e', 'patch_pos': '9386dbb127f031f742ca69bf063bcf5d94cc1c33cd154641f91763797f9e90d3', 'segment_length': '050c81ad07fdac6b8ce22b4db020b1b9a91238c50eb50d1011914dde596d3bf3'},
    'delta.short/0': {'base': 'b21567fb6bacdf636906a5c91f748f35b46265e8440650e21898b7fba12c07e5', 'delta': 'b21567fb6bacdf636906a5c91f748f35b46265e8440650e21898b7fba12c07e5', 'segment_length': 'cc6a49292c91d428dfb0567a539fa574fa21b6a8985da6276463fc9a51a37667'},
    'delta.short/1': {'base': '85347ec21a312da6b361b1419456beecf1323f19a6c60a1723092d6c8e811bf0', 'delta': '0c8142c05e87708304adc6c105449be112911b91783661c77537ba8056c8378b', 'segment_length': 'cc6a49292c91d428dfb0567a539fa574fa21b6a8985da6276463fc9a51a37667'},
    'delta.short/5': {'base': 'ff5c1730a5c1fd5bed1609ba41a65046dc5baeea34950b50f45f7d48382f8b87', 'delta': 'b873073fff0909d61c424cb84b66e17924ae81a5ca74e7c3f0f0c62e983aabe0', 'segment_length': 'cc6a49292c91d428dfb0567a539fa574fa21b6a8985da6276463fc9a51a37667'},
    'delta.short/8000': {'base': '931b197c5655cea344aaffbd430f560dc5c6ad9211bfed8c0b1e824ae75f4504', 'delta': 'eb686d76a24365fc79cbeb60295665d3be2d78767aa9e749c294fadec9ef0afb', 'segment_length': 'cc6a49292c91d428dfb0567a539fa574fa21b6a8985da6276463fc9a51a37667'},
    'elementwise-add/0': {'a:coefficients': '6be7a75e46e17dcbbadfc51b450a922519dbef3dbedf82f0d1276ad8ddcb3250', 'a:length': '842027a5a836de1f713b5d61db0e60ebe8451778f0a3780f1bde428b2fd2da48', 'b:narrow': '4b6e9cc1363c470a1957c615ecdbd4e3995260c8947bbe05ba7b14ff37e73869'},
    'elementwise-add/1': 'not-encodable',
    'elementwise-add/5': {'a:coefficients': '5c48cbad6879197c5653b281eaf3cdd5da2c57f78e0c1fa93871f13ce92522c7', 'a:length': '435eb0444b8af154fd548475a650ffd70960ac418f1d263f75fcdb5ed58cc6ad', 'b:narrow': '835ce3ab9902b1bf703bb4ee1c42cca23faf7e5ba0fb7cdc31a1d7e30d445762'},
    'elementwise-add/8000': {'a:coefficients': '762c8e161ca0fd17b4bcaf995b2a473a168c06caefaee5719bee6164929acaa1', 'a:length': '6aee473a88e2bb8e9ebe105505e15c3bd0ea635e8e453305cc7568cc91d55570', 'b:narrow': '7ccd9eea4188511e846c67a77ce2fe9d63adb11d4ab1e78abd8649f11c914f4e'},
    'for/0': {'offsets': 'ad9dffebbe12008abad485446834efb3b72bd167c9abcdd00b0d991211d9891d', 'reference': '5607a903361f3d71ee9e59756edaf22d6d0842249465bf4b01c03041969b4957', 'segment_length': '9e7fdfd36fb21be704c4239abccbfc8e270e08ca9ba2841e40c9594d871e4fa8'},
    'for/1': {'offsets': '7b5015cc5688ee86a06f434d0de31691caa94fcff662032eedc2a7e0e0f26675', 'reference': '5bb5c0537d816b9ec2c67401ec5f6f694979afa89becc84335f280b5a3174902', 'segment_length': '9e7fdfd36fb21be704c4239abccbfc8e270e08ca9ba2841e40c9594d871e4fa8'},
    'for/5': {'offsets': '05de23414540ef1d7301bd0520da764130558c02205c766e6edc4332973b905f', 'reference': 'c74f5a598a40a94a81f063d4469e4e4af30e2aa42d777a77f5edf5a5d64ffb2e', 'segment_length': '9e7fdfd36fb21be704c4239abccbfc8e270e08ca9ba2841e40c9594d871e4fa8'},
    'for/8000': {'offsets': 'b4164e3613c84c8e71cadca184a841148918594d224d1bae5775d283d7514110', 'reference': 'f6463f240eeb7b7575f7f8c95a6faa58b23d2ddaaa6aefdd13af26571ca5016f', 'segment_length': '9e7fdfd36fb21be704c4239abccbfc8e270e08ca9ba2841e40c9594d871e4fa8'},
    'for.i32/0': {'offsets': '4b6e9cc1363c470a1957c615ecdbd4e3995260c8947bbe05ba7b14ff37e73869', 'reference': '9e63a6c017171858346255ad5aa044362984ae5af0ccc65963c6b9b748d7e188', 'segment_length': 'cc6a49292c91d428dfb0567a539fa574fa21b6a8985da6276463fc9a51a37667'},
    'for.i32/1': {'offsets': 'cbbef05ccd6474d874e1fffe07998d054a07bdd6a1643bef19158069a352ee6f', 'reference': '7821ee5047b1f7a73c667df3c01591ef629bf82720e0de4aabc1525b488ab0da', 'segment_length': 'cc6a49292c91d428dfb0567a539fa574fa21b6a8985da6276463fc9a51a37667'},
    'for.i32/5': {'offsets': '40b3c9e19a22ff3e6b5cdc6ad500ffe972df5502fe7dfbce8feedc320382b8cb', 'reference': '5b1340403963e3fda6c7801653bde95dfec72c1864a32f8da62e32db62c41819', 'segment_length': 'cc6a49292c91d428dfb0567a539fa574fa21b6a8985da6276463fc9a51a37667'},
    'for.i32/8000': {'offsets': 'de6f87698960e64fef29f2781c4b0a7e09ec27a98d4d0fd3f0edf8fa88b4a72c', 'reference': 'f54e94192fa8ac6df3b584f565e8a3dc1ba88a011839cd8aa9a86011727e3497', 'segment_length': 'cc6a49292c91d428dfb0567a539fa574fa21b6a8985da6276463fc9a51a37667'},
    'generated.f64/0': {'coefficients': '9e0fc47d528a414a7525999cf8db356702622fca8ffe6b73ade5da9545cc138d', 'length': '842027a5a836de1f713b5d61db0e60ebe8451778f0a3780f1bde428b2fd2da48'},
    'generated.f64/1': {'coefficients': 'd595aa5c090b51ca0d2f7ea17fe6f2f1501abb2e70c377cec105df9a2794bf93', 'length': 'c88bd38cda994a32d42799108f1de7d322b8f6e9cb42992c8e45f17fc8d56dab'},
    'generated.f64/5': {'coefficients': '4a260a5016cc854382fc537ab164330139220477b494a0e7145ba88287df7fd0', 'length': '435eb0444b8af154fd548475a650ffd70960ac418f1d263f75fcdb5ed58cc6ad'},
    'generated.f64/8000': {'coefficients': '4a260a5016cc854382fc537ab164330139220477b494a0e7145ba88287df7fd0', 'length': '6aee473a88e2bb8e9ebe105505e15c3bd0ea635e8e453305cc7568cc91d55570'},
    'generated.f64.inexact/0': {'coefficients': '22cfbc045599506f4e789b2b3a8e10af7f05cb120238a58cc38a16c6c6a4d13d', 'length': '842027a5a836de1f713b5d61db0e60ebe8451778f0a3780f1bde428b2fd2da48'},
    'generated.f64.inexact/1': {'coefficients': 'c96643a25ad89672b818cf39722d00c0400ae2a142950d11f09b8fb56c360f2f', 'length': 'c88bd38cda994a32d42799108f1de7d322b8f6e9cb42992c8e45f17fc8d56dab'},
    'generated.f64.inexact/5': {'coefficients': '301843572fada549afe643d5554bd17b3f3c62bd390c9363e1c11f6969853592', 'length': '435eb0444b8af154fd548475a650ffd70960ac418f1d263f75fcdb5ed58cc6ad'},
    'generated.f64.inexact/8000': {'coefficients': '301843572fada549afe643d5554bd17b3f3c62bd390c9363e1c11f6969853592', 'length': '6aee473a88e2bb8e9ebe105505e15c3bd0ea635e8e453305cc7568cc91d55570'},
    'generated.poly.half/0': {'coefficients': '53b43597b3270319d29f64d0836a7da85933500328b5788ef95a938cdd4a187f', 'length': '842027a5a836de1f713b5d61db0e60ebe8451778f0a3780f1bde428b2fd2da48'},
    'generated.poly.half/1': {'coefficients': '53b43597b3270319d29f64d0836a7da85933500328b5788ef95a938cdd4a187f', 'length': 'c88bd38cda994a32d42799108f1de7d322b8f6e9cb42992c8e45f17fc8d56dab'},
    'generated.poly.half/5': 'not-encodable',
    'generated.poly.half/8000': 'not-encodable',
    'generated.poly.i64.sparse/0': {'coefficients': 'c346ac0e24a2489a982c6caaa161bb4e2d6216538f72ffe01abf4294c000bc84', 'length': '842027a5a836de1f713b5d61db0e60ebe8451778f0a3780f1bde428b2fd2da48'},
    'generated.poly.i64.sparse/1': {'coefficients': 'a26a9ed64d16d61f9d3a5b18332f256de110c3887ec8f799045e2408fb3446e6', 'length': 'c88bd38cda994a32d42799108f1de7d322b8f6e9cb42992c8e45f17fc8d56dab'},
    'generated.poly.i64.sparse/5': {'coefficients': '326e598e30d98d6709b4b7db4b3d6f22999526066aded6f49c72460aa85014af', 'length': '435eb0444b8af154fd548475a650ffd70960ac418f1d263f75fcdb5ed58cc6ad'},
    'generated.poly.i64.sparse/8000': {'coefficients': '326e598e30d98d6709b4b7db4b3d6f22999526066aded6f49c72460aa85014af', 'length': '6aee473a88e2bb8e9ebe105505e15c3bd0ea635e8e453305cc7568cc91d55570'},
    'generated.poly.no_constant/0': {'coefficients': '8b3fe4c023cec0d6c0676d3a10a2f6c8476a34f945c99b0670bd14753d348188', 'length': '842027a5a836de1f713b5d61db0e60ebe8451778f0a3780f1bde428b2fd2da48'},
    'generated.poly.no_constant/1': 'not-encodable',
    'generated.poly.no_constant/5': 'not-encodable',
    'generated.poly.no_constant/8000': 'not-encodable',
    'generated.poly.u32/0': {'coefficients': '53b43597b3270319d29f64d0836a7da85933500328b5788ef95a938cdd4a187f', 'length': '842027a5a836de1f713b5d61db0e60ebe8451778f0a3780f1bde428b2fd2da48'},
    'generated.poly.u32/1': {'coefficients': '2a039a4081f2ac312306f06630e98b5b80ad5699fe664e6a2c2e79a0b282937e', 'length': 'c88bd38cda994a32d42799108f1de7d322b8f6e9cb42992c8e45f17fc8d56dab'},
    'generated.poly.u32/5': {'coefficients': '73f63371c85d772c6782f8392d7931670fa59ff3a01e6ffa56e0f8937d4165c4', 'length': '435eb0444b8af154fd548475a650ffd70960ac418f1d263f75fcdb5ed58cc6ad'},
    'generated.poly.u32/8000': {'coefficients': '73f63371c85d772c6782f8392d7931670fa59ff3a01e6ffa56e0f8937d4165c4', 'length': '6aee473a88e2bb8e9ebe105505e15c3bd0ea635e8e453305cc7568cc91d55570'},
    'generated.u32/0': {'coefficients': '6be7a75e46e17dcbbadfc51b450a922519dbef3dbedf82f0d1276ad8ddcb3250', 'length': '842027a5a836de1f713b5d61db0e60ebe8451778f0a3780f1bde428b2fd2da48'},
    'generated.u32/1': {'coefficients': '1dfb1aec575e40bf112292e1b49c93bdcc5d383819ed344af743c0b1a9299696', 'length': 'c88bd38cda994a32d42799108f1de7d322b8f6e9cb42992c8e45f17fc8d56dab'},
    'generated.u32/5': {'coefficients': '3075dcb09a47a9d0557f9697348387716227b387ec5a764db38193c9db5090c4', 'length': '435eb0444b8af154fd548475a650ffd70960ac418f1d263f75fcdb5ed58cc6ad'},
    'generated.u32/8000': {'coefficients': 'ddfb189bddcddecdb9bb12f6ae5ca0b7dd9e2a6046bf85289b9a3667f9e70fee', 'length': '6aee473a88e2bb8e9ebe105505e15c3bd0ea635e8e453305cc7568cc91d55570'},
    'noisy.generated.f64/0': {'coefficients': '9e0fc47d528a414a7525999cf8db356702622fca8ffe6b73ade5da9545cc138d', 'noise': 'b2cf261c803232b8174669a722d476bfca15368f472a4f63a064e131719d0e9e'},
    'noisy.generated.f64/1': {'coefficients': '9e0fc47d528a414a7525999cf8db356702622fca8ffe6b73ade5da9545cc138d', 'noise': '27d60cbb278e14d4ff757da41f7887af56182ce07f1c73747cf6b9fb688cc0dc'},
    'noisy.generated.f64/5': {'coefficients': '3c2eb0d3b9d2594d1f5d212d805414f9a8aa0b89136b0dcf67b7ee6509bc9d41', 'noise': '96d9ca765f2fa2fbb874253fdec7eca59f4cc80b43c1bdfb1158348c9e8bd6e0'},
    'noisy.generated.f64/8000': {'coefficients': 'c2b94e89336fdc62ba6a6d6741f988ac9854a0d56483bb62830aef6017948b8f', 'noise': '185ffd5b0de8a351049ea52d799cfa91ae1cac1f810022f4a50b56a3fa142908'},
    'noisy.generated.f64.odd/0': {'coefficients': '22cfbc045599506f4e789b2b3a8e10af7f05cb120238a58cc38a16c6c6a4d13d', 'noise': 'b2cf261c803232b8174669a722d476bfca15368f472a4f63a064e131719d0e9e'},
    'noisy.generated.f64.odd/1': {'coefficients': '22cfbc045599506f4e789b2b3a8e10af7f05cb120238a58cc38a16c6c6a4d13d', 'noise': 'acfe9dfe65b8c26f6b1d0c2c1c807041ba8ed718a726db73d0afb439e2518f80'},
    'noisy.generated.f64.odd/5': {'coefficients': '7d7f2674828a6cc42986f7aadbb461a18cd86f6abbebcf922dab12e4a6dbb6e7', 'noise': '7b5010c4b3a0a1d56412e152bca369508129e26630e41acf4746c86972f667ed'},
    'noisy.generated.f64.odd/8000': {'coefficients': '6281e61e8123463dbebb9971e74f8d576a75a9a26b3aebeaf6f803de50d6165e', 'noise': 'c6006a7666bd44551c09f62faeca781c6b3a7a3a98b855d08297470e5973232c'},
    'noisy.generated.i64/0': {'coefficients': 'c21242d2fd7798611b1cd36ebe216bed9d1f34074ba4e27c720d40f5b5a4380d', 'noise': 'b195eeb19030c0c53fdd45962f1f592978305971faf85c24d3c03d4b4c49752d'},
    'noisy.generated.i64/1': {'coefficients': 'c21242d2fd7798611b1cd36ebe216bed9d1f34074ba4e27c720d40f5b5a4380d', 'noise': '2c6aa2151eeddc79e7d47fc9ec331e472f82dd3e7c97e093a54c0665cccae798'},
    'noisy.generated.i64/5': {'coefficients': 'aa658a00e745e7c4e30acc3ed072503b9b1ab76ad6b38e0e52e7086e295efb59', 'noise': '8c632eb79a3b4ea513d6b4a6ae238c9ac76142839094e863f199ae301333bac2'},
    'noisy.generated.i64/8000': {'coefficients': 'e0b0596939626e6385526e72e1a2916777ed81971b37bae6c0f647483d304baa', 'noise': 'e794679be67d3f2a8153f3f3bc45adb2770a468552cad4a5c0dd632222bf2951'},
    'noisy.generated.u32/0': {'coefficients': '6be7a75e46e17dcbbadfc51b450a922519dbef3dbedf82f0d1276ad8ddcb3250', 'noise': '180693f64fc960099cb71974854b7d61f4e3f7255822e28e443d945adaf55779'},
    'noisy.generated.u32/1': 'not-encodable',
    'noisy.generated.u32/5': {'coefficients': '5f5b57d2c913a4cb65493bd1d2070c86d1de3d6b334328b0b884e77964aba0ab', 'noise': '04346b66ea75a005c8a11e54132ac1e1b024732dad660524539f594ebae73732'},
    'noisy.generated.u32/8000': {'coefficients': 'e94f712ab55d1b662ee94818b67fb22ae2fc2363659a9fb42091a8aa0755f23c', 'noise': '52e8c103e11917ccd72f3c9975747b01b28a480b42bb95abf91a91c6f6186490'},
    'noisy.generated.u32.shifted/0': {'coefficients': '53b43597b3270319d29f64d0836a7da85933500328b5788ef95a938cdd4a187f', 'noise': 'b21567fb6bacdf636906a5c91f748f35b46265e8440650e21898b7fba12c07e5'},
    'noisy.generated.u32.shifted/1': {'coefficients': '53b43597b3270319d29f64d0836a7da85933500328b5788ef95a938cdd4a187f', 'noise': '666c7c312520e81fea385d61a70b35e942a66a5ec2ac11915d0fbec5b98b081e'},
    'noisy.generated.u32.shifted/5': {'coefficients': 'aac82c4f2c7a24cfbbc3b3be08e70781ae309d41a79bceedfe945c0bdf109975', 'noise': '1b6f343d1728956cd99fe243687cbdf267fe6a5ecea51d93bb8b90da828a02b9'},
    'noisy.generated.u32.shifted/8000': {'coefficients': 'b2585f0b8b631b87eb8279355302fafc40fc9dc14cd1d826216165babe7a5bbc', 'noise': 'b8d576b69f176bd6282ce34e86b6f23cc4b2bfd977aeb3fadf57f932535c2720'},
    'pvw/0': {'data': '4b6e9cc1363c470a1957c615ecdbd4e3995260c8947bbe05ba7b14ff37e73869', 'length': '842027a5a836de1f713b5d61db0e60ebe8451778f0a3780f1bde428b2fd2da48', 'period': 'cc6a49292c91d428dfb0567a539fa574fa21b6a8985da6276463fc9a51a37667', 'widths': 'ede04d97f9988297a1406b3d86449f3c912daf3ab5d4034be4998eb89d1790c4'},
    'pvw/1': {'data': 'f94b55e4d18cadb51d42f4d0ef9296e1a749f04c23203846a2c398a7d489ce66', 'length': 'c88bd38cda994a32d42799108f1de7d322b8f6e9cb42992c8e45f17fc8d56dab', 'period': 'cc6a49292c91d428dfb0567a539fa574fa21b6a8985da6276463fc9a51a37667', 'widths': 'c88bd38cda994a32d42799108f1de7d322b8f6e9cb42992c8e45f17fc8d56dab'},
    'pvw/5': {'data': '5f56b2f0d46a54fc5d353f7937899fb96c2a989e0229488ac97ccc7552d05659', 'length': '435eb0444b8af154fd548475a650ffd70960ac418f1d263f75fcdb5ed58cc6ad', 'period': 'cc6a49292c91d428dfb0567a539fa574fa21b6a8985da6276463fc9a51a37667', 'widths': '4532a0a4eaf7e0117d0ec4e5dc85825c2d50120b7d3a1c4ffd87a95368da1de4'},
    'pvw/8000': {'data': 'f7a09c02244e52073f50531aa47ad706c042a5994e2640ad094924d768d28e10', 'length': '6aee473a88e2bb8e9ebe105505e15c3bd0ea635e8e453305cc7568cc91d55570', 'period': 'cc6a49292c91d428dfb0567a539fa574fa21b6a8985da6276463fc9a51a37667', 'widths': 'f0e2e61e49cdf6f2113064ce94f5525de52874819390eb8ba80113f34768eff5'},
    'run.full/0': {'length': 'ede04d97f9988297a1406b3d86449f3c912daf3ab5d4034be4998eb89d1790c4', 'start_position': 'ede04d97f9988297a1406b3d86449f3c912daf3ab5d4034be4998eb89d1790c4', 'value': 'ad9dffebbe12008abad485446834efb3b72bd167c9abcdd00b0d991211d9891d'},
    'run.full/1': {'length': 'c88bd38cda994a32d42799108f1de7d322b8f6e9cb42992c8e45f17fc8d56dab', 'start_position': '842027a5a836de1f713b5d61db0e60ebe8451778f0a3780f1bde428b2fd2da48', 'value': 'd6236d9cd6ce44a01979c709382d8fdaae05dce91c33bc2c000834b4eeeffe43'},
    'run.full/5': {'length': '188d33a82c251d2598f094d645c5d40915756b0335c44661bce90aa4cfc885e1', 'start_position': '2263a0b52a0cf3e4958608cddb370c1f16950c808cd467faa4a722cffb122cd7', 'value': 'aa7d8e6ed2354ad60d93749b32c327056dc19a346f80055f846a52a2fc679bb5'},
    'run.full/8000': {'length': '9625a6e3e337a5530a67b55c59ae2a2387ca69f746350e26c93d8c8b54319d60', 'start_position': '14973d0bfff56af3d8e957db8cf72c2c8a5d9a73432e01d8cc3c9112987e2bec', 'value': '67b68d13534ad3c02b7ca3d7b729d68b7af428878b90fc7d979ae8ffb9967b11'},
    'run.full.f64/0': {'length': 'ede04d97f9988297a1406b3d86449f3c912daf3ab5d4034be4998eb89d1790c4', 'start_position': 'ede04d97f9988297a1406b3d86449f3c912daf3ab5d4034be4998eb89d1790c4', 'value': 'b2cf261c803232b8174669a722d476bfca15368f472a4f63a064e131719d0e9e'},
    'run.full.f64/1': {'length': 'c88bd38cda994a32d42799108f1de7d322b8f6e9cb42992c8e45f17fc8d56dab', 'start_position': '842027a5a836de1f713b5d61db0e60ebe8451778f0a3780f1bde428b2fd2da48', 'value': 'ced70c54a7685dc6164561e53bd576937896bc0d1e8460b3185a679bf0764085'},
    'run.full.f64/5': {'length': '3cfe434f2247f94df228c70b1d24cb4fc9cefaf38d4600b2945ca2fe5570ddbf', 'start_position': 'cff753983c091fb1a5f174e6f299860c10a9cbe0f92b26941c44bd3c93d50946', 'value': 'ba61971da8146c42c6e3df7d3a40c7469748ff693118ae4f4a09f0d0bf9a482f'},
    'run.full.f64/8000': {'length': '90c94bb5d73c2e1e2c98882c12d2c60e994da61bfe8a510e33c2323a36ca80ff', 'start_position': '5260e82dcb5ffdf46dd9e9a415e2a72467b6be2b5d1e07290579992793f9cfdf', 'value': '5ce8753b1b1f7d116b547ebf3277ca3ce3de27b6a25807fcec2db4d80db3b57d'},
    'run.rle/0': {'length': 'ede04d97f9988297a1406b3d86449f3c912daf3ab5d4034be4998eb89d1790c4', 'value': '5607a903361f3d71ee9e59756edaf22d6d0842249465bf4b01c03041969b4957'},
    'run.rle/1': {'length': 'c88bd38cda994a32d42799108f1de7d322b8f6e9cb42992c8e45f17fc8d56dab', 'value': '716c9b31c74c7a29a26eec020a343f7cd4dd11f650757528651c4160cf2a53df'},
    'run.rle/5': {'length': 'eac5f090341a2695f91cf79e5ae376cbfe4f74b593af620c88308cc8b3f3c34d', 'value': 'eaf22688db3fe50c84f46f4463f4e51f8224a4c991aa591c54fb778eba911e57'},
    'run.rle/8000': {'length': 'adf1a45f7a447f9ce6c65ceed260e2abdf9bfb5b057339346e063e929f164dbe', 'value': '65f7f18dce90f541a98505d0c307c562ba215d5e58ec4e0e8bdabaad6b1580bc'},
    'run.rle.capped/0': {'cap': 'bec06c1eafc0b1aa100a852f88bbecaa94446fdddc9519734eb1a508704f1b19', 'length': 'ede04d97f9988297a1406b3d86449f3c912daf3ab5d4034be4998eb89d1790c4', 'value': '5607a903361f3d71ee9e59756edaf22d6d0842249465bf4b01c03041969b4957'},
    'run.rle.capped/1': {'cap': 'bec06c1eafc0b1aa100a852f88bbecaa94446fdddc9519734eb1a508704f1b19', 'length': 'c88bd38cda994a32d42799108f1de7d322b8f6e9cb42992c8e45f17fc8d56dab', 'value': 'c76a041a51662327ee380fb62aa31aca28947936b26c5274f6407f60b3a9372c'},
    'run.rle.capped/5': {'cap': 'bec06c1eafc0b1aa100a852f88bbecaa94446fdddc9519734eb1a508704f1b19', 'length': 'e9b467820d3e83d9548a824cc867bd595d742fdc36287bb20c37e92d545a78a6', 'value': '5c8009907433d51a3767c88e5622f49aa6abf6ab61a7971f33545861e84c0f7b'},
    'run.rle.capped/8000': {'cap': 'bec06c1eafc0b1aa100a852f88bbecaa94446fdddc9519734eb1a508704f1b19', 'length': '70ca322bc201f5b74b8eaffc13f14648923dc7d4d8bb61a7c6acedc079b8fa00', 'value': '57089bc80fd74dad0b7553ecbe1d3303a6b914ca935d2a7c13cbbd8eedb1946b'},
    'run.rle.f64/0': {'length': 'ede04d97f9988297a1406b3d86449f3c912daf3ab5d4034be4998eb89d1790c4', 'value': 'b2cf261c803232b8174669a722d476bfca15368f472a4f63a064e131719d0e9e'},
    'run.rle.f64/1': {'length': 'c88bd38cda994a32d42799108f1de7d322b8f6e9cb42992c8e45f17fc8d56dab', 'value': 'd0426b18211b5f24512f1cfd2462fc5a5a4504fab57e47269a53a471d488a268'},
    'run.rle.f64/5': {'length': '435eb0444b8af154fd548475a650ffd70960ac418f1d263f75fcdb5ed58cc6ad', 'value': '5b1a1a7bda51b99d199b95e1fad8771fa3765514ceea4bdecae2d6cb0ac46e96'},
    'run.rle.f64/8000': {'length': '1042af31356f196441e46996c22036f0a041b69b558764dca74d1dd87e6c51e8', 'value': 'ce5b4282e8cf632afda4b6c86da239f55fcac6746bf5476effe25522c2757379'},
    'run.rpe/0': {'overall_length': '842027a5a836de1f713b5d61db0e60ebe8451778f0a3780f1bde428b2fd2da48', 'start_position': 'ede04d97f9988297a1406b3d86449f3c912daf3ab5d4034be4998eb89d1790c4', 'value': '5607a903361f3d71ee9e59756edaf22d6d0842249465bf4b01c03041969b4957'},
    'run.rpe/1': {'overall_length': 'c88bd38cda994a32d42799108f1de7d322b8f6e9cb42992c8e45f17fc8d56dab', 'start_position': '842027a5a836de1f713b5d61db0e60ebe8451778f0a3780f1bde428b2fd2da48', 'value': '18e395a09e1f01fee885d6f49f32790a4d68d56509a985936cd0cff467c95929'},
    'run.rpe/5': {'overall_length': '435eb0444b8af154fd548475a650ffd70960ac418f1d263f75fcdb5ed58cc6ad', 'start_position': '842027a5a836de1f713b5d61db0e60ebe8451778f0a3780f1bde428b2fd2da48', 'value': '9c75dbb5e0f574ec982bb0c48b2d118c3e9a49e5d3f5fd5275b24c7d3d07b688'},
    'run.rpe/8000': {'overall_length': '6aee473a88e2bb8e9ebe105505e15c3bd0ea635e8e453305cc7568cc91d55570', 'start_position': '934286fdf1e7c1e7a83a6811321cd165fd3b9af649c2fc39e6f42b7257281456', 'value': '1c926aec46a90db21467cbf67d414448da26816d2468d671636fa4bbb0462387'},
    'run.rpe.f64/0': {'overall_length': '842027a5a836de1f713b5d61db0e60ebe8451778f0a3780f1bde428b2fd2da48', 'start_position': 'ede04d97f9988297a1406b3d86449f3c912daf3ab5d4034be4998eb89d1790c4', 'value': 'b2cf261c803232b8174669a722d476bfca15368f472a4f63a064e131719d0e9e'},
    'run.rpe.f64/1': {'overall_length': 'c88bd38cda994a32d42799108f1de7d322b8f6e9cb42992c8e45f17fc8d56dab', 'start_position': '842027a5a836de1f713b5d61db0e60ebe8451778f0a3780f1bde428b2fd2da48', 'value': 'c09eb32d0e832803d133c6bdc2ba7bfaee1e006fb34c6b0ddba75db9cbb2229e'},
    'run.rpe.f64/5': {'overall_length': '435eb0444b8af154fd548475a650ffd70960ac418f1d263f75fcdb5ed58cc6ad', 'start_position': 'cff753983c091fb1a5f174e6f299860c10a9cbe0f92b26941c44bd3c93d50946', 'value': '6d96c1b0f5e10c632ddd2e20e5f6a1f316f4310c33dc8e741b6dee0e5cf0a0c2'},
    'run.rpe.f64/8000': {'overall_length': '6aee473a88e2bb8e9ebe105505e15c3bd0ea635e8e453305cc7568cc91d55570', 'start_position': 'e5fec2e2d87828cb17f057888fde4178285288c9e422d4289f7a215605d07e0d', 'value': '3db4a54f8d0bf474f1d580fa03d4534c02d8dcfafed601b0ad6d74027788ae87'},
    'segmentize-uniform/0': {'seg:narrow': '4b6e9cc1363c470a1957c615ecdbd4e3995260c8947bbe05ba7b14ff37e73869', 'segment_length': '873c562fcf7937c20527fb289996be1e5150125a2c8f7992628aa7cab3911aea', 'total_length': '842027a5a836de1f713b5d61db0e60ebe8451778f0a3780f1bde428b2fd2da48'},
    'segmentize-uniform/1': {'seg:narrow': '6f5c7d035b33937ef1cccd411800736482fa5491740aa38f76c003286c32e0c2', 'segment_length': '873c562fcf7937c20527fb289996be1e5150125a2c8f7992628aa7cab3911aea', 'total_length': 'c88bd38cda994a32d42799108f1de7d322b8f6e9cb42992c8e45f17fc8d56dab'},
    'segmentize-uniform/5': {'seg:narrow': 'b5b7c89d1d7684917b45b785d99cca1c076baf119e5ae0e9f2eef9d44beac709', 'segment_length': '873c562fcf7937c20527fb289996be1e5150125a2c8f7992628aa7cab3911aea', 'total_length': '435eb0444b8af154fd548475a650ffd70960ac418f1d263f75fcdb5ed58cc6ad'},
    'segmentize-uniform/8000': {'seg:narrow': 'a766a90b55395d2d6c2d3528941ba5fad4c94de65b6974b8e887f619fda812a1', 'segment_length': '873c562fcf7937c20527fb289996be1e5150125a2c8f7992628aa7cab3911aea', 'total_length': '6aee473a88e2bb8e9ebe105505e15c3bd0ea635e8e453305cc7568cc91d55570'},
    'spline.equiknotted/0': {'coefficients': '5607a903361f3d71ee9e59756edaf22d6d0842249465bf4b01c03041969b4957', 'interval_length': '188e53b55b7b5cc051e1b09d69f5ff5abbf2c379dbac13aa9e10e1ac3a8137b1', 'length': '842027a5a836de1f713b5d61db0e60ebe8451778f0a3780f1bde428b2fd2da48'},
    'spline.equiknotted/1': {'coefficients': '45486bbaa57d21cbef1476492b44269ebe218f13391db70aa39a779218addd89', 'interval_length': '188e53b55b7b5cc051e1b09d69f5ff5abbf2c379dbac13aa9e10e1ac3a8137b1', 'length': 'c88bd38cda994a32d42799108f1de7d322b8f6e9cb42992c8e45f17fc8d56dab'},
    'spline.equiknotted/5': {'coefficients': 'eaa09c2cebde9eef92d20f7e22325541d1563ce40da2e72762f19aea9fc10a8a', 'interval_length': '188e53b55b7b5cc051e1b09d69f5ff5abbf2c379dbac13aa9e10e1ac3a8137b1', 'length': '435eb0444b8af154fd548475a650ffd70960ac418f1d263f75fcdb5ed58cc6ad'},
    'spline.equiknotted/8000': {'coefficients': 'eb7ccb8c431ffa1e83723cbe040681bb8a42fe475b986748af473feeb71ca291', 'interval_length': '188e53b55b7b5cc051e1b09d69f5ff5abbf2c379dbac13aa9e10e1ac3a8137b1', 'length': '6aee473a88e2bb8e9ebe105505e15c3bd0ea635e8e453305cc7568cc91d55570'},
    'spline.equiknotted.f64/0': {'coefficients': 'b2cf261c803232b8174669a722d476bfca15368f472a4f63a064e131719d0e9e', 'interval_length': '4fa4f95ca65c4615279944531f626c7d857bbdbadff6a40e337600c91cd36120', 'length': '842027a5a836de1f713b5d61db0e60ebe8451778f0a3780f1bde428b2fd2da48'},
    'spline.equiknotted.f64/1': {'coefficients': '9e0fc47d528a414a7525999cf8db356702622fca8ffe6b73ade5da9545cc138d', 'interval_length': '4fa4f95ca65c4615279944531f626c7d857bbdbadff6a40e337600c91cd36120', 'length': 'c88bd38cda994a32d42799108f1de7d322b8f6e9cb42992c8e45f17fc8d56dab'},
    'spline.equiknotted.f64/5': {'coefficients': '24aa224f090a0e2828c5d8357ae08a11f41c6bce5549f6a9e78c190d50593a63', 'interval_length': '4fa4f95ca65c4615279944531f626c7d857bbdbadff6a40e337600c91cd36120', 'length': '435eb0444b8af154fd548475a650ffd70960ac418f1d263f75fcdb5ed58cc6ad'},
    'spline.equiknotted.f64/8000': {'coefficients': '3fdf96aa9a8985789137d903e2e3a94df95d111d2c9210610b7e14a0989a7039', 'interval_length': '4fa4f95ca65c4615279944531f626c7d857bbdbadff6a40e337600c91cd36120', 'length': '6aee473a88e2bb8e9ebe105505e15c3bd0ea635e8e453305cc7568cc91d55570'},
    'spline.generalized/0': {'coefficients': '5607a903361f3d71ee9e59756edaf22d6d0842249465bf4b01c03041969b4957', 'segment_length': 'ede04d97f9988297a1406b3d86449f3c912daf3ab5d4034be4998eb89d1790c4', 'segment_start_pos': 'ede04d97f9988297a1406b3d86449f3c912daf3ab5d4034be4998eb89d1790c4'},
    'spline.generalized/1': {'coefficients': 'bf2b9e7a49ca74abd11629a07fbbef804f531fbd8265e70c1f931aed43056106', 'segment_length': 'c88bd38cda994a32d42799108f1de7d322b8f6e9cb42992c8e45f17fc8d56dab', 'segment_start_pos': '842027a5a836de1f713b5d61db0e60ebe8451778f0a3780f1bde428b2fd2da48'},
    'spline.generalized/5': {'coefficients': '4eb67be583e1bb836c359bbb3a48864ef97a1e53b1248f9a55762e7fc4fcd345', 'segment_length': '435eb0444b8af154fd548475a650ffd70960ac418f1d263f75fcdb5ed58cc6ad', 'segment_start_pos': '842027a5a836de1f713b5d61db0e60ebe8451778f0a3780f1bde428b2fd2da48'},
    'spline.generalized/8000': {'coefficients': 'd81fc21ac8f912b18fab5bb3eea898cce52650b36343f5b6b0530d8037638be0', 'segment_length': '32db0e05afc5aceba8cb0e627ddb9c3fb391823f8f9ed664158888834440333d', 'segment_start_pos': 'a8e411827ee501f439e5e8b205b6cb160357c015423edbc3744e145949e3aae5'},
    'spline.knotted/0': 'not-encodable',
    'spline.knotted/1': 'not-encodable',
    'spline.knotted/5': {'coefficients': '2cafdaf451b743b95af8de26c45a89483d1f5a4cb7c7dc224d27ede5ab690b72', 'knots': '417ffef39d30ec249aa6c49737042617478636d1fa5eeab9e20dc7bcd9afba4e'},
    'spline.knotted/8000': {'coefficients': 'c5590d7e426e909df4bb681aeeb82b36481a0e50c4e450c40d26e79e0086cbd6', 'knots': '6034fda62d0733e1668af0e3bb6ffa855ddb6799bc5171eb4e2dc35f990b1dc1'},
    'spline.knotted.half/0': 'not-encodable',
    'spline.knotted.half/1': 'not-encodable',
    'spline.knotted.half/5': 'not-encodable',
    'spline.knotted.half/8000': 'not-encodable',
    'spline.knotted.quadratic/0': 'not-encodable',
    'spline.knotted.quadratic/1': 'not-encodable',
    'spline.knotted.quadratic/5': {'coefficients': 'bc57e3dab1af41f2b2495536043e7184b94cee363c408f283c2effefe0d3ee93', 'knots': '417ffef39d30ec249aa6c49737042617478636d1fa5eeab9e20dc7bcd9afba4e'},
    'spline.knotted.quadratic/8000': {'coefficients': '3bed0fc4c22279a503fffada24cda953c4256c89b1ccd8319ad27ba425fda41b', 'knots': 'b9f666090d4a713fffa3c911e000af4f24fe6dfe5c55a0f8b2fc22d89d791474'},
    'varwidth.capped/0': {'data': '4b6e9cc1363c470a1957c615ecdbd4e3995260c8947bbe05ba7b14ff37e73869', 'lengths': 'ede04d97f9988297a1406b3d86449f3c912daf3ab5d4034be4998eb89d1790c4', 'max_length': 'c88bd38cda994a32d42799108f1de7d322b8f6e9cb42992c8e45f17fc8d56dab'},
    'varwidth.capped/1': {'data': 'edd597fa1e34fc7cce13a8e3de9468f5c8d09ef41d216205722e60537f52b1b9', 'lengths': 'cc6a49292c91d428dfb0567a539fa574fa21b6a8985da6276463fc9a51a37667', 'max_length': 'cc6a49292c91d428dfb0567a539fa574fa21b6a8985da6276463fc9a51a37667'},
    'varwidth.capped/5': {'data': 'dad140e0a7f7be1ec4c96527d1df54b2c08d6753f975af4c6bc9eca22f1b350c', 'lengths': '9e4761b628660c63523c7ba8c32514760900e3710b4fdde2407a01c86f4ee52d', 'max_length': 'cc6a49292c91d428dfb0567a539fa574fa21b6a8985da6276463fc9a51a37667'},
    'varwidth.capped/8000': {'data': '3c06b3693cc131dbf9b9c263b689ac63df60ad1c9e4bb7f70a53aec54fce2960', 'lengths': 'c80d6485a49e359f1c3be0e41d334c0a3f157008b279811fb762c227ebaf854f', 'max_length': 'bec06c1eafc0b1aa100a852f88bbecaa94446fdddc9519734eb1a508704f1b19'},
    'varwidth.std/0': {'data': '4b6e9cc1363c470a1957c615ecdbd4e3995260c8947bbe05ba7b14ff37e73869', 'length': 'ede04d97f9988297a1406b3d86449f3c912daf3ab5d4034be4998eb89d1790c4', 'start_position': 'ede04d97f9988297a1406b3d86449f3c912daf3ab5d4034be4998eb89d1790c4'},
    'varwidth.std/1': {'data': 'b5187c25e9df65f428543098b5e8bd636241f2c5279b6b18345981c507f0467a', 'length': 'c88bd38cda994a32d42799108f1de7d322b8f6e9cb42992c8e45f17fc8d56dab', 'start_position': '842027a5a836de1f713b5d61db0e60ebe8451778f0a3780f1bde428b2fd2da48'},
    'varwidth.std/5': {'data': '9a9eb8fa3c534de48d3b28ca50d357a17a3a78a80a98946547df67dd990a684e', 'length': '2e22c5ea66317085bfc838e32e45f09f9c76484ef614e2421d14a50b11551298', 'start_position': '1e17f9465b7c39ebdb78e43c90d68ecaf55ccb0a59b2252943a7feee156124d5'},
    'varwidth.std/8000': {'data': '109371f24f1835852b7ef50366e853cc3a7186678a9030e619082c9c078a8c5a', 'length': '2bcad1058a547efadf80e21b7cdd4d7c7719244491016941f79e1031be882b5a', 'start_position': 'd910067b9c84717d37be4c3d98415966deea773b970b7ed925a3619e805c9762'},
    'varwidth.std.canonical/0': {'data': '4b6e9cc1363c470a1957c615ecdbd4e3995260c8947bbe05ba7b14ff37e73869', 'length': 'ede04d97f9988297a1406b3d86449f3c912daf3ab5d4034be4998eb89d1790c4', 'start_position': 'ede04d97f9988297a1406b3d86449f3c912daf3ab5d4034be4998eb89d1790c4'},
    'varwidth.std.canonical/1': {'data': '1a5c431cd0c7e8de3274e5fff296ed5de51eaddf2fa5ea5d00d252c42f79c45f', 'length': 'bec06c1eafc0b1aa100a852f88bbecaa94446fdddc9519734eb1a508704f1b19', 'start_position': '842027a5a836de1f713b5d61db0e60ebe8451778f0a3780f1bde428b2fd2da48'},
    'varwidth.std.canonical/5': {'data': '33be59f203d9c9c75596deba9c3665e0672f3036ff3a5ec8a30676564c613165', 'length': 'd44adf628d7ff24c83a3ac7e72489505623ce83477bea2f6c9e5ef13901fe5e3', 'start_position': '081a4b795e10186f1acd9c04e4ad6fda2bdb3f2645646ed1cd98ac4dd341f7e8'},
    'varwidth.std.canonical/8000': {'data': 'df498f1e912487f8999b617b3419014b91a943d06821c289fcba6f4941d53211', 'length': 'b97c997c430437e9d24c455ae5bad822f1dbce3a575681154e51adba0ba826c1', 'start_position': '41f54df062073719b349bf0cb865c66b95ed28494ae91c0d496a3f3f27b35667'},
    'vwdict/0': {'entry_data': '4b6e9cc1363c470a1957c615ecdbd4e3995260c8947bbe05ba7b14ff37e73869', 'entry_lengths': 'ede04d97f9988297a1406b3d86449f3c912daf3ab5d4034be4998eb89d1790c4', 'entry_start_positions': 'ede04d97f9988297a1406b3d86449f3c912daf3ab5d4034be4998eb89d1790c4', 'indices': 'ede04d97f9988297a1406b3d86449f3c912daf3ab5d4034be4998eb89d1790c4'},
    'vwdict/1': {'entry_data': '4b6e9cc1363c470a1957c615ecdbd4e3995260c8947bbe05ba7b14ff37e73869', 'entry_lengths': '842027a5a836de1f713b5d61db0e60ebe8451778f0a3780f1bde428b2fd2da48', 'entry_start_positions': '842027a5a836de1f713b5d61db0e60ebe8451778f0a3780f1bde428b2fd2da48', 'indices': '842027a5a836de1f713b5d61db0e60ebe8451778f0a3780f1bde428b2fd2da48'},
    'vwdict/5': {'entry_data': 'e5ea377d98d870b46fdac24239471da3b1e3e82d6a2b6f8786f582f3c5523713', 'entry_lengths': '1c60ab5761fd6a063ebb401c119c85997b854d68dbef234dadd50ea0ac9341c6', 'entry_start_positions': 'c678fddacc9b7031beae9084a6ec44a232f905540af1309228bdcaddaa4d19e2', 'indices': '72482d38ddeefc80e47c364cdcef1f38d0558809b8f186b6d7801cf05d6b1bc2'},
    'vwdict/8000': {'entry_data': 'f539bde4ed6313cd7cf00a4076c869b40904809b434ec6fc2808e5b3085b19e9', 'entry_lengths': 'b048e8bd871f2130f3bcde37f5cdd66a7ef94dc3aa884538834762547ba2da0b', 'entry_start_positions': 'e03c8878134521e1ba01163fbcd56f15f54724c16a516b679832adbd2081ebad', 'indices': 'e622c46637eae8f79ccde980b197867668d425536740a286085bff7e05cdc18e'},
}


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("name", sorted(CASES))
def test_encoding_is_pinned(name, n):
    assert digests(name, n) == PINS[f"{name}/{n}"]


def test_every_case_is_pinned():
    assert set(PINS) == {f"{name}/{n}" for name in CASES for n in SIZES}


def _table():
    lines = ["PINS = {"]
    for name in sorted(CASES):
        for n in SIZES:
            lines.append(f"    {f'{name}/{n}'!r}: {digests(name, n)!r},")
    lines.append("}")
    return "\n".join(lines)


if __name__ == "__main__":
    print(_table())
