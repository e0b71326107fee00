"""The operator catalog is fixed at import, evaluation is serial, and the
codec and operator registries take concurrent registrations safely."""

import itertools
import os
import random
import subprocess
import sys
import threading

import pytest

import colcirc
from colcirc import (
    CompositionRecipe,
    catalog_names,
    codec,
    compose,
    decode,
    encode,
    evaluate_circuit,
    make_column,
    register_codec,
    verify,
)
from colcirc.circuit import dump_circuit, evaluate_decision_circuit, load_circuit
from colcirc.codec import CodecEntry
from colcirc.errors import OperatorError, RegistryError
from colcirc.gallery import double_plus_three
from colcirc.ops import instantiate, register_operator
from colcirc.types import U8
from paths import in_threads
from scheme_cases import CASES

SRC = os.path.dirname(os.path.dirname(os.path.abspath(colcirc.__file__)))

_suffix = itertools.count()


def unique_id(tag):
    return f"testonly.{tag}.{next(_suffix)}"


def run_python(code):
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)


def instances(scheme_id, case, rng):
    """One valid instance and up to two corrupted ones."""
    params, family = case.gen(rng)
    inst = encode(scheme_id, params, family)
    out = [inst]
    for fn in case.corruptions[:2]:
        bad = fn(rng, inst)
        if bad is not None:
            out.append(bad)
    return out


class TestFixedCatalog:
    def test_import_registers_one_lifting_operator_each(self):
        names = catalog_names()
        assert "host_verify" in names and "segmentized" in names
        assert not [n for n in names if n.startswith(("verify:", "segmentized:"))]

    def test_verifier_circuits_leave_the_catalog_alone(self):
        before = catalog_names()
        rng = random.Random(11)
        for sid, case in sorted(CASES.items()):
            for inst in instances(sid, case, rng):
                codec(sid).verifier_circuit(inst.params)
        assert catalog_names() == before

    @pytest.mark.parametrize(
        "kind,options,params",
        [("segmentize-uniform", {"segment_length": 3}, {}), ("segmentize-variable", {}, {"segments": [3, 4]})],
    )
    def test_segmentized_compose_leaves_the_catalog_alone(self, kind, options, params):
        before = catalog_names()
        sid = unique_id(kind)
        compose(CompositionRecipe(kind, sid, (("constant", {"type": "u8"}),), options))
        assert catalog_names() == before
        col = make_column(U8, [1, 1, 1, 2, 2, 2, 2])
        inst = encode(sid, params, col)
        assert decode(inst)["col"] == col
        dumped = load_circuit(dump_circuit(codec(sid).decoder(inst.params)))
        assert evaluate_circuit(dumped, inst.columns)["out:col"] == col

    def test_lifting_operators_reject_bad_params(self):
        with pytest.raises(OperatorError, match="bad-params"):
            instantiate("segmentized", {"scheme": "run.rle"})
        with pytest.raises(OperatorError, match="bad-params"):
            instantiate("host_verify", {"scheme": "run.rle"})


class TestLiftingOperatorsKeepTheirCodec:
    def test_evaluation_looks_no_codec_up(self, monkeypatch):
        sid = unique_id("segmentize-uniform")
        compose(CompositionRecipe("segmentize-uniform", sid, (("constant", {"type": "u8"}),), {"segment_length": 3}))
        col = make_column(U8, [1, 1, 1, 2, 2, 2, 2])
        inst = encode(sid, {}, col)
        rle = encode("run.rle", {"type": "u8"}, col)
        decoder = codec(sid).decoder(inst.params)
        assert [op.op_name for op in decoder.vertices.values()] == ["segmentized"]
        verifiers = [(codec(sid).verifier_circuit(inst.params), inst), (codec("run.rle").verifier_circuit(rle.params), rle)]
        lookups = []
        codec_mod = sys.modules["colcirc.codec"]
        counting = lambda scheme_id, find=codec_mod.codec: lookups.append(scheme_id) or find(scheme_id)  # noqa: E731
        for mod in (codec_mod, sys.modules["colcirc.compose"]):
            monkeypatch.setattr(mod, "codec", counting)
        assert evaluate_circuit(decoder, inst.columns)["out:col"] == col
        for verifier, checked in verifiers:
            assert evaluate_decision_circuit(verifier, checked.columns)
        assert lookups == []
        instantiate("segmentized", {"scheme": sid})  # instantiation is where the codec is resolved
        instantiate("host_verify", {"scheme": "run.rle", "params": rle.params})
        assert lookups == [sid, "run.rle"]


class TestDumpedVerifiers:
    def test_loaded_verifier_agrees_with_verify(self):
        rng = random.Random(5)
        for sid, case in sorted(CASES.items()):
            for inst in instances(sid, case, rng):
                vc = load_circuit(dump_circuit(codec(sid).verifier_circuit(inst.params)))
                assert evaluate_decision_circuit(vc, inst.columns) == verify(inst), sid

    def test_fresh_process_loads_a_dumped_verifier(self, tmp_path):
        vc = codec("run.rle").verifier_circuit({"type": "u8"})
        path = tmp_path / "verifier.json"
        path.write_text(dump_circuit(vc))
        code = (
            "import sys\n"
            "from colcirc import make_column\n"
            "from colcirc.circuit import evaluate_decision_circuit, load_circuit\n"
            "from colcirc.types import INT, U8\n"
            f"vc = load_circuit(open({str(path)!r}).read())\n"
            "good = {'value': make_column(U8, [4, 9]), 'length': make_column(INT, [2, 3])}\n"
            "bad = {'value': make_column(U8, [4, 9]), 'length': make_column(INT, [2])}\n"
            "print(evaluate_decision_circuit(vc, good), evaluate_decision_circuit(vc, bad))\n"
        )
        proc = run_python(code)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["True", "False"]


class TestSerialEvaluation:
    def test_parallel_starts_no_thread(self):
        c = double_plus_three()
        (label,) = c.signature.inputs
        inputs = {label: make_column(c.signature.inputs[label], list(range(20)))}
        before = threading.active_count()
        assert evaluate_circuit(c, inputs, parallel=True) == evaluate_circuit(c, inputs)
        assert threading.active_count() == before


class TestThreadSafeRegistries:
    def test_one_operator_registration_wins(self):
        name = unique_id("op")
        results = in_threads(lambda _: register_operator(name, lambda p: None, lambda i, c: {}), 8)
        assert sum(r is None for r in results) == 1
        assert all(isinstance(r, RegistryError) for r in results if r is not None)

    def test_one_codec_registration_wins(self):
        sid = unique_id("codec")

        def register(_):
            return register_codec(CodecEntry(sid))

        results = in_threads(register, 8)
        winners = [r for r in results if isinstance(r, CodecEntry)]
        assert len(winners) == 1 and codec(sid) is winners[0]
        assert all(isinstance(r, RegistryError) for r in results if r not in winners)

    def test_concurrent_first_lookups_see_every_builtin(self):
        code = (
            "import threading\n"
            "from colcirc.codec import codec\n"
            "barrier = threading.Barrier(8)\n"
            "found = []\n"
            "def worker():\n"
            "    barrier.wait()\n"
            "    found.append(codec('nullable.patched').scheme_id)\n"
            "threads = [threading.Thread(target=worker) for _ in range(8)]\n"
            "[t.start() for t in threads]\n"
            "[t.join() for t in threads]\n"
            "print(len(found))\n"
        )
        proc = run_python(code)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "8"

