import hashlib
import json
import os
import subprocess
import sys

import pytest

import colcirc
from colcirc import (
    SchemeInstance,
    circuit,
    circuit_to_json,
    make_column,
    read_bundle,
    read_col_file,
    write_bundle,
    write_col_file,
)
from colcirc.circuit import PortRef
from colcirc.cli import main
from colcirc.gallery import double_plus_three
from colcirc.types import F64, INT, U8, U32, U64

from paths import encoded, in_threads, splice_q6

SRC = os.path.dirname(os.path.dirname(os.path.abspath(colcirc.__file__)))


def sha(path):
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


@pytest.fixture()
def runs_col(tmp_path):
    path = tmp_path / "data.col"
    write_col_file(path, make_column(U32, [5] * 6 + [9] * 4 + [5] * 3))
    return str(path)


class TestEncodeDecodeVerify:
    def test_rle_bundle_roundtrip(self, tmp_path, runs_col):
        bundle = str(tmp_path / "bundle")
        out = str(tmp_path / "decoded")
        assert main(["encode", "--scheme", "run.rle", runs_col, bundle]) == 0
        assert os.path.exists(os.path.join(bundle, "manifest.json"))
        assert main(["verify", bundle]) == 0
        assert main(["decode", bundle, out]) == 0
        decoded = os.path.join(out, "col.col")
        assert sha(decoded) == sha(runs_col)

    def test_not_encodable_exit_2(self, tmp_path):
        path = tmp_path / "mixed.col"
        write_col_file(path, make_column(U8, [5, 6]))
        assert main(["encode", "--scheme", "constant", str(path), str(tmp_path / "b")]) == 2

    def test_a_value_outside_its_encoded_type_exits_2(self, tmp_path):
        path = tmp_path / "floats.col"
        write_col_file(path, make_column(F64, [1.5, 2.5]))
        params = json.dumps({"type": "f64", "offset_type": "u8", "segment_length": 4})
        assert main(["encode", "--scheme", "for", "--params", params, str(path), str(tmp_path / "b")]) == 2

    def test_missing_file_exit_1(self, tmp_path):
        assert main(["encode", "--scheme", "constant", str(tmp_path / "nope.col"), str(tmp_path / "b")]) == 1

    def test_corrupt_bundle_exit_3(self, tmp_path, runs_col):
        bundle = str(tmp_path / "bundle")
        main(["encode", "--scheme", "run.rle", runs_col, bundle])
        inst = read_bundle(bundle)
        bad = inst.with_columns(length=make_column(INT, [0] * len(inst.columns["length"])))
        write_bundle(bad, bundle)
        assert main(["verify", bundle]) == 3
        assert main(["decode", bundle, str(tmp_path / "d")]) == 3
        assert main(["stats", bundle]) == 3
        assert not os.path.exists(tmp_path / "d")

    def test_type_mismatched_column_file_exit_3(self, tmp_path, runs_col):
        bundle = str(tmp_path / "bundle")
        main(["encode", "--scheme", "run.rle", runs_col, bundle])
        inst = read_bundle(bundle)
        wrong = make_column(U8, [1] * len(inst.columns["value"]))
        write_bundle(inst.with_columns(value=wrong), bundle)
        assert main(["verify", bundle]) == 3

    def test_empty_column_roundtrip(self, tmp_path):
        src = tmp_path / "empty.col"
        write_col_file(src, make_column(U32, []))
        bundle = str(tmp_path / "b")
        out = str(tmp_path / "d")
        assert main(["encode", "--scheme", "run.rle", str(src), bundle]) == 0
        assert main(["decode", bundle, out]) == 0
        assert sha(os.path.join(out, "col.col")) == sha(str(src))


class TestEncodeInputOrder:
    def test_common_prefix_reads_full_length_then_elements(self, tmp_path):
        files = {"full_length": make_column(INT, [256]), "elements": make_column(INT, [3, 17, 18, 200])}
        paths = []
        for label, col in files.items():
            paths.append(str(tmp_path / f"{label}.col"))
            write_col_file(paths[-1], col)
        bundle, out = str(tmp_path / "bundle"), str(tmp_path / "decoded")
        args = ["encode", "--scheme", "idx.common_prefix", "--params", '{"w": 8, "p": 4}', *paths, bundle]
        assert main(args) == 0
        assert main(["decode", bundle, out]) == 0
        assert sorted(os.listdir(out)) == ["elements.col", "full_length.col"]
        for label, path in zip(files, paths):
            assert sha(os.path.join(out, f"{label}.col")) == sha(path)


class TestEval:
    def test_worked_example(self, tmp_path):
        cpath = tmp_path / "circuit.json"
        cpath.write_text(json.dumps(circuit_to_json(double_plus_three())))
        inpath = tmp_path / "in.col"
        write_col_file(inpath, make_column(U32, [1, 5]))
        out = str(tmp_path / "out")
        code = main(["eval", str(cpath), "--input", f"col={inpath}", "-o", out])
        assert code == 0
        assert read_col_file(os.path.join(out, "result.col")).values == (5, 13)

    def test_trace_dumps_ports(self, tmp_path):
        cpath = tmp_path / "circuit.json"
        cpath.write_text(json.dumps(circuit_to_json(double_plus_three())))
        inpath = tmp_path / "in.col"
        write_col_file(inpath, make_column(U32, [2]))
        out = str(tmp_path / "trace")
        assert main(["eval", str(cpath), "--input", f"col={inpath}", "-o", out, "--trace"]) == 0
        files = os.listdir(out)
        assert "mul.result.out.col" in files
        assert read_col_file(os.path.join(out, "mul.result.out.col")).values == (4,)

    def test_invalid_circuit_exit_4(self, tmp_path):
        doc = circuit_to_json(double_plus_three())
        doc["edges"] = doc["edges"][:-1]  # sever a wire: unmapped disengaged input
        cpath = tmp_path / "bad.json"
        cpath.write_text(json.dumps(doc))
        assert main(["eval", str(cpath)]) == 4

    def test_operator_failure_exit_5(self, tmp_path):
        from colcirc.builder import CircuitBuilder

        b = CircuitBuilder()
        b.output("out", b.add("split_first", {"type": "u32"}, col=b.input("col"))["head"])
        cpath = tmp_path / "c.json"
        cpath.write_text(json.dumps(circuit_to_json(b.build())))
        empty = tmp_path / "e.col"
        write_col_file(empty, make_column(U32, []))
        assert main(["eval", str(cpath), "--input", f"col={empty}", "-o", str(tmp_path / "o")]) == 5


class TestStats:
    def test_col_report(self, tmp_path, runs_col, capsys):
        assert main(["stats", runs_col]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["columns"][0]["length"] == 13
        assert doc["columns"][0]["support_size"] == 2

    def test_bundle_ratio(self, tmp_path, capsys):
        src = tmp_path / "c.col"
        write_col_file(src, make_column(U32, [7] * 1000))
        bundle = str(tmp_path / "b")
        main(["encode", "--scheme", "constant", "--params", '{"int_type": "u32"}', str(src), bundle])
        capsys.readouterr()  # drop the encode status line
        assert main(["stats", bundle]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["compression_ratio"] == [500, 1]

    @pytest.mark.parametrize("scheme, params", [("nullsup", '{"narrow_type": "u8"}'), ("dict", "{}")])
    def test_an_empty_bundle_in_no_bytes_has_ratio_one(self, tmp_path, capsys, scheme, params):
        src = tmp_path / "e.col"
        write_col_file(src, make_column(U32, []))
        bundle = str(tmp_path / "b")
        assert main(["encode", "--scheme", scheme, "--params", params, str(src), bundle]) == 0
        capsys.readouterr()
        assert main(["stats", bundle]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["compression_ratio"] == [1, 1]
        assert doc["encoded_size_bytes"] == doc["decoded_size_bytes"] == 0

    def test_uncompressed_ratio_is_one(self, runs_col, capsys):
        main(["stats", runs_col])
        doc = json.loads(capsys.readouterr().out)
        assert doc["compression_ratio"] == [1, 1]


class TestTransformCli:
    def test_fuse_then_eval_same_outputs(self, tmp_path):
        cpath = tmp_path / "c.json"
        cpath.write_text(json.dumps(circuit_to_json(double_plus_three())))
        fused_path = str(tmp_path / "fused.json")
        code = main(
            [
                "transform",
                str(cpath),
                "--op",
                "fuse",
                "--vertices",
                "mul,add,rep_two,rep_three,len",
                "--name",
                "clitest:fused1",
                "-o",
                fused_path,
            ]
        )
        assert code == 0
        inpath = tmp_path / "in.col"
        write_col_file(inpath, make_column(U32, [4, 11]))
        out1, out2 = str(tmp_path / "o1"), str(tmp_path / "o2")
        assert main(["eval", str(cpath), "--input", f"col={inpath}", "-o", out1]) == 0
        assert main(["eval", fused_path, "--input", f"col={inpath}", "-o", out2]) == 0
        assert sha(os.path.join(out1, "result.col")) == sha(os.path.join(out2, "result.col"))

    def test_fused_circuit_evaluates_in_a_fresh_process(self, tmp_path):
        cpath = tmp_path / "c.json"
        cpath.write_text(json.dumps(circuit_to_json(double_plus_three())))
        fused_path = str(tmp_path / "fused.json")
        vertices = "mul,add,rep_two,rep_three,len"
        assert main(["transform", str(cpath), "--op", "fuse", "--vertices", vertices, "-o", fused_path]) == 0
        inpath = tmp_path / "in.col"
        write_col_file(inpath, make_column(U32, [4, 11, 0]))
        out1, out2 = str(tmp_path / "o1"), str(tmp_path / "o2")
        assert main(["eval", str(cpath), "--input", f"col={inpath}", "-o", out1]) == 0
        env = dict(os.environ, PYTHONPATH=SRC)
        cmd = [sys.executable, "-m", "colcirc.cli", "eval", fused_path, "--input", f"col={inpath}", "-o", out2]
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert sha(os.path.join(out1, "result.col")) == sha(os.path.join(out2, "result.col"))

    def test_dedup_idempotent(self, tmp_path):
        cpath = tmp_path / "c.json"
        cpath.write_text(json.dumps(circuit_to_json(double_plus_three())))
        once, twice = str(tmp_path / "d1.json"), str(tmp_path / "d2.json")
        assert main(["transform", str(cpath), "--op", "dedup", "-o", once]) == 0
        assert main(["transform", once, "--op", "dedup", "-o", twice]) == 0
        assert json.load(open(once)) == json.load(open(twice))

    def test_induce_full_set_isomorphic(self, tmp_path):
        c = double_plus_three()
        cpath = tmp_path / "c.json"
        cpath.write_text(json.dumps(circuit_to_json(c)))
        out = str(tmp_path / "ind.json")
        vertices = ",".join(sorted(c.vertices))
        assert main(["transform", str(cpath), "--op", "induce", "--vertices", vertices, "-o", out]) == 0
        assert json.load(open(out)) == circuit_to_json(c)


class TestGen:
    def test_deterministic(self, tmp_path):
        a, b = str(tmp_path / "a.col"), str(tmp_path / "b.col")
        assert main(["gen", "--kind", "runs", "--seed", "42", "--n", "200", a]) == 0
        assert main(["gen", "--kind", "runs", "--seed", "42", "--n", "200", b]) == 0
        assert sha(a) == sha(b)
        c = str(tmp_path / "c.col")
        main(["gen", "--kind", "runs", "--seed", "43", "--n", "200", c])
        assert sha(a) != sha(c)

    def test_kinds(self, tmp_path):
        for kind in ("runs", "zipf", "noisy-linear"):
            path = str(tmp_path / f"{kind}.col")
            assert main(["gen", "--kind", kind, "--seed", "1", "--n", "50", path]) == 0
            assert len(read_col_file(path)) == 50
        vw = str(tmp_path / "vw")
        assert main(["gen", "--kind", "geometric-widths", "--seed", "1", "--n", "30", vw]) == 0
        inst = read_bundle(vw)
        assert inst.scheme_id == "varwidth.std"


class TestFaultsExitOne:
    def test_missing_scheme_param_names_it(self, tmp_path, runs_col, capsys):
        code = main(["encode", "--scheme", "for", runs_col, str(tmp_path / "b")])
        assert code == 1
        assert "offset_type" in capsys.readouterr().err

    def test_truncated_col_in_bundle(self, tmp_path, runs_col, capsys):
        bundle = tmp_path / "bundle"
        assert main(["encode", "--scheme", "run.rle", runs_col, str(bundle)]) == 0
        (bundle / "value.col").write_bytes(b"CCOL1")
        capsys.readouterr()
        assert main(["verify", str(bundle)]) == 1
        assert "truncated" in capsys.readouterr().err


class TestVerifiesOnce:
    @pytest.fixture()
    def verify_calls(self, monkeypatch):
        from colcirc.codec import CodecEntry

        calls = []
        original = CodecEntry.verify_columns

        def counting(self, params, columns):
            calls.append(self.scheme_id)
            return original(self, params, columns)

        monkeypatch.setattr(CodecEntry, "verify_columns", counting)
        return calls

    @pytest.fixture()
    def bundle(self, tmp_path, runs_col):
        path = str(tmp_path / "bundle")
        assert main(["encode", "--scheme", "run.rle", runs_col, path]) == 0
        return path

    def test_decode(self, tmp_path, bundle, runs_col, verify_calls):
        out = str(tmp_path / "decoded")
        assert main(["decode", bundle, out]) == 0
        assert verify_calls == ["run.rle"]
        assert sha(os.path.join(out, "col.col")) == sha(runs_col)

    def test_stats(self, bundle, verify_calls, capsys):
        capsys.readouterr()
        assert main(["stats", bundle]) == 0
        assert verify_calls == ["run.rle"]
        doc = json.loads(capsys.readouterr().out)
        assert doc["decoded_size_bytes"] == 13 * 4
        ratio = doc["encoded_size_bytes"], doc["decoded_size_bytes"]
        assert doc["compression_ratio"][0] * ratio[0] == doc["compression_ratio"][1] * ratio[1]


class TestEncodeChecksFamilyTypes:
    @pytest.fixture()
    def varwidth_files(self, tmp_path):
        files = {
            "start_position": make_column(INT, [0, 2]),
            "length": make_column(INT, [2, 1]),
            "data": make_column(U8, [1, 2, 3]),
        }
        paths = []
        for label, col in files.items():
            path = str(tmp_path / f"{label}.col")
            write_col_file(path, col)
            paths.append(path)
        return paths

    def test_ill_typed_family_exit_2_and_no_bundle(self, tmp_path, varwidth_files, capsys):
        bundle = tmp_path / "b"
        assert main(["encode", "--scheme", "varwidth.std", *varwidth_files, str(bundle)]) == 2
        err = capsys.readouterr().err
        assert "'data'" in err and "u64" in err and "u8" in err
        assert not bundle.exists()

    @pytest.mark.parametrize("values", [[3, 3, 5], [300, 300, 5]])
    def test_a_narrower_type_param_exits_2_whatever_the_values(self, tmp_path, values, capsys):
        path, bundle = str(tmp_path / "col.col"), tmp_path / "b"
        write_col_file(path, make_column(U32, values))
        assert main(["encode", "--scheme", "run.rle", "--params", '{"type": "u8"}', path, str(bundle)]) == 2
        assert "decodes 'col' as u8, but the family gives u32" in capsys.readouterr().err
        assert not bundle.exists()

    def test_well_typed_family_roundtrips(self, tmp_path, varwidth_files):
        bundle = str(tmp_path / "b")
        args = ["encode", "--scheme", "varwidth.std", "--params", '{"type": "u8"}', *varwidth_files, bundle]
        assert main(args) == 0
        assert main(["verify", bundle]) == 0


class TestManifestPathsStayInBundle:
    @pytest.fixture()
    def bundle(self, tmp_path, runs_col):
        path = tmp_path / "bundle"
        assert main(["encode", "--scheme", "run.rle", runs_col, str(path)]) == 0
        return path

    def point_value_at(self, bundle, rel):
        manifest = json.loads((bundle / "manifest.json").read_text())
        manifest["columns"]["value"] = rel
        (bundle / "manifest.json").write_text(json.dumps(manifest))

    @pytest.mark.parametrize("where", ["parent", "absolute"])
    def test_escaping_path_is_rejected(self, tmp_path, bundle, where, capsys):
        from colcirc.errors import ColcircError

        outside = tmp_path / "secret.col"
        outside.write_bytes((bundle / "value.col").read_bytes())
        self.point_value_at(bundle, "../secret.col" if where == "parent" else str(outside))
        with pytest.raises(ColcircError, match="bundle"):
            read_bundle(str(bundle))
        capsys.readouterr()
        assert main(["verify", str(bundle)]) == 1
        assert "manifest path" in capsys.readouterr().err

    def test_path_through_a_subdirectory_is_read(self, bundle):
        (bundle / "sub").mkdir()
        (bundle / "value.col").rename(bundle / "sub" / "value.col")
        self.point_value_at(bundle, "sub/../sub/value.col")
        assert read_bundle(str(bundle)).columns["value"].values == (5, 9, 5)


_NO_OP = {"id": "a", "op": "no_op", "params": {"type": "u8"}}


class TestMalformedCircuitJsonExitOne:
    @pytest.mark.parametrize(
        "doc",
        [
            [_NO_OP],
            {"vertices": {"a": _NO_OP}},
            {"vertices": ["a"]},
            {"vertices": [{"id": "a"}]},
            {"vertices": [{"op": "no_op", "params": {"type": "u8"}}]},
            {"vertices": [{"id": 1, "op": "no_op", "params": {"type": "u8"}}]},
            {"vertices": [{"id": "a", "op": "no_op", "params": ["u8"]}]},
            {"vertices": [_NO_OP], "edges": {"from": "a.result", "to": "a.arguments"}},
            {"vertices": [_NO_OP], "edges": ["a.result"]},
            {"vertices": [_NO_OP], "edges": [{"from": "a.result"}]},
            {"vertices": [_NO_OP], "edges": [{"to": "a.arguments"}]},
            {"vertices": [_NO_OP], "edges": [{"from": ["a", "result"], "to": "a.arguments"}]},
            {"vertices": [_NO_OP], "interface": {"x": 3}},
        ],
    )
    def test_eval_exits_1(self, tmp_path, doc, capsys):
        path = tmp_path / "c.json"
        path.write_text(json.dumps(doc))
        assert main(["eval", str(path), "-o", str(tmp_path / "out")]) == 1
        assert "circuit JSON" in capsys.readouterr().err


class TestDeepJsonExitOne:
    def test_circuit_file(self, tmp_path, capsys):
        path = tmp_path / "c.json"
        path.write_text("[" * 100000)
        assert main(["eval", str(path), "-o", str(tmp_path / "out")]) == 1
        assert "nested too deeply" in capsys.readouterr().err

    def test_params_file(self, tmp_path, runs_col, capsys):
        path = tmp_path / "params.json"
        path.write_text("[" * 100000)
        assert main(["encode", "--scheme", "run.rle", "--params", f"@{path}", runs_col, str(tmp_path / "b")]) == 1
        assert "nested too deeply" in capsys.readouterr().err


class TestUnknownTypeNameExitOne:
    @pytest.mark.parametrize("name", ["zz", "prod(u8,", "u65", "", "prod(u8,zz)"])
    def test_vertex_param(self, tmp_path, name, capsys):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"vertices": [{"id": "a", "op": "no_op", "params": {"type": name}}]}))
        assert main(["eval", str(path), "-o", str(tmp_path / "out")]) == 1
        assert "element type name" in capsys.readouterr().err

    def test_declared_signature_type(self, tmp_path, capsys):
        doc = circuit_to_json(double_plus_three())
        doc["signature"]["inputs"]["col"] = "zz"
        path = tmp_path / "c.json"
        path.write_text(json.dumps(doc))
        assert main(["eval", str(path), "-o", str(tmp_path / "out")]) == 1
        assert "'zz'" in capsys.readouterr().err


class TestLengthBeyondAnIndexExitFive:
    # verify accepts these, so decoding reaches the operator that cannot allocate the length
    @pytest.mark.parametrize(
        "scheme, params, columns",
        [
            ("run.rpe", {"type": "u8"}, {"start_position": [0], "value": [7], "overall_length": [2**64 - 1]}),
            ("indexset.sparse", {}, {"full_length": [2**64 - 1], "elements": [0, 3]}),
            ("segmentation.uniform", {"segment_length": 4}, {"segment_length": [4], "overall_length": [2**64 - 1]}),
        ],
    )
    def test_decode_exits_5(self, tmp_path, scheme, params, columns, capsys):
        types = {"value": U8}
        cols = {label: make_column(types.get(label, U64), values) for label, values in columns.items()}
        bundle = str(tmp_path / "bundle")
        write_bundle(SchemeInstance(scheme, params, cols), bundle)
        assert main(["decode", bundle, str(tmp_path / "out")]) == 5
        assert "too-long" in capsys.readouterr().err


class TestMalformedManifestExitOne:
    @pytest.fixture()
    def bundle(self, tmp_path, runs_col):
        path = tmp_path / "bundle"
        assert main(["encode", "--scheme", "run.rle", runs_col, str(path)]) == 0
        return path

    @pytest.mark.parametrize(
        "field, value",
        [("columns", ["value.col", "length.col"]), ("params", "u32"), ("scheme", ["run.rle"]), (None, ["run.rle"])],
    )
    def test_verify_exits_1(self, bundle, field, value, capsys):
        path = bundle / "manifest.json"
        manifest = json.loads(path.read_text())
        if field is None:
            manifest = value
        else:
            manifest[field] = value
        path.write_text(json.dumps(manifest))
        capsys.readouterr()
        assert main(["verify", str(bundle)]) == 1
        assert "manifest" in capsys.readouterr().err


class TestEvalTraceFiles:
    # one file per port of double_plus_three on [1, 5], plus the output
    EXPECTED = {
        "add.lhs.in.col": "43434f4c3100200200000000000000020000000a000000",
        "add.result.out.col": "43434f4c3100200200000000000000050000000d000000",
        "add.rhs.in.col": "43434f4c31002002000000000000000300000003000000",
        "len.col.in.col": "43434f4c31002002000000000000000100000005000000",
        "len.result.out.col": "43434f4c31004001000000000000000200000000000000",
        "mul.lhs.in.col": "43434f4c31002002000000000000000100000005000000",
        "mul.result.out.col": "43434f4c3100200200000000000000020000000a000000",
        "mul.rhs.in.col": "43434f4c31002002000000000000000200000002000000",
        "relay.arguments.in.col": "43434f4c31002002000000000000000100000005000000",
        "relay.result.out.col": "43434f4c31002002000000000000000100000005000000",
        "rep_three.factor.in.col": "43434f4c31004001000000000000000200000000000000",
        "rep_three.replicated.out.col": "43434f4c31002002000000000000000300000003000000",
        "rep_three.value.in.col": "43434f4c310020010000000000000003000000",
        "rep_two.factor.in.col": "43434f4c31004001000000000000000200000000000000",
        "rep_two.replicated.out.col": "43434f4c31002002000000000000000200000002000000",
        "rep_two.value.in.col": "43434f4c310020010000000000000002000000",
        "result.col": "43434f4c3100200200000000000000050000000d000000",
        "three.value.out.col": "43434f4c310020010000000000000003000000",
        "two.value.out.col": "43434f4c310020010000000000000002000000",
    }

    def test_same_files_and_bytes(self, tmp_path):
        cpath = tmp_path / "circuit.json"
        cpath.write_text(json.dumps(circuit_to_json(double_plus_three())))
        inpath = tmp_path / "in.col"
        write_col_file(inpath, make_column(U32, [1, 5]))
        out = tmp_path / "trace"
        assert main(["eval", str(cpath), "--input", f"col={inpath}", "-o", str(out), "--trace"]) == 0
        written = {p.name: p.read_bytes().hex() for p in out.iterdir()}
        assert written == self.EXPECTED


class TestEvalWritesOnlyUnderOut:
    """``eval`` refuses an output label or a traced vertex id that would put a file outside ``-o``."""

    def run_eval(self, tmp_path, doc, *extra):
        cpath = tmp_path / "circuit.json"
        cpath.write_text(json.dumps(doc))
        inpath = tmp_path / "in.col"
        write_col_file(inpath, make_column(U32, [1, 5]))
        out = tmp_path / "run" / "out"
        return main(["eval", str(cpath), "--input", f"col={inpath}", "-o", str(out), *extra]), out

    def test_an_output_label_that_climbs_out(self, tmp_path, capsys):
        doc = circuit_to_json(double_plus_three())
        doc["signature"]["outputs"] = {"../escaped": doc["signature"]["outputs"].pop("result")}
        doc["interface"]["../escaped"] = doc["interface"].pop("result")
        code, out = self.run_eval(tmp_path, doc)
        assert code == 1
        assert "would leave the output directory" in capsys.readouterr().err
        assert not (tmp_path / "run" / "escaped.col").exists()
        assert not out.exists()  # refused before anything was written

    def test_a_traced_vertex_id_that_is_an_absolute_path(self, tmp_path, capsys):
        outside = tmp_path / "elsewhere" / "v"
        if "." in str(outside):
            pytest.skip("vertex ids may not hold '.'")
        c = double_plus_three()

        def moved(port):
            return PortRef(str(outside), port.port_label, port.direction) if port.vertex_id == "add" else port

        vertices = {(str(outside) if vid == "add" else vid): op for vid, op in c.vertices.items()}
        edges = {(moved(src), moved(dst)) for src, dst in c.edges}
        doc = circuit_to_json(circuit(vertices, edges, {label: moved(p) for label, p in c.interface.items()}))
        code, out = self.run_eval(tmp_path, doc, "--trace")
        assert code == 1
        assert "would leave the output directory" in capsys.readouterr().err
        assert not (tmp_path / "elsewhere").exists()
        assert not out.exists()
        # without the trace, only the output label names a file
        code, out = self.run_eval(tmp_path, doc)
        assert code == 0 and [p.name for p in out.iterdir()] == ["result.col"]

    def test_an_output_file_that_is_a_link_out(self, tmp_path, capsys):
        out = tmp_path / "run" / "out"
        out.mkdir(parents=True)
        (out / "result.col").symlink_to(tmp_path / "elsewhere.col")
        code, _ = self.run_eval(tmp_path, circuit_to_json(double_plus_three()))
        assert code == 1
        assert "would leave the output directory" in capsys.readouterr().err
        assert not (tmp_path / "elsewhere.col").exists()

    def test_the_spliced_q6_plans_still_write_revenue(self, tmp_path):
        table = {
            "shipdate": [8800, 9000, 9100],
            "discount": [6, 2, 5],
            "quantity": [3, 30, 4],
            "extended_price": [1000, 2000, 300],
        }
        cpath = tmp_path / "q6.json"
        # the constants' defaults are TPC-H's, as in the benchmark's second plan
        cpath.write_text(json.dumps(circuit_to_json(splice_q6({}))))
        argv = ["eval", str(cpath), "-o", str(tmp_path / "out")]
        for label, col in encoded(table).items():
            path = tmp_path / (label.replace(":", "_") + ".col")
            write_col_file(path, col)
            argv += ["--input", f"{label}={path}"]
        assert main(argv) == 0
        assert [p.name for p in (tmp_path / "out").iterdir()] == ["revenue.col"]
        assert read_col_file(tmp_path / "out" / "revenue.col").values == (1000 * 6 + 300 * 5,)


class TestUsageErrorsExitOne:
    @pytest.mark.parametrize(
        "argv, says",
        [
            ([], "required: command"),
            (["verify"], "required: bundle"),
            (["nosuch"], "invalid choice: 'nosuch'"),
            (["verify", "a", "b"], "unrecognized arguments: b"),
            (["gen", "--kind", "runs", "--n", "many", "x.col"], "invalid int value: 'many'"),
        ],
    )
    def test_exit_1_with_usage_on_stderr(self, argv, says, capsys):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage: colcirc")
        assert says in captured.err

    @pytest.mark.parametrize("argv", [["--help"], ["verify", "--help"]])
    def test_help_exits_0(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: colcirc")


class TestSharedParser:
    @pytest.fixture()
    def builds(self, monkeypatch):
        import colcirc.cli as cli

        calls = []
        build = cli.build_parser

        def counting():
            calls.append(1)
            return build()

        monkeypatch.setattr(cli, "_parser", None)
        monkeypatch.setattr(cli, "build_parser", counting)
        return calls

    @pytest.fixture()
    def bundles(self, tmp_path, runs_col):
        paths = []
        for scheme, params in (("run.rle", {}), ("dict", {}), ("nullsup", {"narrow_type": "u8"})):
            path = str(tmp_path / f"bundle_{scheme}")
            assert main(["encode", "--scheme", scheme, "--params", json.dumps(params), runs_col, path]) == 0
            paths.append(path)
        return paths

    def test_built_once_for_many_calls(self, tmp_path, runs_col, builds):
        bundle = str(tmp_path / "bundle")
        assert builds == []  # nothing is built before the first call
        assert main(["encode", "--scheme", "run.rle", runs_col, bundle]) == 0
        for _ in range(5):
            assert main(["verify", bundle]) == 0
            assert main(["decode", bundle, str(tmp_path / "out")]) == 0
            assert main(["verify"]) == 1
        assert builds == [1]

    def test_eval_inputs_do_not_carry_over(self, tmp_path, capsys):
        cpath = tmp_path / "circuit.json"
        cpath.write_text(json.dumps(circuit_to_json(double_plus_three())))
        first, second = tmp_path / "first.col", tmp_path / "second.col"
        write_col_file(first, make_column(U32, [1, 5]))
        write_col_file(second, make_column(U32, [7]))
        out = str(tmp_path / "out")
        assert main(["eval", str(cpath), "--input", f"col={first}", "-o", out]) == 0
        assert main(["eval", str(cpath), "--input", f"col={second}", "-o", out]) == 0
        assert read_col_file(os.path.join(out, "result.col")).values == (17,)
        capsys.readouterr()
        # with no --input, the first call's inputs must not come back
        assert main(["eval", str(cpath), "-o", out]) != 0
        assert "col" in capsys.readouterr().err

    def test_threads_share_it(self, tmp_path, runs_col, bundles, builds):
        expected = sha(runs_col)

        def run(i):  # first calls race to build the parser
            bundle = bundles[i % len(bundles)]
            out = str(tmp_path / f"out_{i}")
            codes = [main(["verify", bundle]), main(["decode", bundle, out]), main(["verify", bundle])]
            return codes, sha(os.path.join(out, "col.col"))

        results = in_threads(run, 8)
        assert results == [([0, 0, 0], expected)] * 8
        assert 1 <= len(builds) <= 8  # racing first calls may each build one


class TestTransformAssignAndReplace:
    """``colcirc transform --op assign`` and ``--op replace`` write what the library calls return,
    and a bad port or a cycle exits 1 with a message."""

    @pytest.fixture()
    def files(self, tmp_path):
        from colcirc import circuit, in_port, instantiate, lift_operator, out_port

        base = double_plus_three()
        relay = instantiate("no_op", {"type": "u32"})
        spare = circuit(
            {**base.vertices, "spare": relay}, base.edges,
            {**base.interface, "x": in_port("spare", "arguments"), "y": out_port("spare", "result")},
        )
        replacement = lift_operator(instantiate("elementwise", {"fn": "mul", "type": "u32"}), "m2")
        paths = {"c": tmp_path / "c.json", "r": tmp_path / "r.json", "out": tmp_path / "out.json"}
        paths["c"].write_text(json.dumps(circuit_to_json(spare)))
        paths["r"].write_text(json.dumps(circuit_to_json(replacement)))
        return spare, replacement, {k: str(p) for k, p in paths.items()}

    def transform(self, files, *argv):
        return main(["transform", files[2]["c"], *argv, "-o", files[2]["out"]])

    def written(self, files):
        with open(files[2]["out"]) as f:
            return json.load(f)

    def test_assign_round_trip(self, files):
        from colcirc import assign_input, out_port

        assert self.transform(files, "--op", "assign", "--label", "x", "--source", "add.result") == 0
        assert self.written(files) == circuit_to_json(assign_input(files[0], "x", out_port("add", "result")))

    def test_replace_round_trip(self, files):
        from colcirc import in_port, out_port, replace_subcircuit

        rho = "m2.lhs=mul.lhs;m2.rhs=mul.rhs;m2.result=mul.result"
        argv = ["--op", "replace", "--vertices", "mul", "--replacement", files[2]["r"], "--rho", rho]
        assert self.transform(files, *argv) == 0
        mapping = {
            in_port("m2", "lhs"): in_port("mul", "lhs"),
            in_port("m2", "rhs"): in_port("mul", "rhs"),
            out_port("m2", "result"): out_port("mul", "result"),
        }
        assert self.written(files) == circuit_to_json(replace_subcircuit(files[0], ["mul"], files[1], mapping))

    @pytest.mark.parametrize(
        "source, says",
        [
            ("nodot", "bad port reference 'nodot'"),
            ("zz.result", "names unknown vertex 'zz'"),
            ("add.zz", "has no any-port 'zz'"),
            ("relay.arguments", "is not a vertex out-port"),
        ],
    )
    def test_a_bad_source_exits_1(self, files, source, says, capsys):
        assert self.transform(files, "--op", "assign", "--label", "x", "--source", source) == 1
        assert says in capsys.readouterr().err

    def test_an_assign_that_would_create_a_cycle_exits_1(self, files, capsys):
        assert self.transform(files, "--op", "assign", "--label", "col", "--source", "add.result") == 1
        assert "would-create-cycle" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "rho, says",
        [
            ("m2.zz=mul.lhs", "has no any-port 'zz'"),
            ("m2.lhs=nodot", "bad port reference 'nodot'"),
            ("m2.lhs=mul.lhs;m2.rhs=mul.rhs", "bijection-incomplete"),
            ("m2.lhs=mul.rhs;m2.rhs=mul.rhs;m2.result=mul.result", "bijection-incomplete"),
        ],
    )
    def test_a_bad_rho_exits_1(self, files, rho, says, capsys):
        argv = ["--op", "replace", "--vertices", "mul", "--replacement", files[2]["r"], "--rho", rho]
        assert self.transform(files, *argv) == 1
        assert says in capsys.readouterr().err
