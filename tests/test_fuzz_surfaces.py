"""Fuzzing the input surfaces: ``.col`` bytes, circuit JSON, bundles, scheme families and ``colcirc`` argument lists.

The claim: a library call on malformed input raises only ``ColcircError``
subclasses (an encoder ``NotEncodable`` alone), and ``cli.main`` returns
one of the README's exit codes (0 ok, 1 IO or usage, 2 not encodable, 3
verify reject, 4 invalid circuit, 5 operator failure) without a traceback.  Inputs are drawn by Hypothesis from
valid documents with a few edits, and from raw bytes.  Lengths stay small,
so no case allocates without bound.  The named cases reach each branch that
a surface must take.
"""

import contextlib
import copy
import io
import json
import os
import random
import shutil
import tempfile

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from colcirc import (
    CodecEntry,
    ColcircError,
    circuit_to_json,
    decode,
    encode,
    evaluate_circuit,
    make_column,
    read_bundle,
    registered_schemes,
    verify,
    write_bundle,
    write_col_file,
)
from colcirc.circuit import check_valid, circuit_from_json, load_circuit
from colcirc.cli import main
from colcirc.codec import codec
from colcirc.column import Column, read_col_bytes, write_col_bytes
from colcirc.errors import NotEncodable
from colcirc.gallery import double_plus_three
from colcirc.types import BIT, BOTTOM, F32, I16, U8, U32, U64, UNIT, Kind

from paths import edges
from scheme_cases import CASES

EXIT_CODES = range(6)
FUZZ = settings(max_examples=150, deadline=None)


def edits(doc):
    """``doc`` after one to three edits, each replacing or deleting one value found by a random walk."""
    leaves = st.one_of(
        st.none(),
        st.booleans(),
        st.integers(-3, 300),
        st.text(max_size=4),
        st.sampled_from(["", "u8", "u32", "u65", "relay.result", "add.result", "relay.arguments", "zz.result",
                         "add.zz", "nodot", "a.b", "no_op", "scalar", "value.col", "../value.col", "/value.col", "."]),
    )
    values = st.recursive(leaves, lambda kids: st.lists(kids, max_size=3) | st.dictionaries(st.text(max_size=4), kids, max_size=3),
                          max_leaves=5)

    @st.composite
    def edited(draw):
        out = copy.deepcopy(doc)
        for _ in range(draw(st.integers(1, 3))):
            parent, key, node = None, None, out
            while isinstance(node, (dict, list)) and node and (parent is None or draw(st.booleans())):
                key = draw(st.sampled_from(list(node) if isinstance(node, dict) else range(len(node))))
                parent, node = node, node[key]
            if parent is None:
                return draw(values)
            if draw(st.booleans()):
                del parent[key]
            else:
                parent[key] = draw(values)
        return out

    return edited()


# -- .col bytes ---------------------------------------------------------------------------------------

MAGIC = b"CCOL1"


def header(tag, width, n):
    return MAGIC + bytes([tag, width]) + n.to_bytes(8, "little")


SMALL_COLUMNS = [
    make_column(U32, [0, 7, 2**32 - 1]),
    make_column(I16, [-5, 3]),
    make_column(BIT, [1, 0, 1, 1, 0, 0, 1, 0, 1]),
    make_column(F32, [1.5, -0.0]),
    Column(UNIT, [(), ()]),
    Column(BOTTOM, []),
    make_column(U8, []),
]
VALID_COL_BYTES = [write_col_bytes(c) for c in SMALL_COLUMNS]


@st.composite
def col_bytes(draw):
    pick = draw(st.integers(0, 2))
    if pick == 0:
        return draw(st.binary(max_size=40))
    if pick == 1:  # a header of any tag, width and length (none that a reader may allocate for), then bytes
        n = draw(st.one_of(st.integers(0, 20), st.sampled_from([2**24 + 1, 2**63, 2**64 - 1])))
        return header(draw(st.integers(0, 7)), draw(st.integers(0, 70)), n) + draw(st.binary(max_size=40))
    data = bytearray(draw(st.sampled_from(VALID_COL_BYTES)))  # a valid file, cut or with bytes changed
    for _ in range(draw(st.integers(0, 3))):
        if data:
            data[draw(st.integers(0, len(data) - 1))] = draw(st.integers(0, 255))
    return bytes(data[: draw(st.integers(0, len(data)))])


@FUZZ
@given(col_bytes())
def test_col_bytes_read_back_or_raise_a_colcirc_error(data):
    try:
        col = read_col_bytes(data)
    except ColcircError:
        return
    assert read_col_bytes(write_col_bytes(col)) == col


@pytest.mark.parametrize(
    "data, message",
    [
        (b"XCOL1" + VALID_COL_BYTES[0][5:], "bad magic"),
        (header(9, 8, 0), "unknown element-type tag 9"),
        (write_col_bytes(Column(UNIT, [()])) + b"\x00", "unit column carries no payload"),
        (header(5, 0, 1), "bottom columns are empty"),
        (write_col_bytes(Column(BOTTOM, [])) + b"\x00", "bottom columns are empty"),
        (VALID_COL_BYTES[0][:-1], "integer payload length mismatch"),
        (VALID_COL_BYTES[0] + b"\x00", "integer payload length mismatch"),
        (write_col_bytes(make_column(F32, [1.0])) + b"\x00", "float payload length mismatch"),
        (VALID_COL_BYTES[2] + b"\x00", "bit payload of 3 bytes, expected 2"),
    ],
)
def test_each_col_fault_is_named(data, message):
    with pytest.raises(ColcircError, match=message):
        read_col_bytes(data)


# -- circuit JSON ---------------------------------------------------------------------------------------

CIRCUIT_DOC = circuit_to_json(double_plus_three("u8"))


@FUZZ
@given(st.one_of(edits(CIRCUIT_DOC), st.text(max_size=30)))
def test_circuit_json_loads_or_raises_a_colcirc_error(doc):
    try:
        c = load_circuit(doc) if isinstance(doc, str) else circuit_from_json(doc)
        check_valid(c)
        inputs = {label: Column(t, [t.zero()] * 2) for label, t in c.signature.inputs.items() if t is not BOTTOM}
        evaluate_circuit(c, inputs)
    except ColcircError:
        pass


def _with(**changes):
    doc = copy.deepcopy(CIRCUIT_DOC)
    for path, value in changes.items():
        *keys, last = path.split("__")
        node = doc
        for key in keys:
            node = node[int(key)] if isinstance(node, list) else node[key]
        node[int(last) if isinstance(node, list) else last] = value
    return doc


@pytest.mark.parametrize(
    "doc, message",
    [
        (_with(edges__0__from="nodot"), "bad port reference 'nodot'"),
        (_with(edges__0__from="zz.result"), "names unknown vertex 'zz'"),
        (_with(edges__0__from="add.zz"), "has no out-port 'zz'"),
        (_with(interface__col="relay.zz"), "has no in-port 'zz'"),
        (_with(interface__result="add.zz"), "has no any-port 'zz'"),
        (_with(vertices__0__id="a.b"), "may not contain '.'"),
        (_with(vertices__1__id=CIRCUIT_DOC["vertices"][0]["id"]), "duplicate vertex id"),
        (_with(signature__outputs__result="u32"), "declared output 'result': u32 but ports imply u8"),
        (_with(signature__inputs__col="u16"), "declared input 'col': u16 but ports imply u8"),
    ],
)
def test_each_circuit_json_fault_is_named(doc, message):
    with pytest.raises(ColcircError, match=message):
        circuit_from_json(doc)


# -- bundles --------------------------------------------------------------------------------------------

BUNDLE_INSTANCE = encode("run.rle", {"type": "u8"}, make_column(U8, [4, 4, 4, 9, 9]))


@contextlib.contextmanager
def bundle_dir():
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "b")
        write_bundle(BUNDLE_INSTANCE, path)
        yield path


def _manifest(path):
    with open(os.path.join(path, "manifest.json")) as f:
        return json.load(f)


with bundle_dir() as _path:
    MANIFEST = _manifest(_path)


@FUZZ
@given(st.one_of(edits(MANIFEST), st.binary(max_size=30)), st.booleans())
def test_a_bundle_reads_or_raises_a_colcirc_error(manifest, by_file):
    with bundle_dir() as path:
        target = os.path.join(path, "manifest.json")
        with open(target, "wb") as f:
            f.write(manifest if isinstance(manifest, bytes) else json.dumps(manifest).encode())
        try:
            inst = read_bundle(target if by_file else path)
            verify(inst)
            decode(inst, check=False)
        except ColcircError:
            pass


def test_a_manifest_given_by_its_file_path():
    with bundle_dir() as path:
        assert read_bundle(os.path.join(path, "manifest.json")) == read_bundle(path) == BUNDLE_INSTANCE


@pytest.mark.parametrize("field", ["scheme", "params", "columns"])
def test_a_manifest_missing_a_field(field):
    with bundle_dir() as path:
        manifest = _manifest(path)
        del manifest[field]
        with open(os.path.join(path, "manifest.json"), "w") as f:
            json.dump(manifest, f)
        with pytest.raises(ColcircError, match=f"manifest is missing the '{field}' field"):
            read_bundle(path)


@pytest.mark.parametrize("rel", [".", "missing.col"])
def test_a_manifest_path_naming_no_file(rel):
    with bundle_dir() as path:
        manifest = _manifest(path)
        manifest["columns"]["values"] = rel
        with open(os.path.join(path, "manifest.json"), "w") as f:
            json.dump(manifest, f)
        with pytest.raises(ColcircError, match="names no file"):
            read_bundle(path)


@pytest.mark.parametrize("data", [b"\xff\xfe{", b"{", b"[1, "])
def test_a_manifest_that_is_no_json_text(data):
    with bundle_dir() as path:
        with open(os.path.join(path, "manifest.json"), "wb") as f:
            f.write(data)
        with pytest.raises(ColcircError, match="manifest is not JSON"):
            read_bundle(path)


# -- scheme families ------------------------------------------------------------------------------------

BUILTINS = sorted(sid for sid in registered_schemes() if type(codec(sid)) is CodecEntry)


def edge_value(draw, t):
    """A boundary value of ``t`` (``paths.edges``); of a product type, one per component."""
    if t.kind is Kind.PRODUCT:
        return tuple(edge_value(draw, c) for c in t.components)
    return draw(st.sampled_from(edges(t)))


@st.composite
def scheme_families(draw):
    """A builtin scheme, params from its ``scheme_cases`` case, and a well-typed family of 0 to 6
    boundary values per decoded label."""
    sid = draw(st.sampled_from(BUILTINS))
    params, _ = CASES[sid].gen(random.Random(draw(st.integers(0, 2**32))))
    entry = codec(sid)
    decoded = entry.decoder(entry.normalize_params(params)).signature.outputs
    family = {
        label.removeprefix("out:"): Column(t, [edge_value(draw, t) for _ in range(draw(st.integers(0, 6)))])
        for label, t in decoded.items()
    }
    return sid, params, family


@settings(max_examples=1000, deadline=None)
@given(scheme_families())
def test_an_encoder_returns_an_instance_or_raises_not_encodable(case):
    sid, params, family = case
    try:
        inst = encode(sid, params, family)
    except NotEncodable:
        return
    assert inst.scheme_id == sid


# -- colcirc argument lists -----------------------------------------------------------------------------


@pytest.fixture(scope="module")
def cli_files(tmp_path_factory):
    """A directory of inputs for ``colcirc``: columns, bundles, circuits and params, good and bad."""
    root = tmp_path_factory.mktemp("cli")
    write_col_file(root / "u32.col", make_column(U32, [5, 5, 5, 9]))
    write_col_file(root / "u8.col", make_column(U8, [1, 2]))
    (root / "junk.col").write_bytes(b"CCOL1\x09")
    write_bundle(BUNDLE_INSTANCE, root / "bundle")
    write_bundle(BUNDLE_INSTANCE.with_columns(length=make_column(U64, [3])), root / "rejected")
    (root / "c.json").write_text(json.dumps(circuit_to_json(double_plus_three())))
    (root / "bad.json").write_text(json.dumps(_with(vertices__0__params={"type": "zz"})))
    (root / "binary.json").write_bytes(b"\xff\xfe\x00")
    (root / "params.json").write_text('{"type": "u32"}')
    return root


COMMANDS = ["encode", "decode", "verify", "eval", "stats", "transform", "gen"]
PATHS = ["u32.col", "u8.col", "junk.col", "bundle", "rejected", "bundle/manifest.json", "c.json", "bad.json",
         "binary.json", "missing", "out", "out2"]
# each option and the values drawn for it; a flag without values takes none
OPTIONS = {
    "--scheme": ["run.rle", "constant", "nullsup", "zz"],
    "--params": ['{"type": "u32"}', '{"type": "u8", "narrow_type": "u8"}', "[1]", '"x"', "null", "{", "@params.json",
                 "@missing"],
    "--input": ["col=u32.col", "col", "=u32.col", "zz=u32.col", "col=junk.col"],
    "-o": PATHS,
    "--trace": [],
    "--op": ["union", "assign", "induce", "replace", "fuse", "dedup"],
    "--other": PATHS,
    "--label": ["col", "result", "zz"],
    "--source": ["relay.result", "add.result", "relay.arguments", "zz.result", "nodot"],
    "--vertices": ["mul,add", "relay", "zz", "", "mul,add,rep_two,rep_three,len"],
    "--replacement": PATHS,
    "--rho": ["add.result=add.result", "mul.lhs=relay.arguments", "nodot=add.result", "x"],
    "--name": ["f", "a.b"],
    "--kind": ["runs", "zipf", "noisy-linear", "geometric-widths", "zz"],
    "--seed": ["3", "x"],
    "--n": ["3", "-1", "x"],
}


# each command's options, the one it requires first, and a typical list of its positionals
SHAPES = {
    "encode": (["--scheme", "--params"], ["u32.col", "out"]),
    "decode": ([], ["bundle", "out"]),
    "verify": ([], ["bundle"]),
    "eval": (["--input", "-o", "--trace"], ["c.json"]),
    "stats": (["-o"], ["bundle"]),
    "transform": (["--op", "--other", "--label", "--source", "--vertices", "--replacement", "--rho", "--name", "-o"],
                  ["c.json"]),
    "gen": (["--kind", "--seed", "--n"], ["out"]),
}


@st.composite
def argument_lists(draw):
    """Mostly well-shaped command lines: the command's own options with drawn values, now and then
    another command's, and its typical positionals with some swapped for other paths."""
    command = draw(st.sampled_from(COMMANDS))
    own, typical = SHAPES[command]
    flags = own[:1] if own and draw(st.integers(0, 7)) else []
    flags += draw(st.lists(st.sampled_from(own or sorted(OPTIONS)), max_size=3))
    if not draw(st.integers(0, 7)):
        flags.append(draw(st.sampled_from(sorted(OPTIONS))))
    argv = [command]
    for flag in flags:
        argv += [flag, draw(st.sampled_from(OPTIONS[flag]))] if OPTIONS[flag] else [flag]
    for path in typical if draw(st.integers(0, 3)) else []:
        argv.append(path if draw(st.integers(0, 3)) else draw(st.sampled_from(PATHS)))
    return argv + draw(st.lists(st.sampled_from(PATHS), max_size=2))


@settings(max_examples=250, deadline=None)
@given(argument_lists())
def test_colcirc_returns_an_exit_code(cli_files, argv):
    with tempfile.TemporaryDirectory() as tmp:
        work = shutil.copytree(cli_files, os.path.join(tmp, "w"))
        here = os.getcwd()
        os.chdir(work)
        try:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                code = main(argv)
        finally:
            os.chdir(here)
    assert code in EXIT_CODES


def run(argv):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


def test_encode_with_the_wrong_number_of_col_files(cli_files, tmp_path):
    col = str(cli_files / "u32.col")
    code, err = run(["encode", "--scheme", "run.rle", col, col, str(tmp_path / "b")])
    assert code == 1 and "supply one .col per label" in err


def test_eval_input_without_an_equals_sign(cli_files, tmp_path):
    code, err = run(["eval", str(cli_files / "c.json"), "--input", "col", "-o", str(tmp_path / "o")])
    assert code == 1 and "--input needs label=path" in err


@pytest.mark.parametrize("params", ["[1]", '"x"', "null", "3"])
def test_params_that_are_no_object_exit_1(cli_files, tmp_path, params):
    code, err = run(["encode", "--scheme", "run.rle", "--params", params, str(cli_files / "u32.col"), str(tmp_path / "b")])
    assert code == 1 and "params JSON is not an object" in err


@pytest.mark.parametrize(
    "op, missing", [("union", "other"), ("assign", "label"), ("induce", "vertices"), ("replace", "vertices"), ("fuse", "vertices")]
)
def test_a_transform_without_its_options_exits_1(cli_files, op, missing):
    code, err = run(["transform", str(cli_files / "c.json"), "--op", op])
    assert code == 1 and f"--op {op} needs --{missing}" in err


def test_a_circuit_file_that_is_no_text_exits_1(cli_files, tmp_path):
    code, err = run(["eval", str(cli_files / "binary.json"), "-o", str(tmp_path / "o")])
    assert code == 1 and "circuit JSON is not JSON" in err
