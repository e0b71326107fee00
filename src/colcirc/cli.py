"""colcirc: encode/decode/verify columns, evaluate and transform circuits.

Exit codes: 0 ok, 1 IO or usage, 2 not encodable, 3 verify reject,
4 invalid circuit, 5 operator failure.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys

from .bundle import read_bundle, write_bundle
from .circuit import (
    _port_from_str,
    check_valid,
    circuit_to_json,
    evaluate_circuit,
    evaluate_ports,
    json_document,
    load_circuit,
)
from .codec import SchemeInstance, codec as codec_entry, compression_ratio, decode, encode, verify
from .column import (
    Column,
    frequency_distribution,
    read_col_file,
    representation_size_bytes,
    write_col_file,
)
from .errors import (
    ColcircError,
    EvaluationError,
    InvalidCircuitError,
    NotEncodable,
    VerificationFailed,
)
from .rep_schemes import canonical_varwidth
from .transform import (
    assign_input,
    circuit_union,
    eliminate_duplicate_vertices,
    fuse_subcircuit,
    induced_subcircuit,
    replace_subcircuit,
)
from .types import U8, U32

EXIT_OK = 0
EXIT_IO = 1
EXIT_NOT_ENCODABLE = 2
EXIT_VERIFY_REJECT = 3
EXIT_INVALID_CIRCUIT = 4
EXIT_OPERATOR_FAILURE = 5


def _load_params(text):
    if text is None:
        return {}
    if text.startswith("@"):
        with open(text[1:], "rb") as f:
            text = f.read()
    params = json_document(text, "params JSON")
    if not isinstance(params, dict):
        raise ColcircError("params JSON is not an object")
    return params


def _load_circuit_file(path):
    with open(path, "rb") as f:
        return check_valid(load_circuit(f.read()))


def _dump_json(doc, path=None):
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w") as f:
            f.write(text)


def cmd_encode(args):
    params = _load_params(args.params)
    entry = codec_entry(args.scheme)
    cols = [read_col_file(p) for p in args.inputs]
    if "type" not in params and cols:
        params["type"] = str(cols[0].element_type)
    labels = entry.decoded_labels(entry.normalize_params(params))
    if len(cols) != len(labels):
        print(f"error: {args.scheme} decodes to {labels}; supply one .col per label", file=sys.stderr)
        return EXIT_IO
    family = dict(zip(labels, cols))
    inst = encode(args.scheme, params, family)
    write_bundle(inst, args.out)
    print(f"wrote bundle {args.out} ({len(inst.columns)} columns)")
    return EXIT_OK


def cmd_decode(args):
    inst = read_bundle(args.bundle)
    out = decode(inst)
    os.makedirs(args.out, exist_ok=True)
    for label, col in out.items():
        write_col_file(os.path.join(args.out, label.replace(":", "_") + ".col"), col)
    print(f"decoded {inst.scheme_id} -> {sorted(out)} in {args.out}")
    return EXIT_OK


def cmd_verify(args):
    inst = read_bundle(args.bundle)
    if verify(inst):
        print(f"accept: valid {inst.scheme_id} encoded form")
        return EXIT_OK
    print(f"reject: invalid {inst.scheme_id} encoded form", file=sys.stderr)
    return EXIT_VERIFY_REJECT


def cmd_eval(args):
    c = _load_circuit_file(args.circuit)
    inputs = {}
    for item in args.input or []:
        label, _, path = item.partition("=")
        if not path:
            print(f"error: --input needs label=path, got {item!r}", file=sys.stderr)
            return EXIT_IO
        inputs[label] = read_col_file(path)
    files = []  # (name, column), every name checked before the first file is written
    if args.trace:
        ports = evaluate_ports(c, inputs)
        for port, col in sorted(ports.items(), key=lambda kv: str(kv[0])):
            files.append((f"{port.vertex_id}.{port.port_label}.{port.direction}.col", col))
        outputs = {label: ports[c.interface[label]] for label in c.signature.outputs}
    else:
        outputs = evaluate_circuit(c, inputs)
    files += [(label + ".col", col) for label, col in outputs.items()]
    paths = [(_inside(args.out, name), col) for name, col in files]
    os.makedirs(args.out, exist_ok=True)
    for path, col in paths:
        write_col_file(path, col)
    print(f"evaluated {args.circuit}: outputs {sorted(outputs)} in {args.out}")
    return EXIT_OK


def _inside(directory, name):
    """The path of file ``name`` in ``directory``; a name that resolves outside it is a ``ColcircError``.

    A plain file name that is no symbolic link stays in ``directory``, so it
    costs one ``lstat``; any other name is resolved, as ``read_bundle``
    resolves a manifest path.
    """
    path = os.path.join(directory, name)
    if os.sep not in name and name not in (os.curdir, os.pardir) and not os.path.islink(path):
        return path
    root = os.path.realpath(directory)
    if os.path.commonpath([root, os.path.realpath(path)]) != root:
        raise ColcircError(f"output file {name!r} would leave the output directory")
    return path


def _col_report(label, col):
    freq = frequency_distribution(col)
    top = [[repr(v), c] for v, c in freq.top(5)]
    return {
        "label": label,
        "element_type": str(col.element_type),
        "length": len(col),
        "size_bytes": col.size_bytes(),
        "support_size": len(freq.support),
        "top_values": top,
    }


def cmd_stats(args):
    if os.path.isdir(args.path):
        inst = read_bundle(args.path)
        ratio = compression_ratio(inst)  # decodes, so verifies, the bundle
        encoded_size = representation_size_bytes(inst.columns)
        report = {
            "scheme": inst.scheme_id,
            "encoded_size_bytes": encoded_size,
            "decoded_size_bytes": int(ratio * encoded_size),  # exact; 0 encoded bytes have ratio 1 only when 0 are decoded
            "compression_ratio": [ratio.numerator, ratio.denominator],
            "columns": [_col_report(lb, c) for lb, c in sorted(inst.columns.items())],
        }
    else:
        col = read_col_file(args.path)
        report = {
            "compression_ratio": [1, 1],
            "columns": [_col_report(os.path.basename(args.path), col)],
        }
    _dump_json(report, args.out)
    return EXIT_OK


# the options each transform reads
_TRANSFORM_OPTIONS = {"union": ("other",), "assign": ("label", "source"), "induce": ("vertices",),
                      "replace": ("vertices", "replacement"), "fuse": ("vertices",), "dedup": ()}


def cmd_transform(args):
    op = args.op
    for name in _TRANSFORM_OPTIONS[op]:
        if getattr(args, name) is None:
            print(f"error: --op {op} needs --{name}", file=sys.stderr)
            return EXIT_IO
    c = _load_circuit_file(args.circuit)
    if op == "union":
        other = _load_circuit_file(args.other)
        result = circuit_union(c, other)
    elif op == "assign":
        result = assign_input(c, args.label, _port_from_str(args.source, c.vertices))
    elif op == "induce":
        result = induced_subcircuit(c, args.vertices.split(","))
    elif op == "replace":
        replacement = _load_circuit_file(args.replacement)
        rho = {}
        for pair in (args.rho or "").split(";"):
            if not pair:
                continue
            r, _, o = pair.partition("=")
            rho[_port_from_str(r, replacement.vertices)] = _port_from_str(o, c.vertices)
        result = replace_subcircuit(c, args.vertices.split(","), replacement, rho)
    elif op == "fuse":
        result = fuse_subcircuit(c, args.vertices.split(","), args.name)
    else:
        result = eliminate_duplicate_vertices(c)
    _dump_json(circuit_to_json(result), args.out)
    return EXIT_OK


def cmd_gen(args):
    rng = random.Random(args.seed)
    n = args.n
    if args.kind == "runs":
        values = []
        while len(values) < n:
            v = rng.randrange(0, 50)
            values.extend([v] * min(rng.randrange(1, 12), n - len(values)))
        col = Column(U32, values)
        write_col_file(args.out, col)
    elif args.kind == "zipf":
        support = [rng.randrange(0, 1 << 30) for _ in range(32)]
        weights = [1.0 / (k + 1) ** 1.5 for k in range(32)]
        col = Column(U32, rng.choices(support, weights=weights, k=n))
        write_col_file(args.out, col)
    elif args.kind == "noisy-linear":
        base = rng.randrange(1000, 5000)
        slope = rng.randrange(1, 9)
        col = Column(U32, [base + slope * i + rng.randrange(0, 16) for i in range(n)])
        write_col_file(args.out, col)
    elif args.kind == "geometric-widths":
        elements = []
        for _ in range(n):
            width = 1
            while rng.random() > 0.25 and width < 32:
                width += 1
            elements.append(tuple(rng.randrange(0, 256) for _ in range(width)))
        fam = canonical_varwidth(elements, U8)
        inst = SchemeInstance("varwidth.std", {"type": "u8"}, fam)
        write_bundle(inst, args.out)
    print(f"generated {args.kind} data at {args.out}")
    return EXIT_OK


class _UsageError(Exception):
    """A command line the parser refused; its message is already on stderr."""


class _Parser(argparse.ArgumentParser):
    """An argument parser whose errors exit 1 through :func:`main`, not 2 from ``sys.exit``."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise _UsageError(message)


def build_parser():
    parser = _Parser(prog="colcirc", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("encode", help="encode .col files into a scheme bundle")
    p.add_argument("--scheme", required=True)
    p.add_argument("--params", help="inline JSON or @file")
    p.add_argument("inputs", nargs="+", metavar="in.col")
    p.add_argument("out", metavar="out_dir")
    p.set_defaults(fn=cmd_encode)

    p = sub.add_parser("decode", help="decode a bundle back into .col files")
    p.add_argument("bundle")
    p.add_argument("out", metavar="out_dir")
    p.set_defaults(fn=cmd_decode)

    p = sub.add_parser("verify", help="check a bundle's encoded form")
    p.add_argument("bundle")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("eval", help="evaluate a circuit on .col inputs")
    p.add_argument("circuit", metavar="circuit.json")
    p.add_argument("--input", action="append", metavar="label=path")
    p.add_argument("-o", "--out", default="eval-out")
    p.add_argument("--trace", action="store_true", help="dump every port's column")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("stats", help="sizes, ratio, and frequency summary")
    p.add_argument("path", help=".col file or bundle directory")
    p.add_argument("-o", "--out", default="-")
    p.set_defaults(fn=cmd_stats)

    p = sub.add_parser("transform", help="structural circuit transformations")
    p.add_argument("circuit", metavar="circuit.json")
    p.add_argument("--op", required=True, choices=list(_TRANSFORM_OPTIONS))
    p.add_argument("--other", help="second circuit file (union)")
    p.add_argument("--label", help="input label (assign)")
    p.add_argument("--source", help="source out-port v.port (assign)")
    p.add_argument("--vertices", help="comma-separated vertex ids (induce/replace/fuse)")
    p.add_argument("--replacement", help="replacement circuit file (replace)")
    p.add_argument("--rho", help="semicolon-separated rport=oport pairs (replace)")
    p.add_argument("--name", help="fused vertex id (fuse; default fused)")
    p.add_argument("-o", "--out", default="-")
    p.set_defaults(fn=cmd_transform)

    p = sub.add_parser("gen", help="reproducible synthetic test corpora")
    p.add_argument("--kind", required=True, choices=["runs", "zipf", "noisy-linear", "geometric-widths"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--n", type=int, default=1000)
    p.add_argument("out", help=".col path (or directory for geometric-widths)")
    p.set_defaults(fn=cmd_gen)

    return parser


# built by the first ``main`` call and shared by every later one, threads
# included (parsing leaves it unchanged): the lazy-cache rule on ``ColumnarCircuit``
_parser = None


def main(argv=None) -> int:
    global _parser
    parser = _parser
    if parser is None:
        parser = _parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError:
        return EXIT_IO
    try:
        return args.fn(args)
    except NotEncodable as exc:
        print(f"not encodable: {exc}", file=sys.stderr)
        return EXIT_NOT_ENCODABLE
    except VerificationFailed as exc:
        print(f"reject: {exc}", file=sys.stderr)
        return EXIT_VERIFY_REJECT
    except InvalidCircuitError as exc:
        print(f"invalid circuit: {exc}", file=sys.stderr)
        return EXIT_INVALID_CIRCUIT
    except EvaluationError as exc:
        print(f"operator failure: {exc}", file=sys.stderr)
        return EXIT_OPERATOR_FAILURE
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ColcircError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    raise SystemExit(main())
