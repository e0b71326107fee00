"""Scheme bundle files: a JSON manifest next to the constituent `.col` files."""

from __future__ import annotations

import json
import os

from .circuit import json_document
from .codec import SchemeInstance, codec
from .column import read_col_file, write_col_file
from .errors import ColcircError

MANIFEST_NAME = "manifest.json"


def write_bundle(inst: SchemeInstance, directory) -> str:
    os.makedirs(directory, exist_ok=True)
    entry = codec(inst.scheme_id)
    ordered = entry.form_spec(inst.params)
    manifest = {"scheme": inst.scheme_id, "params": inst.params, "columns": {}}
    for label in ordered:
        fname = label.replace(":", "_") + ".col"
        write_col_file(os.path.join(directory, fname), inst.columns[label])
        manifest["columns"][label] = fname
    path = os.path.join(directory, MANIFEST_NAME)
    with open(path, "w") as f:
        json.dump(manifest, f, indent=2, sort_keys=True)
        f.write("\n")
    return path


def read_bundle(directory) -> SchemeInstance:
    path = os.path.join(directory, MANIFEST_NAME)
    if os.path.isfile(directory):
        path = directory
        directory = os.path.dirname(directory)
    with open(path, "rb") as f:
        manifest = json_document(f.read(), "manifest")
    if not isinstance(manifest, dict):
        raise ColcircError("manifest is not a JSON object")
    for key, kind, what in (("scheme", str, "a string"), ("params", dict, "an object"), ("columns", dict, "an object")):
        if key not in manifest:
            raise ColcircError(f"manifest is missing the {key!r} field")
        if not isinstance(manifest[key], kind):
            raise ColcircError(f"manifest field {key!r} is not {what}")
    root = os.path.realpath(directory)
    columns = {}
    for label, rel in manifest["columns"].items():
        if not isinstance(rel, str) or os.path.isabs(rel):
            raise ColcircError(f"manifest path {rel!r} for {label!r} is not relative to the bundle")
        path = os.path.realpath(os.path.join(root, rel))
        if os.path.commonpath([root, path]) != root:
            raise ColcircError(f"manifest path {rel!r} for {label!r} leaves the bundle directory")
        if not os.path.isfile(path):
            raise ColcircError(f"manifest path {rel!r} for {label!r} names no file")
        columns[label] = read_col_file(path)
    return SchemeInstance(manifest["scheme"], manifest["params"], columns)
