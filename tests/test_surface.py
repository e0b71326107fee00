"""One way in: every public name of ``colcirc`` has a caller outside the tests.

An operator runs as ``instantiate(op, params).apply(columns)`` and a scheme
decodes as ``decode(SchemeInstance(...))``.  A public function that only the
tests call is a second surface beside those, with checks of its own that no
circuit makes.  So every public module-level function or class of
``src/colcirc``, and every public method, must be referenced by name in
``src/colcirc`` or ``bench/`` outside its own definition, be exported by the
package or by a module's ``__all__``, or be kept in ``KEEP`` with its reason.

A module-level name counts as referenced where its own module uses it, where a
module imports it and uses it, or as an attribute of a name bound to its
module (``cc_transform.drop_output``).  A method counts as referenced wherever
an attribute of its name is read, whatever the object.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "colcirc"
SOURCES = sorted([*PACKAGE.glob("*.py"), *(ROOT / "bench").glob("*.py")])

# public names that nothing outside the tests calls, kept on purpose
KEEP = {
    "comp_schemes.rpe_encoder_circuit": "the paper's run-position encoder circuit, which the README names",
    "comp_schemes.expected_width": "the paper's width analysis, which tests/test_acceptance.py checks",
    "comp_schemes.expected_max_width": "the paper's width analysis, which tests/test_acceptance.py checks",
    "codec.CodecEntry.verifier_circuit": "documented API: a scheme's verifier as a complete decision circuit",
    "circuit.dump_circuit": "documented API: a circuit as JSON text, the inverse of load_circuit",
    "circuit.ColumnarCircuit.out_ports": "circuit structure: the output ports of the circuit's vertices",
    "circuit.ColumnarCircuit.disengaged_in_ports": "circuit structure: the input ports that no edge feeds",
    "gallery.double_plus_three": "one of the gallery's reference circuits",
    "gallery.q6_reference": "the gallery's host reference for the Q6 circuit",
    "types.ElementType.check_values": "the whole-column domain check, which Column(...) inlines",
}


def _tree(path):
    return ast.parse(path.read_text(), str(path))


def _package_module(dotted):
    """``ops`` for ``colcirc.ops``, ``__init__`` for ``colcirc``; None outside the package."""
    if dotted != "colcirc" and not dotted.startswith("colcirc."):
        return None
    return dotted[len("colcirc.") :] or "__init__"


def _imported_module(node):
    """The package module an ``ImportFrom`` reads from (``.ops`` or ``colcirc.ops``), or None."""
    if node.level:  # only the package's own modules import relatively
        return node.module or "__init__"
    return _package_module(node.module or "")


def _bindings(tree):
    """``(modules, names)`` that a file's imports bind: local name -> package module, and local
    name -> ``(module, name)`` for each name imported from a package module."""
    modules, names = {}, {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                module = _package_module(alias.name)
                if module is not None:  # ``import colcirc.ops`` binds the package, ``... as ops_mod`` the module
                    modules[alias.asname or "colcirc"] = module if alias.asname else "__init__"
        elif isinstance(node, ast.ImportFrom):
            module = _imported_module(node)
            if module is None:
                continue
            for alias in node.names:
                local = alias.asname or alias.name
                if module == "__init__" and (PACKAGE / f"{alias.name}.py").exists():
                    modules[local] = alias.name
                else:
                    names[local] = (module, alias.name)
    return modules, names


def _public_definitions(trees):
    """``(qualified name, node, module, is a method)`` for each public definition of the package."""
    for path, tree in trees.items():
        if path.parent != PACKAGE:
            continue
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                yield f"{path.stem}.{node.name}", node, path.stem, False
                if isinstance(node, ast.ClassDef):
                    for member in node.body:
                        if isinstance(member, ast.FunctionDef) and not member.name.startswith("_"):
                            yield f"{path.stem}.{node.name}.{member.name}", member, path.stem, True


def _exported(trees):
    """``module.name`` for each name the package imports into itself or a module lists in ``__all__``."""
    out = set()
    for path, tree in trees.items():
        if path.parent != PACKAGE:
            continue
        for node in tree.body:
            if path.stem == "__init__" and isinstance(node, ast.ImportFrom):
                out |= {f"{_imported_module(node)}.{alias.name}" for alias in node.names}
            elif isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
                out |= {f"{path.stem}.{element.value}" for element in node.value.elts}
    return out


def unreferenced():
    """The qualified names of public definitions that nothing in the package or the benchmark uses."""
    trees = {path: _tree(path) for path in SOURCES}  # kept alive, so node ids stay unique
    # name -> [(node, the module it is read off, or None)], name -> [(node, (module, name) it means)]
    attributes, names = {}, {}
    for path, tree in trees.items():
        modules, imported = _bindings(tree)
        own = path.stem if path.parent == PACKAGE else None
        for n in ast.walk(tree):
            if isinstance(n, ast.Attribute):
                base = modules.get(n.value.id) if isinstance(n.value, ast.Name) else None
                attributes.setdefault(n.attr, []).append((n, base))
            elif isinstance(n, ast.Name):
                names.setdefault(n.id, []).append((n, imported.get(n.id, (own, n.id))))
    exported = _exported(trees)
    found = set()
    for qualified, node, module, method in _public_definitions(trees):
        inside = set(map(id, ast.walk(node)))
        outside_attributes = [base for n, base in attributes.get(node.name, []) if id(n) not in inside]
        if method:
            used = bool(outside_attributes)
        else:
            outside_names = [named for n, named in names.get(node.name, []) if id(n) not in inside]
            used = module in outside_attributes or (module, node.name) in outside_names
        if not used and qualified not in exported:
            found.add(qualified)
    return found


def test_every_public_name_has_a_caller_outside_the_tests():
    assert unreferenced() - KEEP.keys() == set()


def test_every_kept_name_exists_and_still_needs_keeping():
    assert KEEP.keys() <= unreferenced()
