"""A composed verifier rejects an instance whose part fails to decode, and never raises.

That it accepts exactly what its oracle accepts is ``test_paths.py``'s
``test_composed_recipes``; here is a part past any allocation, through the
API and the CLI.
"""

import itertools

import pytest

from colcirc import Column, CompositionRecipe, codec, compose, decode, encode, scalar_column, verify, write_bundle
from colcirc.cli import main
from colcirc.errors import EvaluationError, VerificationFailed
from colcirc.types import INT, U8

_ids = itertools.count()


def _patch_over_constant(base_length):
    entry = compose(CompositionRecipe("patch", f"testonly.oracle.huge.{next(_ids)}", (("constant", {"type": "u8"}),)))
    inst = encode(entry.scheme_id, {}, Column(U8, [4, 4, 9]))
    return inst.with_columns(**{"base:length": scalar_column(INT, base_length)})


@pytest.fixture
def huge_base():
    """``patch`` over ``constant u8`` whose base length is past any allocation."""
    return _patch_over_constant(2**64 - 1)


def test_a_part_that_fails_to_decode_is_a_rejection(huge_base):
    assert verify(huge_base) is False
    with pytest.raises(VerificationFailed):
        decode(huge_base)
    with pytest.raises(EvaluationError, match="too-long"):
        decode(huge_base, check=False)


def test_a_part_the_interpreter_cannot_allocate_is_a_rejection():
    # 2**63 - 1 fits an index, but its allocation fails the interpreter's size
    # check (MemoryError) before any memory is taken
    inst = _patch_over_constant(2**63 - 1)
    assert verify(inst) is False
    with pytest.raises(VerificationFailed):
        decode(inst)
    with pytest.raises(EvaluationError, match="too-long") as failure:
        decode(inst, check=False)
    decoder = codec(inst.scheme_id).decoder(inst.params)
    assert decoder.vertices[failure.value.vertex_id].op_name == "replicate"


def test_cli_rejects_a_part_that_fails_to_decode(huge_base, tmp_path):
    bundle = str(tmp_path / "b")
    write_bundle(huge_base, bundle)
    assert main(["verify", bundle]) == 3
    assert main(["decode", bundle, str(tmp_path / "d")]) == 3
    assert main(["stats", bundle, "-o", str(tmp_path / "s.json")]) == 3
