"""The benchmark's own `.col` packer and parser, written from the format spec.

Input files and expected outputs are produced here rather than by
``colcirc.write_col_bytes``, so a fault in the program's `.col` I/O shows as
a mismatch instead of cancelling out.  Only the kinds the workloads use are
covered: unsigned and signed integers.

Layout: magic ``CCOL1``, kind tag (0 unsigned, 1 signed), width in bits,
u64 little-endian length, then each value little-endian in
``width // 8`` bytes.
"""

from __future__ import annotations

import struct

MAGIC = b"CCOL1"
_KIND_TAGS = {"u": 0, "i": 1}
_FORMATS = {(0, 8): "B", (0, 16): "H", (0, 32): "I", (0, 64): "Q", (1, 8): "b", (1, 16): "h", (1, 32): "i", (1, 64): "q"}


def pack(type_name: str, values) -> bytes:
    """``.col`` bytes of an integer column named like ``u32`` or ``i8``."""
    tag = _KIND_TAGS[type_name[0]]
    width = int(type_name[1:])
    fmt = _FORMATS[(tag, width)]
    n = len(values)
    return MAGIC + bytes([tag, width]) + struct.pack("<Q", n) + struct.pack(f"<{n}{fmt}", *values)


def unpack(data: bytes) -> tuple[str, list]:
    """``(type_name, values)`` of an integer ``.col`` file."""
    if data[:5] != MAGIC or len(data) < 15:
        raise ValueError("not an integer .col file")
    tag, width = data[5], data[6]
    (n,) = struct.unpack("<Q", data[7:15])
    fmt = _FORMATS[(tag, width)]
    values = list(struct.unpack(f"<{n}{fmt}", data[15:]))
    return ("u" if tag == 0 else "i") + str(width), values
