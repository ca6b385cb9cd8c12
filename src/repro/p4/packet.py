"""Bit-exact packet buffers.

P4 headers are sequences of fields with arbitrary bit widths (a VLAN
tag is 3+1+12+16 bits), packed MSB-first.  :class:`BitReader` and
:class:`BitWriter` implement that packing over byte strings, and
:class:`Packet` couples a buffer with a read cursor for parsing.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.errors import DataPlaneError


class BitReader:
    """Reads big-endian bit fields from bytes."""

    __slots__ = ("data", "bit_pos")

    def __init__(self, data: bytes, bit_pos: int = 0):
        self.data = data
        self.bit_pos = bit_pos

    @property
    def bits_remaining(self) -> int:
        return len(self.data) * 8 - self.bit_pos

    def read(self, width: int) -> int:
        """Read ``width`` bits as an unsigned integer."""
        if width <= 0:
            raise DataPlaneError(f"bad field width {width}")
        if self.bits_remaining < width:
            raise DataPlaneError(
                f"packet too short: need {width} bits, have {self.bits_remaining}"
            )
        value = 0
        pos = self.bit_pos
        data = self.data
        for _ in range(width):
            byte = data[pos >> 3]
            bit = (byte >> (7 - (pos & 7))) & 1
            value = (value << 1) | bit
            pos += 1
        self.bit_pos = pos
        return value

    def rest(self) -> bytes:
        if self.bit_pos % 8 != 0:
            raise DataPlaneError("payload starts at non-byte boundary")
        return self.data[self.bit_pos // 8 :]


class BitWriter:
    """Writes big-endian bit fields into a growing buffer."""

    __slots__ = ("_bits",)

    def __init__(self):
        self._bits: List[int] = []

    def write(self, value: int, width: int) -> None:
        if width <= 0:
            raise DataPlaneError(f"bad field width {width}")
        if value < 0 or value >= (1 << width):
            raise DataPlaneError(f"value {value} does not fit in {width} bits")
        for i in range(width - 1, -1, -1):
            self._bits.append((value >> i) & 1)

    def write_bytes(self, data: bytes) -> None:
        if len(self._bits) % 8 != 0:
            raise DataPlaneError("byte write at non-byte boundary")
        for byte in data:
            for i in range(7, -1, -1):
                self._bits.append((byte >> i) & 1)

    def to_bytes(self) -> bytes:
        if len(self._bits) % 8 != 0:
            raise DataPlaneError(
                f"packet is {len(self._bits)} bits, not a whole number of bytes"
            )
        out = bytearray(len(self._bits) // 8)
        for i, bit in enumerate(self._bits):
            if bit:
                out[i >> 3] |= 1 << (7 - (i & 7))
        return bytes(out)


class Packet:
    """A packet with metadata used by the behavioral model."""

    __slots__ = ("data", "ingress_port")

    def __init__(self, data: bytes, ingress_port: int = 0):
        self.data = data
        self.ingress_port = ingress_port

    def reader(self) -> BitReader:
        return BitReader(self.data)

    def __len__(self):
        return len(self.data)

    def __repr__(self):
        return f"Packet({len(self.data)}B @port {self.ingress_port})"


def pack_fields(fields: List[Tuple[int, int]]) -> bytes:
    """Pack ``(value, width)`` pairs into bytes (must total whole bytes)."""
    writer = BitWriter()
    for value, width in fields:
        writer.write(value, width)
    return writer.to_bytes()


def unpack_fields(data: bytes, widths: List[int]) -> List[int]:
    reader = BitReader(data)
    return [reader.read(w) for w in widths]
