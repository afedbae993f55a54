"""Binary wire format for status updates and RTT probes.

All integers big-endian. Layout: magic "AOI1" (4B) | ptype (1B) | seq (u64) |
gen_ns (u64); PROBE_ECHO appends reflector_recv_ns (u64); UPDATE pads with
zeros to the configured payload size. Over TCP every record is preceded by a
u16 big-endian length.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Optional

MAGIC = b"AOI1"

PT_UPDATE = 0
PT_PROBE = 1
PT_PROBE_ECHO = 2

_HEADER = struct.Struct(">4sBQQ")
_ECHO_TAIL = struct.Struct(">Q")
_LEN = struct.Struct(">H")

HEADER_SIZE = _HEADER.size  # 21
ECHO_SIZE = HEADER_SIZE + _ECHO_TAIL.size  # 29
MIN_PAYLOAD = HEADER_SIZE
MAX_PAYLOAD = 0xFFFF  # must fit the u16 TCP length prefix


class WireError(ValueError):
    """Malformed packet: bad magic, truncated body, or bad length."""


@dataclass(frozen=True)
class Packet:
    ptype: int
    seq: int
    gen_ns: int
    reflector_recv_ns: Optional[int] = None


def encode_update(seq: int, gen_ns: int, payload_size: int = MIN_PAYLOAD) -> bytes:
    if not MIN_PAYLOAD <= payload_size <= MAX_PAYLOAD:
        raise WireError(f"payload_size must be in [{MIN_PAYLOAD}, {MAX_PAYLOAD}]")
    try:
        head = _HEADER.pack(MAGIC, PT_UPDATE, seq, gen_ns)
    except struct.error:
        raise WireError("seq and gen_ns must fit u64") from None
    return head + b"\x00" * (payload_size - HEADER_SIZE)


def encode_probe(seq: int, gen_ns: int) -> bytes:
    try:
        return _HEADER.pack(MAGIC, PT_PROBE, seq, gen_ns)
    except struct.error:
        raise WireError("seq and gen_ns must fit u64") from None


def encode_probe_echo(seq: int, gen_ns: int, reflector_recv_ns: int) -> bytes:
    try:
        return _HEADER.pack(MAGIC, PT_PROBE_ECHO, seq, gen_ns) + _ECHO_TAIL.pack(reflector_recv_ns)
    except struct.error:
        raise WireError("seq, gen_ns and reflector_recv_ns must fit u64") from None


def decode(data: bytes) -> Packet:
    if len(data) < HEADER_SIZE:
        raise WireError("truncated packet")
    magic, ptype, seq, gen_ns = _HEADER.unpack_from(data)
    if magic != MAGIC:
        raise WireError("bad magic")
    if ptype == PT_PROBE_ECHO:
        if len(data) < ECHO_SIZE:
            raise WireError("truncated probe echo")
        (refl,) = _ECHO_TAIL.unpack_from(data, HEADER_SIZE)
        return Packet(ptype=ptype, seq=seq, gen_ns=gen_ns, reflector_recv_ns=refl)
    if ptype in (PT_UPDATE, PT_PROBE):
        return Packet(ptype=ptype, seq=seq, gen_ns=gen_ns)
    raise WireError(f"unknown ptype {ptype}")


def frame(record: bytes) -> bytes:
    """Length-prefix one record for the TCP stream."""
    if len(record) > MAX_PAYLOAD:
        raise WireError("record too large to frame")
    return _LEN.pack(len(record)) + record


class FrameReader:
    """Incremental deframer for the length-prefixed TCP stream."""

    def __init__(self):
        self._buf = bytearray()

    def feed(self, data: bytes) -> list[bytes]:
        """Append stream bytes; return every complete record now available."""
        self._buf.extend(data)
        out = []
        while True:
            if len(self._buf) < _LEN.size:
                return out
            (n,) = _LEN.unpack_from(self._buf)
            if len(self._buf) < _LEN.size + n:
                return out
            out.append(bytes(self._buf[_LEN.size : _LEN.size + n]))
            del self._buf[: _LEN.size + n]

    @property
    def pending(self) -> int:
        return len(self._buf)
