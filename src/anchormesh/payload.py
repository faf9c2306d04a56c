"""Binary container for an encoded frame pair.

Layout (little-endian throughout):

    magic  "ANCF" (4 bytes)
    version u8 (currently 1)
    flags   u8 (bit 0: adaptive quantization was used)
    base mesh identifier: SHA-256 of the base mesh's canonical OBJ
        serialization (32 bytes)
    anchor vertex positions: 3 * n float64, base-vertex order (n comes from
        the base mesh supplied at decode time)
    subdivision level: u8
    quantization params alpha, delta, hbar: 3 finite float64
    quantized displacements: zigzag varints in vertex order, x,y,z interleaved;
        each holds an int64, so it is at most 10 bytes long

The decoder reproduces the reconstruction bit-exactly given the same base
mesh file; the payload's bit size (file size * 8) is the rate figure used in
R-D curves.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass

import numpy as np

from .mesh import TriangleMesh, save_mesh
from .quantize import QuantizationParams

MAGIC = b"ANCF"
VERSION = 1
FLAG_ADAPTIVE = 0x01


class PayloadError(Exception):
    """Malformed, truncated or mismatched payload."""


class PayloadFormatError(PayloadError):
    pass


class BaseHashMismatchError(PayloadError):
    pass


@dataclass
class Payload:
    base_hash: bytes
    anchor_positions: np.ndarray  # (n, 3) float64
    level: int
    params: QuantizationParams
    adaptive: bool
    quantized: np.ndarray  # (m, 3) int64


def mesh_content_hash(mesh: TriangleMesh) -> bytes:
    """SHA-256 of the canonical OBJ serialization (whitespace-insensitive
    identity for the parsed mesh)."""
    return hashlib.sha256(save_mesh(mesh)).digest()


def _zigzag_encode(v: int) -> int:
    return (v << 1) if v >= 0 else ((-v << 1) - 1)


def _zigzag_decode(z: int) -> int:
    return (z >> 1) if (z & 1) == 0 else -((z + 1) >> 1)


def _write_varints(values, out: bytearray) -> None:
    for v in values:
        z = _zigzag_encode(int(v))
        while True:
            byte = z & 0x7F
            z >>= 7
            if z:
                out.append(byte | 0x80)
            else:
                out.append(byte)
                break


def _read_varints(data: bytes, offset: int):
    values = []
    n = len(data)
    while offset < n:
        z = 0
        shift = 0
        while True:
            if offset >= n:
                raise PayloadFormatError("truncated varint stream")
            if shift >= 70:
                raise PayloadFormatError("varint longer than 10 bytes")
            byte = data[offset]
            offset += 1
            z |= (byte & 0x7F) << shift
            if not byte & 0x80:
                break
            shift += 7
        if z >> 64:
            raise PayloadFormatError("varint does not fit in int64")
        values.append(_zigzag_decode(z))
    return values


def write_payload(payload: Payload) -> bytes:
    if not 0 <= payload.level <= 255:
        raise PayloadFormatError("subdivision level must fit in a byte")
    if len(payload.base_hash) != 32:
        raise PayloadFormatError("base hash must be 32 bytes")
    out = bytearray()
    out += MAGIC
    out.append(VERSION)
    out.append(FLAG_ADAPTIVE if payload.adaptive else 0)
    out += payload.base_hash
    out += np.ascontiguousarray(payload.anchor_positions, dtype="<f8").tobytes()
    out.append(payload.level)
    out += struct.pack("<3d", payload.params.alpha, payload.params.delta,
                       payload.params.hbar)
    _write_varints(payload.quantized.reshape(-1), out)
    return bytes(out)


def read_payload(data: bytes, n_anchor_vertices: int) -> Payload:
    """Parse a payload; ``n_anchor_vertices`` comes from the base mesh."""
    if len(data) < 4 + 1 + 1 + 32:
        raise PayloadFormatError("payload too short")
    if data[:4] != MAGIC:
        raise PayloadFormatError("bad magic bytes")
    if data[4] != VERSION:
        raise PayloadFormatError(f"unsupported payload version {data[4]}")
    flags = data[5]
    offset = 6
    base_hash = data[offset : offset + 32]
    offset += 32
    pos_bytes = 24 * n_anchor_vertices
    if len(data) < offset + pos_bytes + 1 + 24:
        raise PayloadFormatError("payload truncated before displacement stream")
    positions = np.frombuffer(data, dtype="<f8", count=3 * n_anchor_vertices,
                              offset=offset).reshape(-1, 3).astype(np.float64)
    offset += pos_bytes
    level = data[offset]
    offset += 1
    alpha, delta, hbar = struct.unpack_from("<3d", data, offset)
    offset += 24
    values = _read_varints(data, offset)
    if len(values) % 3 != 0:
        raise PayloadFormatError("displacement stream is not a whole number of triples")
    quantized = np.array(values, dtype=np.int64).reshape(-1, 3)
    try:
        params = QuantizationParams(alpha, delta, hbar)
    except ValueError as exc:
        raise PayloadFormatError(f"bad quantization params: {exc}")
    return Payload(base_hash, positions, level, params,
                   bool(flags & FLAG_ADAPTIVE), quantized)
