"""Binary container for an encoded frame pair.

Layout (little-endian throughout):

    magic  "ANCF" (4 bytes)
    version u8 (currently 2)
    flags   u8 (bit 0: adaptive quantization was used; every other bit must
        be 0)
    base mesh identifier: SHA-256 over the base mesh's vertex and face counts
        as 2 int64, its vertices as float64 and its faces as int64, row-major
        (32 bytes)
    anchor vertex positions: 3 * n float64, base-vertex order (n comes from
        the base mesh supplied at decode time), each within the mesh
        coordinate rule (``mesh.checked_points``)
    subdivision level: u8
    quantization params alpha, delta, hbar: 3 finite float64
    quantized displacements: zigzag varints in vertex order, x,y,z interleaved;
        each holds an int64, so it is at most 10 bytes long

The decoder reproduces the reconstruction bit-exactly given a base mesh with
the same vertex and face arrays; the payload's bit size (file size * 8) is
the rate figure used in R-D curves.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .mesh import MeshValidationError, TriangleMesh, checked_points
from .quantize import QuantizationParams

MAGIC = b"ANCF"
VERSION = 2
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
    """The base mesh identifier of a payload: ``mesh.content_hash``, which
    a mesh computes once."""
    return mesh.content_hash


def _write_varints(values, out: bytearray) -> None:
    """Append int64 ``values`` as zigzag LEB128 varints."""
    v = np.asarray(values, dtype=np.int64).reshape(-1)
    z = ((v << 1) ^ (v >> 63)).view(np.uint64)
    groups, used = [], []  # one column per 7-bit group, low group first
    more = np.ones(len(z), dtype=bool)
    while more.any():
        used.append(more)
        low = (z & 0x7F).astype(np.uint8)
        z = z >> 7
        more = z != 0
        groups.append(low | (more.view(np.uint8) << 7))
    if groups:
        out += np.stack(groups, axis=1)[np.stack(used, axis=1)].tobytes()


def _read_varints(data: bytes, offset: int) -> np.ndarray:
    """Decode the zigzag LEB128 varints from ``offset`` to the end as int64."""
    stream = np.frombuffer(data, dtype=np.uint8, offset=offset)
    # where no byte continues, each is a whole varint, and none is cut short
    z = stream.astype(np.uint64) if stream.max(initial=0) < 0x80 else _join_groups(stream)
    return (z >> 1).view(np.int64) ^ -(z & 1).view(np.int64)


def _join_groups(stream) -> np.ndarray:
    """The uint64 of each varint of the nonempty ``stream``, whose 7-bit
    groups run low first, after checking that each ends within 10 bytes and
    fits in 64 bits."""
    bounds = np.concatenate([[0], np.flatnonzero(stream < 0x80) + 1])
    starts, length = bounds[:-1], np.diff(bounds)
    tail = len(stream) - bounds[-1]  # bytes after the last complete varint
    if (length > 10).any() or tail > 10:
        raise PayloadFormatError("varint longer than 10 bytes")
    if tail:
        raise PayloadFormatError("truncated varint stream")
    if (stream[bounds[1:][length == 10] - 1] > 1).any():
        raise PayloadFormatError("varint does not fit in int64")
    shift = 7 * (np.arange(len(stream)) - np.repeat(starts, length))
    parts = (stream & 0x7F).astype(np.uint64) << shift.astype(np.uint64)
    return np.add.reduceat(parts, starts)  # the groups' bits do not overlap


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
    if flags & ~FLAG_ADAPTIVE:
        raise PayloadFormatError(f"unknown payload flags 0x{flags:02x}")
    offset = 6
    base_hash = data[offset : offset + 32]
    offset += 32
    pos_bytes = 24 * n_anchor_vertices
    if len(data) < offset + pos_bytes + 1 + 24:
        raise PayloadFormatError("payload truncated before displacement stream")
    try:
        positions = checked_points(np.frombuffer(data, dtype="<f8", count=3 * n_anchor_vertices,
                                                 offset=offset).astype(np.float64), "anchor")
    except MeshValidationError as exc:
        raise PayloadFormatError(f"bad anchor positions: {exc}") from exc
    offset += pos_bytes
    level = data[offset]
    offset += 1
    alpha, delta, hbar = struct.unpack_from("<3d", data, offset)
    offset += 24
    values = _read_varints(data, offset)
    if len(values) % 3 != 0:
        raise PayloadFormatError("displacement stream is not a whole number of triples")
    quantized = values.reshape(-1, 3)
    try:
        params = QuantizationParams(alpha, delta, hbar)
    except ValueError as exc:
        raise PayloadFormatError(f"bad quantization params: {exc}")
    return Payload(base_hash, positions, level, params,
                   bool(flags & FLAG_ADAPTIVE), quantized)
