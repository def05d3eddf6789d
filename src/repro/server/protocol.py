"""Wire protocol: length-prefixed, opcode-tagged frames.

Frame layout::

    [u32 length][u8 opcode][payload ...]

Payload contents are ADT-stream values (:mod:`repro.server.adtstream`),
never pickle — the server must assume clients are hostile (they are
"unknown or untrusted", Section 1).
"""

from __future__ import annotations

import io
import socket
import struct
from typing import Tuple

from ..errors import ProtocolError
from . import adtstream

_FRAME = struct.Struct("<IB")
HEADER_SIZE = _FRAME.size
MAX_FRAME = 512 * 1024 * 1024

# Client -> server
OP_HELLO = 1
OP_EXECUTE = 2        # payload: (sql,)
OP_REGISTER_UDF = 3   # payload: (name, params row, ret, design, entry,
                      #           callbacks row, payload bytes)
OP_CLOSE = 4
OP_PING = 5

# Server -> client
OP_WELCOME = 16
OP_RESULT = 17        # payload: (columns row, rowcount, rows bytes)
OP_OK = 18
OP_ERROR = 19         # payload: (error class name, message)
OP_PONG = 20
OP_RESULT_PART = 21   # payload: one chunk of a large OP_RESULT payload

#: Maximum payload carried by one result frame.  Larger encoded results
#: are streamed as OP_RESULT_PART continuation frames capped at this
#: size, closing with a final OP_RESULT — mirroring the isolated
#: channel's 1 MiB retained-buffer bound, so a LOB-heavy result cannot
#: balloon one frame toward MAX_FRAME.
RESULT_CHUNK_CAP = 1024 * 1024


def pack_frame(opcode: int, payload: bytes = b"") -> bytes:
    """One wire frame, ready to write (blocking and asyncio senders)."""
    if len(payload) + 1 > MAX_FRAME:
        raise ProtocolError("frame too large")
    return _FRAME.pack(len(payload) + 1, opcode) + payload


def parse_header(header: bytes) -> Tuple[int, int]:
    """``(opcode, payload length)`` from :data:`HEADER_SIZE` header bytes.

    The one place a peer-supplied length is validated, so neither reader
    ever allocates for a frame outside ``[1, MAX_FRAME]``.
    """
    length, opcode = _FRAME.unpack(header)
    if length < 1 or length > MAX_FRAME:
        raise ProtocolError(f"bad frame length {length}")
    return opcode, length - 1


def send_frame(sock: socket.socket, opcode: int, payload: bytes = b"") -> None:
    sock.sendall(pack_frame(opcode, payload))


def recv_frame(sock: socket.socket) -> Tuple[int, bytes]:
    opcode, size = parse_header(_recv_exact(sock, HEADER_SIZE))
    return opcode, _recv_exact(sock, size)


def _recv_exact(sock: socket.socket, n: int) -> bytes:
    chunks = []
    remaining = n
    while remaining:
        chunk = sock.recv(remaining)
        if not chunk:
            raise ProtocolError("connection closed mid-frame")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


# -- payload builders ---------------------------------------------------------

def encode_values(*values: object) -> bytes:
    buffer = io.BytesIO()
    for value in values:
        adtstream.write_value(buffer, value)
    return buffer.getvalue()


def decode_values(payload: bytes, count: int) -> tuple:
    stream = io.BytesIO(payload)
    values = tuple(adtstream.read_value(stream) for __ in range(count))
    if stream.read(1):
        raise ProtocolError("trailing bytes in payload")
    return values


def encode_result(columns, rows, rowcount: int) -> bytes:
    """``rowcount`` is the statement's own count (rows affected, for
    DML), not necessarily the number of rows shipped."""
    return encode_values(tuple(columns), rowcount) + adtstream.dump_rows(rows)


def result_frames(columns, rows, rowcount: int):
    """``(opcode, payload)`` frames for one result, chunked if large.

    A result whose encoding fits :data:`RESULT_CHUNK_CAP` ships as the
    single classic ``OP_RESULT`` frame (bit-identical to the unchunked
    protocol); anything bigger ships as ``OP_RESULT_PART`` chunks
    followed by an ``OP_RESULT`` carrying the final chunk.  The client
    reassembles by concatenation, so
    ``decode_result(b"".join(payloads))`` sees exactly the one-frame
    encoding.
    """
    payload = encode_result(columns, rows, rowcount)
    if len(payload) <= RESULT_CHUNK_CAP:
        yield OP_RESULT, payload
        return
    offset = 0
    while len(payload) - offset > RESULT_CHUNK_CAP:
        yield OP_RESULT_PART, payload[offset:offset + RESULT_CHUNK_CAP]
        offset += RESULT_CHUNK_CAP
    yield OP_RESULT, payload[offset:]


def decode_result(payload: bytes):
    stream = io.BytesIO(payload)
    columns = adtstream.read_value(stream)
    rowcount = adtstream.read_value(stream)
    rows = adtstream.load_rows(stream.read())
    if not isinstance(columns, tuple) or not isinstance(rowcount, int):
        raise ProtocolError("malformed result payload")
    return list(columns), rowcount, rows
