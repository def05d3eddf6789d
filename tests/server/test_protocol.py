"""Wire protocol framing and hostile-input handling."""

import socket
import struct
import time

import pytest

from repro.database import Database
from repro.errors import ProtocolError
from repro.server import protocol
from repro.server.client import Client
from repro.server.server import DatabaseServer


class TestFraming:
    def test_send_recv_roundtrip(self):
        left, right = socket.socketpair()
        try:
            protocol.send_frame(left, protocol.OP_EXECUTE, b"payload")
            opcode, payload = protocol.recv_frame(right)
            assert opcode == protocol.OP_EXECUTE
            assert payload == b"payload"
        finally:
            left.close()
            right.close()

    def test_empty_payload(self):
        left, right = socket.socketpair()
        try:
            protocol.send_frame(left, protocol.OP_PING)
            assert protocol.recv_frame(right) == (protocol.OP_PING, b"")
        finally:
            left.close()
            right.close()

    def test_closed_connection_mid_frame(self):
        left, right = socket.socketpair()
        left.sendall(struct.pack("<IB", 100, protocol.OP_EXECUTE))
        left.close()
        with pytest.raises(ProtocolError, match="closed"):
            protocol.recv_frame(right)
        right.close()

    def test_bad_length_rejected(self):
        left, right = socket.socketpair()
        try:
            left.sendall(struct.pack("<IB", 0, protocol.OP_PING))
            with pytest.raises(ProtocolError, match="length"):
                protocol.recv_frame(right)
        finally:
            left.close()
            right.close()


class TestPayloadCodecs:
    def test_encode_decode_values(self):
        payload = protocol.encode_values("sql text", 42, (1, 2))
        assert protocol.decode_values(payload, 3) == ("sql text", 42, (1, 2))

    def test_trailing_bytes_rejected(self):
        payload = protocol.encode_values(1) + b"x"
        with pytest.raises(ProtocolError, match="trailing"):
            protocol.decode_values(payload, 1)

    def test_pack_and_parse_header_agree(self):
        frame = protocol.pack_frame(protocol.OP_EXECUTE, b"abc")
        header = frame[:protocol.HEADER_SIZE]
        assert protocol.parse_header(header) == (protocol.OP_EXECUTE, 3)
        assert frame[protocol.HEADER_SIZE:] == b"abc"

    def test_result_carries_statement_rowcount(self):
        payload = protocol.encode_result([], [], 3)
        assert protocol.decode_result(payload) == ([], 3, [])

    def test_result_roundtrip(self):
        columns = ["a", "b"]
        rows = [(1, "x"), (None, b"\x00")]
        payload = protocol.encode_result(columns, rows, len(rows))
        got_columns, rowcount, got_rows = protocol.decode_result(payload)
        assert got_columns == columns
        assert rowcount == 2
        assert got_rows == rows


class TestServerRobustness:
    @pytest.fixture
    def server(self):
        database = Database()
        database.execute("CREATE TABLE t (a INT)")
        with DatabaseServer(database) as srv:
            yield srv
        database.close()

    def raw_connect(self, server):
        return socket.create_connection((server.host, server.port), 10)

    def test_unknown_opcode_answered_with_error(self, server):
        with self.raw_connect(server) as conn:
            protocol.send_frame(conn, 200, b"")
            opcode, payload = protocol.recv_frame(conn)
            assert opcode == protocol.OP_ERROR

    def test_garbage_payload_answered_with_error(self, server):
        with self.raw_connect(server) as conn:
            protocol.send_frame(conn, protocol.OP_EXECUTE, b"\xff\xfe")
            opcode, __ = protocol.recv_frame(conn)
            assert opcode == protocol.OP_ERROR

    def test_abrupt_disconnect_does_not_kill_server(self, server):
        conn = self.raw_connect(server)
        conn.sendall(b"\x05\x00")  # half a frame header
        conn.close()
        # Server keeps accepting.
        with self.raw_connect(server) as again:
            protocol.send_frame(again, protocol.OP_PING)
            assert protocol.recv_frame(again)[0] == protocol.OP_PONG

    def test_malformed_register_payload(self, server):
        with self.raw_connect(server) as conn:
            protocol.send_frame(
                conn, protocol.OP_REGISTER_UDF,
                protocol.encode_values("only-one-value"),
            )
            opcode, __ = protocol.recv_frame(conn)
            assert opcode == protocol.OP_ERROR


#: Hostile byte streams: ``(bytes to send, whether to hang up right after)``.
#: Each must end in an ERROR frame or a clean close, never a hung worker.
MALFORMED = {
    "truncated header": (b"\x05\x00", True),
    "length 0": (struct.pack("<IB", 0, protocol.OP_PING), False),
    "length over MAX_FRAME": (
        struct.pack("<IB", protocol.MAX_FRAME + 1, protocol.OP_EXECUTE),
        False,
    ),
    "unknown opcode": (protocol.pack_frame(200), False),
    "trailing payload bytes": (
        protocol.pack_frame(
            protocol.OP_EXECUTE,
            protocol.encode_values("SELECT a FROM t") + b"x",
        ),
        False,
    ),
    "disconnect mid-frame": (
        struct.pack("<IB", 100, protocol.OP_EXECUTE) + b"half", True
    ),
}


class TestWireRobustness:
    @pytest.fixture
    def server(self):
        database = Database()
        database.execute("CREATE TABLE t (a INT)")
        database.execute("INSERT INTO t VALUES (7)")
        with DatabaseServer(database) as srv:
            yield srv
        database.close()

    @pytest.mark.parametrize("case", list(MALFORMED))
    def test_malformed_input_then_fresh_connection_served(self, server, case):
        data, hang_up = MALFORMED[case]
        conn = socket.create_connection((server.host, server.port), 10)
        try:
            conn.sendall(data)
            if not hang_up:
                try:
                    opcode, __ = protocol.recv_frame(conn)
                    assert opcode == protocol.OP_ERROR
                except ProtocolError:
                    pass  # the server hung up: a clean close
        finally:
            conn.close()
        with Client(server.host, server.port) as client:
            assert client.execute("SELECT a FROM t").rows == [(7,)]
        # Nothing is stuck in a statement and the hostile connection was
        # reaped.  (The counters move on the connection thread just after
        # the last frame is written, hence the bounded wait.)
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline:
            stats = server.stats_snapshot()
            if not stats["busy_statements"] and not stats["open_connections"]:
                break
            time.sleep(0.01)
        assert stats["busy_statements"] == 0
        assert stats["open_connections"] == 0
        assert stats["sessions_served"] == 2
