"""Error-path tests for the RPC layer: bad frames, dead sockets, limits.

The happy path is covered by ``test_protocol``/``test_transports``; this
file exercises what the cluster deployment actually hits in anger --
truncated frames, peers vanishing mid-frame, frame-size limits, and a
client outliving a server restart.
"""

import socket
import struct
import threading

import pytest

from repro.rpc import (
    ProtocolError,
    RpcClient,
    RpcServer,
    decode_frame,
    encode_frame,
    protocol,
)


class ToyHandler:
    def rpc_echo(self, value):
        return value


class TestFrameLimit:
    def test_default_limit(self):
        assert protocol.MAX_FRAME_BYTES == 16 * 1024 * 1024

    def test_oversized_encode_rejected(self, monkeypatch):
        monkeypatch.setattr(protocol, "MAX_FRAME_BYTES", 32)
        with pytest.raises(ProtocolError, match="frame too large"):
            encode_frame({"blob": "x" * 100})

    def test_oversized_decode_rejected(self, monkeypatch):
        frame = encode_frame({"blob": "x" * 100})
        monkeypatch.setattr(protocol, "MAX_FRAME_BYTES", 32)
        with pytest.raises(ProtocolError, match="exceeds maximum"):
            decode_frame(frame)


class TestPeerLabelledErrors:
    def test_decode_error_names_the_peer(self):
        with pytest.raises(ProtocolError, match=r"peer 10\.0\.0\.7:99"):
            decode_frame(b"\x00\x00", peer="10.0.0.7:99")

    def test_oversized_error_names_the_peer(self):
        with pytest.raises(ProtocolError, match="peer far-host:1"):
            decode_frame(struct.pack(">I", 1 << 30) + b"x", peer="far-host:1")

    def test_errors_without_peer_stay_unlabelled(self):
        with pytest.raises(ProtocolError) as excinfo:
            decode_frame(b"\x00\x00")
        assert "peer" not in str(excinfo.value)


def _raw_server(respond):
    """One-shot TCP server running ``respond(conn)`` in a thread."""
    listener = socket.socket()
    listener.bind(("127.0.0.1", 0))
    listener.listen(1)

    def accept():
        conn, _addr = listener.accept()
        try:
            respond(conn)
        finally:
            conn.close()
            listener.close()

    thread = threading.Thread(target=accept, daemon=True)
    thread.start()
    return listener.getsockname()


class TestDeadSockets:
    def test_close_before_welcome(self):
        def respond(conn):
            conn.recv(4096)  # swallow the hello, say nothing

        host, port = _raw_server(respond)
        with pytest.raises(ProtocolError, match="closed before frame"):
            RpcClient(host, port, timeout=5.0)

    def test_disconnect_mid_frame(self):
        def respond(conn):
            conn.recv(4096)
            welcome = encode_frame(
                {"welcome": "toy", "version": 1, "methods": ["echo"]}
            )
            conn.sendall(welcome)
            conn.recv(4096)  # the request
            # Declare a 1000-byte frame but send only a sliver of it.
            conn.sendall(struct.pack(">I", 1000) + b'{"id"')

        host, port = _raw_server(respond)
        client = RpcClient(host, port, timeout=5.0)
        with pytest.raises(ProtocolError, match="closed mid-frame"):
            client.call("echo", value=1)
        client.close()

    def test_mid_frame_error_names_the_peer(self):
        def respond(conn):
            conn.recv(4096)

        host, port = _raw_server(respond)
        with pytest.raises(ProtocolError, match=f"{host}:{port}"):
            RpcClient(host, port, timeout=5.0)


class TestReconnect:
    def test_reconnect_after_server_restart(self):
        # A one-shot server that answers exactly one call and then dies,
        # like a SIGKILLed collection daemon.
        def respond(conn):
            conn.recv(4096)  # hello
            conn.sendall(encode_frame(
                {"welcome": "toy", "version": 1, "methods": ["echo"]}
            ))
            request, _ = decode_frame(conn.recv(65536))
            conn.sendall(encode_frame(
                {"id": request["id"],
                 "result": request["params"]["value"]}
            ))

        host, port = _raw_server(respond)
        client = RpcClient(host, port, timeout=5.0)
        assert client.call("echo", value=1) == 1

        # The daemon is gone: the next call dies on the wire.
        with pytest.raises((ProtocolError, OSError)):
            client.call("echo", value=2)

        # A fresh server appears (the respawn); point the client at its
        # new address and reconnect.
        server = RpcServer(ToyHandler(), "toy")
        server.start()
        try:
            client.host, client.port = server.address
            client.reconnect(retries=10, delay_s=0.05)
            assert client.reconnects == 1
            assert client.call("echo", value=3) == 3
        finally:
            client.close()
            server.stop()

    def test_reconnect_exhaustion_raises_with_peer(self):
        server = RpcServer(ToyHandler(), "toy")
        server.start()
        host, port = server.address
        client = RpcClient(host, port, timeout=5.0)
        server.stop()
        with pytest.raises(ProtocolError, match=f"{host}:{port}"):
            client.reconnect(retries=2, delay_s=0.01)
        client.close()
