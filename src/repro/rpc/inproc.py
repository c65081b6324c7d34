"""In-process RPC channel: same wire format, no sockets.

Simulated experiments collect from hundreds of virtual daemons per run;
real TCP round-trips would add nothing but wall-clock time.  The
in-process channel *encodes* every request and response once, so it
counts exactly the bytes the TCP path would send (Table 4), enforces the
same frame limit, and rejects values JSON cannot carry.  It does not
decode the frames it just built: the handler receives the in-memory
request and the caller the in-memory result.

That is only equivalent to the wire when handlers return JSON-native
values -- dicts with str keys, lists, str, int, float, bool and None --
built fresh for each call, which every daemon in :mod:`repro.rpc.daemons`
does.  A tuple or an int-keyed dict would reach the caller unchanged
here but as a list or str-keyed dict over TCP.
"""

from __future__ import annotations

import itertools
import time
from typing import Any, List, Optional

from .protocol import (
    ByteCounter,
    RemoteError,
    TraceContext,
    decode_frame,
    encode_frame,
    frame_trace,
    make_hello,
    make_request,
    make_welcome,
)
from .server import dispatch, handler_methods


class InprocChannel:
    """Client-side facade calling a handler object in the same process.

    Each call encodes the request and the response once, for byte
    accounting and the wire's checks, and passes the values themselves
    through; handlers must return fresh JSON-native values (see the
    module docstring).

    ``telemetry``, if given and enabled, receives per-call wire-byte
    counts labelled by service -- the same numbers Table 4 aggregates,
    surfaced as ``asdf_rpc_wire_bytes_total`` metrics.
    """

    def __init__(self, handler: Any, service: str, client_name: str = "asdf",
                 telemetry: Any = None) -> None:
        self.handler = handler
        self.service = service
        self.counter = ByteCounter()
        self.telemetry = telemetry
        self._ids = itertools.count(1)
        # Perform the same hello/welcome exchange as the TCP transport so
        # static overhead is accounted identically.
        self.counter.count_handshake()
        hello = encode_frame(make_hello(client_name))
        self.counter.count_tx(len(hello), static=True)
        welcome = encode_frame(make_welcome(service, handler_methods(handler)))
        payload, consumed = decode_frame(welcome)
        self.counter.count_rx(consumed, static=True)
        self.methods: List[str] = list(payload.get("methods", []))
        if telemetry is not None and telemetry.enabled:
            telemetry.record_rpc(service, self.counter.tx_wire, self.counter.rx_wire)

    def call(self, method: str, trace: Optional[TraceContext] = None,
             **params: Any) -> Any:
        request_id = next(self._ids)
        tx_before, rx_before = self.counter.tx_wire, self.counter.rx_wire
        request = make_request(request_id, method, params, trace=trace)
        self.counter.count_tx(len(encode_frame(request)))
        incoming = frame_trace(request)
        serve_trace = (
            incoming.child(origin=f"{self.service}@inproc")
            if incoming is not None else None
        )
        # The serve span covers dispatch plus the response encode, as a
        # TCP server's handling of one frame does.
        started = time.perf_counter()
        response = dispatch(self.handler, request, trace=serve_trace)
        response_bytes = len(encode_frame(response))
        duration = time.perf_counter() - started
        self.counter.count_rx(response_bytes)
        telemetry = self.telemetry
        if telemetry is not None and telemetry.enabled:
            if telemetry.tracer.enabled and serve_trace is not None:
                telemetry.tracer.complete(
                    f"rpc.serve:{method}", "rpc", started, duration,
                    track=f"rpc:{self.service}", method=method,
                    **serve_trace.span_args(),
                )
            telemetry.record_rpc(
                self.service,
                self.counter.tx_wire - tx_before,
                self.counter.rx_wire - rx_before,
            )
            telemetry.record_rpc_endpoint(
                f"inproc:{self.service}", self.counter
            )
        if "error" in response:
            raise RemoteError(response["error"])
        return response.get("result")

    def close(self) -> None:
        """No-op, for interface parity with :class:`RpcClient`."""
