"""Tests for the TCP and in-process RPC transports."""

import pytest

from repro.faults import FAULT_NAMES
from repro.rpc import InprocChannel, RemoteError, RpcClient, RpcServer, dispatch, handler_methods
from repro.rpc.protocol import decode_frame, encode_frame, make_request


class ToyHandler:
    """A minimal daemon handler for transport tests."""

    def rpc_add(self, a, b):
        return a + b

    def rpc_echo(self, value):
        return value

    def rpc_fail(self):
        raise RuntimeError("deliberate")

    def not_an_rpc(self):  # pragma: no cover - should never be callable
        return "hidden"


class TestDispatch:
    def test_handler_methods_lists_rpc_prefixed(self):
        assert handler_methods(ToyHandler()) == ["add", "echo", "fail"]

    def test_dispatch_success(self):
        response = dispatch(ToyHandler(), make_request(1, "add", {"a": 2, "b": 3}))
        assert response == {"id": 1, "result": 5}

    def test_dispatch_unknown_method(self):
        response = dispatch(ToyHandler(), make_request(1, "missing"))
        assert "no such method" in response["error"]

    def test_dispatch_bad_params(self):
        response = dispatch(ToyHandler(), make_request(1, "add", {"a": 2}))
        assert "bad parameters" in response["error"]

    def test_dispatch_handler_exception_reported(self):
        response = dispatch(ToyHandler(), make_request(1, "fail"))
        assert "RuntimeError" in response["error"]

    def test_dispatch_missing_method_name(self):
        response = dispatch(ToyHandler(), {"id": 9})
        assert "missing method" in response["error"]

    def test_dispatch_non_dict_params(self):
        response = dispatch(ToyHandler(), {"id": 1, "method": "add", "params": [1]})
        assert "params must be an object" in response["error"]

    def test_private_methods_not_exposed(self):
        response = dispatch(ToyHandler(), make_request(1, "not_an_rpc"))
        assert "error" in response


class TestTcpTransport:
    def test_call_over_real_socket(self):
        with RpcServer(ToyHandler(), "toy") as server:
            host, port = server.address
            with RpcClient(host, port) as client:
                assert client.call("add", a=1, b=2) == 3
                assert client.service == "toy"
                assert "echo" in client.methods

    def test_remote_error_raised_client_side(self):
        with RpcServer(ToyHandler(), "toy") as server:
            host, port = server.address
            with RpcClient(host, port) as client:
                with pytest.raises(RemoteError, match="deliberate"):
                    client.call("fail")
                # The connection survives an error response.
                assert client.call("echo", value="still alive") == "still alive"

    def test_multiple_sequential_calls(self):
        with RpcServer(ToyHandler(), "toy") as server:
            host, port = server.address
            with RpcClient(host, port) as client:
                for i in range(10):
                    assert client.call("add", a=i, b=1) == i + 1

    def test_two_clients_share_a_server(self):
        with RpcServer(ToyHandler(), "toy") as server:
            host, port = server.address
            with RpcClient(host, port) as c1, RpcClient(host, port) as c2:
                assert c1.call("echo", value=1) == 1
                assert c2.call("echo", value=2) == 2

    def test_byte_counters_populated(self):
        with RpcServer(ToyHandler(), "toy") as server:
            host, port = server.address
            with RpcClient(host, port) as client:
                client.call("add", a=1, b=2)
                assert client.counter.static_wire > 0
                assert client.counter.dynamic_wire > 0
            assert server.counter.messages_received >= 2  # hello + request


class TestInprocTransport:
    def test_call_matches_tcp_semantics(self):
        channel = InprocChannel(ToyHandler(), "toy")
        assert channel.call("add", a=4, b=5) == 9
        assert channel.methods == ["add", "echo", "fail"]

    def test_remote_error(self):
        channel = InprocChannel(ToyHandler(), "toy")
        with pytest.raises(RemoteError, match="deliberate"):
            channel.call("fail")

    def test_counts_bytes_like_wire_transport(self):
        channel = InprocChannel(ToyHandler(), "toy")
        static_before = channel.counter.static_wire
        assert static_before > 0
        channel.call("echo", value="x" * 100)
        assert channel.counter.dynamic_wire > 100
        assert channel.counter.static_wire == static_before

    def test_json_round_trip_enforced(self):
        """Values that cannot survive JSON must fail, exactly as on TCP."""

        class BadHandler:
            def rpc_bad(self):
                return {1, 2, 3}  # sets are not JSON-serializable

        channel = InprocChannel(BadHandler(), "bad")
        with pytest.raises(Exception):
            channel.call("bad")

    def test_close_is_noop(self):
        InprocChannel(ToyHandler(), "toy").close()


def assert_json_native(value, wire, path="result"):
    """``value`` equals its JSON round trip ``wire``, type for type."""
    assert type(value) is type(wire), f"{path}: {type(value)} vs {type(wire)}"
    if isinstance(value, dict):
        assert list(value) == list(wire), path
        for key, item in value.items():
            assert_json_native(item, wire[key], f"{path}[{key!r}]")
    elif isinstance(value, list):
        assert len(value) == len(wire), path
        for index, (item, other) in enumerate(zip(value, wire)):
            assert_json_native(item, other, f"{path}[{index}]")
    else:
        assert value == wire, path


class TestInprocFidelity:
    """In-process results are what a TCP caller would decode.

    :class:`InprocChannel` passes handler results through without a JSON
    round trip, so every daemon served in-process must already return
    JSON-native values.  This drives a real deployment with each fault on
    each engine and checks every value the channels hand back, plus the
    strace daemon wired the way an attached strace pipeline wires it.
    """

    @pytest.mark.parametrize("engine", ["scalar", "vec"])
    @pytest.mark.parametrize("fault", FAULT_NAMES)
    def test_deployed_daemons_return_json_native_values(
        self, monkeypatch, engine, fault
    ):
        from repro.experiments import ScenarioConfig, deploy_asdf, shared_model
        from repro.faults import FaultSpec, make_fault
        from repro.hadoop import HadoopCluster
        from repro.rpc.daemons import StraceDaemon
        from repro.workloads import generate_workload

        config = ScenarioConfig(num_slaves=3, duration_s=90.0, seed=3, engine=engine)
        model = shared_model(config, training_duration_s=60.0)
        cluster = HadoopCluster(config.cluster_config())
        for spec in generate_workload(config.workload_config()).jobs:
            cluster.schedule_job(spec)
        make_fault(fault).arm(
            cluster, FaultSpec(node="slave02", inject_time=30.0)
        )
        handles = deploy_asdf(cluster, model, config)
        strace = {
            node: InprocChannel(
                StraceDaemon(node, cluster.procfs(node), seed=i), f"strace@{node}"
            )
            for i, node in enumerate(cluster.slave_names)
        }

        seen = []
        real_call = InprocChannel.call

        def spy(channel, method, trace=None, **params):
            result = real_call(channel, method, trace=trace, **params)
            seen.append((channel.service.split("@")[0], method, result))
            return result

        monkeypatch.setattr(InprocChannel, "call", spy)
        while cluster.time < config.duration_s:
            cluster.step(1.0)
            handles.core.run_until(cluster.time)
            for channel in strace.values():
                channel.call("trace", now=cluster.time)
        handles.core.close()

        calls = {(service, method) for service, method, _ in seen}
        assert calls == {
            ("sadc_rpcd", "sample"),
            ("hl_tt_rpcd", "collect"),
            ("hl_dn_rpcd", "collect"),
            ("strace", "trace"),
        }
        served = {
            (service, method)
            for service, method, result in seen if result is not None
        }
        assert served == calls, "every daemon must have served data"
        assert any(
            result["processes"] for service, _, result in seen
            if service == "sadc_rpcd" and result is not None
        )
        for service, method, result in seen:
            wire = decode_frame(encode_frame({"result": result}))[0]["result"]
            assert_json_native(result, wire, f"{service}.{method}")
