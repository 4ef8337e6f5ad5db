"""The daemon's command line, driven in-process through ``main``."""

import json
import socket
import threading
import time

import pytest

from repro.graphs.generators import random_regularish_ugraph
from repro.obs.session import EXIT_SLO_BREACH, EXIT_TELEMETRY_FAILURE
from repro.serving import server
from repro.serving.client import ServingClient
from tests.obs.released import assert_obs_released


def _free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def _serve(argv):
    """Run ``main(argv)`` while a client registers, reads and shuts down."""
    port = _free_port()
    graph = random_regularish_ugraph(32, 4, rng=1)
    side = list(graph.nodes())[:5]
    errors = []

    def run_client():
        try:
            for _ in range(200):
                try:
                    client = ServingClient("127.0.0.1", port).connect()
                    break
                except OSError:
                    time.sleep(0.05)
            else:
                raise AssertionError("daemon never bound its port")
            with client:
                oid = client.register_graph(graph)
                for _ in range(20):
                    client.cut_weight(oid, side)
                client.shutdown()
        except Exception as exc:  # surfaced by the test body
            errors.append(exc)

    client_thread = threading.Thread(target=run_client)
    client_thread.start()
    rc = server.main(["--port", str(port), *argv])
    client_thread.join(timeout=30)
    assert not client_thread.is_alive()
    assert not errors, errors
    return rc


class TestSetupFailures:
    def test_malformed_slo_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            server.main(["--slo", "nonsense:::"])
        assert excinfo.value.code == 2
        assert "unknown SLO rule kind" in capsys.readouterr().err
        assert_obs_released()

    def test_bound_metrics_port_exits_3(self, capsys):
        with socket.socket() as busy:
            busy.bind(("127.0.0.1", 0))
            busy.listen(1)
            port = busy.getsockname()[1]
            rc = server.main(["--slo", "", "--metrics-port", str(port)])
        assert rc == EXIT_TELEMETRY_FAILURE
        err = capsys.readouterr().err
        assert (
            f"error: cannot bind the live metrics server on port {port}" in err
        )
        assert_obs_released()

    def test_unopenable_capture_exits_3(self, tmp_path, capsys):
        path = tmp_path / "no_such_dir" / "wire.jsonl"
        assert server.main(["--capture", str(path)]) == EXIT_TELEMETRY_FAILURE
        assert "error: cannot open wire capture" in capsys.readouterr().err
        assert_obs_released()


class TestServedRuns:
    def test_clean_shutdown_exits_0_with_capture(self, tmp_path, capsys):
        path = tmp_path / "wire.jsonl"
        assert _serve(["--slo", "", "--capture", str(path)]) == 0
        err = capsys.readouterr().err
        assert "slo rule: span:serve.request:p99<=0.25" in err
        assert "slo ok:" in err
        assert "wire capture:" in err
        header = json.loads(path.read_text().splitlines()[0])
        assert header["event"] == "wire_capture"
        assert header["meta"]["kind"] == "serving"
        assert_obs_released()

    def test_tight_slo_exits_6(self, capsys):
        rc = _serve(["--slo", "span:serve.request:p99<=0.000000001"])
        assert rc == EXIT_SLO_BREACH
        assert "slo BREACH:" in capsys.readouterr().err
        assert_obs_released()
