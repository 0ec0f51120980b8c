"""Tests for the sweep daemon: wire schema, HTTP round trip, error mapping.

The daemon's contract (DESIGN.md section 15): reports fetched over HTTP
are byte-identical to an in-process ``Session.sweep`` of the same specs, a
warm re-POST executes nothing, and malformed requests come back as clean
JSON errors (400/404) instead of tracebacks. The servers under test bind
an ephemeral loopback port via :func:`repro.service.server.running_server`.
"""

import http.client
import json
import socket
import statistics
import time
import urllib.error
import urllib.request

import pytest

from repro.api.config import RuntimeConfig
from repro.api.session import Session
from repro.api.specs import JobSpec, SweepSpec, Workload, sim_from_payload, sim_to_payload
from repro.service import server as server_module
from repro.service.server import MAX_BODY_BYTES, running_server
from repro.sim.config import SimConfig

SIM = SimConfig.scaled(16)


def _sweep_spec(dim=48):
    return SweepSpec.product(
        kernels="spmv", schemes=("taco_csr", "smash_hw"), matrices=("M5", "M8"), dim=dim
    )


def _request(method, url, payload=None):
    """(status, decoded JSON body) for one request; HTTP errors decode too."""
    data = json.dumps(payload).encode("utf-8") if payload is not None else None
    request = urllib.request.Request(
        url, data=data, method=method,
        headers={"Content-Type": "application/json"} if data else {},
    )
    try:
        with urllib.request.urlopen(request) as response:
            return response.status, json.load(response)
    except urllib.error.HTTPError as error:
        with error:
            return error.code, json.load(error)


@pytest.fixture()
def service(tmp_path):
    """A daemon over a caching serial Session, on an ephemeral port."""
    session = Session(sim=SIM, runtime=RuntimeConfig(processes=1, cache_dir=tmp_path))
    with running_server(session) as server:
        yield f"http://127.0.0.1:{server.bound_port}", session
    session.close()


class TestSpecWire:
    def test_job_spec_round_trip_preserves_job_key(self):
        from repro.eval.runner import job_key

        spec = JobSpec(
            "spmv", "smash_hw", Workload.suite("M8", 48),
            sim=SIM, params={"seed": 7},
        )
        decoded = JobSpec.from_payload(json.loads(json.dumps(spec.to_payload())))
        assert decoded == spec
        assert job_key(decoded.to_job()) == job_key(spec.to_job())

    def test_sweep_spec_round_trip(self):
        spec = _sweep_spec()
        decoded = SweepSpec.from_payload(json.loads(json.dumps(spec.to_payload())))
        assert decoded == spec

    def test_sim_payload_round_trip_is_exact(self):
        payload = json.loads(json.dumps(sim_to_payload(SIM)))
        assert sim_from_payload(payload) == SIM

    def test_malformed_spec_payloads_raise_value_error(self):
        with pytest.raises(ValueError, match="missing required field"):
            JobSpec.from_payload({"kernel": "spmv"})
        with pytest.raises(ValueError, match="unknown job spec fields"):
            JobSpec.from_payload(
                {"kernel": "spmv", "scheme": "taco_csr",
                 "workload": ["suite", "M8", None, None], "extra": 1}
            )
        with pytest.raises(ValueError, match=r"specs\[1\]"):
            SweepSpec.from_payload(
                {"specs": [
                    {"kernel": "spmv", "scheme": "taco_csr",
                     "workload": ["suite", "M8", None, None]},
                    {"kernel": "spmv"},
                ]}
            )


class TestServiceRoundTrip:
    def test_reports_byte_identical_to_in_process_sweep(self, service):
        base, session = service
        spec = _sweep_spec()
        with Session(sim=SIM, runtime=RuntimeConfig(processes=1, cache_dir=None)) as ref:
            expected = [json.dumps(r.to_dict(), sort_keys=True) for r in ref.sweep(spec).reports]

        status, created = _request("POST", f"{base}/sweeps", spec.to_payload())
        assert status == 201
        assert created["jobs"] == len(spec.specs)
        assert created["stats"]["executed"] == len(spec.specs)

        status, reports = _request("GET", f"{base}/sweeps/{created['id']}/reports")
        assert status == 200
        got = [json.dumps(report, sort_keys=True) for report in reports["reports"]]
        assert got == expected

    def test_warm_repost_executes_nothing(self, service):
        base, _ = service
        payload = _sweep_spec().to_payload()
        _request("POST", f"{base}/sweeps", payload)
        status, warm = _request("POST", f"{base}/sweeps", payload)
        assert status == 201
        assert warm["stats"]["executed"] == 0
        assert warm["stats"]["cache_hits"] == warm["jobs"]
        status, cold_reports = _request("GET", f"{base}/sweeps/1/reports")
        assert status == 200
        status, warm_reports = _request("GET", f"{base}/sweeps/{warm['id']}/reports")
        assert status == 200
        assert warm_reports["reports"] == cold_reports["reports"]

    def test_status_endpoint_reports_sweep_and_session_stats(self, service):
        base, session = service
        spec = _sweep_spec()
        _, created = _request("POST", f"{base}/sweeps", spec.to_payload())
        status, body = _request("GET", f"{base}/sweeps/{created['id']}")
        assert status == 200
        assert body["status"] == "completed"
        assert body["done"] == body["jobs"] == len(spec.specs)
        snapshot = session.stats_snapshot()
        assert body["session_stats"] == {
            "submitted": snapshot.submitted,
            "unique": snapshot.unique,
            "executed": snapshot.executed,
            "cache_hits": snapshot.cache_hits,
        }

    def test_top_level_sim_default_applies_to_specs(self, service, tmp_path):
        base, _ = service
        sim = SimConfig.scaled(32)
        spec = SweepSpec(
            (JobSpec("spmv", "taco_csr", Workload.suite("M8", 48)),)
        )
        with Session(sim=sim, runtime=RuntimeConfig(processes=1, cache_dir=None)) as ref:
            expected = json.dumps(ref.sweep(spec).reports[0].to_dict(), sort_keys=True)
        payload = spec.to_payload()
        payload["sim"] = sim_to_payload(sim)
        _, created = _request("POST", f"{base}/sweeps", payload)
        _, reports = _request("GET", f"{base}/sweeps/{created['id']}/reports")
        assert json.dumps(reports["reports"][0], sort_keys=True) == expected

    def test_healthz(self, service):
        base, session = service
        status, body = _request("GET", f"{base}/healthz")
        assert status == 200
        assert body["status"] == "ok"
        # The cache identity card (satellite of the result store): root,
        # writing schema version, and current report count.
        assert body["cache"] == session.cache.stats()
        assert body["cache"]["schema"] == 1

    def test_healthz_counts_stored_reports(self, service):
        base, _ = service
        _request("POST", f"{base}/sweeps", _sweep_spec().to_payload())
        _, body = _request("GET", f"{base}/healthz")
        assert body["cache"]["reports"] == len(_sweep_spec().specs)


class TestQueryEndpoint:
    def test_query_rows_bit_consistent_with_reports(self, service):
        base, _ = service
        spec = _sweep_spec()
        _, created = _request("POST", f"{base}/sweeps", spec.to_payload())
        _, reports = _request("GET", f"{base}/sweeps/{created['id']}/reports")
        status, body = _request("GET", f"{base}/query?kernel=spmv")
        assert status == 200
        assert body["count"] == len(spec.specs)
        # Every row's report payload is byte-for-byte one of the sweep's
        # reports (the store serves CostReport.to_dict verbatim).
        served = {json.dumps(r, sort_keys=True) for r in reports["reports"]}
        for row in body["rows"]:
            assert json.dumps(row["report"], sort_keys=True) in served

    def test_query_filters_sort_and_aggregate(self, service):
        base, _ = service
        _request("POST", f"{base}/sweeps", _sweep_spec().to_payload())
        _, body = _request("GET", f"{base}/query?scheme=smash_hw&sort=cycles&descending=1")
        assert [row["scheme"] for row in body["rows"]] == ["smash_hw", "smash_hw"]
        cycles = [row["cycles"] for row in body["rows"]]
        assert cycles == sorted(cycles, reverse=True)
        _, body = _request("GET", f"{base}/query?mean_by=scheme")
        assert {row["scheme"] for row in body["rows"]} == {"taco_csr", "smash_hw"}
        assert all(row["count"] == 2 for row in body["rows"])

    def test_query_rejects_unknown_and_duplicate_parameters(self, service):
        base, _ = service
        status, body = _request("GET", f"{base}/query?bogus=1")
        assert status == 400
        assert "unknown query parameters" in body["error"]
        status, body = _request("GET", f"{base}/query?dim=48&dim=96")
        assert status == 400
        assert "duplicate query parameter" in body["error"]
        status, body = _request("GET", f"{base}/query?dim=abc")
        assert status == 400
        assert "must be an integer" in body["error"]

    def test_query_without_cache_is_clean_400(self):
        session = Session(sim=SIM, runtime=RuntimeConfig(processes=1, cache_dir=None))
        with running_server(session) as server:
            base = f"http://127.0.0.1:{server.bound_port}"
            status, body = _request("GET", f"{base}/query")
            assert status == 400
            assert "without a report cache" in body["error"]
            _, health = _request("GET", f"{base}/healthz")
            assert health["cache"] is None
        session.close()


class TestServiceErrors:
    def test_unknown_sweep_id_is_404(self, service):
        base, _ = service
        status, body = _request("GET", f"{base}/sweeps/999")
        assert status == 404
        assert "unknown sweep id" in body["error"]
        status, body = _request("GET", f"{base}/sweeps/999/reports")
        assert status == 404

    def test_unknown_path_is_404(self, service):
        base, _ = service
        status, body = _request("GET", f"{base}/nope")
        assert status == 404
        status, body = _request("POST", f"{base}/nope", {"specs": []})
        assert status == 404

    def test_invalid_json_body_is_400(self, service):
        base, _ = service
        request = urllib.request.Request(
            f"{base}/sweeps", data=b"not json", method="POST"
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request)
        with excinfo.value as error:
            assert error.code == 400
            assert "not valid JSON" in json.load(error)["error"]

    def test_unknown_scheme_is_400_with_suggestion(self, service):
        base, _ = service
        payload = {"specs": [
            {"kernel": "spmv", "scheme": "smash_hww",
             "workload": ["suite", "M8", None, None]},
        ]}
        status, body = _request("POST", f"{base}/sweeps", payload)
        assert status == 400
        assert "smash_hww" in body["error"]
        assert "did you mean" in body["error"]

    def test_empty_and_malformed_sweeps_are_400(self, service):
        base, _ = service
        status, body = _request("POST", f"{base}/sweeps", {"specs": []})
        assert status == 400
        assert "no specs" in body["error"]
        status, body = _request("POST", f"{base}/sweeps", {"wrong": 1})
        assert status == 400
        assert "unknown sweep fields" in body["error"]
        status, body = _request("POST", f"{base}/sweeps", {"specs": "nope"})
        assert status == 400

    def test_closed_session_is_503(self, tmp_path):
        session = Session(sim=SIM, runtime=RuntimeConfig(processes=1, cache_dir=tmp_path))
        with running_server(session) as server:
            base = f"http://127.0.0.1:{server.bound_port}"
            session.close()
            status, body = _request(
                "POST", f"{base}/sweeps", _sweep_spec().to_payload()
            )
            assert status == 503
            assert "closed Session" in body["error"]


def _port(base):
    return int(base.rsplit(":", 1)[1])


def _raw_exchange(base, head):
    """Send raw request bytes; return everything the daemon writes until EOF.

    Reaching EOF without a reset means the daemon closed the connection
    cleanly after its response.
    """
    with socket.create_connection(("127.0.0.1", _port(base)), timeout=30) as sock:
        sock.sendall(head)
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                return b"".join(chunks)
            chunks.append(chunk)


def _post_head(length, body=b""):
    return (
        b"POST /sweeps HTTP/1.1\r\nHost: localhost\r\n"
        b"Content-Type: application/json\r\n"
        + f"Content-Length: {length}\r\n\r\n".encode("ascii") + body
    )


class TestBodyLimits:
    def test_oversized_body_is_413_and_closes_before_reading(self, service):
        base, session = service
        response = _raw_exchange(base, _post_head(MAX_BODY_BYTES + 1))
        head, _, body = response.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 413 ")
        assert b"Connection: close" in head
        assert "exceeds" in json.loads(body)["error"]
        assert session.stats_snapshot().submitted == 0
        # The daemon keeps serving new connections.
        assert _request("GET", f"{base}/healthz")[0] == 200

    @pytest.mark.parametrize("length", ["-1", "ten"])
    def test_negative_or_malformed_length_is_400_and_closes(self, service, length):
        base, _ = service
        head, _, body = _raw_exchange(base, _post_head(length)).partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 400 ")
        assert b"Connection: close" in head
        assert "malformed Content-Length" in json.loads(body)["error"]

    def test_body_at_the_limit_is_read_and_the_connection_stays_open(
        self, service, monkeypatch
    ):
        base, _ = service
        monkeypatch.setattr(server_module, "MAX_BODY_BYTES", 16)
        connection = http.client.HTTPConnection("127.0.0.1", _port(base), timeout=30)
        try:
            connection.request("POST", "/sweeps", body=b"x" * 16)
            response = connection.getresponse()
            assert response.status == 400
            assert "not valid JSON" in json.loads(response.read())["error"]
            assert not response.will_close
            connection.request("POST", "/sweeps", body=b"x" * 17)
            response = connection.getresponse()
            assert response.status == 413
            response.read()
            assert response.will_close
        finally:
            connection.close()


class TestKeepAlive:
    def test_keep_alive_round_trips_do_not_stall(self, service, monkeypatch):
        """Sequential requests on one connection cost their work, not a timer.

        With Nagle on, a response's body waits for the client's delayed ACK
        of its headers: about 40 ms on Linux. 20 ms separates the two.
        """
        base, _ = service
        nodelay = []
        original_setup = server_module._SweepRequestHandler.setup

        def setup(handler):
            original_setup(handler)
            nodelay.append(
                handler.connection.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)
            )

        monkeypatch.setattr(server_module._SweepRequestHandler, "setup", setup)
        payload = _sweep_spec().to_payload()
        assert _request("POST", f"{base}/sweeps", payload)[0] == 201  # fills the cache
        body = json.dumps(payload)
        connection = http.client.HTTPConnection("127.0.0.1", _port(base), timeout=30)

        def round_trip(method, path, body=None):
            start = time.perf_counter()
            connection.request(method, path, body=body)
            response = connection.getresponse()
            document = json.loads(response.read())
            assert response.status in (200, 201), document
            return time.perf_counter() - start, document

        try:
            health = [round_trip("GET", "/healthz")[0] for _ in range(20)]
            sweeps = []
            for _ in range(5):
                elapsed, created = round_trip("POST", "/sweeps", body)
                assert created["stats"]["executed"] == 0
                sweeps.append(elapsed)
                sweeps.append(round_trip("GET", f"/sweeps/{created['id']}/reports")[0])
        finally:
            connection.close()
        assert statistics.median(health) < 0.020, health
        assert statistics.median(sweeps) < 0.020, sweeps
        # One connection for the cache fill, one for all 30 keep-alive requests.
        assert len(nodelay) == 2 and all(nodelay), nodelay


class TestConcurrentClients:
    def test_two_clients_posting_overlapping_sweeps_share_executions(self, service):
        import threading

        base, session = service
        payload = _sweep_spec().to_payload()
        results, errors = [], []

        def client():
            try:
                results.append(_request("POST", f"{base}/sweeps", payload))
            except BaseException as error:
                errors.append(error)

        threads = [threading.Thread(target=client) for _ in range(3)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not errors, errors
        assert [status for status, _ in results] == [201, 201, 201]
        # Single-flight across handler threads: each distinct job executed
        # exactly once no matter how the three POSTs interleaved.
        assert session.stats_snapshot().executed == len(_sweep_spec().specs)
        bodies = []
        for _, created in results:
            status, reports = _request("GET", f"{base}/sweeps/{created['id']}/reports")
            assert status == 200
            bodies.append(json.dumps(reports["reports"], sort_keys=True))
        assert len(set(bodies)) == 1
