"""The HTTP exporter: content types, label escaping, deterministic
snapshot ordering, and clean shutdown with a request in flight."""

import http.client
import json
import threading
import urllib.error
import urllib.request

import pytest

from repro import obs
from repro.obs.profile import parse_folded
from repro.obs.serve import PROMETHEUS_CONTENT_TYPE, ObsServer, render_phase_text

pytestmark = pytest.mark.obs


@pytest.fixture
def server():
    obs.enable()
    srv = ObsServer()
    yield srv
    srv.close()


def _get(srv, path):
    return urllib.request.urlopen(srv.url + path, timeout=5)


class TestMetrics:
    def test_content_type_is_prometheus_text(self, server):
        response = _get(server, "/metrics")
        assert response.status == 200
        assert response.headers["Content-Type"] == PROMETHEUS_CONTENT_TYPE
        assert PROMETHEUS_CONTENT_TYPE.startswith("text/plain; version=0.0.4")

    def test_registry_series_exposed(self, server):
        obs.inc("script.ops_total", 7)
        body = _get(server, "/metrics").read().decode()
        assert "script_ops_total 7" in body

    def test_phase_series_exposed_with_profiler(self, server, manual_clock):
        prof = obs.PhaseProfiler(clock=manual_clock)
        obs.set_profiler(prof)
        prof.enter("script")
        manual_clock.advance(0.5)
        prof.exit()
        body = _get(server, "/metrics").read().decode()
        assert 'repro_phase_self_seconds{phase="script"} 0.5' in body
        assert 'repro_phase_calls_total{phase="script"} 1' in body

    def test_label_escaping_matches_series_name_vectors(self):
        """The PR6 escaping vectors, applied to phase labels: quotes,
        backslashes, and newlines must be escaped in label values."""
        profile = {
            "schema": "repro.profile/1",
            "track_alloc": False,
            "phases": {
                'bad "input"': {"seconds": 1.0, "calls": 1},
                "a\\b": {"seconds": 1.0, "calls": 1},
                "x\ny": {"seconds": 1.0, "calls": 1},
            },
        }
        text = render_phase_text(profile)
        assert 'phase="bad \\"input\\""' in text
        assert 'phase="a\\\\b"' in text
        assert 'phase="x\\ny"' in text
        # No raw newline may survive inside a label value.
        for line in text.splitlines():
            assert line.count('"') % 2 == 0

    def test_alloc_series_only_when_tracked(self):
        profile = {
            "schema": "repro.profile/1",
            "track_alloc": True,
            "phases": {"parse": {"seconds": 0.1, "calls": 2,
                                 "alloc_bytes": 4096}},
        }
        text = render_phase_text(profile)
        assert 'repro_phase_alloc_bytes{phase="parse"} 4096' in text
        no_alloc = {
            "schema": "repro.profile/1",
            "track_alloc": False,
            "phases": {"parse": {"seconds": 0.1, "calls": 2}},
        }
        assert "alloc_bytes" not in render_phase_text(no_alloc)


class TestSnapshot:
    def test_snapshot_json_is_deterministic(self, server, manual_clock):
        prof = obs.PhaseProfiler(clock=manual_clock)
        obs.set_profiler(prof)
        obs.inc("verify.claims_total")
        prof.enter("core_verify")
        manual_clock.advance(0.25)
        prof.exit()
        first = _get(server, "/snapshot.json").read()
        second = _get(server, "/snapshot.json").read()
        assert first == second  # byte-identical across scrapes of same state
        data = json.loads(first)
        assert data["counters"]["verify.claims_total"] == 1
        assert data["profile"]["phases"]["core_verify"]["calls"] == 1
        # sort_keys=True: top-level keys arrive sorted.
        raw_keys = list(data)
        assert raw_keys == sorted(raw_keys)

    def test_snapshot_without_profiler_has_no_profile_section(self, server):
        data = json.loads(_get(server, "/snapshot.json").read())
        assert "profile" not in data

    def test_content_type_json(self, server):
        response = _get(server, "/snapshot.json")
        assert response.headers["Content-Type"].startswith("application/json")


class TestFolded:
    def test_404_without_sampler(self, server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _get(server, "/profile.folded")
        assert excinfo.value.code == 404

    def test_serves_sampler_output(self, server):
        sampler = obs.StackSampler()
        obs.set_sampler(sampler)

        def busy():
            return sum(range(5000))

        with sampler:
            for _ in range(20):
                busy()
        body = _get(server, "/profile.folded").read().decode()
        entries = parse_folded(body)
        assert entries  # valid collapsed-stack, non-empty
        assert any("busy" in ";".join(frames) for frames, _ in entries)


class TestLifecycle:
    def test_unknown_path_404s(self, server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _get(server, "/nope")
        assert excinfo.value.code == 404

    def test_close_is_idempotent_and_prompt(self):
        obs.enable()
        srv = ObsServer()
        srv.close()
        srv.close()  # second close must not raise
        with pytest.raises((ConnectionRefusedError, urllib.error.URLError, OSError)):
            urllib.request.urlopen(srv.url + "/metrics", timeout=1)

    def test_clean_shutdown_mid_request(self):
        """Open a connection, send nothing, and close the server while the
        handler thread is blocked reading the request line: close() must
        return promptly instead of joining the stuck handler."""
        obs.enable()
        srv = ObsServer()
        conn = http.client.HTTPConnection(srv.host, srv.port, timeout=5)
        conn.connect()  # handler thread now blocks waiting for a request
        closer = threading.Thread(target=srv.close)
        closer.start()
        closer.join(timeout=10)
        assert not closer.is_alive(), "close() hung on an in-flight request"
        conn.close()

    def test_concurrent_servers_do_not_share_state(self):
        obs.enable()
        with ObsServer() as a, ObsServer() as b:
            assert a.port != b.port
            assert json.loads(_get(a, "/snapshot.json").read()) == json.loads(
                _get(b, "/snapshot.json").read()
            )


class TestHealthz:
    def test_ready_while_serving(self, server):
        response = _get(server, "/healthz")
        assert response.status == 200
        payload = json.loads(response.read())
        assert payload["ready"] is True
        assert payload["draining"] is False
        # This very request is the one in flight.
        assert payload["inflight"] >= 1

    def test_health_source_fields_merge_and_gate_readiness(self):
        obs.enable()
        state = {"ready": True, "shed": 0}
        with ObsServer(health_source=lambda: dict(state)) as srv:
            payload = json.loads(_get(srv, "/healthz").read())
            assert payload["shed"] == 0
            assert payload["ready"] is True
            state["ready"] = False
            state["shed"] = 3
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                _get(srv, "/healthz")
            assert excinfo.value.code == 503
            payload = json.loads(excinfo.value.read())
            assert payload["shed"] == 3
            assert payload["ready"] is False
            # The exporter itself is fine: only the app gated readiness.
            assert payload["draining"] is False

    def test_draining_exporter_reports_not_ready(self):
        obs.enable()
        srv = ObsServer()
        try:
            with srv._inflight_cv:
                srv._draining = True
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                _get(srv, "/healthz")
            assert excinfo.value.code == 503
            assert json.loads(excinfo.value.read())["draining"] is True
        finally:
            srv.close(drain=False)

    def test_drain_waits_for_inflight_request(self):
        """A scrape racing close() completes instead of dying on a reset
        socket: close() blocks until the gated handler writes its reply."""
        obs.enable()
        entered = threading.Event()
        release = threading.Event()

        def gated_source():
            entered.set()
            assert release.wait(timeout=10)
            return {"ready": True}

        srv = ObsServer(health_source=gated_source)
        result = {}

        def scrape():
            try:
                result["payload"] = json.loads(_get(srv, "/healthz").read())
            except urllib.error.HTTPError as exc:  # 503 is still a reply
                result["payload"] = json.loads(exc.read())

        scraper = threading.Thread(target=scrape)
        scraper.start()
        assert entered.wait(timeout=10)  # handler is now mid-request
        closer = threading.Thread(target=srv.close)
        closer.start()
        closer.join(timeout=0.3)
        assert closer.is_alive(), "close() must drain, not abandon"
        release.set()
        closer.join(timeout=10)
        scraper.join(timeout=10)
        assert not closer.is_alive()
        assert "payload" in result and "inflight" in result["payload"]
