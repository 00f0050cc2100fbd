"""End-to-end tests of the ``repro serve`` daemon: wire protocol,
admission control, and the determinism contract (served ≡ direct library
call — cold cache, warm cache, and after a seeded crash retry)."""

from __future__ import annotations

import json
import math
import os
import socket
import subprocess
import sys
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serve import (
    AdmissionConfig,
    AdmissionController,
    ChaosPlan,
    ExecutorConfig,
    ReproServer,
    Request,
    ServeClient,
    ServeError,
    ServeRequestError,
    estimate_cost,
    request_fingerprint,
)
from repro.serve.executor import run_scenario
from repro.store.disk import DiskStore

SCENARIO = {"p": 16, "n": 1500, "m": 64, "L": 2.0, "workload": "zipf"}


def make_server(tmp_path=None, **kw):
    store = None
    if tmp_path is not None:
        store = DiskStore(str(tmp_path / "store"), tag="test")
    kw.setdefault("executor", ExecutorConfig(workers=2, backoff_base=0.01))
    server = ReproServer(port=0, store=store, **kw)
    server.start()
    return server, ServeClient(server.url, timeout=60)


@pytest.fixture
def served(tmp_path):
    server, client = make_server(tmp_path)
    yield server, client
    server.drain(timeout=30)


# ----------------------------------------------------------------------
# protocol units
# ----------------------------------------------------------------------
class TestProtocol:
    def test_fingerprint_is_order_independent(self):
        a = request_fingerprint("scenario", {"p": 4, "n": 100}, 7)
        b = request_fingerprint("scenario", {"n": 100, "p": 4}, 7)
        assert a == b

    def test_fingerprint_covers_seed_and_kind(self):
        base = request_fingerprint("scenario", {"p": 4}, 7)
        assert request_fingerprint("scenario", {"p": 4}, 8) != base
        assert request_fingerprint("sweep", {"p": 4}, 7) != base

    def test_estimate_cost_shapes(self):
        assert estimate_cost("ping", {}) == 1
        assert estimate_cost("scenario", {"n": 500}) == 500
        assert estimate_cost("sweep", {"n": 100, "trials": 5}) == 500

    def test_serve_error_rejects_unknown_code(self):
        with pytest.raises(ValueError):
            ServeError("E_MADE_UP", "nope")


# ----------------------------------------------------------------------
# admission units
# ----------------------------------------------------------------------
def _req(seq, cost, deadline=None):
    return Request(
        seq=seq, kind="scenario", params={}, seed=0,
        fingerprint=f"f{seq}", cost=cost, deadline=deadline, submitted=0.0,
    )


class TestAdmission:
    def test_oversized_shed(self):
        ctl = AdmissionController(AdmissionConfig(budget_m=10, oversized_factor=2))
        with pytest.raises(ServeError) as exc:
            ctl.submit(_req(1, cost=21))
        assert exc.value.code == "E_OVERSIZED"
        assert ctl.submit(_req(2, cost=20)) == 1  # at the ceiling: admitted

    def test_queue_full_shed(self):
        ctl = AdmissionController(AdmissionConfig(max_queue=2))
        ctl.submit(_req(1, 5))
        ctl.submit(_req(2, 5))
        with pytest.raises(ServeError) as exc:
            ctl.submit(_req(3, 5))
        assert exc.value.code == "E_QUEUE_FULL"

    def test_draining_shed(self):
        ctl = AdmissionController(AdmissionConfig())
        ctl.start_drain()
        with pytest.raises(ServeError) as exc:
            ctl.submit(_req(1, 5))
        assert exc.value.code == "E_DRAINING"

    def test_round_draw_is_seeded(self):
        def one_round(seed):
            ctl = AdmissionController(AdmissionConfig(budget_m=8, seed=seed))
            for i in range(6):
                ctl.submit(_req(i, cost=10 + i))
            rnd = ctl.next_round(timeout=1)
            return rnd.window, [r.seq for _, r in rnd.order]

        assert one_round(3) == one_round(3)  # same seed, same schedule

    def test_window_and_oversized_rule(self):
        ctl = AdmissionController(
            AdmissionConfig(budget_m=10, epsilon=0.0, oversized_factor=100)
        )
        ctl.submit(_req(1, cost=95))  # bigger than the window -> slot 0
        ctl.submit(_req(2, cost=5))
        rnd = ctl.next_round(timeout=1)
        assert rnd.window == 10  # ceil((95 + 5) / 10)
        slot_of = {r.seq: s for s, r in rnd.order}
        assert slot_of[1] == 0  # the paper's oversized-sender rule

    def test_next_round_timeout_returns_none(self):
        ctl = AdmissionController(AdmissionConfig())
        assert ctl.next_round(timeout=0.01) is None

    def test_pinned_draw(self):
        """The stdlib draw for one fixed seed: a change to the draw (its
        seeding, generator or slot rule) must show up as an edit here."""
        ctl = AdmissionController(AdmissionConfig(budget_m=4, epsilon=0.0, seed=11))
        for seq, cost in enumerate([1, 3, 9, 2, 30, 5]):
            ctl.submit(_req(seq, cost))
        rnd = ctl.next_round(timeout=1)
        assert (rnd.index, rnd.window, rnd.total_cost) == (1, 13, 50)
        assert [(s, r.seq) for s, r in rnd.order] == [
            (0, 4), (0, 5), (2, 3), (3, 2), (7, 1), (12, 0),
        ]
        assert rnd.overloaded_slots == 2

    @settings(max_examples=200, deadline=None)
    @given(
        costs=st.lists(st.integers(1, 200), min_size=1, max_size=16),
        budget_m=st.integers(1, 24),
        epsilon=st.floats(0.0, 2.0),
        seed=st.integers(0, 2**63),
        index=st.integers(1, 10_000),
    )
    def test_draw_matches_the_cyclic_layout_oracle(
        self, costs, budget_m, epsilon, seed, index
    ):
        cfg = AdmissionConfig(
            budget_m=budget_m, epsilon=epsilon, seed=seed,
            oversized_factor=200, max_batch=16,
        )
        batch = [_req(seq, cost) for seq, cost in enumerate(costs)]
        rnd = AdmissionController(cfg)._schedule(index, batch)

        window = max(1, math.ceil((1.0 + epsilon) * sum(costs) / budget_m))
        assert rnd.window == window and rnd.total_cost == sum(costs)
        assert sorted(r.seq for _, r in rnd.order) == list(range(len(costs)))
        assert rnd.order == sorted(rnd.order, key=lambda e: (e[0], e[1].seq))
        load = [0] * window
        for start, req in rnd.order:
            assert 0 <= start < window
            if req.cost > window:
                assert start == 0  # the paper's oversized-sender rule
            for flit in range(req.cost):  # one flit per slot, cyclically
                load[(start + flit) % window] += 1
        assert rnd.overloaded_slots == sum(x > budget_m for x in load)
        # seeded per (server seed, round): a replay draws the same slots
        again = AdmissionController(cfg)._schedule(index, batch)
        assert [(s, r.seq) for s, r in again.order] == [
            (s, r.seq) for s, r in rnd.order
        ]


# ----------------------------------------------------------------------
# the determinism contract (acceptance criterion)
# ----------------------------------------------------------------------
class TestDeterminism:
    def test_cold_warm_and_retry_match_direct_call(self, tmp_path):
        """One daemon-served scenario must equal the direct library call
        bit-for-bit: cold cache, warm cache, and recomputed after a seeded
        worker crash on the first attempt."""
        direct = run_scenario(SCENARIO, 42)

        server, client = make_server(tmp_path)
        try:
            cold = client.submit("scenario", SCENARIO, seed=42)
            warm = client.submit("scenario", SCENARIO, seed=42)
        finally:
            server.drain(timeout=30)
        assert cold["cached"] is False and warm["cached"] is True
        assert cold["result"] == direct
        assert warm["result"] == direct

        # a fresh daemon whose chaos plan kills every first attempt: the
        # retry must recompute the identical answer (no cache: no store)
        server2, client2 = make_server(None, chaos=ChaosPlan(kill_first=1))
        try:
            retried = client2.submit("scenario", SCENARIO, seed=42)
        finally:
            server2.drain(timeout=30)
        assert retried["attempts"] == 2
        assert retried["result"] == direct

    def test_warm_cache_survives_daemon_restart(self, tmp_path):
        server, client = make_server(tmp_path)
        try:
            cold = client.submit("scenario", SCENARIO, seed=9)
        finally:
            server.drain(timeout=30)
        server2, client2 = make_server(tmp_path)
        try:
            warm = client2.submit("scenario", SCENARIO, seed=9)
        finally:
            server2.drain(timeout=30)
        assert warm["cached"] is True
        assert warm["result"] == cold["result"]

    def test_experiment_kind_matches_library(self, served):
        server, client = served
        from repro.experiments import run_experiment

        params = {"name": "unbalanced_send", "p": 16, "m": 8, "n": 800,
                  "trials": 2}
        got = client.submit("experiment", params, seed=5)
        want = run_experiment(
            "unbalanced_send", p=16, m=8, n=800, trials=2, seed=5
        )
        assert got["result"]["result"] == want


# ----------------------------------------------------------------------
# structured sheds over the wire
# ----------------------------------------------------------------------
class TestSheds:
    def test_expired_deadline_is_504(self, served):
        server, client = served
        with pytest.raises(ServeRequestError) as exc:
            client.submit("scenario", SCENARIO, seed=1, deadline_s=-0.5)
        assert exc.value.code == "E_DEADLINE"
        assert exc.value.http_status == 504

    def test_oversized_is_413(self, served):
        server, client = served
        with pytest.raises(ServeRequestError) as exc:
            client.submit("sweep", {"name": "unbalanced_send", "n": 10**9,
                                    "trials": 1000})
        assert exc.value.code == "E_OVERSIZED"
        assert exc.value.http_status == 413

    def test_bad_kind_and_bad_experiment_are_400(self, served):
        server, client = served
        with pytest.raises(ServeRequestError) as exc:
            client.submit("frobnicate", {})
        assert exc.value.code == "E_BAD_REQUEST"
        with pytest.raises(ServeRequestError) as exc:
            client.submit("experiment", {"name": "no_such_experiment"})
        assert exc.value.code == "E_BAD_REQUEST"
        assert "choices" in exc.value.extra

    def test_unknown_path_is_400(self, served):
        server, client = served
        with pytest.raises(ServeRequestError) as exc:
            client._call("GET", "/v1/nope")
        assert exc.value.code == "E_BAD_REQUEST"


# ----------------------------------------------------------------------
# daemon surface
# ----------------------------------------------------------------------
class TestDaemon:
    def test_ping_health_metrics_stats(self, served):
        server, client = served
        assert client.ping()["result"]["kind"] == "ping"
        health = client.healthz()
        assert health["status"] == "serving"
        client.submit("scenario", SCENARIO, seed=2)
        metrics = client.metrics()
        assert metrics["counters"]["serve.requests.ok"] >= 2
        stats = client.stats()
        assert stats["admission"]["budget_m"] == 4096
        assert stats["store"]["writes"] >= 1

    def test_drain_endpoint_sheds_then_stops(self, tmp_path):
        server, client = make_server(tmp_path)
        client.drain()
        deadline = time.monotonic() + 10
        while not server._drained.is_set() and time.monotonic() < deadline:
            time.sleep(0.05)
        assert server._drained.is_set()
        with pytest.raises(Exception):  # listener is gone
            client.healthz()

    def test_concurrent_submissions_all_answered(self, served):
        """Every accepted request gets exactly one answer even when many
        clients race; sheds are structured, never hangs."""
        server, client = served
        outcomes = []
        lock = threading.Lock()

        def go(i):
            try:
                r = client.submit("scenario", dict(SCENARIO, p=8, n=400),
                                  seed=100 + i)
                with lock:
                    outcomes.append(("ok", r["result"]["model_time"]))
            except ServeRequestError as e:
                with lock:
                    outcomes.append((e.code, None))

        threads = [threading.Thread(target=go, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert len(outcomes) == 8
        assert all(code == "ok" for code, _ in outcomes)


# ----------------------------------------------------------------------
# streaming telemetry: Prometheus exposition, event long-poll, repro top
# ----------------------------------------------------------------------
class TestStreamingTelemetry:
    def test_prometheus_exposition(self, served):
        server, client = served
        client.ping()
        status, headers, raw = client._call_raw("GET", "/v1/metrics?format=prom")
        assert status == 200
        assert headers["Content-Type"] == "text/plain; version=0.0.4; charset=utf-8"
        assert int(headers["Content-Length"]) == len(raw)
        text = raw.decode()
        assert any(
            line.startswith("serve_requests_ok_total ")
            for line in text.splitlines()
        )
        assert "# TYPE serve_requests_ok_total counter" in text
        assert client.metrics_prom() == text  # the client helper agrees

    def test_json_replies_carry_charset_and_length(self, served):
        server, client = served
        for path in ("/v1/healthz", "/v1/metrics", "/v1/stats"):
            status, headers, raw = client._call_raw("GET", path)
            assert status == 200, path
            assert headers["Content-Type"] == "application/json; charset=utf-8"
            assert int(headers["Content-Length"]) == len(raw)

    def test_unknown_format_is_structured_406(self, served):
        server, client = served
        with pytest.raises(ServeRequestError) as exc:
            client._call_raw("GET", "/v1/metrics?format=xml")
        assert exc.value.code == "E_NOT_ACCEPTABLE"
        assert exc.value.http_status == 406
        assert exc.value.extra["supported"] == ["json", "prom"]

    def test_events_long_poll_sees_admission_rounds(self, served):
        server, client = served
        # subscribe first, then submit: the poll must wake on the round
        got = {}

        def poll():
            got["events"], got["seq"] = client.events(since=0, timeout=30.0)

        t = threading.Thread(target=poll)
        t.start()
        client.submit("scenario", dict(SCENARIO, p=8, n=400), seed=5)
        t.join(timeout=60)
        assert not t.is_alive()
        rounds = [e for e in got["events"] if e["kind"] == "round"]
        assert rounds, got
        assert {"seq", "t", "window", "requests", "queue_depth"} <= set(rounds[0])
        assert got["seq"] >= rounds[-1]["seq"]
        # cursor semantics: nothing new -> empty batch, cursor preserved
        events, seq = client.events(since=got["seq"], timeout=0.2)
        assert events == [] and seq == got["seq"]

    def test_event_ring_is_bounded(self):
        from repro.serve.telemetry import EVENT_RING_SIZE, ServerMetrics

        metrics = ServerMetrics()
        for i in range(EVENT_RING_SIZE + 10):
            metrics.emit_event("round", window=i)
        events, latest = metrics.wait_events(0, timeout=0.0)
        assert len(events) == EVENT_RING_SIZE
        assert latest == EVENT_RING_SIZE + 10
        # the oldest events fell off the ring
        assert events[0]["seq"] == 11

    def test_top_against_live_chaos_daemon(self, tmp_path):
        """The acceptance criterion: ``repro top`` attaches to a chaos-plan
        daemon, renders, and perturbs nothing — the served results stay
        bit-identical to the direct library call."""
        from repro.obs.top import DaemonSource, render_frame

        server, client = make_server(
            tmp_path, chaos=ChaosPlan(seed=3, kill_first=1)
        )
        try:
            source = DaemonSource(ServeClient(server.url, timeout=60))
            frame0 = source.frame()
            assert frame0["status"] == "serving"
            got = client.submit("scenario", SCENARIO, seed=21)
            frame = source.frame()
            text = "\n".join(render_frame(frame))
            assert "repro top" in text and "serving" in text
            assert frame["counters"]["serve.requests.ok"] >= 1
            # top is read-only: the daemon's answer matches the library
            want = run_scenario(SCENARIO, 21)
            assert got["result"] == _json_roundtrip(want)
        finally:
            server.drain(timeout=30)


# ----------------------------------------------------------------------
# process engine + UDS transport
# ----------------------------------------------------------------------
class TestProcessEngine:
    def test_engine_validated(self):
        with pytest.raises(ValueError, match="engine"):
            ExecutorConfig(engine="fiber")

    def test_process_served_scenario_is_bit_identical(self, tmp_path):
        server, client = make_server(
            tmp_path, executor=ExecutorConfig(workers=2, engine="process")
        )
        try:
            got = client.submit("scenario", SCENARIO, seed=11)
            want = run_scenario(SCENARIO, 11)
            assert got["result"] == _json_roundtrip(want)
            # warm-cache answer is the same object the cold run produced
            again = client.submit("scenario", SCENARIO, seed=11)
            assert again["cached"] is True
            assert again["result"] == got["result"]
        finally:
            server.drain(timeout=30)

    def test_process_engine_translates_structured_errors(self, tmp_path):
        server, client = make_server(
            tmp_path, executor=ExecutorConfig(workers=2, engine="process")
        )
        try:
            with pytest.raises(ServeRequestError) as exc:
                client.submit("experiment", {"name": "no_such_experiment"})
            assert exc.value.code == "E_BAD_REQUEST"
            assert "choices" in exc.value.extra
        finally:
            server.drain(timeout=30)

    def test_process_engine_ships_real_worker_spans(self, tmp_path):
        """With a tracer installed in the daemon process, a process-engine
        request splices the worker's *real* superstep spans under a
        ``serve <kind>`` span — model durations included."""
        from repro.obs import Tracer, tracing

        server, client = make_server(
            tmp_path, executor=ExecutorConfig(workers=2, engine="process")
        )
        tracer = Tracer()
        try:
            with tracing(tracer):
                got = client.submit("scenario", SCENARIO, seed=31)
        finally:
            server.drain(timeout=30)
        (serve_span,) = tracer.find(cat="serve")
        assert serve_span.name == "serve scenario"
        supersteps = tracer.find(cat="superstep")
        assert supersteps, "worker superstep spans did not arrive"
        assert sum(s.model_dur for s in supersteps) == got["result"]["model_time"]
        # the worker's top-level spans hang off the serve span
        roots = [
            s for s in tracer.spans
            if s.parent == serve_span.index and s is not serve_span
        ]
        assert roots

    def test_process_engine_crash_quarantines(self, tmp_path):
        """A handler that keeps crashing inside a pool worker walks the
        same retry -> quarantine path as the thread engine."""
        server, client = make_server(
            tmp_path,
            executor=ExecutorConfig(
                workers=2, engine="process", backoff_base=0.01,
                max_attempts=2, quarantine_after=2,
            ),
        )
        try:
            bad = {"p": 16, "n": 800, "m": 0}  # m=0 raises in MachineParams
            with pytest.raises(ServeRequestError) as exc:
                client.submit("scenario", bad, seed=0)
            assert exc.value.code == "E_CRASHED"
            with pytest.raises(ServeRequestError) as exc:
                client.submit("scenario", bad, seed=0)
            assert exc.value.code == "E_QUARANTINED"
        finally:
            server.drain(timeout=30)


def _json_roundtrip(obj):
    import json

    return json.loads(json.dumps(obj))


class TestUnixDomainSocket:
    def _serve_uds(self, tmp_path, **kw):
        sock = str(tmp_path / "repro.sock")
        kw.setdefault("executor", ExecutorConfig(workers=2, backoff_base=0.01))
        server = ReproServer(uds=sock, **kw)
        server.start()
        return server, ServeClient(uds=sock, timeout=60), sock

    def test_round_trip_matches_tcp(self, tmp_path):
        server, client, sock = self._serve_uds(tmp_path)
        tcp_server, tcp_client = make_server()
        try:
            assert server.url == f"http+unix://{sock}"
            assert client.healthz()["ok"] is True
            got = client.submit("scenario", SCENARIO, seed=3)
            want = tcp_client.submit("scenario", SCENARIO, seed=3)
            assert got["result"] == want["result"]
            assert got["fingerprint"] == want["fingerprint"]
        finally:
            server.drain(timeout=30)
            tcp_server.drain(timeout=30)

    def test_structured_errors_cross_the_socket(self, tmp_path):
        server, client, _ = self._serve_uds(tmp_path)
        try:
            with pytest.raises(ServeRequestError) as exc:
                client.submit("experiment", {"name": "nope"})
            assert exc.value.code == "E_BAD_REQUEST"
            assert exc.value.http_status == 400
        finally:
            server.drain(timeout=30)

    def test_socket_file_removed_on_close(self, tmp_path):
        import os

        server, client, sock = self._serve_uds(tmp_path)
        assert os.path.exists(sock)
        server.drain(timeout=30)
        assert not os.path.exists(sock)

    def test_stale_socket_file_is_replaced(self, tmp_path):
        sock = str(tmp_path / "repro.sock")
        open(sock, "w").close()  # stale leftover from a crashed daemon
        server = ReproServer(uds=sock)
        server.start()
        try:
            assert ServeClient(uds=sock).healthz()["ok"] is True
        finally:
            server.drain(timeout=30)

    def test_client_requires_exactly_one_transport(self):
        with pytest.raises(ValueError, match="exactly one"):
            ServeClient()
        with pytest.raises(ValueError, match="exactly one"):
            ServeClient("http://x", uds="/tmp/x.sock")


# ----------------------------------------------------------------------
# a fresh interpreter: the CLI daemon and the lean front end
# ----------------------------------------------------------------------
def _fresh_env():
    """The environment of a fresh interpreter importing this ``repro``."""
    import repro

    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


class TestMalformedContentLength:
    @pytest.mark.parametrize("value", ["abc", "1e3", "-1"])
    def test_structured_400_then_clean_drain(self, value):
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0", "--no-store"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            env=_fresh_env(),
        )
        try:
            line = proc.stdout.readline()
            assert "listening on http://" in line, line
            host, port = line.split("http://")[1].split()[0].split(":")
            with socket.create_connection((host, int(port)), timeout=10) as sock:
                sock.sendall(
                    b"POST /v1/submit HTTP/1.1\r\nHost: x\r\n"
                    b"Content-Length: " + value.encode() + b"\r\n\r\n"
                )
                raw = b""
                while chunk := sock.recv(65536):  # the daemon closes after replying
                    raw += chunk
            head, _, body = raw.partition(b"\r\n\r\n")
            assert head.split()[1] == b"400", raw
            error = json.loads(body)["error"]
            assert error["code"] == "E_BAD_REQUEST" and value in error["detail"]
            proc.send_signal(15)  # SIGTERM: graceful drain
            out, err = proc.communicate(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        assert proc.returncode == 0
        assert "drained; bye" in out
        assert "Traceback" not in err


#: modules a daemon answering only pings and cache hits must never load
COMPUTE_STACK = (
    "numpy",
    "repro.core.engine",
    "repro.models",
    "repro.scheduling",
    "concurrent.futures.process",
)

_LEAN_DAEMON = """
import http.client, json, sys
import repro.harness, repro.serve.daemon
from repro.serve.daemon import ReproServer
from repro.store.disk import DiskStore

store_dir, bodies, heavy = sys.argv[1], json.loads(sys.argv[2]), sys.argv[3:]
server = ReproServer(port=0, store=DiskStore(store_dir, tag="test"))
server.start()
conn = http.client.HTTPConnection(*server.address, timeout=60)
replies = []
for body in bodies:
    conn.request("POST", "/v1/submit", json.dumps(body))
    replies.append(json.loads(conn.getresponse().read()))
server.drain(timeout=30)
print(json.dumps({"replies": replies,
                  "loaded": [m for m in heavy if m in sys.modules]}))
"""


class TestLeanStartup:
    """The daemon's front end — HTTP, protocol, admission, response cache
    and telemetry — runs on the standard library alone."""

    def test_cached_answers_never_load_the_compute_stack(self, tmp_path):
        seeds = (42, 43)
        server, client = make_server(tmp_path)  # another process's daemon
        try:
            cold = [client.submit("scenario", SCENARIO, seed=s) for s in seeds]
        finally:
            server.drain(timeout=30)
        bodies = [{"kind": "ping"}] + [
            {"kind": "scenario", "params": SCENARIO, "seed": s} for s in seeds
        ]
        out = subprocess.run(
            [sys.executable, "-c", _LEAN_DAEMON, str(tmp_path / "store"),
             json.dumps(bodies), *COMPUTE_STACK],
            capture_output=True, text=True, timeout=120, env=_fresh_env(),
        )
        assert out.returncode == 0, out.stderr
        report = json.loads(out.stdout)
        ping, *warm = report["replies"]
        assert ping["ok"] is True
        for seed, reply, first in zip(seeds, warm, cold):
            assert reply["cached"] is True
            assert reply["result"] == first["result"]
            assert reply["result"] == _json_roundtrip(run_scenario(SCENARIO, seed))
        assert report["loaded"] == []

    def test_lazy_exports_resolve_in_a_fresh_interpreter(self):
        code = (
            "import importlib, sys\n"
            "for name in sys.argv[1:]:\n"
            "    pkg = importlib.import_module(name)\n"
            "    assert set(pkg.__all__) <= set(dir(pkg)), name\n"
            "    for symbol in pkg.__all__:\n"
            "        getattr(pkg, symbol)\n"
            "from repro import BSPm\n"
            "from repro.serve import ServeClient\n"
            "print('ok')\n"
        )
        lazy = ["repro", "repro.core", "repro.obs", "repro.serve",
                "repro.store", "repro.util"]
        out = subprocess.run(
            [sys.executable, "-c", code, *lazy],
            capture_output=True, text=True, timeout=120, env=_fresh_env(),
        )
        assert out.returncode == 0 and out.stdout.strip() == "ok", out.stderr
