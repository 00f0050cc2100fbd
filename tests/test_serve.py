"""End-to-end tests of the ``repro serve`` daemon: wire protocol,
admission control, and the determinism contract (served ≡ direct library
call — cold cache, warm cache, and after a seeded crash retry)."""

from __future__ import annotations

import http.client
import inspect
import json
import math
import os
import socket
import subprocess
import sys
import threading
import time

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.serve import (
    AdmissionConfig,
    AdmissionController,
    ChaosPlan,
    ExecutorConfig,
    KINDS,
    ReproServer,
    Request,
    ServeClient,
    ServeError,
    ServeRequestError,
    estimate_cost,
    request_fingerprint,
)
from repro.serve.executor import experiment_params, run_scenario
from repro.serve.protocol import SCENARIO_DEFAULTS, scenario_params
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
        assert request_fingerprint("experiment", {"p": 4}, 7) != base

    def test_scenario_params_fill_defaults(self):
        assert scenario_params({}) == SCENARIO_DEFAULTS
        got = scenario_params({"n": 2e4, "L": 3, "workload": "zipf"})
        assert got["n"] == 20_000 and type(got["n"]) is int
        assert got["L"] == 3.0 and type(got["L"]) is float
        for bad in ({"n": 2.5}, {"p": True}, {"epsilon": math.inf},
                    {"workload": "ring"}, {"p": "64"}, {"p": 10**400},
                    {"L": 10**400}):
            with pytest.raises(ServeError) as exc:
                scenario_params(bad)
            assert exc.value.code == "E_BAD_REQUEST"

    def test_estimate_cost_shapes(self):
        assert estimate_cost("ping", {}) == 1
        assert estimate_cost("scenario", {"n": 500}) == 500
        assert estimate_cost("experiment", {"n": 100, "trials": 5}) == 500

    def test_serve_error_rejects_unknown_code(self):
        with pytest.raises(ValueError):
            ServeError("E_MADE_UP", "nope")

    def test_experiment_params_follow_the_defaults(self):
        name, kwargs = experiment_params(
            {"name": "unbalanced_send", "p": 16, "n": 8e2, "epsilon": 1,
             "include_telemetry": True, "on_error": "retry:2", "seed": -3})
        assert name == "unbalanced_send"
        assert kwargs["n"] == 800 and type(kwargs["n"]) is int
        assert kwargs["epsilon"] == 1 and kwargs["seed"] == -3
        good = {"m_values": [4, 8.0], "batch": False, "model": "bsp_g"}
        assert experiment_params({"name": "pricing_ablation", **good})[1] == good
        bad = [
            ("unbalanced_send", {"p": True}), ("unbalanced_send", {"n": 2.5}),
            ("unbalanced_send", {"n": math.inf}), ("unbalanced_send", {"n": "8"}),
            ("unbalanced_send", {"epsilon": 0}), ("unbalanced_send", {"epsilon": math.nan}),
            ("unbalanced_send", {"epsilon": 10**400}),
            ("unbalanced_send", {"include_telemetry": 1}),
            ("unbalanced_send", {"on_error": None}), ("unbalanced_send", {"jobs": 1}),
            ("pricing_ablation", {"m_values": []}), ("pricing_ablation", {"m_values": 8}),
            ("pricing_ablation", {"L_values": [1.0, -2.0]}),
            ("dynamic_stability", {"horizon": 0}), (["unbalanced_send"], {}),
        ]
        for name, params in bad:
            with pytest.raises(ServeError) as exc:
                experiment_params({"name": name, **params})
            assert exc.value.code == "E_BAD_REQUEST", (name, params)


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
            rnd = ctl.next_round()
            return rnd.window, [r.seq for _, r in rnd.order]

        assert one_round(3) == one_round(3)  # same seed, same schedule

    def test_window_and_oversized_rule(self):
        ctl = AdmissionController(
            AdmissionConfig(budget_m=10, epsilon=0.0, oversized_factor=100)
        )
        ctl.submit(_req(1, cost=95))  # bigger than the window -> slot 0
        ctl.submit(_req(2, cost=5))
        rnd = ctl.next_round()
        assert rnd.window == 10  # ceil((95 + 5) / 10)
        slot_of = {r.seq: s for s, r in rnd.order}
        assert slot_of[1] == 0  # the paper's oversized-sender rule

    def test_take_times_out_and_leaves_the_queue(self):
        ctl = AdmissionController(AdmissionConfig())
        first, second = _req(1, 5), _req(2, 5)
        ctl.submit(first)
        ctl.submit(second)
        rounds = []
        ctl.take(first, 1, 1.0, rounds.append)  # draws both; first starts
        assert [len(rnd.order) for rnd in rounds] == [2]
        t0 = time.monotonic()
        with pytest.raises(ServeError) as exc:
            ctl.take(second, 1, 0.05, rounds.append)  # no free place
        assert exc.value.code == "E_INTERNAL"
        assert time.monotonic() - t0 < 5
        assert (ctl.depth(), ctl.in_service(), ctl.outstanding()) == (0, 1, 1)
        assert not ctl.wait_idle(timeout=0.01)
        ctl.done()
        assert ctl.wait_idle(timeout=1)
        assert ctl.next_round() is None  # nothing is left to draw

    def test_pinned_draw(self):
        """The stdlib draw for one fixed seed: a change to the draw (its
        seeding, generator or slot rule) must show up as an edit here."""
        ctl = AdmissionController(AdmissionConfig(budget_m=4, epsilon=0.0, seed=11))
        for seq, cost in enumerate([1, 3, 9, 2, 30, 5]):
            ctl.submit(_req(seq, cost))
        rnd = ctl.next_round()
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
            client.submit("experiment", {"name": "unbalanced_send", "n": 10**9,
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
        # placement follows the daemon's machine: a request cannot set it
        small = {"name": "unbalanced_send", "p": 16, "m": 8, "n": 800,
                 "trials": 2}
        for key, value in (("jobs", 16), ("backend", "serial")):
            with pytest.raises(ServeRequestError) as exc:
                client.submit("experiment", dict(small, **{key: value}))
            assert exc.value.code == "E_BAD_REQUEST", key
            assert exc.value.http_status == 400
            assert key not in exc.value.extra["accepted"]

    def test_sweep_kind_is_400_at_submit(self, served):
        """Every compute runs in the daemon's own process, so there is no
        ``sweep`` kind to fork a worker pool: it is an unknown kind."""
        server, client = served
        params = {"name": "unbalanced_send", "p": 16, "m": 8, "n": 800,
                  "trials": 2}
        with pytest.raises(ServeRequestError) as exc:
            client.submit("sweep", params, seed=7)
        assert exc.value.code == "E_BAD_REQUEST"
        assert exc.value.http_status == 400
        counters = client.metrics()["counters"]
        # none was admitted: admitted requests end ok or failed
        assert counters.get("serve.requests.ok", 0) == 0
        assert counters.get("serve.requests.failed", 0) == 0

    @pytest.mark.parametrize("body", [
        b'{"kind": "ping", "seed": Infinity}',
        b'{"kind": "ping", "seed": 1e400}',
        b'{"kind": "experiment", "params": {"name": "unbalanced_send", "n": 1e400}}',
        b'{"kind": "experiment", "params": {"name": "unbalanced_send", '
        b'"trials": Infinity}}',
        b'{"kind": "ping", "deadline_s": 1' + b"0" * 400 + b"}",
        b'{"kind": "scenario", "params": {"p": 8, "n": 100, "m": 4}, "seed": -1}',
        b"[" * 100_000 + b"]" * 100_000,
    ], ids=["seed-inf", "seed-1e400", "n-1e400", "trials-inf", "deadline-10e400",
            "seed-negative", "nested-100k"])
    def test_unusable_body_is_400_with_no_crash(self, served, body):
        """``json.loads`` takes ``Infinity``, ``1e400``, integers past the
        float range and deep nesting: each is a structured 400, never a
        dropped connection or a crashed compute."""
        server, client = served
        conn = http.client.HTTPConnection(*server.address, timeout=60)
        try:
            conn.request("POST", "/v1/submit", body)
            reply = conn.getresponse()
            status, payload = reply.status, json.loads(reply.read())
        finally:
            conn.close()
        assert status == 400
        assert payload["error"]["code"] == "E_BAD_REQUEST"
        counters = client.metrics()["counters"]
        assert counters.get("serve.worker.crashes", 0) == 0

    def test_bad_experiment_input_is_400_not_a_crash(self, served):
        """Input the experiment cannot run is refused before it runs: no
        retry, no crash count, no quarantine."""
        server, client = served
        base = {"name": "unbalanced_send", "p": 16, "m": 8, "n": 800, "trials": 1}
        bad = [("m", 0), ("p", 0), ("trials", 0), ("epsilon", -1.0), ("n", "800"),
               ("on_error", "bogus")]
        for key, value in bad:
            with pytest.raises(ServeRequestError) as exc:
                client.submit("experiment", dict(base, **{key: value}), seed=1)
            assert exc.value.code == "E_BAD_REQUEST", key
            assert exc.value.http_status == 400
            assert exc.value.extra.get("attempts") is None  # never retried
        with pytest.raises(ServeRequestError) as exc:
            client.submit("experiment", {"name": "dynamic_stability", "horizon": 0})
        assert exc.value.code == "E_BAD_REQUEST"
        ablation = {"name": "pricing_ablation", "p": 16, "n": 200, "schedule_m": 4,
                    "m_values": [4, 8], "L_values": [1.0]}
        for model in ("bogus", "bogus", 5):  # twice: never quarantined
            with pytest.raises(ServeRequestError) as exc:
                client.submit("experiment", dict(ablation, model=model))
            assert exc.value.code == "E_BAD_REQUEST", model
            assert exc.value.http_status == 400
            assert "bsp_m" in exc.value.extra["choices"]
        counters = client.metrics()["counters"]
        assert counters.get("serve.worker.crashes", 0) == 0
        assert counters.get("serve.retry.attempts", 0) == 0
        assert server.executor.quarantined() == {}

    def test_bad_scenario_input_is_400_at_submit(self, served):
        server, client = served
        bad = [
            ({"n": -5}, None), ({"p": 0}, None), ({"L": -3.0}, None),
            ({"m": math.nan}, None), ({"shape": "zipf"}, None), ({}, math.nan),
        ]
        for params, deadline_s in bad:
            with pytest.raises(ServeRequestError) as exc:
                client.submit("scenario", dict(SCENARIO, **params), seed=1,
                              deadline_s=deadline_s)
            assert exc.value.code == "E_BAD_REQUEST", params
            assert exc.value.http_status == 400
        counters = client.metrics()["counters"]
        assert counters.get("serve.worker.crashes", 0) == 0
        assert counters.get("serve.requests.ok", 0) == 0  # none was admitted

    def test_bad_L_does_not_poison_its_group(self, served):
        server, client = served
        replies = {}

        def go(L):
            try:
                replies[L] = client.submit("scenario", dict(SCENARIO, L=L), seed=5)
            except ServeRequestError as exc:
                replies[L] = exc

        threads = [threading.Thread(target=go, args=(L,)) for L in (1.0, -3.0)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
            assert not t.is_alive()
        assert replies[1.0]["result"] == json.loads(
            json.dumps(run_scenario(dict(SCENARIO, L=1.0), 5)))
        assert replies[-3.0].http_status == 400
        assert client.metrics()["counters"].get("serve.worker.crashes", 0) == 0

    def test_unknown_path_is_400(self, served):
        server, client = served
        with pytest.raises(ServeRequestError) as exc:
            client._call("GET", "/v1/nope")
        assert exc.value.code == "E_BAD_REQUEST"


# ----------------------------------------------------------------------
# the submit boundary, fuzzed in process
# ----------------------------------------------------------------------
#: numbers ``json.loads`` yields beyond strict JSON (``Infinity``, ``NaN``,
#: ``1e400`` -> inf), integers past the float range, and the edges of
#: the valid ranges
_EDGE_NUMBERS = st.sampled_from(
    [math.inf, -math.inf, math.nan, 10**400, -(10**400), -1, 0])
_JSON_VALUES = st.recursive(
    st.one_of(_EDGE_NUMBERS, st.integers(), st.floats(), st.booleans(),
              st.none(), st.text(max_size=8)),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.dictionaries(st.text(max_size=6), inner, max_size=4),
    ),
    max_leaves=10,
)
#: a body field or param value: an edge number half the time
_FIELD = st.one_of(_EDGE_NUMBERS, _JSON_VALUES)


def _param_dicts(known_keys):
    keys = st.one_of(st.sampled_from(sorted(known_keys)), st.text(max_size=6))
    return st.dictionaries(keys, _FIELD, max_size=6)


#: a submit body: a request-shaped object with drawn fields, or any value
_SUBMIT_BODIES = st.one_of(
    st.fixed_dictionaries(
        {"kind": st.one_of(st.sampled_from(KINDS), _JSON_VALUES), "seed": _FIELD},
        optional={
            "params": st.one_of(
                _param_dicts({*SCENARIO_DEFAULTS, "name", "trials"}),
                _JSON_VALUES),
            "deadline_s": _FIELD,
        },
    ),
    _JSON_VALUES,
)


class TestSubmitBoundary:
    """Whatever a client sends, the request parser and the experiment
    param check answer with a structured ``E_BAD_REQUEST`` or accept it:
    no other exception reaches the connection or the compute lane."""

    def test_build_request_raises_only_serve_errors(self):
        server = ReproServer(port=0)  # bound, never started: no HTTP round trip

        @settings(max_examples=200, deadline=None)
        @given(body=_SUBMIT_BODIES)
        def check(body):
            try:
                req = server._build_request(body)
            except ServeError as err:
                assert err.code == "E_BAD_REQUEST"
            else:
                assert isinstance(req, Request) and req.kind in KINDS
                assert req.seed >= 0

        try:
            check()
        finally:
            server.drain(timeout=5)

    def test_experiment_param_check_raises_only_serve_errors(self):
        from repro.experiments import EXPERIMENTS

        accepted = {
            name: set(inspect.signature(fn).parameters) - {"jobs"}
            for name, fn in EXPERIMENTS.items()
        }
        known = set().union(*accepted.values()) | {"jobs"}
        names = st.one_of(st.sampled_from(sorted(EXPERIMENTS)), _JSON_VALUES)

        @settings(max_examples=200, deadline=None)
        @given(name=names, rest=_param_dicts(known))
        def check(name, rest):
            params = {**rest, "name": name}
            try:
                got, kwargs = experiment_params(params)
            except ServeError as err:
                assert err.code == "E_BAD_REQUEST"
            else:
                assert got == name and set(kwargs) <= accepted[name]

        check()

    def test_http_replies_match_the_in_process_verdict(self, tmp_path):
        """The same draws sent over TCP and over a Unix socket: a body the
        parser rejects in process gets its structured 400, a ping its ok,
        and nothing is a 500, a reset, a hang or a crash.  Accepted
        scenarios and experiments are skipped: their sizes are unbounded,
        so a drawn one could ask for minutes of compute."""
        tcp, tcp_client = make_server()
        uds = ReproServer(uds=str(tmp_path / "repro.sock"))
        uds.start()
        clients = (tcp_client, ServeClient(uds=uds.uds, timeout=60))

        @settings(max_examples=200, deadline=None)
        @given(body=_SUBMIT_BODIES)
        def check(body):
            try:
                req = tcp._build_request(body)
            except ServeError as err:
                verdict = (err.code, err.http_status)
            else:  # a ping whose deadline cannot lapse while it is served
                assume(req.kind == "ping" and (
                    req.deadline is None or req.deadline - req.submitted > 60))
                verdict = (True, 200)
            for client in clients:
                try:
                    status, _headers, raw = client._call_raw("POST", "/v1/submit", body)
                    got = (json.loads(raw)["ok"], status)
                except ServeRequestError as err:
                    got = (err.code, err.http_status)
                assert got == verdict, (client.url or client.uds, body)

        try:
            check()
            for server in (tcp, uds):
                counters = server.metrics.snapshot()["counters"]
                assert counters.get("serve.worker.crashes", 0) == 0
        finally:
            tcp.drain(timeout=30)
            uds.drain(timeout=30)


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

    def test_reset_keep_alive_connection_prints_no_traceback(self, served, capsys):
        """A client that closes a keep-alive connection with the reply
        unread resets it; the handler meets the reset on its next
        request-line read and ends the connection without a traceback."""
        server, client = served
        before = set(threading.enumerate())
        for _ in range(3):
            with socket.create_connection(server.address, timeout=10) as sock:
                sock.sendall(b"GET /v1/healthz HTTP/1.1\r\nHost: x\r\n\r\n")
                # the whole reply sits unread, so closing sends a reset
                _wait_for(lambda: sock.recv(4096, socket.MSG_PEEK).endswith(b"}"))
        # the three handler threads have met the reset and ended
        _wait_for(lambda: not set(threading.enumerate()) - before)
        assert client.healthz()["ok"] is True
        assert "Exception occurred" not in capsys.readouterr().err

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
# the compute lane
# ----------------------------------------------------------------------
class _HeldCompute:
    """Wraps the scenario handler: records the thread of every compute
    and the seeds computed, and holds the compute of ``hold_seed`` until
    :meth:`release` — a lane blocked on one long compute."""

    def __init__(self, monkeypatch, hold_seed=None):
        import repro.serve.executor as executor_mod

        self.hold_seed = hold_seed
        self.entered = threading.Event()
        self._release = threading.Event()
        self.threads = []
        self.seeds = []
        compute = executor_mod.run_scenario

        def held(params, seed, **kw):
            self.threads.append(_thread_id())
            self.seeds.append(seed)
            if seed == self.hold_seed:
                self.entered.set()
                assert self._release.wait(60)
            return compute(params, seed, **kw)

        monkeypatch.setattr(executor_mod, "run_scenario", held)

    def release(self):
        self._release.set()


def _thread_id():
    return threading.current_thread().name, threading.get_ident()


def _lane_jobs(server):
    return len(server.executor._lane._jobs)


def _wait_for(predicate, timeout=30.0):
    end = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < end, "condition not reached"
        time.sleep(0.01)


class TestComputeLane:
    def test_concurrent_cold_computes_share_one_thread(self, tmp_path, monkeypatch):
        held = _HeldCompute(monkeypatch)
        server, client = make_server(
            tmp_path, executor=ExecutorConfig(workers=4, backoff_base=0.01)
        )
        params = [dict(SCENARIO, p=8, n=400, L=float(1 + i % 2)) for i in range(8)]
        seeds = [200 + i // 2 for i in range(8)]  # same-seed L-pairs
        replies = [None] * 8

        def go(i):
            replies[i] = client.submit("scenario", params[i], seed=seeds[i])

        try:
            threads = [threading.Thread(target=go, args=(i,)) for i in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            server.drain(timeout=30)
        assert held.threads
        ((name, _ident),) = set(held.threads)  # one thread ran them all
        assert name == "repro-serve-compute"
        for i, reply in enumerate(replies):
            assert reply["cached"] is False
            assert reply["result"] == _json_roundtrip(run_scenario(params[i], seeds[i]))

    def test_ping_and_cache_hit_overtake_a_held_compute(self, tmp_path, monkeypatch):
        server, client = make_server(tmp_path)
        held = _HeldCompute(monkeypatch, hold_seed=2)
        try:
            cold = client.submit("scenario", SCENARIO, seed=1)
            slow = {}
            t = threading.Thread(
                target=lambda: slow.update(r=client.submit("scenario", SCENARIO, seed=2))
            )
            t.start()
            assert held.entered.wait(30)
            assert client.ping()["ok"]
            warm = client.submit("scenario", SCENARIO, seed=1)
            assert warm["cached"] is True and warm["result"] == cold["result"]
            assert t.is_alive()  # the held compute is still running
            held.release()
            t.join(timeout=60)
        finally:
            held.release()
            server.drain(timeout=30)
        assert slow["r"]["result"] == _json_roundtrip(run_scenario(SCENARIO, 2))

    def test_deadline_expiring_in_the_lane_queue_sheds(self, tmp_path, monkeypatch):
        server, client = make_server(tmp_path)
        held = _HeldCompute(monkeypatch, hold_seed=2)
        try:
            blocker = threading.Thread(
                target=client.submit, args=("scenario", SCENARIO), kwargs={"seed": 2}
            )
            blocker.start()
            assert held.entered.wait(30)
            outcome = {}

            def late():
                try:
                    client.submit("scenario", SCENARIO, seed=3, deadline_s=1.0)
                except ServeRequestError as exc:
                    outcome["error"] = exc

            t = threading.Thread(target=late)
            t.start()
            _wait_for(lambda: _lane_jobs(server) == 1)  # queued, not yet expired
            time.sleep(1.2)
            held.release()
            t.join(timeout=60)
            blocker.join(timeout=60)
        finally:
            held.release()
            server.drain(timeout=30)
        err = outcome["error"]
        assert err.code == "E_DEADLINE" and err.http_status == 504
        assert "queued for compute" in err.detail
        assert 3 not in held.seeds  # shed before building a relation
        wait = server.metrics.snapshot()["histograms"]["serve.compute.wait_s"]
        assert wait["count"] >= 2 and wait["sum"] >= 1.0

    def test_drain_with_queued_lane_work_loses_nothing(self, tmp_path, monkeypatch):
        server, client = make_server(tmp_path)
        held = _HeldCompute(monkeypatch, hold_seed=2)
        seeds = [2, 4, 5, 6]
        replies = {}

        def go(seed):
            replies[seed] = client.submit("scenario", SCENARIO, seed=seed)

        threads = [threading.Thread(target=go, args=(s,)) for s in seeds]
        try:
            threads[0].start()
            assert held.entered.wait(30)
            for t in threads[1:]:
                t.start()
            _wait_for(lambda: _lane_jobs(server) >= 1)
            _wait_for(lambda: server.admission.outstanding() == len(seeds))
            drained = {}
            drainer = threading.Thread(
                target=lambda: drained.update(clean=server.drain(timeout=60))
            )
            drainer.start()
            time.sleep(0.2)
            assert drainer.is_alive()  # waiting on the held lane
            held.release()
            drainer.join(timeout=60)
            for t in threads:
                t.join(timeout=60)
        finally:
            held.release()
            server.drain(timeout=30)
        assert drained["clean"] is True
        assert sorted(replies) == seeds
        for seed in seeds:
            want = _json_roundtrip(run_scenario(SCENARIO, seed))
            assert replies[seed]["result"] == want

    def test_wait_histogram_is_exported(self, served):
        server, client = served
        client.submit("scenario", dict(SCENARIO, p=8, n=400), seed=7)
        hist = client.metrics()["histograms"]["serve.compute.wait_s"]
        assert hist["count"] >= 1
        text = client.metrics_prom()
        assert "# TYPE serve_compute_wait_s histogram" in text
        assert any(
            line.startswith("serve_compute_wait_s_count ")
            for line in text.splitlines()
        )

    def test_handler_crash_quarantines(self, tmp_path, monkeypatch):
        """A handler that keeps raising on the lane walks retry ->
        quarantine: ``E_CRASHED`` flagged quarantined, then
        ``E_QUARANTINED`` at the door for the same content."""
        import repro.serve.executor as executor_mod

        threads = []

        def crash(params, seed, **kw):
            threads.append(threading.current_thread().name)
            raise RuntimeError("handler crash")

        monkeypatch.setattr(executor_mod, "run_scenario", crash)
        server, client = make_server(
            tmp_path,
            executor=ExecutorConfig(
                workers=2, backoff_base=0.01, max_attempts=2, quarantine_after=2
            ),
        )
        try:
            with pytest.raises(ServeRequestError) as exc:
                client.submit("scenario", SCENARIO, seed=5)
            assert exc.value.code == "E_CRASHED"
            assert exc.value.extra.get("quarantined") is True
            with pytest.raises(ServeRequestError) as exc:
                client.submit("scenario", SCENARIO, seed=5)
            assert exc.value.code == "E_QUARANTINED"
            counters = client.metrics()["counters"]
        finally:
            server.drain(timeout=30)
        assert counters["serve.worker.crashes"] == 2
        assert threads == ["repro-serve-compute"] * 2

    def test_lane_stress_every_caller_gets_its_own_answer(self):
        from repro.serve.engine import ComputeLane

        lane = ComputeLane()
        lane.start()
        results = {}

        def caller(k):
            results[k] = [
                lane.run(lambda i=i: (k, i, threading.get_ident())) for i in range(200)
            ]

        threads = [threading.Thread(target=caller, args=(k,)) for k in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
        finally:
            sys.setswitchinterval(interval)
            lane.shutdown()
        assert len({ident for rows in results.values() for *_, ident in rows}) == 1
        for k in range(8):
            assert [row[:2] for row in results[k]] == [(k, i) for i in range(200)]

    def test_lane_hands_back_values_and_errors(self):
        from repro.serve.engine import ComputeLane

        lane = ComputeLane()
        lane.start()
        try:
            assert lane.run(lambda: threading.current_thread().name) == (
                "repro-serve-compute"
            )
            with pytest.raises(ZeroDivisionError):
                lane.run(lambda: 1 / 0)
            with pytest.raises(ServeError) as exc:
                lane.run(lambda: None, deadline=time.monotonic() - 1.0)
            assert exc.value.code == "E_DEADLINE"
        finally:
            lane.shutdown()
        # once the lane has drained, a job runs on the caller's thread
        _wait_for(lambda: lane._closed)
        assert lane.run(threading.current_thread) is threading.current_thread()


# ----------------------------------------------------------------------
# each request is served on the thread that accepted it
# ----------------------------------------------------------------------
class TestServedOnItsOwnThread:
    def test_daemon_starts_only_the_listener_and_the_lane(self, tmp_path):
        before = set(threading.enumerate())
        server, client = make_server(tmp_path)
        try:
            started = {t.name for t in set(threading.enumerate()) - before}
            assert started == {"repro-serve-http", "repro-serve-compute"}
            assert client.ping()["ok"]
        finally:
            server.drain(timeout=30)

    def test_backlog_is_drawn_as_one_round_in_draw_order(self, tmp_path, monkeypatch):
        """Six requests queued behind a held compute are drawn as one
        round and computed in the order the round's draw gives them."""
        cfg = AdmissionConfig(seed=3, budget_m=1, oversized_factor=10**6)
        held = _HeldCompute(monkeypatch, hold_seed=0)
        server, client = make_server(
            tmp_path, admission=cfg,
            executor=ExecutorConfig(workers=1, backoff_base=0.01),
        )
        sizes = [400, 900, 250, 700, 1200, 500]
        params = [dict(SCENARIO, p=8, n=n) for n in sizes]
        seeds = [10 + i for i in range(len(sizes))]
        threads = [threading.Thread(target=client.submit, args=("scenario", SCENARIO),
                                    kwargs={"seed": 0})]
        threads += [
            threading.Thread(target=client.submit, args=("scenario", params[i]),
                             kwargs={"seed": seeds[i]})
            for i in range(len(sizes))
        ]
        try:
            threads[0].start()
            assert held.entered.wait(30)
            for i, t in enumerate(threads[1:]):  # one at a time: seq order
                t.start()
                _wait_for(lambda: server.admission.depth() == i + 1)
            held.release()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
            events, _seq = client.events(since=0, timeout=0.1)
        finally:
            held.release()
            server.drain(timeout=30)
        assert [e["requests"] for e in events if e["kind"] == "round"] == [1, 6]
        # the held request was seq 1 and round 1; the backlog is seqs 2..7
        batch = [
            Request(seq=2 + i, kind="scenario", params=params[i], seed=seeds[i],
                    fingerprint="", cost=estimate_cost("scenario", params[i]),
                    deadline=None, submitted=0.0)
            for i in range(len(sizes))
        ]
        drawn = [r.seed for _slot, r in AdmissionController(cfg)._schedule(2, batch).order]
        assert drawn != seeds  # the draw reorders this backlog
        assert held.seeds == [0] + drawn

    def test_drain_count_returns_to_zero_under_switch_churn(self, tmp_path):
        server, client = make_server(tmp_path)
        errors = []

        def pings():
            try:
                for _ in range(100):
                    client.ping()
            except Exception as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        threads = [threading.Thread(target=pings) for _ in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
            assert not any(t.is_alive() for t in threads)
        finally:
            sys.setswitchinterval(interval)
        try:
            assert errors == []
            assert client.healthz()["outstanding"] == 0
        finally:
            clean = server.drain(timeout=5)
        assert clean

    def test_drain_waits_for_the_reply_write(self, tmp_path, monkeypatch):
        """A request served but not yet answered holds the drain until its
        reply is written, however late its handler thread gets to it."""
        server, client = make_server(tmp_path)
        handler = server.httpd.RequestHandlerClass
        reply, written = handler._reply, []

        def slow_reply(self, status, payload):
            if self.path == "/v1/submit":
                time.sleep(0.5)  # a handler thread not yet scheduled
            reply(self, status, payload)
            written.append(self.path)

        monkeypatch.setattr(handler, "_reply", slow_reply)
        got = {}
        pinger = threading.Thread(target=lambda: got.update(client.ping()))
        try:
            pinger.start()
            _wait_for(lambda: server.metrics.snapshot()["counters"].get(
                "serve.requests.ok", 0) == 1)
            clean = server.drain(timeout=5)
            assert written == ["/v1/submit"]
            pinger.join(timeout=30)
        finally:
            server.drain(timeout=5)
        assert clean
        assert got["ok"] is True

    def test_wedged_compute_gets_e_internal_within_the_cap(self, tmp_path, monkeypatch):
        """A compute that never returns costs its caller, and the request
        queued behind it on the lane, one ``E_INTERNAL`` after the wait
        cap; the queued one leaves the lane's queue without running."""
        from repro.serve import engine

        monkeypatch.setattr(engine, "WAIT_CAP_S", 0.5)
        held = _HeldCompute(monkeypatch, hold_seed=2)
        server, client = make_server(tmp_path)
        outcome = {}

        def submit(seed):
            t0 = time.monotonic()
            try:
                client.submit("scenario", SCENARIO, seed=seed)
            except ServeRequestError as exc:
                outcome[seed] = (exc.code, time.monotonic() - t0)

        threads = [threading.Thread(target=submit, args=(seed,)) for seed in (2, 3)]
        try:
            threads[0].start()
            assert held.entered.wait(30)
            threads[1].start()  # queues on the lane behind the wedged compute
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
            for seed in (2, 3):
                code, waited = outcome[seed]
                assert code == "E_INTERNAL" and 0.5 <= waited < 10, outcome
            assert client.healthz()["outstanding"] == 0
        finally:
            held.release()
            clean = server.drain(timeout=30)
        assert clean
        _wait_for(lambda: server.executor._lane._closed)
        assert held.seeds == [2]

    def test_burst_of_clients_gets_replies_not_resets(self, served):
        """64 clients connect at once, five times over: each gets a reply
        (the listen backlog holds them), never a reset connection."""
        server, client = served
        barrier = threading.Barrier(64)
        replies, errors = [], []

        def burst():
            for _ in range(5):
                barrier.wait(timeout=60)
                try:
                    replies.append(client.ping()["ok"])
                except Exception as exc:  # noqa: BLE001 - reported below
                    errors.append(repr(exc))

        threads = [threading.Thread(target=burst) for _ in range(64)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert replies == [True] * 320


# ----------------------------------------------------------------------
# UDS transport
# ----------------------------------------------------------------------
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
# the client: one HTTP exchange on both transports
# ----------------------------------------------------------------------
@pytest.fixture(params=["tcp", "uds"])
def transport(request, tmp_path):
    """A started daemon and a client on the named transport."""
    if request.param == "tcp":
        server, client = make_server()
    else:
        server = ReproServer(uds=str(tmp_path / "repro.sock"))
        server.start()
        client = ServeClient(uds=server.uds, timeout=60)
    yield server, client
    server.drain(timeout=30)


class TestClientExchange:
    def test_non_json_body_is_e_internal(self, transport):
        server, client = transport
        with pytest.raises(ServeRequestError) as exc:
            client._call("GET", "/v1/metrics?format=prom")  # 200, Prometheus text
        assert (exc.value.code, exc.value.http_status) == ("E_INTERNAL", 200)

    def test_each_call_asks_to_close_its_connection(self, transport):
        server, client = transport
        for path in ("/v1/healthz", "/v1/metrics?format=prom"):
            status, headers, _raw = client._call_raw("GET", path)
            assert status == 200 and headers["Connection"] == "close", path

    def test_proxy_variables_are_not_read(self, served):
        """A TCP call goes to the daemon, never to the proxy the
        environment names (nothing listens on port 9)."""
        server, _client = served
        env = _fresh_env()
        env.update(http_proxy="http://127.0.0.1:9", HTTP_PROXY="http://127.0.0.1:9")
        for name in ("no_proxy", "NO_PROXY"):
            env.pop(name, None)
        code = ("import sys\nfrom repro.serve import ServeClient\n"
                "print(ServeClient(sys.argv[1], timeout=30).ping()['ok'])\n")
        out = subprocess.run(
            [sys.executable, "-c", code, server.url],
            capture_output=True, text=True, timeout=120, env=env,
        )
        assert out.returncode == 0 and out.stdout.strip() == "True", out.stderr

    @pytest.mark.parametrize("url", [
        "https://127.0.0.1:8377", "ftp://127.0.0.1", "127.0.0.1:8377",
        "http://127.0.0.1:port", "http://127.0.0.1:70000",
        "http://user@127.0.0.1:8377", "http://127.0.0.1:8377/v1?x=1",
    ])
    def test_url_must_be_plain_http(self, url, capsys):
        from repro.harness import main

        with pytest.raises(ValueError, match=r"http://host\[:port\]"):
            ServeClient(url)
        assert main(["top", "--url", url, "--once"]) == 2
        assert "error: url must be http://host" in capsys.readouterr().err

    def test_url_prefix_leads_every_request_path(self, served):
        server, _client = served
        with pytest.raises(ServeRequestError) as exc:
            ServeClient(server.url + "/api/", timeout=60).healthz()
        assert exc.value.detail == "unknown path /api/v1/healthz"


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


_SLOW_REPLY_DAEMON = """
import sys, time
import repro.serve.daemon as daemon
from repro.harness import main

make_handler = daemon._make_handler

def slow_make_handler(server, request_timeout):
    handler = make_handler(server, request_timeout)
    reply = handler._reply

    def slow_reply(self, status, payload):
        if self.path == "/v1/submit":
            time.sleep(0.5)  # a handler thread not yet scheduled
        reply(self, status, payload)

    handler._reply = slow_reply
    return handler

daemon._make_handler = slow_make_handler
sys.exit(main(["serve", "--port", "0", "--no-store"]))
"""


class TestDrainWithReplyInFlight:
    def test_cli_drain_writes_the_reply_before_exiting(self):
        proc = subprocess.Popen(
            [sys.executable, "-c", _SLOW_REPLY_DAEMON],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            env=_fresh_env(),
        )
        try:
            line = proc.stdout.readline()
            assert "listening on http://" in line, line
            host, port = line.split("http://")[1].split()[0].split(":")
            client = ServeClient(f"http://{host}:{port}", timeout=30)
            ping = http.client.HTTPConnection(host, int(port), timeout=30)
            try:
                ping.request("POST", "/v1/submit", json.dumps({"kind": "ping"}))
                # served, its reply still unwritten
                _wait_for(lambda: client.metrics()["counters"].get(
                    "serve.requests.ok", 0) == 1)
                assert client.drain()["status"] == "draining"
                reply = json.loads(ping.getresponse().read())
            finally:
                ping.close()
            out, err = proc.communicate(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        assert reply["ok"] is True
        assert proc.returncode == 0
        assert out.rstrip().endswith("drained; bye")
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
