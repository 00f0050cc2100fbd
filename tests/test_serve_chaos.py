"""Deterministic chaos tests of the daemon: seeded worker kills, bounded
queue overload, disk-full on the store, slow-client stalls, and graceful
drain — the ISSUE's robustness criteria.

No pytest-timeout dependency is assumed: every blocking step has its own
timeout (client sockets, ``Thread.join``, drain) and asserts progress, so
a deadlock shows up as a failed assertion, not a hung test run.
"""

from __future__ import annotations

import socket
import threading
import time

import pytest

from repro.serve import (
    AdmissionConfig,
    ChaosPlan,
    ExecutorConfig,
    ReproServer,
    ServeClient,
    ServeRequestError,
)
from repro.serve.chaos import WorkerKilled, plan_from_env
from repro.store.disk import DiskStore

SCENARIO = {"p": 8, "n": 400, "m": 32}
JOIN_S = 60  # nothing below is allowed to outlive this


def start_server(**kw):
    kw.setdefault("executor", ExecutorConfig(workers=2, backoff_base=0.005))
    server = ReproServer(port=0, **kw)
    server.start()
    return server, ServeClient(server.url, timeout=JOIN_S)


class TestChaosPlan:
    def test_decisions_are_pure(self):
        plan = ChaosPlan(seed=7, kill_rate=0.5)
        fps = [f"fp{i}" for i in range(200)]
        first = [plan.should_kill(fp, 1) for fp in fps]
        assert first == [plan.should_kill(fp, 1) for fp in fps]
        killed = sum(first)
        assert 50 < killed < 150  # seeded, roughly the configured rate

    def test_kill_first_always_kills_then_releases(self):
        plan = ChaosPlan(seed=0, kill_first=1)
        assert plan.should_kill("anything", 1)
        assert not plan.should_kill("anything", 2)
        with pytest.raises(WorkerKilled):
            plan.kill_if_planned("anything", 1)

    def test_null_plan(self):
        assert ChaosPlan().is_null
        assert not ChaosPlan(kill_rate=0.1).is_null

    def test_plan_from_env(self):
        plan = plan_from_env({
            "REPRO_SERVE_CHAOS_SEED": "3",
            "REPRO_SERVE_CHAOS_KILL_RATE": "0.25",
            "REPRO_SERVE_CHAOS_KILL_FIRST": "1",
        })
        assert (plan.seed, plan.kill_rate, plan.kill_first) == (3, 0.25, 1)
        assert plan_from_env({}).is_null


class TestSeededKills:
    def test_kills_recover_and_results_are_deterministic(self):
        """Under a 100%-first-attempt kill plan every request succeeds on
        the retry with the same bits a calm server produces."""
        calm_server, calm = start_server()
        try:
            want = calm.submit("scenario", SCENARIO, seed=11)["result"]
        finally:
            calm_server.drain(timeout=30)

        server, client = start_server(chaos=ChaosPlan(kill_first=1))
        try:
            got = client.submit("scenario", SCENARIO, seed=11)
        finally:
            server.drain(timeout=30)
        assert got["attempts"] == 2
        assert got["result"] == want

    def test_poison_request_is_quarantined(self):
        server, client = start_server(
            chaos=ChaosPlan(kill_rate=1.0),
            executor=ExecutorConfig(
                workers=1, max_attempts=2, quarantine_after=2,
                backoff_base=0.005,
            ),
        )
        try:
            with pytest.raises(ServeRequestError) as exc:
                client.submit("scenario", SCENARIO, seed=13)
            assert exc.value.code == "E_CRASHED"
            assert exc.value.extra.get("quarantined") is True
            # same content again: shed at the door, no execution
            with pytest.raises(ServeRequestError) as exc:
                client.submit("scenario", SCENARIO, seed=13)
            assert exc.value.code == "E_QUARANTINED"
            assert exc.value.http_status == 422
            # different content still serves (chaos kills it too, but the
            # point is it is NOT quarantined up front)
            with pytest.raises(ServeRequestError) as exc:
                client.submit("scenario", SCENARIO, seed=14)
            assert exc.value.code == "E_CRASHED"
            metrics = client.metrics()["counters"]
            assert metrics["serve.retry.quarantined"] >= 1
            assert metrics["serve.worker.crashes"] >= 3
        finally:
            server.drain(timeout=30)


class TestOverload:
    def test_bounded_queue_sheds_structured_and_never_hangs(self, monkeypatch):
        """With the one place in service held, ``max_queue`` more requests
        wait and every other submission sheds ``E_QUEUE_FULL`` at once."""
        import repro.serve.executor as executor_mod

        entered, release = threading.Event(), threading.Event()
        compute = executor_mod.run_scenario

        def held(params, seed, **kw):
            entered.set()
            assert release.wait(JOIN_S)
            return compute(params, seed, **kw)

        monkeypatch.setattr(executor_mod, "run_scenario", held)
        server, client = start_server(
            admission=AdmissionConfig(max_queue=2),
            executor=ExecutorConfig(workers=1, backoff_base=0.005),
        )
        outcomes = []
        lock = threading.Lock()

        def go(i):
            try:
                client.submit("scenario", dict(SCENARIO, n=4000), seed=i)
                with lock:
                    outcomes.append("ok")
            except ServeRequestError as e:
                with lock:
                    outcomes.append(e.code)

        threads = [threading.Thread(target=go, args=(i,)) for i in range(10)]
        try:
            threads[0].start()
            assert entered.wait(JOIN_S)
            for t in threads[1:]:
                t.start()
            end = time.monotonic() + JOIN_S
            while len(outcomes) < 7 and time.monotonic() < end:
                time.sleep(0.01)
            assert outcomes == ["E_QUEUE_FULL"] * 7  # shed without waiting
            assert client.healthz()["queue_depth"] == 2
            release.set()
            for t in threads:
                t.join(timeout=JOIN_S)
            assert not any(t.is_alive() for t in threads), "a client hung"
            assert sorted(outcomes) == ["E_QUEUE_FULL"] * 7 + ["ok"] * 3
            shed = client.metrics()["counters"]["serve.shed.queue_full"]
            assert shed == 7
        finally:
            release.set()
            server.drain(timeout=30)


class TestDiskFull:
    def test_full_disk_degrades_store_not_service(self, tmp_path):
        plan = ChaosPlan(disk_full_rate=1.0)
        store = DiskStore(
            str(tmp_path / "s"), tag="t", io_fault=plan.io_fault
        )
        server, client = start_server(store=store, chaos=plan)
        try:
            first = client.submit("scenario", SCENARIO, seed=21)
            again = client.submit("scenario", SCENARIO, seed=21)
        finally:
            server.drain(timeout=30)
        # no write landed, so the repeat recomputes — but bit-identically
        assert first["cached"] is False and again["cached"] is False
        assert first["result"] == again["result"]
        assert store.stats().write_errors >= 2
        assert store.stats().entries == 0


class TestSlowClient:
    def test_stalled_request_does_not_block_other_clients(self):
        server, client = start_server(request_timeout=1.0)
        try:
            host, port = server.address
            stalled = socket.create_connection((host, port), timeout=5)
            # half a request, then silence: the handler must time out
            # instead of pinning its thread forever
            stalled.sendall(b"POST /v1/submit HTTP/1.1\r\nContent-Length: 999\r\n")
            t0 = time.monotonic()
            assert client.ping()["ok"]  # others keep being served
            assert time.monotonic() - t0 < 30
            stalled.close()
        finally:
            server.drain(timeout=30)


class TestGracefulDrain:
    def test_drain_answers_all_accepted_sheds_new_work(self):
        """The zero-loss guarantee: drain during load answers every
        accepted request, sheds post-drain submissions with E_DRAINING,
        and stops cleanly."""
        server, client = start_server(
            admission=AdmissionConfig(max_queue=32, max_batch=2),
            executor=ExecutorConfig(workers=2, backoff_base=0.005),
        )
        outcomes = []
        lock = threading.Lock()

        def go(i):
            try:
                r = client.submit("scenario", dict(SCENARIO, n=2000), seed=i)
                with lock:
                    outcomes.append(("ok", r["result"]["model_time"]))
            except ServeRequestError as e:
                with lock:
                    outcomes.append((e.code, None))

        threads = [threading.Thread(target=go, args=(i,)) for i in range(6)]
        for t in threads:
            t.start()
        # let some requests get accepted, then pull the plug
        time.sleep(0.2)
        drainer = threading.Thread(target=server.drain, kwargs={"timeout": JOIN_S})
        drainer.start()
        # a submission racing the drain must shed, not hang
        late_code = None
        try:
            client.submit("scenario", SCENARIO, seed=999)
            late_code = "ok"
        except ServeRequestError as e:
            late_code = e.code
        except Exception:
            late_code = "connection_error"  # listener already closed
        for t in threads:
            t.join(timeout=JOIN_S)
        drainer.join(timeout=JOIN_S)
        assert not drainer.is_alive(), "drain deadlocked"
        assert not any(t.is_alive() for t in threads), "a client hung"
        assert server._drained.is_set()
        # every accepted request got a real answer; nothing was dropped
        assert len(outcomes) == 6
        assert set(c for c, _ in outcomes) <= {"ok", "E_DRAINING"}
        assert any(c == "ok" for c, _ in outcomes)
        assert late_code in ("ok", "E_DRAINING", "connection_error")

    def test_drain_is_idempotent(self):
        server, _client = start_server()
        assert server.drain(timeout=10)
        assert server.drain(timeout=10)  # second call is a no-op
