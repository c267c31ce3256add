"""The network service tier: protocol, server, client, admission, pushes.

These tests start a real :class:`MonitorService` on an ephemeral TCP port
(asyncio loop in a background thread via :class:`ServiceRunner`) and talk
to it with the synchronous :class:`ServiceClient` — the same wire path a
production client would use.  Virtual time advances via the service pump,
so wall-clock sleeps only bound how long we *wait*, never what happens.
"""

from __future__ import annotations

import json
import socket
import threading
import time

import pytest

from repro import (SQLCM, DatabaseServer, GovernorPolicy, IncidentPolicy,
                   MonitorService, ServerConfig, ServiceClient,
                   ServiceConfig, ServiceRunner)
from repro.apps.auto_remediation import AutoRemediator
from repro.core.governor import (BEST_EFFORT, CRITICAL, GOV_ESSENTIAL,
                                 GOV_NORMAL, GOV_SHEDDING)
from repro.errors import ProtocolError, ServiceError
from repro.service.protocol import (E_AUTH, E_BAD_REQUEST, E_DENIED,
                                    E_OVERLOADED, E_PARSE, E_PROTOCOL,
                                    E_RECOVERING, E_SQL, E_UNSUPPORTED,
                                    PROTOCOL_VERSION,
                                    Push, Response, decode_frame,
                                    encode_frame, jsonable, parse_request,
                                    parse_server_frame)

#: wall-clock ceiling for client waits; generous because CI is slow
WAIT = 15.0


def build_service(**kwargs) -> MonitorService:
    db = DatabaseServer(ServerConfig(track_completed_queries=True))
    db.enable_observability()
    sqlcm = SQLCM(db)
    return MonitorService(db, sqlcm, ServiceConfig(**kwargs))


@pytest.fixture
def service():
    svc = build_service()
    with ServiceRunner(svc):
        yield svc


def connect(svc: MonitorService, **kwargs) -> ServiceClient:
    kwargs.setdefault("timeout", WAIT)
    return ServiceClient("127.0.0.1", svc.port, **kwargs)


def wait_until(predicate, timeout: float = WAIT, interval: float = 0.01):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return False


# ---------------------------------------------------------------------------
# protocol unit tests (no server)
# ---------------------------------------------------------------------------

class TestProtocol:
    def test_frame_roundtrip(self):
        frame = {"id": 3, "op": "sql", "sql": "SELECT 1"}
        assert decode_frame(encode_frame(frame).strip()) == frame

    def test_jsonable_coerces_engine_values(self):
        coerced = jsonable({
            "sig": b"\x01\xff",
            "key": (1, "a"),
            "nan": float("nan"),
            5: "int-key",
        })
        assert coerced["sig"] == "01ff"
        assert coerced["key"] == [1, "a"]
        assert coerced["nan"] == "nan"
        assert coerced["5"] == "int-key"
        json.dumps(coerced)  # must be serializable as-is

    def test_parse_request_validation(self):
        request = parse_request({"id": 0, "op": "sql", "sql": "SELECT 1"})
        assert request.payload == {"sql": "SELECT 1"}
        with pytest.raises(ProtocolError):
            parse_request({"op": "sql"})                 # no id
        with pytest.raises(ProtocolError):
            parse_request({"id": -1, "op": "sql"})       # negative id
        with pytest.raises(ProtocolError):
            parse_request({"id": True, "op": "sql"})     # bool is not an id
        with pytest.raises(ProtocolError):
            parse_request({"id": 1})                     # no op

    def test_decode_rejects_bad_frames(self):
        with pytest.raises(ProtocolError):
            decode_frame(b"not json")
        with pytest.raises(ProtocolError):
            decode_frame(b"[1, 2]")

    def test_parse_server_frame_classifies(self):
        push = parse_server_frame({"push": "incident", "time": 1.0,
                                   "data": {"phase": "opened"}})
        assert isinstance(push, Push) and push.topic == "incident"
        ok = parse_server_frame({"id": 4, "ok": True, "data": {"x": 1}})
        assert isinstance(ok, Response) and ok.ok and ok.data == {"x": 1}
        err = parse_server_frame({"id": 4, "ok": False, "error": {
            "code": E_OVERLOADED, "message": "busy", "retry_after": 0.5}})
        assert not err.ok and err.code == E_OVERLOADED
        assert err.retry_after == 0.5

    def test_error_response_frame_shape(self):
        frame = Response(7, ok=False, code=E_SQL, message="boom",
                         retry_after=None).to_frame()
        assert frame == {"id": 7, "ok": False,
                         "error": {"code": E_SQL, "message": "boom"}}


# ---------------------------------------------------------------------------
# handshake + framing over a real socket
# ---------------------------------------------------------------------------

class TestHandshake:
    def test_hello_opens_session(self, service):
        with connect(service, user="alice") as client:
            assert client.hello["server"] == "sqlcm-service"
            assert client.hello["version"] == PROTOCOL_VERSION
            assert service.db.session(client.session_id) is not None

    def test_ops_before_hello_rejected(self, service):
        sock = socket.create_connection(("127.0.0.1", service.port),
                                        timeout=WAIT)
        reader = sock.makefile("rb")
        sock.sendall(b'{"id": 0, "op": "ping"}\n')
        frame = json.loads(reader.readline())
        assert frame["ok"] is False
        assert frame["error"]["code"] == E_PROTOCOL
        sock.close()

    def test_version_mismatch_rejected(self, service):
        sock = socket.create_connection(("127.0.0.1", service.port),
                                        timeout=WAIT)
        reader = sock.makefile("rb")
        sock.sendall(b'{"id": 0, "op": "hello", "version": 999}\n')
        frame = json.loads(reader.readline())
        assert frame["error"]["code"] == E_PROTOCOL
        sock.close()

    def test_auth_failure(self, service):
        service.db.set_authenticator(
            lambda user, credential: credential == "sesame")
        with pytest.raises(ServiceError) as excinfo:
            connect(service, user="mallory", credential="wrong")
        assert excinfo.value.code == E_AUTH
        assert service.db.login_failures == 1
        client = connect(service, user="alice", credential="sesame")
        client.close()

    def test_unknown_op_and_parse_error(self, service):
        with connect(service) as client:
            response = client.request("no_such_op")
            assert response.code == E_UNSUPPORTED
            # raw garbage after a valid handshake
            client._sock.sendall(b"{broken\n")
            frame = client._read_frame()
            assert isinstance(frame, Response)
            assert frame.code == E_PARSE

    def test_parse_error_id(self, service):
        with connect(service) as client:
            # not JSON, and JSON that is not an object: no id to echo
            for line in (b"not json at all\n", b"[1, 2, 3]\n"):
                client._sock.sendall(line)
                frame = client._read_frame()
                assert frame.code == E_PARSE
                assert frame.request_id == -1
            # an object without an op still has its id echoed
            client._sock.sendall(b'{"id": 5}\n')
            frame = client._read_frame()
            assert frame.code == E_PARSE
            assert frame.request_id == 5


# ---------------------------------------------------------------------------
# SQL over the wire
# ---------------------------------------------------------------------------

class TestSQL:
    def test_ddl_dml_select_roundtrip(self, service):
        with connect(service) as client:
            client.sql("CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)")
            out = client.sql("INSERT INTO t (id, v) VALUES (1, 10), (2, 20)")
            assert out["rows_affected"] == 2
            out = client.sql("SELECT id, v FROM t WHERE v > @floor",
                             params={"floor": 15})
            assert out["rows"] == [[2, 20]]

    def test_sql_error_is_honest(self, service):
        with connect(service) as client:
            with pytest.raises(ServiceError) as excinfo:
                client.sql("SELECT FROM nonsense !!!")
            assert excinfo.value.code == E_SQL
            # the session (and connection) survive the failed statement
            assert client.ping()["time"] >= 0.0

    def test_no_pipelining(self, service):
        with connect(service, user="holder") as holder, \
                connect(service) as client:
            holder.sql("CREATE TABLE t (id INTEGER PRIMARY KEY, "
                       "v INTEGER)")
            holder.sql("INSERT INTO t (id, v) VALUES (1, 0)")
            holder.sql("BEGIN")
            holder.sql("UPDATE t SET v = 1 WHERE id = 1")
            # the first statement parks on the holder's lock, so it is
            # still in flight when the second frame arrives
            client._send({"id": 100, "op": "sql",
                          "sql": "UPDATE t SET v = 2 WHERE id = 1"})
            client._send({"id": 101, "op": "sql",
                          "sql": "UPDATE t SET v = 3 WHERE id = 1"})
            rejected = client._read_frame()
            assert rejected.request_id == 101
            assert rejected.code == E_PROTOCOL  # pipelining rejected
            holder.sql("COMMIT")
            first = client._read_frame()
            assert first.request_id == 100 and first.ok


# ---------------------------------------------------------------------------
# pump pacing: a started statement wakes the pump; idle, it ticks
# ---------------------------------------------------------------------------

def count_advances(svc: MonitorService) -> list:
    """Count the pump's steps: one ``_advance`` per step."""
    calls = []
    advance = svc._advance

    def counted():
        calls.append(None)
        advance()

    svc._advance = counted
    return calls


class TestPumpPacing:
    def test_requests_do_not_wait_for_the_tick(self):
        svc = build_service(pump_interval=1.0)
        elapsed = {}

        def run(i):
            start = time.monotonic()
            with connect(svc) as client:
                client.sql(f"CREATE TABLE t{i} (id INTEGER PRIMARY KEY)")
                for key in range(19):
                    client.sql(f"INSERT INTO t{i} (id) VALUES ({key})")
            elapsed[i] = time.monotonic() - start

        with ServiceRunner(svc):
            threads = [threading.Thread(target=run, args=(i,))
                       for i in range(2)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60.0)
        # paced by the 1 s idle tick, 20 requests would take >= 20 s
        assert sorted(elapsed) == [0, 1]
        assert max(elapsed.values()) < 10.0

    def test_readmitted_request_runs_on_the_next_step(self):
        svc = build_service(pump_interval=2.0, queue_timeout=1e9)
        governor = frozen_governor(svc, GOV_SHEDDING)
        with ServiceRunner(svc), \
                connect(svc, criticality=BEST_EFFORT) as queued, \
                connect(svc) as waker:
            result = {}

            def blocked_sql():
                try:
                    queued.sql("SELECT 1 FROM nothing")
                except ServiceError as err:
                    result["err"] = err
                result["at"] = time.monotonic()

            thread = threading.Thread(target=blocked_sql)
            thread.start()
            assert wait_until(lambda: len(svc._queue) == 1)
            governor.state = GOV_NORMAL
            released = time.monotonic()
            # this statement wakes the pump; the step that answers it
            # re-admits the queued request, which must not then sit out
            # an idle interval
            waker.sql("CREATE TABLE t (id INTEGER PRIMARY KEY)")
            thread.join(WAIT)
            assert not thread.is_alive()
            assert result["err"].code == E_SQL  # admitted and executed
            assert result["at"] - released < 0.5 * svc.config.pump_interval

    def test_idle_pump_is_not_a_busy_loop(self, tmp_path):
        svc = build_durable_service(tmp_path, pump_interval=0.05)
        steps = count_advances(svc)

        def idle_steps():
            steps.clear()
            time.sleep(0.5)
            return len(steps)

        runner = ServiceRunner(svc)
        runner.start()
        try:
            assert 1 <= idle_steps() <= 15
            svc.request_restart()
            assert wait_until(lambda: svc.restarts == 1
                              and svc.state == "running")
            assert 1 <= idle_steps() <= 15
        finally:
            runner.stop()
        # a fresh runner (a new event loop) on the same service
        with ServiceRunner(svc):
            assert 1 <= idle_steps() <= 15


# ---------------------------------------------------------------------------
# monitoring commands + endpoints
# ---------------------------------------------------------------------------

class TestEndpoints:
    def test_status_shape(self, service):
        with connect(service) as client:
            status = client.status()
            assert status["service"]["protocol_version"] == PROTOCOL_VERSION
            assert status["service"]["connections"] == 1
            assert status["activity"]["sessions"] == 1
            assert status["governor"] == {"enabled": False}
            assert status["incidents"]["enabled"] is False

    def test_metrics_endpoint(self, service):
        with connect(service) as client:
            client.sql("CREATE TABLE t (id INTEGER PRIMARY KEY)")
            metrics = client.metrics()
            assert metrics["enabled"] is True
            assert "counters" in metrics["metrics"]

    def test_install_lat_rule_stream(self, service):
        with connect(service) as client:
            client.install_lat(
                "Duration_LAT",
                grouping=["Query.User AS U"],
                aggregations=["COUNT(Query.ID) AS N"])
            client.install_rule(
                "track", event="Query.Commit",
                actions=[{"type": "insert", "lat": "Duration_LAT"}])
            client.install_stream(
                "STREAM s FROM Query.Commit WINDOW TUMBLING(5) "
                "AGG COUNT(*) AS N")
            status = client.status()
            assert status["monitoring"]["rules"] == 1
            assert status["monitoring"]["lats"] == 1
            assert status["monitoring"]["streams"] == 1
            client.sql("CREATE TABLE t (id INTEGER PRIMARY KEY)")
            client.sql("INSERT INTO t (id) VALUES (1)")
            assert len(service.sqlcm.lat("Duration_LAT")) == 1
            client.remove_rule("track")
            assert client.status()["monitoring"]["rules"] == 0

    def test_bad_installs_are_bad_requests(self, service):
        with connect(service) as client:
            with pytest.raises(ServiceError) as excinfo:
                client.install_lat("NoGroups")  # a LAT needs grouping
            assert excinfo.value.code == E_BAD_REQUEST
            with pytest.raises(ServiceError) as excinfo:
                client.install_rule("r", event="Query.Commit",
                                    actions=[{"type": "warp_core"}])
            assert excinfo.value.code == E_BAD_REQUEST

    def test_incidents_and_investigate_endpoints(self, service):
        service.sqlcm.incident_manager(IncidentPolicy(sweep_interval=0))
        with connect(service) as client:
            client.install_rule(
                "hot", event="Query.Commit",
                actions=[{"type": "open_incident",
                          "incident_class": "test",
                          "signature": "commit-storm"}])
            client.sql("CREATE TABLE t (id INTEGER PRIMARY KEY)")
            client.sql("INSERT INTO t (id) VALUES (1)")
            client.sql("INSERT INTO t (id) VALUES (2)")
            listing = client.incidents()
            assert listing["enabled"] is True
            [incident] = listing["incidents"]
            assert incident["class"] == "test"
            assert incident["occurrences"] == 2
            one = client.incidents(incident_id=incident["id"])
            assert one["incidents"][0]["timeline"]
            story = client.investigate(incident["id"])
            assert story["incident"]["id"] == incident["id"]
            with pytest.raises(ServiceError) as excinfo:
                client.investigate(999)
            assert excinfo.value.code == E_BAD_REQUEST


# ---------------------------------------------------------------------------
# pushed subscriptions
# ---------------------------------------------------------------------------

class TestPushes:
    def test_stream_alert_push_matches_engine_ring(self, service):
        with connect(service, user="w") as writer, \
                connect(service, user="l") as listener:
            listener.subscribe("stream_alert")
            writer.install_stream(
                "STREAM commits FROM Query.Commit GROUP BY Query.User AS U "
                "WINDOW TUMBLING(0.2) AGG COUNT(*) AS N")
            writer.sql("CREATE TABLE t (id INTEGER PRIMARY KEY)")
            for i in range(3):
                writer.sql(f"INSERT INTO t (id) VALUES ({i})")
            push = listener.wait_push(timeout=WAIT, topic="stream_alert")
            assert push.data["stream"] == "commits"
            assert push.data["kind"] == "window"
            ring = list(service.sqlcm.stream_engine()
                        .query("commits").alerts)
            assert any(a["value"] == push.data["value"]
                       and a["window_start"] == push.data["window_start"]
                       for a in ring)

    def test_unsubscribed_connection_gets_no_pushes(self, service):
        with connect(service) as writer, connect(service) as other:
            writer.install_stream(
                "STREAM s FROM Query.Commit WINDOW TUMBLING(0.2) "
                "AGG COUNT(*) AS N")
            writer.sql("CREATE TABLE t (id INTEGER PRIMARY KEY)")
            writer.sql("INSERT INTO t (id) VALUES (1)")
            wait_until(lambda: service.sqlcm.stream_engine()
                       .alerts_published > 0)
            other.ping()
            writer.ping()
            assert other.drain_pushes() == []
            assert writer.drain_pushes() == []

    def test_unsubscribed_topic_stops_its_pushes(self, service):
        with connect(service) as writer, connect(service) as listener:
            listener.subscribe("stream_alert", "incident")
            assert listener.unsubscribe("stream_alert") == {
                "topics": ["incident"]}
            writer.install_stream(
                "STREAM s FROM Query.Commit WINDOW TUMBLING(0.2) "
                "AGG COUNT(*) AS N")
            writer.sql("CREATE TABLE t (id INTEGER PRIMARY KEY)")
            writer.sql("INSERT INTO t (id) VALUES (1)")
            wait_until(lambda: service.sqlcm.stream_engine()
                       .alerts_published > 0)
            listener.ping()
            assert listener.drain_pushes() == []

    def test_incident_push_lifecycle(self, service):
        service.sqlcm.incident_manager(IncidentPolicy(
            sweep_interval=0.1, clear_after=0.3, escalation_timeout=1e9))
        with connect(service) as client:
            client.subscribe("incident")
            client.install_rule(
                "hot", event="Query.Commit",
                actions=[{"type": "open_incident",
                          "incident_class": "test",
                          "signature": "s"}])
            client.sql("CREATE TABLE t (id INTEGER PRIMARY KEY)")
            client.sql("INSERT INTO t (id) VALUES (1)")
            opened = client.wait_push(timeout=WAIT, topic="incident")
            assert opened.data["phase"] == "opened"
            # no further detections: the sweeper auto-resolves it
            resolved = client.wait_push(timeout=WAIT, topic="incident")
            assert resolved.data["phase"] == "resolved"
            assert resolved.data["incident_id"] == opened.data["incident_id"]

    def test_unknown_topic_rejected(self, service):
        with connect(service) as client:
            with pytest.raises(ServiceError) as excinfo:
                client.subscribe("weather")
            assert excinfo.value.code == E_BAD_REQUEST


# ---------------------------------------------------------------------------
# governed admission: explicit backpressure
# ---------------------------------------------------------------------------

def frozen_governor(service, state):
    """Install a governor pinned to one ladder state (no decisions)."""
    governor = service.sqlcm.enable_governor(GovernorPolicy(
        decision_interval=1e9, window=1e9))
    governor.state = state
    return governor


class TestAdmission:
    def test_best_effort_shed_with_retry_after(self, service):
        service.config.queue_limit = 0  # force the immediate-shed path
        frozen_governor(service, GOV_SHEDDING)
        with connect(service, criticality=BEST_EFFORT) as client:
            with pytest.raises(ServiceError) as excinfo:
                client.sql("SELECT 1 FROM nothing")
            assert excinfo.value.code == E_OVERLOADED
            assert excinfo.value.retry_after > 0.0
        assert service.requests_shed == 1

    def test_normal_admitted_at_shedding(self, service):
        frozen_governor(service, GOV_SHEDDING)
        with connect(service) as client:  # defaults to NORMAL criticality
            client.sql("CREATE TABLE t (id INTEGER PRIMARY KEY)")

    def test_essential_admits_only_critical(self, service):
        service.config.queue_limit = 0
        frozen_governor(service, GOV_ESSENTIAL)
        with connect(service, criticality=CRITICAL) as vip, \
                connect(service) as pleb:
            vip.sql("CREATE TABLE t (id INTEGER PRIMARY KEY)")
            with pytest.raises(ServiceError) as excinfo:
                pleb.sql("SELECT id FROM t")
            assert excinfo.value.code == E_OVERLOADED

    def test_queued_request_admitted_after_recovery(self, service):
        service.config.queue_timeout = 30.0
        governor = frozen_governor(service, GOV_SHEDDING)
        with connect(service, criticality=BEST_EFFORT) as client:
            client.call("ping")
            result = {}

            def blocked_sql():
                try:
                    result["out"] = client.sql("SELECT 1 FROM nothing")
                except ServiceError as err:
                    result["err"] = err

            thread = threading.Thread(target=blocked_sql)
            thread.start()
            assert wait_until(lambda: len(service._queue) == 1)
            governor.state = GOV_NORMAL  # ladder recovers
            thread.join(WAIT)
            assert not thread.is_alive()
            # admitted and executed: a real (SQL-level) error response,
            # not an overloaded rejection
            assert result["err"].code == E_SQL
        assert service.requests_queued_total == 1
        assert service.requests_shed == 0

    def test_queued_request_expires_with_backpressure(self, service):
        service.config.queue_timeout = 0.2  # virtual seconds
        frozen_governor(service, GOV_SHEDDING)
        with connect(service, criticality=BEST_EFFORT) as client:
            with pytest.raises(ServiceError) as excinfo:
                client.sql("SELECT 1 FROM nothing")
            assert excinfo.value.code == E_OVERLOADED
            assert excinfo.value.retry_after > 0.0
        assert service.requests_queued_total == 1

    def test_denied_requests_counted_by_governor(self, service):
        service.config.queue_limit = 0
        governor = frozen_governor(service, GOV_SHEDDING)
        with connect(service, criticality=BEST_EFFORT) as client:
            for __ in range(3):
                with pytest.raises(ServiceError):
                    client.sql("SELECT 1 FROM nothing")
        assert governor.describe()["requests_denied"] == 3


# ---------------------------------------------------------------------------
# session teardown over the wire (satellite: close_session regression)
# ---------------------------------------------------------------------------

class TestDisconnect:
    def test_mid_transaction_disconnect_releases_locks(self, service):
        with connect(service, user="bob") as bob:
            bob.sql("CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)")
            bob.sql("INSERT INTO t (id, v) VALUES (1, 10)")
            alice = connect(service, user="alice")
            alice.sql("BEGIN")
            alice.sql("UPDATE t SET v = 99 WHERE id = 1")
            alice.disconnect_abruptly()
            assert wait_until(
                lambda: service.db.session(alice.session_id) is None)
            # bob is NOT blocked by the vanished session's transaction
            out = bob.sql("UPDATE t SET v = 5 WHERE id = 1")
            assert out["rows_affected"] == 1
            # and the abandoned update was rolled back, not committed
            assert bob.sql("SELECT v FROM t")["rows"] == [[5]]

    def test_disconnect_while_blocked_cleans_up(self, service):
        with connect(service, user="holder") as holder, \
                connect(service, user="bob") as bob:
            holder.sql("CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)")
            holder.sql("INSERT INTO t (id, v) VALUES (1, 0)")
            holder.sql("BEGIN")
            holder.sql("UPDATE t SET v = 1 WHERE id = 1")
            dave = connect(service, user="dave")
            result = {}

            def blocked_update():
                try:
                    result["out"] = dave.sql(
                        "UPDATE t SET v = 2 WHERE id = 1")
                except ServiceError as err:
                    result["err"] = err

            thread = threading.Thread(target=blocked_update)
            thread.start()
            assert wait_until(lambda: any(
                q.state.value == "blocked"
                for q in service.db.active_queries()))
            dave.disconnect_abruptly()
            thread.join(WAIT)
            assert wait_until(
                lambda: service.db.session(dave.session_id) is None)
            holder.sql("COMMIT")
            assert bob.sql("SELECT v FROM t")["rows"] == [[1]]


# ---------------------------------------------------------------------------
# admin cancel over the wire (satellite)
# ---------------------------------------------------------------------------

class TestAdminCancel:
    def test_admin_cancels_blocked_query(self, service):
        with connect(service, user="holder") as holder, \
                connect(service, user="admin") as admin:
            holder.sql("CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)")
            holder.sql("INSERT INTO t (id, v) VALUES (1, 0)")
            holder.sql("BEGIN")
            holder.sql("UPDATE t SET v = 1 WHERE id = 1")
            victim = connect(service, user="victim")
            result = {}

            def blocked_update():
                try:
                    result["out"] = victim.sql(
                        "UPDATE t SET v = 2 WHERE id = 1")
                except ServiceError as err:
                    result["err"] = err

            thread = threading.Thread(target=blocked_update)
            thread.start()
            assert wait_until(lambda: any(
                q.state.value == "blocked"
                for q in service.db.active_queries()))
            [blocked] = [q for q in service.db.active_queries()
                         if q.state.value == "blocked"]
            out = admin.cancel(blocked.query_id)
            assert out == {"query_id": blocked.query_id, "cancelled": True}
            thread.join(WAIT)
            assert result["err"].code == E_SQL
            assert "cancel" in str(result["err"]).lower()
            # honest outcome accounting (PR 5 semantics)
            counters = service.db.obs.metrics.snapshot()["counters"]
            assert counters.get("sqlcm.cancel.requested") == 1
            assert "sqlcm.cancel.failed" not in counters
            holder.sql("COMMIT")
            victim.close()

    def test_non_admin_denied(self, service):
        with connect(service, user="bob") as bob:
            with pytest.raises(ServiceError) as excinfo:
                bob.cancel(1)
            assert excinfo.value.code == E_DENIED

    def test_cancel_unknown_query_is_bad_request(self, service):
        with connect(service, user="admin") as admin:
            with pytest.raises(ServiceError) as excinfo:
                admin.cancel(424242)
            assert excinfo.value.code == E_BAD_REQUEST


# ---------------------------------------------------------------------------
# concurrent multi-client behavior (satellite)
# ---------------------------------------------------------------------------

class TestConcurrentClients:
    N = 6

    def test_interleaved_clients_stay_isolated(self, service):
        with connect(service, user="setup") as setup:
            setup.sql("CREATE TABLE t (id INTEGER PRIMARY KEY, "
                      "owner VARCHAR(16), v INTEGER)")
            setup.install_stream(
                "STREAM commits FROM Query.Commit "
                "GROUP BY Query.User AS U "
                "WINDOW TUMBLING(0.5) AGG COUNT(*) AS N")
        per_client = 5
        errors: list = []

        def worker(idx: int) -> None:
            try:
                client = connect(service, user=f"user{idx}")
                client.subscribe("stream_alert")
                client.install_rule(
                    f"rule{idx}", event="Query.Commit",
                    condition=f"Query.User = 'user{idx}'",
                    actions=[{"type": "send_mail",
                              "text": f"commit by user{idx}",
                              "address": "dba"}])
                for row in range(per_client):
                    client.sql(
                        "INSERT INTO t (id, owner, v) VALUES "
                        f"({idx * 100 + row}, 'user{idx}', {row})")
                out = client.sql(
                    "SELECT id FROM t WHERE owner = @me",
                    params={"me": f"user{idx}"})
                assert len(out["rows"]) == per_client, out
                client.close()
            except Exception as err:  # pragma: no cover - surfaced below
                errors.append((idx, err))

        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(self.N)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(WAIT * 2)
        assert not errors, errors
        # every client's rule was installed and fired independently
        for idx in range(self.N):
            rule = service.sqlcm.rules[f"rule{idx}"]
            assert rule.fire_count >= per_client
        # total rows: every client's inserts landed exactly once
        with connect(service, user="check") as check:
            out = check.sql("SELECT id FROM t")
            assert len(out["rows"]) == self.N * per_client

    def test_pushed_alerts_match_engine_ring(self, service):
        with connect(service, user="w") as writer, \
                connect(service, user="l") as listener:
            listener.subscribe("stream_alert")
            writer.install_stream(
                "STREAM commits FROM Query.Commit WINDOW TUMBLING(0.25) "
                "AGG COUNT(*) AS N")
            writer.sql("CREATE TABLE t (id INTEGER PRIMARY KEY)")
            for i in range(4):
                writer.sql(f"INSERT INTO t (id) VALUES ({i})")
                # ~0.4 virtual seconds per pause: commits land in
                # different tumbling windows
                time.sleep(0.02)
            query = service.sqlcm.stream_engine().query("commits")
            assert wait_until(lambda: len(query.alerts) >= 2)
            expected = {(a["window_start"], a["value"])
                        for a in query.alerts}
            got = set()

            def caught_up():
                for push in listener.drain_pushes(topic="stream_alert"):
                    got.add((push.data["window_start"],
                             push.data["value"]))
                listener.ping()
                return expected <= got

            assert wait_until(caught_up)
            # every pushed alert exists in the engine ring, not just most
            expected = {(a["window_start"], a["value"])
                        for a in query.alerts}
            assert got <= expected


# ---------------------------------------------------------------------------
# end-to-end: blocking storm with ≥ 8 clients (acceptance criteria)
# ---------------------------------------------------------------------------

class TestBlockingStormEndToEnd:
    CLIENTS = 8

    def test_storm_backpressure_incident_and_resolution(self):
        svc = build_service(queue_limit=4, queue_timeout=0.5)
        svc.sqlcm.enable_governor(GovernorPolicy(decision_interval=1e9,
                                                 window=1e9))
        AutoRemediator(
            svc.sqlcm,
            sweep_interval=0.1,
            block_wait_threshold=0.2,
            cancel_blockers=True,
            policy=IncidentPolicy(sweep_interval=0.1, clear_after=0.5,
                                  escalation_timeout=1e9))
        with ServiceRunner(svc):
            with connect(svc, user="setup") as setup:
                setup.sql("CREATE TABLE hot (id INTEGER PRIMARY KEY, "
                          "v INTEGER)")
                setup.sql("INSERT INTO hot (id, v) VALUES (1, 0)")

            # a holder keeps a transaction open on the hot row so every
            # other client piles up behind it; partway through, the
            # governor is pushed to SHEDDING so BEST_EFFORT clients see
            # explicit backpressure instead of silent queueing
            stop = threading.Event()
            outcomes: dict[int, list] = {i: [] for i in range(self.CLIENTS)}
            errors: list = []

            def holder():
                client = connect(svc, user="holder")
                try:
                    while not stop.is_set():
                        client.sql("BEGIN")
                        client.sql("UPDATE hot SET v = v + 1 WHERE id = 1")
                        time.sleep(0.15)
                        try:
                            client.sql("COMMIT")
                        except ServiceError:
                            pass  # a remediation cancel beat us to it
                finally:
                    client.close()

            def contender(idx: int):
                crit = BEST_EFFORT if idx % 2 else "normal"
                try:
                    client = connect(svc, user=f"c{idx}", criticality=crit)
                except Exception as err:  # pragma: no cover
                    errors.append((idx, err))
                    return
                for __ in range(6):
                    if stop.is_set():
                        break
                    try:
                        client.sql("UPDATE hot SET v = v + 1 WHERE id = 1")
                        outcomes[idx].append("ok")
                    except ServiceError as err:
                        outcomes[idx].append(err.code)
                client.close()

            holder_thread = threading.Thread(target=holder)
            holder_thread.start()
            threads = [threading.Thread(target=contender, args=(i,))
                       for i in range(self.CLIENTS)]
            for thread in threads:
                thread.start()
            # partway through, degrade the ladder: BEST_EFFORT requests
            # must now receive queue-or-shed treatment
            time.sleep(0.4)
            svc.sqlcm.governor.state = GOV_SHEDDING
            for thread in threads:
                thread.join(WAIT * 4)
                assert not thread.is_alive(), "a client hung"
            svc.sqlcm.governor.state = GOV_NORMAL
            stop.set()
            holder_thread.join(WAIT)
            assert not holder_thread.is_alive()
            assert not errors, errors

            # (a) every request got an answer: success, an honest SQL
            # error (deadlock/cancel), or explicit backpressure
            for idx, results in outcomes.items():
                assert len(results) == 6, (idx, results)
                assert all(code in ("ok", E_SQL, E_OVERLOADED)
                           for code in results), (idx, results)

            # (b) the storm opened a blocking incident, visible over the
            # wire, and it auto-resolves once the storm stops
            with connect(svc, user="admin") as admin:
                listing = admin.incidents()
                blocking = [i for i in listing["incidents"]
                            if i["class"] == "blocking"]
                assert blocking, listing

                def resolved():
                    inc = admin.incidents()["incidents"]
                    return all(i["resolved_at"] is not None for i in inc
                               if i["class"] == "blocking")

                assert wait_until(resolved, timeout=WAIT * 2)
                # the investigation story is reachable for the incident
                story = admin.investigate(blocking[0]["id"])
                assert story["timeline"]


# ---------------------------------------------------------------------------
# idle-connection reaping (satellite)
# ---------------------------------------------------------------------------

class TestIdleReap:
    def test_mid_transaction_idler_is_reaped_and_rolled_back(self):
        svc = build_service(idle_timeout=1.0)
        with ServiceRunner(svc):
            with connect(svc, user="bob") as bob:
                bob.sql("CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)")
                bob.sql("INSERT INTO t (id, v) VALUES (1, 10)")
                alice = connect(svc, user="alice")
                alice.sql("BEGIN")
                alice.sql("UPDATE t SET v = 99 WHERE id = 1")
                session_id = alice.session_id
                # alice goes silent; bob heartbeats so only alice idles out
                deadline = time.monotonic() + WAIT
                while svc.db.session(session_id) is not None \
                        and time.monotonic() < deadline:
                    bob.ping()
                    time.sleep(0.005)
                assert svc.db.session(session_id) is None
                assert svc.connections_reaped == 1
                counters = bob.metrics()["metrics"]["counters"]
                assert counters.get("sqlcm.service.reaped") == 1
                # the reap tore the transaction down: bob is not blocked
                # and the abandoned update was rolled back, not committed
                out = bob.sql("UPDATE t SET v = 5 WHERE id = 1")
                assert out["rows_affected"] == 1
                assert bob.sql("SELECT v FROM t")["rows"] == [[5]]

    def test_ping_heartbeat_prevents_reap(self):
        svc = build_service(idle_timeout=5.0)
        with ServiceRunner(svc):
            with connect(svc) as client:
                start = svc.db.clock.now
                while svc.db.clock.now - start < 12.0:  # > 2x the timeout
                    client.ping()
                    time.sleep(0.005)
                assert svc.connections_reaped == 0
                assert client.status()["service"]["connections"] == 1

    def test_no_timeout_means_no_reaping(self):
        svc = build_service()  # idle_timeout defaults to None
        with ServiceRunner(svc):
            with connect(svc) as busy:
                idler = connect(svc)
                idler.ping()
                start = svc.db.clock.now
                while svc.db.clock.now - start < 5.0:
                    busy.ping()
                    time.sleep(0.005)
                assert svc.connections_reaped == 0
                assert idler.status()["service"]["connections"] == 2


# ---------------------------------------------------------------------------
# supervised restart: rebuild the monitor, keep the listener
# ---------------------------------------------------------------------------

def build_durable_service(directory, incidents=False,
                          **kwargs) -> MonitorService:
    db = DatabaseServer(ServerConfig(track_completed_queries=True))
    db.enable_observability()
    sqlcm = SQLCM(db)
    if incidents:
        # enabled before the service attaches durability, so the manager
        # is part of checkpoint generation 1 and every recovery
        sqlcm.incident_manager(IncidentPolicy(
            sweep_interval=0.1, clear_after=0.3, escalation_timeout=1e9))
    return MonitorService(db, sqlcm, ServiceConfig(**kwargs),
                          durable_dir=str(directory))


class TestSupervisedRestart:
    def test_restart_preserves_state_and_sockets(self, tmp_path):
        svc = build_durable_service(tmp_path)
        with ServiceRunner(svc):
            with connect(svc, user="admin") as admin:
                admin.install_lat("D_LAT", grouping=["Query.User AS U"],
                                  aggregations=["COUNT(Query.ID) AS N"])
                admin.install_rule(
                    "track", event="Query.Commit",
                    actions=[{"type": "insert", "lat": "D_LAT"}])
                admin.sql("CREATE TABLE t (id INTEGER PRIMARY KEY)")
                admin.sql("INSERT INTO t (id) VALUES (1)")
                old_monitor = svc.sqlcm
                digest = old_monitor.state_digest()
                out = admin.call("restart")
                assert out["state"] == "recovering"
                assert wait_until(lambda: svc.restarts == 1
                                  and svc.state == "running")
                # a genuinely new monitor, carrying the exact old state
                assert svc.sqlcm is not old_monitor
                assert svc.sqlcm.state_digest() == digest
                n_before = svc.sqlcm.lat("D_LAT").rows()[0]["N"]
                # same socket, no re-handshake: requests flow again and
                # keep feeding the rebuilt monitor's rules
                assert admin.sql("SELECT id FROM t")["rows"] == [[1]]
                assert svc.sqlcm.lat("D_LAT").rows()[0]["N"] \
                    == n_before + 1
                status = admin.status()["service"]
                assert status["state"] == "running"
                assert status["restarts"] == 1

    def test_requests_during_recovery_get_recovering_code(self, tmp_path):
        svc = build_durable_service(tmp_path)
        with ServiceRunner(svc):
            with connect(svc) as client:
                client.sql("CREATE TABLE t (id INTEGER PRIMARY KEY)")
                client.sql("INSERT INTO t (id) VALUES (1)")
                svc.state = "recovering"  # hold the gate deterministically
                try:
                    with pytest.raises(ServiceError) as excinfo:
                        client.sql("SELECT id FROM t")
                    assert excinfo.value.code == E_RECOVERING
                    assert excinfo.value.retry_after is not None
                    client.ping()  # heartbeats pass the gate
                    assert client.status()["service"]["state"] \
                        == "recovering"
                finally:
                    svc.state = "running"
                assert client.sql("SELECT id FROM t")["rows"] == [[1]]

    def test_subscriptions_resume_after_restart(self, tmp_path):
        svc = build_durable_service(tmp_path, incidents=True)
        with ServiceRunner(svc):
            with connect(svc, user="admin") as admin:
                admin.subscribe("incident")
                admin.install_rule(
                    "hot", event="Query.Commit",
                    actions=[{"type": "open_incident",
                              "incident_class": "test",
                              "signature": "storm"}])
                admin.sql("CREATE TABLE t (id INTEGER PRIMARY KEY)")
                admin.sql("INSERT INTO t (id) VALUES (1)")
                opened = admin.wait_push(timeout=WAIT, topic="incident")
                assert opened.data["phase"] == "opened"
                admin.drain_pushes()
                admin.call("restart")
                assert wait_until(lambda: svc.restarts == 1
                                  and svc.state == "running")
                # the standing subscription delivers pushes from the
                # rebuilt monitor without re-subscribing
                admin.sql("INSERT INTO t (id) VALUES (2)")
                push = admin.wait_push(timeout=WAIT, topic="incident")
                assert push.topic == "incident"

    def test_restart_requires_durability_and_admin(self, tmp_path):
        svc = build_service()  # no durability directory
        with ServiceRunner(svc):
            with connect(svc, user="admin") as admin:
                with pytest.raises(ServiceError) as excinfo:
                    admin.call("restart")
                assert excinfo.value.code == E_BAD_REQUEST
        durable = build_durable_service(tmp_path)
        with ServiceRunner(durable):
            with connect(durable, user="mallory") as mallory:
                with pytest.raises(ServiceError) as excinfo:
                    mallory.call("restart")
                assert excinfo.value.code == E_DENIED
            assert durable.restarts == 0
