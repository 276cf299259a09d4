"""Session manager: handshake validation, identity, idle, drain."""

import pytest

from repro.service.daemon import ServiceConfig, ServiceDaemon
from repro.service.protocol import PROTOCOL_VERSION, Request
from repro.service.sessions import HandshakeError, SessionManager


def hello(**over):
    payload = {"protocol": PROTOCOL_VERSION, "user": ""}
    payload.update(over)
    return payload


class TestHandshake:
    def test_anonymous_session_opens(self):
        manager = SessionManager()
        session = manager.open(hello(), known_users=set())
        assert session.user == ""
        assert len(manager) == 1

    def test_known_user_opens(self):
        manager = SessionManager()
        session = manager.open(hello(user="alice"), known_users={"alice"})
        assert session.user == "alice"

    def test_unknown_user_denied(self):
        manager = SessionManager()
        with pytest.raises(HandshakeError, match="unknown user"):
            manager.open(hello(user="mallory"), known_users={"alice"})
        assert manager.total_rejected == 1

    def test_protocol_mismatch_denied(self):
        manager = SessionManager()
        with pytest.raises(HandshakeError, match="protocol version"):
            manager.open(hello(protocol=99), known_users=set())

    def test_missing_protocol_denied(self):
        manager = SessionManager()
        with pytest.raises(HandshakeError):
            manager.open({"user": ""}, known_users=set())

    def test_non_string_user_denied(self):
        manager = SessionManager()
        with pytest.raises(HandshakeError, match="must be a string"):
            manager.open(hello(user=7), known_users=set())

    def test_session_ids_are_unique(self):
        manager = SessionManager()
        a = manager.open(hello(), known_users=set())
        b = manager.open(hello(), known_users=set())
        assert a.session_id != b.session_id


class TestLifecycle:
    def test_close_removes(self):
        manager = SessionManager()
        session = manager.open(hello(), known_users=set())
        manager.close(session)
        assert len(manager) == 0

    def test_idle_expiry(self):
        manager = SessionManager(idle_timeout=10.0)
        session = manager.open(hello(), known_users=set())
        assert not manager.idle_expired(session, now=session.last_active_ts + 5)
        assert manager.idle_expired(session, now=session.last_active_ts + 11)

    def test_touch_resets_idle_clock_and_counts_nothing(self):
        """A session keeps its idle clock only: its requests and their
        outcomes are counted in the daemon's ledger, under
        ``by_session``."""
        manager = SessionManager(idle_timeout=10.0)
        session = manager.open(hello(), known_users=set())
        before = session.last_active_ts
        session.touch()
        assert session.last_active_ts >= before
        assert not {"requests", "errors"} & set(session.to_dict())

    def test_drain_rejects_new_sessions(self):
        manager = SessionManager()
        manager.begin_drain()
        with pytest.raises(HandshakeError, match="draining"):
            manager.open(hello(), known_users=set())

    def test_status_reports_sessions(self):
        manager = SessionManager()
        manager.open(hello(user="alice"), known_users={"alice"}, peer="unix")
        status = manager.status()
        assert status["active"] == 1
        assert status["sessions"][0]["user"] == "alice"

    def test_shutdown_op_marks_the_session(self, tmp_path):
        """A fresh session does not want the daemon drained; the
        ``shutdown`` op sets the flag the connection loop reads once the
        acknowledgement is sent."""
        manager = SessionManager()
        session = manager.open(hello(), known_users=set())
        assert session.wants_shutdown is False
        daemon = ServiceDaemon(ServiceConfig(root=str(tmp_path)))
        response = daemon._handle_control(session, Request(op="shutdown", id=1))
        assert response.ok and response.data == {"stopping": True}
        assert session.wants_shutdown is True
