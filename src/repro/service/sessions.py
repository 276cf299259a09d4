"""Session management: handshake, identity, idle timeout, drain.

A connection becomes a *session* only after a valid ``hello``::

    {"id": 1, "op": "hello", "protocol": 1, "user": "alice"}

The handshake pins the protocol version (mismatches are rejected before
any command can run) and establishes the authenticated user identity
for the whole session: commits journal and author as that user, private
CVDs are checked against it, and ``whoami`` answers per session rather
than from the repository's single global login. An empty user is the
anonymous session (same rights as a logged-out CLI). A *named* user
must exist in the repository's access controller — the daemon refuses
identities it has never heard of with ``denied``.

Idle sessions are reaped: each connection carries a socket timeout, and
when a session has been silent past ``idle_timeout`` the daemon closes
it (clients reconnect transparently). On SIGTERM the manager flips to
*draining*: no new sessions, existing ones get ``shutdown`` responses.
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass, field

from repro import telemetry
from repro.service.protocol import PROTOCOL_VERSION

#: Sessions silent for longer than this are closed (seconds).
DEFAULT_IDLE_TIMEOUT = 300.0


class HandshakeError(ValueError):
    """The hello was malformed, version-mismatched, or named an
    unknown user."""


@dataclass
class Session:
    """One authenticated connection."""

    session_id: int
    user: str = ""
    peer: str = ""
    created_ts: float = field(default_factory=telemetry.now)
    last_active_ts: float = field(default_factory=telemetry.now)
    requests: int = 0
    #: Requests this session answered with a non-ok status (busy sheds,
    #: errors, deadline/degraded refusals) — a per-client failure lens.
    errors: int = 0
    closed: bool = False

    def touch(self) -> None:
        self.last_active_ts = telemetry.now()
        self.requests += 1

    def to_dict(self) -> dict:
        return {
            "session_id": self.session_id,
            "user": self.user,
            "peer": self.peer,
            "created_ts": self.created_ts,
            "last_active_ts": self.last_active_ts,
            "requests": self.requests,
            "errors": self.errors,
        }


class SessionManager:
    """Tracks live sessions for one daemon."""

    def __init__(self, idle_timeout: float = DEFAULT_IDLE_TIMEOUT) -> None:
        self.idle_timeout = idle_timeout
        self._lock = threading.Lock()
        self._sessions: dict[int, Session] = {}
        self._ids = itertools.count(1)
        self._draining = False
        self.total_opened = 0
        self.total_idle_closed = 0
        self.total_rejected = 0

    # ------------------------------------------------------------------
    def open(self, hello: dict, known_users, peer: str = "") -> Session:
        """Validate a hello payload and register the session.

        ``known_users`` is a container supporting ``in`` (the access
        controller's registered user names).
        """
        if self._draining:
            self.total_rejected += 1
            raise HandshakeError("daemon is draining; reconnect later")
        protocol = hello.get("protocol")
        if protocol != PROTOCOL_VERSION:
            self.total_rejected += 1
            raise HandshakeError(
                f"protocol version mismatch: client sent {protocol!r}, "
                f"server speaks {PROTOCOL_VERSION}"
            )
        user = hello.get("user") or ""
        if not isinstance(user, str):
            self.total_rejected += 1
            raise HandshakeError("'user' must be a string")
        if user and user not in known_users:
            self.total_rejected += 1
            raise HandshakeError(
                f"unknown user {user!r}; create it first "
                f"(orpheus create_user)"
            )
        with self._lock:
            session = Session(
                session_id=next(self._ids), user=user, peer=peer
            )
            self._sessions[session.session_id] = session
            self.total_opened += 1
        return session

    def close(self, session: Session) -> None:
        session.closed = True
        with self._lock:
            self._sessions.pop(session.session_id, None)

    def idle_expired(self, session: Session, now: float | None = None) -> bool:
        now = telemetry.now() if now is None else now
        return (now - session.last_active_ts) > self.idle_timeout

    def note_idle_close(self) -> None:
        self.total_idle_closed += 1

    # ------------------------------------------------------------------
    def begin_drain(self) -> None:
        self._draining = True

    @property
    def draining(self) -> bool:
        return self._draining

    def active(self) -> list[Session]:
        with self._lock:
            return list(self._sessions.values())

    def __len__(self) -> int:
        with self._lock:
            return len(self._sessions)

    def status(self) -> dict:
        with self._lock:
            sessions = [s.to_dict() for s in self._sessions.values()]
        return {
            "active": len(sessions),
            "idle_timeout": self.idle_timeout,
            "total_opened": self.total_opened,
            "total_idle_closed": self.total_idle_closed,
            "total_rejected": self.total_rejected,
            "sessions": sessions,
        }
