"""Server-side sessions: a pinned policy and a stable seed per client.

A session is the serving tier's unit of *repeatability*: the client
registers an :class:`~repro.engine.policy.ExecutionPolicy` once
(``POST /session``) and every subsequent request referencing the
session id runs under exactly that policy.  Two things follow:

* **Plan-cache locality** — a session's queries keep the same method,
  ratio and plan-search knobs, so repeated query shapes from one client
  land on the same :class:`~repro.engine.cache.PlanCache` buckets and
  skip plan search after the first hit;
* **Determinism** — a session policy without an explicit seed is
  assigned one at creation, derived from the session id and the
  configured salt, so "the same query again" returns byte-identical
  answers for the session's lifetime (the effective policy, seed
  included, is echoed back to the client at creation).

The store is bounded (LRU beyond ``max_sessions``) and idle sessions
expire after ``ttl_seconds``; both limits hot-reload from
:class:`~repro.serve.config.ServeConfig`.
"""

from __future__ import annotations

import hashlib
import itertools
import secrets
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, Optional

from ..core.pool import _SEED_MOD
from ..engine.policy import ExecutionPolicy


class UnknownSessionError(KeyError):
    """The request referenced a session id that is not live (HTTP 404)."""


def derive_session_seed(session_id: str, salt: int) -> int:
    """A deterministic seed for a session (stable across restarts for
    the same id and salt)."""
    digest = hashlib.blake2b(f"{salt}:{session_id}".encode("utf-8"),
                             digest_size=8).digest()
    return int.from_bytes(digest, "big") % _SEED_MOD


@dataclass
class Session:
    """One client's pinned execution context."""

    session_id: str
    policy: ExecutionPolicy
    tenant: str = "default"
    created_at: float = 0.0
    last_used: float = 0.0
    requests: int = 0
    #: Extra client-supplied metadata, echoed back verbatim.
    labels: dict = field(default_factory=dict)

    def describe(self) -> dict:
        return {
            "session": self.session_id,
            "tenant": self.tenant,
            "policy": self.policy.to_dict(),
            "requests": self.requests,
            "labels": dict(self.labels),
        }


class SessionStore:
    """Bounded, TTL-expiring session registry (thread-safe)."""

    def __init__(self, max_sessions: int = 10_000,
                 ttl_seconds: float = 3600.0, seed_salt: int = 0,
                 clock: Callable[[], float] = time.monotonic):
        self.max_sessions = max_sessions
        self.ttl_seconds = ttl_seconds
        self.seed_salt = seed_salt
        self._clock = clock
        self._sessions: "OrderedDict[str, Session]" = OrderedDict()
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self.created = 0
        self.expired = 0
        self.evicted = 0

    def configure(self, max_sessions: int, ttl_seconds: float,
                  seed_salt: int) -> None:
        """Hot-reload hook: re-bound the store (evicting if shrunk)."""
        with self._lock:
            self.max_sessions = max_sessions
            self.ttl_seconds = ttl_seconds
            self.seed_salt = seed_salt
            self._evict_locked()

    def create(self, policy: ExecutionPolicy, tenant: str = "default",
               labels: Optional[dict] = None) -> Session:
        """Register a session; seedless policies get a derived seed."""
        session_id = f"s{next(self._ids):06d}-{secrets.token_hex(4)}"
        if policy.seed is None:
            policy = policy.replace(
                seed=derive_session_seed(session_id, self.seed_salt))
        now = self._clock()
        session = Session(session_id=session_id,
                          policy=policy.validate(), tenant=tenant,
                          created_at=now, last_used=now,
                          labels=dict(labels or {}))
        with self._lock:
            self._sessions[session_id] = session
            self.created += 1
            self._evict_locked()
        return session

    def get(self, session_id: str) -> Session:
        """Look up a live session (refreshing its TTL and LRU slot)."""
        now = self._clock()
        with self._lock:
            self._sweep_locked(now)
            session = self._sessions.get(session_id)
            if session is None:
                raise UnknownSessionError(session_id)
            session.last_used = now
            session.requests += 1
            self._sessions.move_to_end(session_id)
            return session

    def remove(self, session_id: str) -> bool:
        with self._lock:
            return self._sessions.pop(session_id, None) is not None

    def _sweep_locked(self, now: float) -> None:
        expired = [sid for sid, session in self._sessions.items()
                   if now - session.last_used > self.ttl_seconds]
        for sid in expired:
            del self._sessions[sid]
        self.expired += len(expired)

    def _evict_locked(self) -> None:
        while len(self._sessions) > self.max_sessions:
            self._sessions.popitem(last=False)
            self.evicted += 1

    def sweep(self) -> None:
        """Expire idle sessions now (the watchdog calls this)."""
        with self._lock:
            self._sweep_locked(self._clock())

    def __len__(self) -> int:
        with self._lock:
            return len(self._sessions)

    def stats(self) -> dict:
        with self._lock:
            return {"live": len(self._sessions),
                    "max_sessions": self.max_sessions,
                    "created": self.created, "expired": self.expired,
                    "evicted": self.evicted}
