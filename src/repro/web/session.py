"""Per-user sessions and server-side state.

"Since WWW browsers do not supply user names, when PowerPlay is
initially accessed the user must identify her/himself.  The username is
passed to a Perl script which retrieves the individual user's defaults
from the PowerPlay server's local file system.  These user defaults
include the relevant hardware libraries and any previously generated
designs."

:class:`UserStore` reproduces exactly that: one compact JSON document
per user (by default a file under a server-local directory), holding

* ``defaults`` — per-model parameter defaults remembered across visits
  ("A Perl script updates the user defaults ...");
* ``designs`` — serialized designs (via :mod:`repro.library.designio`);
* ``models`` — the user's self-defined primitives (library payloads).

The document is re-saved after every change, but a change touches one
design at most, so each session keeps every design's encoded text and
re-encodes a design only after :meth:`UserSession.put_design` (or
:meth:`~UserSession.delete_design`, :meth:`~UserSession.load_payload`)
drops it.  Designs are therefore changed through ``put_design``: edit
the design in place, then put it back.  The saved text is
byte-identical to ``jsondoc.dumps(session.to_payload())``; documents
that earlier versions wrote with indentation load unchanged.
"""

from __future__ import annotations

import hashlib
import hmac
import json
import os
import re
import threading
from pathlib import Path
from typing import Dict, List, Mapping, Optional

from ..core.design import Design
from ..errors import PowerPlayError, SessionError
from ..state import jsondoc, open_backend
from ..library.catalog import Library, LibraryEntry
from ..library.designio import design_from_payload, design_to_payload
from ..obs import get_logger, get_registry, span

_LOG = get_logger("session")


def _metric_sessions():
    return get_registry().counter(
        "powerplay_session_ops_total",
        "Session store operations (save, load, create, quarantine).",
        ("op",),
    )

# \Z, not $: "$" also matches before a trailing newline, which would
# let "alice\n" through and put a newline in a file name
_USERNAME_RE = re.compile(r"^[A-Za-z][A-Za-z0-9_.-]{0,31}\Z")


def validate_username(username: str) -> str:
    """Usernames become file names — keep them strictly boring."""
    if not isinstance(username, str) or not _USERNAME_RE.match(username):
        raise SessionError(
            f"invalid username {username!r}: use 1-32 letters, digits, "
            "'_', '.', '-', starting with a letter"
        )
    return username


class UserSession:
    """One user's mutable server-side state.

    The server is threaded, so one user's browser (or several tabs, or
    a scripted client) can hit the server concurrently.  :attr:`lock`
    serializes this session's mutations *and* its persistence: every
    mutator holds it through ``save()``, so the JSON snapshot written to
    disk is always internally consistent and saves for one user land in
    mutation order — no lost updates from an older payload racing past
    a newer one.  Re-entrant, because mutators call ``save()`` which
    re-acquires it.
    """

    def __init__(self, username: str, store: "UserStore"):
        self.username = validate_username(username)
        self._store = store
        self.lock = threading.RLock()
        self.defaults: Dict[str, Dict[str, float]] = {}
        self.designs: Dict[str, Design] = {}
        self.user_library = Library(
            f"{username}_models", f"models defined by {username}"
        )
        #: optional password protection — "PowerPlay can provide
        #: password-restricted access".  Stored as salted SHA-256.
        self._password_salt: str = ""
        self._password_hash: str = ""
        #: design name -> (design, its encoded payload); see to_json()
        self._encoded: Dict[str, tuple] = {}

    # -- password protection ---------------------------------------------

    @property
    def has_password(self) -> bool:
        return bool(self._password_hash)

    @staticmethod
    def _digest(salt: str, password: str) -> str:
        return hashlib.sha256((salt + password).encode("utf-8")).hexdigest()

    def set_password(self, password: str) -> None:
        """Protect this user's designs with a password."""
        if not password or len(password) < 4:
            raise SessionError("password must be at least 4 characters")
        with self.lock:
            self._password_salt = os.urandom(8).hex()
            self._password_hash = self._digest(self._password_salt, password)
            self.save()

    def clear_password(self, current: str) -> None:
        if not self.check_password(current):
            raise SessionError("wrong password")
        with self.lock:
            self._password_salt = ""
            self._password_hash = ""
            self.save()

    def check_password(self, password: str) -> bool:
        """True when access should be granted."""
        if not self.has_password:
            return True
        candidate = self._digest(self._password_salt, password or "")
        return hmac.compare_digest(candidate, self._password_hash)

    # -- defaults ---------------------------------------------------------

    def defaults_for(self, model_name: str) -> Dict[str, float]:
        with self.lock:
            return dict(self.defaults.get(model_name, {}))

    def remember_defaults(self, model_name: str, values: Mapping[str, float]) -> None:
        with self.lock:
            merged = self.defaults.setdefault(model_name, {})
            for key, value in values.items():
                merged[key] = float(value)
            self.save()

    # -- designs ------------------------------------------------------------

    def design(self, name: str) -> Design:
        design = self.designs.get(name)
        if design is None:
            raise SessionError(
                f"user {self.username!r} has no design {name!r}"
            )
        return design

    def put_design(self, design: Design) -> None:
        """Store (or re-store, after in-place edits) one design and save."""
        with self.lock:
            self.designs[design.name] = design
            # drop every cached text of this name or this object: the
            # caller may have edited the design in place
            self._encoded = {
                name: cached for name, cached in self._encoded.items()
                if name != design.name and cached[0] is not design
            }
            self.save()

    def delete_design(self, name: str) -> None:
        with self.lock:
            if name not in self.designs:
                raise SessionError(
                    f"user {self.username!r} has no design {name!r}"
                )
            del self.designs[name]
            self._encoded.pop(name, None)
            self.save()

    # -- persistence ----------------------------------------------------------

    def _header(self) -> dict:
        """The payload members before ``designs``, in document order."""
        return {
            "format": "powerplay-user/1",
            "username": self.username,
            "password_salt": self._password_salt,
            "password_hash": self._password_hash,
            "defaults": self.defaults,
        }

    def _models(self) -> list:
        return [entry.to_payload() for entry in self.user_library]

    def to_payload(self) -> dict:
        payload = self._header()
        payload["designs"] = {
            name: design_to_payload(design)
            for name, design in self.designs.items()
        }
        payload["models"] = self._models()
        return payload

    def to_json(self) -> str:
        """The saved text: ``jsondoc.dumps(self.to_payload())``, with
        each design encoded once per :meth:`put_design`."""
        with self.lock:
            parts = {
                key: jsondoc.dumps(value)
                for key, value in self._header().items()
            }
            designs = {}
            for name, design in self.designs.items():
                cached = self._encoded.get(name)
                if cached is None or cached[0] is not design:
                    cached = self._encoded[name] = (
                        design, jsondoc.dumps(design_to_payload(design))
                    )
                designs[name] = cached[1]
            parts["designs"] = jsondoc.assemble(designs)
            parts["models"] = jsondoc.dumps(self._models())
            return jsondoc.assemble(parts)

    def load_payload(self, payload: Mapping) -> None:
        if payload.get("format") != "powerplay-user/1":
            raise SessionError(
                f"corrupt state for user {self.username!r}: "
                f"format {payload.get('format')!r}"
            )
        self._password_salt = payload.get("password_salt", "")
        self._password_hash = payload.get("password_hash", "")
        self.defaults = {
            model: {k: float(v) for k, v in values.items()}
            for model, values in payload.get("defaults", {}).items()
        }
        self.designs = {}
        self._encoded = {}
        for name, design_payload in payload.get("designs", {}).items():
            self.designs[name] = design_from_payload(design_payload)
        self.user_library = Library(
            f"{self.username}_models", f"models defined by {self.username}"
        )
        for entry_payload in payload.get("models", []):
            self.user_library.add(LibraryEntry.from_payload(entry_payload))

    def save(self) -> None:
        # hold this session's lock across serialize-and-write so (a) the
        # payload is a consistent snapshot and (b) two threads saving the
        # same user cannot persist their snapshots out of order
        with self.lock:
            self._store.save_session(self)


class UserStore:
    """Backend-backed session registry: one JSON document per user.

    Durable storage is delegated to a
    :class:`~repro.state.backend.StateBackend` (namespace ``"users"``).
    The default is the historical file layout — one ``<user>.json``
    under ``root``, written with the mkstemp + fsync + atomic-rename
    ritual — so a store created by any earlier version opens unchanged;
    ``serve --backend sqlite`` swaps in WAL-mode SQLite without this
    class changing shape.  Documents are written as compact JSON
    (:meth:`UserSession.to_json`); the indented documents earlier
    versions wrote are read by the same ``json.loads``.

    A state document that is unreadable (disk damage, manual edits, a
    foreign format) is **quarantined**, not fatal: the backend moves
    the bytes aside (file: ``<user>.json.corrupt[-N]``; SQLite: a
    quarantine table), the event is recorded in :attr:`quarantined`,
    and the user gets a fresh session — the web service keeps running
    and the damaged bytes are preserved for inspection.
    """

    NAMESPACE = "users"

    def __init__(self, root: Path, backend=None):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.backend = open_backend(backend, self.root)
        self._sessions: Dict[str, UserSession] = {}
        self._lock = threading.Lock()
        #: ``[(username, quarantine location, reason), ...]`` — every
        #: corrupt state document set aside since this store was created
        self.quarantined: List[tuple] = []

    def known_users(self) -> List[str]:
        return self.backend.keys(self.NAMESPACE)

    def read_disk(self, username: str) -> Optional[str]:
        """The durable (backend) copy of one user's state, unparsed.

        The oracle's torn-file check compares this byte-for-byte
        against the in-memory session, whichever backend is in play.
        """
        return self.backend.load(self.NAMESPACE, validate_username(username))

    def flush(self) -> int:
        """Persist every loaded session; returns how many were saved.

        The graceful-drain hook: handlers save after each mutation, so
        this is normally a re-save of already-persisted state — but a
        drain must not depend on "normally".
        """
        with self._lock:
            sessions = list(self._sessions.values())
        for session in sessions:
            session.save()
        return len(sessions)

    def _quarantine(self, username: str, reason: str) -> str:
        target = self.backend.quarantine(self.NAMESPACE, username, reason)
        self.quarantined.append((username, Path(target), reason))
        _metric_sessions().inc(op="quarantine")
        _LOG.warning(
            "quarantine", user=username, moved_to=str(target), reason=reason
        )
        return target

    def session(self, username: str) -> UserSession:
        """Fetch (or lazily create) a user's session."""
        username = validate_username(username)
        with self._lock:
            session = self._sessions.get(username)
            if session is not None:
                return session
            session = UserSession(username, self)
            text = self.backend.load(self.NAMESPACE, username)
            if text is not None:
                try:
                    payload = json.loads(text)
                    session.load_payload(payload)
                    _metric_sessions().inc(op="load")
                    _LOG.debug("load", user=username)
                except (
                    json.JSONDecodeError,
                    PowerPlayError,
                    ValueError,
                    TypeError,
                    AttributeError,
                    KeyError,
                ) as exc:
                    self._quarantine(username, str(exc))
                    # load_payload may have half-populated the session
                    # before failing — start over from a clean one
                    session = UserSession(username, self)
            else:
                _metric_sessions().inc(op="create")
                _LOG.debug("create", user=username)
            self._sessions[username] = session
            return session

    def save_session(self, session: UserSession) -> None:
        """Atomically persist one user's state (crash- and race-safe).

        The payload is fully serialized *before* the backend is
        touched, and the backend's save is atomic and durable (file:
        unique mkstemp temp + fsync + atomic rename; SQLite: one
        fsynced row transaction) — a crash at any instant leaves either
        the previous complete document or the new complete one, never a
        torn or interleaved one.  The backend's per-key lock keeps two
        threads saving the same user from landing out of order.
        """
        with span("session.save", user=session.username):
            with span("session.encode"):
                text = session.to_json()
            with span("state.write", namespace=self.NAMESPACE), \
                    self.backend.lock(self.NAMESPACE, session.username):
                self.backend.save(self.NAMESPACE, session.username, text)
        _metric_sessions().inc(op="save")
        _LOG.debug("save", user=session.username, bytes=len(text))

    def forget(self, username: str) -> None:
        """Drop the in-memory session (state file remains)."""
        with self._lock:
            self._sessions.pop(username, None)
