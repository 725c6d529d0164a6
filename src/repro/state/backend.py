"""The ``StateBackend`` contract: every durable document in one place.

PowerPlay's server-side state is a set of *named JSON documents* in a
handful of *namespaces*:

==============  ==============================  ==========================
namespace       key                             written by
==============  ==============================  ==========================
``users``       validated username              :class:`repro.web.session.UserStore`
``jobs``        ``job-NNNN`` id (manifest)      :class:`repro.explore.jobs.JobStore`
``jobs-parts``  ``job-NNNN.<token>.<n>``        :class:`repro.explore.jobs.JobStore`
``registry``    ``kind--name--vN`` / ``pins``   :class:`repro.registry.store.MirrorStore`
==============  ==============================  ==========================

(The telemetry history's sealed segments follow the same atomic-
document discipline via :mod:`repro.state.fsio`, but its fsynced
append-only journal is file-native by design — row-per-append storage
would change its torn-tail recovery semantics, so the history store
stays on the shared file rituals in both backends.)

A :class:`StateBackend` stores those documents.  The contract every
implementation must honor (and that ``tests/state``'s conformance
suite enforces against all of them):

* **atomic, durable saves** — a reader (or a process that crashed and
  restarted) sees either the previous complete document or the new
  complete document, never a torn or interleaved one;
* **last-writer-wins per key**, with :meth:`lock` providing the mutual
  exclusion a read-modify-write cycle needs *within* a process (cross-
  process exclusion is structural: the pre-fork front shards users so
  one worker owns each key — see :mod:`repro.web.prefork`);
* **quarantine, never silent loss** — when a caller finds a document
  unparseable it calls :meth:`quarantine`; the damaged payload is
  moved aside (file: ``*.corrupt[-N]``; SQLite: a quarantine table),
  recorded in :attr:`quarantined`, and the key reads as absent
  afterwards;
* **no invented state** — :meth:`load` returns ``None`` for an absent
  key rather than raising, so stores can lazily create.

Two stdlib-only implementations ship:

* :class:`~repro.state.filestate.FileBackend` — the historical layout,
  extracted verbatim: one ``<key>.json`` per document, mkstemp + fsync
  + atomic rename + directory fsync (:mod:`repro.state.fsio`).
* :class:`~repro.state.sqlitestate.SQLiteBackend` — one SQLite
  database in WAL mode with per-key rows; saves are single-row
  transactions, so writers block on a row, not on a global store lock.
"""

from __future__ import annotations

import threading
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple, Union

from ..errors import StateError

#: the backend kinds ``open_backend`` (and ``serve --backend``) accept
BACKEND_KINDS = ("file", "sqlite")

#: one quarantine record: (namespace, key, where-the-bytes-went, reason)
QuarantineRecord = Tuple[str, str, str, str]


class StateBackend:
    """Abstract durable document store (see module docstring)."""

    #: which ``BACKEND_KINDS`` entry this implementation is
    kind: str = "abstract"

    def __init__(self) -> None:
        self._key_locks: Dict[Tuple[str, str], threading.RLock] = {}
        self._key_locks_guard = threading.Lock()
        #: every document this backend quarantined since it was opened
        self.quarantined: List[QuarantineRecord] = []

    # -- documents ---------------------------------------------------------

    def save(self, namespace: str, key: str, text: str) -> None:
        """Atomically and durably replace one document."""
        raise NotImplementedError

    def load(self, namespace: str, key: str) -> Optional[str]:
        """The document's current text, or ``None`` when absent."""
        raise NotImplementedError

    def delete(self, namespace: str, key: str) -> bool:
        """Remove one document; ``True`` if it existed."""
        raise NotImplementedError

    def keys(self, namespace: str) -> List[str]:
        """All document keys in a namespace, sorted."""
        raise NotImplementedError

    def mtime(self, namespace: str, key: str) -> Optional[float]:
        """Seconds-epoch of the last save, or ``None`` when absent."""
        raise NotImplementedError

    def quarantine(self, namespace: str, key: str, reason: str) -> str:
        """Move a damaged document aside; returns a location label.

        After this returns, :meth:`load` yields ``None`` for the key
        and the damaged bytes are preserved at the returned location
        (a file path for the file backend, a ``namespace/key@qN`` row
        label for SQLite).  Quarantining an absent key is a no-op that
        returns an empty string.
        """
        raise NotImplementedError

    # -- coordination ------------------------------------------------------

    def lock(self, namespace: str, key: str) -> threading.RLock:
        """The in-process lock serializing read-modify-write on a key.

        Backends share this implementation: one re-entrant lock per
        (namespace, key), created on first use.  This is *in-process*
        mutual exclusion; cross-process exclusion is the pre-fork
        front's user-keyed sharding, not a backend promise.
        """
        ref = (namespace, key)
        with self._key_locks_guard:
            lock = self._key_locks.get(ref)
            if lock is None:
                lock = self._key_locks[ref] = threading.RLock()
            return lock

    # -- lifecycle / health ------------------------------------------------

    def writable(self) -> bool:
        """Can this backend still persist documents?"""
        raise NotImplementedError

    def flush(self) -> None:
        """Push any buffered durability work to disk (default: none)."""

    def close(self) -> None:
        """Release resources (default: none).  Safe to call twice."""

    def quarantined_in(self, namespace: str) -> List[QuarantineRecord]:
        """This backend's quarantine records for one namespace."""
        return [
            record for record in self.quarantined if record[0] == namespace
        ]

    def __enter__(self) -> "StateBackend":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def open_backend(
    spec: Union[str, StateBackend, None], root: Path
) -> StateBackend:
    """Resolve a backend spec to a live backend rooted at ``root``.

    ``spec`` may be an already-open :class:`StateBackend` (returned
    as-is), a kind name from :data:`BACKEND_KINDS`, or ``None``/""
    (the file default).
    """
    if isinstance(spec, StateBackend):
        return spec
    kind = (spec or "file").strip().lower()
    if kind == "file":
        from .filestate import FileBackend

        return FileBackend(Path(root))
    if kind == "sqlite":
        from .sqlitestate import SQLiteBackend

        return SQLiteBackend(Path(root))
    raise StateError(
        f"unknown state backend {spec!r}; choose from {BACKEND_KINDS}"
    )
