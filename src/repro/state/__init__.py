"""Pluggable durable-state backends for the serving tier.

Public surface:

* :class:`~repro.state.backend.StateBackend` — the document-store
  contract every backend implements (and ``tests/state``'s conformance
  suite enforces);
* :func:`~repro.state.backend.open_backend` /
  :data:`~repro.state.backend.BACKEND_KINDS` — the factory behind
  ``serve --backend file|sqlite``;
* :class:`~repro.state.filestate.FileBackend` — the historical
  one-JSON-file-per-document layout, extracted behavior-preserving;
* :class:`~repro.state.sqlitestate.SQLiteBackend` — WAL-mode SQLite
  with per-key row transactions instead of a global store lock;
* :mod:`~repro.state.fsio` — the single home of the mkstemp + fsync +
  atomic-rename + quarantine rituals every file-based store shares;
* :mod:`~repro.state.jsondoc` — the one compact JSON encoder the
  session and job stores share, and the assembler that splices a
  session's cached, already-encoded designs into its document.
"""

from .backend import BACKEND_KINDS, StateBackend, open_backend
from .filestate import FileBackend, validate_doc_key
from .sqlitestate import SQLiteBackend

__all__ = [
    "BACKEND_KINDS",
    "FileBackend",
    "SQLiteBackend",
    "StateBackend",
    "open_backend",
    "validate_doc_key",
]
