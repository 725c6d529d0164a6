"""The file backend: the historical on-disk layout, extracted.

One ``<key>.json`` per document.  The layout is *exactly* what the
stores wrote before the :class:`~repro.state.backend.StateBackend`
interface existed, so a state directory created by any earlier version
opens unchanged under this backend.  The backend stores whatever text
a store hands it; the session and job stores now write compact JSON
(:mod:`repro.state.jsondoc`) where earlier versions wrote indented
JSON, and read both.  The paths:

* ``users``    -> ``<root>/<user>.json`` (sessions live at the root,
  as they have since PR 1);
* ``jobs``     -> ``<root>/jobs/<job-id>.json``, and the jobs' part
  documents (``jobs-parts``) -> ``<root>/jobs/parts/<key>.json``;
* ``registry`` -> ``<root>/registry/<kind>--<name>--vN.json`` and
  ``<root>/registry/pins.json``.

Durability is :mod:`repro.state.fsio`'s atomic-write ritual (mkstemp +
fsync + atomic rename + directory fsync); quarantine is the historical
``<key>.json.corrupt[-N]`` rename.  Nothing here takes a global lock
around file IO: ``os.replace`` is atomic per key, so concurrent saves
of *different* keys proceed in parallel, and concurrent saves of the
*same* key are last-writer-wins with no interleaving — the old global
store lock only ever protected Python dict state, which now lives in
the stores, not the backend.
"""

from __future__ import annotations

import re
from pathlib import Path
from typing import Dict, List, Mapping, Optional

from ..errors import StateError
from . import fsio
from .backend import StateBackend

#: document keys become file names — keep them strictly boring.  The
#: callers already validate (usernames, job ids, artifact refs); this
#: is the backend's own defense in depth.
_KEY_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.@-]{0,127}\Z")

#: namespace -> subdirectory relative to the root.  ``.`` means the
#: root itself (the sessions' historical home); job parts sit under the
#: jobs directory, where a standalone job store puts them too.
DEFAULT_LAYOUT: Mapping[str, str] = {
    "users": ".",
    "jobs-parts": "jobs/parts",
}


def validate_doc_key(key: str) -> str:
    if not isinstance(key, str) or not _KEY_RE.match(key):
        raise StateError(f"invalid document key {key!r}")
    return key


class FileBackend(StateBackend):
    """Document store over one JSON file per key (see module docstring).

    ``layout`` maps namespaces to subdirectories; unlisted namespaces
    live in a subdirectory named after the namespace.  A store that
    roots its own private backend (``JobStore(path)`` with no shared
    backend) passes ``layout={"jobs": ".", "jobs-parts": "parts"}`` so
    the paths match a shared backend's.
    """

    kind = "file"

    def __init__(
        self, root: Path, layout: Optional[Mapping[str, str]] = None
    ):
        super().__init__()
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self._layout: Dict[str, str] = dict(
            DEFAULT_LAYOUT if layout is None else layout
        )

    # -- paths -------------------------------------------------------------

    def _dir(self, namespace: str) -> Path:
        relative = self._layout.get(namespace, namespace)
        directory = (
            self.root if relative in ("", ".") else self.root / relative
        )
        directory.mkdir(parents=True, exist_ok=True)
        return directory

    def doc_path(self, namespace: str, key: str) -> Path:
        """Where one document lives (file backend only — tests and the
        oracle use this to corrupt/inspect raw bytes)."""
        return self._dir(namespace) / f"{validate_doc_key(key)}.json"

    # -- documents ---------------------------------------------------------

    def save(self, namespace: str, key: str, text: str) -> None:
        fsio.atomic_write_text(self.doc_path(namespace, key), text)

    def load(self, namespace: str, key: str) -> Optional[str]:
        try:
            return self.doc_path(namespace, key).read_text(encoding="utf-8")
        except FileNotFoundError:
            return None

    def delete(self, namespace: str, key: str) -> bool:
        try:
            self.doc_path(namespace, key).unlink()
            return True
        except FileNotFoundError:
            return False

    def keys(self, namespace: str) -> List[str]:
        return sorted(
            path.stem
            for path in self._dir(namespace).glob("*.json")
            if not path.name.startswith(".") and _KEY_RE.match(path.stem)
        )

    def mtime(self, namespace: str, key: str) -> Optional[float]:
        try:
            return self.doc_path(namespace, key).stat().st_mtime
        except OSError:
            return None

    def quarantine(self, namespace: str, key: str, reason: str) -> str:
        path = self.doc_path(namespace, key)
        try:
            target = fsio.quarantine_file(path)
        except OSError:
            return ""
        self.quarantined.append((namespace, key, str(target), reason))
        return str(target)

    # -- lifecycle / health ------------------------------------------------

    def writable(self) -> bool:
        return fsio.probe_writable(self.root)
