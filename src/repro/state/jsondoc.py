"""Compact JSON documents assembled from already-encoded parts.

The session store re-saves a whole document on every change, but a
PLAY edits one of a user's designs.  It therefore keeps each design's
encoded text and splices it in with :func:`assemble`, encoding only
what changed.  (The job store writes each part of a job as its own
document with :func:`dumps` instead.)  The result is byte-identical
to encoding the whole payload in one call::

    dumps({"a": 1, "b": [2]}, sort_keys=True)
    == assemble({"b": dumps([2]), "a": dumps(1)}, sort_keys=True)

(``json.dumps`` with ``sort_keys`` orders members by key string, and
so does :func:`assemble`).  Documents are compact: no indentation, no
spaces after separators.  Readers stay plain ``json.loads``, so the
indented documents earlier versions wrote still open.
"""

from __future__ import annotations

import json
from typing import Mapping

_SEPARATORS = (",", ":")


def dumps(value: object, sort_keys: bool = False) -> str:
    """Encode one value as compact JSON."""
    return json.dumps(value, sort_keys=sort_keys, separators=_SEPARATORS)


def assemble(parts: Mapping[str, str], sort_keys: bool = False) -> str:
    """A JSON object whose member values are the encoded texts in
    ``parts``, in ``parts``' order or, with ``sort_keys``, key order."""
    # one join, so each (possibly large) part is copied exactly once
    pieces = ["{"]
    for key in sorted(parts) if sort_keys else parts:
        pieces += (json.dumps(key), ":", parts[key], ",")
    if len(pieces) > 1:
        pieces.pop()
    pieces.append("}")
    return "".join(pieces)
