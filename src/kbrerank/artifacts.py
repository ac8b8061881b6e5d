"""Versioned binary artifact files (models, index caches).

Every artifact is a single pickle holding a header (kind + format version)
plus a payload dict. Loading checks both so stale or foreign files fail fast
instead of mis-deserializing.
"""

from __future__ import annotations

import contextlib
import json
import os
import pickle
from pathlib import Path

FORMAT_VERSION = 1
# protocol pinned so identical payloads serialize to identical bytes
_PICKLE_PROTOCOL = 4


class ArtifactError(ValueError):
    pass


def save_artifact(path, kind: str, payload: dict) -> None:
    blob = {"kind": kind, "format_version": FORMAT_VERSION, "payload": payload}
    with atomic_text_writer(path, binary=True) as fh:
        pickle.dump(blob, fh, protocol=_PICKLE_PROTOCOL)


def load_artifact(path, kind: str) -> dict:
    with open(path, "rb") as fh:
        blob = pickle.load(fh)
    if not isinstance(blob, dict) or "kind" not in blob:
        raise ArtifactError(f"{path}: not a recognized artifact file")
    if blob["kind"] != kind:
        raise ArtifactError(f"{path}: expected {kind!r} artifact, found {blob['kind']!r}")
    if blob.get("format_version") != FORMAT_VERSION:
        raise ArtifactError(
            f"{path}: format-version mismatch "
            f"(file {blob.get('format_version')!r}, supported {FORMAT_VERSION})"
        )
    return blob["payload"]


@contextlib.contextmanager
def atomic_text_writer(path, binary: bool = False):
    """A text handle (with ``binary``, a byte handle) whose content replaces
    ``path`` only when the block completes. It writes ``path`` + ``.tmp`` in
    the same directory and renames it over ``path``; if the block raises,
    the temporary file is removed and ``path`` is left as it was."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") if binary else open(tmp, "w", encoding="utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def read_jsonl(path):
    """Yield (line number, record) for each non-blank line of a JSON-lines
    file; a line that is not one JSON object fails with ``path:line``."""
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            if not line.strip():
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}:{lineno}: malformed JSON ({exc.msg})") from exc
            if not isinstance(rec, dict):
                raise ValueError(f"{path}:{lineno}: expected a JSON object")
            yield lineno, rec


def check_vocab_hash(expected: str, actual: str, what: str) -> None:
    if expected != actual:
        raise ArtifactError(
            f"vocabulary-hash mismatch for {what}: "
            f"model was trained against a different vocabulary"
        )
