"""Versioned binary artifact files (models, the KB index) and atomic writers.

An artifact is an uncompressed ``.npz`` archive, written and read with
``allow_pickle=False``: a JSON ``header`` member (a 0-d string array with the
kind, the format version, scalar metadata and, for a model, the hash of its
vocabulary) plus named numeric arrays. Any other file, a pickle included,
fails to load with ``ArtifactError`` naming the path; loading runs no code.
So does a file without exactly the members its loader names.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import os
import zipfile
from pathlib import Path

import numpy as np

FORMAT_VERSION = 2


class ArtifactError(ValueError):
    pass


def save_artifact(path, kind: str, arrays: dict, meta: dict | None = None, vocab=None) -> None:
    """Write ``arrays`` (name -> numeric array) under a header of ``kind``,
    the JSON scalars of ``meta`` and, given ``vocab``, its content hash."""
    header = {"kind": kind, "format_version": FORMAT_VERSION, **(meta or {})}
    if vocab is not None:
        header["vocab_hash"] = vocab.content_hash()
    with atomic_text_writer(path, binary=True) as fh:
        # np.savez defaults to allow_pickle=True, which would pickle an object array
        header = np.array(json.dumps(header, sort_keys=True))
        np.savez(fh, allow_pickle=False, header=header, **arrays)


def load_artifact(path, kind: str, members, vocab=None) -> tuple[dict, dict]:
    """(header, arrays) of an artifact of ``kind``; given ``vocab``, the file
    must have been saved against it. ``members(header)`` maps each array the
    file must hold to its (dtype, shape), None in the shape meaning any
    extent; it raises ``KeyError``, ``TypeError`` or ``ValueError`` on a
    header it cannot read. A string dtype takes any width.
    """
    with open(path, "rb") as fh:
        magic = fh.read(len(zipfile.stringFileHeader))
        if magic != zipfile.stringFileHeader:
            pickled = magic[:1] == b"\x80"  # the opcode starting every pickle of protocol >= 2
            what = "a pickle, and pickles are refused" if pickled else "not an .npz archive"
            raise ArtifactError(f"{path}: not an artifact ({what})")
        fh.seek(0)
        try:
            with np.load(fh, allow_pickle=False) as archive:
                arrays = {name: archive[name] for name in archive.files}
            header = dict(json.loads(arrays.pop("header").item()))
        except (zipfile.BadZipFile, EOFError, KeyError, TypeError, ValueError) as exc:
            raise ArtifactError(f"{path}: truncated or corrupt artifact ({exc})") from exc
    if header.get("kind") != kind:
        raise ArtifactError(f"{path}: expected {kind!r} artifact, found {header.get('kind')!r}")
    if header.get("format_version") != FORMAT_VERSION:
        raise ArtifactError(f"{path}: unsupported format version {header.get('format_version')!r}")
    if vocab is not None:
        check_vocab_hash(header.get("vocab_hash"), vocab.content_hash(), str(path))
    try:
        expected = members(header)
    except (KeyError, TypeError, ValueError) as exc:
        raise ArtifactError(f"{path}: bad header ({exc})") from exc
    for what, names in (
        ("missing", expected.keys() - arrays.keys()),
        ("unexpected", arrays.keys() - expected.keys()),
    ):
        if names:
            raise ArtifactError(f"{path}: {what} member {min(names)!r}")
    for name, (dtype, shape) in expected.items():
        array = arrays[name]
        if not np.issubdtype(array.dtype, dtype) or len(array.shape) != len(shape) or any(
            want not in (None, got) for got, want in zip(array.shape, shape)
        ):
            raise ArtifactError(
                f"{path}: member {name!r} is {array.dtype} of shape {array.shape}, expected "
                f"{np.dtype(dtype).name} of shape {str(tuple(shape)).replace('None', 'any')}"
            )
    return header, arrays


def load_tensors(path, kind: str, dims_type, vocab) -> tuple:
    """(dims, tensors) of a model saved against ``vocab``. Its header's
    ``dims`` must hold exactly the fields of ``dims_type``, each an int >= 1,
    and its tensors be those of ``dims.tensor_shapes``, each of its shape."""

    def dims_of(header):
        dims, names = header.get("dims"), [f.name for f in dataclasses.fields(dims_type)]
        if not isinstance(dims, dict) or sorted(dims) != sorted(names) or not all(
            type(v) is int and v >= 1 for v in dims.values()
        ):
            raise ValueError(f"dims must map {', '.join(names)} to ints >= 1, got {dims!r}")
        return dims_type(**dims)

    def members(header):  # every tensor is float64
        return {name: (np.float64, shape) for name, shape in dims_of(header).tensor_shapes.items()}

    header, tensors = load_artifact(path, kind, members, vocab)
    return dims_of(header), tensors


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


def text_lines(path):
    """Yield the lines of a UTF-8 text file; bytes that are not UTF-8 fail
    as ``path: not valid UTF-8 (reason)``."""
    with open(path, encoding="utf-8") as fh:
        try:
            yield from fh
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}: not valid UTF-8 ({exc.reason})") from exc


def read_jsonl(path):
    """Yield (line number, record) for each non-blank line of a JSON-lines
    file; a line that is not one JSON object fails with ``path:line``."""
    for lineno, line in enumerate(text_lines(path), 1):
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
