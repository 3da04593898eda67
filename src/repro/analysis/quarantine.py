"""Forensics over quarantined artifacts: *how* did each one die?

The store (:mod:`repro.runtime.store`) moves every defective artifact into
a ``quarantine/`` directory next to where it lived instead of deleting it,
so the evidence of a torn write, a truncated file or silent bit rot stays
on disk.  This module reads that evidence back and classifies each
quarantined file by failure mode:

* ``torn-header`` — the leading magic is gone: the very first bytes of the
  artifact never made it to disk (a write interrupted almost immediately).
* ``truncation`` — the header is intact but the tail is missing: for npz
  archives the zip central directory (written last) is unreadable, for
  JSON the parse fails exactly at end-of-input.
* ``bitflip`` — the file is structurally complete but the *content* is
  damaged: a zip member fails its CRC / deflate stream, JSON syntax breaks
  mid-file, or the document parses and the embedded content digest
  disagrees.
* ``intact`` — the file verifies end to end.  Seen when an artifact was
  quarantined for a reason that has since healed (e.g. an injected fault
  recorded against a path whose defect was in a *different* layer) — kept
  visible rather than silently re-trusted.

Surfaced as ``python -m repro.cli analyze quarantine`` (``--clear`` empties
the quarantine once the forensics are done).
"""

from __future__ import annotations

import json
import os
import zipfile
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

import numpy as np

from ..eval.reporting import format_table
from ..runtime.cache import cache_root
from ..runtime.digest import json_digest, state_digest
from ..runtime.store import DIGEST_KEY, QUARANTINE_DIRNAME, READ_ERRORS

#: classification labels, worst first (table sort order).
KINDS = ("torn-header", "truncation", "bitflip", "intact")

_ZIP_MAGIC = b"PK\x03\x04"


@dataclass(frozen=True)
class QuarantinedArtifact:
    """One classified file from a quarantine directory."""

    path: str
    kind: str          # one of KINDS
    detail: str
    size_bytes: int

    def to_json(self) -> Dict[str, Any]:
        return {"path": self.path, "kind": self.kind, "detail": self.detail,
                "size_bytes": self.size_bytes}


# ---------------------------------------------------------------------------
# discovery


def quarantine_dirs(root: Optional[str] = None) -> List[str]:
    """All ``quarantine/`` directories under ``root`` (default: cache root)."""
    root = root if root is not None else cache_root()
    found: List[str] = []
    if not os.path.isdir(root):
        return found
    for dirpath, dirnames, _ in os.walk(root):
        if QUARANTINE_DIRNAME in dirnames:
            found.append(os.path.join(dirpath, QUARANTINE_DIRNAME))
    return sorted(found)


# ---------------------------------------------------------------------------
# classification


def _classify_npz(path: str, head: bytes) -> QuarantinedArtifact:
    size = os.path.getsize(path)
    if not head.startswith(_ZIP_MAGIC):
        return QuarantinedArtifact(
            path, "torn-header",
            f"zip magic missing (file starts {head[:4]!r})", size)
    # Central directory lives at the *end* of a zip: if it cannot be read
    # the tail is gone — that is a truncation, not content damage.
    try:
        archive = zipfile.ZipFile(path)
    except (zipfile.BadZipFile, EOFError, OSError) as error:
        return QuarantinedArtifact(
            path, "truncation",
            f"zip central directory unreadable ({error})", size)
    with archive:
        try:
            bad_member = archive.testzip()
        except READ_ERRORS as error:
            return QuarantinedArtifact(
                path, "bitflip",
                f"member stream damaged ({type(error).__name__}: {error})",
                size)
    if bad_member is not None:
        return QuarantinedArtifact(
            path, "bitflip", f"member {bad_member!r} fails its zip CRC", size)
    try:
        with np.load(path) as loaded:
            state = {key: loaded[key] for key in loaded.files}
    except READ_ERRORS as error:
        return QuarantinedArtifact(
            path, "bitflip",
            f"array decode failed ({type(error).__name__}: {error})", size)
    recorded = state.pop(DIGEST_KEY, None)
    if recorded is None:
        return QuarantinedArtifact(
            path, "intact", "legacy layout (no embedded digest); CRCs pass",
            size)
    actual = state_digest(state)
    if str(recorded) != actual:
        return QuarantinedArtifact(
            path, "bitflip",
            "embedded content digest mismatch with intact zip CRCs", size)
    return QuarantinedArtifact(
        path, "intact", "content digest verifies", size)


def _classify_json(path: str, raw: bytes) -> QuarantinedArtifact:
    size = len(raw)
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as error:
        return QuarantinedArtifact(
            path, "bitflip", f"non-UTF-8 byte at offset {error.start}", size)
    stripped = text.lstrip()
    if not stripped.startswith(("{", "[", '"')):
        return QuarantinedArtifact(
            path, "torn-header",
            f"document starts {stripped[:8]!r}, not JSON", size)
    try:
        document = json.loads(text)
    except json.JSONDecodeError as error:
        # A truncated write leaves a strict *prefix* of a valid document:
        # the parse dies at (or pointing into) the missing tail and the
        # text no longer ends with a closing brace/bracket.  Damage with
        # the tail still present is content corruption, not truncation.
        tail = text.rstrip()
        if error.pos >= len(tail) or not tail.endswith(("}", "]")):
            return QuarantinedArtifact(
                path, "truncation",
                f"JSON stops mid-document (parse error at offset "
                f"{error.pos})", size)
        return QuarantinedArtifact(
            path, "bitflip",
            f"JSON syntax damaged mid-file at offset {error.pos}", size)
    if isinstance(document, dict) and set(document) == {"digest", "payload"}:
        if document["digest"] != json_digest(document["payload"]):
            return QuarantinedArtifact(
                path, "bitflip", "envelope digest mismatch", size)
        return QuarantinedArtifact(
            path, "intact", "envelope digest verifies", size)
    return QuarantinedArtifact(
        path, "intact", "legacy layout (no digest envelope); parses", size)


def classify_file(path: str) -> QuarantinedArtifact:
    """Classify one quarantined file by failure mode."""
    size = os.path.getsize(path)
    if size == 0:
        return QuarantinedArtifact(path, "truncation", "zero bytes on disk",
                                   size)
    with open(path, "rb") as handle:
        raw = handle.read()
    if ".npz" in os.path.basename(path) or raw.startswith(_ZIP_MAGIC):
        return _classify_npz(path, raw[:8])
    return _classify_json(path, raw)


def scan(root: Optional[str] = None) -> List[QuarantinedArtifact]:
    """Classify every file in every quarantine directory under ``root``."""
    records: List[QuarantinedArtifact] = []
    for qdir in quarantine_dirs(root):
        for name in sorted(os.listdir(qdir)):
            path = os.path.join(qdir, name)
            if os.path.isfile(path):
                records.append(classify_file(path))
    records.sort(key=lambda r: (KINDS.index(r.kind), r.path))
    return records


def clear(records: List[QuarantinedArtifact]) -> int:
    """Delete the classified files; returns how many were removed."""
    removed = 0
    for record in records:
        try:
            os.remove(record.path)
        except OSError:
            continue
        removed += 1
    return removed


# ---------------------------------------------------------------------------
# reporting


def render(records: List[QuarantinedArtifact],
           root: Optional[str] = None) -> str:
    root = root if root is not None else cache_root()
    if not records:
        return f"no quarantined artifacts under {root}"
    rows = []
    for record in records:
        rows.append([os.path.relpath(record.path, root), record.kind,
                     str(record.size_bytes), record.detail])
    counts = {kind: sum(1 for r in records if r.kind == kind)
              for kind in KINDS}
    tally = ", ".join(f"{counts[kind]} {kind}" for kind in KINDS
                      if counts[kind])
    table = format_table(["artifact", "kind", "bytes", "evidence"], rows,
                         title=f"Quarantined artifacts under {root}")
    return table + f"\n{len(records)} file(s): {tally}"
