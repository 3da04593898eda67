"""Every SHA-256 digest in the repo, over three canonical encodings.

A cached result is only trustworthy if the key it is filed under and the
digest embedded in its artifact mean the same thing everywhere, so this is
the one module that hashes:

* **JSON** — ``json.dumps(value, sort_keys=True, default=str)``: names every
  cache entry (:func:`fingerprint`), seals JSON artifacts
  (:func:`json_digest`) and fingerprints serve reports.
* **arrays** — sorted names, then each name, dtype, shape and raw bytes:
  the digest embedded in every ``.npz`` (:func:`state_digest`), the
  array cache-key component (:func:`array_fingerprint`) and the model
  weights fingerprint (:func:`repro.nn.serialize.state_fingerprint`).
* **seeds** — ``repr`` of the seed parts (:func:`stable_seed`), from which
  every per-cell and per-tick RNG stream derives.

Short fingerprints are the first 16 hex digits of the full digest.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Dict

import numpy as np

#: hex digits kept by the short fingerprints used in cache names and keys.
SHORT = 16


def json_digest(value: Any) -> str:
    """Hex SHA-256 of the canonical JSON encoding of ``value``."""
    encoded = json.dumps(value, sort_keys=True, default=str)
    return hashlib.sha256(encoded.encode()).hexdigest()


def fingerprint(config: Any) -> str:
    """Short digest of a configuration: the ``<fingerprint>`` in cache names."""
    return json_digest(config)[:SHORT]


def state_digest(state: Dict[str, np.ndarray]) -> str:
    """Hex SHA-256 over a state dict's names, dtypes, shapes and bytes."""
    digest = hashlib.sha256()
    for name in sorted(state):
        array = np.ascontiguousarray(state[name])
        digest.update(name.encode())
        digest.update(str(array.dtype).encode())
        digest.update(str(array.shape).encode())
        digest.update(array.tobytes())
    return digest.hexdigest()


def array_fingerprint(array: np.ndarray) -> str:
    """Short content digest of one array (dtype and shape included)."""
    return state_digest({"": array})[:SHORT]


def stable_seed(*parts, base: int = 0) -> int:
    """Deterministic 32-bit seed derived from cell-identifying parts.

    Unlike ``hash()``, this is stable across processes and interpreter runs
    (``PYTHONHASHSEED`` does not affect it), so a cell gets the same seed no
    matter which worker executes it.
    """
    blob = repr((base,) + parts).encode()
    return int.from_bytes(hashlib.sha256(blob).digest()[:4], "little")
