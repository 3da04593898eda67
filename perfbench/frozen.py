"""Frozen model inputs: the two regressors the benchmark drives.

Timing depends on the weights (Auto-PGD-20 at batch 16 took 0.97 s with
trained weights and 1.25 s with seeded-init ones), so the benchmark never
trains and never reads the repository's model cache.  It loads plain
state-dict archives committed in ``models/`` and refuses to run when one
is missing or its SHA-256 differs from ``models/models.json``.
``freeze_models.py`` regenerates both files.
"""

from __future__ import annotations

import hashlib
import json
import os

import numpy as np

MODELS_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                          "models")
MANIFEST = os.path.join(MODELS_DIR, "models.json")


class FrozenModelError(RuntimeError):
    """A frozen model file is missing or does not match its digest."""


def _manifest() -> dict:
    try:
        with open(MANIFEST) as handle:
            return json.load(handle)
    except (OSError, ValueError) as error:
        raise FrozenModelError(f"cannot read {MANIFEST}: {error}")


def load_state(name: str) -> dict:
    """The verified state dict of frozen model ``name``."""
    entry = _manifest().get(name)
    if entry is None:
        raise FrozenModelError(f"{name!r} is not listed in {MANIFEST}")
    path = os.path.join(MODELS_DIR, entry["file"])
    try:
        with open(path, "rb") as handle:
            blob = handle.read()
    except OSError as error:
        raise FrozenModelError(f"frozen model {name!r} missing: {error}")
    digest = hashlib.sha256(blob).hexdigest()
    if digest != entry["sha256"]:
        raise FrozenModelError(
            f"frozen model {path} has SHA-256 {digest}, expected "
            f"{entry['sha256']}; regenerate with freeze_models.py")
    with np.load(path) as archive:
        return {key: archive[key] for key in archive.files}


def load_regressor(name: str):
    """A ``DistanceRegressor`` in eval mode with frozen weights ``name``."""
    from repro.models.distance import DistanceRegressor

    model = DistanceRegressor(rng=np.random.default_rng(0))
    model.load_state_dict(load_state(name))
    model.eval()
    return model
