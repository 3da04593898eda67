"""Regenerate the frozen model inputs in ``perfbench/models/``.

The benchmark never trains a model: timing depends on the weights, so it
loads the two regressors it drives from plain state-dict files committed
next to it and refuses to run when their SHA-256 does not match
``models.json``.  This script is the only place those files come from.
It takes the model zoo's default regressor and the ``serve_bench``
defended variant (training them into ``REPRO_CACHE_DIR`` if they are not
cached yet) and writes them as ``np.savez`` archives plus their digests.

Run from the repository root::

    PYTHONPATH=src python3 perfbench/freeze_models.py
"""

from __future__ import annotations

import hashlib
import json
import os
import sys

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
MODELS = os.path.join(HERE, "models")


def _write(name: str, module) -> dict:
    path = os.path.join(MODELS, name + ".npz")
    with open(path, "wb") as handle:
        np.savez(handle, **module.state_dict())
    with open(path, "rb") as handle:
        digest = hashlib.sha256(handle.read()).hexdigest()
    return {"file": name + ".npz", "sha256": digest}


def main() -> int:
    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
    from repro.experiments.serve_bench import _defended_regressor
    from repro.models.zoo import get_regressor
    from repro.nn.serialize import state_fingerprint

    os.makedirs(MODELS, exist_ok=True)
    base = get_regressor()
    defended = _defended_regressor(base)
    manifest = {
        "regressor": {**_write("regressor", base),
                      "zoo": "get_regressor()",
                      "state_fingerprint": state_fingerprint(base)},
        "serve_defended": {**_write("serve_defended", defended),
                           "zoo": "serve_bench._defended_regressor()",
                           "state_fingerprint": state_fingerprint(defended)},
    }
    with open(os.path.join(MODELS, "models.json"), "w") as handle:
        json.dump(manifest, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(json.dumps(manifest, indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
