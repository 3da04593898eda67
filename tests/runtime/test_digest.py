"""One digest module: pinned encodings, and artifacts from before the fold.

The seeds, cache names and embedded ``.npz`` digests below were produced
by the separate hashing helpers this module replaced; they must never
change, or every cached model retrains and every RNG stream shifts.
"""

import hashlib
import json
import os
import shutil

import numpy as np
import pytest

from repro import nn
from repro.models import zoo
from repro.nn.serialize import state_fingerprint
from repro.runtime import (GridRunner, ResultCache, array_fingerprint, digest,
                           fingerprint, journal, stable_seed, store)

pytestmark = pytest.mark.smoke

PARENT_ERA = os.path.join(os.path.dirname(__file__), "fixtures", "parent_era")


def _state():
    return {"w": np.arange(12, dtype=np.float32).reshape(3, 4),
            "b": np.array([1, 2, 3], dtype=np.int64)}


class TestPinnedValues:
    @pytest.mark.parametrize("parts, base, seed", [
        (("a", 1), 0, 960957060),
        (("cell", 0), 0, 1620518357),
        (("x",), 1, 1745621145),
        (("perfbench.acc", 3, "clean"), 0, 3873910061),
        ((), 0, 2583942801),
        (("table1", "FGSM", 0.5), 7, 3088953592),
    ])
    def test_stable_seed(self, parts, base, seed):
        assert stable_seed(*parts, base=base) == seed

    def test_zoo_config_fingerprints(self):
        assert fingerprint({"seed": 0, "frames": 1500, "epochs": 40,
                            "v": 6}) == "840386f899e0f2a6"
        assert fingerprint({"seed": 0, "scenes": 1000, "epochs": 50,
                            "v": 6}) == "8f4fd711641bccfa"
        assert fingerprint({"domain": "signs", "seed": 0, "epochs": 15,
                            "images": 400, "v": 1}) == "7eb2e8a4f4e011ca"

    def test_array_fingerprint(self):
        state = _state()
        assert array_fingerprint(state["w"]) == "f8d59934b76a483e"
        assert array_fingerprint(state["b"]) == "a3e1e1e381ff97f3"

    def test_state_digest(self):
        assert digest.state_digest(_state()) == (
            "78cb5d417107d3af36c6c2f2fd64c2cb"
            "e8f4441b2fb03838a2542c2f37a879a0")


class TestEncodings:
    def test_array_fingerprint_is_a_one_entry_state_digest(self):
        array = _state()["w"]
        assert array_fingerprint(array) == \
            digest.state_digest({"": array})[:digest.SHORT]

    def test_json_digest_is_the_canonical_encoding(self):
        value = {"x": [1, 2.5, "y"], "a": None, "t": (1, 2)}
        canonical = json.dumps(value, sort_keys=True, default=str)
        assert digest.json_digest(value) == \
            hashlib.sha256(canonical.encode()).hexdigest()
        assert fingerprint(value) == digest.json_digest(value)[:16]

    def test_state_fingerprint_is_the_state_digest_and_sees_dtype(self):
        model = nn.Linear(2, 1, rng=np.random.default_rng(0))
        assert state_fingerprint(model) == \
            digest.state_digest(model.state_dict())[:16]
        # Same bytes reinterpreted as another dtype: a different model.
        weight = model.weight.data
        model.weight.data = weight.view(np.int32)
        assert state_fingerprint(model) != \
            digest.state_digest({"weight": weight,
                                 "bias": model.bias.data})[:16]


class TestParentEraArtifacts:
    """Artifacts written before the fold hit or miss cleanly, never fault."""

    @pytest.fixture
    def root(self, tmp_path, monkeypatch):
        root = str(tmp_path / "cache")
        shutil.copytree(PARENT_ERA, root)
        monkeypatch.setenv("REPRO_CACHE_DIR", root)
        monkeypatch.setenv("REPRO_WORKERS", "1")
        store.clear_fault_events()
        journal.set_journal(None)
        yield root
        journal.set_journal(None)

    @pytest.mark.parametrize("result_cache", ["1", "0"])
    def test_checkpoint_hits_without_training(self, root, monkeypatch,
                                              result_cache):
        # REPRO_RESULT_CACHE=0 skips cell results only, never a model.
        monkeypatch.setenv("REPRO_RESULT_CACHE", result_cache)

        def train(model):
            raise AssertionError("a parent-era checkpoint must not retrain")

        model = zoo.cached_model(
            "toy", {"v": 0},
            lambda: nn.Linear(2, 1, rng=np.random.default_rng(1)), train)
        np.testing.assert_array_equal(
            model.weight.data,
            np.array([[0.38738614320755005], [-0.6511415243148804]],
                     dtype=np.float32))
        assert store.fault_events() == []

    def test_cell_envelope_is_a_clean_miss(self, root):
        config = {"cell": "a", "v": 1}
        legacy = os.path.join(root, "cells",
                              f"grid-cell-{fingerprint(config)}.json")
        assert os.path.exists(legacy)
        grid = GridRunner("grid", cache=ResultCache())
        grid.add("cell", lambda: {"fresh": 1.0}, config=config)
        assert grid.run() == {"cell": {"fresh": 1.0}}
        assert store.fault_events() == []
        assert not os.path.exists(os.path.join(root, "quarantine"))
        assert not os.path.exists(os.path.join(root, "cells", "quarantine"))
        assert os.path.exists(legacy)
