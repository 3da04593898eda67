"""Retraining fan: the resume banner's line, folded from the run journal."""

import os

import numpy as np
import pytest

from repro.runtime import env, journal
from repro.runtime.journal import describe_fan, retraining_fan


@pytest.fixture
def run_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    journal.set_journal(None)
    env.RUN_ID.set("")
    yield str(tmp_path / "runs" / "run-0001")
    journal.set_journal(None)
    env.RUN_ID.set("")


class TestRunManifest:
    def test_lifecycle(self, run_dir):
        variants = retraining_fan([
            {"event": "train-start", "model": "adv-FGSM",
             "path": "/x/adv-FGSM.npz"},
            {"event": "train-start", "model": "adv-PGD"},
            {"event": "train-progress", "model": "adv-FGSM", "epoch": 5},
            {"event": "train-done", "model": "adv-FGSM"},
        ])
        assert variants == {"adv-FGSM": {"status": "done", "epoch": 5},
                            "adv-PGD": {"status": "training", "epoch": 0}}

    def test_empty_and_torn_journal(self, run_dir):
        log = journal.RunJournal("run-0001", run_dir)
        assert describe_fan(log.events()) is None
        log.append({"event": "train-start", "model": "adv-FGSM"})
        log.append({"event": "train-progress", "model": "adv-FGSM",
                    "epoch": 2})
        with open(log.path, "a") as handle:  # killed mid-append
            handle.write('{"event": "train-done", "model": "adv-')
        assert describe_fan(log.events()) == (
            "retraining fan: 0/1 variant(s) trained; remaining: "
            "adv-FGSM (epoch 2)")

    def test_describe(self, run_dir):
        line = describe_fan([
            {"event": "train-start", "model": "adv-FGSM"},
            {"event": "train-progress", "model": "adv-FGSM", "epoch": 3},
            {"event": "train-start", "model": "adv-PGD"},
            {"event": "train-done", "model": "adv-PGD"},
        ])
        assert line == ("retraining fan: 1/2 variant(s) trained; "
                        "remaining: adv-FGSM (epoch 3)")
        assert describe_fan([{"event": "train-done", "model": "x"}]) == (
            "retraining fan: 1/1 variant(s) trained")


class TestJournalBridge:
    def test_train_events_fold_into_manifest(self, run_dir):
        log = journal.RunJournal("run-0001", run_dir)
        log.append({"event": "train-start", "model": "adv-FGSM",
                    "path": "/x/adv-FGSM.npz"})
        log.append({"event": "train-progress", "label": "zoo.adv-FGSM",
                    "epoch": 4})
        log.append({"event": "cell", "grid": "g", "cell": "c",
                    "status": "done"})
        assert os.listdir(run_dir) == [journal.JOURNAL_FILENAME]
        assert describe_fan(log.events()) == (
            "retraining fan: 0/1 variant(s) trained; remaining: "
            "adv-FGSM (epoch 4)")
        log.append({"event": "train-done", "model": "adv-FGSM"})
        assert describe_fan(log.events()) == (
            "retraining fan: 1/1 variant(s) trained")

    def test_checkpointer_snapshot_reports_progress(self, run_dir,
                                                    monkeypatch):
        from repro.models.training import EpochCheckpointer
        from repro.nn import Adam, Tensor

        log = journal.RunJournal("run-0001", run_dir)
        journal.set_journal(log)

        class Module:
            def __init__(self):
                self.w = Tensor(np.zeros(3, dtype=np.float32))

            def state_dict(self):
                return {"w": self.w.data}

            def parameters(self):
                return [self.w]

        module = Module()
        optimizer = Adam(module.parameters(), lr=1e-3)
        ckpt = EpochCheckpointer(os.path.join(run_dir, "m.ckpt.npz"),
                                 every=1, label="zoo.variant-x")
        ckpt.save(2, module, optimizer, np.random.default_rng(0), [1.0, 0.5])
        variants = retraining_fan(log.events())
        assert variants["variant-x"] == {"status": "training", "epoch": 2}
