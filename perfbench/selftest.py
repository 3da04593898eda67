"""Show every correctness check passing on a real output and firing on a
deliberately corrupted copy of it.

Run from the repository root (about ten seconds)::

    python3 perfbench/selftest.py

Exits non-zero if any check stays silent on its corrupted output or
complains about the uncorrupted one.
"""

from __future__ import annotations

import copy
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main() -> int:
    import envinfo

    envinfo.pin_native_threads()
    with tempfile.TemporaryDirectory(dir=ROOT,
                                     prefix=".perfbench_selftest-") as tmp:
        envinfo.pin_repro_knobs(os.path.join(tmp, "cache"))
        sys.path.insert(0, os.path.join(ROOT, "src"))
        return run(tmp)


def run(tmp: str) -> int:
    import numpy as np

    import checks
    import workloads
    from spans import OpClock

    failures = []

    def expect(label: str, good, bad) -> None:
        """``good`` must yield no problem, ``bad`` at least one."""
        verdict = "ok"
        if good:
            verdict = f"FALSE ALARM {good}"
        elif not bad:
            verdict = "SILENT on corrupted output"
        if verdict != "ok":
            failures.append(label)
        shown = bad[0] if bad else "-"
        print(f"{label:<34} {verdict:<8} fired: {shown}")

    reference = workloads.load_reference()

    # Adversarial frames: a real FGSM batch, then four corruptions.
    finetune = workloads.Finetune()
    finetune.N_PER_RANGE = 2
    finetune.setup(3, os.path.join(tmp, "finetune"))
    count = finetune.N_PER_RANGE * 4
    adversarial, clean = (finetune.images[:count],
                          finetune.images[count:])
    from repro.attacks import base as attack_base
    from repro.eval import harness
    _, _, boxes = harness.make_balanced_eval_frames(finetune.N_PER_RANGE, 3)
    mask = attack_base.boxes_to_mask(boxes, clean.shape[2], clean.shape[3])
    eps = 0.06
    good = checks.check_frames(checks.frame_stats(adversarial, clean, mask),
                               eps, "frames")
    inside = np.argwhere(mask[0, 0] > 0)[0]
    outside = np.argwhere(mask[0, 0] == 0)[0]
    corruptions = {
        "frames: non-finite": lambda a: a.__setitem__(
            (0, 0, inside[0], inside[1]), np.nan),
        "frames: outside [0,1]": lambda a: a.__setitem__(
            (0, 0, inside[0], inside[1]), 1.5),
        "frames: outside the mask": lambda a: a.__setitem__(
            (0, 0, outside[0], outside[1]),
            clean[0, 0, outside[0], outside[1]] + 0.01),
        "frames: beyond eps": lambda a: a.__setitem__(
            (0, 0, inside[0], inside[1]),
            min(1.0, clean[0, 0, inside[0], inside[1]] + 2 * eps)
            if clean[0, 0, inside[0], inside[1]] < 0.5
            else clean[0, 0, inside[0], inside[1]] - 2 * eps),
    }
    for label, corrupt in corruptions.items():
        broken = adversarial.copy()
        corrupt(broken)
        expect(label, good, checks.check_frames(
            checks.frame_stats(broken, clean, mask), eps, "frames"))

    # Warm grid: a real cold + warm pass of the Table I grid.
    grid = workloads.Table1Grid()
    grid.N_PER_RANGE = 1
    grid.setup(3, os.path.join(tmp, "grid"))
    cache = grid._fresh_cache()
    scratch = workloads.Measurement()
    cold, _, _ = grid._cold(cache, 1, scratch)
    ledger = workloads.Instrumentation()
    warm = grid._grid(cache, 1, ledger).run()
    cached = {record.cell: record.cached for record in ledger.cells}
    good = checks.check_warm_grid(cold, warm, cached)
    altered = copy.deepcopy(warm)
    name = next(iter(altered))
    altered[name]["frames"]["max"] += 1e-6
    expect("warm grid: result differs", good,
           checks.check_warm_grid(cold, altered, cached))
    expect("warm grid: cache miss", good,
           checks.check_warm_grid(cold, warm, {**cached, name: False}))

    means = {name: reference[f"table1.{name}"]["mean"]
             for name in grid.table_row_means(cold)}
    expect("table1: row order", checks.check_table1_order(means),
           checks.check_table1_order(
               dict(means, **{"CAP-Attack": means["FGSM"] - 1.0})))

    # Closed loop: a short real drive, then a collision and a fault.
    acc = workloads.AccCap()
    acc.SCENARIO = dict(acc.SCENARIO, duration_s=1.0)
    acc.setup(3, tmp)
    from repro.pipeline import ClosedLoopSimulator
    simulator = ClosedLoopSimulator(acc.model, seed=3, degradation=True)
    outcome = simulator.run(acc.scenario)
    good = checks.check_drive(outcome.collided,
                              simulator.perception.fault_count,
                              outcome.fault_tick_count)
    expect("closed loop: collision", good,
           checks.check_drive(True, simulator.perception.fault_count,
                              outcome.fault_tick_count))
    expect("closed loop: perception fault", good,
           checks.check_drive(outcome.collided, 1, outcome.fault_tick_count))

    # Serving: two real in-process runs of one trace.
    serve = workloads.ServeMixed()
    serve.N_PER_RANGE, serve.TICKS = 1, 20
    serve.setup(3, tmp)
    first = serve.serve(OpClock(), workloads.Measurement(), forked=False)
    serve.serve(OpClock(), workloads.Measurement(), forked=False)
    good = checks.check_serve(serve.fingerprints, first["summary"])
    expect("serve: fingerprint mismatch", good,
           checks.check_serve(serve.fingerprints + ["0" * 64],
                              first["summary"]))
    expect("serve: unserved tick", good,
           checks.check_serve(serve.fingerprints,
                              dict(first["summary"], unserved=1)))

    # Training: a real one-epoch job, a NaN loss and a bit-rotted snapshot.
    from repro.models.training import EpochCheckpointer, train_regressor
    from repro.models.distance import DistanceRegressor
    model = DistanceRegressor(rng=np.random.default_rng(0))
    model.load_state_dict(finetune.base_state)
    path = os.path.join(tmp, "snapshot.npz")
    verified = []
    history = train_regressor(model, finetune.images[:32],
                              finetune.distances[:32], epochs=1, seed=3,
                              checkpoint=EpochCheckpointer(path, every=1),
                              callback=lambda epoch, loss: verified.append(
                                  workloads.snapshot_verifies(path,
                                                              epoch + 1)))
    good = checks.check_training(history, verified, 1)
    expect("training: non-finite loss", good,
           checks.check_training([float("nan")], verified, 1))
    with open(path, "r+b") as handle:        # flip bytes mid-archive
        handle.seek(os.path.getsize(path) // 2)
        handle.write(b"\xff" * 16)
    expect("training: snapshot fails digest", good,
           checks.check_training(history,
                                 [workloads.snapshot_verifies(path, 1)], 1))

    # Reference bands: each committed value, then one pushed out of band.
    for key, entry in sorted(reference.items()):
        good = checks.check_reference(key, entry["mean"], reference)
        expect(f"reference: {key}", good, checks.check_reference(
            key, entry["mean"] + 1.5 * entry["tolerance"], reference))
    if not reference:
        failures.append("reference.json missing")

    print(f"{len(failures)} check(s) misbehaved" if failures
          else "every check fired on its corrupted output")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
