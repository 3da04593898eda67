"""The four benchmark workloads, driven through the program's public API.

Each workload is closed-loop and runs in one process: the next operation
starts only after the previous one returned.  A workload has

* ``setup(seed)``: everything before the first operation (frozen weights,
  seeded inputs, objects); run several times per run to time it;
* ``measure(seconds)``: repeat fixed passes of work for about ``seconds``
  with tracing off, timing only operation boundaries;
* ``trace(tracer)``: fixed passes with the span tracer installed, plus the
  untraced twin pass that the tracing overhead is measured against;
* ``quality()``: the paper-level numbers checked against ``reference.json``.

Operations (what ``attempted`` counts): a grid cell, a tick, a request, a
training epoch.  An operation fails when it misses its budget or belongs
to an output that fails a correctness check.
"""

from __future__ import annotations

import functools
import json
import math
import os
import shutil
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

import checks
import frozen
from spans import OpClock, Patches, Tracer, chunk_rates, clock

from repro.attacks import CAPAttack, base as attack_base
from repro.attacks import autopgd as attack_autopgd
from repro.attacks import cap as attack_cap
from repro.attacks import fgsm as attack_fgsm
from repro.attacks import gaussian as attack_gaussian
from repro.configs import (MEDIAN_BLUR_KERNEL, REGRESSION_ATTACKS,
                           make_regression_attack)
from repro.data.driving import FRAME_H, FRAME_W
from repro.defenses import MedianBlur
from repro.eval import harness
from repro.models.distance import DistanceRegressor
from repro.models import training
from repro.models.training import EpochCheckpointer, train_regressor
from repro.nn import Adam, Tensor, functional, hooks
from repro.nn.serialize import CHECKPOINT_ERRORS, state_fingerprint
from repro.pipeline import (Camera, ClosedLoopSimulator, PerceptionService,
                            ScenarioConfig, Vehicle, make_cap_runtime_attack)
from repro.runtime import GridRunner, ResultCache, stable_seed, store
from repro.runtime.instrument import Instrumentation
from repro.serving import (AdmissionScorer, BrokerConfig, DefenseRouter,
                           PerceptionServer, ReplicaPool, RequestBroker,
                           ServeConfig, TrafficTrace, run_serve)

HERE = os.path.dirname(os.path.abspath(__file__))

#: 20 Hz control loop: a tick has one 50 ms frame budget.  A tick fails
#: when its own CPU time exceeds it; wall-clock overruns, which on a
#: shared virtual machine also come from the host preempting the guest,
#: are reported beside it.
FRAME_BUDGET_MS = 50.0

#: Ticks and requests are timed in chunks of this many for throughput, so
#: a burst of host contention moves one chunk rate, not the median.
CHUNK_OPS = 50


def load_reference() -> Dict[str, Dict[str, float]]:
    """Committed paper-level reference bands (``make_reference.py``).

    A missing file reads as no bands, so every reference check fails
    loudly instead of passing."""
    try:
        with open(os.path.join(HERE, "reference.json")) as handle:
            return json.load(handle)["values"]
    except FileNotFoundError:
        return {}


@dataclass
class Measurement:
    """What one untraced ``measure`` call observed."""

    rates: List[float] = field(default_factory=list)   # items/s per unit
    latencies_ms: List[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    notes: Dict[str, Any] = field(default_factory=dict)


@dataclass
class TraceRun:
    """What one traced ``trace`` call observed.

    ``blocks`` are (first span, last span, wall ms) of the traced passes
    whose layer shares are reported; ``plain_ms``/``traced_ms`` are the
    walls of the untraced and traced twin passes (tracing overhead).
    """

    blocks: List[Tuple[int, int, float]] = field(default_factory=list)
    plain_ms: float = 0.0
    traced_ms: float = 0.0
    forked: Optional[Tuple[int, int, float]] = None
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    counts: Dict[str, float] = field(default_factory=dict)
    detail: Dict[str, Any] = field(default_factory=dict)


def _fail_all(result, problems: List[str], ops: int) -> None:
    """Record ``problems``; when any, all ``ops`` operations failed."""
    result.attempted += ops
    if problems:
        result.failed += ops
        result.problems.extend(problems)


def install_layer_spans(patches: Patches, tracer: Tracer) -> None:
    """Wrap the public functions of every layer the benchmark reports."""
    def batch(images, *args, **kwargs) -> dict:
        return {"images": int(np.shape(images)[0])}

    layers = [
        (functional, "conv2d", "nn.conv2d"),
        (functional, "im2col", "nn.im2col"),
        (functional, "col2im", "nn.col2im"),
        (Tensor, "backward", "nn.backward"),
        (Adam, "step", "nn.optim.step"),
        (training, "augment_batch", "models.training.augment"),
        (DistanceRegressor, "forward", "models.forward"),
        (DistanceRegressor, "predict", "models.predict"),
        (attack_gaussian.GaussianNoiseAttack, "perturb",
         "attacks.gaussian.perturb"),
        (attack_fgsm.FGSMAttack, "perturb", "attacks.fgsm.perturb"),
        (attack_autopgd.AutoPGDAttack, "perturb", "attacks.autopgd.perturb"),
        (CAPAttack, "attack_frame", "attacks.cap.perturb"),
        (GridRunner, "run", "runtime.grid.run"),
        (ResultCache, "save_arrays", "runtime.cache.save"),
        (ResultCache, "save_json", "runtime.cache.save"),
        (ResultCache, "load_arrays", "runtime.cache.load"),
        (ResultCache, "load_json", "runtime.cache.load"),
        (EpochCheckpointer, "save", "runtime.store.checkpoint_save"),
        (Camera, "capture", "pipeline.camera.capture"),
        (PerceptionService, "process", "pipeline.perception.process"),
        (MedianBlur, "purify", "defenses.median_blur.purify"),
        (AdmissionScorer, "score", "serving.scorer.score"),
        (RequestBroker, "submit", "serving.broker.submit"),
    ]
    for owner, attr, name in layers:
        patches.wrap(owner, attr, tracer.traced(name))
    # ``from .base import input_gradient`` binds the function into each
    # attack module, so every binding is wrapped.
    for module in (attack_base, attack_fgsm, attack_autopgd, attack_cap):
        patches.wrap(module, "input_gradient",
                     tracer.traced("attacks.input_gradient", attrs_of=batch))
    patches.wrap(ReplicaPool, "call", tracer.traced(
        "serving.replica.call",
        name_of=lambda pool, slot, seq, payload:
        f"serving.replica.call.{payload[0]}"))


def snapshot_verifies(path: str, epochs_done: int) -> bool:
    """A strict, digest-checked read of the training snapshot at ``path``
    holds the state after ``epochs_done`` epochs."""
    try:
        state = store.load_state(path)
    except CHECKPOINT_ERRORS + (store.CorruptArtifact,):
        return False
    return int(state["epoch"]) == epochs_done


def _forward_counter() -> int:
    return hooks.snapshot()[0]


# ----------------------------------------------------------------------
# table1-grid
# ----------------------------------------------------------------------

class Table1Grid:
    """Table I (Gaussian, FGSM, Auto-PGD-20, CAP) through ``GridRunner``.

    Each pass runs the grid cold at the default worker count on a private,
    empty result cache, then regenerates it warm from that cache.
    """

    name = "table1-grid"
    N_PER_RANGE = 8          # 32 balanced frames: one batch of 32 per attack
    WARM_PASSES = 5          # warm regenerations per cold pass

    def setup(self, seed: int, scratch: str) -> None:
        self.seed = seed
        self.scratch = scratch
        self.model = frozen.load_regressor("regressor")
        self.images, self.distances, self.boxes = \
            harness.make_balanced_eval_frames(self.N_PER_RANGE, seed)
        self.mask = attack_base.boxes_to_mask(self.boxes, FRAME_H, FRAME_W)
        self.model_fp = state_fingerprint(self.model)
        self._passes = 0

    def _cell(self, name: str, cache: ResultCache) -> Dict[str, Any]:
        adversarial = harness.cached_attack_driving_frames(
            self.model, self.images, self.distances, self.boxes,
            make_regression_attack(name), cache=cache)
        errors = harness.evaluate_distance(
            self.model, self.images, self.distances, self.boxes,
            adversarial_images=adversarial).range_errors
        return {"errors": errors,
                "frames": checks.frame_stats(adversarial, self.images,
                                             self.mask)}

    def _grid(self, cache: ResultCache, workers: Optional[int],
              ledger: Instrumentation) -> GridRunner:
        grid = GridRunner("table1", workers=workers, cache=cache,
                          instrumentation=ledger)
        for name in REGRESSION_ATTACKS:
            grid.add(name, functools.partial(self._cell, name, cache),
                     config={"attack": name, "n_per_range": self.N_PER_RANGE,
                             "seed": self.seed, "model": self.model_fp,
                             "v": 1})
        return grid

    def _fresh_cache(self) -> ResultCache:
        self._passes += 1
        root = os.path.join(self.scratch, f"cells-{self._passes}")
        shutil.rmtree(root, ignore_errors=True)
        return ResultCache(root=root, enabled=True)

    def _cold(self, cache: ResultCache, workers: Optional[int],
              result) -> Tuple[Dict[str, Any], Instrumentation, float]:
        """One cold grid pass; each cell's frames and Table I row are
        checked, and a failed check fails that cell."""
        ledger = Instrumentation()
        start = clock()
        rows = self._grid(cache, workers, ledger).run()
        wall = clock() - start
        reference = load_reference()
        means = self.table_row_means(rows)
        order = checks.check_table1_order(means)
        for name, mean in means.items():
            eps = getattr(make_regression_attack(name), "eps", None)
            problems = checks.check_frames(rows[name]["frames"], eps,
                                           f"table1 {name}")
            problems += checks.check_reference(f"table1.{name}", mean,
                                               reference)
            _fail_all(result, problems + order, 1)
        return rows, ledger, wall

    def _warm(self, cache: ResultCache, cold: Dict[str, Any], workers,
              result) -> Tuple[float, Instrumentation]:
        ledger = Instrumentation()
        start = clock()
        rows = self._grid(cache, workers, ledger).run()
        wall = clock() - start
        cached = {record.cell: record.cached for record in ledger.cells}
        problems = checks.check_warm_grid(cold, rows, cached)
        _fail_all(result, problems, len(cold))
        return wall, ledger

    def measure(self, seconds: float) -> Measurement:
        """Cold passes (each the unit of throughput and one latency
        sample), each followed by warm passes that check the cache."""
        result = Measurement()
        deadline = clock() + seconds
        warm_ms: List[float] = []
        frames = len(REGRESSION_ATTACKS) * len(self.images)
        while True:
            cache = self._fresh_cache()
            cold, _, wall = self._cold(cache, None, result)
            result.rates.append(frames / wall)
            result.latencies_ms.append(wall * 1000.0)
            for _ in range(self.WARM_PASSES):
                warm, _ = self._warm(cache, cold, None, result)
                warm_ms.append(warm * 1000.0)
            shutil.rmtree(cache.root, ignore_errors=True)
            if clock() + 0.5 * float(np.median(result.latencies_ms)) \
                    / 1000.0 > deadline:
                break
        result.notes = {"unit": f"cold Table I pass ({frames} adversarial "
                                f"frames, batch {len(self.images)})",
                        "latency_op": "cold Table I pass",
                        "warm_pass_ms_median": float(np.median(warm_ms)),
                        "warm_passes": len(warm_ms)}
        return result

    @staticmethod
    def table_row_means(rows: Dict[str, Any]) -> Dict[str, float]:
        """Table I row per attack: mean signed error over the four ranges."""
        return {name: float(np.mean(list(rows[name]["errors"].errors
                                          .values())))
                for name in REGRESSION_ATTACKS}

    def quality(self) -> Dict[str, float]:
        rows, _, _ = self._cold(self._fresh_cache(), None, Measurement())
        return {f"table1.{name}": mean
                for name, mean in self.table_row_means(rows).items()}

    def trace(self, tracer: Tracer) -> TraceRun:
        run = TraceRun()
        # Untraced twins before and after the traced in-process pass
        # (their mean) give the tracing overhead.
        _, _, plain = self._cold(self._fresh_cache(), 1, run)
        cache = self._fresh_cache()
        forward_before = _forward_counter()
        with Patches() as patches:
            install_layer_spans(patches, tracer)
            first = len(tracer)
            cold, _, traced = self._cold(cache, 1, run)
            cold_block = (first, len(tracer), traced * 1000.0)
            first = len(tracer)
            warm, warm_ledger = self._warm(cache, cold, 1, run)
            warm_block = (first, len(tracer), warm * 1000.0)
        run.counts["nn.hooks.forward_passes"] = \
            _forward_counter() - forward_before
        run.traced_ms = traced * 1000.0
        _, _, plain_after = self._cold(self._fresh_cache(), 1, run)
        run.plain_ms = (plain + plain_after) * 500.0
        run.blocks = [cold_block, warm_block]
        run.counts["runtime.cache.hit_ratio"] = (
            sum(record.cached for record in warm_ledger.cells)
            / len(warm_ledger.cells))
        # Forked pass at the default worker count, seen from the parent
        # through the per-cell ledger (spans in workers are invisible).
        forked, ledger, wall = self._cold(self._fresh_cache(), None, run)
        mismatched = [f"table1: forked cell {name!r} differs from the "
                      f"in-process one" for name in forked
                      if checks.canonical(forked[name])
                      != checks.canonical(cold[name])]
        run.problems += mismatched
        run.failed += len(mismatched)
        workers = int(os.environ["REPRO_WORKERS"])
        cell_s = {record.cell: record.seconds for record in ledger.cells}
        run.counts["runtime.grid.parallel_eff"] = (
            sum(cell_s.values()) / (workers * wall))
        run.counts["runtime.grid.critical_cell.pct"] = (
            100.0 * max(cell_s.values()) / wall)
        step_ms, images = tracer.batch_sum("attacks.input_gradient", "images",
                                           *cold_block[:2])
        run.detail = {
            "in_process_pass": "workers=1 (bit-identical to the forked "
                               "mode); layer shares come from it",
            "forked_pass": {"workers": workers, "wall_s": round(wall, 4),
                            "runtime.grid.cell_s": {
                                cell: round(s, 4)
                                for cell, s in cell_s.items()},
                            "forward_passes_per_cell": {
                                record.cell: record.forward_passes
                                for record in ledger.cells}},
            "warm_pass_ms": round(warm * 1000.0, 4),
            "attacks.step_ms_per_image": (step_ms / images if images
                                          else None),
            "attack_step_images": images,
            "attack_step": "input_gradient (forward + backward) per image",
        }
        return run


# ----------------------------------------------------------------------
# acc-cap
# ----------------------------------------------------------------------

class AccCap:
    """Closed-loop ACC drives under CAP-Attack with degradation on."""

    name = "acc-cap"
    SCENARIO = {"duration_s": 20.0, "initial_gap_m": 50.0,
                "ego_speed": 28.0, "lead_speed": 25.0}
    CAP_EPS = 0.12
    CAP_STEPS = 2

    def setup(self, seed: int, scratch: str) -> None:
        self.seed = seed
        self.model = frozen.load_regressor("regressor")
        self.scenario = ScenarioConfig(**self.SCENARIO)
        self._drives = 0

    def drive(self, ticks: OpClock, result) -> Dict[str, Any]:
        """One full drive; tick boundaries go to ``ticks``."""
        simulator = ClosedLoopSimulator(
            self.model, seed=stable_seed("perfbench.acc", self.seed,
                                         self._drives),
            degradation=True)
        self._drives += 1
        cap = make_cap_runtime_attack(CAPAttack(eps=self.CAP_EPS,
                                                steps_per_frame=self.CAP_STEPS))
        stats: List[Optional[Dict[str, float]]] = [None]

        def attack(frame, box, loss_fn):
            adversarial = cap(frame, box, loss_fn)
            mask = attack_base.boxes_to_mask([box], FRAME_H, FRAME_W)[0]
            stats[0] = checks.merge_stats(
                stats[0], checks.frame_stats(adversarial, frame, mask))
            return adversarial

        before = len(ticks.starts)
        with Patches() as patches:
            patches.wrap(Camera, "capture", ticks.before)
            patches.wrap(Vehicle, "step", ticks.after)
            start = clock()
            outcome = simulator.run(self.scenario, attack=attack)
            wall = clock() - start
        intervals = ticks.intervals()[before:]
        durations = [(end - start) * 1000.0 for start, end in intervals]
        over_cpu = sum(1 for ms in ticks.cpu_ms()[before:]
                       if ms > FRAME_BUDGET_MS)
        problems = checks.check_drive(outcome.collided,
                                      simulator.perception.fault_count,
                                      outcome.fault_tick_count)
        if stats[0] is not None:
            problems += checks.check_frames(stats[0], self.CAP_EPS,
                                            "acc-cap CAP frames")
        problems += checks.check_reference(
            "acc.min_gap_m", float(outcome.min_distance), load_reference())
        _fail_all(result, problems, len(durations))
        if not problems:
            result.failed += over_cpu
        return {"wall": wall, "ticks": len(durations),
                "rates": chunk_rates(intervals, CHUNK_OPS),
                "min_gap_m": float(outcome.min_distance),
                "over_budget_cpu": over_cpu,
                "over_budget_wall": sum(1 for ms in durations
                                        if ms > FRAME_BUDGET_MS)}

    def measure(self, seconds: float) -> Measurement:
        result = Measurement()
        ticks = OpClock()
        deadline = clock() + seconds
        walls = []
        over_wall = 0
        while True:
            outcome = self.drive(ticks, result)
            walls.append(outcome["wall"])
            over_wall += outcome["over_budget_wall"]
            result.rates += outcome["rates"]
            if clock() + 0.5 * float(np.median(walls)) > deadline:
                break
        result.latencies_ms = ticks.durations_ms()
        result.notes = {"drives": len(walls), "latency_op": "tick",
                        "unit": f"{CHUNK_OPS} consecutive ticks",
                        "tick_budget_ms": FRAME_BUDGET_MS,
                        "ticks_over_budget_wall": over_wall,
                        "tick_cpu_p50_ms": float(np.median(ticks.cpu_ms()))}
        return result

    def quality(self) -> Dict[str, float]:
        return {"acc.min_gap_m":
                self.drive(OpClock(), Measurement())["min_gap_m"]}

    def trace(self, tracer: Tracer) -> TraceRun:
        run = TraceRun()
        drive_index = self._drives
        plain = self.drive(OpClock(), run)
        self._drives = drive_index     # same inputs for every twin
        ticks = OpClock()
        forward_before = _forward_counter()
        with Patches() as patches:
            install_layer_spans(patches, tracer)
            first = len(tracer)
            traced = self.drive(ticks, run)
            last = len(tracer)
        run.counts["nn.hooks.forward_passes"] = \
            _forward_counter() - forward_before
        run.traced_ms = traced["wall"] * 1000.0
        self._drives = drive_index
        plain_after = self.drive(OpClock(), run)
        run.plain_ms = (plain["wall"] + plain_after["wall"]) * 500.0
        run.blocks = [(first, last, run.traced_ms)]
        tick_ms = sum(ticks.durations_ms())
        covered = tracer.covered_ms(ticks.intervals(), first, last)
        run.counts["pipeline.tick_other.pct"] = (
            100.0 * (tick_ms - covered) / run.traced_ms)
        step_ms, images = tracer.batch_sum("attacks.input_gradient", "images",
                                           first, last)
        run.detail = {
            "ticks": traced["ticks"],
            "pipeline.tick_other.ms_per_tick": (tick_ms - covered)
            / max(1, traced["ticks"]),
            "attacks.step_ms_per_image": (step_ms / images if images
                                          else None),
            "attack_step_images": images,
            "attack_step": "input_gradient (forward + backward) per image",
        }
        return run


# ----------------------------------------------------------------------
# serve-mixed
# ----------------------------------------------------------------------

class ServeMixed:
    """A 20 Hz trace of clean and adversarial frames through the defense
    router, broker and forked replica pool, one client waiting per reply."""

    name = "serve-mixed"
    N_PER_RANGE = 6            # 24 eval frames, each in 4 attacked variants
    TICKS = 200
    ATTACK_FRACTION = 0.35
    ASR_THRESHOLD_M = 10.0     # served this far off = attack success

    def setup(self, seed: int, scratch: str) -> None:
        # One waiting client never overlaps the client and a replica, so
        # all of them share one CPU: cross-CPU wakeups on a virtual machine
        # cost hypervisor exits that made request latency swing 2x with
        # the host's steal time.  Replicas inherit the affinity by fork.
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        self.seed = seed
        fast = frozen.load_regressor("regressor")
        defended = frozen.load_regressor("serve_defended")
        images, distances, boxes = harness.make_balanced_eval_frames(
            self.N_PER_RANGE, seed)
        mask = attack_base.boxes_to_mask(boxes, FRAME_H, FRAME_W)
        self.setup_problems: List[str] = []
        adversarial = {}
        for name in REGRESSION_ATTACKS:
            attack = make_regression_attack(name)
            adversarial[name] = harness.attack_driving_frames(
                fast, images, distances, boxes, attack)
            self.setup_problems += checks.check_frames(
                checks.frame_stats(adversarial[name], images, mask),
                getattr(attack, "eps", None), f"serve pool {name}")
        self.server = PerceptionServer(
            fast=PerceptionService(fast),
            defended=PerceptionService(
                defended, defense=MedianBlur(MEDIAN_BLUR_KERNEL)))
        self.traffic = TrafficTrace.mixed(
            images, distances, adversarial,
            attack_fraction=self.ATTACK_FRACTION, n_ticks=self.TICKS,
            seed=seed)
        self.scorer = AdmissionScorer()
        self.scorer.calibrate(images)
        self.replicas = int(os.environ["REPRO_SERVE_REPLICAS"])
        self.fingerprints: List[str] = []

    def serve(self, requests: OpClock, result,
              forked: Optional[bool] = None) -> Dict[str, Any]:
        """One pass over the trace; request boundaries go to ``requests``."""
        config = ServeConfig(wall_timeout=2.0,
                             broker=BrokerConfig(deadline_ms=60.0),
                             n_replicas=self.replicas, forked=forked)
        before = len(requests.starts)
        with Patches() as patches:
            patches.wrap(DefenseRouter, "route", requests.before)
            patches.wrap(RequestBroker, "submit", requests.after)
            start = clock()
            report = run_serve(self.traffic, self.server, config,
                               scorer=self.scorer)
            wall = clock() - start
        summary = report.summary()
        self.fingerprints.append(report.fingerprint())
        asr = self.attack_success_rate(report)
        problems = list(self.setup_problems)
        problems += checks.check_serve(self.fingerprints, summary)
        problems += checks.check_reference("serve.asr", asr,
                                           load_reference())
        intervals = requests.intervals()[before:]
        served = len(intervals)
        _fail_all(result, problems, served)
        if not problems:
            result.failed += summary["shed"] + summary["coasted"]
        return {"wall": wall, "requests": served, "summary": summary,
                "rates": chunk_rates(intervals, CHUNK_OPS),
                "asr": asr}

    def attack_success_rate(self, report) -> float:
        attacked = [tick for tick in report.ticks
                    if tick.attack and tick.outcome == "answered"]
        hits = [tick for tick in attacked
                if tick.measurement is None
                or abs(tick.measurement - tick.truth) > self.ASR_THRESHOLD_M]
        return len(hits) / len(attacked) if attacked else math.nan

    def measure(self, seconds: float) -> Measurement:
        result = Measurement()
        requests = OpClock()
        deadline = clock() + seconds
        walls = []
        while True:
            outcome = self.serve(requests, result)
            walls.append(outcome["wall"])
            result.rates += outcome["rates"]
            if clock() + 0.5 * float(np.median(walls)) > deadline:
                break
        result.latencies_ms = requests.durations_ms()
        result.notes = {"passes": len(walls), "latency_op": "request "
                        "(route + submit, wall clock)",
                        "cpu_affinity": sorted(os.sched_getaffinity(0)),
                        "unit": f"{CHUNK_OPS} consecutive requests",
                        "replicas": self.replicas,
                        "serve_asr": outcome["asr"]}
        return result

    def quality(self) -> Dict[str, float]:
        return {"serve.asr": self.serve(OpClock(), Measurement())["asr"]}

    def trace(self, tracer: Tracer) -> TraceRun:
        run = TraceRun()
        plain = self.serve(OpClock(), run)
        with Patches() as patches:
            install_layer_spans(patches, tracer)
            first = len(tracer)
            forked = self.serve(OpClock(), run)
            run.forked = (first, len(tracer), forked["wall"] * 1000.0)
            first = len(tracer)
            forward_before = _forward_counter()
            inproc = self.serve(OpClock(), run, forked=False)
            run.counts["nn.hooks.forward_passes"] = \
                _forward_counter() - forward_before
            block = (first, len(tracer), inproc["wall"] * 1000.0)
        run.traced_ms = forked["wall"] * 1000.0
        plain_after = self.serve(OpClock(), run)
        run.plain_ms = (plain["wall"] + plain_after["wall"]) * 500.0
        run.blocks = [block]
        summary = forked["summary"]
        calls = {path: [tracer._ms(i) for i in range(*run.forked[:2])
                        if tracer.names[i] == f"serving.replica.call.{path}"]
                 for path in ("fast", "defended")}
        total_calls = sum(len(values) for values in calls.values())
        run.counts.update({
            "serving.hedges": summary["hedges"],
            "serving.retries": summary["retries"],
            "serving.shed": summary["shed"],
            "serving.replica.calls": total_calls,
            "serving.useful_call_ratio": (summary["answered"] / total_calls
                                          if total_calls else 0.0),
            "serving.defended_share": (summary["routed_defended"]
                                       / max(1, summary["ticks"])),
            "serving.asr": forked["asr"],
        })

        def distribution(values: List[float]) -> Dict[str, Any]:
            if not values:
                return {"n": 0}
            return {"n": len(values),
                    "p50_ms": float(np.percentile(values, 50)),
                    "p90_ms": float(np.percentile(values, 90)),
                    "p99_ms": float(np.percentile(values, 99)),
                    "max_ms": float(max(values))}

        scorer = [tracer._ms(i) for i in range(*run.forked[:2])
                  if tracer.names[i] == "serving.scorer.score"]
        run.detail = {
            "in_process_pass": "forked=False (bit-identical outcome stream "
                               "to the forked mode); inner layer shares "
                               "come from it",
            "forked_pass": "replica.call shares and the measured service "
                           "times come from the forked pass",
            "measured": {
                "serving.replica.call.fast": distribution(calls["fast"]),
                "serving.replica.call.defended":
                    distribution(calls["defended"]),
                "serving.scorer.score": distribution(scorer),
            },
            "modeled": {
                "serving.modeled_p50_ms": summary["latency_p50_ms"],
                "serving.modeled_p99_ms": summary["latency_p99_ms"],
                "note": "virtual-clock LatencyModel draws, not measurements",
            },
            "fingerprints_equal": len(set(self.fingerprints)) == 1,
            "serve_asr": forked["asr"],
        }
        return run


# ----------------------------------------------------------------------
# finetune
# ----------------------------------------------------------------------

class Finetune:
    """Table III-style adversarial fine-tuning of the regressor on
    pre-generated FGSM and clean frames, snapshotting every epoch."""

    name = "finetune"
    N_PER_RANGE = 32           # 128 clean + 128 FGSM frames per epoch
    EPOCHS = 3
    LR = 1e-3

    def setup(self, seed: int, scratch: str) -> None:
        self.seed = seed
        self.scratch = scratch
        base = frozen.load_regressor("regressor")
        self.base_state = base.state_dict()
        images, distances, boxes = harness.make_balanced_eval_frames(
            self.N_PER_RANGE, seed)
        attack = make_regression_attack("FGSM")
        adversarial = harness.attack_driving_frames(base, images, distances,
                                                    boxes, attack)
        mask = attack_base.boxes_to_mask(boxes, FRAME_H, FRAME_W)
        self.setup_problems = checks.check_frames(
            checks.frame_stats(adversarial, images, mask), attack.eps,
            "finetune FGSM frames")
        self.images = np.concatenate([adversarial, images])
        self.distances = np.concatenate([distances, distances])
        self._jobs = 0

    def job(self, steps: OpClock, result) -> Dict[str, Any]:
        """Fine-tune a fresh copy of the base weights for ``EPOCHS``."""
        model = DistanceRegressor(rng=np.random.default_rng(0))
        model.load_state_dict(self.base_state)
        path = os.path.join(self.scratch, f"finetune-{self._jobs}.ckpt.npz")
        self._jobs += 1
        checkpoint = EpochCheckpointer(path, every=1,
                                       label="perfbench.finetune")
        verified: List[bool] = []
        epoch_ends: List[float] = []

        def verify(epoch: int, loss: float) -> None:
            epoch_ends.append(clock())
            verified.append(snapshot_verifies(path, epoch + 1))

        with Patches() as patches:
            patches.wrap(Adam, "zero_grad", steps.before)
            patches.wrap(Adam, "step", steps.after)
            start = clock()
            history = train_regressor(
                model, self.images, self.distances, epochs=self.EPOCHS,
                seed=self.seed, lr=self.LR, checkpoint=checkpoint,
                callback=verify)
            wall = clock() - start
        checkpoint.finalize()
        problems = list(self.setup_problems)
        problems += checks.check_training(history, verified, self.EPOCHS)
        if history:
            problems += checks.check_reference("finetune.final_loss",
                                               float(history[-1]),
                                               load_reference())
        _fail_all(result, problems, self.EPOCHS)
        bounds = [start] + epoch_ends
        return {"wall": wall,
                "rates": [len(self.images) / (end - begin)
                          for begin, end in zip(bounds, bounds[1:])],
                "final_loss": float(history[-1]) if history else math.nan}

    def measure(self, seconds: float) -> Measurement:
        result = Measurement()
        steps = OpClock()
        deadline = clock() + seconds
        walls = []
        while True:
            outcome = self.job(steps, result)
            walls.append(outcome["wall"])
            result.rates += outcome["rates"]
            if clock() + 0.5 * float(np.median(walls)) > deadline:
                break
        result.latencies_ms = steps.durations_ms()
        result.notes = {"jobs": len(walls), "epochs_per_job": self.EPOCHS,
                        "latency_op": "training step (batch of 32)",
                        "unit": f"epoch ({len(self.images)} samples, "
                                f"snapshot included)"}
        return result

    def quality(self) -> Dict[str, float]:
        return {"finetune.final_loss":
                self.job(OpClock(), Measurement())["final_loss"]}

    def trace(self, tracer: Tracer) -> TraceRun:
        run = TraceRun()
        job_index = self._jobs
        plain = self.job(OpClock(), run)
        self._jobs = job_index         # same inputs for every twin
        forward_before = _forward_counter()
        with Patches() as patches:
            install_layer_spans(patches, tracer)
            first = len(tracer)
            traced = self.job(OpClock(), run)
            last = len(tracer)
        run.counts["nn.hooks.forward_passes"] = \
            _forward_counter() - forward_before
        run.traced_ms = traced["wall"] * 1000.0
        self._jobs = job_index
        plain_after = self.job(OpClock(), run)
        run.plain_ms = (plain["wall"] + plain_after["wall"]) * 500.0
        run.blocks = [(first, last, run.traced_ms)]
        return run


WORKLOADS: Dict[str, Callable[[], Any]] = {
    Table1Grid.name: Table1Grid,
    AccCap.name: AccCap,
    ServeMixed.name: ServeMixed,
    Finetune.name: Finetune,
}
