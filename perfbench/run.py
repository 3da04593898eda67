"""Repository benchmark: Table I grid, CAP closed loop, served requests and
adversarial fine-tuning, with a traced per-layer breakdown.

Run from the repository root::

    python3 perfbench/run.py --workload acc-cap --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` runs fixed passes with spans around the program's public
functions and reports per-layer numbers.  The last line of standard output
is one JSON object ``{"correct", "attempted", "failed", "metrics"}``; the
lines before it and ``.perfbench/<workload>-s<seed>-t<trace>.json`` hold
the detail (tail percentile and sample count, environment, per-layer
milliseconds, measured and modeled serving service times, problems).

The benchmark drives ``repro`` from ``src/`` of the checkout it sits in and
writes only below that checkout: a private scratch directory that is
removed on exit, and the report directory ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: An untraced run imports the program once in-process and this many
#: times in fresh interpreters before set-up and again after measuring
#: (import time swings with the host's speed, so the samples span the
#: run), and sets up SETUP_REPEATS times; setup_s is the sum of the two
#: medians.
FRESH_IMPORTS = 2
SETUP_REPEATS = 3

#: (per-layer metric, span name): self time as a share of the traced
#: in-process passes' wall time.
LAYER_SHARES = [
    ("nn.conv2d.pct", "nn.conv2d"),
    ("nn.im2col.pct", "nn.im2col"),
    ("nn.col2im.pct", "nn.col2im"),
    ("nn.backward.pct", "nn.backward"),
    ("nn.optim.step.pct", "nn.optim.step"),
    ("models.training.augment.pct", "models.training.augment"),
    ("models.forward.pct", "models.forward"),
    ("models.predict.pct", "models.predict"),
    ("attacks.gaussian.perturb.pct", "attacks.gaussian.perturb"),
    ("attacks.fgsm.perturb.pct", "attacks.fgsm.perturb"),
    ("attacks.autopgd.perturb.pct", "attacks.autopgd.perturb"),
    ("attacks.cap.perturb.pct", "attacks.cap.perturb"),
    ("attacks.input_gradient.pct", "attacks.input_gradient"),
    ("runtime.grid.run.pct", "runtime.grid.run"),
    ("runtime.cache.save.pct", "runtime.cache.save"),
    ("runtime.cache.load.pct", "runtime.cache.load"),
    ("runtime.store.checkpoint_save.pct", "runtime.store.checkpoint_save"),
    ("pipeline.camera.capture.pct", "pipeline.camera.capture"),
    ("pipeline.perception.process.pct", "pipeline.perception.process"),
    ("defenses.median_blur.purify.pct", "defenses.median_blur.purify"),
    ("serving.scorer.score.pct", "serving.scorer.score"),
    ("serving.broker.submit.pct", "serving.broker.submit"),
]
#: self time share of the forked pass (round trips seen by the parent).
FORKED_SHARES = [
    ("serving.replica.call.fast.pct", "serving.replica.call.fast"),
    ("serving.replica.call.defended.pct", "serving.replica.call.defended"),
]
#: (per-layer metric, span name): call counts in the traced passes.
LAYER_CALLS = [
    ("nn.conv2d.calls", "nn.conv2d"),
    ("nn.backward.calls", "nn.backward"),
    ("models.forward.calls", "models.forward"),
    ("attacks.input_gradient.calls", "attacks.input_gradient"),
]
#: metrics a workload computes itself (zero where the layer is absent).
WORKLOAD_COUNTS = [
    ("nn.hooks.forward_passes", "count"),
    ("pipeline.tick_other.pct", "%"),
    ("runtime.grid.critical_cell.pct", "%"),
    ("runtime.grid.parallel_eff", "ratio"),
    ("runtime.cache.hit_ratio", "ratio"),
    ("serving.hedges", "count"),
    ("serving.retries", "count"),
    ("serving.shed", "count"),
    ("serving.replica.calls", "count"),
    ("serving.useful_call_ratio", "ratio"),
    ("serving.defended_share", "ratio"),
    ("serving.asr", "ratio"),
]


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["table1-grid", "acc-cap", "serve-mixed",
                                 "finetune"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return parser.parse_args(argv)


def end_to_end(measurement, setup_s: float) -> tuple:
    """End-to-end metrics of an untraced run, and the detail behind them.

    Throughput is the median over the run's units (cold passes, chunks of
    ticks or requests, epochs); latency is the median operation.  The
    tail (highest percentile with ten samples beyond it) is reported in
    the detail only.
    """
    from spans import median, tail

    latencies = measurement.latencies_ms
    detail = {"units": len(measurement.rates),
              "latency_samples": len(latencies), **measurement.notes}
    if len(latencies) >= 11:
        value, percentile, _ = tail(latencies)
        detail.update({"latency_tail_ms": value,
                       "latency_tail_percentile": percentile})
    metrics = {
        "setup_s": {"value": setup_s, "unit": "s"},
        "throughput_per_s": {"value": median(measurement.rates),
                             "unit": "1/s"},
        "latency_p50_ms": {"value": median(latencies), "unit": "ms"},
    }
    return metrics, detail


def per_layer(tracer, run) -> tuple:
    """Per-layer metrics of a traced run, plus the absolute layer table."""
    wall_ms = sum(wall for _, _, wall in run.blocks)
    table = {}
    for first, last, _ in run.blocks:
        for name, row in tracer.layer_table(first, last).items():
            total = table.setdefault(name, {"calls": 0, "total_ms": 0.0,
                                            "self_ms": 0.0})
            for key in total:
                total[key] += row[key]
    covered = sum(tracer.covered_ms([(-float("inf"), float("inf"))],
                                    first, last)
                  for first, last, _ in run.blocks)
    metrics = {}
    for metric, span in LAYER_SHARES:
        self_ms = table.get(span, {}).get("self_ms", 0.0)
        metrics[metric] = {"value": 100.0 * self_ms / wall_ms, "unit": "%"}
    forked_table = {}
    if run.forked is not None:
        first, last, forked_ms = run.forked
        forked_table = tracer.layer_table(first, last)
    for metric, span in FORKED_SHARES:
        self_ms = forked_table.get(span, {}).get("self_ms", 0.0)
        metrics[metric] = {"value": (100.0 * self_ms / run.forked[2]
                                     if run.forked else 0.0), "unit": "%"}
    for metric, span in LAYER_CALLS:
        metrics[metric] = {"value": table.get(span, {}).get("calls", 0),
                           "unit": "count"}
    for metric, unit in WORKLOAD_COUNTS:
        metrics[metric] = {"value": run.counts.get(metric, 0), "unit": unit}
    model_calls = metrics["models.forward.calls"]["value"]
    metrics["models.forward_count_ratio"] = {
        "value": (metrics["nn.hooks.forward_passes"]["value"] / model_calls
                  if model_calls else 0.0), "unit": "ratio"}
    metrics["trace.unattributed.pct"] = {
        "value": 100.0 * (wall_ms - covered) / wall_ms, "unit": "%"}
    metrics["trace.overhead.pct"] = {
        "value": 100.0 * (run.traced_ms - run.plain_ms) / run.plain_ms,
        "unit": "%"}
    layers = {
        "in_process": {name: {key: round(value, 4) for key, value in
                              row.items()} for name, row in
                       sorted(table.items())},
        "forked": {name: {key: round(value, 4) for key, value in
                          row.items()} for name, row in
                   sorted(forked_table.items())},
        "wall_ms": wall_ms,
        "unattributed_ms": wall_ms - covered,
        "overhead_ms": run.traced_ms - run.plain_ms,
        "plain_ms": run.plain_ms,
        "traced_ms": run.traced_ms,
    }
    return metrics, layers


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no program sources at {SRC}; run from a "
              f"checkout of the repository", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2

    import envinfo

    envinfo.pin_native_threads()
    scratch_root = os.path.join(ROOT, ".perfbench_tmp")
    os.makedirs(scratch_root, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch_root)
    try:
        return run(args, scratch, envinfo)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            os.rmdir(scratch_root)
        except OSError:
            pass


def fresh_import_s() -> float:
    """Seconds a fresh interpreter takes to import the program (numpy,
    already loaded in the benchmark process, is imported first)."""
    code = ("import sys, time; sys.path[:0] = [{here!r}, {src!r}]; "
            "import numpy; start = time.perf_counter(); import workloads; "
            "print(time.perf_counter() - start)").format(here=HERE, src=SRC)
    child = subprocess.run([sys.executable, "-c", code], check=True,
                           capture_output=True, text=True, timeout=120)
    return float(child.stdout.split()[-1])


def run(args, scratch: str, envinfo) -> int:
    knobs = envinfo.pin_repro_knobs(os.path.join(scratch, "cache"))
    import numpy  # noqa: F401  (after pinning; not part of set-up time)

    sys.path.insert(0, SRC)
    start = time.perf_counter()
    import workloads
    import_s = time.perf_counter() - start
    from spans import Tracer, median

    fresh = 0 if args.trace else FRESH_IMPORTS
    imports = [import_s] + [fresh_import_s() for _ in range(fresh)]
    workload = workloads.WORKLOADS[args.workload]()
    setups = []
    for repeat in range(1 if args.trace else SETUP_REPEATS):
        start = time.perf_counter()
        workload.setup(args.seed, os.path.join(scratch, f"work-{repeat}"))
        setups.append(time.perf_counter() - start)
    report = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "environment": envinfo.record(knobs),
              "setup": {"import_s": imports, "repeats_s": setups}}

    cpu_before = envinfo.cpu_times()
    if args.trace:
        tracer = Tracer()
        origin = time.perf_counter()
        outcome = workload.trace(tracer)
        metrics, layers = per_layer(tracer, outcome)
        report.update({"layers": layers, "detail": outcome.detail,
                       "spans": len(tracer)})
    else:
        outcome = workload.measure(args.seconds)
        imports += [fresh_import_s() for _ in range(fresh)]
        metrics, detail = end_to_end(outcome,
                                     median(imports) + median(setups))
        report["detail"] = detail
        report["samples"] = {"unit_rates": outcome.rates,
                             "latencies_ms": outcome.latencies_ms}
    report["detail"]["host_steal_share"] = envinfo.steal_share(
        cpu_before, envinfo.cpu_times())
    report.update({"problems": outcome.problems,
                   "attempted": outcome.attempted,
                   "failed": outcome.failed,
                   "error_rate": outcome.failed / max(1, outcome.attempted),
                   "metrics": metrics})

    out_dir = os.path.join(ROOT, ".perfbench")
    os.makedirs(out_dir, exist_ok=True)
    stem = os.path.join(out_dir, f"{args.workload}-s{args.seed}-t{args.trace}")
    with open(stem + ".json", "w") as handle:
        json.dump(report, handle, indent=1, default=str)
    if args.trace:
        tracer.dump(stem + "-spans.json", origin)

    for problem in outcome.problems[:20]:
        print(f"problem: {problem}")
    if args.trace:
        print(f"{'layer (in-process passes)':<36}{'calls':>8}{'self ms':>11}"
              f"{'total ms':>11}")
        for name, row in sorted(report["layers"]["in_process"].items(),
                                key=lambda item: -item[1]["self_ms"]):
            print(f"{name:<36}{row['calls']:>8}{row['self_ms']:>11.1f}"
                  f"{row['total_ms']:>11.1f}")
    print(f"detail: {json.dumps(report['detail'], default=str)}")
    print(f"report: {stem}.json")
    result = {"correct": not outcome.problems,
              "attempted": int(outcome.attempted),
              "failed": int(outcome.failed),
              "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
