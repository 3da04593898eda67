"""Regenerate ``reference.json``: the paper-level numbers the benchmark's
outputs must reproduce.

For each reference seed it runs every workload's quality pass (Table I row
means, the CAP drive's minimum gap, the served attack success rate, the
fine-tuning final loss) and stores each number's mean over the seeds with
a tolerance of ``TOLERANCE_SD`` standard deviations (at least
``MIN_TOLERANCE`` of the mean).  Inputs depend on the seed, so a band over
seeds is what any run's seed is checked against.  A kernel change may move
float32 bits but must keep every value inside its band.

Run from the repository root::

    python3 perfbench/make_reference.py [n_seeds]
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

FIRST_SEED = 1000          # disjoint from the seeds benchmark runs use
TOLERANCE_SD = 4.0
MIN_TOLERANCE = 0.05       # share of |mean|


def main(argv) -> int:
    import envinfo

    n_seeds = int(argv[0]) if argv else 12
    envinfo.pin_native_threads()
    with tempfile.TemporaryDirectory(dir=ROOT,
                                     prefix=".perfbench_ref-") as scratch:
        envinfo.pin_repro_knobs(os.path.join(scratch, "cache"))
        sys.path.insert(0, os.path.join(ROOT, "src"))
        import numpy as np
        import workloads

        samples = {}
        seeds = list(range(FIRST_SEED, FIRST_SEED + n_seeds))
        for seed in seeds:
            for name, factory in workloads.WORKLOADS.items():
                workload = factory()
                workload.setup(seed, os.path.join(scratch, f"{name}-{seed}"))
                for key, value in workload.quality().items():
                    samples.setdefault(key, []).append(value)
            print(seed, {key: round(values[-1], 4)
                         for key, values in samples.items()}, flush=True)
    values = {}
    for key, series in sorted(samples.items()):
        series = np.asarray(series, dtype=np.float64)
        mean, sd = float(series.mean()), float(series.std(ddof=1))
        values[key] = {"mean": mean, "sd": sd,
                       "min": float(series.min()), "max": float(series.max()),
                       "tolerance": max(TOLERANCE_SD * sd,
                                        MIN_TOLERANCE * abs(mean))}
    with open(os.path.join(HERE, "reference.json"), "w") as handle:
        json.dump({"seeds": seeds, "tolerance_sd": TOLERANCE_SD,
                   "min_tolerance": MIN_TOLERANCE, "values": values},
                  handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(json.dumps(values, indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
