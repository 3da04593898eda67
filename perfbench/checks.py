"""Correctness checks on the program's outputs.

Every check is a pure function of an output and returns a list of
problems (empty: the output is correct), so ``selftest.py`` can feed each
one a deliberately corrupted output and show it firing.  A failed check
marks the operations that produced the output as failed, which is how the
checks feed the reported failure count.
"""

from __future__ import annotations

import json
import math
from typing import Any, Dict, List, Mapping, Optional, Sequence

import numpy as np

#: float32 slack on the L-inf budget (clip/add round-off).
EPS_SLACK = 1e-5


def frame_stats(adversarial: np.ndarray, clean: np.ndarray,
                mask: np.ndarray) -> Dict[str, float]:
    """Summary of an adversarial batch against its clean batch and mask."""
    adversarial = np.asarray(adversarial)
    finite = bool(np.isfinite(adversarial).all())
    delta = np.abs(adversarial.astype(np.float64) - clean)
    inside = mask.astype(bool)
    inside = np.broadcast_to(inside, delta.shape)
    return {
        "finite": finite,
        "min": float(np.nanmin(adversarial)) if finite else math.nan,
        "max": float(np.nanmax(adversarial)) if finite else math.nan,
        "max_delta_inside": float(delta[inside].max()) if inside.any()
        else 0.0,
        "max_delta_outside": float(delta[~inside].max()) if (~inside).any()
        else 0.0,
    }


def check_frames(stats: Mapping[str, Any], eps: Optional[float],
                 label: str) -> List[str]:
    """Finite, inside [0, 1], unchanged outside the mask and within the
    attack's L-inf ``eps`` inside it (``eps=None``: unbounded noise)."""
    problems = []
    if not stats["finite"]:
        problems.append(f"{label}: non-finite adversarial pixels")
        return problems
    if stats["min"] < 0.0 or stats["max"] > 1.0:
        problems.append(f"{label}: pixels outside [0, 1] "
                        f"({stats['min']:.4g}..{stats['max']:.4g})")
    if stats["max_delta_outside"] > 0.0:
        problems.append(f"{label}: perturbation outside the mask "
                        f"({stats['max_delta_outside']:.4g})")
    if eps is not None and stats["max_delta_inside"] > eps + EPS_SLACK:
        problems.append(f"{label}: L-inf {stats['max_delta_inside']:.5f} "
                        f"exceeds eps {eps}")
    return problems


def merge_stats(total: Optional[Dict[str, float]],
                stats: Mapping[str, Any]) -> Dict[str, float]:
    """Fold per-frame stats into running worst-case stats."""
    if total is None:
        return dict(stats)
    return {
        "finite": total["finite"] and stats["finite"],
        "min": min(total["min"], stats["min"]),
        "max": max(total["max"], stats["max"]),
        "max_delta_inside": max(total["max_delta_inside"],
                                stats["max_delta_inside"]),
        "max_delta_outside": max(total["max_delta_outside"],
                                 stats["max_delta_outside"]),
    }


def canonical(value: Any) -> str:
    """Byte-exact canonical form of a grid result (via the cache codec)."""
    from repro.runtime import codecs

    return json.dumps(codecs.to_jsonable(value), sort_keys=True)


def check_warm_grid(cold: Mapping[str, Any], warm: Mapping[str, Any],
                    cached: Mapping[str, bool]) -> List[str]:
    """The warm pass hit the cache on every cell and equals the cold pass."""
    problems = []
    for cell in cold:
        if not cached.get(cell, False):
            problems.append(f"warm grid: cell {cell!r} missed the cache")
        if cell not in warm:
            problems.append(f"warm grid: cell {cell!r} missing")
        elif canonical(warm[cell]) != canonical(cold[cell]):
            problems.append(f"warm grid: cell {cell!r} differs from cold")
    return problems


def check_drive(collided: bool, perception_faults: int,
                fault_ticks: int) -> List[str]:
    """A closed-loop drive ends without collision or perception fault."""
    problems = []
    if collided:
        problems.append("closed loop: collision")
    if perception_faults:
        problems.append(f"closed loop: {perception_faults} perception faults")
    if fault_ticks:
        problems.append(f"closed loop: {fault_ticks} sensor-fault ticks")
    return problems


def check_serve(fingerprints: Sequence[str],
                summary: Mapping[str, Any]) -> List[str]:
    """Every serve run of one trace shares a fingerprint, none leaves a
    tick unserved."""
    problems = []
    if len(set(fingerprints)) > 1:
        problems.append(f"serve: {len(set(fingerprints))} distinct "
                        f"fingerprints over {len(fingerprints)} runs")
    if summary["unserved"]:
        problems.append(f"serve: {summary['unserved']} unserved ticks")
    return problems


def check_training(history: Sequence[float], verified: Sequence[bool],
                   epochs: int) -> List[str]:
    """Loss stays finite; every epoch wrote a snapshot that verifies."""
    problems = []
    if len(history) != epochs:
        problems.append(f"training: {len(history)} epochs of {epochs}")
    if not all(math.isfinite(loss) for loss in history):
        problems.append("training: non-finite loss")
    if len(verified) != epochs or not all(verified):
        problems.append(f"training: {sum(map(bool, verified))} of {epochs} "
                        f"snapshots verified")
    return problems


def check_reference(name: str, value: float,
                    reference: Mapping[str, Mapping[str, float]]
                    ) -> List[str]:
    """``value`` lies within the committed reference band for ``name``."""
    entry = reference.get(name)
    if entry is None:
        return [f"{name}: no committed reference"]
    if not math.isfinite(value):
        return [f"{name}: {value} is not finite"]
    if abs(value - entry["mean"]) > entry["tolerance"]:
        return [f"{name}: {value:.4f} outside reference "
                f"{entry['mean']:.4f} ± {entry['tolerance']:.4f}"]
    return []


def check_table1_order(row_means: Mapping[str, float]) -> List[str]:
    """Table I's shape: FGSM below both Auto-PGD and CAP, Gaussian noise
    below FGSM.  (Auto-PGD above CAP is not checked: at 32 frames it
    fails on some seeds.)"""
    problems = []
    fgsm = row_means["FGSM"]
    for stronger in ("Auto-PGD", "CAP-Attack"):
        if row_means[stronger] <= fgsm:
            problems.append(f"table1: {stronger} ({row_means[stronger]:.2f}) "
                            f"not above FGSM ({fgsm:.2f})")
    if row_means["Gaussian Noise"] >= fgsm:
        problems.append(f"table1: Gaussian noise "
                        f"({row_means['Gaussian Noise']:.2f}) not below "
                        f"FGSM ({fgsm:.2f})")
    return problems
