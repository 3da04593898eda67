"""Sensor/perception-plane fault models for the closed-loop simulator.

The paper studies *adversarial* perturbations; this module adds the other
half of the robustness story — the sensor and compute faults ("Does Physical
Adversarial Example Really Matter to Autonomous Driving?", Wang et al. 2023)
that a real camera stack suffers: dropped frames, a stuck ISP buffer,
partial lens occlusion, exposure failures, sensor-noise bursts, and
NaN/Inf-corrupted frames from a broken DMA transfer.

Faults are composable and *deterministic*: every fault is active over a
wall-clock window ``[start_s, end_s)`` with an optional per-tick firing
probability, and all randomness (occluder placement, noise, corrupt-pixel
choice) is drawn from a per-tick RNG derived with
:func:`repro.runtime.digest.stable_seed` from ``(injector seed, tick)``.
The same seed therefore produces bit-identical fault streams under serial,
forked-parallel, and cached execution — which is what makes the
fault-robustness tables reproducible.

Faults are injected between :class:`~repro.pipeline.camera.Camera` and
:class:`~repro.pipeline.perception.PerceptionService` by
:class:`SensorFaultInjector`; a frame can come out perturbed, replaced
(stuck), or dropped entirely (``None``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Type

import numpy as np

from ..runtime.digest import stable_seed


@dataclass
class FaultEvent:
    """One fault firing on one tick (logged into the simulation trace)."""

    time_s: float
    fault: str


class SensorFault:
    """Base fault model, active over ``[start_s, end_s)``.

    ``probability`` < 1 makes the fault intermittent; the decision is drawn
    from the injector's per-tick RNG so it stays deterministic.
    """

    name = "fault"

    def __init__(self, start_s: float = 0.0, end_s: float = float("inf"),
                 probability: float = 1.0):
        self.start_s = float(start_s)
        self.end_s = float(end_s)
        self.probability = float(probability)

    def fires(self, time_s: float, rng: np.random.Generator) -> bool:
        if not (self.start_s <= time_s < self.end_s):
            return False
        if self.probability >= 1.0:
            return True
        return bool(rng.random() < self.probability)

    def apply(self, image: np.ndarray, last_image: Optional[np.ndarray],
              rng: np.random.Generator) -> Optional[np.ndarray]:
        """Return the faulted frame, or ``None`` for a dropped frame."""
        raise NotImplementedError

    def __repr__(self) -> str:  # keeps fault plans fingerprintable
        return (f"{type(self).__name__}(start={self.start_s}, "
                f"end={self.end_s}, p={self.probability})")


class FrameDrop(SensorFault):
    """The camera delivers nothing this tick."""

    name = "frame_drop"

    def apply(self, image, last_image, rng) -> Optional[np.ndarray]:
        return None


class StuckFrame(SensorFault):
    """The capture pipeline re-delivers the previous frame (stale buffer)."""

    name = "stuck_frame"

    def apply(self, image, last_image, rng) -> Optional[np.ndarray]:
        if last_image is None:
            return image
        return last_image.copy()


class PartialOcclusion(SensorFault):
    """An occluder (dirt, tape, glare patch) covers part of the frame.

    ``fraction`` is the occluded fraction of each image dimension; the patch
    position is drawn per tick, biased nowhere — the lead sits mid-frame so
    large fractions reliably cover it.
    """

    name = "occlusion"

    def __init__(self, start_s: float = 0.0, end_s: float = float("inf"),
                 probability: float = 1.0, fraction: float = 0.5,
                 value: float = 0.0):
        super().__init__(start_s, end_s, probability)
        self.fraction = float(fraction)
        self.value = float(value)

    def apply(self, image, last_image, rng) -> Optional[np.ndarray]:
        out = image.copy()
        height, width = out.shape[-2], out.shape[-1]
        h = max(1, int(round(height * self.fraction)))
        w = max(1, int(round(width * self.fraction)))
        y0 = int(rng.integers(0, height - h + 1))
        x0 = int(rng.integers(0, width - w + 1))
        out[..., y0:y0 + h, x0:x0 + w] = self.value
        return out


class ExposureShift(SensorFault):
    """Auto-exposure failure: the frame is scaled by ``gain`` (then clipped)."""

    name = "exposure"

    def __init__(self, start_s: float = 0.0, end_s: float = float("inf"),
                 probability: float = 1.0, gain: float = 0.25):
        super().__init__(start_s, end_s, probability)
        self.gain = float(gain)

    def apply(self, image, last_image, rng) -> Optional[np.ndarray]:
        return np.clip(image * self.gain, 0.0, 1.0).astype(image.dtype)


class NoiseBurst(SensorFault):
    """A burst of heavy Gaussian sensor noise (EMI, failing ADC)."""

    name = "noise_burst"

    def __init__(self, start_s: float = 0.0, end_s: float = float("inf"),
                 probability: float = 1.0, sigma: float = 0.3):
        super().__init__(start_s, end_s, probability)
        self.sigma = float(sigma)

    def apply(self, image, last_image, rng) -> Optional[np.ndarray]:
        noise = rng.normal(0.0, self.sigma, image.shape)
        return np.clip(image + noise, 0.0, 1.0).astype(image.dtype)


class CorruptFrame(SensorFault):
    """A fraction of pixels turn NaN or Inf (corrupt DMA / bit flips)."""

    name = "nan_frames"

    def __init__(self, start_s: float = 0.0, end_s: float = float("inf"),
                 probability: float = 1.0, fraction: float = 0.02,
                 mode: str = "nan"):
        super().__init__(start_s, end_s, probability)
        if mode not in ("nan", "inf"):
            raise ValueError(f"mode must be 'nan' or 'inf', got {mode!r}")
        self.fraction = float(fraction)
        self.mode = mode

    def apply(self, image, last_image, rng) -> Optional[np.ndarray]:
        out = image.astype(np.float32, copy=True)
        flat = out.reshape(-1)
        count = max(1, int(round(flat.size * self.fraction)))
        index = rng.choice(flat.size, size=count, replace=False)
        flat[index] = np.nan if self.mode == "nan" else np.inf
        return out


#: fault spec name -> class (the vocabulary of ``make_fault``/``from_spec``)
FAULT_REGISTRY: Dict[str, Type[SensorFault]] = {
    cls.name: cls for cls in (FrameDrop, StuckFrame, PartialOcclusion,
                              ExposureShift, NoiseBurst, CorruptFrame)
}


def make_fault(name: str, **kwargs) -> SensorFault:
    if name not in FAULT_REGISTRY:
        raise ValueError(f"unknown sensor fault {name!r}; "
                         f"known: {sorted(FAULT_REGISTRY)}")
    return FAULT_REGISTRY[name](**kwargs)


class SensorFaultInjector:
    """Applies a composable list of faults to the camera frame stream.

    One injector instance is one deterministic fault *plan*: reset it and
    replay the same tick sequence and you get bit-identical faulted frames.
    """

    def __init__(self, faults: List[SensorFault], seed: int = 0):
        self.faults = list(faults)
        self.seed = int(seed)
        self._last_frame: Optional[np.ndarray] = None

    def reset(self) -> None:
        self._last_frame = None

    def inject(self, image: np.ndarray, time_s: float, tick: int
               ) -> Tuple[Optional[np.ndarray], List[FaultEvent]]:
        """Run every active fault over the frame, in declaration order.

        Returns ``(frame or None, events)``; ``None`` means the frame was
        dropped and perception sees nothing this tick.
        """
        rng = np.random.default_rng(
            stable_seed("sensor-fault", tick, base=self.seed))
        events: List[FaultEvent] = []
        out: Optional[np.ndarray] = image
        for fault in self.faults:
            if not fault.fires(time_s, rng):
                continue
            events.append(FaultEvent(time_s=time_s, fault=fault.name))
            out = fault.apply(out, self._last_frame, rng)
            if out is None:
                break
        if out is not None:
            self._last_frame = out
        return out, events

    def __repr__(self) -> str:
        return (f"SensorFaultInjector(seed={self.seed}, "
                f"faults={self.faults!r})")


def from_spec(spec: str, seed: int = 0) -> SensorFaultInjector:
    """Build an injector from a compact text spec.

    Grammar: ``name@start-end[:key=value[,key=value...]]`` joined by ``;``.
    Example: ``"frame_drop@4-6;noise_burst@8-12:sigma=0.4,probability=0.5"``.
    Numeric values parse as floats; ``mode`` stays a string.
    """
    faults: List[SensorFault] = []
    for part in filter(None, (p.strip() for p in spec.split(";"))):
        head, _, tail = part.partition(":")
        name, _, window = head.partition("@")
        kwargs: Dict[str, object] = {}
        if window:
            start, _, end = window.partition("-")
            kwargs["start_s"] = float(start)
            if end:
                kwargs["end_s"] = float(end)
        for pair in filter(None, (p.strip() for p in tail.split(","))):
            key, _, value = pair.partition("=")
            kwargs[key] = value if key == "mode" else float(value)
        faults.append(make_fault(name.strip(), **kwargs))
    if not faults:
        raise ValueError(f"empty sensor-fault spec: {spec!r}")
    return SensorFaultInjector(faults, seed=seed)
