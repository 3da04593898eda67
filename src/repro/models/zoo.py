"""Model zoo: train-once-cache-forever accessors.

Tests, examples, and every benchmark share the same pretrained weights.  The
first call trains a model and caches its state dict as an entry
``<name>-<fingerprint>.npz`` of the artifact store
(:mod:`repro.runtime.cache`); later calls load in milliseconds.  Set the
``REPRO_CACHE_DIR`` environment variable to relocate the store.
"""

from __future__ import annotations

import inspect
from typing import Optional, Tuple

import numpy as np

from ..data.driving import generate_training_set
from ..data.signs import SignDataset
from ..faults.runtime import maybe_inject_scope
from ..nn import serialize
from ..runtime import env, journal
from ..runtime.cache import ResultCache
from .detector import TinyDetector
from .distance import DistanceRegressor
from .training import EpochCheckpointer, train_detector, train_regressor

# Default training configuration — small enough for CPU, large enough that
# the models are genuinely good on clean data (the paper's clean baselines
# are near-saturated: mAP50 99.5%, distance error < 1 m).
DETECTOR_TRAIN_SCENES = 1000
DETECTOR_EPOCHS = 50
REGRESSOR_TRAIN_FRAMES = 1500
REGRESSOR_EPOCHS = 40


def _training_checkpoint(path: str, label: str) -> Optional[EpochCheckpointer]:
    """Mid-training checkpointer for the artifact at ``path``, if enabled.

    The snapshot lives next to the final artifact (``<path>.ckpt.npz``) and
    is dropped by ``finalize()`` once the trained model is safely on disk.
    """
    if env.CKPT_EVERY.get() <= 0:
        return None
    return EpochCheckpointer(path + ".ckpt.npz", label=label)


def _run_train(train, model, checkpoint: Optional[EpochCheckpointer]) -> None:
    """Call a ``cached_model`` train callback, passing the checkpointer
    through when the callback's signature accepts it (2+ positionals)."""
    try:
        parameters = inspect.signature(train).parameters.values()
    except (TypeError, ValueError):  # builtins / partials without signature
        train(model)
        return
    positional = [p for p in parameters
                  if p.kind in (p.POSITIONAL_ONLY, p.POSITIONAL_OR_KEYWORD)]
    variadic = any(p.kind == p.VAR_POSITIONAL for p in parameters)
    if len(positional) >= 2 or variadic:
        train(model, checkpoint)
    else:
        train(model)


def get_sign_dataset(n_scenes: int = DETECTOR_TRAIN_SCENES, seed: int = 0
                     ) -> SignDataset:
    return SignDataset(n_scenes=n_scenes, seed=seed)


def get_sign_testset(n_scenes: int = 150, seed: int = 999) -> SignDataset:
    return SignDataset(n_scenes=n_scenes, seed=seed)


def get_driving_data(n_frames: int = REGRESSOR_TRAIN_FRAMES, seed: int = 0
                     ) -> Tuple[np.ndarray, np.ndarray]:
    return generate_training_set(n_frames, seed=seed)


def get_detector(seed: int = 0, n_scenes: int = DETECTOR_TRAIN_SCENES,
                 epochs: int = DETECTOR_EPOCHS) -> TinyDetector:
    """Pretrained stop-sign detector (cached)."""
    def train(model, checkpoint):
        dataset = get_sign_dataset(n_scenes, seed=seed)
        train_detector(model, dataset.images(),
                       [scene.boxes for scene in dataset.scenes],
                       epochs=epochs, seed=seed, checkpoint=checkpoint)

    return cached_model(
        "detector", {"seed": seed, "scenes": n_scenes, "epochs": epochs,
                     "v": 6},
        lambda: TinyDetector(rng=np.random.default_rng(seed)), train)


def get_regressor(seed: int = 0, n_frames: int = REGRESSOR_TRAIN_FRAMES,
                  epochs: int = REGRESSOR_EPOCHS) -> DistanceRegressor:
    """Pretrained lead-distance regressor (cached)."""
    def train(model, checkpoint):
        images, distances = get_driving_data(n_frames, seed=seed)
        train_regressor(model, images, distances, epochs=epochs, seed=seed,
                        checkpoint=checkpoint)

    return cached_model(
        "regressor", {"seed": seed, "frames": n_frames, "epochs": epochs,
                      "v": 6},
        lambda: DistanceRegressor(rng=np.random.default_rng(seed)), train)


DIFFUSION_EPOCHS = 15
DIFFUSION_IMAGES = 400


def get_diffusion(domain: str, seed: int = 0, epochs: int = DIFFUSION_EPOCHS,
                  n_images: int = DIFFUSION_IMAGES):
    """Pretrained DDPM prior for ``domain`` in {"signs", "driving"} (cached).

    The prior is trained on *clean* domain images only — the DiffPIR defense
    never sees adversarial examples at training time.
    """
    from ..defenses.diffusion import DenoisingDiffusionModel

    if domain not in ("signs", "driving"):
        raise ValueError("domain must be 'signs' or 'driving'")

    def train(model, checkpoint):
        if domain == "signs":
            images = SignDataset(n_images, seed=seed + 50).images()
        else:
            images, _ = generate_training_set(n_images, seed=seed + 50)
        model.train(images, epochs=epochs, checkpoint=checkpoint)

    return cached_model(
        "diffusion", {"domain": domain, "seed": seed, "epochs": epochs,
                      "images": n_images, "v": 1},
        lambda: DenoisingDiffusionModel(seed=seed), train)


def cached_model(name: str, config: dict, build, train) -> object:
    """Load-or-train any zoo model as the store entry ``name``/``config``.

    ``build()`` constructs the model; ``train(model)`` — or
    ``train(model, checkpoint)`` for callbacks that thread the mid-training
    :class:`EpochCheckpointer` into their loops — trains it in place.  The
    base models, the diffusion priors and every defense-retrained variant
    (one per adversarial-example source) go through here: load → inject
    fault → journal → checkpointer → train → save → finalize → journal.
    A checkpoint that does not fit the model is quarantined as stale.
    """
    # Always enabled: REPRO_RESULT_CACHE=0 skips cell results, never models.
    models = ResultCache(enabled=True)
    path = models.path(name, config, "npz")
    model = build()
    if serialize.try_load_module(path, model):
        model.eval()
        return model
    maybe_inject_scope(f"zoo.{name}")
    journal.emit({"event": "train-start", "model": name, "path": path})
    checkpoint = _training_checkpoint(path, f"zoo.{name}")
    _run_train(train, model, checkpoint)
    models.save_arrays(name, config, model.state_dict())
    if checkpoint is not None:
        checkpoint.finalize()
    journal.emit({"event": "train-done", "model": name, "path": path})
    model.eval()
    return model
