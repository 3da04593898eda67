"""Model checkpointing: module state dicts as ``.npz`` archives.

Persistence is the crash-consistent store's (:mod:`repro.runtime.store`):
writes are atomic (tmp file + fsync + rename) and carry an embedded content
digest; loading is *defensive* — a truncated, bit-rotted or stale
checkpoint must degrade to a cache miss (retrain and rewrite), never a
crash and never silent reuse of bad weights.  Defective files are
**quarantined** next to where they lived (``.cache/quarantine/``) with a
logged fault event, so a corrupt checkpoint is never silently retrained
over.

:func:`try_load_module` implements the miss contract; the strict
:func:`load_module` remains for callers that want the exception.
"""

from __future__ import annotations

from ..runtime import digest, store

#: Everything a corrupt / truncated / wrong-layout ``.npz`` can raise while
#: being opened, read or fitted to a module.
CHECKPOINT_ERRORS = store.READ_ERRORS


def save_module(path: str, module) -> None:
    store.save_state(path, module.state_dict())


def load_module(path: str, module) -> None:
    module.load_state_dict(store.load_state(path))


def try_load_module(path: str, module) -> bool:
    """Load ``module`` from ``path``; ``False`` on any checkpoint defect.

    Covers unreadable archives *and* state dicts that no longer fit the
    module (missing entries, shape mismatches) — both mean the cached
    artifact is stale and must be regenerated.  ``module`` is anything with
    ``state_dict()`` / ``load_state_dict()``.
    """
    state = store.try_load_state(path)
    if state is None:
        return False
    try:
        # Validate every entry before mutating the module so a defective
        # state dict cannot leave it half-loaded ahead of the retrain.
        for name, array in module.state_dict().items():
            if name not in state:
                raise KeyError(f"missing parameter {name!r} in state dict")
            if array.shape != state[name].shape:
                raise ValueError(
                    f"shape mismatch for {name!r}: "
                    f"{array.shape} vs {state[name].shape}")
        module.load_state_dict(state)
    except CHECKPOINT_ERRORS as error:
        store.quarantine(path, "stale", f"{type(error).__name__}: {error}")
        return False
    return True


def state_fingerprint(module) -> str:
    """Short digest of a module's parameters and buffers.

    Used as a cache-key component so results derived from a model (e.g. its
    adversarial test sets) invalidate when the model's weights change.
    """
    return digest.state_digest(module.state_dict())[:digest.SHORT]
