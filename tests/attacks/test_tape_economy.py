"""Attacks take only what they use from the tape.

Every comparison here runs both sides in one process on freshly
seed-initialized models, so byte equality holds on any machine: the tape
rule changes what is recorded, never the arithmetic.
"""

from typing import List, Optional

import numpy as np
import pytest

from repro.attacks import (AutoPGDAttack, CAPAttack, FGSMAttack, RP2Attack,
                           SimBAAttack, boxes_to_mask, detector_loss_fn,
                           input_gradient, regressor_loss_fn)
from repro.attacks import autopgd
from repro.defenses.diffusion import DenoisingDiffusionModel, NoisePredictor
from repro.models.detector import TinyDetector
from repro.models.distance import DistanceRegressor
from repro.nn import Tensor, hooks


def fresh_regressor() -> DistanceRegressor:
    return DistanceRegressor(rng=np.random.default_rng(0)).eval()


def fresh_detector() -> TinyDetector:
    return TinyDetector(rng=np.random.default_rng(0)).eval()


def driving_batch(n: int = 4, seed: int = 0):
    rng = np.random.default_rng(seed)
    images = rng.random((n, 3, 64, 128)).astype(np.float32)
    distances = rng.uniform(5.0, 70.0, n).astype(np.float32)
    boxes = [(40, 20, 88, 50)] * n
    return images, distances, boxes_to_mask(boxes, 64, 128)


def sign_batch(n: int = 4, seed: int = 0):
    rng = np.random.default_rng(seed)
    images = rng.random((n, 3, 64, 64)).astype(np.float32)
    targets = [[(16.0, 16.0, 40.0, 40.0)] for _ in range(n)]
    return images, targets


def full_backward(images: np.ndarray, loss_fn):
    """The loss and input gradient of a backward that tracks every leaf."""
    x = Tensor(images.copy(), requires_grad=True)
    loss = loss_fn(x)
    loss.backward()
    return float(loss.data), x.grad


def reference_autopgd(attack: AutoPGDAttack, images: np.ndarray, loss_fn,
                      mask: Optional[np.ndarray], restarts: List[int]
                      ) -> np.ndarray:
    """The Auto-PGD loop as it was before one evaluation per iterate: a
    full-tape loss probe at every iterate and a gradient call at the
    start of each iteration.  ``restarts`` collects restart iterations."""
    def loss_of(arr):
        return float(loss_fn(Tensor(arr)).data)

    def gradient_of(arr):
        grad = full_backward(arr, loss_fn)[1]
        return grad if mask is None else grad * mask

    x = images.astype(np.float32)
    start = x + attack.eps * attack._rng.uniform(
        -1, 1, size=x.shape).astype(np.float32)
    x_adv = attack._project(start, x, mask)
    step = 2.0 * attack.eps
    x_prev = x_adv.copy()
    best = x_adv.copy()
    best_loss = loss_of(x_adv)
    loss_at_last_checkpoint = best_loss
    step_at_last_checkpoint = step
    improving_steps = 0
    checkpoints = set(autopgd._checkpoints(attack.n_iter))
    since_checkpoint = 0
    for iteration in range(1, attack.n_iter + 1):
        grad = gradient_of(x_adv)
        z = attack._project(x_adv + step * np.sign(grad), x, mask)
        x_next = attack._project(
            x_adv + attack.momentum * (z - x_adv)
            + (1.0 - attack.momentum) * (x_adv - x_prev), x, mask)
        x_prev = x_adv
        x_adv = x_next
        since_checkpoint += 1
        current = loss_of(x_adv)
        if current > best_loss:
            best_loss = current
            best = x_adv.copy()
            improving_steps += 1
        if iteration in checkpoints:
            cond1 = improving_steps < 0.75 * since_checkpoint
            cond2 = (step == step_at_last_checkpoint
                     and best_loss <= loss_at_last_checkpoint)
            if cond1 or cond2:
                step = max(step / 2.0, attack.eps / 64.0)
                x_adv = best.copy()
                x_prev = best.copy()
                restarts.append(iteration)
            step_at_last_checkpoint = step
            loss_at_last_checkpoint = best_loss
            improving_steps = 0
            since_checkpoint = 0
    return best


def regressor_case():
    model = fresh_regressor()
    images, distances, _ = driving_batch()
    return model, images, regressor_loss_fn(model, distances)


def detector_case():
    model = fresh_detector()
    images, targets = sign_batch()
    return model, images, detector_loss_fn(model, targets)


class TestInputOnlyGradient:
    @pytest.mark.parametrize("case", [regressor_case, detector_case],
                             ids=["regressor", "detector"])
    def test_equals_full_backward(self, case):
        model, images, loss_fn = case()
        expected_loss, expected = full_backward(images, loss_fn)
        assert expected.dtype == np.float32
        model.zero_grad()
        loss, grad = input_gradient(images, loss_fn)
        np.testing.assert_array_equal(grad, expected)
        np.testing.assert_array_equal(loss, expected_loss)


class TestAttacksLeaveParametersAlone:
    def test_regression_attacks(self):
        model = fresh_regressor()
        images, distances, mask = driving_batch(2)
        loss_fn = regressor_loss_fn(model, distances)
        FGSMAttack(eps=0.05).perturb(images, loss_fn, mask=mask)
        AutoPGDAttack(eps=0.05, n_iter=3).perturb(images, loss_fn, mask=mask)
        CAPAttack(eps=0.1).perturb(images, loss_fn, mask=mask)
        assert all(p.grad is None for p in model.parameters())

    def test_rp2(self):
        model = fresh_detector()
        images, targets = sign_batch(2)
        RP2Attack(n_iter=2, n_transforms=2).perturb(
            images, detector_loss_fn(model, targets))
        assert all(p.grad is None for p in model.parameters())


class TestAutoPGDOneEvaluationPerIterate:
    def test_matches_reference_loop_through_a_restart(self):
        model = fresh_regressor()
        images, distances, mask = driving_batch()
        loss_fn = regressor_loss_fn(model, distances)
        restarts: List[int] = []
        expected = reference_autopgd(AutoPGDAttack(eps=0.06, seed=3),
                                     images, loss_fn, mask, restarts)
        assert restarts, "the case must exercise a checkpoint restart"
        got = AutoPGDAttack(eps=0.06, seed=3).perturb(images, loss_fn,
                                                      mask=mask)
        np.testing.assert_array_equal(got, expected)

    def test_pass_counts(self):
        model, images, loss_fn = regressor_case()
        before = hooks.snapshot()
        AutoPGDAttack(eps=0.06, n_iter=20, seed=3).perturb(images, loss_fn)
        forwards, backwards = np.subtract(hooks.snapshot(), before)
        assert (forwards, backwards) == (21, 20)


class TestForwardCounter:
    def test_predict_counts_one_forward(self):
        model = fresh_regressor()
        images, _, _ = driving_batch(2)
        before = hooks.snapshot()
        model.predict(images)
        assert tuple(np.subtract(hooks.snapshot(), before)) == (1, 0)

    def test_detect_counts_one_forward(self):
        model = fresh_detector()
        images, _ = sign_batch(2)
        before = hooks.snapshot()
        model.detect(images)
        assert tuple(np.subtract(hooks.snapshot(), before)) == (1, 0)


def record_outputs(monkeypatch, owner, seen: list) -> None:
    """Wrap ``owner.forward`` so every output tensor lands in ``seen``."""
    original = owner.forward

    def forward(self, *args, **kwargs):
        out = original(self, *args, **kwargs)
        seen.append(out)
        return out

    monkeypatch.setattr(owner, "forward", forward)


def untaped(tensors) -> bool:
    return bool(tensors) and all(
        not t.requires_grad and t._backward is None and not t._parents
        for t in tensors)


class TestForwardOnlyCallsRecordNoTape:
    def test_predict(self, monkeypatch):
        seen: list = []
        record_outputs(monkeypatch, DistanceRegressor, seen)
        fresh_regressor().predict(driving_batch(1)[0])
        assert untaped(seen)

    def test_detect(self, monkeypatch):
        seen: list = []
        record_outputs(monkeypatch, TinyDetector, seen)
        fresh_detector().detect(sign_batch(1)[0])
        assert untaped(seen)

    def test_simba_queries(self):
        model = fresh_regressor()
        images, distances, _ = driving_batch(1)
        seen: list = []

        def loss_fn(x):
            seen.append(model.attack_loss(x, distances))
            return seen[-1]

        SimBAAttack(eps=0.2, max_queries=5).perturb(images, loss_fn)
        assert len(seen) == 5 and untaped(seen)

    def test_autopgd_final_probe(self):
        model, images, loss_fn = regressor_case()
        seen: list = []

        def recording(x):
            seen.append(loss_fn(x))
            return seen[-1]

        AutoPGDAttack(eps=0.06, n_iter=2).perturb(images, recording)
        assert [t._backward is None for t in seen] == [False, False, True]

    def test_diffusion_sampling(self, monkeypatch):
        seen: list = []
        record_outputs(monkeypatch, NoisePredictor, seen)
        prior = DenoisingDiffusionModel(timesteps=10, hidden=4)
        x_t = np.random.default_rng(0).random((1, 3, 8, 8)).astype(np.float32)
        prior.predict_x0(x_t, 5)
        assert untaped(seen)
