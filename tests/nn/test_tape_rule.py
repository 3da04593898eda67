"""The tape rule: which leaves a pass tracks (``repro.nn.tracks``)."""

import numpy as np
import pytest

from repro.nn import (BatchNorm2d, Conv2d, Linear, Sequential, Tensor,
                      input_only, no_tape, tracks)
from repro.nn import functional as F


def model_and_input():
    rng = np.random.default_rng(0)
    conv = Sequential(Conv2d(2, 3, 3, padding=1, rng=rng), BatchNorm2d(3))
    head = Linear(3, 1, rng=rng)
    x = rng.random((2, 2, 5, 5)).astype(np.float32)

    def loss(t: Tensor) -> Tensor:
        return head(F.global_avg_pool2d(conv(t)).silu()).sum()

    return list(conv.parameters()) + list(head.parameters()), x, loss


@pytest.mark.smoke
class TestTapeRule:
    def test_default_follows_requires_grad(self):
        assert tracks(Tensor(1.0, requires_grad=True))
        assert not tracks(Tensor(1.0))

    def test_input_only_matches_full_backward_and_skips_weights(self):
        params, data, loss = model_and_input()
        full = Tensor(data.copy(), requires_grad=True)
        loss(full).backward()
        assert all(p.grad is not None for p in params)
        for p in params:
            p.grad = None
        x = Tensor(data.copy(), requires_grad=True)
        with input_only(x):
            out = loss(x)
            out.backward()
        np.testing.assert_array_equal(x.grad, full.grad)
        assert all(p.grad is None for p in params)

    def test_no_tape_records_nothing(self):
        params, data, loss = model_and_input()
        x = Tensor(data, requires_grad=True)
        with no_tape():
            out = loss(x)
            assert not tracks(x)
        assert not out.requires_grad and out._parents == ()
        with pytest.raises(RuntimeError):
            out.backward()
        np.testing.assert_array_equal(
            out.data, loss(Tensor(data, requires_grad=True)).data)

    def test_modes_nest_and_restore(self):
        x = Tensor(1.0, requires_grad=True)
        weight = Tensor(2.0, requires_grad=True)
        with input_only(x):
            assert tracks(x) and not tracks(weight)
            with no_tape():
                assert not tracks(x)
            assert tracks(x)
        assert tracks(weight)
        with pytest.raises(ValueError):
            with no_tape():
                raise ValueError
        assert tracks(weight)
