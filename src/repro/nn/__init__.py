"""``repro.nn`` — the from-scratch deep-learning substrate.

The execution environment has no PyTorch, so this package provides the
minimum viable deep-learning stack the paper depends on: a reverse-mode
autodiff tensor (:class:`Tensor`), conv/pool/linear/batch-norm layers, SGD
and Adam optimizers, and the task losses.  Gradients are exact (verified
against central finite differences in ``tests/nn``), which matters because
the paper's strongest attacks are gradient-based.
"""

from . import functional, init, losses, optim, serialize
from .layers import (AvgPool2d, BatchNorm1d, BatchNorm2d, Conv2d, ConvBlock,
                     Dropout, Flatten, LeakyReLU, Linear, MaxPool2d, Module,
                     ReLU, Sequential, SiLU, Tanh)
from .optim import SGD, Adam, AdamW, CosineSchedule, StepSchedule, clip_grad_norm
from .tensor import (Tensor, capture_rng, concatenate, default_dtype,
                     input_only, no_tape, precision, restore_rng,
                     set_default_dtype, stack, tracks, where)

__all__ = [
    "Tensor", "concatenate", "stack", "where",
    "tracks", "input_only", "no_tape",
    "capture_rng", "restore_rng",
    "default_dtype", "precision", "set_default_dtype",
    "Module", "Sequential", "Conv2d", "Linear", "BatchNorm1d", "BatchNorm2d",
    "MaxPool2d", "AvgPool2d", "Dropout", "Flatten", "ReLU", "LeakyReLU",
    "SiLU", "Tanh", "ConvBlock",
    "SGD", "Adam", "AdamW", "CosineSchedule", "StepSchedule", "clip_grad_norm",
    "functional", "init", "losses", "optim", "serialize",
]
