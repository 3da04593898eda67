"""Differentiable neural-network primitives built on :class:`repro.nn.Tensor`.

Convolution and pooling are implemented with the im2col technique so that the
heavy lifting happens inside numpy's BLAS-backed matmul.  Each function
constructs a :class:`Tensor` with a custom backward closure rather than being
composed from elementwise primitives, which keeps both the forward and the
backward pass fast enough to train the paper's models on a CPU.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from .tensor import Tensor, _accumulate, tracks


def _pair(value) -> Tuple[int, int]:
    if isinstance(value, (tuple, list)):
        return int(value[0]), int(value[1])
    return int(value), int(value)


def im2col(x: np.ndarray, kernel: Tuple[int, int], stride: Tuple[int, int],
           padding: Tuple[int, int]) -> Tuple[np.ndarray, Tuple[int, int]]:
    """Rearrange image patches into columns.

    Returns an array of shape ``(N, C*kh*kw, out_h*out_w)`` and the output
    spatial size.
    """
    n, c, h, w = x.shape
    kh, kw = kernel
    sh, sw = stride
    ph, pw = padding
    if ph or pw:
        x = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)), mode="constant")
    out_h = (h + 2 * ph - kh) // sh + 1
    out_w = (w + 2 * pw - kw) // sw + 1
    stride_n, stride_c, stride_h, stride_w = x.strides
    shape = (n, c, kh, kw, out_h, out_w)
    strides = (stride_n, stride_c, stride_h, stride_w, stride_h * sh, stride_w * sw)
    patches = np.lib.stride_tricks.as_strided(x, shape=shape, strides=strides)
    # Reshaping the strided view forces the copy into a dense buffer, which
    # is exactly what downstream matmuls need.
    cols = patches.reshape(n, c * kh * kw, out_h * out_w)
    return np.ascontiguousarray(cols), (out_h, out_w)


def col2im(cols: np.ndarray, x_shape: Tuple[int, int, int, int],
           kernel: Tuple[int, int], stride: Tuple[int, int],
           padding: Tuple[int, int], out_size: Tuple[int, int]) -> np.ndarray:
    """Inverse of :func:`im2col`: scatter-add columns back into an image."""
    n, c, h, w = x_shape
    kh, kw = kernel
    sh, sw = stride
    ph, pw = padding
    out_h, out_w = out_size
    padded = np.zeros((n, c, h + 2 * ph, w + 2 * pw), dtype=cols.dtype)
    reshaped = cols.reshape(n, c, kh, kw, out_h, out_w)
    for i in range(kh):
        for j in range(kw):
            padded[:, :, i:i + sh * out_h:sh, j:j + sw * out_w:sw] += reshaped[:, :, i, j]
    if ph or pw:
        return padded[:, :, ph:h + ph, pw:w + pw]
    return padded


def conv2d(x: Tensor, weight: Tensor, bias: Optional[Tensor] = None,
           stride=1, padding=0) -> Tensor:
    """2-D cross-correlation, ``x``: (N,C,H,W), ``weight``: (F,C,kh,kw)."""
    stride = _pair(stride)
    padding = _pair(padding)
    f, c, kh, kw = weight.shape
    cols, (out_h, out_w) = im2col(x.data, (kh, kw), stride, padding)
    w2d = weight.data.reshape(f, c * kh * kw)
    out = np.einsum("fk,nkp->nfp", w2d, cols, optimize=True)
    out = out.reshape(x.shape[0], f, out_h, out_w)
    if bias is not None:
        out = out + bias.data.reshape(1, f, 1, 1)
    x_shape = x.shape

    parents = (x, weight) if bias is None else (x, weight, bias)

    def backward(g: np.ndarray) -> None:
        g2d = g.reshape(g.shape[0], f, out_h * out_w)
        if tracks(weight):
            grad_w = np.einsum("nfp,nkp->fk", g2d, cols, optimize=True)
            _accumulate(weight, grad_w.reshape(weight.shape))
        if bias is not None and tracks(bias):
            _accumulate(bias, g.sum(axis=(0, 2, 3)))
        if tracks(x):
            grad_cols = np.einsum("fk,nfp->nkp", w2d, g2d, optimize=True)
            grad_x = col2im(grad_cols, x_shape, (kh, kw), stride, padding,
                            (out_h, out_w))
            _accumulate(x, grad_x)

    return Tensor._make(out.astype(x.data.dtype, copy=False), parents, backward)


def max_pool2d(x: Tensor, kernel_size=2, stride=None) -> Tensor:
    """Max pooling with indices recorded for the backward pass."""
    kernel = _pair(kernel_size)
    stride = kernel if stride is None else _pair(stride)
    n, c, h, w = x.shape
    kh, kw = kernel
    sh, sw = stride
    out_h = (h - kh) // sh + 1
    out_w = (w - kw) // sw + 1
    cols, _ = im2col(x.data.reshape(n * c, 1, h, w), kernel, stride, (0, 0))
    cols = cols.reshape(n * c, kh * kw, out_h * out_w)
    argmax = cols.argmax(axis=1)
    out = np.take_along_axis(cols, argmax[:, None, :], axis=1).squeeze(1)
    out = out.reshape(n, c, out_h, out_w)
    x_shape = x.shape

    def backward(g: np.ndarray) -> None:
        grad_cols = np.zeros((n * c, kh * kw, out_h * out_w), dtype=x.data.dtype)
        flat = g.reshape(n * c, 1, out_h * out_w)
        np.put_along_axis(grad_cols, argmax[:, None, :], flat, axis=1)
        grad = col2im(grad_cols.reshape(n * c, kh * kw, out_h * out_w),
                      (n * c, 1, h, w), kernel, stride, (0, 0), (out_h, out_w))
        _accumulate(x, grad.reshape(x_shape))

    return Tensor._make(out.astype(x.data.dtype, copy=False), (x,), backward)


def avg_pool2d(x: Tensor, kernel_size=2, stride=None) -> Tensor:
    kernel = _pair(kernel_size)
    stride = kernel if stride is None else _pair(stride)
    n, c, h, w = x.shape
    kh, kw = kernel
    sh, sw = stride
    out_h = (h - kh) // sh + 1
    out_w = (w - kw) // sw + 1
    cols, _ = im2col(x.data.reshape(n * c, 1, h, w), kernel, stride, (0, 0))
    out = cols.mean(axis=1).reshape(n, c, out_h, out_w)
    x_shape = x.shape
    scale = 1.0 / (kh * kw)

    def backward(g: np.ndarray) -> None:
        flat = g.reshape(n * c, 1, out_h * out_w)
        grad_cols = np.broadcast_to(flat * scale, (n * c, kh * kw, out_h * out_w))
        grad = col2im(np.ascontiguousarray(grad_cols), (n * c, 1, h, w),
                      kernel, stride, (0, 0), (out_h, out_w))
        _accumulate(x, grad.reshape(x_shape))

    return Tensor._make(out.astype(x.data.dtype, copy=False), (x,), backward)


def global_avg_pool2d(x: Tensor) -> Tensor:
    """(N,C,H,W) -> (N,C) average over spatial dims."""
    return x.mean(axis=(2, 3))


def upsample_nearest2d(x: Tensor, scale: int = 2) -> Tensor:
    """Nearest-neighbour upsampling by an integer factor.

    Backward pass sums gradients over each ``scale x scale`` block.
    """
    n, c, h, w = x.shape
    out = x.data.repeat(scale, axis=2).repeat(scale, axis=3)

    def backward(g: np.ndarray) -> None:
        grad = g.reshape(n, c, h, scale, w, scale).sum(axis=(3, 5))
        _accumulate(x, grad)

    return Tensor._make(out, (x,), backward)


def pad2d(x: Tensor, padding: Tuple[int, int]) -> Tensor:
    """Zero-pad the two trailing (spatial) dimensions symmetrically."""
    ph, pw = padding
    out = np.pad(x.data, ((0, 0), (0, 0), (ph, ph), (pw, pw)), mode="constant")
    h, w = x.shape[2], x.shape[3]

    def backward(g: np.ndarray) -> None:
        _accumulate(x, g[:, :, ph:ph + h, pw:pw + w])

    return Tensor._make(out, (x,), backward)


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    shifted = x - x.max(axis=axis, keepdims=True).detach()
    exps = shifted.exp()
    return exps / exps.sum(axis=axis, keepdims=True)


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    shifted = x - x.max(axis=axis, keepdims=True).detach()
    return shifted - shifted.exp().sum(axis=axis, keepdims=True).log()


def dropout(x: Tensor, p: float, rng: np.random.Generator,
            training: bool = True) -> Tensor:
    """Inverted dropout — identity at evaluation time."""
    if not training or p <= 0.0:
        return x
    mask = (rng.random(x.shape) >= p).astype(x.data.dtype) / (1.0 - p)

    def backward(g: np.ndarray) -> None:
        _accumulate(x, g * mask)

    return Tensor._make(x.data * mask, (x,), backward)
