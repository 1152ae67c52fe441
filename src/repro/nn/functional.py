"""Stateless numerical kernels shared by the layer classes.

The convolution kernels use an im2col formulation: each sample's patches
become the right-hand side of one BLAS GEMM per group.  The forwards never
materialize the whole patch tensor.  :func:`_conv_gemm_tiled` gathers the
sliding windows (a zero-copy ``as_strided`` view, over a reused zero-padded
buffer when ``pad > 0``) of a few samples at a time into one patch buffer of
about :data:`_TILE_BYTES`, small enough to stay in L2 between the copy and
the GEMM that reads it, and multiplies into the preallocated output.  Every
``(candidate, sample, group)`` GEMM sees the operands and shape the untiled
gather gave it, so the outputs are bitwise those of :func:`im2col` followed
by one stacked matmul.  Only :func:`conv2d_backward` still calls
:func:`im2col`, rebuilding the patch tensor from the cached input.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

__all__ = [
    "im2col",
    "col2im",
    "conv2d_forward",
    "conv2d_backward",
    "linear_forward_batched",
    "conv2d_forward_batched",
    "BatchedWeightOverlay",
    "linear_forward_overlay",
    "conv2d_forward_overlay",
    "softmax",
    "log_softmax",
]


def _out_hw(
    h: int, w: int, kh: int, kw: int, stride: int, pad: int
) -> Tuple[int, int]:
    oh = (h + 2 * pad - kh) // stride + 1
    ow = (w + 2 * pad - kw) // stride + 1
    if oh <= 0 or ow <= 0:
        raise ValueError(
            f"convolution output would be empty: input {h}x{w}, "
            f"kernel {kh}x{kw}, stride {stride}, pad {pad}"
        )
    return oh, ow


def _fold_slices(kn: int, width: int) -> int:
    if kn % width:
        raise ValueError(
            f"folded batch {kn} not divisible by candidate count {width}"
        )
    return kn // width


def _windows(
    xp: np.ndarray, kh: int, kw: int, oh: int, ow: int, stride: int
) -> np.ndarray:
    """Zero-copy ``(N, C, kh, kw, OH, OW)`` window view of padded ``xp``."""
    s_n, s_c, s_h, s_w = xp.strides
    return np.lib.stride_tricks.as_strided(
        xp,
        shape=(xp.shape[0], xp.shape[1], kh, kw, oh, ow),
        strides=(s_n, s_c, s_h, s_w, s_h * stride, s_w * stride),
        writeable=False,
    )


def im2col(
    x: np.ndarray, kh: int, kw: int, stride: int, pad: int
) -> Tuple[np.ndarray, Tuple[int, int]]:
    """Gather sliding windows of ``x`` into a whole patch tensor.

    The forwards gather tile by tile instead (:func:`_conv_gemm_tiled`);
    :func:`conv2d_backward` uses this to rebuild the patches it needs.

    Parameters
    ----------
    x:
        Input of shape ``(N, C, H, W)``.

    Returns
    -------
    cols:
        Array of shape ``(N, C, kh, kw, OH, OW)``.  It is a contiguous copy,
        safe to reshape for the matmul.
    (OH, OW):
        Spatial output size.
    """
    _, _, h, w = x.shape
    oh, ow = _out_hw(h, w, kh, kw, stride, pad)
    if pad:
        x = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    return np.ascontiguousarray(_windows(x, kh, kw, oh, ow, stride)), (oh, ow)


def col2im(
    dcols: np.ndarray,
    x_shape: Tuple[int, int, int, int],
    stride: int,
    pad: int,
) -> np.ndarray:
    """Scatter-add patch gradients back to the input layout.

    Inverse (adjoint) of :func:`im2col`.  ``dcols`` has shape
    ``(N, C, kh, kw, OH, OW)``.
    """
    n, c, h, w = x_shape
    _, _, kh, kw, oh, ow = dcols.shape
    dx_pad = np.zeros((n, c, h + 2 * pad, w + 2 * pad), dtype=dcols.dtype)
    for i in range(kh):
        h_stop = i + stride * oh
        for j in range(kw):
            w_stop = j + stride * ow
            dx_pad[:, :, i:h_stop:stride, j:w_stop:stride] += dcols[:, :, i, j]
    if pad:
        return dx_pad[:, :, pad:-pad, pad:-pad]
    return dx_pad


#: Patch-buffer size of :func:`_conv_gemm_tiled`: the samples of one tile
#: are gathered and multiplied while their patches are still in L2.
_TILE_BYTES = 512 * 1024


def _conv_gemm_tiled(
    x: np.ndarray,
    w_g: np.ndarray,
    bias: np.ndarray,
    kh: int,
    kw: int,
    stride: int,
    pad: int,
) -> np.ndarray:
    """Grouped convolution of ``K`` candidates, one sample tile at a time.

    ``x`` is ``(K*N, C_in, H, W)`` folded candidate-major and ``w_g`` is
    ``(K, G, O, P)`` with ``P = C_in/G * kh * kw``: candidate ``k``
    convolves ``x[k*N:(k+1)*N]``.  A tile never spans two candidates, and
    each one runs the ``(G,O,P) @ (t,G,P,L)`` matmul on the contiguous
    patches of its ``t`` samples, so every per-``(sample, group)`` GEMM is
    the one the untiled im2col gave BLAS.  Returns ``(K*N, C_out, OH, OW)``.
    """
    kn, c_in, h, w = x.shape
    k, groups, o_g, p = w_g.shape
    oh, ow = _out_hw(h, w, kh, kw, stride, pad)
    n = kn // k
    out = np.empty((kn, groups, o_g, oh * ow), dtype=np.result_type(x, w_g))
    tile = max(1, min(n, _TILE_BYTES // (c_in * kh * kw * oh * ow * x.itemsize)))
    cols = np.empty((tile, groups, p, oh * ow), dtype=x.dtype)
    patches = cols.reshape(tile, c_in, kh, kw, oh, ow)
    if pad:
        # Borders are zeroed once; each tile only overwrites the interior.
        padded = np.zeros((tile, c_in, h + 2 * pad, w + 2 * pad), dtype=x.dtype)
        interior = padded[:, :, pad : pad + h, pad : pad + w]
        windows = _windows(padded, kh, kw, oh, ow, stride)
    else:
        windows = _windows(x, kh, kw, oh, ow, stride)
    for ki in range(k):
        for start in range(ki * n, (ki + 1) * n, tile):
            stop = min(start + tile, (ki + 1) * n)
            t = stop - start
            if pad:
                interior[:t] = x[start:stop]
                patches[:t] = windows[:t]
            else:
                patches[:t] = windows[start:stop]
            np.matmul(w_g[ki], cols[:t], out=out[start:stop])
    out = out.reshape(kn, groups * o_g, oh, ow)
    if bias is not None:
        out += bias.reshape(1, -1, 1, 1)
    return out


def _check_groups(c_in: int, w_shape: Tuple[int, ...], groups: int) -> None:
    if c_in != w_shape[-3] * groups:
        raise ValueError(
            f"input channels {c_in} incompatible with weight "
            f"{w_shape} and groups={groups}"
        )


def conv2d_forward(
    x: np.ndarray,
    weight: np.ndarray,
    bias: np.ndarray,
    stride: int,
    pad: int,
    groups: int,
) -> Tuple[np.ndarray, Tuple]:
    """Grouped 2-D convolution.

    Parameters
    ----------
    x:
        ``(N, C_in, H, W)``.
    weight:
        ``(C_out, C_in // groups, kh, kw)``.
    bias:
        ``(C_out,)`` or ``None``.

    Returns
    -------
    out, cache:
        ``out`` has shape ``(N, C_out, OH, OW)``; ``cache`` carries what the
        backward pass needs: the input itself, not its patch tensor.
    """
    _check_groups(x.shape[1], weight.shape, groups)
    c_out, c_in_g, kh, kw = weight.shape
    w_g = weight.reshape(1, groups, c_out // groups, c_in_g * kh * kw)
    out = _conv_gemm_tiled(x, w_g, bias, kh, kw, stride, pad)
    cache = (x, weight.shape, stride, pad, groups)
    return out, cache


def conv2d_backward(
    grad_out: np.ndarray, weight: np.ndarray, cache: Tuple
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gradients of the grouped convolution.

    Returns ``(dx, dweight, dbias)``.  The patch tensor is rebuilt from the
    cached input with :func:`im2col`.
    """
    x, w_shape, stride, pad, groups = cache
    n, c_in, _, _ = x.shape
    c_out, c_in_g, kh, kw = w_shape
    cols, (oh, ow) = im2col(x, kh, kw, stride, pad)
    cols_g = cols.reshape(n, groups, c_in_g * kh * kw, oh * ow)
    go = grad_out.reshape(n, groups, c_out // groups, oh * ow)
    w_g = weight.reshape(groups, c_out // groups, c_in_g * kh * kw)
    # dW: sum over batch and spatial positions, via batched matmul.
    dw = np.matmul(go, cols_g.swapaxes(-1, -2)).sum(axis=0)
    dw = dw.reshape(c_out, c_in_g, kh, kw)
    dbias = grad_out.sum(axis=(0, 2, 3))
    # dcols: (G,P,O) @ (N,G,O,L) -> (N,G,P,L), back through im2col.
    dcols_g = np.matmul(w_g.swapaxes(-1, -2), go)
    dcols = dcols_g.reshape(n, c_in, kh, kw, oh, ow)
    dx = col2im(dcols, x.shape, stride, pad)
    return dx, dw, dbias


def linear_forward_batched(
    x: np.ndarray, weights: np.ndarray, bias: np.ndarray
) -> np.ndarray:
    """Affine map under ``K`` stacked weight candidates.

    ``x`` carries the candidate axis *folded* candidate-major into the batch
    dimension — shape ``(K*N, ..., in_features)`` — and ``weights`` has shape
    ``(K, out_features, in_features)``.  Candidate ``k`` sees samples
    ``x[k*N:(k+1)*N]``.  The whole evaluation is one stacked matmul: numpy
    dispatches it as ``K*N`` independent BLAS GEMMs over the trailing two
    axes, so each candidate's slice is bitwise identical to the sequential
    ``x @ weights[k].T`` it replaces.
    """
    k = weights.shape[0]
    kn = x.shape[0]
    n = _fold_slices(kn, k)
    xk = x.reshape(k, n, *x.shape[1:])
    # (K, out, in) -> (K, 1..., in, out) broadcasting over the middle dims.
    w_t = weights.swapaxes(-1, -2)
    w_t = w_t.reshape(k, *([1] * (xk.ndim - 3)), *w_t.shape[1:])
    out = np.matmul(xk, w_t)
    if bias is not None:
        out += bias
    return out.reshape(kn, *out.shape[2:])


def conv2d_forward_batched(
    x: np.ndarray,
    weights: np.ndarray,
    bias: np.ndarray,
    stride: int,
    pad: int,
    groups: int,
) -> np.ndarray:
    """Grouped convolution under ``K`` stacked weight candidates.

    ``x`` is folded candidate-major, shape ``(K*N, C_in, H, W)``; ``weights``
    has shape ``(K, C_out, C_in // groups, kh, kw)``.  Candidate ``k``'s
    samples go through the same tiled gather and per-``(sample, group)``
    GEMMs as a sequential :func:`conv2d_forward` with ``weights[k]``, so
    each slice is bitwise identical to it.
    """
    k, c_out, c_in_g, kh, kw = weights.shape
    _fold_slices(x.shape[0], k)
    _check_groups(x.shape[1], weights.shape, groups)
    w_g = weights.reshape(k, groups, c_out // groups, c_in_g * kh * kw)
    return _conv_gemm_tiled(x, w_g, bias, kh, kw, stride, pad)


class BatchedWeightOverlay:
    """Sparse candidate-axis weight stack: ``base`` everywhere but ``rows``.

    Semantically equivalent to the dense ``(width, *base.shape)`` stack
    built by ``materialize()``, but the overlay kernels exploit the
    structure: one full-width forward with ``base`` (a single tall GEMM)
    plus a small per-slice fixup for each candidate in ``rows`` (candidate
    index → full weight array).  The sweep's chunks are exactly this shape
    — each candidate perturbs one layer, so at any given layer all but a
    few candidate rows equal the in-context weight — and the tall GEMM is
    far cheaper than ``width`` sliced GEMMs when the slices are tiny.
    """

    __slots__ = ("width", "base", "rows")

    def __init__(self, width: int, base: np.ndarray, rows: dict) -> None:
        base = np.asarray(base)
        if width < 1:
            raise ValueError(f"width must be >= 1, got {width}")
        for k, w in rows.items():
            if not 0 <= k < width:
                raise ValueError(f"row index {k} out of range for width {width}")
            if np.shape(w) != base.shape:
                raise ValueError(
                    f"row {k} shape {np.shape(w)} != base shape {base.shape}"
                )
        self.width = int(width)
        self.base = base
        self.rows = dict(rows)

    @property
    def shape(self) -> Tuple[int, ...]:
        return (self.width, *self.base.shape)

    def materialize(self) -> np.ndarray:
        """Dense ``(width, *base.shape)`` stack with the rows applied."""
        stack = np.repeat(self.base[None], self.width, axis=0)
        for k, w in self.rows.items():
            stack[k] = w
        return stack


def linear_forward_overlay(
    x: np.ndarray, overlay: BatchedWeightOverlay, bias: np.ndarray
) -> np.ndarray:
    """Affine map under a sparse candidate-weight overlay.

    ``x`` is folded candidate-major (``(K*N, ..., in_features)``).  The
    base weight runs over the whole folded batch in one GEMM; each distinct
    row then recomputes only its own candidate slice.
    """
    n = _fold_slices(x.shape[0], overlay.width)
    out = x @ overlay.base.T
    if bias is not None:
        out += bias
    for k, w in overlay.rows.items():
        fix = x[k * n : (k + 1) * n] @ w.T
        if bias is not None:
            fix += bias
        out[k * n : (k + 1) * n] = fix
    return out


def conv2d_forward_overlay(
    x: np.ndarray,
    overlay: BatchedWeightOverlay,
    bias: np.ndarray,
    stride: int,
    pad: int,
    groups: int,
) -> np.ndarray:
    """Grouped convolution under a sparse candidate-weight overlay.

    Same contract as :func:`linear_forward_overlay` for ``(K*N, C, H, W)``
    inputs: one base convolution over the folded batch, then per-row
    slice fixups.
    """
    n = _fold_slices(x.shape[0], overlay.width)
    out, _ = conv2d_forward(x, overlay.base, bias, stride, pad, groups)
    for k, w in overlay.rows.items():
        fix, _ = conv2d_forward(
            x[k * n : (k + 1) * n], w, bias, stride, pad, groups
        )
        out[k * n : (k + 1) * n] = fix
    return out


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable softmax."""
    shifted = x - x.max(axis=axis, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=axis, keepdims=True)


def log_softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable log-softmax."""
    shifted = x - x.max(axis=axis, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
