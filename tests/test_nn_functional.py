"""Tests for the convolution kernels.

The forwards are checked against naive reference loops, and the tiled
gather bit for bit against the untiled im2col + one stacked matmul it
replaced (kept below as the test oracle).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn import functional as F
from repro.nn.layers import Conv2d


def naive_conv2d(x, w, b, stride, pad, groups):
    n, c_in, h, wd = x.shape
    c_out, c_in_g, kh, kw = w.shape
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    oh = (h + 2 * pad - kh) // stride + 1
    ow = (wd + 2 * pad - kw) // stride + 1
    out = np.zeros((n, c_out, oh, ow))
    cg = c_in // groups
    og = c_out // groups
    for ni in range(n):
        for oc in range(c_out):
            g = oc // og
            for i in range(oh):
                for j in range(ow):
                    patch = xp[
                        ni,
                        g * cg : (g + 1) * cg,
                        i * stride : i * stride + kh,
                        j * stride : j * stride + kw,
                    ]
                    out[ni, oc, i, j] = (patch * w[oc]).sum()
    if b is not None:
        out += b.reshape(1, -1, 1, 1)
    return out


class TestConvForward:
    @pytest.mark.parametrize(
        "n,c_in,c_out,h,k,stride,pad,groups",
        [
            (2, 3, 4, 8, 3, 1, 1, 1),
            (1, 4, 6, 7, 3, 2, 1, 2),
            (3, 2, 2, 5, 1, 1, 0, 1),
            (2, 4, 4, 6, 3, 1, 1, 4),  # depthwise
            (1, 6, 9, 9, 3, 3, 0, 3),
        ],
    )
    def test_matches_naive(self, n, c_in, c_out, h, k, stride, pad, groups):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(n, c_in, h, h))
        w = rng.normal(size=(c_out, c_in // groups, k, k))
        b = rng.normal(size=c_out)
        out, _ = F.conv2d_forward(x, w, b, stride, pad, groups)
        expected = naive_conv2d(x, w, b, stride, pad, groups)
        np.testing.assert_allclose(out, expected, rtol=1e-10, atol=1e-10)

    def test_no_bias(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(1, 2, 5, 5))
        w = rng.normal(size=(3, 2, 3, 3))
        out, _ = F.conv2d_forward(x, w, None, 1, 1, 1)
        expected = naive_conv2d(x, w, None, 1, 1, 1)
        np.testing.assert_allclose(out, expected, rtol=1e-10, atol=1e-10)

    def test_channel_mismatch_raises(self):
        x = np.zeros((1, 3, 5, 5))
        w = np.zeros((4, 2, 3, 3))
        with pytest.raises(ValueError):
            F.conv2d_forward(x, w, None, 1, 1, 1)

    def test_empty_output_raises(self):
        x = np.zeros((1, 1, 2, 2))
        w = np.zeros((1, 1, 5, 5))
        with pytest.raises(ValueError):
            F.conv2d_forward(x, w, None, 1, 0, 1)


class TestConvBackward:
    def _grads_numeric(self, x, w, b, stride, pad, groups, grad_out, eps=1e-6):
        def loss(xv, wv, bv):
            out, _ = F.conv2d_forward(xv, wv, bv, stride, pad, groups)
            return float((out * grad_out).sum())

        dx = np.zeros_like(x)
        it = np.nditer(x, flags=["multi_index"])
        while not it.finished:
            idx = it.multi_index
            xp, xm = x.copy(), x.copy()
            xp[idx] += eps
            xm[idx] -= eps
            dx[idx] = (loss(xp, w, b) - loss(xm, w, b)) / (2 * eps)
            it.iternext()
        dw = np.zeros_like(w)
        it = np.nditer(w, flags=["multi_index"])
        while not it.finished:
            idx = it.multi_index
            wp, wm = w.copy(), w.copy()
            wp[idx] += eps
            wm[idx] -= eps
            dw[idx] = (loss(x, wp, b) - loss(x, wm, b)) / (2 * eps)
            it.iternext()
        return dx, dw

    @pytest.mark.parametrize(
        "stride,pad,groups", [(1, 1, 1), (2, 1, 1), (1, 0, 2), (1, 1, 4)]
    )
    def test_matches_numeric(self, stride, pad, groups):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(2, 4, 5, 5))
        w = rng.normal(size=(4, 4 // groups, 3, 3))
        b = rng.normal(size=4)
        out, cache = F.conv2d_forward(x, w, b, stride, pad, groups)
        grad_out = rng.normal(size=out.shape)
        dx, dw, db = F.conv2d_backward(grad_out, w, cache)
        dx_num, dw_num = self._grads_numeric(x, w, b, stride, pad, groups, grad_out)
        np.testing.assert_allclose(dx, dx_num, rtol=1e-5, atol=1e-7)
        np.testing.assert_allclose(dw, dw_num, rtol=1e-5, atol=1e-7)
        np.testing.assert_allclose(db, grad_out.sum(axis=(0, 2, 3)))


def untiled_conv2d_batched(x, weights, b, stride, pad, groups):
    """Oracle: the whole patch tensor, then one stacked matmul."""
    k, c_out, c_in_g, kh, kw = weights.shape
    cols, (oh, ow) = F.im2col(x, kh, kw, stride, pad)
    cols_g = cols.reshape(k, x.shape[0] // k, groups, c_in_g * kh * kw, oh * ow)
    w_g = weights.reshape(k, 1, groups, c_out // groups, c_in_g * kh * kw)
    out = np.matmul(w_g, cols_g).reshape(x.shape[0], c_out, oh, ow)
    if b is not None:
        out += b.reshape(1, c_out, 1, 1)
    return out


def untiled_conv2d(x, w, b, stride, pad, groups):
    return untiled_conv2d_batched(x, w[None], b, stride, pad, groups)


def untiled_conv2d_backward(grad_out, x, w, stride, pad, groups):
    """Oracle: the gradients computed from the untiled patch tensor."""
    n = x.shape[0]
    c_out, c_in_g, kh, kw = w.shape
    cols, (oh, ow) = F.im2col(x, kh, kw, stride, pad)
    cols_g = cols.reshape(n, groups, c_in_g * kh * kw, oh * ow)
    go = grad_out.reshape(n, groups, c_out // groups, oh * ow)
    w_g = w.reshape(groups, c_out // groups, c_in_g * kh * kw)
    dw = np.matmul(go, cols_g.swapaxes(-1, -2)).sum(axis=0).reshape(w.shape)
    dcols = np.matmul(w_g.swapaxes(-1, -2), go)
    dx = F.col2im(dcols.reshape(n, x.shape[1], kh, kw, oh, ow), x.shape, stride, pad)
    return dx, dw, grad_out.sum(axis=(0, 2, 3))


def assert_bitwise(actual, expected):
    assert actual.shape == expected.shape and actual.dtype == expected.dtype
    bits = np.uint32 if actual.dtype == np.float32 else np.uint64
    np.testing.assert_array_equal(actual.view(bits), expected.view(bits))


#: Samples per tile the exactness tests force; their batches of 8 and 2
#: then span three tiles (3, 3, 2) and lie within one.
TILE = 3
CONV_CASES = [
    (k, stride, pad, depthwise, bias)
    for k in (1, 3)
    for stride in (1, 2)
    for pad in (0, 1)
    for depthwise in (False, True)
    for bias in (True, False)
]


def _problem(rng, n, k, depthwise, bias, c_in=4, c_out=8, size=9, cands=None):
    groups = c_in if depthwise else 1
    c_out = c_in if depthwise else c_out
    shape = (c_out, c_in // groups, k, k)
    w = rng.normal(size=shape if cands is None else (cands, *shape))
    x = rng.normal(size=(n, c_in, size, size)).astype(np.float32)
    b = rng.normal(size=c_out).astype(np.float32) if bias else None
    return x, w.astype(np.float32), b, groups


@pytest.fixture
def tile_of(monkeypatch):
    """Shrink the patch buffer to ``TILE`` samples of the given conv."""

    def set_tile(x, k, stride, pad):
        oh = (x.shape[2] + 2 * pad - k) // stride + 1
        ow = (x.shape[3] + 2 * pad - k) // stride + 1
        per_sample = x.shape[1] * k * k * oh * ow * x.itemsize
        monkeypatch.setattr(F, "_TILE_BYTES", TILE * per_sample + per_sample // 2)

    return set_tile


class TestTiledConvExact:
    """The tiled kernel is bitwise the untiled im2col + matmul."""

    @pytest.mark.parametrize("n", [8, 2])
    @pytest.mark.parametrize("k,stride,pad,depthwise,bias", CONV_CASES)
    def test_forward(self, tile_of, n, k, stride, pad, depthwise, bias):
        rng = np.random.default_rng(k * 100 + stride * 10 + pad)
        x, w, b, groups = _problem(rng, n, k, depthwise, bias)
        tile_of(x, k, stride, pad)
        out, _ = F.conv2d_forward(x, w, b, stride, pad, groups)
        assert_bitwise(out, untiled_conv2d(x, w, b, stride, pad, groups))

    @pytest.mark.parametrize("k,stride,pad,depthwise,bias", CONV_CASES)
    def test_batched(self, tile_of, k, stride, pad, depthwise, bias):
        rng = np.random.default_rng(7)
        x, ws, b, groups = _problem(rng, 3 * 8, k, depthwise, bias, cands=3)
        tile_of(x, k, stride, pad)
        out = F.conv2d_forward_batched(x, ws, b, stride, pad, groups)
        assert_bitwise(out, untiled_conv2d_batched(x, ws, b, stride, pad, groups))

    @pytest.mark.parametrize("k,stride,pad,depthwise,bias", CONV_CASES)
    def test_overlay(self, tile_of, k, stride, pad, depthwise, bias):
        rng = np.random.default_rng(11)
        x, ws, b, groups = _problem(rng, 3 * 8, k, depthwise, bias, cands=3)
        tile_of(x, k, stride, pad)
        overlay = F.BatchedWeightOverlay(3, ws[0], {2: ws[2]})
        out = F.conv2d_forward_overlay(x, overlay, b, stride, pad, groups)
        for ki, wk in enumerate((ws[0], ws[0], ws[2])):
            rows = slice(ki * 8, (ki + 1) * 8)
            assert_bitwise(
                out[rows], untiled_conv2d(x[rows], wk, b, stride, pad, groups)
            )

    def test_default_tile_spans_several_tiles(self):
        rng = np.random.default_rng(3)
        x, w, b, _ = _problem(rng, 1, 3, False, True, c_in=8, size=16)
        per_sample = 8 * 9 * 16 * 16 * x.itemsize
        tile = F._TILE_BYTES // per_sample
        assert tile >= 2
        x = rng.normal(size=(2 * tile + 1, 8, 16, 16)).astype(np.float32)
        out, _ = F.conv2d_forward(x, w, b, 1, 1, 1)
        assert_bitwise(out, untiled_conv2d(x, w, b, 1, 1, 1))

    @pytest.mark.parametrize("k,stride,pad,depthwise,bias", CONV_CASES)
    def test_layer_backward(self, tile_of, k, stride, pad, depthwise, bias):
        rng = np.random.default_rng(5)
        x, w, b, groups = _problem(rng, 8, k, depthwise, bias)
        tile_of(x, k, stride, pad)
        conv = Conv2d(4, w.shape[0], k, stride, pad, groups, bias=bias)
        conv.weight.data[...] = w
        if bias:
            conv.bias.data[...] = b
        out = conv.forward(x)
        grad_out = rng.normal(size=out.shape).astype(np.float32)
        dx = conv.backward(grad_out)
        dx_ref, dw_ref, db_ref = untiled_conv2d_backward(
            grad_out, x, w, stride, pad, groups
        )
        assert_bitwise(dx, dx_ref)
        assert_bitwise(conv.weight.grad, dw_ref)
        if bias:
            assert_bitwise(conv.bias.grad, db_ref)

    def test_cache_keeps_no_patch_tensor(self):
        rng = np.random.default_rng(9)
        x, w, b, groups = _problem(rng, 8, 3, False, True)
        conv = Conv2d(4, 8, 3, 1, 1, groups)
        conv.forward(x)
        patch_size = x.size * 3 * 3
        arrays = [a for a in conv._cache if isinstance(a, np.ndarray)]
        assert arrays and max(a.size for a in arrays) < patch_size


class TestIm2colAdjoint:
    @given(
        n=st.integers(1, 3),
        c=st.integers(1, 3),
        h=st.integers(4, 8),
        k=st.integers(1, 3),
        stride=st.integers(1, 2),
        pad=st.integers(0, 1),
    )
    @settings(max_examples=25, deadline=None)
    def test_col2im_is_adjoint_of_im2col(self, n, c, h, k, stride, pad):
        """<im2col(x), y> == <x, col2im(y)> — the defining adjoint property."""
        if (h + 2 * pad - k) < 0:
            return
        rng = np.random.default_rng(42)
        x = rng.normal(size=(n, c, h, h))
        cols, (oh, ow) = F.im2col(x, k, k, stride, pad)
        y = rng.normal(size=cols.shape)
        lhs = float((cols * y).sum())
        rhs = float((x * F.col2im(y, x.shape, stride, pad)).sum())
        np.testing.assert_allclose(lhs, rhs, rtol=1e-10)


class TestSoftmax:
    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(4, 7)) * 10
        s = F.softmax(x, axis=1)
        np.testing.assert_allclose(s.sum(axis=1), np.ones(4), rtol=1e-12)

    def test_stability_large_logits(self):
        x = np.array([[1e4, 0.0], [0.0, -1e4]])
        s = F.softmax(x, axis=1)
        assert np.all(np.isfinite(s))

    def test_log_softmax_consistency(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(3, 5))
        np.testing.assert_allclose(
            F.log_softmax(x), np.log(F.softmax(x)), rtol=1e-10
        )
