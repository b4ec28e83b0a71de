"""Reverse-mode automatic differentiation over dense float64 tensors.

A Tensor wraps a numpy array plus the graph bookkeeping needed for
backpropagation (parents and a backward closure). Ops are module-level
functions that build the graph as they compute. Everything is double
precision; shapes are explicit and validated, broadcasting is limited to
the bias patterns the network needs.

Convolution orientation: conv1d slides the *flipped* kernel, i.e. it is a
true convolution. With "same" padding the output is centered,
y[n] = sum_i k[i] * x[n + (K-1)/2 - i], so the kernel vector read left to
right is exactly the tap vector b_0..b_N of the causal FIR filter that
this layer realizes with a (K-1)/2 sample delay. causal_conv1d removes
that delay and returns the causal filter output itself.

Kernels of FFT_KERNEL_MIN taps or more use one FFT size forward and
backward, nfft = next_pow2(L + K - 1): the unpadded signal's spectrum
times the kernel's is the full linear convolution, read from sample
start = K - 1 - p (p the "same" padding). Backward transforms the output
gradient once, placed at `start`, and correlates it with the signal (the
kernel gradient) and with the kernel (the input gradient).
"""

from __future__ import annotations

import math
from contextlib import contextmanager

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .dsp import next_pow2

# Kernels at least this long go through the FFT convolution path.
FFT_KERNEL_MIN = 16

BCE_CLAMP = 1e-7
BN_EPS = 1e-5
BN_MOMENTUM = 0.9

_grad_enabled = True


class Tensor:
    """Node in the differentiation graph."""

    __slots__ = ("data", "grad", "requires_grad", "op", "_parents", "_backward")

    def __init__(self, data, requires_grad=False, parents=(), backward=None, op="leaf"):
        self.data = np.asarray(data, dtype=np.float64)
        # leaves are validated; op outputs are checked at the loss instead
        # (per-op scans would dominate the training hot path)
        if op == "leaf" and not np.all(np.isfinite(self.data)):
            raise ValueError("non-finite values in tensor")
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self.op = op
        self._parents = tuple(parents)
        self._backward = backward

    @property
    def shape(self):
        return self.data.shape

    def accumulate(self, g):
        if self.grad is None:
            self.grad = np.array(g)  # copy: g may be shared by another node
        else:
            self.grad += g

    def accumulate_owned(self, g):
        """Like accumulate, but takes ownership of g (caller-built buffer)."""
        if self.grad is None:
            self.grad = g
        else:
            self.grad += g

    def zero_grad(self):
        self.grad = None

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, op={self.op}, requires_grad={self.requires_grad})"


def tensor(data) -> Tensor:
    """Constant leaf (no gradient collected)."""
    return Tensor(data, requires_grad=False)


def parameter(data) -> Tensor:
    """Trainable leaf."""
    return Tensor(data, requires_grad=True)


@contextmanager
def no_grad():
    """Build no graph inside the block: op outputs keep no parents and no
    backward closure, so the arrays a closure would hold are freed as soon
    as the op's caller drops them. Used for inference."""
    global _grad_enabled
    previous = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = previous


def _node(data, parents, backward, op):
    if not _grad_enabled:
        return Tensor(data, op=op)
    req = any(p.requires_grad for p in parents)
    return Tensor(data, requires_grad=req, parents=parents,
                  backward=backward if req else None, op=op)


def backward(root: Tensor) -> None:
    """Accumulate gradients of a scalar root into every reachable node.

    Nodes used more than once (shared parameters) receive the sum of the
    contributions from each use. Rejects cyclic graphs.
    """
    if root.data.size != 1:
        raise ValueError(f"backward needs a scalar, got shape {root.data.shape}")
    order: list[Tensor] = []
    VISITING, DONE = 0, 1
    state: dict[int, int] = {id(root): VISITING}
    stack: list[tuple[Tensor, object]] = [(root, iter(root._parents))]
    while stack:
        node, it = stack[-1]
        child = next(it, None)
        if child is None:
            state[id(node)] = DONE
            order.append(node)
            stack.pop()
            continue
        if not child.requires_grad:
            continue
        st = state.get(id(child))
        if st == VISITING:
            raise ValueError("cycle detected in computation graph")
        if st is None:
            state[id(child)] = VISITING
            stack.append((child, iter(child._parents)))
    root.accumulate(np.ones_like(root.data))
    for node in reversed(order):
        if node._backward is not None:
            node._backward(node.grad)


# ---------------------------------------------------------------------------
# elementwise / reduction ops

def add(a: Tensor, b: Tensor) -> Tensor:
    if a.data.shape != b.data.shape:
        raise ValueError(f"add shape mismatch {a.data.shape} vs {b.data.shape}")

    def back(g):
        if a.requires_grad:
            a.accumulate(g)
        if b.requires_grad:
            b.accumulate(g)

    return _node(a.data + b.data, (a, b), back, "add")


def mul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.shape != b.data.shape:
        raise ValueError(f"mul shape mismatch {a.data.shape} vs {b.data.shape}")

    def back(g):
        if a.requires_grad:
            a.accumulate_owned(g * b.data)
        if b.requires_grad:
            b.accumulate_owned(g * a.data)

    return _node(a.data * b.data, (a, b), back, "mul")


def scale(x: Tensor, s: float) -> Tensor:
    s = float(s)

    def back(g):
        if x.requires_grad:
            x.accumulate_owned(g * s)

    return _node(x.data * s, (x,), back, "scale")


def tsum(x: Tensor) -> Tensor:
    def back(g):
        if x.requires_grad:
            x.accumulate_owned(np.full_like(x.data, float(g)))

    return _node(x.data.sum(), (x,), back, "sum")


def sum_of_squares(x: Tensor) -> Tensor:
    def back(g):
        if x.requires_grad:
            x.accumulate_owned(2.0 * float(g) * x.data)

    return _node((x.data * x.data).sum(), (x,), back, "sum_sq")


def relu(x: Tensor) -> Tensor:
    def back(g):
        if x.requires_grad:
            x.accumulate_owned(g * (x.data > 0.0))  # gradient at exactly 0 is 0

    return _node(np.maximum(x.data, 0.0), (x,), back, "relu")


def sigmoid(x: Tensor) -> Tensor:
    d = x.data
    out = np.empty_like(d)
    pos = d >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-d[pos]))
    ex = np.exp(d[~pos])
    out[~pos] = ex / (1.0 + ex)

    def back(g):
        if x.requires_grad:
            x.accumulate_owned(g * out * (1.0 - out))

    return _node(out, (x,), back, "sigmoid")


# ---------------------------------------------------------------------------
# shape plumbing

def reshape(x: Tensor, shape) -> Tensor:
    shape = tuple(shape)

    def back(g):
        if x.requires_grad:
            x.accumulate(g.reshape(x.data.shape))

    return _node(x.data.reshape(shape), (x,), back, "reshape")


def concat(parts: list[Tensor], axis: int = 1) -> Tensor:
    if not parts:
        raise ValueError("concat of nothing")
    sizes = [p.data.shape[axis] for p in parts]
    offsets = np.cumsum([0] + sizes)

    def back(g):
        for p, a, b in zip(parts, offsets[:-1], offsets[1:]):
            if p.requires_grad:
                idx = [slice(None)] * g.ndim
                idx[axis] = slice(int(a), int(b))
                p.accumulate(g[tuple(idx)])

    return _node(np.concatenate([p.data for p in parts], axis=axis), tuple(parts), back, "concat")


def slice_axis(x: Tensor, axis: int, start: int, stop: int) -> Tensor:
    idx = [slice(None)] * x.data.ndim
    idx[axis] = slice(start, stop)
    idx = tuple(idx)

    def back(g):
        if x.requires_grad:
            if x.grad is None:
                x.grad = np.zeros_like(x.data)
            x.grad[idx] += g

    return _node(x.data[idx], (x,), back, "slice")


def slice_channels(x: Tensor, start: int, stop: int) -> Tensor:
    return slice_axis(x, 1, start, stop)


def slice_time(x: Tensor, start: int, stop: int) -> Tensor:
    return slice_axis(x, x.data.ndim - 1, start, stop)


def pad_time(x: Tensor, left: int, right: int) -> Tensor:
    width = [(0, 0)] * (x.data.ndim - 1) + [(left, right)]
    l_ = left
    n = x.data.shape[-1]

    def back(g):
        if x.requires_grad:
            x.accumulate(g[..., l_:l_ + n])

    return _node(np.pad(x.data, width), (x,), back, "pad_time")


def flip_time(x: Tensor) -> Tensor:
    def back(g):
        if x.requires_grad:
            x.accumulate_owned(np.ascontiguousarray(g[..., ::-1]))

    return _node(np.ascontiguousarray(x.data[..., ::-1]), (x,), back, "flip_time")


# ---------------------------------------------------------------------------
# convolution

def conv1d(x: Tensor, kernel: Tensor, padding: str = "same", groups: int = 1) -> Tensor:
    """1-D convolution of [batch, groups*ch_in, length] with
    [groups*ch_out, ch_in, k].

    Channels split into `groups` independent blocks: output block g
    convolves input block g with kernel block g only, so groups=G runs G
    separate convolutions as one op. "same" keeps the length (odd k only,
    zeros outside the signal); "valid" yields length - k + 1 samples.
    Gradients are defined for both the signal and the kernel. Long kernels
    run through an FFT path; both paths are deterministic.
    """
    if padding not in ("same", "valid"):
        raise ValueError(f"unknown padding {padding!r}")
    if x.data.ndim != 3 or kernel.data.ndim != 3:
        raise ValueError("conv1d expects x [B, G*Ci, L] and kernel [G*Co, Ci, k]")
    b, gci, length = x.data.shape
    gco, ci, k = kernel.data.shape
    if groups < 1 or gci % groups or gco % groups:
        raise ValueError(f"{groups} groups do not divide {gci} input and {gco} "
                         f"output channels")
    if gci // groups != ci:
        raise ValueError(f"channel mismatch: input {gci} in {groups} groups, kernel {ci}")
    if k > length and padding == "valid":
        raise ValueError(f"kernel ({k}) longer than signal ({length}) for valid padding")
    if padding == "same" and k % 2 == 0:
        raise ValueError("same padding requires an odd kernel length")
    ng, co = groups, gco // groups
    p = (k - 1) // 2 if padding == "same" else 0
    ln = length + 2 * p - k + 1
    use_fft = k >= FFT_KERNEL_MIN
    if use_fft:
        # output n is sample start + n of the full linear convolution
        nfft, start = next_pow2(length + k - 1), k - 1 - p
        xhat = np.fft.rfft(x.data, nfft).reshape(b, ng, ci, -1)
        khat = np.fft.rfft(kernel.data, nfft).reshape(ng, co, ci, -1)
        full = np.fft.irfft(np.einsum("bgcf,gocf->bgof", xhat, khat), nfft)
        out = np.ascontiguousarray(full[..., start:start + ln]).reshape(b, gco, ln)
    else:
        # cols[b, g, c*k + j, n] = xp[b, g*ci + c, n + j]; the flipped kernel
        # times these windows is the convolution, already in [B, G*Co, Ln]
        xp = np.pad(x.data, ((0, 0), (0, 0), (p, p))) if p else x.data
        lp = xp.shape[-1]
        win = sliding_window_view(xp, ln, axis=2)  # [B, G*Ci, k, Ln]
        cols = np.ascontiguousarray(win).reshape(b, ng, ci * k, ln)
        kf = kernel.data[:, :, ::-1].reshape(ng, co, ci * k)
        out = np.matmul(kf, cols).reshape(b, gco, ln)

    def back(g):
        g = np.ascontiguousarray(g).reshape(b, ng, co, ln)
        if use_fft:
            # g placed at `start` in a zeroed frame: no product wraps around
            gfull = np.zeros((b, ng, co, nfft))
            gfull[..., start:start + ln] = g
            ghat = np.fft.rfft(gfull)
        if kernel.requires_grad:
            if use_fft:
                dk = np.fft.irfft(np.einsum("bgof,bgcf->gocf", ghat, np.conj(xhat)), nfft)
                dk = dk[..., :k]
            else:
                dk = np.matmul(g, cols.transpose(0, 1, 3, 2)).sum(axis=0)
                dk = dk.reshape(ng, co, ci, k)[..., ::-1]
            kernel.accumulate_owned(np.ascontiguousarray(dk).reshape(gco, ci, k))
        if x.requires_grad:
            if use_fft:
                dx = np.fft.irfft(np.einsum("bgof,gocf->bgcf", ghat, np.conj(khat)), nfft)
                dx = dx[..., :length]
            elif ci <= co:
                # gradient of each window row c*k + j, scattered back to xp
                # samples n + j: k shifted adds of [B, G, Ci, Ln]
                dcols = np.matmul(kf.transpose(0, 2, 1), g).reshape(b, ng, ci, k, ln)
                dxp = np.zeros((b, ng, ci, lp))
                for j in range(k):
                    dxp[..., j:j + ln] += dcols[:, :, :, j]
                dx = dxp[..., p:p + length]
            else:
                # fewer output channels: gather windows of the zero-padded
                # gradient instead (Co*k rows, not Ci*k) and apply the
                # unflipped kernel
                gp = np.pad(g, ((0, 0), (0, 0), (0, 0), (k - 1, k - 1)))
                colsg = np.ascontiguousarray(sliding_window_view(gp, lp, axis=3))
                kk = kernel.data.reshape(ng, co, ci, k).transpose(0, 2, 1, 3)
                dxp = np.matmul(kk.reshape(ng, ci, co * k), colsg.reshape(b, ng, co * k, lp))
                dx = dxp[..., p:p + length]
            x.accumulate_owned(np.ascontiguousarray(dx).reshape(b, gci, length))

    return _node(out, (x, kernel), back, f"conv1d_{padding}")


def causal_conv1d(x: Tensor, kernel: Tensor) -> Tensor:
    """Causal FIR filtering y[n] = sum_i k[i] x[n-i] through the conv layer.

    The centered "same" convolution computes this very sum at an index
    offset of (K-1)/2; shifting the input right by that amount and keeping
    the first `length` outputs removes the offset exactly.
    """
    if kernel.data.ndim != 3 or kernel.data.shape[1] != 1:
        raise ValueError("causal_conv1d expects a single-channel kernel [Co, 1, k]")
    k = kernel.data.shape[-1]
    if k % 2 == 0:
        raise ValueError("kernel length must be odd")
    length = x.data.shape[-1]
    shifted = pad_time(x, (k - 1) // 2, 0)
    full = conv1d(shifted, kernel, padding="same")
    return slice_time(full, 0, length)


# ---------------------------------------------------------------------------
# dense / pooling / normalization / regularization

def dense(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    if x.data.ndim != 2 or w.data.ndim != 2 or b.data.ndim != 1:
        raise ValueError("dense expects x [B, in], w [in, out], b [out]")
    if x.data.shape[1] != w.data.shape[0] or w.data.shape[1] != b.data.shape[0]:
        raise ValueError(f"dense shape mismatch: x {x.data.shape}, w {w.data.shape}, "
                         f"b {b.data.shape}")

    def back(g):
        if x.requires_grad:
            x.accumulate_owned(g @ w.data.T)
        if w.requires_grad:
            w.accumulate_owned(x.data.T @ g)
        if b.requires_grad:
            b.accumulate_owned(g.sum(axis=0))

    return _node(x.data @ w.data + b.data, (x, w, b), back, "dense")


def add_channel_bias(x: Tensor, b: Tensor) -> Tensor:
    if x.data.ndim != 3 or b.data.ndim != 1 or x.data.shape[1] != b.data.shape[0]:
        raise ValueError("add_channel_bias expects x [B, C, L] and b [C]")

    def back(g):
        if x.requires_grad:
            x.accumulate(g)
        if b.requires_grad:
            b.accumulate_owned(g.sum(axis=(0, 2)))

    return _node(x.data + b.data[None, :, None], (x, b), back, "bias")


def maxpool1d(x: Tensor, pool: int) -> Tensor:
    """Non-overlapping max pooling; a trailing remainder is dropped.

    Ties route the gradient to the first maximal element of the window.
    """
    if pool < 1:
        raise ValueError(f"pool must be >= 1, got {pool}")
    if pool == 1:
        return x
    b, c, length = x.data.shape
    lo = length // pool
    if lo == 0:
        raise ValueError(f"signal of length {length} shorter than pool {pool}")
    view = x.data[:, :, :lo * pool].reshape(b, c, lo, pool)
    am = view.argmax(axis=-1)  # argmax takes the first maximum

    def back(g):
        if x.requires_grad:
            full = np.zeros_like(x.data)
            buf = full[:, :, :lo * pool].reshape(b, c, lo, pool)
            np.put_along_axis(buf, am[..., None], g[..., None], axis=-1)
            x.accumulate_owned(full)

    return _node(view.max(axis=-1), (x,), back, "maxpool")


class BatchNormState:
    """Running statistics owned by one batch-norm layer."""

    def __init__(self, channels: int):
        self.mean = np.zeros(channels)
        self.var = np.ones(channels)

    def copy(self) -> "BatchNormState":
        out = BatchNormState(self.mean.size)
        out.mean = self.mean.copy()
        out.var = self.var.copy()
        return out


def _bn_coefficients(x: Tensor, gamma: Tensor, beta: Tensor, state: BatchNormState,
                     train: bool, bias: Tensor | None):
    """Validate a batch-norm call on x [B, C, L] and return (mu, ivar, a,
    shift): the layer is x * a + shift per channel, with a = gamma * ivar
    and shift = beta - a * mu. Train mode takes the batch statistics and
    updates the running ones in place; infer mode reads the running ones."""
    if x.data.ndim != 3:
        raise ValueError("batchnorm1d expects x [B, C, L]")
    b, c, length = x.data.shape
    if gamma.data.shape != (c,) or beta.data.shape != (c,):
        raise ValueError("gamma/beta must have shape [C]")
    if bias is not None and bias.data.shape != (c,):
        raise ValueError("bias must have shape [C]")
    if train:
        if b < 2:
            raise ValueError("batchnorm in train mode needs batch >= 2")
        mu = x.data.mean(axis=(0, 2))
        xc = x.data - mu[None, :, None]
        var = np.einsum("bcl,bcl->c", xc, xc) / (b * length)
        del xc  # freed before the caller allocates its output
        state.mean *= BN_MOMENTUM
        state.mean += (1.0 - BN_MOMENTUM) * (mu if bias is None else mu + bias.data)
        state.var *= BN_MOMENTUM
        state.var += (1.0 - BN_MOMENTUM) * var
    else:
        mu = state.mean.copy() if bias is None else state.mean - bias.data
        var = state.var
    ivar = 1.0 / np.sqrt(var + BN_EPS)
    a_ch = gamma.data * ivar
    return mu, ivar, a_ch, beta.data - a_ch * mu


def _bn_backward(g, x: Tensor, gamma: Tensor, beta: Tensor, bias: Tensor | None,
                 train: bool, mu, ivar, a_ch, g_scratch: bool = False) -> None:
    """Accumulate batch-norm's gradients given g, the gradient of its
    output; in infer mode a folded bias gets one too. With g_scratch the
    caller's g buffer is reused for dx."""
    gsum = g.sum(axis=(0, 2))
    if gamma.requires_grad or (x.requires_grad and train):
        # sum(g * xh) without materializing xh = (x - mu) * ivar
        gxh = (np.einsum("bcl,bcl->c", g, x.data) - mu * gsum) * ivar
    if gamma.requires_grad:
        gamma.accumulate_owned(gxh)
    if beta.requires_grad:
        beta.accumulate_owned(gsum)
    if not train and bias is not None and bias.requires_grad:
        bias.accumulate_owned(gsum * a_ch)
    if x.requires_grad:
        if train:
            # dL/dx = a * (g - (gsum + xh * gxh) / m), expanded in x:
            # a*g - c1*x + c0 with c1 = a*ivar*gxh/m, c0 = c1*mu - a*gsum/m
            m = x.data.shape[0] * x.data.shape[2]
            c1 = a_ch * ivar * gxh / m
            c0 = c1 * mu - a_ch * gsum / m
            dx = np.multiply(x.data, -c1[None, :, None])
            dx += c0[None, :, None]
            dx += np.multiply(g, a_ch[None, :, None], out=g if g_scratch else None)
        else:
            dx = np.multiply(g, a_ch[None, :, None], out=g if g_scratch else None)
        x.accumulate_owned(dx)


def batchnorm1d(x: Tensor, gamma: Tensor, beta: Tensor, state: BatchNormState,
                train: bool, bias: Tensor | None = None) -> Tensor:
    """Per-channel normalization over batch and length of [B, C, L].

    Train mode normalizes with (biased) batch statistics and updates the
    running statistics in place; infer mode uses the running statistics.

    `bias` is a per-channel bias [C] that the layer before added to x,
    folded in here instead: batch statistics cancel it exactly, so train
    mode ignores it (it gets no gradient) except that the running mean
    tracks mean(x + bias); infer mode moves it into the shift.
    """
    mu, ivar, a_ch, shift = _bn_coefficients(x, gamma, beta, state, train, bias)
    # two passes: out = x * (gamma*ivar) + (beta - gamma*ivar*mu)
    out = x.data * a_ch[None, :, None]
    out += shift[None, :, None]
    parents = (x, gamma, beta) if train or bias is None else (x, gamma, beta, bias)

    def back(g):
        _bn_backward(g, x, gamma, beta, bias, train, mu, ivar, a_ch)

    return _node(out, parents, back, "batchnorm")


def check_dropout_rate(rate: float, in_bytes: bool = False) -> None:
    """Raise ValueError unless 0 <= rate < 1 and, for a byte keep-mask
    (`in_bytes`), rate is a multiple of 1/256."""
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    if in_bytes and not float(rate * 256).is_integer():
        raise ValueError(f"dropout rate must be a multiple of 1/256, got {rate}")


def dropout(x: Tensor, rate: float, train: bool, rng: np.random.Generator) -> Tensor:
    """Inverted dropout: kept activations are scaled by 1/(1-rate). The
    keep-mask is one draw from rng over x's whole shape
    (rng.random(shape) >= rate)."""
    check_dropout_rate(rate)
    if not train or rate == 0.0:
        return x
    mask = (rng.random(x.data.shape) >= rate) * (1.0 / (1.0 - rate))

    def back(g):
        if x.requires_grad:
            x.accumulate_owned(g * mask)

    return _node(x.data * mask, (x,), back, "dropout")


def byte_keep_mask(rng: np.random.Generator, shape, rate: float) -> np.ndarray:
    """Boolean dropout keep-mask of `shape`, one random byte per element:
    byte >= 256*rate, so each element is kept with probability exactly
    1 - rate. The rate must be a multiple of 1/256."""
    check_dropout_rate(rate, in_bytes=True)
    n = math.prod(shape)
    return (np.frombuffer(rng.bytes(n), np.uint8) >= int(rate * 256)).reshape(shape)


def _pool_views(v: np.ndarray, pool: int) -> list[np.ndarray]:
    """The pool strided views of v [..., L], view j holding element j of
    each non-overlapping window; a trailing remainder is dropped."""
    n = v.shape[-1] // pool * pool
    return [v[..., j:n:pool] for j in range(pool)]


def _pool_max(v: np.ndarray, pool: int, neg: np.ndarray) -> np.ndarray:
    """Max of each non-overlapping pool window of v [B, C, L], the min on
    the channels listed in `neg`; a trailing remainder is dropped."""
    if pool == 1:
        return v
    views = _pool_views(v, pool)
    out = np.maximum(views[0], views[1])
    for view in views[2:]:
        np.maximum(out, view, out=out)
    if neg.size:
        low = np.minimum(views[0][:, neg], views[1][:, neg])
        for view in views[2:]:
            np.minimum(low, view[:, neg], out=low)
        out[:, neg] = low
    return out


def _pool_winner(v: np.ndarray, pool: int, neg: np.ndarray):
    """The offset in its window of the element _pool_max took, ties going
    to the first: each view is compared with the running best by strict >
    (strict < on `neg`)."""
    if pool == 1:
        return None
    views = _pool_views(v, pool)
    best = views[0]
    for j, view in enumerate(views[1:], 1):
        take = view > best
        if neg.size:
            take[:, neg] = view[:, neg] < best[:, neg]
        if j == 1:   # the bool is offset 0 or 1 as it stands
            winner = take.view(np.uint8).astype(np.min_scalar_type(pool - 1), copy=False)
        else:
            winner[take] = j
        if j < pool - 1:
            best = np.where(take, view, best)
    return winner


def _pool_scatter(g: np.ndarray, gate: np.ndarray, winner, pool: int,
                  shape) -> np.ndarray:
    """A new [B, C, L] array holding g at the window winners where gate is
    True, zero elsewhere."""
    if pool == 1:
        return g * gate
    full = np.empty(shape)
    full[..., shape[-1] // pool * pool:] = 0.0
    for j, view in enumerate(_pool_views(full, pool)):
        np.multiply(g, gate & (winner == j), out=view)
    return full


def bn_relu_dropout_pool(x: Tensor, gamma: Tensor, beta: Tensor, state: BatchNormState,
                         train: bool, rate: float, rng: np.random.Generator | None,
                         pool: int, bias: Tensor | None = None) -> Tensor:
    """batchnorm1d -> relu -> dropout -> maxpool1d on [B, C, L] as one node.

    Train mode: y = x*a + shift with batch statistics (the running
    statistics update as in batchnorm1d), y *= keep, pool, scale by
    1/(1-rate), then relu. Relu after the pool is exact: it commutes with
    max and with a mask >= 0. The keep-mask is one byte_keep_mask draw
    from rng over the whole tensor. The node keeps only the pool winners
    and its output: the gradient passes where out > 0, which also means
    the winner was kept.

    Infer mode: batch-norm is the per-channel map x*a + shift, monotone
    in x and so in its rounded value, so the raw x is pooled first (max
    where a >= 0, min where a < 0) and the map and relu run on the pooled
    values only; the output is bitwise that of the composed ops.

    Pool windows and ties follow maxpool1d; pool 1 means no pool.
    """
    if pool < 1:
        raise ValueError(f"pool must be >= 1, got {pool}")
    check_dropout_rate(rate, in_bytes=True)
    shape = x.data.shape
    if len(shape) == 3 and shape[2] < pool:
        raise ValueError(f"signal of length {shape[2]} shorter than pool {pool}")
    mu, ivar, a_ch, shift = _bn_coefficients(x, gamma, beta, state, train, bias)
    drop = train and rate != 0.0
    if train:
        y = x.data * a_ch[None, :, None]
        y += shift[None, :, None]
        if drop:
            np.multiply(y, byte_keep_mask(rng, shape, rate), out=y)
        neg = np.empty(0, dtype=np.intp)
        winner = _pool_winner(y, pool, neg)
        out = _pool_max(y, pool, neg)
        del y
        if drop:
            out *= 1.0 / (1.0 - rate)
        parents = (x, gamma, beta)
    else:
        neg = np.flatnonzero(a_ch < 0.0)
        winner = None   # found from x in backward, only if a gradient is asked for
        out = _pool_max(x.data, pool, neg) * a_ch[None, :, None]
        out += shift[None, :, None]
        parents = (x, gamma, beta) if bias is None else (x, gamma, beta, bias)
    np.maximum(out, 0.0, out=out)

    def back(g):
        if drop:
            g = g * (1.0 / (1.0 - rate))
        win = winner if train else _pool_winner(x.data, pool, neg)
        gy = _pool_scatter(g, out > 0.0, win, pool, shape)
        _bn_backward(gy, x, gamma, beta, bias, train, mu, ivar, a_ch, g_scratch=True)

    return _node(out, parents, back, "bn_relu_dropout_pool")


def weighted_bce(pred: Tensor, labels: np.ndarray, weights: np.ndarray) -> Tensor:
    """Per-sample weighted binary cross-entropy, averaged over the batch.

    Predictions are clamped to [BCE_CLAMP, 1-BCE_CLAMP] inside the logs;
    the gradient uses the clamped values so saturated predictions still
    produce a bounded, nonzero training signal.
    """
    y = np.asarray(labels, dtype=np.float64).reshape(-1)
    w = np.asarray(weights, dtype=np.float64).reshape(-1)
    p = pred.data.reshape(-1)
    if y.shape != p.shape or w.shape != p.shape:
        raise ValueError("pred, labels and weights must have equal lengths")
    if np.any((y != 0.0) & (y != 1.0)):
        raise ValueError("labels must be 0 or 1")
    n = p.size
    pc = np.clip(p, BCE_CLAMP, 1.0 - BCE_CLAMP)
    loss = -(w * (y * np.log(pc) + (1.0 - y) * np.log1p(-pc))).mean()

    def back(g):
        if pred.requires_grad:
            dp = -(w * (y / pc - (1.0 - y) / (1.0 - pc))) * (float(g) / n)
            pred.accumulate_owned(dp.reshape(pred.data.shape))

    return _node(loss, (pred,), back, "weighted_bce")
