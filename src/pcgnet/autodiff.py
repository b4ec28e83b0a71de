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
backward, nfft = dsp.next_fast_len(L + K - 1), the smallest
2^a * 3^b * 5^c that holds the full linear convolution (2560 points for
the pipeline's 2500-sample cycles and 61 taps, where the next power of
two is 4096): the unpadded signal's spectrum times the kernel's is that
convolution, read from sample start = K - 1 - p (p the "same" padding).
Backward transforms the output gradient once, placed at `start`, and
correlates it with the signal (the kernel gradient) and with the kernel
(the input gradient). The transforms, the products and the input
gradient split by batch row across the stage workers; the kernel
gradient sums over every row, so it stays one product on the calling
thread.

Stage workers: the grouped conv1d direct path (k < FFT_KERNEL_MIN) splits
its forward and backward work by whole channel groups, the FFT path and
the inference stage op conv_bn_relu_pool by contiguous batch rows, and
the training stage node bn_relu_dropout_pool by channel pairs, one chunk
per stage worker (run_split); model.Network.decompose is a conv1d call
and splits as its path does. The calling thread runs the first chunk and
a module-level thread pool the rest. The worker count is the number of
CPUs this process may run on (os.sched_getaffinity), capped at the
number of groups, rows or pairs; one worker runs everything inline.
It is not a setting, and the BLAS thread variables do not set it. A chunk
writes its results only into its own slice of arrays that the calling
thread allocated, and calls array helpers only, never an op; graph nodes,
random draws and running statistics stay on the calling thread. Every op split this way is per
channel, per group or per row, and the node reduces over blocks of two or
three channels (numpy sums a lone channel in another order), so outputs,
gradients and running statistics are bitwise the same for any worker
count. Within its chunk each conv path works through the batch in
cache-sized blocks of rows: the direct path rebuilds its window matrices
in backward instead of keeping them, and the FFT path holds no frame
wider than one block and keeps the signal's spectrum only when the
kernel gradient needs it. The stage node works one pair at a time.
conv_bn_relu_pool, the network's one inference stage (inside no_grad),
runs the direct path's products, batch-norm, relu and pool on one block
of rows at a time, so the whole batch's convolution output never exists.

BLAS on the calling thread: inside blas_on_calling_thread() OpenBLAS runs
every product on the thread that calls it, whatever OPENBLAS_NUM_THREADS
says; the CLI runs every command inside it. A product large enough to use
OpenBLAS's own helper threads (the head's dense layer is) leaves them
spinning for about 0.1 s afterwards, holding a core while the stage
workers need it, so the stage workers stay the only source of
parallelism in the numerics (the digest thread of pcgnet.data runs no
numpy work, only the read and the sha256 of large inputs). Results do
not depend on the BLAS thread count. Without an OpenBLAS thread API
(other BLAS builds) the block changes nothing.
"""

from __future__ import annotations

import ctypes
import functools
import math
import os
from concurrent.futures import ThreadPoolExecutor, wait
from contextlib import contextmanager

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .dsp import next_fast_len

# Kernels at least this long go through the FFT convolution path.
FFT_KERNEL_MIN = 16
# Both conv paths work through the batch in blocks of rows whose window
# copies or transformed frames take about this many bytes, so that each
# stays in cache.
_BLOCK_BYTES = 1 << 20

BCE_CLAMP = 1e-7
BN_EPS = 1e-5
BN_MOMENTUM = 0.9

_grad_enabled = True
_executor: ThreadPoolExecutor | None = None


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
    as the op's caller drops them. Every inference forward runs in it."""
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
# stage workers

def available_cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:   # no affinity API on this platform
        return os.cpu_count() or 1


def stage_workers(parts: int) -> int:
    """Threads that a stage op split into `parts` independent parts runs on."""
    return max(1, min(available_cpus(), parts))


def _forget_executor() -> None:
    """A forked child has none of its parent's pool threads: it starts a
    pool of its own when it needs one."""
    global _executor
    _executor = None


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_executor)


def run_split(work, parts: int) -> None:
    """Call work(p0, p1) on contiguous ranges of the parts, one range per
    stage worker: the first on this thread, the others on the pool. Returns
    once every range is done and raises the first error."""
    n = stage_workers(parts)
    if n == 1:
        work(0, parts)
        return
    global _executor
    if _executor is None:
        _executor = ThreadPoolExecutor(max(1, available_cpus() - 1),
                                       thread_name_prefix="pcgnet-stage")
    bounds = [(i * parts // n, (i + 1) * parts // n) for i in range(n)]
    futures = [_executor.submit(work, p0, p1) for p0, p1 in bounds[1:]]
    try:
        work(*bounds[0])
    finally:
        wait(futures)   # no chunk may outlive the arrays it writes
    for f in futures:
        f.result()


# ---------------------------------------------------------------------------
# BLAS threads

# (get, set) thread-count symbols of the OpenBLAS builds numpy ships with,
# newest first: scipy-openblas (numpy 2), 64-bit-integer and plain builds.
_OPENBLAS_THREAD_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


@functools.lru_cache(maxsize=None)
def _openblas_thread_api():
    """(get, set) of the thread count of the OpenBLAS that numpy links, or
    None if numpy's BLAS has no such API. dlsym on numpy's core extension
    searches the libraries it depends on, the bundled OpenBLAS among them."""
    from numpy._core import _multiarray_umath as core
    try:
        lib = ctypes.CDLL(core.__file__)
    except OSError:
        return None
    for get_name, set_name in _OPENBLAS_THREAD_SYMBOLS:
        try:
            get, set_ = getattr(lib, get_name), getattr(lib, set_name)
        except AttributeError:
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        set_.argtypes, set_.restype = [ctypes.c_int], None
        return get, set_
    return None


def blas_threads_in_use() -> int | None:
    """Threads OpenBLAS would run a large product on now, or None
    without an OpenBLAS thread API."""
    api = _openblas_thread_api()
    return None if api is None else api[0]()


@contextmanager
def blas_on_calling_thread():
    """Run OpenBLAS on one thread inside the block and restore the previous
    count on exit, error or not. Does nothing without an OpenBLAS thread
    API."""
    api = _openblas_thread_api()
    if api is None:
        yield
        return
    get, set_ = api
    previous = get()
    set_(1)
    try:
        yield
    finally:
        set_(previous)


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
    _conv_check(x, kernel, padding, groups)
    b, gci, length = x.data.shape
    gco, ci, k = kernel.data.shape
    ng, co = groups, gco // groups
    p = (k - 1) // 2 if padding == "same" else 0
    ln = length + 2 * p - k + 1
    use_fft = k >= FFT_KERNEL_MIN
    if use_fft:
        # output n is sample start + n of the full linear convolution
        nfft, start = next_fast_len(length + k - 1), k - 1 - p
        nf = nfft // 2 + 1
        khat = np.fft.rfft(kernel.data, nfft).reshape(ng, co, ci, nf)
        # the signal's spectrum is kept only for the kernel gradient
        xhat = (np.empty((b, ng, ci, nf), dtype=np.complex128)
                if _grad_enabled and kernel.requires_grad else None)
        out = np.empty((b, gco, ln))
        # rows per block: each row's widest frame is max(gci, gco) * nfft floats
        step = max(1, _BLOCK_BYTES // (8 * nfft * max(gci, gco)))

        def forward_rows(r0, r1):
            for s0 in range(r0, r1, step):
                s1 = min(s0 + step, r1)
                xh = np.fft.rfft(x.data[s0:s1], nfft).reshape(s1 - s0, ng, ci, nf)
                if xhat is not None:
                    xhat[s0:s1] = xh
                full = np.fft.irfft(np.einsum("bgcf,gocf->bgof", xh, khat), nfft)
                out[s0:s1] = full[..., start:start + ln].reshape(s1 - s0, gco, ln)

        run_split(forward_rows, b)
    else:
        # cols[b, g, c*k + j, n] = xp[b, g*ci + c, n + j]; the flipped kernel
        # times these windows is the convolution, already in [B, G*Co, Ln]
        xp = np.pad(x.data, ((0, 0), (0, 0), (p, p))) if p else x.data
        win = sliding_window_view(xp, ln, axis=2)  # [B, G*Ci, k, Ln]
        kf = kernel.data[:, :, ::-1].reshape(ng, co, ci * k)
        out = np.empty((b, gco, ln))
        out_g = out.reshape(b, ng, co, ln)

        def forward(g0, g1):
            for rows, cols in _window_blocks(win, g0, g1, ci):
                np.matmul(kf[g0:g1], cols, out=out_g[rows, g0:g1])

        run_split(forward, ng)

    def back(g):
        g = np.ascontiguousarray(g).reshape(b, ng, co, ln)
        if not use_fft:
            _conv_direct_backward(g, x, kernel, win, kf, p)
            return
        ghat = np.empty((b, ng, co, nf), dtype=np.complex128)
        dx = np.empty((b, gci, length)) if x.requires_grad else None
        khat_c = np.conj(khat)

        def backward_rows(r0, r1):
            # g placed at `start` in a zeroed frame: no product wraps around
            gfull = np.zeros((min(step, r1 - r0), ng, co, nfft))
            for s0 in range(r0, r1, step):
                s1 = min(s0 + step, r1)
                gfull[:s1 - s0, ..., start:start + ln] = g[s0:s1]
                ghat[s0:s1] = np.fft.rfft(gfull[:s1 - s0])
                if dx is not None:
                    full = np.fft.irfft(np.einsum("bgof,gocf->bgcf", ghat[s0:s1], khat_c), nfft)
                    dx[s0:s1] = full[..., :length].reshape(s1 - s0, gci, length)

        run_split(backward_rows, b)
        if kernel.requires_grad:
            # a sum over every row: one product, on this thread
            dk = np.fft.irfft(np.einsum("bgof,bgcf->gocf", ghat, np.conj(xhat)), nfft)
            kernel.accumulate_owned(np.ascontiguousarray(dk[..., :k]).reshape(gco, ci, k))
        if dx is not None:
            x.accumulate_owned(dx)

    return _node(out, (x, kernel), back, f"conv1d_{padding}")


def _conv_check(x: Tensor, kernel: Tensor, padding: str, groups: int) -> None:
    """Validate a conv1d call of x [B, G*Ci, L] with kernel [G*Co, Ci, k]."""
    if padding not in ("same", "valid"):
        raise ValueError(f"unknown padding {padding!r}")
    if x.data.ndim != 3 or kernel.data.ndim != 3:
        raise ValueError("conv1d expects x [B, G*Ci, L] and kernel [G*Co, Ci, k]")
    _, gci, length = x.data.shape
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


def _row_buffers(b: int, *shapes):
    """(rows, buf, ...) for each block of b batch rows, one uninitialized
    [rows, *shape] buffer per shape, reused from block to block; a block's
    buffers take about _BLOCK_BYTES together."""
    step = max(1, _BLOCK_BYTES // (8 * sum(math.prod(shape) for shape in shapes)))
    bufs = [np.empty((min(step, b), *shape)) for shape in shapes]
    for r0 in range(0, b, step):
        m = min(step, b - r0)
        yield (slice(r0, r0 + m), *(buf[:m] for buf in bufs))


def _window_blocks(win: np.ndarray, g0: int, g1: int, ci: int, *shapes):
    """(rows, cols, ...) for each block of batch rows of groups [g0, g1) of
    the windows win [B, G*Ci, k, Ln]: cols[r, g, c*k + j, n] is
    win[rows][r, (g0 + g)*ci + c, j, n], followed by one [rows, *shape]
    buffer per extra shape, as _row_buffers gives them."""
    b, _, k, ln = win.shape
    gc = g1 - g0
    for rows, cols, *bufs in _row_buffers(b, (gc, ci * k, ln), *shapes):
        np.copyto(cols.reshape(len(cols), gc * ci, k, ln), win[rows, g0 * ci:g1 * ci])
        yield rows, cols, *bufs


def _conv_direct_backward(g, x: Tensor, kernel: Tensor, win, kf, p: int) -> None:
    """Accumulate the direct path's gradients given g [B, G, Co, Ln], the
    windows `win` and flipped kernel `kf` of its forward, and padding p."""
    b, ng, co, ln = g.shape
    ci, k = kernel.data.shape[1:]
    length = x.data.shape[-1]
    lp = length + 2 * p
    dk = np.empty((ng, co, ci, k)) if kernel.requires_grad else None
    dxp = np.empty((b, ng, ci, lp)) if x.requires_grad else None
    if ci > co:   # the unflipped kernel, [G, Ci, Co*k]
        kk = kernel.data.reshape(ng, co, ci, k).transpose(0, 2, 1, 3).reshape(ng, ci, co * k)

    def backward_groups(g0, g1):
        gc = g1 - g0
        if dk is not None:
            # one product per (row, group), summed over the rows at the end
            prods = np.empty((b, gc, co, ci * k))
            for rows, cols in _window_blocks(win, g0, g1, ci):
                np.matmul(g[rows, g0:g1], cols.transpose(0, 1, 3, 2), out=prods[rows])
            dk[g0:g1] = prods.sum(axis=0).reshape(gc, co, ci, k)[..., ::-1]
        if dxp is None:
            return
        if ci <= co:
            # gradient of each window row c*k + j, scattered back to xp
            # samples n + j: k shifted adds of [rows, G, Ci, Ln]
            for rows, buf in _row_buffers(b, (gc, ci * k, ln)):
                dc = np.matmul(kf[g0:g1].transpose(0, 2, 1), g[rows, g0:g1], out=buf)
                dc = dc.reshape(len(dc), gc, ci, k, ln)
                dst = dxp[rows, g0:g1]
                dst[...] = 0.0
                for j in range(k):
                    dst[..., j:j + ln] += dc[:, :, :, j]
        else:
            # fewer output channels: gather windows of the zero-padded
            # gradient instead (Co*k rows, not Ci*k) and apply the
            # unflipped kernel
            for rows, buf, gp in _row_buffers(b, (gc, co * k, lp),
                                              (gc, co, ln + 2 * (k - 1))):
                gp[..., :k - 1] = gp[..., k - 1 + ln:] = 0.0
                gp[..., k - 1:k - 1 + ln] = g[rows, g0:g1]
                np.copyto(buf.reshape(len(buf), gc, co, k, lp),
                          sliding_window_view(gp, lp, axis=3))
                np.matmul(kk[g0:g1], buf, out=dxp[rows, g0:g1])

    run_split(backward_groups, ng)
    if dk is not None:
        kernel.accumulate_owned(dk.reshape(ng * co, ci, k))
    if dxp is not None:
        dx = dxp[..., p:p + length]
        x.accumulate_owned(np.ascontiguousarray(dx).reshape(b, ng * ci, length))


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

    def update(self, mu, var, bias: Tensor | None) -> None:
        """Move toward the batch statistics (mu, var) of x; a bias folded
        out of x is added back to the mean."""
        self.mean *= BN_MOMENTUM
        self.mean += (1.0 - BN_MOMENTUM) * (mu if bias is None else mu + bias.data)
        self.var *= BN_MOMENTUM
        self.var += (1.0 - BN_MOMENTUM) * var


def _bn_check(shape, gamma: Tensor, beta: Tensor, bias: Tensor | None,
              train: bool) -> None:
    """Validate a batch-norm call on x of `shape`, [B, C, L]."""
    if len(shape) != 3:
        raise ValueError("batchnorm1d expects x [B, C, L]")
    b, c, _ = shape
    if gamma.data.shape != (c,) or beta.data.shape != (c,):
        raise ValueError("gamma/beta must have shape [C]")
    if bias is not None and bias.data.shape != (c,):
        raise ValueError("bias must have shape [C]")
    if train and b < 2:
        raise ValueError("batchnorm in train mode needs batch >= 2")


def _bn_batch_stats(x: np.ndarray, scratch: np.ndarray):
    """Per-channel batch mean and (biased) variance of x [B, C, L]; x - mean
    goes through `scratch`, an array of x's shape."""
    mu = x.mean(axis=(0, 2))
    np.subtract(x, mu[None, :, None], out=scratch)
    return mu, np.einsum("bcl,bcl->c", scratch, scratch) / (x.shape[0] * x.shape[2])


def _bn_running(state: BatchNormState, bias: Tensor | None):
    """(mu, var) of infer mode: the running statistics, the mean less a
    folded bias."""
    return state.mean - (0.0 if bias is None else bias.data), state.var


def _bn_affine(gamma, beta, mu, var):
    """(ivar, a, shift): the layer is x * a + shift per channel, with
    a = gamma * ivar and shift = beta - a * mu."""
    ivar = 1.0 / np.sqrt(var + BN_EPS)
    a_ch = gamma * ivar
    return ivar, a_ch, beta - a_ch * mu


def _bn_grads(g, x, mu, ivar, a_ch, train: bool, dx=None, g_scratch: bool = False):
    """Batch-norm's backward on arrays: g the gradient of its output on x
    [B, C, L]. Returns the channel sums (gsum, gxh), gxh = sum(g * xh), and
    writes dL/dx into dx when one is given. With g_scratch the g buffer is
    reused."""
    gsum = g.sum(axis=(0, 2))
    # sum(g * xh) without materializing xh = (x - mu) * ivar
    gxh = (np.einsum("bcl,bcl->c", g, x) - mu * gsum) * ivar
    if dx is not None and train:
        # dL/dx = a * (g - (gsum + xh * gxh) / m), expanded in x:
        # a*g - c1*x + c0 with c1 = a*ivar*gxh/m, c0 = c1*mu - a*gsum/m
        m = x.shape[0] * x.shape[2]
        c1 = a_ch * ivar * gxh / m
        c0 = c1 * mu - a_ch * gsum / m
        np.multiply(x, -c1[None, :, None], out=dx)
        dx += c0[None, :, None]
        dx += np.multiply(g, a_ch[None, :, None], out=g if g_scratch else None)
    elif dx is not None:
        np.multiply(g, a_ch[None, :, None], out=dx)
    return gsum, gxh


def _bn_accumulate(x: Tensor, gamma: Tensor, beta: Tensor, bias: Tensor | None,
                   train: bool, a_ch, gsum, gxh, dx) -> None:
    """Hand batch-norm's gradients to its parents; in infer mode a folded
    bias gets one too."""
    if gamma.requires_grad:
        gamma.accumulate_owned(gxh)
    if beta.requires_grad:
        beta.accumulate_owned(gsum)
    if not train and bias is not None and bias.requires_grad:
        bias.accumulate_owned(gsum * a_ch)
    if x.requires_grad:
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
    _bn_check(x.data.shape, gamma, beta, bias, train)
    out = np.empty_like(x.data)
    if train:
        mu, var = _bn_batch_stats(x.data, out)
        state.update(mu, var, bias)
    else:
        mu, var = _bn_running(state, bias)
    ivar, a_ch, shift = _bn_affine(gamma.data, beta.data, mu, var)
    # two passes: out = x * (gamma*ivar) + (beta - gamma*ivar*mu)
    np.multiply(x.data, a_ch[None, :, None], out=out)
    out += shift[None, :, None]
    parents = (x, gamma, beta) if train or bias is None else (x, gamma, beta, bias)

    def back(g):
        dx = np.empty_like(x.data) if x.requires_grad else None
        gsum, gxh = _bn_grads(g, x.data, mu, ivar, a_ch, train, dx)
        _bn_accumulate(x, gamma, beta, bias, train, a_ch, gsum, gxh, dx)

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
    return (_random_bytes(rng, math.prod(shape)) >= int(rate * 256)).reshape(shape)


def _random_bytes(rng: np.random.Generator, n: int) -> np.ndarray:
    """rng.bytes(n) as a uint8 array, without its copies: the same uint32
    draw read as little-endian bytes, leaving rng in the same state (its
    word count, (n - 1) // 4 + 1, divides in C, so n = 0 draws one word)."""
    words = rng.integers(0, 2**32, size=max(n - 1, 0) // 4 + 1, dtype=np.uint32)
    return words.astype("<u4", copy=False).view(np.uint8)[:n]


def _pool_views(v: np.ndarray, pool: int) -> list[np.ndarray]:
    """The pool strided views of v [..., L], view j holding element j of
    each non-overlapping window; a trailing remainder is dropped."""
    n = v.shape[-1] // pool * pool
    return [v[..., j:n:pool] for j in range(pool)]


def _pool_max(v: np.ndarray, pool: int, neg, out: np.ndarray) -> np.ndarray:
    """Write into out [B, C, L // pool] the max of each non-overlapping pool
    window of v [B, C, L], the min on the channels listed in `neg`; a
    trailing remainder is dropped. Returns out, or v itself for pool 1."""
    if pool == 1:
        return v
    views = _pool_views(v, pool)
    np.maximum(views[0], views[1], out=out)
    for view in views[2:]:
        np.maximum(out, view, out=out)
    if len(neg):
        low = np.minimum(views[0][:, neg], views[1][:, neg])
        for view in views[2:]:
            np.minimum(low, view[:, neg], out=low)
        out[:, neg] = low
    return out


def _pool_affine_relu(v: np.ndarray, pool: int, neg: np.ndarray, a_ch: np.ndarray,
                      shift: np.ndarray, out: np.ndarray) -> None:
    """Infer-mode batch-norm, relu and pool of v [B, C, L], written into out
    [B, C, L // pool]: v pooled by _pool_max (min on the channels `neg`,
    where a_ch < 0), then * a_ch + shift per channel and relu. The map is
    monotone in v (decreasing where a_ch < 0), in its rounded value too, so
    this is bitwise the map, relu and pool applied in that order."""
    np.multiply(_pool_max(v, pool, neg, out), a_ch[:, None], out=out)
    out += shift[:, None]
    np.maximum(out, 0.0, out=out)


def _pool_winner(v: np.ndarray, pool: int, out: np.ndarray) -> None:
    """Write into out (unsigned ints) the offset in its window of the
    window's max, ties going to the first: each view is compared with the
    running best by strict >."""
    views = _pool_views(v, pool)
    best = views[0]
    for j, view in enumerate(views[1:], 1):
        take = view > best
        if j == 1:   # the bool is offset 0 or 1 as it stands
            np.copyto(out, take)
        else:
            out[take] = j
        if j < pool - 1:
            best = np.where(take, view, best)


def _pool_scatter(g: np.ndarray, gate: np.ndarray, winner, pool: int,
                  out: np.ndarray) -> None:
    """Write into out [B, C, L] g at the window winners where gate is True,
    zero elsewhere."""
    if pool == 1:
        np.multiply(g, gate, out=out)
        return
    out[..., out.shape[-1] // pool * pool:] = 0.0
    for j, view in enumerate(_pool_views(out, pool)):
        np.multiply(g, gate & (winner == j), out=view)


def _pool_check(length: int, pool: int) -> None:
    """Validate a pool of `pool` over signals of `length` samples."""
    if pool < 1:
        raise ValueError(f"pool must be >= 1, got {pool}")
    if length < pool:
        raise ValueError(f"signal of length {length} shorter than pool {pool}")


def _channel_blocks(p0: int, p1: int, c: int) -> list[tuple[int, int]]:
    """Channel ranges of pairs [p0, p1) of c channels: pair p is channels
    2p and 2p + 1, the last pair also takes a trailing odd channel, and one
    channel alone is pair 0. A block's passes stay in cache, and every
    block of two or three channels reduces over (batch, length) in the
    order the whole tensor does; numpy sums a one-channel slice in another
    order."""
    last = max(1, c // 2) - 1
    return [(2 * p, c if p == last else 2 * p + 2) for p in range(p0, p1)]


def bn_relu_dropout_pool(x: Tensor, gamma: Tensor, beta: Tensor, state: BatchNormState,
                         train: bool, rate: float, rng: np.random.Generator | None,
                         pool: int, bias: Tensor | None = None) -> Tensor:
    """batchnorm1d -> relu -> dropout -> maxpool1d on [B, C, L].

    Train mode runs them as one node: y = x*a + shift with batch statistics (the running
    statistics update as in batchnorm1d), y *= keep, pool, scale by
    1/(1-rate), then relu. Relu after the pool is exact: it commutes with
    max and with a mask >= 0. The keep-mask is one byte_keep_mask draw
    from rng over the whole tensor. The node keeps only the pool winners
    and its output: the gradient passes where out > 0, which also means
    the winner was kept.

    Infer mode returns maxpool1d(relu(batchnorm1d(...))), the reference
    of conv_bn_relu_pool, which runs the network's inference.

    Pool windows and ties follow maxpool1d; pool 1 means no pool. The
    stage workers split the channel pairs (_channel_blocks) between them,
    forward and backward, and each runs its pairs one at a time, so y and
    its gradient never exist for more than three channels per worker.
    """
    check_dropout_rate(rate, in_bytes=True)
    if not train:
        return maxpool1d(relu(batchnorm1d(x, gamma, beta, state, False, bias=bias)), pool)
    _bn_check(x.data.shape, gamma, beta, bias, True)
    shape = b, c, length = x.data.shape
    _pool_check(length, pool)
    pairs = max(1, c // 2)
    pooled = (b, c, length // pool)
    drop = rate != 0.0
    keep = byte_keep_mask(rng, shape, rate) if drop else None
    out = np.empty(shape if pool == 1 else pooled)
    winner = np.empty(pooled, np.min_scalar_type(pool - 1)) if pool > 1 else None
    mu, var, ivar, a_ch, shift = np.empty((5, c))

    def forward(p0, p1):
        # y of one channel block (three channels at most)
        scratch = np.empty((b, 3, length)) if pool > 1 else None
        for c0, c1 in _channel_blocks(p0, p1, c):
            xs, os_ = x.data[:, c0:c1], out[:, c0:c1]
            ys = os_ if pool == 1 else scratch[:, :c1 - c0]
            mu[c0:c1], var[c0:c1] = _bn_batch_stats(xs, ys)
            ivar[c0:c1], a_ch[c0:c1], shift[c0:c1] = _bn_affine(
                gamma.data[c0:c1], beta.data[c0:c1], mu[c0:c1], var[c0:c1])
            np.multiply(xs, a_ch[c0:c1, None], out=ys)
            ys += shift[c0:c1, None]
            if drop:
                np.multiply(ys, keep[:, c0:c1], out=ys)
            if pool > 1:
                _pool_winner(ys, pool, winner[:, c0:c1])
                _pool_max(ys, pool, (), os_)
            if drop:
                os_ *= 1.0 / (1.0 - rate)
            np.maximum(os_, 0.0, out=os_)

    run_split(forward, pairs)
    state.update(mu, var, bias)

    def back(g):
        gsum, gxh = np.empty(c), np.empty(c)
        dx = np.empty(shape) if x.requires_grad else None

        def backward_pairs(p0, p1):
            gy = np.empty((b, 3, length))
            for c0, c1 in _channel_blocks(p0, p1, c):
                xs, gs, gys = x.data[:, c0:c1], g[:, c0:c1], gy[:, :c1 - c0]
                if drop:
                    gs = gs * (1.0 / (1.0 - rate))
                _pool_scatter(gs, out[:, c0:c1] > 0.0,
                              None if winner is None else winner[:, c0:c1], pool, gys)
                gsum[c0:c1], gxh[c0:c1] = _bn_grads(
                    gys, xs, mu[c0:c1], ivar[c0:c1], a_ch[c0:c1], True,
                    None if dx is None else dx[:, c0:c1], g_scratch=True)

        run_split(backward_pairs, pairs)
        _bn_accumulate(x, gamma, beta, bias, True, a_ch, gsum, gxh, dx)

    return _node(out, (x, gamma, beta), back, "bn_relu_dropout_pool")


def conv_bn_relu_pool(x: Tensor, kernel: Tensor, bias: Tensor, gamma: Tensor,
                      beta: Tensor, state: BatchNormState, pool: int, groups: int) -> Tensor:
    """bn_relu_dropout_pool(conv1d(x, kernel, "valid", groups), gamma, beta,
    state, train=False, pool=pool, bias=bias), bitwise, without ever
    holding the whole batch's convolution output: inference only.

    The stage workers split the batch rows (run_split). Each works through
    its rows in blocks of about _BLOCK_BYTES: it convolves a block into a
    reused buffer with the direct path's windows and per-(row, group)
    products, and writes only the block's pooled rows (_pool_affine_relu).
    The op builds no graph node; where one would be built (outside
    no_grad) it raises ValueError rather than drop a gradient. Kernels of
    FFT_KERNEL_MIN taps or more, which conv1d takes through its FFT path,
    are refused.
    """
    if _grad_enabled:
        raise ValueError("conv_bn_relu_pool builds no graph: call it inside no_grad()")
    _conv_check(x, kernel, "valid", groups)
    b, _, length = x.data.shape
    gco, ci, k = kernel.data.shape
    if k >= FFT_KERNEL_MIN:
        raise ValueError(f"a {k}-tap kernel takes conv1d's FFT path")
    ng, co, ln = groups, gco // groups, length - k + 1
    _bn_check((b, gco, ln), gamma, beta, bias, False)
    _pool_check(ln, pool)
    _, a_ch, shift = _bn_affine(gamma.data, beta.data, *_bn_running(state, bias))
    neg = np.flatnonzero(a_ch < 0.0)
    win = sliding_window_view(x.data, ln, axis=2)   # [B, G*Ci, k, Ln]
    kf = kernel.data[:, :, ::-1].reshape(ng, co, ci * k)
    out = np.empty((b, gco, ln // pool))

    def forward_rows(r0, r1):
        for rows, cols, y in _window_blocks(win[r0:r1], 0, ng, ci, (gco, ln)):
            np.matmul(kf, cols, out=y.reshape(len(y), ng, co, ln))
            _pool_affine_relu(y, pool, neg, a_ch, shift, out[r0:r1][rows])

    run_split(forward_rows, b)
    return Tensor(out, op="conv_bn_relu_pool")


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
