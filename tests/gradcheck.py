"""Central finite-difference gradient checking."""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from pcgnet.autodiff import Tensor, backward


def numeric_gradient(f: Callable[[], Tensor], param: Tensor, h: float = 1e-5,
                     indices: Sequence[tuple] | None = None) -> np.ndarray:
    """Central differences of a scalar-valued graph builder w.r.t. param.

    f must rebuild the graph from current parameter values on every call.
    When `indices` is given only those elements are probed (the rest of the
    returned array is zero) - used to keep checks on large tensors cheap.
    """
    flat = param.data.reshape(-1)
    out = np.zeros_like(flat)
    if indices is None:
        probe = range(flat.size)
    else:
        probe = [int(np.ravel_multi_index(ix, param.data.shape)) for ix in indices]
    for i in probe:
        orig = flat[i]
        flat[i] = orig + h
        up = float(f().data)
        flat[i] = orig - h
        down = float(f().data)
        flat[i] = orig
        out[i] = (up - down) / (2.0 * h)
    return out.reshape(param.data.shape)


def analytic_gradient(f: Callable[[], Tensor], params: Sequence[Tensor]) -> list[np.ndarray]:
    """Run backward once and return the gradients of the given parameters."""
    for p in params:
        p.zero_grad()
    loss = f()
    backward(loss)
    return [p.grad.copy() if p.grad is not None else np.zeros_like(p.data) for p in params]


def relative_error(a: np.ndarray, b: np.ndarray, floor: float = 1e-8) -> float:
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    return float((np.abs(a - b) / denom).max())
