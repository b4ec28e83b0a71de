"""Learnable FIR filter-bank front-end layers.

Three variants of a band-splitting first layer, all linear with zero bias
so each band is literally an FIR filter applied to the raw waveform:

  free         - one unconstrained odd-length kernel per band
  linear_phase - kernels stored as half+center parameters and mirrored,
                 so they stay exactly symmetric (linear phase) under any
                 sequence of gradient updates
  zero_phase   - the free kernel applied forward and reversed, squaring
                 the magnitude response and cancelling the phase

Each layer stores one array, named and shaped by `param_spec`.
`init_kernel` fills a kernel from a designed filter bank; the model's
`build` makes the zeros and He-normal kernels.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .fir import FilterBank

VARIANTS = ("free", "linear_phase", "zero_phase")


def param_spec(variant: str, bands: int, k_len: int) -> tuple[str, tuple[int, int, int]]:
    """Checkpoint name and shape of the one array a front-end stores: the
    leading taps through the center for linear phase, else the kernel."""
    if variant == "linear_phase":
        return "frontend.half", (bands, 1, (k_len + 1) // 2)
    return "frontend.kernel", (bands, 1, k_len)


def init_kernel(bank: FilterBank, shape: tuple[int, int, int]) -> np.ndarray:
    """A [bands, 1, k_len] front-end kernel holding a designed filter bank.

    Each filter's coefficients are copied index-reversed into its band (for
    the symmetric filters the bank designs, the reversal is the identity).
    """
    bands, ch, k_len = shape
    if ch != 1:
        raise ValueError("front-end kernels are single input channel")
    if len(bank.filters) != bands:
        raise ValueError(f"bank has {len(bank.filters)} filters, layer needs {bands}")
    out = np.empty(shape)
    for i, f in enumerate(bank.filters):
        if f.coeffs.size != k_len:
            raise ValueError(f"filter {i} length {f.coeffs.size} != kernel length {k_len}")
        out[i, 0] = f.coeffs[::-1]
    return out


class TConvLayer:
    """Band-splitting convolutional front-end with linear activation, no bias."""

    def __init__(self, variant: str, kernel: np.ndarray, trainable: bool = True):
        if variant not in VARIANTS:
            raise ValueError(f"unknown variant {variant!r}")
        kernel = np.asarray(kernel, dtype=np.float64)
        if kernel.ndim != 3 or kernel.shape[1] != 1:
            raise ValueError("kernel must be [bands, 1, k_len]")
        bands, _, k_len = kernel.shape
        if k_len % 2 == 0:
            raise ValueError("kernel length must be odd")
        self.variant = variant
        self.name, shape = param_spec(variant, bands, k_len)
        self.param = ad.Tensor(kernel[:, :, :shape[2]].copy(), requires_grad=trainable)

    def materialized_kernel(self) -> ad.Tensor:
        """Full kernel as a graph node (mirroring the LP half if needed)."""
        if self.variant != "linear_phase":
            return self.param
        n = self.param.data.shape[2]
        mirror = ad.flip_time(ad.slice_time(self.param, 0, n - 1))
        return ad.concat([self.param, mirror], axis=2)

    def parameters(self) -> list[tuple[str, ad.Tensor]]:
        return [(self.name, self.param)] if self.param.requires_grad else []

    def state_arrays(self) -> list[tuple[str, np.ndarray]]:
        """All stored arrays, trainable or not (for checkpointing)."""
        return [(self.name, self.param.data)]

    def free_param_count(self) -> int:
        return self.param.data.size

    def forward(self, x: ad.Tensor) -> ad.Tensor:
        """[batch, 1, L] -> [batch, bands, L], one filtered copy per band.
        Zero phase filters each band again with its time-reversed kernel,
        which is the reverse pass flip(conv(flip(z), k)), boundaries included."""
        if x.data.ndim != 3 or x.data.shape[1] != 1:
            raise ValueError(f"front-end expects [batch, 1, length], got {x.data.shape}")
        kern = self.materialized_kernel()
        z = ad.conv1d(x, kern, padding="same")
        if self.variant != "zero_phase":
            return z
        return ad.conv1d(z, ad.flip_time(kern), padding="same", groups=self.param.shape[0])
