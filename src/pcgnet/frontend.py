"""Learnable FIR filter-bank front-end layers.

Three variants of a band-splitting first layer, all linear with zero bias
so each band is literally an FIR filter applied to the raw waveform:

  free         - one unconstrained odd-length kernel per band
  linear_phase - kernels stored as half+center parameters and mirrored,
                 so they stay exactly symmetric (linear phase) under any
                 sequence of gradient updates
  zero_phase   - the free kernel applied forward and reversed, squaring
                 the magnitude response and cancelling the phase

`init_kernel` fills a kernel from a designed filter bank; the model's
`build` makes the zeros and He-normal kernels.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .fir import FilterBank

VARIANTS = ("free", "linear_phase", "zero_phase")


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
        self.trainable = bool(trainable)
        self.bands = bands
        self.k_len = k_len
        if variant == "linear_phase":
            half = (k_len + 1) // 2
            # store the leading taps through the center; the trailing half
            # is their mirror image, materialized on demand
            self.half = ad.Tensor(kernel[:, :, :half].copy(), requires_grad=self.trainable)
        else:
            self.kernel_param = ad.Tensor(kernel.copy(), requires_grad=self.trainable)

    def materialized_kernel(self) -> ad.Tensor:
        """Full kernel as a graph node (mirroring the LP half if needed)."""
        if self.variant == "linear_phase":
            half = (self.k_len + 1) // 2
            mirror = ad.flip_time(ad.slice_time(self.half, 0, half - 1))
            return ad.concat([self.half, mirror], axis=2)
        return self.kernel_param

    def parameters(self) -> list[tuple[str, ad.Tensor]]:
        if not self.trainable:
            return []
        if self.variant == "linear_phase":
            return [("frontend.half", self.half)]
        return [("frontend.kernel", self.kernel_param)]

    def state_arrays(self) -> list[tuple[str, np.ndarray]]:
        """All stored arrays, trainable or not (for checkpointing)."""
        if self.variant == "linear_phase":
            return [("frontend.half", self.half.data)]
        return [("frontend.kernel", self.kernel_param.data)]

    def free_param_count(self) -> int:
        if self.variant == "linear_phase":
            return self.bands * ((self.k_len + 1) // 2)
        return self.bands * self.k_len

    def forward(self, x: ad.Tensor) -> ad.Tensor:
        """[batch, 1, L] -> [batch, bands, L], one filtered copy per band."""
        if x.data.ndim != 3 or x.data.shape[1] != 1:
            raise ValueError(f"front-end expects [batch, 1, length], got {x.data.shape}")
        kern = self.materialized_kernel()
        if self.variant == "zero_phase":
            return self._zero_phase_forward(x, kern)
        return ad.conv1d(x, kern, padding="same")

    def _zero_phase_forward(self, x: ad.Tensor, kern: ad.Tensor) -> ad.Tensor:
        """Filter, reverse, filter again, reverse back: per band, the
        composite transfer is the squared magnitude of the kernel with no
        phase. The reverse pass filters each band with its own kernel as
        one grouped convolution. The kernel tensor is used by both passes,
        so its gradient is the sum over both uses."""
        z = ad.conv1d(x, kern, padding="same")  # [B, bands, L]
        back_pass = ad.conv1d(ad.flip_time(z), kern, padding="same", groups=self.bands)
        return ad.flip_time(back_pass)
