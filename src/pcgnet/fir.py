"""Windowed-sinc FIR band-pass design, filtering, and response analysis.

Filters are linear phase by construction: the ideal band-pass impulse
response is evaluated on one side of the center tap and mirrored, so
coefficient symmetry holds bit-exactly. Band edges land at the -6 dB
points, the usual behaviour of the window method.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .dsp import Waveform, magnitude_db, unwrap_phase
from .errors import DataError, check_field_types

# Default band edges (Hz) of the four-band heart-sound filter bank.
DEFAULT_BANDS = ((25.0, 45.0), (45.0, 80.0), (80.0, 200.0), (200.0, 500.0))
DEFAULT_ORDER = 60


@dataclass(frozen=True)
class FirFilter:
    """Causal FIR filter b_0..b_N with its design metadata."""

    coeffs: np.ndarray
    order: int
    band_lo_hz: float
    band_hi_hz: float
    design_rate_hz: float

    def __post_init__(self):
        check_field_types(self)
        coeffs = np.asarray(self.coeffs, dtype=np.float64)
        object.__setattr__(self, "coeffs", coeffs)
        if coeffs.ndim != 1:
            raise ValueError(f"coefficients must be one list, got shape {coeffs.shape}")
        if coeffs.size != self.order + 1:
            raise ValueError(f"order {self.order} filter needs {self.order + 1} "
                             f"coefficients, got {coeffs.size}")
        if self.order % 2 != 0:
            raise ValueError(f"order must be even (odd length kernel), got {self.order}")
        if not np.all(np.isfinite(coeffs)):
            raise ValueError("coefficients contain NaN or Inf")


@dataclass(frozen=True)
class FilterBank:
    """Ordered set of four contiguous band-pass filters."""

    filters: tuple[FirFilter, ...]

    def __post_init__(self):
        object.__setattr__(self, "filters", tuple(self.filters))
        if len(self.filters) != 4:
            raise ValueError(f"filter bank must hold exactly 4 filters, got {len(self.filters)}")
        for a, b in zip(self.filters, self.filters[1:]):
            if a.band_hi_hz != b.band_lo_hz:
                raise ValueError("bands must be contiguous and ordered")


def design_bandpass(lo_hz: float, hi_hz: float, order: int, rate_hz: float) -> FirFilter:
    """Hamming-windowed sinc band-pass of even order (odd length)."""
    nyq = rate_hz / 2.0
    if not 0.0 < lo_hz < hi_hz:
        raise ValueError(f"need 0 < lo < hi, got ({lo_hz}, {hi_hz})")
    if hi_hz > nyq:
        raise ValueError(f"hi_hz={hi_hz} above Nyquist {nyq}")
    if order < 2 or order % 2 != 0:
        raise ValueError(f"order must be even and >= 2, got {order}")
    m = order // 2
    w1 = 2.0 * np.pi * lo_hz / rate_hz
    w2 = 2.0 * np.pi * hi_hz / rate_hz
    # one-sided ideal response times window, mirrored onto the other side
    k = np.arange(1, m + 1)
    side = (np.sin(w2 * k) - np.sin(w1 * k)) / (np.pi * k)
    side *= 0.54 - 0.46 * np.cos(2.0 * np.pi * (m + k) / order)
    coeffs = np.empty(order + 1)
    coeffs[m] = (w2 - w1) / np.pi  # center tap; window value there is 1.0
    coeffs[m + 1:] = side
    coeffs[:m] = side[::-1]
    return FirFilter(coeffs=coeffs, order=order, band_lo_hz=float(lo_hz),
                     band_hi_hz=float(hi_hz), design_rate_hz=float(rate_hz))


def apply_fir(filt: FirFilter, x: Waveform) -> Waveform:
    """Causal direct-form filtering y[n] = sum_i b_i x[n-i], zero initial state.

    Output length equals input length.
    """
    if len(x) == 0:
        raise ValueError("cannot filter an empty waveform")
    if x.sample_rate_hz != filt.design_rate_hz:
        raise ValueError(f"waveform rate {x.sample_rate_hz} Hz does not match filter "
                         f"design rate {filt.design_rate_hz} Hz")
    y = np.convolve(x.samples, filt.coeffs)[: len(x)]
    return Waveform(y, x.sample_rate_hz)


def _dtft(filt: FirFilter, n_points: int) -> tuple[np.ndarray, np.ndarray]:
    """(w, H(w)): the filter's transfer function at n_points angular
    frequencies w evenly spaced on [0, pi]."""
    if n_points < 2:
        raise ValueError(f"n_points must be >= 2, got {n_points}")
    w = np.linspace(0.0, np.pi, n_points)
    return w, np.exp(-1j * np.outer(w, np.arange(filt.order + 1))) @ filt.coeffs


def frequency_response(filt: FirFilter, n_points: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Magnitude (dB) and unwrapped phase (rad) on [0, Nyquist].

    Returns (freq_hz, magnitude_db, phase_rad), n_points samples.
    """
    w, h = _dtft(filt, n_points)
    mag_db = magnitude_db(np.abs(h))
    phase, _ = unwrap_phase(h)
    freq = w * filt.design_rate_hz / (2.0 * np.pi)
    return freq, mag_db, phase


def linear_phase_deviation(filt: FirFilter, n_points: int = 2049,
                           rel_db: float = -60.0) -> tuple[float, float]:
    """How far the filter is from ideal linear phase with its structural
    group delay of N/2 samples. Returns (group_delay_samples, max_residual).

    A symmetric odd-length kernel has H(w) = A(w) e^{-jwN/2} with A real,
    so its phase is -wN/2 up to pi steps where A changes sign (a learned
    kernel may flip sign inside the band). The residual is therefore the
    angular distance of H(w) e^{+jwN/2} from the real axis, taken over the
    bins within rel_db of the magnitude peak; it is ~1e-13 for any
    symmetric kernel and large for a genuinely nonlinear-phase one.
    """
    delay = filt.order / 2.0
    w, h = _dtft(filt, n_points)
    mag = np.abs(h)
    inband = mag > mag.max() * 10.0 ** (rel_db / 20.0)
    rotated = h[inband] * np.exp(1j * w[inband] * delay)
    ang = np.abs(np.angle(rotated))
    resid = float(np.minimum(ang, np.pi - ang).max()) if ang.size else 0.0
    return delay, resid


def default_bank(rate_hz: float, order: int = DEFAULT_ORDER) -> FilterBank:
    """The standard four-band bank: 25-45, 45-80, 80-200, 200-500 Hz."""
    if rate_hz < 1000:
        raise ValueError(f"rate_hz must be >= 1000 to fit the 500 Hz band, got {rate_hz}")
    return FilterBank(filters=tuple(
        design_bandpass(lo, hi, order, rate_hz) for lo, hi in DEFAULT_BANDS))


def filter_to_json(filt: FirFilter) -> str:
    """Serialize a filter; coefficients carry 17 significant digits."""
    coeffs = ", ".join(format(c, ".17g") for c in filt.coeffs)
    head = (f'{{"order": {filt.order}, "band_lo_hz": {filt.band_lo_hz!r}, '
            f'"band_hi_hz": {filt.band_hi_hz!r}, "design_rate_hz": {filt.design_rate_hz!r}, ')
    return head + f'"coeffs": [{coeffs}]}}'


def _from_json(text: str | bytes, build):
    """build(the parsed JSON of text); a malformed text, bytes that are no
    JSON encoding included, is one DataError."""
    try:
        return build(json.loads(text))
    except (KeyError, TypeError, ValueError) as e:
        raise DataError(f"malformed filter JSON: {type(e).__name__}: {e}") from None


def filter_from_json(text: str | bytes) -> FirFilter:
    return _from_json(text, lambda obj: FirFilter(**obj))


def bank_to_json(bank: FilterBank) -> str:
    return '{"filters": [' + ", ".join(filter_to_json(f) for f in bank.filters) + "]}"


def bank_from_json(text: str | bytes) -> FilterBank:
    return _from_json(text, lambda obj: FilterBank(
        filters=tuple(FirFilter(**f) for f in obj["filters"])))
