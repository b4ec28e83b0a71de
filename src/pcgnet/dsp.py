"""Signal primitives: waveforms, FFT frame sizes, resampling, phase
unwrapping and long-term spectral averaging.

All functions are pure: they never mutate their inputs and are safe to call
concurrently. Amplitudes are dimensionless, frequencies in Hz, sample rates
in samples per second. Magnitudes in dB are floored at DB_FLOOR to keep
log10 finite on silent bins.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

DB_FLOOR = -120.0
LTSA_WINDOW = 1024      # default LTSA window in samples; the default hop is half of it

# Linear magnitude below which a spectral bin is treated as having no
# usable phase (the bin's phase is carried from a neighbour instead).
ZERO_MAG_EPS = 1e-300


def magnitude_db(mag: np.ndarray) -> np.ndarray:
    """20*log10 of a linear magnitude, floored at DB_FLOOR."""
    return np.maximum(20.0 * np.log10(np.maximum(mag, 10.0 ** (DB_FLOOR / 20.0))), DB_FLOOR)


def next_pow2(n: int) -> int:
    m = 1
    while m < n:
        m <<= 1
    return m


def next_fast_len(n: int) -> int:
    """Smallest 2^a * 3^b * 5^c >= n: the shortest FFT frame that holds n
    samples and transforms with radix-2, 3 and 5 passes only (1 for n <= 1).
    It is never above next_pow2(n)."""
    best = max(2 * n - 1, 1)   # a power of two lies in [n, 2n)
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            m = p35
            while m < n:
                m <<= 1
            best = min(best, m)
            p35 *= 3
        p5 *= 5
    return best


@dataclass(frozen=True)
class Waveform:
    """Uniformly sampled real signal."""

    samples: np.ndarray
    sample_rate_hz: float

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=np.float64)
        object.__setattr__(self, "samples", samples)
        if samples.ndim != 1:
            raise ValueError(f"samples must be 1-D, got shape {samples.shape}")
        if not self.sample_rate_hz > 0:
            raise ValueError(f"sample_rate_hz must be positive, got {self.sample_rate_hz}")
        if samples.size and not np.all(np.isfinite(samples)):
            raise ValueError("samples contain NaN or Inf")

    def __len__(self) -> int:
        return self.samples.size

    @property
    def duration_s(self) -> float:
        return self.samples.size / self.sample_rate_hz


@dataclass(frozen=True)
class LtsaProfile:
    """Time-averaged log-magnitude spectrum of a recording."""

    freq_hz: np.ndarray
    avg_log_magnitude_db: np.ndarray
    window_len: int
    hop: int

    def __post_init__(self):
        if len(self.freq_hz) != len(self.avg_log_magnitude_db):
            raise ValueError("freq_hz and avg_log_magnitude_db lengths differ")


def resample(x: Waveform, target_hz: float) -> Waveform:
    """Band-limited resampling via spectral truncation / zero-padding.

    The output has round(len * target/source) samples; content above the
    target Nyquist is removed, nothing is aliased into band.
    """
    if target_hz <= 0:
        raise ValueError(f"target_hz must be positive, got {target_hz}")
    if len(x) == 0:
        raise ValueError("cannot resample an empty waveform")
    if target_hz == x.sample_rate_hz:
        return Waveform(x.samples.copy(), x.sample_rate_hz)
    n_in = len(x)
    n_out = int(round(n_in * target_hz / x.sample_rate_hz))
    if n_out < 1:
        raise ValueError("target rate too low for this signal length")
    spec = np.fft.rfft(x.samples)
    nb_out = n_out // 2 + 1
    out_spec = np.zeros(nb_out, dtype=np.complex128)
    m = min(nb_out, spec.size)
    out_spec[:m] = spec[:m]
    if n_out < n_in and n_out % 2 == 0 and m == nb_out:
        # the new Nyquist bin must be real to invert to a real signal
        out_spec[-1] = out_spec[-1].real
    samples = np.fft.irfft(out_spec, n_out) * (n_out / n_in)
    return Waveform(samples, float(target_hz))


def hamming(n: int) -> np.ndarray:
    """Symmetric Hamming window of n points (bit-exact mirror halves)."""
    if n < 1:
        raise ValueError("window length must be >= 1")
    if n == 1:
        return np.ones(1)
    m = (n + 1) // 2
    half = 0.54 - 0.46 * np.cos(2.0 * np.pi * np.arange(m) / (n - 1))
    w = np.empty(n)
    w[:m] = half
    w[m:] = half[: n - m][::-1]
    return w


def ltsa(x: Waveform, window_len: int = LTSA_WINDOW,
         hop: int = LTSA_WINDOW // 2) -> LtsaProfile:
    """Long-term spectral average: mean over windows of 20*log10|FFT|.

    Windows are Hamming-weighted, advanced by `hop`, and only full windows
    are used. The FFT size is the next power of two >= window_len.
    """
    if hop < 1:
        raise ValueError(f"hop must be >= 1, got {hop}")
    n = len(x)
    if window_len > n:
        raise ValueError(f"signal of {n} samples shorter than one window ({window_len})")
    n_fft = next_pow2(window_len)
    win = hamming(window_len)
    starts = range(0, n - window_len + 1, hop)
    acc = np.zeros(n_fft // 2 + 1)
    for s in starts:
        seg = x.samples[s:s + window_len] * win
        mag = np.abs(np.fft.rfft(seg, n_fft))
        acc += magnitude_db(mag)
    freqs = np.fft.rfftfreq(n_fft, 1.0 / x.sample_rate_hz)
    return LtsaProfile(freq_hz=freqs, avg_log_magnitude_db=acc / len(starts),
                       window_len=window_len, hop=hop)


def unwrap_phase(bins: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Continuous phase of a spectrum; successive differences in (-pi, pi].

    Zero-magnitude bins have no phase of their own: their phase is carried
    from the nearest preceding nonzero bin (or the first nonzero bin, for a
    leading run of zeros). Returns (phase_rad, carried) where carried flags
    the bins whose phase was substituted.
    """
    bins = np.asarray(bins, dtype=np.complex128)
    if bins.size == 0:
        raise ValueError("cannot unwrap an empty spectrum")
    mag = np.abs(bins)
    carried = mag < ZERO_MAG_EPS
    angles = np.angle(bins)
    if carried.all():
        return np.zeros(bins.size), carried
    # carry phase forward across zero-magnitude bins
    if carried.any():
        first = int(np.argmax(~carried))
        angles[:first] = angles[first]
        for i in range(first + 1, bins.size):
            if carried[i]:
                angles[i] = angles[i - 1]
    # unwrap with differences constrained to (-pi, pi]
    d = np.diff(angles)
    adj = np.pi - np.mod(np.pi - d, 2.0 * np.pi)
    out = np.empty_like(angles)
    out[0] = angles[0]
    out[1:] = angles[0] + np.cumsum(adj)
    return out, carried
