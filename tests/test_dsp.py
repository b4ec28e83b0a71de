import numpy as np
import pytest

from pcgnet.dsp import (LtsaProfile, Waveform, hamming, ltsa, next_fast_len, next_pow2, resample,
                        unwrap_phase)


class TestResample:
    def test_sine_survives_downsampling(self):
        # 100 Hz tone at 2 kHz, one second: resampled to 1 kHz it must
        # correlate almost perfectly with the analytically sampled tone
        t2 = np.arange(2000) / 2000.0
        x = Waveform(np.sin(2 * np.pi * 100.0 * t2), 2000.0)
        y = resample(x, 1000.0)
        assert y.sample_rate_hz == 1000.0
        t1 = np.arange(len(y)) / 1000.0
        ref = np.sin(2 * np.pi * 100.0 * t1)
        corr = np.dot(y.samples, ref) / (np.linalg.norm(y.samples) * np.linalg.norm(ref))
        assert corr > 0.999

    def test_identity_when_rate_matches(self):
        rng = np.random.default_rng(0)
        x = Waveform(rng.normal(size=333), 1000.0)
        y = resample(x, 1000.0)
        assert np.array_equal(y.samples, x.samples)

    @pytest.mark.parametrize("n", [10, 101, 1024])
    def test_dc_preserved(self, n):
        x = Waveform(np.full(n, 0.7), 2000.0)
        y = resample(x, 1000.0)
        assert np.abs(y.samples - 0.7).max() < 1e-9

    def test_sample_count_halved(self):
        x = Waveform(np.random.default_rng(1).normal(size=5001), 2000.0)
        y = resample(x, 1000.0)
        assert abs(len(y) - 2500) <= 1

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            resample(Waveform(np.array([]), 2000.0), 1000.0)


def _five_smooth_at_least(n):
    """Brute force: the first m >= n with no prime factor above 5."""
    m = max(n, 1)
    while True:
        r = m
        for p in (2, 3, 5):
            while r % p == 0:
                r //= p
        if r == 1:
            return m
        m += 1


class TestNextFastLen:
    def test_matches_brute_force(self):
        for n in [*range(1, 5001), 100_001, 131_073, 262_143, 1_000_003]:
            assert next_fast_len(n) == _five_smooth_at_least(n), n

    @pytest.mark.parametrize("n,frame", [(75, 75), (74, 75), (121, 125), (2001, 2025),
                                         (2560, 2560), (2500 + 61 - 1, 2560)])
    def test_odd_and_pipeline_frames(self, n, frame):
        assert next_fast_len(n) == frame

    def test_never_above_next_pow2(self):
        for n in range(0, 5001):
            assert next_fast_len(n) <= next_pow2(n)


class TestLtsa:
    def test_peak_at_tone_frequency(self):
        rate = 1000.0
        t = np.arange(8192) / rate
        prof = ltsa(Waveform(np.sin(2 * np.pi * 50.0 * t), rate), 1024, 512)
        peak_hz = prof.freq_hz[np.argmax(prof.avg_log_magnitude_db)]
        assert abs(peak_hz - 50.0) < rate / 1024

    def test_white_noise_is_flat(self):
        rate = 1000.0
        rng = np.random.default_rng(42)
        n = 1024 + 99 * 512  # 100 windows at hop 512
        prof = ltsa(Waveform(rng.normal(size=n), rate), 1024, 512)
        band = (prof.freq_hz >= 10.0) & (prof.freq_hz <= 400.0)
        vals = prof.avg_log_magnitude_db[band]
        assert vals.max() - vals.min() < 6.0  # within +/-3 dB of each other

    def test_single_window_equals_periodogram(self):
        # signal exactly one window long: hop is irrelevant and the profile
        # is the plain windowed periodogram
        rng = np.random.default_rng(5)
        x = rng.normal(size=1024)
        expected = 20 * np.log10(np.abs(np.fft.rfft(x * hamming(1024), 1024)))
        for hop in (1, 512, 1024):
            prof = ltsa(Waveform(x, 1000.0), 1024, hop)
            assert np.abs(prof.avg_log_magnitude_db - expected).max() < 1e-12

    def test_hop_invariant_for_tiling_signal(self):
        # exact-period content: every window sees identical samples, so the
        # average cannot depend on the hop
        rng = np.random.default_rng(9)
        pattern = rng.normal(size=256)
        x = Waveform(np.tile(pattern, 24), 1000.0)
        profs = [ltsa(x, 1024, hop) for hop in (256, 512, 1024)]
        for p in profs[1:]:
            assert np.abs(p.avg_log_magnitude_db - profs[0].avg_log_magnitude_db).max() < 1e-12

    def test_rejects_short_signal(self):
        with pytest.raises(ValueError):
            ltsa(Waveform(np.ones(100), 1000.0), 1024, 512)


class TestUnwrapPhase:
    def test_real_positive_bins_zero_phase(self):
        phase, carried = unwrap_phase(np.array([1.0, 2.0, 3.0], dtype=complex))
        assert np.array_equal(phase, np.zeros(3))
        assert not carried.any()

    def test_unit_delay_linear_slope(self):
        # h = [0, 1, 0]: H(w) = e^{-jw}, so unwrapped phase is exactly -w
        n_fft = 64
        h = np.zeros(n_fft)
        h[1] = 1.0
        bins = np.fft.rfft(h)
        phase, carried = unwrap_phase(bins)
        w = 2 * np.pi * np.arange(n_fft // 2 + 1) / n_fft
        assert np.abs(phase + w).max() < 1e-12
        assert not carried.any()

    def test_symmetric_kernel_linear_until_null(self):
        # h = [1, 2, 1]: H(w) = (2 + 2cos w) e^{-jw}; amplitude positive up
        # to w = pi where it vanishes and the phase is carried
        bins = np.fft.rfft([1.0, 2.0, 1.0], 8)
        phase, carried = unwrap_phase(bins)
        w = 2 * np.pi * np.arange(5) / 8
        assert np.abs(phase[:4] + w[:4]).max() < 1e-12
        assert carried[4] and not carried[:4].any()
        assert phase[4] == phase[3]  # carried from the neighbour

    def test_differences_in_half_open_interval(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            bins = rng.normal(size=64) + 1j * rng.normal(size=64)
            phase, _ = unwrap_phase(bins)
            d = np.diff(phase)
            assert (d > -np.pi).all() and (d <= np.pi).all()

    def test_all_zero_bins(self):
        phase, carried = unwrap_phase(np.zeros(4, dtype=complex))
        assert carried.all()
        assert np.array_equal(phase, np.zeros(4))


class TestTypes:
    def test_waveform_validation(self):
        with pytest.raises(ValueError):
            Waveform([np.nan, 1.0], 1000.0)
        with pytest.raises(ValueError):
            Waveform([1.0], 0.0)

    def test_ltsa_profile_validation(self):
        with pytest.raises(ValueError):
            LtsaProfile(np.arange(3.0), np.arange(4.0), 4, 2)

    def test_hamming_symmetry(self):
        for n in (3, 4, 61, 1024):
            w = hamming(n)
            assert np.array_equal(w, w[::-1])
