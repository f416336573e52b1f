import math
import wave

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from concat_augment import features
from concat_augment.errors import FeatureError
from concat_augment.features import (
    FeatureConfig,
    compute_logmel,
    filter_center_freqs,
    frame_count,
    hann_window,
    load_or_compute,
    load_pcm,
    mel_filterbank,
    power_spectrogram,
    validate_feature_matrix,
)
from concat_augment.manifest import Utterance

from dft_oracle import oracle_logmel, oracle_power_spectrogram

CFG = FeatureConfig()


def brute_force_frame_count(n_samples, win, hop):
    count = 0
    start = 0
    while start + win <= n_samples:
        count += 1
        start += hop
    return count


class TestFrameCount:
    def test_exactly_one_window(self):
        assert frame_count(400, CFG) == 1

    def test_one_second_is_98_frames(self):
        # frozen: 1 + floor((16000-400)/160) = 98, verified by enumeration
        assert brute_force_frame_count(16000, 400, 160) == 98
        assert frame_count(16000, CFG) == 98

    def test_zero_samples(self):
        assert frame_count(0, CFG) == 0

    def test_just_under_a_window(self):
        assert frame_count(399, CFG) == 0

    def test_matches_enumeration_on_random_lengths(self):
        rng = np.random.default_rng(3)
        for n in rng.integers(0, 20000, size=200):
            assert frame_count(int(n), CFG) == brute_force_frame_count(int(n), 400, 160)


class TestConfig:
    def test_paper_defaults(self):
        assert CFG.n_mels == 80
        assert CFG.win_ms == 25.0
        assert CFG.hop_ms == 10.0
        assert CFG.win_samples == 400
        assert CFG.hop_samples == 160
        assert CFG.n_fft == 512  # next power of two >= 400

    def test_hop_larger_than_win_rejected(self):
        with pytest.raises(FeatureError):
            FeatureConfig(win_ms=10.0, hop_ms=25.0)

    def test_fft_smaller_than_window_rejected(self):
        with pytest.raises(FeatureError):
            FeatureConfig(fft_size=256)


class TestComputeLogmel:
    def test_all_zero_pcm_gives_log_floor_exactly(self):
        feats = compute_logmel(np.zeros(16000), CFG)
        assert feats.shape == (98, 80)
        assert np.all(feats == math.log(CFG.log_floor))

    def test_pure_sine_peaks_at_bin_nearest_1khz(self):
        t = np.arange(16000) / CFG.sample_rate_hz
        pcm = np.sin(2 * np.pi * 1000.0 * t)
        feats = compute_logmel(pcm, CFG)
        centers = filter_center_freqs(CFG)
        expected_bin = int(np.argmin(np.abs(centers - 1000.0)))
        assert np.all(np.argmax(feats, axis=1) == expected_bin)
        oracle = oracle_logmel(pcm)
        assert np.all(np.argmax(oracle, axis=1) == expected_bin)

    def test_matches_oracle_on_random_clips(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            pcm = rng.uniform(-1.0, 1.0, size=int(rng.integers(400, 8000)))
            ours = compute_logmel(pcm, CFG)
            ref = oracle_logmel(pcm)
            assert ours.shape == ref.shape
            np.testing.assert_allclose(ours, ref, rtol=1e-6, atol=0)

    def test_power_spectra_match_oracle_absolutely(self):
        rng = np.random.default_rng(19)
        pcm = rng.uniform(-1.0, 1.0, size=3000)
        ours = power_spectrogram(pcm, CFG)
        ref = oracle_power_spectrogram(pcm, 16000, 25.0, 10.0, 512)
        np.testing.assert_allclose(ours, ref, rtol=0, atol=1e-8)

    def test_shift_covariance(self):
        rng = np.random.default_rng(23)
        pcm = rng.uniform(-1.0, 1.0, size=4000)
        base = compute_logmel(pcm, CFG)
        for k in (1, 3):
            delayed = np.concatenate([np.zeros(k * CFG.hop_samples), pcm])
            shifted = compute_logmel(delayed, CFG)
            np.testing.assert_allclose(shifted[k : k + base.shape[0]], base, rtol=1e-6)

    def test_scaling_adds_two_log_c(self):
        rng = np.random.default_rng(29)
        pcm = rng.uniform(-0.2, 0.2, size=4000)
        c = 3.5
        base = compute_logmel(pcm, CFG)
        scaled = compute_logmel(c * pcm, CFG)
        high = base > math.log(CFG.log_floor) + 10  # energy well above the floor
        np.testing.assert_allclose(scaled[high] - base[high], 2 * math.log(c), atol=1e-4)

    def test_output_always_finite(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            pcm = rng.uniform(-1, 1, size=int(rng.integers(400, 3000)))
            feats = compute_logmel(pcm, CFG)
            validate_feature_matrix(feats, n_mels=80)

    def test_too_short_raises(self):
        with pytest.raises(FeatureError, match="too short"):
            compute_logmel(np.zeros(399), CFG)

    def test_non_finite_sample_raises(self):
        pcm = np.zeros(1000)
        pcm[5] = np.nan
        with pytest.raises(FeatureError):
            compute_logmel(pcm, CFG)

    def test_mean_var_norm_toggle(self):
        rng = np.random.default_rng(37)
        pcm = rng.uniform(-1, 1, size=8000)
        cfg = FeatureConfig(mean_var_norm=True)
        feats = compute_logmel(pcm, cfg)
        np.testing.assert_allclose(feats.mean(axis=0), 0.0, atol=1e-9)
        np.testing.assert_allclose(feats.std(axis=0), 1.0, atol=1e-6)

    def test_filterbank_spans_zero_to_nyquist(self):
        fb = mel_filterbank(CFG)
        assert fb.shape == (80, 257)
        assert np.all(fb >= 0)
        # every filter has support, every interior bin is covered
        assert np.all(fb.sum(axis=1) > 0)
        assert np.all(fb.sum(axis=0)[1:-1] > 0)


def uncached_logmel(pcm, cfg):
    """compute_logmel with the window and filterbank rebuilt on every call."""
    frames = features._frame_signal(np.asarray(pcm, dtype=np.float64), cfg)
    spectrum = np.fft.rfft(frames * hann_window(cfg.win_samples), n=cfg.n_fft, axis=1)
    power = spectrum.real**2 + spectrum.imag**2
    feats = np.log(power @ mel_filterbank(cfg).T + cfg.log_floor)
    if cfg.mean_var_norm:
        feats = (feats - feats.mean(axis=0)) / np.maximum(feats.std(axis=0), 1e-8)
    return feats


@st.composite
def feature_configs(draw):
    sample_rate = draw(st.sampled_from([8000, 16000, 22050]))
    win_ms = draw(st.sampled_from([10.0, 20.0, 25.0, 32.0]))
    hop_ms = draw(st.sampled_from([h for h in (5.0, 10.0, 12.5) if h <= win_ms]))
    win_samples = int(round(win_ms * sample_rate / 1000.0))
    fft_size = draw(st.sampled_from([None, 1 << win_samples.bit_length()]))
    return FeatureConfig(
        sample_rate_hz=sample_rate,
        n_mels=draw(st.integers(1, 96)),
        win_ms=win_ms,
        hop_ms=hop_ms,
        fft_size=fft_size,
        log_floor=draw(st.sampled_from([1e-10, 1e-6, 1e-3])),
        mean_var_norm=draw(st.booleans()),
    )


class TestAnalysisCache:
    @settings(max_examples=40, deadline=None)
    @given(a=feature_configs(), b=feature_configs(), seed=st.integers(0, 2**32 - 1))
    def test_interleaved_configs_match_uncached(self, a, b, seed):
        rng = np.random.default_rng(seed)
        pcm = rng.uniform(-1, 1, size=int(rng.integers(1200, 4000)))
        for cfg in (a, b, a, b):
            assert compute_logmel(pcm, cfg).tobytes() == uncached_logmel(pcm, cfg).tobytes()

    def test_cached_arrays_are_read_only(self):
        window, fb = features._analysis_arrays(CFG)
        assert features._analysis_arrays(FeatureConfig())[1] is fb  # equal configs share it
        for array in (window, fb):
            with pytest.raises(ValueError):
                array[0] = 1.0
        np.testing.assert_array_equal(fb, mel_filterbank(CFG))
        np.testing.assert_array_equal(window, hann_window(CFG.win_samples))


class TestLoadPcm:
    def test_wav_round_trip(self, tmp_path):
        rng = np.random.default_rng(41)
        samples = (rng.uniform(-0.5, 0.5, size=1600) * 32768).astype(np.int16)
        path = tmp_path / "clip.wav"
        with wave.open(str(path), "wb") as f:
            f.setnchannels(1)
            f.setsampwidth(2)
            f.setframerate(16000)
            f.writeframes(samples.tobytes())
        pcm = load_pcm(path)
        np.testing.assert_allclose(pcm, samples / 32768.0)

    def test_npy_round_trip(self, tmp_path):
        rng = np.random.default_rng(43)
        data = rng.uniform(-1, 1, size=800)
        np.save(tmp_path / "clip.npy", data)
        np.testing.assert_array_equal(load_pcm(tmp_path / "clip.npy"), data)

    def test_raw_float32(self, tmp_path):
        data = np.linspace(-1, 1, 500, dtype=np.float32)
        (tmp_path / "clip.f32").write_bytes(data.tobytes())
        np.testing.assert_allclose(load_pcm(tmp_path / "clip.f32"), data)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FeatureError, match="not found"):
            load_pcm(tmp_path / "nope.wav")

    def test_unsupported_format(self, tmp_path):
        (tmp_path / "clip.mp3").write_bytes(b"junk")
        with pytest.raises(FeatureError, match="unsupported"):
            load_pcm(tmp_path / "clip.mp3")


class TestLoadOrCompute:
    def _utterance(self, tmp_path, n_frames, rng):
        samples = 400 + (n_frames - 1) * 160
        pcm = rng.uniform(-0.5, 0.5, size=samples)
        np.save(tmp_path / "u1.npy", pcm)
        return Utterance(id="u1", audio_ref="u1.npy", n_frames=n_frames, target=(1,))

    def test_recompute_is_deterministic(self, tmp_path):
        rng = np.random.default_rng(53)
        utt = self._utterance(tmp_path, 12, rng)
        a = load_or_compute(utt, CFG, audio_root=tmp_path)
        b = load_or_compute(utt, CFG, audio_root=tmp_path)
        assert a.tobytes() == b.tobytes()

    def test_frame_mismatch_warns_and_computed_wins(self, tmp_path, caplog):
        rng = np.random.default_rng(59)
        utt = self._utterance(tmp_path, 20, rng)
        lying = Utterance(id="u1", audio_ref="u1.npy", n_frames=120, target=(1,))
        with caplog.at_level("WARNING"):
            feats = load_or_compute(lying, CFG, audio_root=tmp_path)
        assert feats.shape[0] == 20
        assert any("120" in r.message and "20" in r.message for r in caplog.records)
