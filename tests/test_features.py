import math
import sys
import threading
import tracemalloc
import wave
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from concat_augment import features
from concat_augment.errors import FeatureError
from concat_augment.features import (
    FeatureConfig,
    compute_logmel,
    frame_count,
    hann_window,
    hz_to_mel,
    load_or_compute,
    load_pcm,
    mel_filterbank,
    mel_to_hz,
)
from concat_augment.manifest import Utterance

from dft_oracle import oracle_logmel, oracle_power_spectrogram

CFG = FeatureConfig()


def filter_center_freqs(cfg: FeatureConfig) -> np.ndarray:
    """Center frequency in Hz of each Mel filter."""
    mel_points = np.linspace(hz_to_mel(0.0), hz_to_mel(cfg.sample_rate_hz / 2.0), cfg.n_mels + 2)
    return mel_to_hz(mel_points)[1:-1]


def power_spectrogram(pcm, cfg: FeatureConfig) -> np.ndarray:
    """Windowed power spectrum |X(k)|^2 per frame, shape (T, n_fft//2+1),
    from the blocks compute_logmel filters."""
    pcm = features._checked_pcm(pcm, cfg)
    out = np.empty((frame_count(len(pcm), cfg), cfg.n_fft // 2 + 1))
    for start, stop, power in features._power_blocks(pcm, cfg):
        out[start:stop] = power
    return out


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

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(hop_ms=0.02),  # a hop of 0 samples at 16 kHz
            dict(win_ms=0.01, hop_ms=0.01),  # a window of 0 samples
            dict(log_floor=float("nan")),
            dict(log_floor=float("inf")),
            dict(win_ms=float("nan")),
            dict(win_ms=float("inf")),
            dict(hop_ms=float("nan")),
            dict(hop_ms=float("inf")),
            dict(sample_rate_hz=float("inf")),
        ],
        ids=lambda kwargs: ",".join(f"{k}={v}" for k, v in kwargs.items()),
    )
    def test_settings_that_cannot_extract_name_the_field(self, kwargs):
        name, value = next(iter(kwargs.items()))
        with pytest.raises(FeatureError, match=name) as raised:
            FeatureConfig(**kwargs)
        assert repr(value) in str(raised.value)


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
            assert feats.shape == (frame_count(len(pcm), CFG), 80)
            assert np.isfinite(feats).all()

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
    """compute_logmel with the window and filterbank rebuilt on every call,
    framing through an index matrix."""
    pcm = np.asarray(pcm, dtype=np.float64)
    n_frames = frame_count(len(pcm), cfg)
    idx = np.arange(cfg.win_samples)[None, :] + cfg.hop_samples * np.arange(n_frames)[:, None]
    frames = pcm[idx]
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


BLOCK_EDGES = ("1", "B-1", "B", "B+1", "2B+1", "30 s")


def edge_frames(edge: str, cfg: FeatureConfig) -> int:
    """The frame count named by ``edge``, B being the block of ``cfg``."""
    if edge == "30 s":
        return frame_count(30 * cfg.sample_rate_hz, cfg)
    b = features._block_frames(cfg) or features.BLOCK_FRAMES  # None: one block
    return {"1": 1, "B-1": b - 1, "B": b, "B+1": b + 1, "2B+1": 2 * b + 1}[edge]


def pcm_of_frames(n_frames: int, cfg: FeatureConfig, rng) -> np.ndarray:
    """Random samples that make ``n_frames`` frames, with a partial hop left over."""
    extra = int(rng.integers(cfg.hop_samples))
    return rng.uniform(-1, 1, cfg.win_samples + (n_frames - 1) * cfg.hop_samples + extra)


class TestBlocks:
    """compute_logmel works through blocks of frames; its bytes are those
    of one whole-utterance pass at every block edge."""

    @pytest.mark.parametrize("edge", BLOCK_EDGES)
    def test_default_config_matches_uncached_at_block_edges(self, edge):
        rng = np.random.default_rng(61)
        n_frames = edge_frames(edge, CFG)
        pcm = pcm_of_frames(n_frames, CFG, rng)
        feats = compute_logmel(pcm, CFG)
        assert feats.shape == (n_frames, CFG.n_mels)
        assert feats.tobytes() == uncached_logmel(pcm, CFG).tobytes()

    @settings(max_examples=40, deadline=None)
    @given(
        cfg=feature_configs(),
        edge=st.sampled_from(BLOCK_EDGES),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_uncached_at_block_edges(self, cfg, edge, seed):
        rng = np.random.default_rng(seed)
        pcm = pcm_of_frames(edge_frames(edge, cfg), cfg, rng)
        assert compute_logmel(pcm, cfg).tobytes() == uncached_logmel(pcm, cfg).tobytes()
        frames = features._frame_signal(pcm, cfg) * hann_window(cfg.win_samples)
        spectrum = np.fft.rfft(frames, n=cfg.n_fft, axis=1)
        whole = spectrum.real**2 + spectrum.imag**2
        assert power_spectrogram(pcm, cfg).tobytes() == whole.tobytes()

    def test_no_block_is_short_unless_it_is_the_utterance(self):
        """A short last block would take another BLAS path (a one-row
        product is a matrix-vector product) and round differently."""
        rows = features.BLOCK_FRAMES
        for n_frames in range(1, 5 * rows):
            blocks = features._blocks(n_frames, rows)
            assert blocks[0][0] == 0 and blocks[-1][1] == n_frames
            assert all(stop == start for (_, stop), (start, _) in zip(blocks, blocks[1:]))
            assert len(blocks) == 1 or all(stop - start >= rows for start, stop in blocks)
        assert features._blocks(1000, None) == [(0, 1000)]

    def test_blocks_stay_above_the_small_matrix_kernel(self):
        for n_mels in (2, 9, 40, 80, 96):
            cfg = FeatureConfig(n_mels=n_mels)
            rows = features._block_frames(cfg)
            assert rows % features.BLOCK_FRAMES == 0
            assert rows * n_mels * (cfg.n_fft // 2 + 1) > features._SMALL_GEMM
        assert features._block_frames(CFG) == features.BLOCK_FRAMES

    def test_memory_beside_the_output_is_bounded(self):
        """30 s of audio: the whole-utterance pass peaked at 34.3 MB
        beside a 1.9 MB output."""
        pcm = np.random.default_rng(67).uniform(-1, 1, 30 * CFG.sample_rate_hz)
        compute_logmel(pcm, CFG)  # the analysis arrays are built once, before
        tracemalloc.start()
        try:
            feats = compute_logmel(pcm, CFG)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= feats.nbytes + 4 * 2**20


def on_a_new_thread(work):
    """Run ``work`` on a thread of its own and return what it returns."""
    result = []
    thread = threading.Thread(target=lambda: result.append(work()))
    thread.start()
    thread.join()
    assert result, "the thread raised"
    return result[0]


class TestBlockScratch:
    """Each thread keeps its block buffers across calls."""

    def test_alternating_configs_on_one_thread_match_uncached(self):
        """25 ms and 20 ms windows share an FFT of 512, so a 20 ms call runs
        in buffers whose columns past its window a 25 ms call wrote; one
        filter makes the whole utterance one block. The frame counts give
        one short block, 128-frame blocks and a 255-frame last block."""
        configs = (FeatureConfig(), FeatureConfig(win_ms=20.0), FeatureConfig(n_mels=1))
        assert configs[0].n_fft == configs[1].n_fft and configs[0].win_samples > 320
        rows = features.BLOCK_FRAMES
        counts = (40, 3 * rows, 3 * rows - 1)
        assert features._blocks(counts[2], rows)[-1] == (rows, counts[2])

        def work():
            rng = np.random.default_rng(71)
            same = []
            for n_frames in counts + counts[::-1]:
                for cfg in configs + configs[::-1]:
                    pcm = pcm_of_frames(n_frames, cfg, rng)
                    feats = compute_logmel(pcm, cfg)
                    same.append(feats.tobytes() == uncached_logmel(pcm, cfg).tobytes())
            return same

        same = on_a_new_thread(work)
        assert len(same) == 36 and all(same)

    def test_a_thread_frees_its_buffers_when_it_ends(self):
        """One filter's single block is allocated per call, so no thread
        keeps a buffer the size of an utterance."""
        rng = np.random.default_rng(73)
        short, long = pcm_of_frames(300, CFG, rng), rng.uniform(-1, 1, 30 * CFG.sample_rate_hz)

        def work():
            compute_logmel(short, CFG)
            kept = dict(vars(features._scratch))
            compute_logmel(long, FeatureConfig(n_mels=1))
            assert all(getattr(features._scratch, name) is b for name, b in kept.items())
            return [weakref.ref(buffer) for buffer in kept.values()]

        kept = on_a_new_thread(work)
        assert len(kept) == 3
        assert all(ref() is None for ref in kept)


class TestOneBlasThread:
    @pytest.mark.skipif(features._openblas is None, reason="numpy's bundled OpenBLAS not found")
    def test_nested_blocks_restore_the_count_when_the_last_ends(self):
        get, set_ = features._openblas
        before = get()
        set_(2)
        try:
            with features.one_blas_thread():
                with features.one_blas_thread():
                    assert get() == 1
                assert get() == 1
            assert get() == 2
        finally:
            set_(before)

    @pytest.mark.skipif(features._openblas is None, reason="numpy's bundled OpenBLAS not found")
    def test_concurrent_blocks_under_thread_switches(self):
        """Eight threads enter and leave at once while threads switch
        every 10 us: inside, the count is always 1; after, it is back."""
        get, set_ = features._openblas
        before = get()
        set_(2)
        seen = []

        def enter_and_leave():
            for _ in range(200):
                with features.one_blas_thread():
                    seen.append(get())

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=enter_and_leave) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
            assert not any(thread.is_alive() for thread in threads)
            assert get() == 2
        finally:
            sys.setswitchinterval(interval)
            set_(before)
        assert set(seen) == {1} and len(seen) == 8 * 200

    def test_without_the_library_it_does_nothing(self, monkeypatch):
        monkeypatch.setattr(features, "_openblas", None)
        with features.one_blas_thread():
            pass


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
        assert pcm.dtype == np.float64
        assert pcm.tobytes() == (samples / 32768.0).tobytes()

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
