import csv
import hashlib
import os
import signal
import struct
import threading
import time
import tracemalloc
from concurrent.futures import Future

import numpy as np
import pytest

from pcgnet import data
from pcgnet.data import (CYCLE_LEN, ByteCursor, CycleRecord, CycleStore, RecordingMeta,
                         SegmentationError, TRAIN_ONLY_FOLD, load_recording,
                         make_folds, read_fold_manifest, read_label_manifest,
                         logged_io, read_input, segment_cycles, synth_pcg, write_csv,
                         write_fold_manifest, write_label_manifest, write_output, write_wav)
from pcgnet.dsp import Waveform, ltsa
from pcgnet.errors import DataError


def burst_train(bpm, duration_s, rate=1000.0, s1_amp=1.0, s2_amp=0.5, seed=0):
    """Identical S1/S2 bursts at an exact rhythm, for timing oracles."""
    rng = np.random.default_rng(seed)
    n = int(duration_s * rate)
    t = np.arange(n) / rate
    period = 60.0 / bpm
    x = rng.normal(0.0, 0.01, size=n)
    pos = 0.2
    while pos < duration_s - 0.1:
        d1 = t - pos
        x += s1_amp * np.exp(-0.5 * (d1 / 0.04) ** 2) * np.sin(2 * np.pi * 50.0 * d1)
        d2 = t - (pos + 0.35 * period)
        x += s2_amp * np.exp(-0.5 * (d2 / 0.03) ** 2) * np.sin(2 * np.pi * 70.0 * d2)
        pos += period
    return Waveform(x, rate)


class TestWavIo:
    def test_round_trip_within_quantization(self, tmp_path):
        t = np.arange(2000) / 1000.0
        x = Waveform(0.6 * np.sin(2 * np.pi * 40.0 * t), 1000.0)
        path = tmp_path / "tone.wav"
        write_wav(path, x)
        back, meta = load_recording(str(path), label=1)
        assert meta.id == "tone" and meta.label == 1
        assert back.sample_rate_hz == 1000.0
        assert np.abs(back.samples - x.samples).max() <= 1.0 / 32768.0

    def test_resampled_on_load(self, tmp_path):
        x = Waveform(np.sin(2 * np.pi * 50.0 * np.arange(4000) / 2000.0), 2000.0)
        path = tmp_path / "r2k.wav"
        write_wav(path, x)
        back, _ = load_recording(str(path), label=0)
        assert back.sample_rate_hz == 1000.0
        assert abs(len(back) - 2000) <= 1

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.wav"
        write_wav(path, Waveform(np.array([0.0]), 1000.0))
        # now truncate to a headerless stub
        (tmp_path / "stub.wav").write_bytes(b"RIFF")
        with pytest.raises(DataError):
            load_recording(str(tmp_path / "stub.wav"), label=0)

    def test_stereo_rejected(self, tmp_path):
        import wave
        path = tmp_path / "stereo.wav"
        with wave.open(str(path), "wb") as wf:
            wf.setnchannels(2)
            wf.setsampwidth(2)
            wf.setframerate(1000)
            wf.writeframes(b"\x00\x00" * 200)
        with pytest.raises(DataError, match="stereo|mono|channels"):
            load_recording(str(path), label=0)

    def test_label_manifest_round_trip(self, tmp_path):
        metas = [RecordingMeta("a", 0), RecordingMeta("b", 1)]
        path = tmp_path / "labels.csv"
        write_label_manifest(path, metas)
        labels = read_label_manifest(path)
        assert labels == {"a": 0, "b": 1}

    @pytest.mark.parametrize("read, text", [
        (read_label_manifest, "id,label\nrec0000,1\nrec0001,1\nrec0000,-1\n"),
        (read_fold_manifest, "id,fold\nrec0000,0\nrec0001,1\nrec0000,2\n"),
    ])
    def test_repeated_id_rejected(self, tmp_path, read, text):
        path = tmp_path / "manifest.csv"
        path.write_text(text)
        with pytest.raises(DataError, match="rec0000.*twice"):
            read(path)


class TestSegmentation:
    def test_sixty_bpm_cycle_count_and_length(self):
        x = burst_train(60.0, 10.0)
        cycles = segment_cycles(x, "r0", 0)
        assert len(cycles) == int(10.0 / 1.0) - 1
        for c in cycles:
            assert abs(c.valid_len - 1000) <= 50
            assert c.samples.shape == (CYCLE_LEN,)
            assert not c.samples[c.valid_len:].any()

    def test_slow_rhythm_fits_without_cap(self):
        # 35 bpm: the period is 60/35 = 1.714 s < 2.5 s, so the whole cycle
        # remains and nothing is truncated
        x = burst_train(35.0, 14.0)
        cycles = segment_cycles(x, "r1", 0)
        assert len(cycles) >= 5
        period = 60.0 / 35.0 * 1000  # ~1714 samples
        lens = np.array([c.valid_len for c in cycles])
        assert abs(np.median(lens) - period) <= 60
        for c in cycles:
            assert abs(c.valid_len - period) <= 150
            assert c.valid_len < CYCLE_LEN

    def test_white_noise_rejected(self):
        rng = np.random.default_rng(12)
        x = Waveform(rng.normal(size=8000), 1000.0)
        with pytest.raises(SegmentationError):
            segment_cycles(x, "noise", 0)

    def test_too_short_rejected(self):
        x = burst_train(60.0, 10.0)
        with pytest.raises(SegmentationError):
            segment_cycles(Waveform(x.samples[:2000], 1000.0), "short", 0)

    def test_anchors_lock_to_s1_not_s2(self):
        # each cycle should start near the strong burst; the S2 burst at
        # 0.35 of the period must not become the anchor
        x = burst_train(60.0, 10.0, s1_amp=1.0, s2_amp=0.45)
        cycles = segment_cycles(x, "r2", 0)
        for c in cycles:
            # S1 energy (first 150 ms) must dominate the S2 window
            s1_rms = np.sqrt((c.samples[:150] ** 2).mean())
            mid = int(0.35 * c.valid_len)
            s2_rms = np.sqrt((c.samples[mid - 75:mid + 75] ** 2).mean())
            assert s1_rms > s2_rms

    def test_per_recording_pipeline_never_spans_recordings(self):
        a = burst_train(60.0, 8.0, seed=1)
        b = burst_train(90.0, 8.0, seed=2)
        cycles = (segment_cycles(a, "A", 0) + segment_cycles(b, "B", 1))
        for c in cycles:
            src = a if c.recording_id == "A" else b
            # cycle content must appear verbatim inside its own recording
            sig = c.samples[: c.valid_len]
            corr = np.correlate(src.samples, sig, mode="valid")
            self_energy = float(sig @ sig)
            assert corr.max() > 0.999 * self_energy


class TestFolds:
    @staticmethod
    def metas(n_normal, n_abnormal):
        out = [RecordingMeta(f"n{i:03d}", 0) for i in range(n_normal)]
        out += [RecordingMeta(f"a{i:03d}", 1) for i in range(n_abnormal)]
        return out

    def test_balanced_partition_40_40(self):
        assignment = make_folds(self.metas(40, 40), seed=0)
        for fold in range(4):
            ids = [r for r, f in assignment.items() if f == fold]
            assert len(ids) == 20
            assert sum(1 for r in ids if r.startswith("a")) == 10
        assert all(f != TRAIN_ONLY_FOLD for f in assignment.values())

    def test_unbalanced_leftovers_go_to_training(self):
        assignment = make_folds(self.metas(158, 42), seed=1)
        for fold in range(4):
            ids = [r for r, f in assignment.items() if f == fold]
            abn = sum(1 for r in ids if r.startswith("a"))
            assert abn == 10 and len(ids) == 20
        # 4 folds x (10+10) leaves 118 normal + 2 abnormal training-only
        rest = [r for r, f in assignment.items() if f == TRAIN_ONLY_FOLD]
        assert len(rest) == 200 - 80
        assert sum(1 for r in rest if r.startswith("a")) == 2

    def test_pinned_fold0(self):
        metas = self.metas(20, 20)
        pinned = ["n000", "n001", "a000", "a001"]
        assignment = make_folds(metas, seed=3, pinned_fold0=pinned)
        assert all(assignment[r] == 0 for r in pinned)
        fold0 = [r for r, f in assignment.items() if f == 0]
        assert sorted(fold0) == sorted(pinned)

    def test_unbalanced_pin_rejected(self):
        with pytest.raises(DataError):
            make_folds(self.metas(20, 20), seed=0, pinned_fold0=["n000", "n001", "a000"])

    @pytest.mark.parametrize("pinned, match", [
        (["n000", "n000", "a000", "a001"], "an id twice"),    # 1 normal, 2 abnormal
        ([], "no recording ids"),
    ])
    def test_repeated_or_empty_pin_rejected(self, pinned, match):
        with pytest.raises(DataError, match=match):
            make_folds(self.metas(12, 12), seed=0, pinned_fold0=pinned)

    def test_deterministic(self):
        metas = self.metas(30, 14)
        assert make_folds(metas, seed=9) == make_folds(metas, seed=9)
        assert make_folds(metas, seed=9) != make_folds(metas, seed=10)

    def test_degenerate_rejected(self):
        with pytest.raises(DataError):
            make_folds(self.metas(4, 2), seed=0)
        with pytest.raises(DataError):
            make_folds(self.metas(100, 3), seed=0)

    def test_manifest_round_trip(self, tmp_path):
        assignment = make_folds(self.metas(10, 10), seed=4)
        path = tmp_path / "folds.csv"
        write_fold_manifest(path, assignment)
        assert read_fold_manifest(path) == assignment


class TestSynth:
    def test_class_ratio(self):
        recs = synth_pcg(100, abnormal_fraction=0.21, seed=5)
        assert sum(r.meta.label for r in recs) == 21

    def test_reproducible_bit_exact(self):
        a = synth_pcg(6, 0.5, seed=42)
        b = synth_pcg(6, 0.5, seed=42)
        for ra, rb in zip(a, b):
            assert np.array_equal(ra.waveform.samples, rb.waveform.samples)
            assert ra.meta == rb.meta and ra.bpm == rb.bpm

    def test_murmur_band_energy_gap(self):
        # averaged spectra: abnormal recordings must carry extra energy in
        # the murmur band relative to normal ones
        recs = synth_pcg(12, 0.5, seed=8)
        profs = {0: [], 1: []}
        for r in recs:
            prof = ltsa(r.waveform, 1024, 512)
            band = (prof.freq_hz >= 150) & (prof.freq_hz <= 400)
            profs[r.meta.label].append(prof.avg_log_magnitude_db[band].mean())
        gap = np.mean(profs[1]) - np.mean(profs[0])
        assert gap > 3.0  # clearly positive (dB)

    def test_segmentable(self):
        recs = synth_pcg(5, 0.4, seed=3)
        from pcgnet.dsp import resample
        for r in recs:
            x = resample(r.waveform, 1000.0)
            cycles = segment_cycles(x, r.meta.id, r.meta.label)
            want = int(r.waveform.duration_s / (60.0 / r.bpm)) - 1
            assert abs(len(cycles) - want) <= 2


class TestCycleStore:
    @staticmethod
    def store():
        recs = synth_pcg(4, 0.5, seed=1, duration_s=(6.0, 7.0))
        from pcgnet.dsp import resample
        cycles = []
        for r in recs:
            x = resample(r.waveform, 1000.0)
            cycles.extend(segment_cycles(x, r.meta.id, r.meta.label))
        return CycleStore.from_cycles(cycles)

    def test_round_trip(self, tmp_path):
        store = self.store()
        path = tmp_path / "cycles.bin"
        store.save(path)
        again = CycleStore.load(path)
        assert np.array_equal(again.samples, store.samples)
        assert again.recording_ids == store.recording_ids
        assert np.array_equal(again.labels, store.labels)
        assert np.array_equal(again.valid_lens, store.valid_lens)

    def test_truncation_rejected(self, tmp_path):
        store = self.store()
        path = tmp_path / "cycles.bin"
        store.save(path)
        blob = path.read_bytes()
        bad = tmp_path / "bad.bin"
        bad.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(DataError):
            CycleStore.load(bad)

    def test_zero_padding_invariant(self):
        store = self.store()
        for i in range(len(store)):
            v = int(store.valid_lens[i])
            assert store.samples[i].shape == (CYCLE_LEN,)
            assert not store.samples[i, v:].any()

    def test_cycle_record_validation(self):
        with pytest.raises(ValueError):
            CycleRecord("x", np.ones(CYCLE_LEN), 0, valid_len=300)  # too short
        bad = np.ones(CYCLE_LEN)
        with pytest.raises(ValueError):
            CycleRecord("x", bad, 0, valid_len=1000)  # nonzero tail


class TestWriteCsv:
    def test_exact_floats_and_default_dialect(self, tmp_path):
        floats = [0.1, 1e-300, -0.0, np.float64(1.0 / 3.0), np.float64(-2.5e-17)]
        path = tmp_path / "t.csv"
        write_csv(path, ["name", "n", "x"],
                  [["a,b", i, v] for i, v in enumerate(floats)])
        raw = path.read_bytes()
        assert raw.startswith(b"name,n,x\r\n") and b"np.float64" not in raw
        assert raw.count(b"\r\n") == len(floats) + 1 and raw.count(b"\n") == len(floats) + 1
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        assert [r[:2] for r in rows] == [["a,b", str(i)] for i in range(len(floats))]
        back = [float(r[2]) for r in rows]
        assert back == floats
        assert [np.signbit(v) for v in back] == [np.signbit(v) for v in floats]


class TestLoggedIo:
    def test_records_inside_the_block_only(self, tmp_path):
        path = tmp_path / "sub" / "out.bin"
        write_output(path, b"before")              # makes sub/, records nothing
        with logged_io() as (inputs, outputs):
            write_output(path, "a\u00e9", b"b", np.arange(2, dtype="<f8"))
            with logged_io() as (inner_in, inner_out):
                blob = read_input(path)
            read_input(path)                       # the outer block records again
        read_input(path)
        write_output(tmp_path / "after.bin", b"x")
        assert blob == "a\u00e9".encode() + b"b" + np.arange(2, dtype="<f8").tobytes()
        digest = hashlib.sha256(blob).hexdigest()
        assert inner_in == {str(path): digest} and inner_out == {}
        assert outputs == {str(path): digest}
        assert inputs == {str(path): digest}

    def test_unwritable_path_is_data_error(self, tmp_path):
        (tmp_path / "file").write_text("x")
        for path in (tmp_path / "file" / "out.csv", tmp_path):
            with pytest.raises(DataError, match=f"cannot write {path}"):
                write_output(path, b"x")


class TestDigestThread:
    """Inputs of data._DIGEST_THREAD_BYTES or more are hashed on the digest
    thread; logged_io holds each digest by the time its block returns."""

    @staticmethod
    def _files(tmp_path):
        big = tmp_path / "big.bin"
        big.write_bytes(np.random.default_rng(1).bytes(data._DIGEST_THREAD_BYTES))
        small = tmp_path / "small.bin"
        small.write_bytes(b"x" * (data._DIGEST_THREAD_BYTES - 1))
        return big, small

    def test_large_input_is_hashed_on_the_thread(self, tmp_path):
        big, small = self._files(tmp_path)
        with logged_io() as (inputs, _):
            read_input(big)
            read_input(small)
            assert isinstance(inputs[str(big)], Future)
            assert inputs[str(small)] == hashlib.sha256(small.read_bytes()).hexdigest()
        assert inputs == {str(big): hashlib.sha256(big.read_bytes()).hexdigest(),
                          str(small): hashlib.sha256(small.read_bytes()).hexdigest()}

    def test_large_input_is_read_on_the_thread(self, tmp_path, monkeypatch):
        # so its bytes are allocated on that thread's heap, apart from the
        # arrays the command allocates
        big, small = self._files(tmp_path)
        readers, read = [], data._read_then_hash

        def spy(fh, handoff):
            readers.append(threading.current_thread().name)
            return read(fh, handoff)
        monkeypatch.setattr(data, "_read_then_hash", spy)
        with logged_io():
            assert read_input(big) == big.read_bytes()
            assert read_input(small) == small.read_bytes()
        assert len(readers) == 1 and readers[0].startswith("pcgnet-digest")

    def test_read_error_on_the_thread_is_the_given_class(self, tmp_path, monkeypatch):
        big, _ = self._files(tmp_path)

        class Failing:
            def read(self):
                raise OSError(5, "Input/output error")
        read = data._read_then_hash
        monkeypatch.setattr(data, "_read_then_hash", lambda fh, handoff: read(Failing(), handoff))
        with logged_io() as (inputs, _):
            with pytest.raises(CursorError, match=f"cannot read {big}: .*Input/output error"):
                read_input(big, CursorError)
        assert inputs == {}

    def test_digest_is_joined_when_the_block_fails(self, tmp_path):
        big, _ = self._files(tmp_path)
        with pytest.raises(DataError, match="after the read"):
            with logged_io() as (inputs, _):
                read_input(big)
                raise DataError("after the read")
        assert inputs == {str(big): hashlib.sha256(big.read_bytes()).hexdigest()}
        assert data._io_log is None

    def test_forked_child_hashes_on_its_own_thread(self, tmp_path):
        # the child inherits the executor object but not its thread, so a
        # digest queued there would never be taken; and a digest still in
        # flight at the fork would never finish in the child, so the fork
        # waits for it
        big, _ = self._files(tmp_path)
        huge = tmp_path / "huge.bin"
        huge.write_bytes(np.random.default_rng(2).bytes(32 * data._DIGEST_THREAD_BYTES))
        want = {str(p): hashlib.sha256(p.read_bytes()).hexdigest() for p in (big, huge)}
        with logged_io() as (inputs, _):
            read_input(huge)        # starts the digest thread here
            pid = os.fork()
            if pid == 0:
                read_input(big)
        if pid == 0:
            os._exit(0 if inputs == want else 1)
        assert inputs == {str(huge): want[str(huge)]}
        deadline = time.monotonic() + 60.0
        while (done := os.waitpid(pid, os.WNOHANG))[0] == 0 and time.monotonic() < deadline:
            time.sleep(0.05)
        if done[0] == 0:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        assert done[0] == pid and os.waitstatus_to_exitcode(done[1]) == 0


class TestRegularFilesOnly:
    # a FIFO is tried in tests/test_cli.py, in a subprocess with a timeout
    def test_directory_is_refused_with_the_given_class(self, tmp_path):
        with pytest.raises(CursorError, match=f"cannot read {tmp_path}: not a regular file"):
            read_input(tmp_path, CursorError)


class CursorError(Exception):
    pass


class TestByteCursor:
    def test_fields_in_file_order(self):
        cur = ByteCursor(struct.pack("<HQ", 7, 2 ** 40) + b"abc", "f.bin")
        assert cur.unpack("<H", "count") == (7,)
        assert cur.unpack("<Q", "length") == (2 ** 40,)
        assert cur.take(3, "name") == b"abc"

    def test_field_past_the_end_raises_the_given_class(self):
        cur = ByteCursor(b"\x01\x02\x03", "f.bin", CursorError)
        with pytest.raises(CursorError, match="f.bin.*name needs 4 bytes, 3 left"):
            cur.take(4, "name")
        with pytest.raises(CursorError, match="length"):
            cur.unpack("<Q", "length")
        assert cur.take(3, "name") == b"\x01\x02\x03"    # a failed read takes nothing
        with pytest.raises(DataError):
            ByteCursor(b"", "f.bin").unpack("<B", "ndim")

    def test_huge_length_allocates_nothing(self):
        cur = ByteCursor(bytes(64), "f.bin")
        tracemalloc.start()
        try:
            for n in (2 ** 62, 8 * 2 ** 62, 2 ** 64 - 1):
                with pytest.raises(DataError):
                    cur.take(n, "blob")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
