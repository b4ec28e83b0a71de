"""Data pipeline: WAV ingestion, cardiac-cycle segmentation, balanced
cross-validation folds, the on-disk cycle store, and a synthetic
heart-sound generator for desk-scale experiments.

Segmentation is deliberately simple: a smoothed Shannon-energy envelope,
an autocorrelation period estimate constrained to plausible heart rates,
and comb-aligned cycle anchors refined to local envelope peaks. It is
validated against synthetic recordings with known timing; real-world
segmentation quality is out of scope here.

Every file the package reads comes in through `read_input` and every file
it writes goes out through `write_output`; inside a `logged_io()` block the
two record each path with the sha256 of the bytes read or written, which is
how a command's manifest learns its inputs and outputs. `read_input` reads
regular files only: a FIFO or a device could block or never end.

The digest thread: an input of _DIGEST_THREAD_BYTES (1 MiB) or more, a
cycle store or a checkpoint, goes to one thread, started the first time
it is needed, as two plain submissions: the read, whose bytes the
command waits for, then the sha256 of those bytes, which runs while the
command goes on with them. `logged_io` waits for those digests when its
block ends, so the record is complete when the block returns. The bytes
are allocated by the thread, so under glibc they live in that thread's
malloc arena, apart from the arrays the command allocates: when the
digest ends does not change where the command's arrays are placed. The
thread reads files and runs `_sha256` only, no numpy work.
Smaller inputs, a recording or a CSV, and every output are hashed inline:
handing each of a corpus's WAVs to the thread cost more than it saved. A
forked child starts a digest thread of its own, as it does a stage pool.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import os
import stat
import struct
import wave
from concurrent.futures import Future, ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .dsp import Waveform, next_pow2, resample
from .errors import DataError, SegmentationError

PIPELINE_RATE_HZ = 1000.0
CYCLE_LEN = 2500            # 2.5 s at the pipeline rate
MIN_CYCLE_LEN = 400         # 0.4 s; anything shorter is not a plausible cycle
BPM_MIN, BPM_MAX = 35.0, 159.0

ENVELOPE_SMOOTH_S = 0.05
PERIODICITY_MIN = 0.15      # min normalized envelope autocorrelation peak

STORE_MAGIC = b"PCGCYC\x00\x01"

VALIDATION_FOLDS = (0, 1, 2, 3)
TRAIN_ONLY_FOLD = -1        # recordings kept out of every validation set
FOLDS = (TRAIN_ONLY_FOLD, *VALIDATION_FOLDS)


@dataclass(frozen=True)
class RecordingMeta:
    id: str
    label: int                    # 0 normal, 1 abnormal
    subset: str = "synthetic"

    def __post_init__(self):
        if self.label not in (0, 1):
            raise ValueError(f"label must be 0 or 1, got {self.label}")


@dataclass
class CycleRecord:
    recording_id: str
    samples: np.ndarray           # exactly CYCLE_LEN, zero beyond valid_len
    label: int
    valid_len: int
    subset: str = "synthetic"

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.samples.shape != (CYCLE_LEN,):
            raise ValueError(f"cycle must have {CYCLE_LEN} samples, got {self.samples.shape}")
        if not MIN_CYCLE_LEN <= self.valid_len <= CYCLE_LEN:
            raise ValueError(f"valid_len {self.valid_len} outside "
                             f"[{MIN_CYCLE_LEN}, {CYCLE_LEN}]")
        if self.valid_len < CYCLE_LEN and np.any(self.samples[self.valid_len:] != 0.0):
            raise ValueError("samples beyond valid_len must be zero")


# ---------------------------------------------------------------------------
# WAV + label manifest ingestion

def load_recording(wav_path: str, label: int, recording_id: str | None = None,
                   subset: str = "unknown") -> tuple[Waveform, RecordingMeta]:
    """Read a PCM16 mono WAV, normalize to [-1, 1], resample to 1000 Hz.

    Any malformed file is a DataError: a bad header, a data chunk that
    holds no frame or ends inside one, a sample rate below the pipeline
    rate (upsampling adds no band content, and a tiny rate would make the
    signal arbitrarily long) and one so high that no sample is left.
    """
    rid = recording_id or str(wav_path).rsplit("/", 1)[-1].rsplit(".", 1)[0]
    blob = read_input(wav_path)
    try:
        with wave.open(io.BytesIO(blob)) as wf:
            if wf.getnchannels() != 1:
                raise DataError(f"{rid}: only mono WAV supported, "
                                f"got {wf.getnchannels()} channels")
            if wf.getsampwidth() != 2:
                raise DataError(f"{rid}: only 16-bit PCM supported, "
                                f"got {8 * wf.getsampwidth()}-bit")
            rate = wf.getframerate()
            # the header's frame count may claim more than the file holds
            raw = wf.readframes(min(wf.getnframes(), len(blob) // 2))
    except (wave.Error, EOFError, RuntimeError) as e:
        # wave raises a bare RuntimeError for a chunk that runs past the file
        raise DataError(f"{rid}: unreadable WAV ({e or 'chunk runs past the file'})") from None
    if len(raw) < 2:
        raise DataError(f"{rid}: WAV holds no audio frames")
    if len(raw) % 2:
        raise DataError(f"{rid}: WAV data ends inside a frame ({len(raw)} bytes)")
    if rate < PIPELINE_RATE_HZ:
        raise DataError(f"{rid}: sample rate {rate} Hz is below the "
                        f"{PIPELINE_RATE_HZ:g} Hz pipeline rate")
    x = Waveform(np.frombuffer(raw, dtype="<i2").astype(np.float64) / 32768.0, float(rate))
    if rate != PIPELINE_RATE_HZ:
        try:
            x = resample(x, PIPELINE_RATE_HZ)
        except ValueError as e:     # too few frames to leave one sample
            raise DataError(f"{rid}: {e} ({len(x)} frames at {rate} Hz)") from None
    return x, RecordingMeta(id=rid, label=int(label), subset=subset)


def write_wav(path: str, x: Waveform) -> None:
    """Write a waveform as PCM16 mono (values clipped to [-1, 1))."""
    pcm = np.clip(np.round(x.samples * 32768.0), -32768, 32767).astype("<i2")
    buf = io.BytesIO()
    with wave.open(buf, "wb") as wf:
        wf.setnchannels(1)
        wf.setsampwidth(2)
        wf.setframerate(int(round(x.sample_rate_hz)))
        wf.writeframes(pcm.tobytes())
    write_output(path, buf.getvalue())


# Inputs of at least this many bytes are hashed on the digest thread.
_DIGEST_THREAD_BYTES = 1 << 20

_io_log: tuple[dict[str, str | Future], dict[str, str]] | None = None
_digester: ThreadPoolExecutor | None = None


@contextmanager
def logged_io():
    """Record the files read and written inside the block: yields the
    (inputs, outputs) dicts that `read_input` and `write_output` fill with
    str(Path(path)) -> sha256 of the bytes read or written. Inside the
    block an input's value may still be a Future of the digest thread; on
    the way out, error or not, each is replaced by its digest. Outside such
    a block nothing is recorded."""
    global _io_log
    previous = _io_log
    _io_log = ({}, {})
    try:
        yield _io_log
    finally:
        inputs = _io_log[0]
        _io_log = previous
        for path, digest in inputs.items():
            if isinstance(digest, Future):
                inputs[path] = digest.result()


def _sha256(*chunks) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()


def _digest_later(fh) -> tuple[bytes, Future]:
    """The bytes of the open file `fh`, read on the digest thread, and a
    Future of their sha256, taken there too."""
    global _digester
    if _digester is None:
        _digester = ThreadPoolExecutor(1, thread_name_prefix="pcgnet-digest")
    blob = _digester.submit(fh.read).result()
    return blob, _digester.submit(_sha256, blob)


def _drain_digests() -> None:
    """Wait until the digest thread has nothing queued, so that no digest
    is in flight when the process forks: a child could never finish it."""
    if _digester is not None:
        _digester.submit(int).result()


def _forget_digester() -> None:
    """A forked child has no digest thread: it starts one when it needs one."""
    global _digester
    _digester = None


if hasattr(os, "register_at_fork"):
    os.register_at_fork(before=_drain_digests, after_in_child=_forget_digester)


def read_input(path, error: type[Exception] = DataError) -> bytes:
    """The bytes of one input file, the one place the package opens a file
    it reads; a path that cannot be read (missing, a directory, a FIFO or a
    device) raises `error`. The type is checked before the file is opened,
    since opening a FIFO blocks until a writer comes. Inside `logged_io` the
    path and the bytes' sha256 are an input; a file of _DIGEST_THREAD_BYTES
    or more is read and hashed on the digest thread."""
    try:
        st = os.stat(path)
        if not stat.S_ISREG(st.st_mode):
            raise error(f"cannot read {path}: not a regular file")
        with open(path, "rb") as fh:
            if _io_log is not None and st.st_size >= _DIGEST_THREAD_BYTES:
                blob, digest = _digest_later(fh)
            else:
                blob = fh.read()
                digest = None if _io_log is None else _sha256(blob)
    except OSError as e:
        raise error(f"cannot read {path}: {e}") from None
    if _io_log is not None:
        _io_log[0][str(Path(path))] = digest
    return blob


def write_output(path, *chunks) -> None:
    """Write `chunks` (bytes-like, or str as UTF-8) to `path` in order, the
    one place the package opens a file it writes; the parent directory is
    made first. A path that cannot be written (under a file, a directory
    of that name) is a DataError. Inside `logged_io` the path and the
    sha256 of the bytes written are an output."""
    chunks = [c.encode() if isinstance(c, str) else c for c in chunks]
    try:
        Path(path).parent.mkdir(parents=True, exist_ok=True)
        with open(path, "wb") as fh:
            fh.writelines(chunks)
    except OSError as e:
        raise DataError(f"cannot write {path}: {e}") from None
    if _io_log is not None:
        _io_log[1][str(Path(path))] = _sha256(*chunks)


def read_text(path) -> str:
    """An input file decoded as UTF-8; any other bytes are a DataError."""
    try:
        return read_input(path).decode("utf-8")
    except UnicodeDecodeError as e:
        raise DataError(f"cannot read {path}: not UTF-8 ({e})") from None


def read_csv(path) -> list[list[str]]:
    """The rows of a UTF-8 CSV input in the default csv dialect, blank
    rows as []; a file the csv module cannot parse is a DataError."""
    try:
        return list(csv.reader(io.StringIO(read_text(path), newline="")))
    except csv.Error as e:
        raise DataError(f"cannot read {path}: {e}") from None


class ByteCursor:
    """Reads the fields of a binary input front to back. `take` and `unpack`
    check a field's length against the bytes left before they slice, so a
    corrupt length field raises `error` before anything of its size is allocated."""

    def __init__(self, blob: bytes, path, error: type[Exception] = DataError):
        self.view = memoryview(blob)
        self.pos = 0
        self.path = path
        self.error = error

    def take(self, n: int, what: str) -> memoryview:
        left = len(self.view) - self.pos
        if n > left:
            raise self.error(f"{self.path} is truncated: {what} needs {n} bytes, {left} left")
        self.pos += n
        return self.view[self.pos - n:self.pos]

    def unpack(self, fmt: str, what: str) -> tuple:
        return struct.unpack(fmt, self.take(struct.calcsize(fmt), what))


def write_csv(path, header: list[str], rows) -> None:
    """Write every CSV artifact of the pipeline: the header row, then
    `rows`, in the default csv dialect (lines end in \\r\\n). A float cell,
    Python or numpy, is written as repr(float(v)), the shortest text that
    reads back to the same double; any other cell is written as is."""
    text = io.StringIO(newline="")
    w = csv.writer(text)
    w.writerow(header)
    for row in rows:
        w.writerow([repr(float(v)) if isinstance(v, (float, np.floating)) else v
                    for v in row])
    write_output(path, text.getvalue())


def _manifest_rows(path: str, column: str) -> dict[str, str]:
    """id -> value of a two-column CSV manifest; blank rows and an
    `id,...` header are skipped. Any unreadable or short row, or an id
    listed twice, is a DataError."""
    out: dict[str, str] = {}
    for row in read_csv(path):
        if not row or row[0].strip().lower() == "id":
            continue
        if len(row) < 2:
            raise DataError(f"{path}: row {row!r} has no {column} column")
        rid = row[0].strip()
        if rid in out:
            raise DataError(f"{path}: id {rid!r} is listed twice")
        out[rid] = row[1].strip()
    if not out:
        raise DataError(f"no {column}s found in {path}")
    return out


def read_label_manifest(path: str) -> dict[str, int]:
    """CSV `id,label` with label -1 (normal) / 1 (abnormal)."""
    out: dict[str, int] = {}
    for rid, lab in _manifest_rows(path, "label").items():
        if lab not in ("-1", "1"):
            raise DataError(f"label for {rid} must be -1 or 1, got {lab!r}")
        out[rid] = 1 if lab == "1" else 0
    return out


def write_label_manifest(path: str, metas: list[RecordingMeta]) -> None:
    write_csv(path, ["id", "label"], ([m.id, 1 if m.label == 1 else -1] for m in metas))


# ---------------------------------------------------------------------------
# segmentation

def _envelope(samples: np.ndarray, rate: float) -> np.ndarray:
    peak = np.abs(samples).max()
    if peak == 0.0:
        raise ValueError("silent signal")
    xn = samples / peak
    e2 = xn * xn
    shannon = -e2 * np.log(e2 + 1e-12)
    w = max(3, int(round(ENVELOPE_SMOOTH_S * rate)))
    return np.convolve(shannon, np.ones(w) / w, mode="same")


def _period_estimate(env: np.ndarray, rate: float) -> tuple[int, float]:
    centered = env - env.mean()
    n = centered.size
    nfft = next_pow2(2 * n)
    spec = np.fft.rfft(centered, nfft)
    acorr = np.fft.irfft(spec * np.conj(spec), nfft)[:n]
    lo = int(round(rate * 60.0 / BPM_MAX))
    hi = min(int(round(rate * 60.0 / BPM_MIN)), n - 1)
    if hi <= lo or acorr[0] <= 0.0:
        return 0, 0.0
    tau = lo + int(np.argmax(acorr[lo:hi + 1]))
    return tau, float(acorr[tau] / acorr[0])


def segment_cycles(x: Waveform, recording_id: str = "?", label: int = 0,
                   subset: str = "synthetic") -> list[CycleRecord]:
    """Cut a recording into heart cycles, each zero-padded to 2.5 s.

    Raises SegmentationError when no periodicity in the 35-159 bpm range
    stands out of the envelope autocorrelation.
    """
    rate = x.sample_rate_hz
    if len(x) < 3 * rate:
        raise SegmentationError(recording_id, f"too short ({len(x) / rate:.2f} s < 3 s)")
    try:
        env = _envelope(x.samples, rate)
    except ValueError as e:
        raise SegmentationError(recording_id, str(e)) from None
    tau, strength = _period_estimate(env, rate)
    if tau == 0 or strength < PERIODICITY_MIN:
        raise SegmentationError(
            recording_id, f"no periodicity in 35-159 bpm range "
                          f"(peak autocorrelation {strength:.3f} at lag {tau})")
    # comb alignment: the offset whose tau-spaced samples collect the most
    # envelope energy marks the dominant (S1) burst phase
    m = env.size // tau
    comb = env[: m * tau].reshape(m, tau).sum(axis=0)
    phase = int(np.argmax(comb))
    anchors = []
    refine = max(1, tau // 8)
    pos = phase
    while pos < env.size:
        a, b = max(0, pos - refine), min(env.size, pos + refine + 1)
        anchors.append(a + int(np.argmax(env[a:b])))
        pos += tau
    cycles = []
    for a, b in zip(anchors, anchors[1:]):
        seg = x.samples[a:b]
        if seg.size < MIN_CYCLE_LEN:
            continue
        valid = min(seg.size, CYCLE_LEN)
        buf = np.zeros(CYCLE_LEN)
        buf[:valid] = seg[:valid]
        cycles.append(CycleRecord(recording_id=recording_id, samples=buf,
                                  label=label, valid_len=valid, subset=subset))
    if not cycles:
        raise SegmentationError(recording_id, "no usable cycles after peak picking")
    return cycles


# ---------------------------------------------------------------------------
# folds

def make_folds(metas: list[RecordingMeta], seed: int,
               pinned_fold0: list[str] | None = None) -> dict[str, int]:
    """Assign recordings to the balanced VALIDATION_FOLDS.

    Every fold's validation set holds the same number of normal and
    abnormal recordings; leftovers get TRAIN_ONLY_FOLD and appear in every
    training split. An externally supplied id list pins fold 0.
    """
    if len(metas) < 8:
        raise DataError(f"need at least 8 recordings to build folds, got {len(metas)}")
    by_id = {m.id: m for m in metas}
    if len(by_id) != len(metas):
        raise DataError("duplicate recording ids")
    labels = {m.id: m.label for m in metas}
    assignment = {m.id: TRAIN_ONLY_FOLD for m in metas}

    folds_todo = VALIDATION_FOLDS
    pool = sorted(by_id)
    if pinned_fold0 is not None:
        if not pinned_fold0:
            raise DataError("pinned fold 0 lists no recording ids")
        if len(set(pinned_fold0)) != len(pinned_fold0):
            raise DataError("pinned fold 0 lists an id twice")
        missing = [r for r in pinned_fold0 if r not in by_id]
        if missing:
            raise DataError(f"pinned fold-0 ids not in dataset: {missing[:5]}")
        n_pos = sum(labels[r] for r in pinned_fold0)
        if 2 * n_pos != len(pinned_fold0):
            raise DataError(f"pinned fold 0 is not balanced "
                            f"({n_pos} abnormal of {len(pinned_fold0)})")
        for r in pinned_fold0:
            assignment[r] = 0
        folds_todo = VALIDATION_FOLDS[1:]
        pool = [r for r in pool if assignment[r] == TRAIN_ONLY_FOLD]

    rng = np.random.default_rng(seed)
    normal = [r for r in pool if labels[r] == 0]
    abnormal = [r for r in pool if labels[r] == 1]
    per_fold = min(len(normal), len(abnormal)) // len(folds_todo)
    if per_fold < 1:
        raise DataError(f"too few of one class to balance {len(folds_todo)} validation "
                        f"sets ({len(normal)} normal / {len(abnormal)} abnormal)")
    normal = list(rng.permutation(normal))
    abnormal = list(rng.permutation(abnormal))
    for i, fold in enumerate(folds_todo):
        for r in normal[i * per_fold:(i + 1) * per_fold]:
            assignment[r] = fold
        for r in abnormal[i * per_fold:(i + 1) * per_fold]:
            assignment[r] = fold
    return assignment


def write_fold_manifest(path: str, assignment: dict[str, int]) -> None:
    write_csv(path, ["id", "fold"], ([rid, assignment[rid]] for rid in sorted(assignment)))


def read_fold_manifest(path: str) -> dict[str, int]:
    """CSV `id,fold` with fold 0..3 or TRAIN_ONLY_FOLD."""
    out: dict[str, int] = {}
    for rid, text in _manifest_rows(path, "fold").items():
        try:
            fold = int(text)
        except ValueError:
            fold = None
        if fold not in FOLDS:
            raise DataError(f"fold for {rid} must be one of "
                            f"{', '.join(map(str, FOLDS))}, got {text!r}")
        out[rid] = fold
    return out


# ---------------------------------------------------------------------------
# synthetic generator

@dataclass
class SynthRecording:
    waveform: Waveform
    meta: RecordingMeta
    bpm: float


MURMUR_BAND_HZ = (150.0, 400.0)


def synth_pcg(n_recordings: int, abnormal_fraction: float = 0.21, seed: int = 0,
              duration_s: tuple[float, float] = (6.0, 10.0),
              source_rate_hz: float = 2000.0) -> list[SynthRecording]:
    """Generate heart-sound-like recordings with known ground truth.

    Normal recordings are periodic S1/S2 burst trains plus noise; abnormal
    ones add a sustained murmur of sinusoids inside MURMUR_BAND_HZ between
    S1 and S2. Fully reproducible from the seed.
    """
    if not 0.0 <= abnormal_fraction <= 1.0:
        raise ValueError("abnormal_fraction must be in [0, 1]")
    if n_recordings < 1:
        raise ValueError("n_recordings must be >= 1")
    master = np.random.default_rng(np.random.SeedSequence(seed))
    n_abnormal = int(round(n_recordings * abnormal_fraction))
    labels = np.zeros(n_recordings, dtype=int)
    labels[:n_abnormal] = 1
    labels = labels[master.permutation(n_recordings)]
    streams = np.random.SeedSequence(seed).spawn(n_recordings + 1)[1:]

    out = []
    for i in range(n_recordings):
        rng = np.random.default_rng(streams[i])
        label = int(labels[i])
        bpm = rng.uniform(50.0, 120.0)
        dur = rng.uniform(*duration_s)
        n = int(round(dur * source_rate_hz))
        t = np.arange(n) / source_rate_hz
        period = 60.0 / bpm
        systole = 0.35 * period
        s1f = rng.uniform(30.0, 80.0)
        s2f = rng.uniform(40.0, 100.0)
        x = rng.normal(0.0, 0.02, size=n)
        if label == 1:
            murmur_freqs = rng.uniform(*MURMUR_BAND_HZ, size=6)
            murmur_phases = rng.uniform(0.0, 2.0 * np.pi, size=6)
        start = rng.uniform(0.05, 0.3)
        pos = start
        while pos < dur - 0.2:
            x += _burst(t, pos, s1f, width_s=0.045, amp=1.0)
            x += _burst(t, pos + systole, s2f, width_s=0.030, amp=0.55)
            if label == 1:
                gate = _plateau(t, pos + 0.07, pos + systole - 0.03, edge_s=0.015)
                for f, ph in zip(murmur_freqs, murmur_phases):
                    x += gate * (0.18 * np.sin(2.0 * np.pi * f * t + ph))
            pos += period
        x *= 0.9 / np.abs(x).max()
        meta = RecordingMeta(id=f"rec{i:04d}", label=label, subset="synthetic")
        out.append(SynthRecording(waveform=Waveform(x, source_rate_hz), meta=meta, bpm=bpm))
    return out


def _burst(t: np.ndarray, center_s: float, freq_hz: float, width_s: float,
           amp: float) -> np.ndarray:
    d = t - center_s
    return amp * np.exp(-0.5 * (d / width_s) ** 2) * np.sin(2.0 * np.pi * freq_hz * d)


def _plateau(t: np.ndarray, start_s: float, stop_s: float, edge_s: float) -> np.ndarray:
    if stop_s <= start_s:
        return np.zeros_like(t)
    up = 0.5 * (1.0 + np.tanh((t - start_s) / edge_s))
    down = 0.5 * (1.0 + np.tanh((stop_s - t) / edge_s))
    return up * down


# ---------------------------------------------------------------------------
# cycle store

@dataclass
class CycleStore:
    """All cycles of a dataset plus their metadata, as parallel arrays."""

    samples: np.ndarray                 # [n_cycles, CYCLE_LEN] float64
    recording_ids: list[str]
    labels: np.ndarray                  # [n_cycles] int (0/1)
    valid_lens: np.ndarray              # [n_cycles] int
    subsets: list[str] = field(default_factory=list)

    def __post_init__(self):
        n = self.samples.shape[0]
        if not self.subsets:
            self.subsets = ["unknown"] * n
        if not (len(self.recording_ids) == self.labels.size
                == self.valid_lens.size == len(self.subsets) == n):
            raise ValueError("cycle store arrays disagree in length")

    def __len__(self):
        return self.samples.shape[0]

    @classmethod
    def from_cycles(cls, cycles: list[CycleRecord]) -> "CycleStore":
        if not cycles:
            raise DataError("no cycles to store")
        return cls(samples=np.stack([c.samples for c in cycles]),
                   recording_ids=[c.recording_id for c in cycles],
                   labels=np.array([c.label for c in cycles], dtype=int),
                   valid_lens=np.array([c.valid_len for c in cycles], dtype=int),
                   subsets=[c.subset for c in cycles])

    def recording_labels(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for rid, lab in zip(self.recording_ids, self.labels):
            out[rid] = int(lab)
        return out

    def save(self, path: str) -> None:
        meta = [{"recording_id": r, "label": int(l), "valid_len": int(v), "subset": s}
                for r, l, v, s in zip(self.recording_ids, self.labels,
                                      self.valid_lens, self.subsets)]
        write_output(path, STORE_MAGIC, struct.pack("<QQ", *self.samples.shape),
                     np.ascontiguousarray(self.samples, dtype="<f8"),
                     json.dumps(meta, sort_keys=True))

    @classmethod
    def load(cls, path: str) -> "CycleStore":
        """Read a store written by `save`. Anything malformed is a DataError:
        a short file, no cycles, cycles shorter than MIN_CYCLE_LEN,
        non-finite samples, a metadata row without a string
        `recording_id`, a 0/1 `label` and an integer `valid_len` in
        [MIN_CYCLE_LEN, cycle length], or a cycle with a nonzero sample
        past its `valid_len` (the padding every CycleRecord holds as
        zeros)."""
        cur = ByteCursor(read_input(path), path)
        if cur.take(len(STORE_MAGIC), "magic") != STORE_MAGIC:
            raise DataError(f"{path} is not a cycle store")
        n, dim = cur.unpack("<QQ", "header")
        if n == 0:
            raise DataError(f"{path} holds no cycles")
        if dim < MIN_CYCLE_LEN:     # no valid_len could fit
            raise DataError(f"{path}: cycles of {dim} samples are shorter than {MIN_CYCLE_LEN}")
        raw = cur.take(8 * n * dim, f"{n} x {dim} samples")
        samples = np.frombuffer(raw, dtype="<f8").reshape(n, dim).copy()
        if not np.isfinite(samples).all():
            raise DataError(f"{path}: non-finite samples")
        try:
            meta = json.loads(bytes(cur.view[cur.pos:]).decode())
        except (UnicodeDecodeError, json.JSONDecodeError) as e:
            raise DataError(f"{path}: bad metadata trailer ({e})") from None
        if not isinstance(meta, list) or len(meta) != n:
            raise DataError(f"{path}: metadata is not a list of {n} cycle rows")
        for i, m in enumerate(meta):
            problem = _store_row_problem(m, samples[i])
            if problem:
                raise DataError(f"{path}: metadata row {i}: {problem}")
        return cls(samples=samples,
                   recording_ids=[m["recording_id"] for m in meta],
                   labels=np.array([m["label"] for m in meta], dtype=int),
                   valid_lens=np.array([m["valid_len"] for m in meta], dtype=int),
                   subsets=[m.get("subset", "unknown") for m in meta])


def _store_row_problem(row, cycle: np.ndarray) -> str | None:
    """What is wrong with one cycle store metadata row, or with the cycle
    it describes, or None."""
    if not isinstance(row, dict):
        return "not an object"
    for key, kind in (("recording_id", str), ("label", int), ("valid_len", int)):
        value = row.get(key)
        if not isinstance(value, kind) or isinstance(value, bool):
            return f"{key!r} missing or not {kind.__name__}"
    if not isinstance(row.get("subset", ""), str):
        return "'subset' not str"
    if row["label"] not in (0, 1):
        return f"label {row['label']} not 0 or 1"
    if not MIN_CYCLE_LEN <= row["valid_len"] <= cycle.size:
        return f"valid_len {row['valid_len']} outside [{MIN_CYCLE_LEN}, {cycle.size}]"
    if cycle[row["valid_len"]:].any():
        return f"nonzero samples past valid_len {row['valid_len']}"
    return None
