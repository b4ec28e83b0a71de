#!/usr/bin/env python3
"""Benchmark of the pcgnet CLI pipeline, one workload per process.

Run from the repository root:

    python3 perfbench/run.py --workload train_lp --seed 1 --seconds 25 --trace 0

Workloads (BENCHMARK.json records why each exists):

  train_lp  `pcgnet train --frontend lp --init fir --batch-size 64 --epochs 1`
            on each of the four folds in turn, each call followed by
            `pcgnet eval` of the checkpoint it wrote;
  train_zp  the same with `--frontend zp`;
  screen    `pcgnet ingest` of a WAV directory, then `pcgnet eval` of every
            cycle with four checkpoints made in set-up: baseline, tconv
            frozen at its FIR init, lp and zp.

Each set-up synthesizes its own corpus of recordings. Each iteration first
ingests every corpus and works on corpus 0's store. Every command
runs in this process through `pcgnet.cli.main`, on files that `pcgnet synth`
generates from --seed; the program itself never sees the seed.

Set-up (synth, ingest, folds and, in screen, the checkpoints) runs several
times and `setup_s` is its median. Then iterations run until --seconds have
passed. With --trace 0 the last line of stdout is a JSON object whose
metrics are the end-to-end metrics of BENCHMARK.json. With --trace 1
iterations alternate traced and untraced on the same inputs; the traced
ones give the per-layer metrics, the pairs give the tracing overhead, and
the spans are written to perfbench/.out/.

Output checks count toward `failed` in the result: every CLI call exits 0,
history.csv holds finite values, a trained lp kernel is exactly symmetric,
the frozen-FIR tconv scores the same counts as the baseline, every ingest
writes the same store bytes as set-up, and a fold trained twice writes the
same checkpoint bytes.
"""

from __future__ import annotations

import argparse
import csv
import ctypes
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import traceback
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("train_lp", "train_zp", "screen")

ABNORMAL_FRACTION = 0.5   # balanced folds: a quarter of all recordings per fold
FOLDS = 4
EPOCHS = 1
BATCH = 64
SCREEN_CHECKPOINTS = ("baseline", "tconv", "lp", "zp")
# Screen sets up once per fold, on that fold's corpus, and trains the fold's
# lp checkpoint. Set-up 0 holds the process's first training call, a warm-up
# that is not sampled, so set-up 0 is repeated at the end.
SCREEN_SETUP_FOLDS = (0, 1, 2, 3, 0)
# Each set-up synthesizes its own corpus, with `pcgnet synth --seed` set to
# --seed * CORPUS_STRIDE + corpus index. Ingest spends half its time in FFTs
# of each recording's length, whose cost depends on how that length factors,
# so one corpus of 24-32 recordings ingests up to a quarter faster or slower
# than another; an ingest sample covers every corpus (96 recordings).
CORPUS_STRIDE = 1000

# Median time of SpeedProbe.task on the reference host (2 vCPUs of an
# "Intel(R) Xeon(R) Processor", numpy 2.4.6, OpenBLAS 0.3.31); setup_s and
# the rates are reported at that speed.
PROBE_REF_S = 0.04

SCALES = {
    # recordings per corpus, and corpora (set-ups) of the train workloads
    "full": {"train_recordings": 32, "screen_recordings": 24, "corpora": 3},
    "tiny": {"train_recordings": 16, "screen_recordings": 16, "corpora": 2},
}

# Printed with the end-to-end metrics but left out of BENCHMARK.json: on 24
# to 32 synthetic recordings a one-epoch model sits near chance, and this
# figure's spread across seeds (a quarter of its median) is data, not code.
UNBOUNDED_UNITS = {"val_cycle_acc_pct": "%"}

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def cap_blas_threads() -> int:
    """Cap BLAS threads at the CPUs this process may use; call before numpy
    is imported."""
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        try:
            want = int(os.environ.get(var, nproc))
        except ValueError:
            want = nproc
        os.environ[var] = str(max(1, min(want, nproc)))
    return nproc


def keep_heap() -> str:
    """Have glibc serve every allocation from its heap and keep freed memory
    there (mallopt M_MMAP_MAX=0, M_TRIM_THRESHOLD at its maximum).

    By default each array above the mmap threshold is a fresh mapping whose
    pages fault in on first touch. On a small VM those faults took 30-40% of
    an eval forward and their cost followed the host's memory load: a call
    varied by a quarter and 25-second medians drifted by a fifth. With the
    heap kept, the timed phase reuses pages that set-up already touched;
    allocation volume still shows in autodiff.out_bytes_per_step.
    """
    M_TRIM_THRESHOLD, M_MMAP_MAX = -1, -4
    try:
        libc = ctypes.CDLL(None)
        ok = (libc.mallopt(M_MMAP_MAX, 0) == 1 and
              libc.mallopt(M_TRIM_THRESHOLD, 2**31 - 1) == 1)
    except (OSError, AttributeError):   # not glibc
        ok = False
    return "heap kept, no mmap" if ok else "default"


def import_pcgnet():
    """pcgnet.cli from this checkout's src/, never from an installed copy."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import pcgnet
        import pcgnet.cli
    except ImportError as e:
        raise SystemExit(f"perfbench: cannot import pcgnet from {src}: {e}")
    if Path(pcgnet.__file__).resolve().parent.parent != src.resolve():
        raise SystemExit(f"perfbench: pcgnet imported from {pcgnet.__file__}, not {src}")
    return pcgnet.cli


def environment(nproc: int, malloc: str) -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_version = "unknown"
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    env = {"python": platform.python_version(), "numpy": np.__version__,
           "blas": blas_version, "nproc": nproc, "cpu": cpu, "malloc": malloc}
    env.update({var: os.environ[var] for var in BLAS_THREAD_VARS})
    return env


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def median(values) -> float:
    return statistics.median(values) if values else float("nan")


class Session:
    """Runs CLI commands in-process and counts calls and output checks."""

    def __init__(self, cli_main, tracer=None):
        self.cli_main = cli_main
        self.tracer = tracer
        self.tracing = False
        self.attempted = 0
        self.failed = 0

    def call(self, *argv) -> float:
        """Run one `pcgnet` command; returns its wall time in seconds."""
        argv = [str(a) for a in argv]
        err = io.StringIO()
        span = self.tracer.span(f"cli.{argv[0]}") if self.tracing else nullcontext()
        t0 = perf_counter()
        with span, redirect_stdout(io.StringIO()), redirect_stderr(err):
            try:
                rc = self.cli_main(argv)
            except SystemExit as e:
                rc = e.code
            except Exception:
                traceback.print_exc()
                rc = "an exception"
        wall = perf_counter() - t0
        self.check(rc == 0, f"pcgnet {' '.join(argv)} exited with {rc}: "
                            f"{err.getvalue().strip()}")
        return wall

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"perfbench: check failed: {what}", file=sys.stderr)
        return ok


class Dataset:
    """One synth -> ingest -> folds output directory."""

    def __init__(self, root: Path):
        self.root = root
        self.wav_dir = root / "data" / "wav"
        self.labels = root / "data" / "labels.csv"
        self.store = root / "store" / "cycles.bin"
        self.folds = root / "folds" / "folds.csv"

    def create(self, s: Session, n: int, seed: int) -> None:
        s.call("synth", "--n", n, "--abnormal-fraction", ABNORMAL_FRACTION,
               "--seed", seed, "--out", self.root / "data")
        s.call("ingest", "--wav-dir", self.wav_dir, "--labels", self.labels,
               "--out", self.root / "store")
        s.call("folds", "--cycles", self.store, "--seed", seed, "--out", self.root / "folds")

    def describe(self) -> None:
        from pcgnet.data import CycleStore, read_fold_manifest
        store = CycleStore.load(str(self.store))
        folds = read_fold_manifest(str(self.folds))
        of_cycle = [folds[r] for r in store.recording_ids]
        self.n_cycles = len(store)
        self.n_recordings = len(list(self.wav_dir.glob("*.wav")))
        self.n_val = {f: of_cycle.count(f) for f in range(FOLDS)}
        self.n_train = {f: self.n_cycles - self.n_val[f] for f in range(FOLDS)}
        self.store_sha = sha256(self.store)


def read_history(s: Session, path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    finite = all(math.isfinite(float(r[k])) for r in rows
                 for k in ("train_loss", "val_macc_pct", "val_cycle_acc"))
    s.check(len(rows) == EPOCHS and finite,
            f"{path}: want {EPOCHS} epoch rows of finite values, got {rows}")
    return rows


def check_lp_symmetric(s: Session, ckpt: Path) -> None:
    import numpy as np
    from pcgnet.model import load
    kern = load(str(ckpt)).frontend.materialized_kernel().data
    s.check(np.array_equal(kern, kern[..., ::-1]),
            f"{ckpt}: linear-phase kernel is not exactly symmetric")


class Quality:
    """Last-epoch train loss and validation cycle accuracy, one per fold."""

    def __init__(self):
        self.loss: dict[int, float] = {}
        self.acc: dict[int, float] = {}
        self.n_val: dict[int, int] = {}

    def add(self, fold: int, history: list[dict], ds: Dataset) -> None:
        if history:
            self.loss[fold] = float(history[-1]["train_loss"])
            self.acc[fold] = float(history[-1]["val_cycle_acc"])
            self.n_val[fold] = ds.n_val[fold]

    def metrics(self) -> dict:
        folds = sorted(self.acc)
        if not folds:
            return {"train_loss_last": (math.nan, 0), "val_cycle_acc_pct": (math.nan, 0)}
        pooled = (sum(self.acc[f] * self.n_val[f] for f in folds) /
                  sum(self.n_val[f] for f in folds))
        return {"train_loss_last": (statistics.fmean(self.loss[f] for f in folds), len(folds)),
                "val_cycle_acc_pct": (100.0 * pooled, len(folds))}


class SpeedProbe:
    """A fixed task that pcgnet never runs, timed beside the workload to
    tell how fast the host is at that moment.

    The host's speed drifts by up to a fifth over tens of seconds, and every
    CLI command slows down with it, so whole runs read fast or slow. The
    task mixes what the commands spend their time on: an im2col copy, a
    matrix product, element-wise and reduction passes over a few MB, an FFT,
    sha256 and a Python loop. speed() is PROBE_REF_S over the median task
    time of the whole run; a rate divided by it, or a time multiplied by it,
    reads as at the reference speed. Measured beside the workload on one
    host, the ratio of a command's time to the task's time stayed within 3%
    over 15-second blocks where the raw times drifted by 15%. One task
    varies by about a tenth, so the run's median is used, not the latest.

    Over 15 runs of screen spread across an hour, scaling narrowed the
    quartile spread of train_cycles_per_s from 0.15 to 0.07, of
    ingest_recordings_per_s from 0.23 to 0.08 and of eval_cycles_per_s from
    0.17 to 0.05. Within shorter stretches the task sometimes read slow
    while eval, which waits on memory bandwidth more than the task does,
    did not: in one set of five runs scaling widened eval's spread from
    0.06 to 0.17.
    """

    repeats = 5

    def __init__(self):
        import numpy as np
        rng = np.random.default_rng(0)
        self.frames = rng.standard_normal((32, 8, 2500))
        self.weights = rng.standard_normal((40, 16))
        self.signal = rng.standard_normal(1 << 15)
        self.blob = rng.bytes(1 << 20)
        self.times: list[float] = []
        for _ in range(2):
            self.task()

    def task(self) -> float:
        import numpy as np
        t0 = perf_counter()
        win = np.lib.stride_tricks.sliding_window_view(self.frames, 5, axis=2)
        cols = np.ascontiguousarray(win.transpose(0, 2, 1, 3)).reshape(-1, 40)
        y = np.maximum(cols @ self.weights, 0.0)
        y = (y - y.mean(axis=0)) / np.sqrt(y.var(axis=0) + 1e-5)
        np.fft.irfft(np.fft.rfft(self.signal) * 0.5)
        hashlib.sha256(self.blob).digest()
        acc = 0
        for i in range(20000):
            acc += i & 7
        return perf_counter() - t0

    def sample(self) -> None:
        self.times.extend(self.task() for _ in range(self.repeats))

    def speed(self) -> float:
        return PROBE_REF_S / median(self.times)


class Workload:
    """Set-up, then iterations of CLI calls; each iteration returns lists
    of timing samples, which the loop keeps once the warm-up is over.

    Every set-up and iteration is preceded by SpeedProbe.sample(); setup_s
    and the rates are reported at the reference speed."""

    warmup = 0      # untimed iterations before the clock starts
    min_steps = 1   # iterations an untraced run makes whatever --seconds says

    def __init__(self, s: Session, work: Path, seed: int, scale: dict):
        self.s, self.work, self.seed, self.scale = s, work, seed, scale
        self.probe = SpeedProbe()
        self.setup_s: list[float] = []
        self.samples: dict[str, list[float]] = {
            "train_cycles_per_s": [], "ingest_recordings_per_s": [], "eval_cycles_per_s": []}
        self.quality = Quality()

    def add_rates(self, rates: dict[str, list[float]]) -> None:
        for k, values in rates.items():
            self.samples[k].extend(values)

    def make_corpora(self, n_recordings: int, folds) -> list[Dataset]:
        """One timed set-up per entry of `folds`, on corpus `fold`; each runs
        extra_setup(ds, fold) after synth, ingest and folds."""
        sets = []
        for k, fold in enumerate(folds):
            self.probe.sample()
            t0 = perf_counter()
            ds = Dataset(self.work / f"setup{k}")
            ds.create(self.s, n_recordings, self.seed * CORPUS_STRIDE + fold)
            self.extra_setup(ds, fold)
            self.setup_s.append(perf_counter() - t0)
            ds.describe()
            sets.append(ds)
        self.corpora = sets[:len(set(folds))]
        self.ds = sets[0]
        return sets

    def extra_setup(self, ds: Dataset, fold: int) -> None:
        pass

    def ingest(self, it: Path) -> dict:
        """Ingest every corpus, corpus k into it/store{k}; one sample."""
        walls = [self.s.call("ingest", "--wav-dir", ds.wav_dir, "--labels", ds.labels,
                             "--out", it / f"store{k}") for k, ds in enumerate(self.corpora)]
        n = sum(ds.n_recordings for ds in self.corpora)
        return {"ingest_recordings_per_s": [n / sum(walls)]}

    def verify_ingest(self, it: Path) -> None:
        for k, ds in enumerate(self.corpora):
            self.s.check(sha256(it / f"store{k}" / "cycles.bin") == ds.store_sha,
                         "ingest wrote a store that differs from set-up on the same seed")

    def raw_metrics(self) -> dict:
        """Medians as measured, with their sample counts."""
        out = {k: (median(v), len(v)) for k, v in self.samples.items()}
        out["setup_s"] = (median(self.setup_s), len(self.setup_s))
        return out

    def metrics(self) -> dict:
        """raw_metrics at the reference speed, and the quality figures."""
        speed = self.probe.speed()
        out = {k: (v * speed if k == "setup_s" else v / speed, n)
               for k, (v, n) in self.raw_metrics().items()}
        out.update(self.quality.metrics())
        return out


class TrainWorkload(Workload):
    warmup = 1         # the first training call in a process runs 15-30% slower
    min_steps = FOLDS  # one call per fold, for the pooled quality figures

    def __init__(self, s: Session, work: Path, seed: int, scale: dict, frontend: str):
        super().__init__(s, work, seed, scale)
        self.frontend = frontend
        self.ckpt_sha: dict[int, str] = {}

    def setup(self) -> None:
        """One set-up per corpus; training and eval use corpus 0."""
        self.make_corpora(self.scale["train_recordings"], range(self.scale["corpora"]))

    def iteration(self, it: Path, step: int) -> dict:
        s, ds = self.s, self.ds
        fold = step % FOLDS
        out = self.ingest(it)
        wall = s.call("train", "--cycles", it / "store0" / "cycles.bin", "--folds", ds.folds,
                      "--fold", fold, "--frontend", self.frontend, "--init", "fir",
                      "--epochs", EPOCHS, "--batch-size", BATCH, "--out", it / "run")
        out["train_cycles_per_s"] = [EPOCHS * ds.n_train[fold] / wall]
        wall = s.call("eval", "--ckpt", it / "run" / "checkpoint.ckpt",
                      "--cycles", it / "store0" / "cycles.bin", "--folds", ds.folds,
                      "--fold", fold, "--out", it / "run")
        out["eval_cycles_per_s"] = [ds.n_val[fold] / wall]
        return out

    def verify(self, it: Path, step: int) -> None:
        s, fold = self.s, step % FOLDS
        self.verify_ingest(it)
        ckpt = it / "run" / "checkpoint.ckpt"
        self.quality.add(fold, read_history(s, it / "run" / "history.csv"), self.ds)
        digest = sha256(ckpt)
        s.check(self.ckpt_sha.setdefault(fold, digest) == digest,
                f"fold {fold} trained twice gave different checkpoints")
        if self.frontend == "lp":
            check_lp_symmetric(s, ckpt)


class ScreenWorkload(Workload):
    def setup(self) -> None:
        """One set-up per entry of SCREEN_SETUP_FOLDS; the timed phase
        screens corpus 0 with set-up 0's checkpoints."""
        self.train_walls: list[float] = []
        sets = self.make_corpora(self.scale["screen_recordings"], SCREEN_SETUP_FOLDS)
        self.add_rates({"train_cycles_per_s": [
            EPOCHS * ds.n_train[fold] / wall for ds, fold, wall in
            zip(sets[1:], SCREEN_SETUP_FOLDS[1:], self.train_walls[1:])]})
        ckpt_sha: dict[int, str] = {}
        for ds, fold in zip(sets, SCREEN_SETUP_FOLDS):
            lp = ds.root / "ckpt" / "lp"
            self.quality.add(fold, read_history(self.s, lp / "history.csv"), ds)
            check_lp_symmetric(self.s, lp / "checkpoint.ckpt")
            digest = sha256(lp / "checkpoint.ckpt")
            self.s.check(ckpt_sha.setdefault(fold, digest) == digest,
                         f"set-up of fold {fold} repeated gave a different checkpoint")
        self.s.check(sets[-1].store_sha == self.ds.store_sha,
                     "set-up 0 repeated on the same seed gave a different store")

    def extra_setup(self, ds: Dataset, fold: int) -> None:
        """Checkpoints baseline, tconv and zp at their init; lp trained on
        `fold`; a fold file that puts every cycle in fold 0."""
        every_cycle = ds.root / "folds" / "every_cycle.csv"
        with open(ds.labels, newline="") as src, open(every_cycle, "w", newline="") as dst:
            w = csv.writer(dst)
            w.writerow(["id", "fold"])
            w.writerows([row["id"], 0] for row in csv.DictReader(src))
        common = ("--cycles", ds.store, "--folds", ds.folds, "--init", "fir")
        for name, extra in (("baseline", ()), ("tconv", ("--no-trainable",)), ("zp", ())):
            self.s.call("train", *common, "--fold", 0, "--frontend", name, *extra,
                        "--epochs", 0, "--out", ds.root / "ckpt" / name)
        self.train_walls.append(self.s.call(
            "train", *common, "--fold", fold, "--frontend", "lp",
            "--epochs", EPOCHS, "--batch-size", BATCH, "--out", ds.root / "ckpt" / "lp"))

    def iteration(self, it: Path, step: int) -> dict:
        s, ds = self.s, self.ds
        out = self.ingest(it)
        total = 0.0
        for name in SCREEN_CHECKPOINTS:
            total += s.call("eval", "--ckpt", ds.root / "ckpt" / name / "checkpoint.ckpt",
                            "--cycles", it / "store0" / "cycles.bin",
                            "--folds", ds.root / "folds" / "every_cycle.csv", "--fold", 0,
                            "--out", it / name)
        out["eval_cycles_per_s"] = [len(SCREEN_CHECKPOINTS) * ds.n_cycles / total]
        return out

    def verify(self, it: Path, step: int) -> None:
        self.verify_ingest(it)

        def counts(name):
            with open(it / name / "eval.csv", newline="") as fh:
                row = next(csv.DictReader(fh))
            return [int(row[k]) for k in ("tp", "tn", "fp", "fn")]

        self.s.check(counts("tconv") == counts("baseline"),
                     "frozen-FIR tconv and baseline disagree on the confusion counts")


def timed_loop(wl: Workload, work: Path, seconds: int, tracer) -> dict[bool, list[float]]:
    """Run the warm-up, then iterations until `seconds` have passed. With a
    tracer, every other iteration is traced and is followed by an untraced
    one on the same inputs. Returns iteration wall times keyed by traced."""
    walls: dict[bool, list[float]] = {True: [], False: []}

    def one(i: int, step: int, traced: bool, record: bool) -> None:
        it = work / f"iter{i}"
        wl.probe.sample()
        if traced:
            tracer.run = i
            tracer.install()
            wl.s.tracing = True
        t0 = perf_counter()
        try:
            samples = wl.iteration(it, step)
        finally:
            if traced:
                wl.s.tracing = False
                tracer.uninstall()
        walls[traced].append(perf_counter() - t0)
        if record:
            wl.add_rates(samples)
        try:
            wl.verify(it, step)
        except Exception as e:   # missing or unreadable outputs of a failed call
            wl.s.check(False, f"iteration {i}: cannot read outputs: {e!r}")
        shutil.rmtree(it, ignore_errors=True)

    for i in range(wl.warmup):
        one(i, i, traced=False, record=False)
    walls[False].clear()
    start = perf_counter()
    timed = 0
    least = 2 if tracer else wl.min_steps - wl.warmup
    while timed < least or perf_counter() - start < seconds:
        i = wl.warmup + timed
        if tracer:
            traced, step = timed % 2 == 0, wl.warmup + timed // 2
        else:
            traced, step = False, i
        one(i, step, traced, record=tracer is None)
        timed += 1
    return walls


def parse_args(argv):
    p = argparse.ArgumentParser(description="pcgnet benchmark")
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=25)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=sorted(SCALES), default="full",
                   help="data sizes; tiny is for the self-test")
    return p.parse_args(argv)


def trace_path(workload: str, seed: int) -> Path:
    return HERE / ".out" / f"trace-{workload}-s{seed}.json"


def main(argv=None) -> int:
    args = parse_args(argv)
    nproc = cap_blas_threads()
    malloc = keep_heap()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    cli = import_pcgnet()
    from spans import Tracer, check_nesting, layer_metrics, self_time_table

    env = environment(nproc, malloc)
    tracer = Tracer() if args.trace else None
    s = Session(cli.main, tracer)
    scale = SCALES[args.scale]
    work = HERE / ".work" / f"{args.workload}-s{args.seed}-{os.getpid()}"
    if args.workload == "screen":
        wl = ScreenWorkload(s, work, args.seed, scale)
    else:
        wl = TrainWorkload(s, work, args.seed, scale, args.workload.split("_")[1])
    try:
        wl.setup()
        walls = timed_loop(wl, work, args.seconds, tracer)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} scale={args.scale}")
    print("env " + json.dumps(env, sort_keys=True))
    if args.trace:
        wanted = spec["per_layer"]
        values, counts = layer_metrics(tracer.spans, EPOCHS)
        pairs = list(zip(walls[True], walls[False]))
        values["trace.overhead_pct"] = median([100.0 * (t / u - 1.0) for t, u in pairs])
        problems = check_nesting(tracer.spans)
        s.check(not problems, "span nesting: " + "; ".join(problems[:3]))
        for line in self_time_table(tracer.spans):
            print(line)
        print(f"traced/untraced iteration pairs: {len(pairs)}; " +
              ", ".join(f"{k} {v}" for k, v in counts.items()))
        samples, raw = {}, {}
        trace_path(args.workload, args.seed).parent.mkdir(exist_ok=True)
        trace_path(args.workload, args.seed).write_text(json.dumps(
            {"workload": args.workload, "seed": args.seed, "env": env,
             "metrics": values, "spans": tracer.spans}))
    else:
        wanted = spec["end_to_end"]
        measured = wl.metrics()
        measured["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1)
        values = {k: v for k, (v, _) in measured.items()}
        samples = {k: n for k, (_, n) in measured.items()}
        raw = {k: v for k, (v, _) in wl.raw_metrics().items()}
        print(f"probe task s: median {median(wl.probe.times):.4g} of {len(wl.probe.times)}, "
              f"reference {PROBE_REF_S}; speed {wl.probe.speed():.4g}")
        print("raw samples setup_s: " + " ".join(f"{x:.4g}" for x in wl.setup_s))
        for k, v in wl.samples.items():
            print(f"raw samples {k}: " + " ".join(f"{x:.4g}" for x in v))

    units = {m["name"]: m["unit"] for m in wanted}
    units.update({k: u for k, u in UNBOUNDED_UNITS.items() if k in values})
    if set(values) != set(units):
        raise SystemExit(f"perfbench: metrics {sorted(set(values) ^ set(units))} "
                         "do not match BENCHMARK.json")
    print(f"{'metric':34s} {'value':>12s} {'raw':>12s} {'unit':10s} {'n':>4s}")
    for name, unit in units.items():
        print(f"{name:34s} {values[name]:12.6g} {raw.get(name, values[name]):12.6g} "
              f"{unit:10s} {samples.get(name, '')!s:>4s}")
    print(f"{'failed_ops_ratio':34s} {s.failed / max(s.attempted, 1):12.6g} {'':12s} "
          f"{'ratio':10s} {s.attempted:4d}")
    correct = s.failed == 0 and all(math.isfinite(v) for v in values.values())
    result = {"correct": correct, "attempted": s.attempted, "failed": s.failed,
              "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                          for m in wanted}}
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
