"""Command-line pipeline: filter design, data synthesis and ingestion,
fold creation, training, evaluation, reporting, and checkpoint analysis.

Every command writes its artifacts under --out; `main` then drops a
manifest.json there recording the command line, seed, config hash (train),
the files the command read and wrote, each with the sha256 of the bytes it
parsed or wrote (data.logged_io), its wall time (`wall_s`), the process's
peak resident set size so far (`peak_rss_mb`) and an environment block
(Python, numpy, BLAS thread variables and the BLAS threads in use, CPUs
available, stage workers). A command is `fn(args, out)`: it reads through
data.read_input, writes through data.write_output and knows nothing of the
manifest. Reruns with identical inputs and seed reproduce the output digests
exactly, whatever the environment; `wall_s`, `peak_rss_mb` and `created_utc`
are measurements, not outputs, and may differ.

Every command runs BLAS on the calling thread, whatever
OPENBLAS_NUM_THREADS says (autodiff.blas_on_calling_thread): OpenBLAS's
helper threads spin after each large product and would take a core from
the stage workers. The previous thread count is back when main returns.

Exit codes: 0 success, 2 usage error, 3 data error (an input that cannot
be read or an output that cannot be written included), 4 numerical abort.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from . import autodiff as ad
from . import data as dat
from . import fir
from . import model as mdl
from . import training as trn
from .dsp import LTSA_WINDOW, Waveform, ltsa
from .errors import DataError, NumericalAbort

FRONTEND_ALIASES = {alias: value for value, (alias, _, _) in mdl.FRONTENDS.items()}
INIT_ALIASES = {alias: value for value, (alias, _) in mdl.INITS.items()}
RESPONSE_POINTS = 512       # --points default of design, response and analyze
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _environment() -> dict:
    """What a run's speed depends on, not its artifacts: Python and numpy
    versions, the BLAS thread variables, the threads OpenBLAS runs on inside
    the command (None without its thread API), the CPUs this process may use
    and the stage workers of the grouped branch convolutions. The other
    split ops may use more, up to the CPUs: the stage nodes split by
    channel pair, and the FFT convolutions (the baseline's fixed bank among
    them) by batch row. No result depends on any of these counts."""
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
            "blas_threads_in_use": ad.blas_threads_in_use(),
            "cpus_available": ad.available_cpus(),
            "stage_workers": ad.stage_workers(mdl.NetworkConfig.bands)}


def _write_response_csv(path: Path, filt: fir.FirFilter, n_points: int) -> None:
    dat.write_csv(path, ["freq_hz", "magnitude_db", "phase_rad"],
                  zip(*fir.frequency_response(filt, n_points)))


# ---------------------------------------------------------------------------
# commands

def cmd_design(args, out: Path) -> None:
    if args.bank:
        bank = fir.default_bank(args.rate, args.order)
        dat.write_output(out / "bank.json", fir.bank_to_json(bank))
        for i, f in enumerate(bank.filters):
            _write_response_csv(out / f"response_band{i}.csv", f, args.points)
    else:
        if args.lo is None or args.hi is None:
            raise ValueError("single-filter design needs --lo and --hi (or use --bank)")
        filt = fir.design_bandpass(args.lo, args.hi, args.order, args.rate)
        dat.write_output(out / "filter.json", fir.filter_to_json(filt))
        _write_response_csv(out / "response.csv", filt, args.points)


def cmd_response(args, out: Path) -> None:
    filt = fir.filter_from_json(dat.read_input(args.filter))
    _write_response_csv(out / "response.csv", filt, args.points)


def cmd_synth(args, out: Path) -> None:
    recs = dat.synth_pcg(args.n, args.abnormal_fraction, args.seed)
    for rec in recs:
        dat.write_wav(out / "wav" / f"{rec.meta.id}.wav", rec.waveform)
    dat.write_label_manifest(out / "labels.csv", [r.meta for r in recs])
    n_abn = sum(r.meta.label for r in recs)
    print(f"synthesized {len(recs)} recordings: {len(recs) - n_abn} normal, "
          f"{n_abn} abnormal")


def cmd_ingest(args, out: Path) -> None:
    labels = dat.read_label_manifest(args.labels)
    wav_dir = Path(args.wav_dir)
    wavs = sorted(wav_dir.glob("*.wav"))
    if not wavs:
        raise DataError(f"no WAV files in {wav_dir}")
    cycles = []
    skipped = []
    for path in wavs:
        rid = path.stem
        if rid not in labels:
            skipped.append((rid, "no label in manifest"))
            continue
        wf, meta = dat.load_recording(str(path), labels[rid], recording_id=rid,
                                      subset=args.subset)
        try:
            cycles.extend(dat.segment_cycles(wf, recording_id=meta.id,
                                             label=meta.label, subset=meta.subset))
        except dat.SegmentationError as e:
            skipped.append((rid, e.reason))
    if not cycles:
        reasons = "; ".join(f"{rid}: {reason}" for rid, reason in skipped)
        raise DataError(f"no recordings produced cycles ({reasons})")
    for rid, reason in skipped:
        print(f"skipped {rid}: {reason}", file=sys.stderr)
    store = dat.CycleStore.from_cycles(cycles)
    store.save(out / "cycles.bin")
    print(f"ingested {len(wavs) - len(skipped)}/{len(wavs)} recordings "
          f"-> {len(store)} cycles")


def cmd_folds(args, out: Path) -> None:
    store = dat.CycleStore.load(args.cycles)
    rec_labels = store.recording_labels()
    metas = [dat.RecordingMeta(id=r, label=l) for r, l in sorted(rec_labels.items())]
    pinned = None
    if args.pin_fold0:
        text = dat.read_text(args.pin_fold0)
        pinned = [line.strip() for line in text.splitlines() if line.strip()]
    assignment = dat.make_folds(metas, args.seed, pinned_fold0=pinned)
    dat.write_fold_manifest(out / "folds.csv", assignment)
    print("fold  normal  abnormal")
    for fold in (*dat.VALIDATION_FOLDS, dat.TRAIN_ONLY_FOLD):
        ids = [r for r, f in assignment.items() if f == fold]
        n_abn = sum(rec_labels[r] for r in ids)
        tag = str(fold) if fold != dat.TRAIN_ONLY_FOLD else "train-only"
        print(f"{tag:>10}  {len(ids) - n_abn:6d}  {n_abn:8d}")


# --config keys, by the config object each one sets
NETWORK_KEYS = ("dropout", "l2_conv", "pool", "kernel_len")
TRAIN_KEYS = ("lr0", "lr_decay", "batch_size", "epochs", "class_weights")


def _read_config(path: str | None) -> dict:
    if path is None:
        return {}
    overrides = json.loads(dat.read_input(path, ValueError))
    if not isinstance(overrides, dict):
        raise ValueError(f"config {path} must hold a JSON object")
    unknown = sorted(set(overrides) - set(NETWORK_KEYS) - set(TRAIN_KEYS))
    if unknown:
        raise ValueError(f"unknown config key(s) in {path}: {', '.join(unknown)}")
    return overrides


def _network_config(args, overrides: dict, input_len: int) -> mdl.NetworkConfig:
    fields = {
        "frontend": FRONTEND_ALIASES[args.frontend],
        "init": INIT_ALIASES[args.init],
        "frontend_trainable": args.trainable,
        "input_len": input_len,
        "seed": args.seed,
    }
    fields.update((k, v) for k, v in overrides.items() if k in NETWORK_KEYS)
    return mdl.NetworkConfig(**fields)


def _train_config(args, overrides: dict) -> trn.TrainConfig:
    cfg = trn.TrainConfig(seed=args.seed)
    keys = {k: v for k, v in overrides.items() if k in TRAIN_KEYS}
    if isinstance(keys.get("class_weights"), list):
        keys["class_weights"] = tuple(keys["class_weights"])
    cfg = replace(cfg, **keys)
    if args.epochs is not None:
        cfg = replace(cfg, epochs=args.epochs)
    if args.batch_size is not None:
        cfg = replace(cfg, batch_size=args.batch_size)
    return cfg


def cmd_train(args, out: Path) -> dict:
    """Train one fold; returns the config the manifest hashes."""
    overrides = _read_config(args.config)
    train_cfg = _train_config(args, overrides)
    store = dat.CycleStore.load(args.cycles)
    # the network's input length is the store's cycle length
    net_cfg = _network_config(args, overrides, store.samples.shape[1])
    folds = dat.read_fold_manifest(args.folds)
    net = mdl.build(net_cfg)
    net, history = trn.train_fold(net, store, folds, args.fold, train_cfg)
    mdl.save(net, str(out / "checkpoint.ckpt"))
    dat.write_csv(out / "history.csv", ["epoch", "train_loss", "val_macc_pct", "val_cycle_acc"],
                  ([h.epoch, h.train_loss, h.val_macc_pct, h.val_cycle_acc] for h in history))
    best = max((h.val_macc_pct for h in history), default=float("nan"))
    print(f"{mdl.config_name(net_cfg)} fold {args.fold}: best val Macc "
          f"{trn.round2(best) if history else 'n/a'}")
    return {"network": asdict(net_cfg), "train": asdict(train_cfg)}


EVAL_RATES = ("sensitivity_pct", "specificity_pct", "macc_pct")


def cmd_eval(args, out: Path) -> None:
    net = mdl.load(args.ckpt)
    store = dat.CycleStore.load(args.cycles)
    folds = dat.read_fold_manifest(args.folds)
    _, val_idx = trn.split_fold(store, folds, args.fold)
    report = trn.evaluate(net, store, val_idx, fold=args.fold)
    name = args.config_name or mdl.config_name(net.config)
    dat.write_csv(out / "eval.csv", ["config", "fold", "tp", "tn", "fp", "fn", *EVAL_RATES],
                  [[name, report.fold, report.tp, report.tn, report.fp, report.fn,
                    report.sensitivity_pct, report.specificity_pct, report.macc_pct]])
    print(f"{name} fold {args.fold}: sens {trn.round2(report.sensitivity_pct)} "
          f"spec {trn.round2(report.specificity_pct)} Macc {trn.round2(report.macc_pct)}")


def _read_eval_rows(path: Path) -> list[dict]:
    """The rows of one eval CSV as {config: str, fold: in VALIDATION_FOLDS,
    each of EVAL_RATES: float in [0, 100]}; anything else is a DataError."""
    header, *rows = dat.read_csv(path) or [[]]     # an empty file has no columns
    missing = [c for c in ("config", "fold", *EVAL_RATES) if c not in header]
    if missing:
        raise DataError(f"{path} has no column {', '.join(missing)}")
    out = []
    for n, cells in enumerate((r for r in rows if r), 1):
        row = dict(zip(header, cells))
        try:
            parsed = {"config": row["config"], "fold": int(row["fold"]),
                      **{c: float(row[c]) for c in EVAL_RATES}}
            ok = (parsed["fold"] in dat.VALIDATION_FOLDS
                  and all(0.0 <= parsed[c] <= 100.0 for c in EVAL_RATES))
        except (KeyError, ValueError):   # a short row lacks a key
            ok = False
        if not ok:
            raise DataError(f"{path} row {n} is not a config name, a validation fold "
                            f"and three percentages: {row!r}")
        out.append(parsed)
    return out


def cmd_report(args, out: Path) -> None:
    runs = Path(args.runs)
    eval_files = sorted(runs.rglob("eval*.csv"))
    if not eval_files:
        raise DataError(f"no eval CSV files under {runs}")
    by_config: dict[str, list[dict]] = {}
    source: dict[tuple[str, int], Path] = {}
    for path in eval_files:
        for row in _read_eval_rows(path):
            key = (row["config"], row["fold"])
            if key in source:
                raise DataError(f"{key[0]} fold {key[1]} is in both {source[key]} and {path}")
            source[key] = path
            by_config.setdefault(row["config"], []).append(row)
    if not by_config:
        raise DataError(f"no eval rows in the eval CSV files under {runs}")
    summary = {}
    rows = []
    for name in sorted(by_config):
        folds = sorted(by_config[name], key=lambda r: r["fold"])
        sens = [r["sensitivity_pct"] for r in folds]
        spec = [r["specificity_pct"] for r in folds]
        macc = [r["macc_pct"] for r in folds]
        stats = {m: trn.cross_fold_summary(v)
                 for m, v in (("sens", sens), ("spec", spec), ("macc", macc))}
        summary[name] = {
            "folds": [r["fold"] for r in folds],
            "sensitivity_pct": sens, "specificity_pct": spec, "macc_pct": macc,
            "crossfold": {m: {"mean": s[0], "std": s[1]} for m, s in stats.items()},
        }
        # the cross-fold columns go on a config's first row only
        crossfold = [trn.round2(v) for m in ("sens", "spec", "macc") for v in stats[m]]
        for i, r in enumerate(folds):
            rows.append([name, r["fold"], trn.round2(sens[i]), trn.round2(spec[i]),
                         trn.round2(macc[i]), *(crossfold if i == 0 else [""] * 6)])
    dat.write_csv(out / "report.csv", ["config", "fold", *EVAL_RATES,
                                       "crossfold_sens_mean", "crossfold_sens_std",
                                       "crossfold_spec_mean", "crossfold_spec_std",
                                       "crossfold_macc_mean", "crossfold_macc_std"], rows)
    dat.write_output(out / "report.json", json.dumps(summary, indent=2, sort_keys=True))
    for name in sorted(summary):
        s = summary[name]["crossfold"]["macc"]
        print(f"{name}: cross-fold Macc {trn.round2(s['mean'])} (+/-{trn.round2(s['std'])})")


def cmd_analyze(args, out: Path) -> None:
    net = mdl.load(args.ckpt)
    summary: dict = {"config": asdict(net.config), "bands": []}
    if net.frontend is not None:
        kern = net.frontend.materialized_kernel().data
        dat.write_csv(out / "kernels.csv", ["band", "tap", "value"],
                      ([b, i, v] for b, taps in enumerate(kern[:, 0])
                       for i, v in enumerate(taps)))
        for b in range(kern.shape[0]):
            filt = fir.FirFilter(coeffs=kern[b, 0], order=kern.shape[2] - 1,
                                 band_lo_hz=0.0, band_hi_hz=0.0,
                                 design_rate_hz=dat.PIPELINE_RATE_HZ)
            _write_response_csv(out / f"response_band{b}.csv", filt, args.points)
            delay, resid = fir.linear_phase_deviation(filt)
            summary["bands"].append({
                "band": b,
                "group_delay_samples": delay,
                "phase_linearity_residual_rad": resid,
            })
    if args.cycles:
        store = dat.CycleStore.load(args.cycles)
        for label, tag in ((0, "normal"), (1, "abnormal")):
            profs = _label_ltsa(store, label)
            if profs is None:
                continue
            freq, avg = profs
            dat.write_csv(out / f"ltsa_{tag}.csv", ["freq_hz", "avg_log_magnitude_db"],
                          zip(freq, avg))
    dat.write_output(out / "summary.json", json.dumps(summary, indent=2, sort_keys=True))


def _label_ltsa(store: dat.CycleStore, label: int):
    """Average LTSA over the recordings of one label (padding stripped)."""
    groups: dict[str, list[int]] = {}
    for i, (rid, lab) in enumerate(zip(store.recording_ids, store.labels)):
        if lab == label:
            groups.setdefault(rid, []).append(i)
    acc = None
    count = 0
    freq = None
    for rid in sorted(groups):
        parts = [store.samples[i][: store.valid_lens[i]] for i in groups[rid]]
        signal = np.concatenate(parts)
        if signal.size < LTSA_WINDOW:
            continue
        prof = ltsa(Waveform(signal, dat.PIPELINE_RATE_HZ))
        acc = prof.avg_log_magnitude_db if acc is None else acc + prof.avg_log_magnitude_db
        freq = prof.freq_hz
        count += 1
    if acc is None:
        return None
    return freq, acc / count


# ---------------------------------------------------------------------------
# parser / entry point

def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="pcgnet",
                                description="Heart-sound classification pipeline "
                                            "with learnable FIR filter-bank front-ends")
    sub = p.add_subparsers(dest="command", required=True)

    d = sub.add_parser("design", help="design band-pass filters")
    d.add_argument("--lo", type=float, help="low band edge in Hz")
    d.add_argument("--hi", type=float, help="high band edge in Hz")
    d.add_argument("--order", type=int, default=fir.DEFAULT_ORDER)
    d.add_argument("--rate", type=float, default=dat.PIPELINE_RATE_HZ)
    d.add_argument("--bank", action="store_true", help="design all four standard bands")
    d.add_argument("--points", type=int, default=RESPONSE_POINTS)
    d.add_argument("--out", required=True)
    d.set_defaults(fn=cmd_design)

    r = sub.add_parser("response", help="frequency response of a saved filter")
    r.add_argument("--filter", required=True)
    r.add_argument("--points", type=int, default=RESPONSE_POINTS)
    r.add_argument("--out", required=True)
    r.set_defaults(fn=cmd_response)

    s = sub.add_parser("synth", help="generate synthetic heart-sound WAVs")
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--abnormal-fraction", type=float, default=0.21)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--out", required=True)
    s.set_defaults(fn=cmd_synth)

    g = sub.add_parser("ingest", help="load WAVs, segment into cycles, build the store")
    g.add_argument("--wav-dir", required=True)
    g.add_argument("--labels", required=True)
    g.add_argument("--subset", default="unknown")
    g.add_argument("--out", required=True)
    g.set_defaults(fn=cmd_ingest)

    f = sub.add_parser("folds", help="create balanced validation folds")
    f.add_argument("--cycles", required=True)
    f.add_argument("--seed", type=int, default=0)
    f.add_argument("--pin-fold0", help="file with one recording id per line")
    f.add_argument("--out", required=True)
    f.set_defaults(fn=cmd_folds)

    t = sub.add_parser("train", help="train one fold")
    t.add_argument("--cycles", required=True)
    t.add_argument("--folds", required=True)
    t.add_argument("--fold", type=int, choices=dat.VALIDATION_FOLDS, required=True)
    t.add_argument("--frontend", choices=sorted(FRONTEND_ALIASES),
                   default=mdl.FRONTENDS[mdl.NetworkConfig.frontend][0])
    t.add_argument("--init", choices=sorted(INIT_ALIASES),
                   default=mdl.INITS[mdl.NetworkConfig.init][0])
    t.add_argument("--trainable", action=argparse.BooleanOptionalAction, default=True)
    t.add_argument("--epochs", type=int)
    t.add_argument("--batch-size", type=int)
    t.add_argument("--seed", type=int, default=0)
    t.add_argument("--config", help="JSON file overriding defaults (CLI flags win)")
    t.add_argument("--out", required=True)
    t.set_defaults(fn=cmd_train)

    e = sub.add_parser("eval", help="evaluate a checkpoint on one fold")
    e.add_argument("--ckpt", required=True)
    e.add_argument("--cycles", required=True)
    e.add_argument("--folds", required=True)
    e.add_argument("--fold", type=int, choices=dat.VALIDATION_FOLDS, required=True)
    e.add_argument("--config-name")
    e.add_argument("--out", required=True)
    e.set_defaults(fn=cmd_eval)

    q = sub.add_parser("report", help="aggregate eval CSVs into a cross-fold table")
    q.add_argument("--runs", required=True)
    q.add_argument("--out", required=True)
    q.set_defaults(fn=cmd_report)

    a = sub.add_parser("analyze", help="export kernels, responses and LTSA profiles")
    a.add_argument("--ckpt", required=True)
    a.add_argument("--cycles")
    a.add_argument("--points", type=int, default=RESPONSE_POINTS)
    a.add_argument("--out", required=True)
    a.set_defaults(fn=cmd_analyze)
    return p


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    args = build_parser().parse_args(argv)
    out = Path(args.out)
    try:
        with ad.blas_on_calling_thread():
            start = time.perf_counter()
            with dat.logged_io() as (inputs, outputs):
                config = args.fn(args, out)
            config_hash = None if config is None else dat._sha256(
                json.dumps(config, sort_keys=True).encode())
            manifest = {
                "command": argv,
                "seed": getattr(args, "seed", None),
                "config_hash": config_hash,
                "inputs": inputs,
                "outputs": outputs,
                "created_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
                "wall_s": time.perf_counter() - start,
                # the process's peak so far; ru_maxrss is in KiB on Linux
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "environment": _environment(),
            }
            dat.write_output(out / "manifest.json",
                             json.dumps(manifest, indent=2, sort_keys=True))
        return 0
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except DataError as e:
        print(f"data error: {e}", file=sys.stderr)
        return 3
    except NumericalAbort as e:
        print(f"numerical abort: {e}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
