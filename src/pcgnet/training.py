"""Adam training with hyperbolic learning-rate decay, class-weighted loss,
and recording-level evaluation (sensitivity, specificity, Macc).

Default hyperparameters are the tuned values the model family ships with;
all of them can be overridden per run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from decimal import Decimal, ROUND_HALF_UP

import numpy as np

from . import autodiff as ad
from .data import CycleStore
from .errors import DataError, NumericalAbort, check_field_types, is_number
from .model import Network, aggregate_recording

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

DEFAULT_LR0 = 0.0012843784
DEFAULT_LR_DECAY = 0.0001132885


@dataclass(frozen=True)
class TrainConfig:
    lr0: float = DEFAULT_LR0
    lr_decay: float = DEFAULT_LR_DECAY
    batch_size: int = 64
    epochs: int = 150
    class_weights: tuple[float, float] | None = None   # (w_normal, w_abnormal)
    seed: int = 0

    def __post_init__(self):
        check_field_types(self)
        for name in ("lr0", "lr_decay"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        weights = self.class_weights
        if weights is not None and not (isinstance(weights, tuple) and len(weights) == 2
                                        and all(is_number(w) and w > 0 for w in weights)):
            raise ValueError(f"class_weights must be null or two positive numbers, "
                             f"got {weights!r}")
        if self.batch_size < 2:   # train-mode batch-norm needs two samples
            raise ValueError(f"batch_size must be >= 2, got {self.batch_size}")


def effective_lr(cfg: TrainConfig, t: int) -> float:
    """Per-step rate lr0 / (1 + decay * t)."""
    return cfg.lr0 / (1.0 + cfg.lr_decay * t)


class AdamState:
    """First/second moment buffers, keyed like the parameter list."""

    def __init__(self):
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}


def adam_step(params: list[tuple[str, ad.Tensor]], state: AdamState, t: int,
              cfg: TrainConfig) -> None:
    """One Adam update at global step t >= 1. Parameters with no gradient
    this step are left untouched."""
    if t < 1:
        raise ValueError("step counter starts at 1")
    lr = effective_lr(cfg, t)
    b1c = 1.0 - ADAM_BETA1 ** t
    b2c = 1.0 - ADAM_BETA2 ** t
    for name, p in params:
        if p.grad is None:
            continue
        g = p.grad
        if g.shape != p.data.shape:
            raise ValueError(f"gradient shape {g.shape} != param shape "
                             f"{p.data.shape} for {name}")
        m = state.m.setdefault(name, np.zeros_like(p.data))
        v = state.v.setdefault(name, np.zeros_like(p.data))
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * g * g
        p.data -= lr * (m / b1c) / (np.sqrt(v / b2c) + ADAM_EPS)


def class_weights_from(train_labels) -> tuple[float, float]:
    """Balanced inverse-frequency weights w_c = total / (2 * count_c)."""
    labels = np.asarray(train_labels, dtype=int)
    n = labels.size
    n_abn = int(labels.sum())
    n_nor = n - n_abn
    if n_nor == 0 or n_abn == 0:
        raise DataError("cannot weight classes: training set has a single class")
    return n / (2.0 * n_nor), n / (2.0 * n_abn)


# ---------------------------------------------------------------------------
# metrics

def round2(x: float) -> float:
    """Half-up rounding to 2 decimals (float banker's rounding would
    misreport values like 72.435)."""
    return float(Decimal(repr(float(x))).quantize(Decimal("0.01"), rounding=ROUND_HALF_UP))


@dataclass
class FoldReport:
    fold: int
    tp: int
    tn: int
    fp: int
    fn: int
    sensitivity_pct: float = field(init=False)
    specificity_pct: float = field(init=False)
    macc_pct: float = field(init=False)

    def __post_init__(self):
        if self.tp + self.fn == 0 or self.tn + self.fp == 0:
            raise DataError("evaluation set must contain both classes")
        self.sensitivity_pct = 100.0 * self.tp / (self.tp + self.fn)
        self.specificity_pct = 100.0 * self.tn / (self.tn + self.fp)
        self.macc_pct = 0.5 * (self.sensitivity_pct + self.specificity_pct)


def cross_fold_summary(values) -> tuple[float, float]:
    """(mean, sample standard deviation) of per-fold metric values."""
    vals = np.asarray(list(values), dtype=np.float64)
    if vals.size == 0:
        raise ValueError("no per-fold values")
    mean = float(vals.mean())
    std = float(vals.std(ddof=1)) if vals.size > 1 else 0.0
    return mean, std


# ---------------------------------------------------------------------------
# dataset plumbing

def split_fold(store: CycleStore, folds: dict[str, int], fold: int
               ) -> tuple[np.ndarray, np.ndarray]:
    """Cycle indices (train, validation) for one fold.

    Validation is the recordings assigned to `fold`; everything else,
    including recordings in no validation set, trains. The two sides never
    share a recording id.
    """
    missing = sorted(set(store.recording_ids) - set(folds))
    if missing:
        raise DataError(f"recordings without fold assignment: {missing[:5]}")
    val_mask = np.array([folds[r] == fold for r in store.recording_ids])
    if not val_mask.any():
        raise DataError(f"fold {fold} has no validation recordings")
    idx = np.arange(len(store))
    return idx[~val_mask], idx[val_mask]


def _check_cycle_len(net: Network, store: CycleStore) -> None:
    """The store's cycles must have the length the network was built for."""
    length = store.samples.shape[1]
    if length != net.config.input_len:
        raise DataError(f"cycle store holds {length}-sample cycles, the network "
                        f"takes {net.config.input_len}")


EVAL_BATCH = 256


def _predict_recordings(net: Network, store: CycleStore, cycle_idx: np.ndarray
                        ) -> dict[str, tuple[np.ndarray, int]]:
    """recording id -> (per-cycle probabilities, true label).

    Cycles are processed in a canonical order (sorted by recording id,
    then store position) in fixed-size batches, so the result does not
    depend on the order of cycle_idx.
    """
    _check_cycle_len(net, store)
    groups: dict[str, list[int]] = {}
    for i in cycle_idx:
        groups.setdefault(store.recording_ids[i], []).append(int(i))
    flat = [i for rid in sorted(groups) for i in sorted(groups[rid])]
    probs = np.empty(len(flat))
    with ad.no_grad():
        for start in range(0, len(flat), EVAL_BATCH):
            rows = flat[start:start + EVAL_BATCH]
            probs[start:start + len(rows)] = net.forward(store.samples[rows]).data
    out = {}
    pos = 0
    for rid in sorted(groups):
        n = len(groups[rid])
        out[rid] = (probs[pos:pos + n].copy(),
                    int(store.labels[sorted(groups[rid])[0]]))
        pos += n
    return out


def _confusion(preds: dict[str, tuple[np.ndarray, int]], fold: int) -> FoldReport:
    tp = tn = fp = fn = 0
    for _, (probs, label) in preds.items():
        _, pred = aggregate_recording(probs)
        if label == 1:
            tp += pred
            fn += 1 - pred
        else:
            tn += 1 - pred
            fp += pred
    return FoldReport(fold=fold, tp=tp, tn=tn, fp=fp, fn=fn)


def _cycle_acc(preds: dict[str, tuple[np.ndarray, int]]) -> float:
    hits = total = 0
    for _, (probs, label) in preds.items():
        hits += int(((probs >= 0.5).astype(int) == label).sum())
        total += probs.size
    return hits / total


def evaluate(net: Network, store: CycleStore, cycle_idx: np.ndarray,
             fold: int = 0) -> FoldReport:
    """Recording-level confusion counts and metrics on the given cycles."""
    return _confusion(_predict_recordings(net, store, cycle_idx), fold)


# ---------------------------------------------------------------------------
# training loop

@dataclass
class EpochRecord:
    epoch: int
    train_loss: float
    val_macc_pct: float
    val_cycle_acc: float = 0.0


def train_fold(net: Network, store: CycleStore, folds: dict[str, int], fold: int,
               cfg: TrainConfig) -> tuple[Network, list["EpochRecord"]]:
    """Train on everything outside `fold`, validate on `fold`, return the
    checkpoint with the best validation Macc plus the epoch history.

    Fully deterministic for a given (net, store, folds, cfg).
    """
    _check_cycle_len(net, store)
    train_idx, val_idx = split_fold(store, folds, fold)
    if cfg.epochs == 0:
        return net, []
    train_labels = store.labels[train_idx]
    if train_labels.min() == train_labels.max():
        raise DataError("training split has a single class")
    w_nor, w_abn = cfg.class_weights or class_weights_from(train_labels)

    ss = np.random.SeedSequence(cfg.seed).spawn(2)
    shuffle_rng = np.random.default_rng(ss[0])
    dropout_rng = np.random.default_rng(ss[1])

    state = AdamState()
    history: list[EpochRecord] = []
    best_macc = -1.0
    best_snapshot = _snapshot(net)
    for epoch in range(cfg.epochs):
        order = shuffle_rng.permutation(train_idx)
        losses = []
        for start in range(0, order.size, cfg.batch_size):
            rows = order[start:start + cfg.batch_size]
            if rows.size < 2:
                continue   # batchnorm needs at least two samples
            labels = store.labels[rows]
            weights = np.where(labels == 1, w_abn, w_nor)
            net.zero_grad()
            pred = net.forward(store.samples[rows], train=True, rng=dropout_rng)
            loss = ad.weighted_bce(pred, labels, weights)
            pen = net.l2_penalty()
            if pen is not None:
                loss = ad.add(loss, pen)
            loss_val = float(loss.data)
            if not math.isfinite(loss_val):
                raise NumericalAbort(
                    f"non-finite loss at epoch {epoch}, batch {start // cfg.batch_size}, "
                    f"last lr {effective_lr(cfg, net.step):.3e}")
            ad.backward(loss)
            net.step += 1
            adam_step(net.parameters(), state, net.step, cfg)
            losses.append(loss_val)
        preds = _predict_recordings(net, store, val_idx)
        report = _confusion(preds, fold)
        history.append(EpochRecord(epoch=epoch, train_loss=float(np.mean(losses)),
                                   val_macc_pct=report.macc_pct,
                                   val_cycle_acc=_cycle_acc(preds)))
        if report.macc_pct > best_macc:
            best_macc = report.macc_pct
            best_snapshot = _snapshot(net)
    best_blobs, net.step = best_snapshot
    net.restore(best_blobs)
    return net, history


def _snapshot(net: Network) -> tuple[dict[str, np.ndarray], int]:
    return {name: arr.copy() for name, arr in net._blobs()}, net.step
