import numpy as np
import pytest

import pcgnet.autodiff as ad
from pcgnet.data import CycleStore
from pcgnet.errors import DataError, NumericalAbort
from pcgnet.model import NetworkConfig, build
from pcgnet.training import (AdamState, FoldReport, TrainConfig, adam_step,
                             class_weights_from, cross_fold_summary,
                             effective_lr, evaluate, round2, split_fold,
                             train_fold)

from _reference import REFERENCE_ROWS, std_tolerance


def toy_store(n_recordings=12, cycles_per=6, length=600, seed=0, gap=4.0):
    """Tiny separable cycle set: abnormal cycles carry a mid-band tone."""
    rng = np.random.default_rng(seed)
    samples, ids, labels, lens = [], [], [], []
    t = np.arange(length) / 1000.0
    for r in range(n_recordings):
        label = r % 2
        for _ in range(cycles_per):
            x = rng.normal(0.0, 0.3, size=length)
            x += np.sin(2 * np.pi * 45.0 * t + rng.uniform(0, 2 * np.pi))
            if label:
                x += gap * 0.25 * np.sin(2 * np.pi * 220.0 * t + rng.uniform(0, 2 * np.pi))
            samples.append(x)
            ids.append(f"rec{r:03d}")
            labels.append(label)
            lens.append(length)
    return CycleStore(samples=np.stack(samples), recording_ids=ids,
                      labels=np.array(labels), valid_lens=np.array(lens))


def toy_folds(store):
    # consecutive (normal, abnormal) pairs share a fold so every
    # validation set holds both classes
    recs = sorted(set(store.recording_ids))
    return {r: (i // 2) % 4 for i, r in enumerate(recs)}


def toy_net(length=600, seed=0, frontend="tconv_lp", init="fir_bank", trainable=True):
    return build(NetworkConfig(frontend=frontend, init=init,
                               frontend_trainable=trainable,
                               input_len=length, seed=seed))


def fast_cfg(**kw):
    defaults = dict(batch_size=16, epochs=2, seed=0)
    defaults.update(kw)
    return TrainConfig(**defaults)


class TestAdam:
    def test_defaults_match_published_values(self):
        cfg = TrainConfig()
        assert cfg.lr0 == 0.0012843784
        assert cfg.lr_decay == 0.0001132885
        net = NetworkConfig()
        assert net.dropout == 0.5
        assert net.l2_conv == 0.0486
        assert net.pool == 2

    def test_zero_gradient_leaves_params(self):
        p = ad.parameter(np.array([1.5, -2.0]))
        p.grad = np.zeros(2)
        state = AdamState()
        adam_step([("p", p)], state, 1, TrainConfig())
        assert np.array_equal(p.data, [1.5, -2.0])

    def test_moments_decay_with_zero_gradient(self):
        p = ad.parameter(np.array([1.0]))
        state = AdamState()
        state.m["p"] = np.array([0.4])
        state.v["p"] = np.array([0.09])
        p.grad = np.zeros(1)
        adam_step([("p", p)], state, 5, TrainConfig())
        assert np.allclose(state.m["p"], 0.9 * 0.4)
        assert np.allclose(state.v["p"], 0.999 * 0.09)

    def test_single_step_matches_hand_computation(self):
        g = 0.3
        cfg = TrainConfig()
        p = ad.parameter(np.array([2.0]))
        p.grad = np.array([g])
        adam_step([("p", p)], AdamState(), 1, cfg)
        # hand-stepped: m=0.1g, v=0.001g^2, mhat=g, vhat=g^2
        lr1 = cfg.lr0 / (1.0 + cfg.lr_decay)
        want = 2.0 - lr1 * g / (np.sqrt(g * g) + 1e-8)
        assert abs(p.data[0] - want) < 1e-15
        # the first normalized step has magnitude ~ lr1
        assert abs(abs(2.0 - p.data[0]) - lr1) < 1e-8

    def test_decay_arithmetic_at_10000(self):
        cfg = TrainConfig()
        ratio = effective_lr(cfg, 10_000) / cfg.lr0
        assert abs(ratio - 1.0 / (1.0 + 0.0001132885 * 10_000)) < 1e-15
        assert abs(ratio - 0.4689) < 1e-4

    def test_shape_mismatch_rejected(self):
        p = ad.parameter(np.zeros(3))
        p.grad = np.zeros(4)
        with pytest.raises(ValueError):
            adam_step([("p", p)], AdamState(), 1, TrainConfig())

    def test_descent_direction(self):
        # plain-SGD step along -grad must decrease a fixed-batch loss
        store = toy_store()
        net = toy_net()
        x = store.samples[:8]
        y = store.labels[:8]
        w = np.ones(8)

        def loss_value():
            return float(ad.weighted_bce(net.forward(x), y, w).data)

        net.zero_grad()
        loss0 = ad.weighted_bce(net.forward(x), y, w)
        ad.backward(loss0)
        params = [p for _, p in net.parameters() if p.grad is not None]
        dot = sum(float((p.grad * (-1e-4 * p.grad)).sum()) for p in params)
        assert dot < 0
        for p in params:
            p.data -= 1e-4 * p.grad
        assert loss_value() < float(loss0.data)


class TestClassWeights:
    def test_published_imbalance(self):
        w_n, w_a = class_weights_from([0] * 79 + [1] * 21)
        assert abs(w_n - 0.633) < 1e-3
        assert abs(w_a - 2.381) < 1e-3

    def test_balanced_is_unit(self):
        assert class_weights_from([0, 1, 0, 1]) == (1.0, 1.0)

    def test_single_class_rejected(self):
        with pytest.raises(DataError):
            class_weights_from([1, 1, 1])


class TestMetrics:
    def test_round2_half_up(self):
        assert round2(72.435) == 72.44
        assert round2(72.434) == 72.43

    def test_fold_report_arithmetic(self):
        rep = FoldReport(fold=0, tp=9, tn=8, fp=2, fn=1)
        assert rep.sensitivity_pct == 90.0
        assert rep.specificity_pct == 80.0
        assert rep.macc_pct == 85.0

    def test_perfect_classifier(self):
        rep = FoldReport(fold=0, tp=10, tn=10, fp=0, fn=0)
        assert (rep.sensitivity_pct, rep.specificity_pct, rep.macc_pct) == (100, 100, 100)

    def test_single_class_eval_rejected(self):
        with pytest.raises(DataError):
            FoldReport(fold=0, tp=0, tn=5, fp=1, fn=0)

    @pytest.mark.parametrize("name", sorted(REFERENCE_ROWS))
    def test_reference_crossfold_macc(self, name):
        row = REFERENCE_ROWS[name]
        mean, std = cross_fold_summary(row["macc"])
        want_mean, want_std = row["crossfold_macc"]
        assert abs(mean - want_mean) <= 0.01
        assert abs(std - want_std) <= std_tolerance(want_std)

    def test_sample_std_convention(self):
        # the displayed 3.4 for the first reference row discriminates the
        # n-1 convention: population std would be 2.98
        _, std = cross_fold_summary(REFERENCE_ROWS["baseline"]["macc"])
        assert abs(std - 3.44) < 0.01
        pop = np.std(REFERENCE_ROWS["baseline"]["macc"])
        assert abs(pop - 2.98) < 0.01

    def test_identical_rows_zero_std(self):
        mean, std = cross_fold_summary([80.0, 80.0, 80.0, 80.0])
        assert mean == 80.0 and std == 0.0


class TestSplitFold:
    def test_disjoint_by_recording(self):
        store = toy_store()
        folds = toy_folds(store)
        train_idx, val_idx = split_fold(store, folds, 1)
        train_recs = {store.recording_ids[i] for i in train_idx}
        val_recs = {store.recording_ids[i] for i in val_idx}
        assert not (train_recs & val_recs)
        assert len(train_idx) + len(val_idx) == len(store)

    def test_missing_assignment_rejected(self):
        store = toy_store()
        with pytest.raises(DataError):
            split_fold(store, {"rec000": 0}, 0)


class TestTrainFold:
    def test_epochs_zero_is_identity(self):
        store = toy_store()
        net = toy_net()
        before = {n: p.data.copy() for n, p in net.parameters()}
        net2, history = train_fold(net, store, toy_folds(store), 0, fast_cfg(epochs=0))
        assert history == []
        for n, p in net2.parameters():
            assert np.array_equal(p.data, before[n])

    def test_overfits_small_set(self):
        # 12 recordings x 6 cycles, separable: the model must reach high
        # cycle accuracy, demonstrating end-to-end learning capacity
        store = toy_store()
        folds = toy_folds(store)
        net = toy_net(seed=1)
        cfg = fast_cfg(epochs=25, batch_size=18, seed=1)
        net, history = train_fold(net, store, folds, 0, cfg)
        assert len(history) == 25
        assert history[-1].val_cycle_acc >= 0.95
        # the returned net is that of the first best-Macc epoch, and that
        # epoch's val_cycle_acc is the share of validation cycles it gets right
        best = max(history, key=lambda h: h.val_macc_pct)
        _, val_idx = split_fold(store, folds, 0)
        with ad.no_grad():
            probs = net.forward(store.samples[val_idx]).data
        assert best.val_cycle_acc == np.mean((probs >= 0.5) == store.labels[val_idx])

    def test_deterministic(self):
        store = toy_store()
        folds = toy_folds(store)
        runs = []
        for _ in range(2):
            net = toy_net(seed=3)
            net, history = train_fold(net, store, folds, 0, fast_cfg(epochs=2, seed=3))
            runs.append((history, {n: p.data.copy() for n, p in net.parameters()}))
        assert [h.train_loss for h in runs[0][0]] == [h.train_loss for h in runs[1][0]]
        assert [h.val_macc_pct for h in runs[0][0]] == [h.val_macc_pct for h in runs[1][0]]
        for n in runs[0][1]:
            assert np.array_equal(runs[0][1][n], runs[1][1][n])

    def test_single_class_training_rejected(self):
        store = toy_store()
        folds = {r: (0 if lab else 1)
                 for r, lab in zip(store.recording_ids, store.labels)}
        # fold 0 validation = all abnormal recordings -> training all normal
        with pytest.raises(DataError):
            train_fold(toy_net(), store, folds, 0, fast_cfg())

    def test_nan_loss_aborts_with_diagnostics(self):
        store = toy_store()
        net = toy_net()
        net.branches[0].w1 *= 1e200  # poison: L2 penalty overflows
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericalAbort, match=r"epoch 0, batch 0.*lr"):
                train_fold(net, store, toy_folds(store), 0, fast_cfg(epochs=1))

    def test_best_checkpoint_selected(self):
        store = toy_store()
        folds = toy_folds(store)
        net = toy_net(seed=5)
        net, history = train_fold(net, store, folds, 0, fast_cfg(epochs=6, seed=5))
        best = max(h.val_macc_pct for h in history)
        _, val_idx = split_fold(store, folds, 0)
        rep = evaluate(net, store, val_idx, fold=0)
        assert abs(rep.macc_pct - best) < 1e-9


class TestEvaluate:
    def test_counts_match_recordings(self):
        store = toy_store()
        folds = toy_folds(store)
        net = toy_net(seed=2)
        _, val_idx = split_fold(store, folds, 2)
        rep = evaluate(net, store, val_idx, fold=2)
        val_recs = {store.recording_ids[i] for i in val_idx}
        n_abn = sum(1 for r in val_recs
                    if store.labels[store.recording_ids.index(r)] == 1)
        assert rep.tp + rep.fn == n_abn
        assert rep.tn + rep.fp == len(val_recs) - n_abn

    def test_invariant_to_cycle_and_recording_order(self):
        store = toy_store()
        folds = toy_folds(store)
        net = toy_net(seed=4)
        _, val_idx = split_fold(store, folds, 0)
        rep1 = evaluate(net, store, val_idx, fold=0)
        rng = np.random.default_rng(0)
        rep2 = evaluate(net, store, rng.permutation(val_idx), fold=0)
        assert (rep1.tp, rep1.tn, rep1.fp, rep1.fn) == (rep2.tp, rep2.tn, rep2.fp, rep2.fn)
        assert rep1.macc_pct == rep2.macc_pct

    def test_prediction_builds_no_graph(self, monkeypatch):
        store = toy_store()
        net = toy_net(seed=4)
        outputs = []
        forward = net.forward

        def recording_forward(*args, **kwargs):
            outputs.append(forward(*args, **kwargs))
            return outputs[-1]

        monkeypatch.setattr(net, "forward", recording_forward)
        evaluate(net, store, np.arange(len(store)), fold=0)
        assert outputs
        assert all(o._parents == () and o._backward is None for o in outputs)
        assert forward(store.samples[:2])._backward is not None
