"""Acceptance gate: one test per release criterion, each printing a
PASS/FAIL line (run with -s to watch them stream).

The desk-scale end-to-end run drives the real CLI pipeline on synthetic
recordings; the determinism criterion runs the pipeline twice in separate
subprocesses and compares artifact digests.
"""

import functools
import hashlib
import json
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import pcgnet.autodiff as ad
from pcgnet.cli import main
from pcgnet.data import segment_cycles, synth_pcg
from pcgnet.dsp import Waveform, resample
from pcgnet.fir import FirFilter, apply_fir, default_bank, linear_phase_deviation
from pcgnet.frontend import TConvLayer
from pcgnet.model import NetworkConfig, build
from pcgnet.training import AdamState, TrainConfig, adam_step, cross_fold_summary

from _reference import REFERENCE_ROWS, std_tolerance
from gradcheck import analytic_gradient, numeric_gradient, relative_error
from test_autodiff import conv_oracle


def criterion(name):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[ACCEPTANCE] {name}: FAIL")
                raise
            print(f"[ACCEPTANCE] {name}: PASS")
        return wrapper
    return deco


def sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


@criterion("DSP equivalence (conv oracle + causal FIR, 200 cases, <5s)")
def test_dsp_equivalence_suite():
    rng = np.random.default_rng(2024)
    bank = default_bank(1000.0, 60)
    t0 = time.time()
    for case in range(200):
        kind = case % 4
        if kind in (0, 1):
            # layer vs triple-loop oracle, direct and FFT kernel paths
            k = int(rng.choice([3, 5, 7, 9])) if kind == 0 else int(rng.choice([17, 21]))
            b = int(rng.integers(1, 3))
            ci = int(rng.integers(1, 3))
            co = int(rng.integers(1, 4))
            length = int(rng.integers(k + 4, 64))
            padding = "same" if rng.random() < 0.5 else "valid"
            x = rng.normal(size=(b, ci, length))
            kern = rng.normal(size=(co, ci, k))
            got = ad.conv1d(ad.tensor(x), ad.tensor(kern), padding).data
            assert np.abs(got - conv_oracle(x, kern, padding)).max() < 1e-12
        elif kind == 2:
            # causal evaluation vs the reference filter implementation
            order = int(rng.choice([4, 10, 60]))
            coeffs = rng.normal(size=order + 1)
            x = rng.normal(size=int(rng.integers(order + 2, 300)))
            filt = FirFilter(coeffs, order, 1.0, 2.0, 1000.0)
            want = apply_fir(filt, Waveform(x, 1000.0)).samples
            got = ad.causal_conv1d(ad.tensor(x[None, None, :]),
                                   ad.tensor(coeffs[None, None, :])).data[0, 0]
            assert np.abs(got - want).max() < 1e-12
        else:
            # designed bank through the layer vs apply_fir
            x = rng.normal(size=200)
            f = bank.filters[int(rng.integers(4))]
            want = apply_fir(f, Waveform(x, 1000.0)).samples
            got = ad.causal_conv1d(ad.tensor(x[None, None, :]),
                                   ad.tensor(f.coeffs[None, None, :])).data[0, 0]
            assert np.abs(got - want).max() < 1e-12
    assert time.time() - t0 < 5.0


@criterion("Gradient suite (every op + assembled network, <60s)")
def test_gradient_suite():
    t0 = time.time()
    rng = np.random.default_rng(7)

    # --- individual ops, away from kinks: rel err < 1e-6 ---
    def check(build_loss, params, tol=1e-6):
        anas = analytic_gradient(build_loss, params)
        for p, ana in zip(params, anas):
            num = numeric_gradient(build_loss, p)
            assert relative_error(ana, num) < tol

    x = ad.Tensor(rng.normal(size=(2, 2, 20)), requires_grad=True)
    k_small = ad.Tensor(rng.normal(size=(3, 2, 5)), requires_grad=True)
    k_big = ad.Tensor(rng.normal(size=(2, 2, 17)), requires_grad=True)
    coef = rng.normal(size=(2, 3, 16))
    check(lambda: ad.tsum(ad.mul(ad.conv1d(x, k_small, "valid"), ad.tensor(coef))),
          [x, k_small])
    coef_b = rng.normal(size=(2, 2, 20))
    check(lambda: ad.tsum(ad.mul(ad.conv1d(x, k_big, "same"), ad.tensor(coef_b))),
          [x, k_big])

    # grouped convolution, two groups: both direct-path dx layouts and FFT
    rng_g = np.random.default_rng(71)
    xg = ad.Tensor(rng_g.normal(size=(2, 4, 20)), requires_grad=True)
    for co, k, padding in ((3, 5, "valid"), (1, 5, "valid"), (1, 17, "same")):
        kg = ad.Tensor(rng_g.normal(size=(2 * co, 2, k)), requires_grad=True)
        out_len = 20 if padding == "same" else 20 - k + 1
        coef_g = ad.tensor(rng_g.normal(size=(2, 2 * co, out_len)))
        check(lambda: ad.tsum(ad.mul(ad.conv1d(xg, kg, padding, groups=2), coef_g)),
              [xg, kg])

    xc = ad.Tensor(rng.normal(size=(1, 1, 30)), requires_grad=True)
    kc = ad.Tensor(rng.normal(size=(1, 1, 7)), requires_grad=True)
    coef_c = rng.normal(size=(1, 1, 30))
    check(lambda: ad.tsum(ad.mul(ad.causal_conv1d(xc, kc), ad.tensor(coef_c))), [xc, kc])

    xd = ad.Tensor(rng.normal(size=(3, 6)), requires_grad=True)
    w = ad.Tensor(rng.normal(size=(6, 4)), requires_grad=True)
    b = ad.Tensor(rng.normal(size=4), requires_grad=True)
    coef_d = rng.normal(size=(3, 4))
    check(lambda: ad.tsum(ad.mul(ad.dense(xd, w, b), ad.tensor(coef_d))), [xd, w, b])

    xa = ad.Tensor(rng.normal(size=11) + 0.2, requires_grad=True)
    coef_a = rng.normal(size=11)
    check(lambda: ad.tsum(ad.mul(ad.relu(xa), ad.tensor(coef_a))), [xa])
    check(lambda: ad.tsum(ad.mul(ad.sigmoid(xa), ad.tensor(coef_a))), [xa])

    xm = ad.Tensor(rng.normal(size=(2, 2, 12)), requires_grad=True)
    check(lambda: ad.tsum(ad.maxpool1d(xm, 2)), [xm])
    check(lambda: ad.tsum(ad.maxpool1d(xm, 3)), [xm])

    xb = ad.Tensor(rng.normal(size=(4, 3, 8)), requires_grad=True)
    gm = ad.Tensor(rng.normal(1.0, 0.1, size=3), requires_grad=True)
    bt = ad.Tensor(rng.normal(size=3), requires_grad=True)
    st = ad.BatchNormState(3)
    coef_bn = rng.normal(size=(4, 3, 8))
    check(lambda: ad.tsum(ad.mul(
        ad.batchnorm1d(xb, gm, bt, st.copy(), True), ad.tensor(coef_bn))),
        [xb, gm, bt], tol=1e-4)
    check(lambda: ad.tsum(ad.mul(
        ad.batchnorm1d(xb, gm, bt, st.copy(), False), ad.tensor(coef_bn))),
        [xb, gm, bt], tol=1e-6)

    xdr = ad.Tensor(rng.normal(size=(2, 2, 10)), requires_grad=True)
    check(lambda: ad.tsum(ad.dropout(xdr, 0.4, True, np.random.default_rng(5))), [xdr])

    # the fused stage node, both modes, one gamma negative; a fresh rng per
    # call gives every probe the same keep-mask
    rng_s = np.random.default_rng(73)
    xs = ad.Tensor(rng_s.normal(size=(4, 3, 9)), requires_grad=True)
    gs = ad.Tensor(np.array([1.1, -0.9, 0.8]), requires_grad=True)
    bs = ad.Tensor(rng_s.normal(size=3), requires_grad=True)
    coef_s = rng_s.normal(size=(4, 3, 4))
    for train in (True, False):
        check(lambda: ad.tsum(ad.mul(ad.bn_relu_dropout_pool(
            xs, gs, bs, st.copy(), train, 0.5, np.random.default_rng(6), 2),
            ad.tensor(coef_s))), [xs, gs, bs], tol=1e-4)

    pb = ad.Tensor(rng.uniform(0.1, 0.9, size=5), requires_grad=True)
    yb = np.array([1, 0, 1, 0, 1])
    wb = rng.uniform(0.5, 2.0, size=5)
    check(lambda: ad.weighted_bce(pb, yb, wb), [pb])

    xo = ad.Tensor(rng.normal(size=(2, 4, 9)), requires_grad=True)
    coef_o = rng.normal(size=(2, 1, 5))
    check(lambda: ad.tsum(ad.mul(
        ad.slice_time(ad.slice_channels(xo, 1, 2), 2, 7), ad.tensor(coef_o))), [xo])
    coef_p = rng.normal(size=(2, 4, 13))
    check(lambda: ad.tsum(ad.mul(ad.pad_time(xo, 3, 1), ad.tensor(coef_p))), [xo])
    coef_f = rng.normal(size=(2, 4, 9))
    check(lambda: ad.tsum(ad.mul(ad.flip_time(xo), ad.tensor(coef_f))), [xo])
    check(lambda: ad.sum_of_squares(xo), [xo])
    coef_cc = rng.normal(size=(2, 8, 9))
    check(lambda: ad.tsum(ad.mul(ad.concat([xo, xo], axis=1), ad.tensor(coef_cc))), [xo])

    # --- the assembled network, every parameter tensor probed ---
    for frontend, init in (("tconv_lp", "fir_bank"), ("tconv_free", "random"),
                           ("tconv_zp", "random"), ("external_fir", "fir_bank")):
        cfg = NetworkConfig(frontend=frontend, init=init, input_len=120,
                            dropout=0.0, seed=3)
        net = build(cfg)
        raw = np.random.default_rng(17).normal(size=(4, 120))
        labels = np.array([1, 0, 1, 0])
        weights = np.array([1.3, 0.7, 1.3, 0.7])

        def loss():
            pred = net.forward(raw, train=True, rng=np.random.default_rng(0))
            return ad.add(ad.weighted_bce(pred, labels, weights), net.l2_penalty())

        # train-mode normalization uses batch statistics, so the running
        # stats the probes update never feed back into the loss value
        probe_rng = np.random.default_rng(23)
        params = net.parameters()
        for name, p in params:
            n_probe = min(6, p.data.size)
            flat_ix = probe_rng.choice(p.data.size, size=n_probe, replace=False)
            indices = [np.unravel_index(i, p.data.shape) for i in flat_ix]
            num = numeric_gradient(loss, p, indices=indices)
            for _, q in params:
                q.zero_grad()
            ad.backward(loss())
            ana = p.grad if p.grad is not None else np.zeros_like(p.data)
            for ix in indices:
                err = _rel(ana[ix], num[ix])
                # a probe step can cross a relu/maxpool kink; the crossing
                # contribution vanishes as h shrinks, a real bug does not
                for h in (1e-6, 2e-7):
                    if err < 1e-4:
                        break
                    redo = numeric_gradient(loss, p, h=h, indices=[ix])
                    err = _rel(ana[ix], redo[ix])
                assert err < 1e-4, \
                    f"{frontend}:{name}{ix}: ana={ana[ix]:.3e} num={num[ix]:.3e}"
    assert time.time() - t0 < 60.0


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1e-6)


@criterion("Linear-phase suite (symmetry + 30-sample group delay after 100 Adam steps)")
def test_linear_phase_suite():
    rng = np.random.default_rng(99)
    cfg = NetworkConfig(frontend="tconv_lp", init="fir_bank", input_len=160, seed=5)
    net = build(cfg)
    tcfg = TrainConfig(batch_size=8, epochs=1, seed=5)
    state = AdamState()
    drop = np.random.default_rng(1)
    t = np.arange(160) / 1000.0
    for step in range(1, 101):
        raw = rng.normal(0.0, 0.3, size=(8, 160))
        labels = rng.integers(0, 2, size=8)
        raw += labels[:, None] * np.sin(2 * np.pi * 220.0 * t)[None, :]
        net.zero_grad()
        pred = net.forward(raw, train=True, rng=drop)
        loss = ad.add(ad.weighted_bce(pred, labels, np.ones(8)), net.l2_penalty())
        ad.backward(loss)
        adam_step(net.parameters(), state, step, tcfg)
    kern = net.frontend.materialized_kernel().data
    for band in range(4):
        taps = kern[band, 0]
        assert np.array_equal(taps, taps[::-1]), "kernel symmetry broken"
        filt = FirFilter(taps, 60, 0.0, 0.0, 1000.0)
        delay, resid = linear_phase_deviation(filt)
        assert resid < 1e-6
        assert delay == 30.0  # group delay N/2 samples
    # the kernels did actually move from their initialization
    init = build(cfg).frontend.materialized_kernel().data
    assert np.abs(kern - init).max() > 1e-6


@criterion("Zero-phase suite (|H|^2 identity, 50 kernels; symmetric impulse response)")
def test_zero_phase_suite():
    rng = np.random.default_rng(314)
    n = 512
    w = 2 * np.pi * np.arange(n // 2 + 1) / n
    for trial in range(50):
        kern = rng.normal(size=(1, 1, 61))
        layer = TConvLayer("zero_phase", kern)
        x = np.zeros((1, 1, n))
        x[0, 0, n // 2] = 1.0
        out = layer.forward(ad.tensor(x)).data[0, 0]
        # impulse response symmetric about the impulse position
        left = out[1:n // 2 + 1][::-1]
        right = out[n // 2:-1]
        m = min(left.size, right.size)
        assert np.abs(left[:m] - right[:m]).max() < 1e-12
        resp = np.fft.rfft(out) * np.exp(1j * w * (n // 2))
        target = np.abs(np.fft.rfft(kern[0, 0], n)) ** 2
        assert np.abs(resp.imag).max() < 1e-9
        assert resp.real.min() > -1e-9
        assert np.abs(resp.real - target).max() < 1e-9


@criterion("Parameter counts (free 244 / LP 124 / ZP 244)")
def test_parameter_counts():
    free = TConvLayer("free", np.zeros((4, 1, 61)))
    lp = TConvLayer("linear_phase", np.zeros((4, 1, 61)))
    zp = TConvLayer("zero_phase", np.zeros((4, 1, 61)))
    assert free.free_param_count() == 244
    assert lp.free_param_count() == 124
    assert zp.free_param_count() == 244
    # LP holds exactly the half-plus-center of the free parameterization
    assert lp.free_param_count() == 4 * ((61 + 1) // 2)
    assert 2 * lp.free_param_count() - 4 == free.free_param_count()


@criterion("Metric arithmetic (six cross-fold means within 0.01; sample-std convention)")
def test_metric_arithmetic():
    for name, row in REFERENCE_ROWS.items():
        mean, std = cross_fold_summary(row["macc"])
        want_mean, want_std = row["crossfold_macc"]
        assert abs(mean - want_mean) <= 0.01, f"{name}: {mean} vs {want_mean}"
        assert abs(std - want_std) <= std_tolerance(want_std), \
            f"{name}: {std} vs {want_std}"
    # the first row's displayed +/-3.4 pins the n-1 convention (3.44 vs 2.98)
    _, std = cross_fold_summary(REFERENCE_ROWS["baseline"]["macc"])
    assert abs(std - 3.44) < 0.005


@criterion("Baseline equivalence (frozen fir tConv vs external FIR, 32 cycles, 1e-8)")
def test_baseline_equivalence():
    recs = synth_pcg(6, 0.5, seed=77, duration_s=(5.0, 6.0))
    cycles = []
    for r in recs:
        x = resample(r.waveform, 1000.0)
        cycles.extend(segment_cycles(x, r.meta.id, r.meta.label))
    batch = np.stack([c.samples for c in cycles[:32]])
    assert batch.shape[0] == 32
    frozen = build(NetworkConfig(frontend="tconv_free", init="fir_bank",
                                 frontend_trainable=False, seed=31))
    baseline = build(NetworkConfig(frontend="external_fir", seed=31))
    p_frozen = frozen.forward(batch).data
    p_base = baseline.forward(batch).data
    assert np.abs(p_frozen - p_base).max() < 1e-8


@criterion("End-to-end desk scale (200 recordings, 4 folds, Macc >= 85, LP >= NonLearn, <15min)")
def test_end_to_end_desk_scale(tmp_path):
    t0 = time.time()
    seed = 11
    assert main(["synth", "--n", "200", "--abnormal-fraction", "0.21",
                 "--seed", str(seed), "--out", str(tmp_path / "data")]) == 0
    assert main(["ingest", "--wav-dir", str(tmp_path / "data" / "wav"),
                 "--labels", str(tmp_path / "data" / "labels.csv"),
                 "--subset", "synthetic", "--out", str(tmp_path / "store")]) == 0
    assert main(["folds", "--cycles", str(tmp_path / "store" / "cycles.bin"),
                 "--seed", str(seed), "--out", str(tmp_path / "folds")]) == 0
    cycles = str(tmp_path / "store" / "cycles.bin")
    folds = str(tmp_path / "folds" / "folds.csv")
    runs = tmp_path / "runs"
    for tag, extra in (("lp", ["--frontend", "lp", "--init", "fir"]),
                       ("nonlearn", ["--frontend", "tconv", "--init", "fir",
                                     "--no-trainable"])):
        for fold in range(4):
            out = runs / f"{tag}-f{fold}"
            assert main(["train", "--cycles", cycles, "--folds", folds,
                         "--fold", str(fold), "--epochs", "4",
                         "--batch-size", "64", "--seed", str(seed),
                         "--out", str(out), *extra]) == 0
            assert main(["eval", "--ckpt", str(out / "checkpoint.ckpt"),
                         "--cycles", cycles, "--folds", folds,
                         "--fold", str(fold), "--out", str(out)]) == 0
    assert main(["report", "--runs", str(runs), "--out", str(tmp_path / "report")]) == 0
    summary = json.loads((tmp_path / "report" / "report.json").read_text())
    lp_macc = summary["lp-tconv-fir"]["crossfold"]["macc"]["mean"]
    nl_macc = summary["tconv-nonlearn"]["crossfold"]["macc"]["mean"]
    elapsed = time.time() - t0
    print(f"  lp-tconv-fir cross-fold Macc {lp_macc:.2f}, "
          f"tconv-nonlearn {nl_macc:.2f}, elapsed {elapsed:.0f}s")
    assert lp_macc >= 85.0
    assert lp_macc >= nl_macc
    assert elapsed < 900.0


@criterion("Determinism (two identical CLI pipelines, bit-identical artifacts)")
def test_determinism(tmp_path):
    def pipeline(root: Path) -> dict[str, str]:
        cmds = [
            ["synth", "--n", "16", "--abnormal-fraction", "0.5", "--seed", "3",
             "--out", str(root / "data")],
            ["ingest", "--wav-dir", str(root / "data" / "wav"),
             "--labels", str(root / "data" / "labels.csv"),
             "--out", str(root / "store")],
            ["folds", "--cycles", str(root / "store" / "cycles.bin"),
             "--seed", "3", "--out", str(root / "folds")],
            ["train", "--cycles", str(root / "store" / "cycles.bin"),
             "--folds", str(root / "folds" / "folds.csv"), "--fold", "0",
             "--frontend", "lp", "--init", "fir", "--epochs", "2",
             "--batch-size", "32", "--seed", "3", "--out", str(root / "run")],
            ["eval", "--ckpt", str(root / "run" / "checkpoint.ckpt"),
             "--cycles", str(root / "store" / "cycles.bin"),
             "--folds", str(root / "folds" / "folds.csv"), "--fold", "0",
             "--out", str(root / "run")],
        ]
        for cmd in cmds:
            proc = subprocess.run([sys.executable, "-m", "pcgnet.cli", *cmd],
                                  capture_output=True, text=True)
            assert proc.returncode == 0, proc.stderr
        return {
            "checkpoint": sha256(root / "run" / "checkpoint.ckpt"),
            "history": sha256(root / "run" / "history.csv"),
            "eval": sha256(root / "run" / "eval.csv"),
            "cycles": sha256(root / "store" / "cycles.bin"),
            "folds": sha256(root / "folds" / "folds.csv"),
        }

    first = pipeline(tmp_path / "a")
    second = pipeline(tmp_path / "b")
    assert first == second
