import os
import signal
import sys
import time

import numpy as np
import pytest

import pcgnet.autodiff as ad
from pcgnet.dsp import Waveform
from pcgnet.fir import FirFilter, apply_fir

from gradcheck import analytic_gradient, numeric_gradient, relative_error


def conv_oracle(x, kern, padding):
    """Triple-loop reference of the layer's sum, zeros outside bounds.

    same: y[n] = sum_i k[i] x[n + (K-1)/2 - i]
    valid: y[n] = sum_i k[i] x[n + K-1 - i]
    """
    b, ci, length = x.shape
    co, _, k = kern.shape
    off = (k - 1) // 2 if padding == "same" else k - 1
    out_len = length if padding == "same" else length - k + 1
    out = np.zeros((b, co, out_len))
    for bi in range(b):
        for o in range(co):
            for n in range(out_len):
                acc = 0.0
                for c in range(ci):
                    for i in range(k):
                        j = n + off - i
                        if 0 <= j < length:
                            acc += kern[o, c, i] * x[bi, c, j]
                out[bi, o, n] = acc
    return out


class TestConv1d:
    def test_pinned_same_example(self):
        x = ad.tensor(np.array([[[1.0, 0.0, 0.0]]]))
        k = ad.tensor(np.array([[[1.0, 2.0, 3.0]]]))
        assert np.array_equal(ad.conv1d(x, k, "same").data[0, 0], [2.0, 3.0, 0.0])

    def test_center_delta_is_identity(self):
        rng = np.random.default_rng(0)
        x = ad.tensor(rng.normal(size=(2, 1, 30)))
        k = ad.tensor(np.array([[[0.0, 1.0, 0.0]]]))
        assert np.abs(ad.conv1d(x, k, "same").data - x.data).max() < 1e-15

    @pytest.mark.parametrize("b,ci,co,length,k,padding", [
        *((*shape, padding) for shape in [
            (1, 1, 1, 12, 3), (2, 3, 4, 20, 5), (3, 2, 2, 40, 7),
            (1, 1, 2, 80, 21),   # FFT path
            (2, 2, 3, 64, 17),   # FFT path, multichannel
        ] for padding in ("same", "valid")),
        (2, 1, 2, 10, 21, "same"),   # FFT path, kernel longer than the signal
    ])
    def test_matches_triple_loop(self, padding, b, ci, co, length, k):
        rng = np.random.default_rng(b * 100 + k)
        x = rng.normal(size=(b, ci, length))
        kern = rng.normal(size=(co, ci, k))
        got = ad.conv1d(ad.tensor(x), ad.tensor(kern), padding).data
        assert np.abs(got - conv_oracle(x, kern, padding)).max() < 1e-12

    @pytest.mark.parametrize("k", [5, 21])
    def test_gradients_match_finite_differences(self, k):
        rng = np.random.default_rng(k)
        x = ad.Tensor(rng.normal(size=(2, 2, 24)), requires_grad=True)
        kern = ad.Tensor(rng.normal(size=(3, 2, k)), requires_grad=True)

        def f():
            return ad.tsum(ad.conv1d(x, kern, "valid"))

        for p in (x, kern):
            num = numeric_gradient(f, p)
            (ana,) = analytic_gradient(f, [p])
            assert relative_error(ana, num) < 1e-6

    @pytest.mark.parametrize("padding", ["same", "valid"])
    @pytest.mark.parametrize("k", [5, 21])   # direct and FFT path
    def test_same_padding_gradients(self, k, padding):
        rng = np.random.default_rng(8)
        length = k + 10
        x = ad.Tensor(rng.normal(size=(2, 1, length)), requires_grad=True)
        kern = ad.Tensor(rng.normal(size=(2, 1, k)), requires_grad=True)
        out_len = length if padding == "same" else length - k + 1
        weights = rng.normal(size=(2, 2, out_len))

        def f():
            y = ad.conv1d(x, kern, padding)
            return ad.tsum(ad.mul(y, ad.tensor(weights)))

        for p in (x, kern):
            num = numeric_gradient(f, p)
            (ana,) = analytic_gradient(f, [p])
            assert relative_error(ana, num) < 1e-6

    def test_rejects_bad_shapes(self):
        x = ad.tensor(np.zeros((1, 2, 10)))
        with pytest.raises(ValueError):
            ad.conv1d(x, ad.tensor(np.zeros((1, 3, 3))), "same")  # channel mismatch
        with pytest.raises(ValueError):
            ad.conv1d(x, ad.tensor(np.zeros((1, 2, 4))), "same")  # even kernel

    @pytest.mark.parametrize("padding", ["same", "valid"])
    @pytest.mark.parametrize("ci,co,k", [
        (1, 8, 5),    # fewer input channels: dx scatters window rows back
        (8, 4, 5),    # fewer output channels: dx gathers gradient windows
        (2, 3, 17),   # FFT path
        (1, 1, 21),   # FFT path, one channel per group (zero-phase reverse pass)
    ])
    def test_groups_equal_separate_convolutions(self, padding, ci, co, k):
        groups = 4
        rng = np.random.default_rng(100 * ci + 10 * co + k)
        xv = rng.normal(size=(3, groups * ci, 40))
        kv = rng.normal(size=(groups * co, ci, k))
        x = ad.Tensor(xv, requires_grad=True)
        kern = ad.Tensor(kv, requires_grad=True)
        y = ad.conv1d(x, kern, padding, groups=groups)
        coef = rng.normal(size=y.data.shape)
        ad.backward(ad.tsum(ad.mul(y, ad.tensor(coef))))
        for g in range(groups):
            ins, outs = slice(g * ci, (g + 1) * ci), slice(g * co, (g + 1) * co)
            xs = ad.Tensor(xv[:, ins], requires_grad=True)
            ks = ad.Tensor(kv[outs], requires_grad=True)
            ys = ad.conv1d(xs, ks, padding)
            ad.backward(ad.tsum(ad.mul(ys, ad.tensor(coef[:, outs]))))
            assert np.abs(y.data[:, outs] - ys.data).max() < 1e-12
            assert np.abs(x.grad[:, ins] - xs.grad).max() < 1e-12
            assert np.abs(kern.grad[outs] - ks.grad).max() < 1e-12

    def test_rejects_bad_groups(self):
        x = ad.tensor(np.zeros((1, 4, 10)))
        with pytest.raises(ValueError):
            ad.conv1d(x, ad.tensor(np.zeros((3, 2, 3))), groups=2)  # 3 outputs, 2 groups
        with pytest.raises(ValueError):
            ad.conv1d(x, ad.tensor(np.zeros((3, 1, 3))), groups=3)  # 4 inputs, 3 groups
        with pytest.raises(ValueError):
            ad.conv1d(x, ad.tensor(np.zeros((4, 2, 3))), groups=4)  # 1 input per group
        with pytest.raises(ValueError):
            ad.conv1d(x, ad.tensor(np.zeros((4, 4, 3))), groups=0)


class TestCausalConv:
    def test_matches_apply_fir(self):
        rng = np.random.default_rng(4)
        for trial in range(5):
            b = rng.normal(size=61)
            x = rng.normal(size=300)
            filt = FirFilter(b, 60, 10.0, 20.0, 1000.0)
            want = apply_fir(filt, Waveform(x, 1000.0)).samples
            got = ad.causal_conv1d(ad.tensor(x[None, None, :]),
                                   ad.tensor(b[None, None, :])).data[0, 0]
            assert np.abs(got - want).max() < 1e-12

    def test_identity_kernel(self):
        x = np.random.default_rng(1).normal(size=(1, 1, 20))
        got = ad.causal_conv1d(ad.tensor(x), ad.tensor(np.ones((1, 1, 1)))).data
        assert np.array_equal(got, x)

    def test_delta_at_last_tap_is_pure_delay(self):
        x = np.arange(1.0, 9.0)[None, None, :]
        k = np.zeros((1, 1, 5))
        k[0, 0, 4] = 1.0  # b_4 = 1: y[n] = x[n-4]
        got = ad.causal_conv1d(ad.tensor(x), ad.tensor(k)).data[0, 0]
        assert np.array_equal(got, [0, 0, 0, 0, 1, 2, 3, 4])

    def test_rejects_even_kernel(self):
        with pytest.raises(ValueError):
            ad.causal_conv1d(ad.tensor(np.zeros((1, 1, 8))),
                             ad.tensor(np.zeros((1, 1, 4))))

    def test_gradients(self):
        rng = np.random.default_rng(2)
        x = ad.Tensor(rng.normal(size=(1, 1, 18)), requires_grad=True)
        k = ad.Tensor(rng.normal(size=(1, 1, 5)), requires_grad=True)
        coef = rng.normal(size=(1, 1, 18))

        def f():
            return ad.tsum(ad.mul(ad.causal_conv1d(x, k), ad.tensor(coef)))

        for p in (x, k):
            num = numeric_gradient(f, p)
            (ana,) = analytic_gradient(f, [p])
            assert relative_error(ana, num) < 1e-6


class TestDense:
    def test_identity(self):
        x = np.random.default_rng(0).normal(size=(3, 4))
        out = ad.dense(ad.tensor(x), ad.tensor(np.eye(4)), ad.tensor(np.zeros(4)))
        assert np.abs(out.data - x).max() < 1e-15

    def test_batch_independence(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(2, 5))
        w = ad.tensor(rng.normal(size=(5, 3)))
        b = ad.tensor(rng.normal(size=3))
        both = ad.dense(ad.tensor(x), w, b).data
        for i in range(2):
            one = ad.dense(ad.tensor(x[i:i + 1]), w, b).data
            # batched and single-row BLAS paths may differ in the last ulp
            assert np.allclose(one[0], both[i], rtol=1e-13, atol=1e-13)

    def test_gradients(self):
        rng = np.random.default_rng(6)
        x = ad.Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        w = ad.Tensor(rng.normal(size=(4, 2)), requires_grad=True)
        b = ad.Tensor(rng.normal(size=2), requires_grad=True)
        coef = rng.normal(size=(3, 2))

        def f():
            return ad.tsum(ad.mul(ad.dense(x, w, b), ad.tensor(coef)))

        for p in (x, w, b):
            num = numeric_gradient(f, p)
            (ana,) = analytic_gradient(f, [p])
            assert relative_error(ana, num) < 1e-6

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            ad.dense(ad.tensor(np.zeros((2, 3))), ad.tensor(np.zeros((4, 2))),
                     ad.tensor(np.zeros(2)))


class TestActivations:
    def test_relu_values(self):
        out = ad.relu(ad.tensor(np.array([-1.0, 0.0, 2.0])))
        assert np.array_equal(out.data, [0.0, 0.0, 2.0])

    def test_relu_gradient_zero_at_zero(self):
        x = ad.Tensor(np.array([-1.0, 0.0, 2.0]), requires_grad=True)
        ad.backward(ad.tsum(ad.relu(x)))
        assert np.array_equal(x.grad, [0.0, 0.0, 1.0])

    def test_sigmoid_at_zero(self):
        assert ad.sigmoid(ad.tensor(np.array([0.0]))).data[0] == 0.5

    def test_sigmoid_stable_at_extremes(self):
        out = ad.sigmoid(ad.tensor(np.array([-800.0, 800.0]))).data
        assert out[0] == 0.0 and out[1] == 1.0

    @pytest.mark.parametrize("op", [ad.relu, ad.sigmoid])
    def test_gradients(self, op):
        rng = np.random.default_rng(12)
        x = ad.Tensor(rng.normal(size=7) + 0.1, requires_grad=True)  # avoid the relu kink
        coef = rng.normal(size=7)

        def f():
            return ad.tsum(ad.mul(op(x), ad.tensor(coef)))

        num = numeric_gradient(f, x)
        (ana,) = analytic_gradient(f, [x])
        assert relative_error(ana, num) < 1e-6


class TestMaxpool:
    def test_basic(self):
        out = ad.maxpool1d(ad.tensor(np.array([[[1.0, 3.0, 2.0, 2.0]]])), 2)
        assert np.array_equal(out.data, [[[3.0, 2.0]]])

    def test_pool_one_is_identity(self):
        x = ad.tensor(np.ones((1, 1, 5)))
        assert ad.maxpool1d(x, 1) is x

    def test_trailing_remainder_dropped(self):
        out = ad.maxpool1d(ad.tensor(np.array([[[1.0, 2.0, 3.0, 4.0, 9.0]]])), 2)
        assert np.array_equal(out.data, [[[2.0, 4.0]]])

    def test_gradient_one_hot_first_max(self):
        x = ad.Tensor(np.array([[[1.0, 3.0, 2.0, 2.0]]]), requires_grad=True)
        ad.backward(ad.tsum(ad.maxpool1d(x, 2)))
        # tie in the second window goes to the first element
        assert np.array_equal(x.grad, [[[0.0, 1.0, 1.0, 0.0]]])

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        x = ad.Tensor(rng.normal(size=(2, 3, 11)), requires_grad=True)

        def f():
            return ad.tsum(ad.maxpool1d(x, 2))

        num = numeric_gradient(f, x)
        (ana,) = analytic_gradient(f, [x])
        assert relative_error(ana, num) < 1e-6


class TestBatchnorm:
    def test_train_mode_normalizes(self):
        rng = np.random.default_rng(19)
        x = ad.tensor(rng.normal(2.0, 3.0, size=(8, 4, 10)))
        st = ad.BatchNormState(4)
        out = ad.batchnorm1d(x, ad.tensor(np.ones(4)), ad.tensor(np.zeros(4)), st, True)
        assert np.abs(out.data.mean(axis=(0, 2))).max() < 1e-6
        assert np.abs(out.data.var(axis=(0, 2)) - 1.0).max() < 1e-4

    def test_infer_identity_with_unit_stats(self):
        x = np.random.default_rng(1).normal(size=(3, 2, 5))
        st = ad.BatchNormState(2)  # mean 0, var 1
        out = ad.batchnorm1d(ad.tensor(x), ad.tensor(np.ones(2)),
                             ad.tensor(np.zeros(2)), st, False)
        assert np.abs(out.data - x / np.sqrt(1 + ad.BN_EPS)).max() < 1e-12

    def test_running_stats_update(self):
        rng = np.random.default_rng(2)
        x = rng.normal(5.0, 2.0, size=(16, 3, 20))
        st = ad.BatchNormState(3)
        ad.batchnorm1d(ad.tensor(x), ad.tensor(np.ones(3)), ad.tensor(np.zeros(3)), st, True)
        want_mean = 0.9 * 0.0 + 0.1 * x.mean(axis=(0, 2))
        assert np.abs(st.mean - want_mean).max() < 1e-12

    def test_rejects_batch_of_one_in_train(self):
        st = ad.BatchNormState(2)
        with pytest.raises(ValueError):
            ad.batchnorm1d(ad.tensor(np.ones((1, 2, 5))), ad.tensor(np.ones(2)),
                           ad.tensor(np.zeros(2)), st, True)

    @pytest.mark.parametrize("train", [True, False])
    def test_full_gradient_check(self, train):
        rng = np.random.default_rng(31)
        x = ad.Tensor(rng.normal(size=(4, 2, 6)), requires_grad=True)
        gamma = ad.Tensor(rng.normal(1.0, 0.1, size=2), requires_grad=True)
        beta = ad.Tensor(rng.normal(size=2), requires_grad=True)
        coef = rng.normal(size=(4, 2, 6))
        st = ad.BatchNormState(2)
        st.mean = rng.normal(size=2)
        st.var = np.abs(rng.normal(1.0, 0.1, size=2))

        def f():
            fresh = st.copy()  # keep running stats fixed across FD probes
            y = ad.batchnorm1d(x, gamma, beta, fresh, train)
            return ad.tsum(ad.mul(y, ad.tensor(coef)))

        for p in (x, gamma, beta):
            num = numeric_gradient(f, p)
            (ana,) = analytic_gradient(f, [p])
            assert relative_error(ana, num) < 1e-4


    def test_folded_bias_equals_added_bias(self):
        rng = np.random.default_rng(4)
        h = rng.normal(size=(5, 3, 12))
        bias = rng.normal(size=3)
        gamma = ad.tensor(rng.normal(1.0, 0.1, size=3))
        beta = ad.tensor(rng.normal(size=3))
        for train in (True, False):
            st = ad.BatchNormState(3)
            st.mean = rng.normal(size=3)
            st.var = np.abs(rng.normal(1.0, 0.1, size=3))
            st_folded = st.copy()
            want = ad.batchnorm1d(ad.add_channel_bias(ad.tensor(h), ad.tensor(bias)),
                                  gamma, beta, st, train)
            got = ad.batchnorm1d(ad.tensor(h), gamma, beta, st_folded, train,
                                 bias=ad.tensor(bias))
            assert np.abs(got.data - want.data).max() < 1e-12
            assert np.abs(st_folded.mean - st.mean).max() < 1e-12
            assert np.abs(st_folded.var - st.var).max() < 1e-12

    @pytest.mark.parametrize("train", [True, False])
    def test_folded_bias_gradient(self, train):
        rng = np.random.default_rng(32)
        x = ad.Tensor(rng.normal(size=(4, 2, 6)), requires_grad=True)
        gamma = ad.Tensor(rng.normal(1.0, 0.1, size=2), requires_grad=True)
        beta = ad.Tensor(rng.normal(size=2), requires_grad=True)
        bias = ad.Tensor(rng.normal(size=2), requires_grad=True)
        coef = rng.normal(size=(4, 2, 6))
        st = ad.BatchNormState(2)
        st.mean = rng.normal(size=2)

        def f():
            y = ad.batchnorm1d(x, gamma, beta, st.copy(), train, bias=bias)
            return ad.tsum(ad.mul(y, ad.tensor(coef)))

        for p in (x, gamma, beta, bias):
            num = numeric_gradient(f, p)
            (ana,) = analytic_gradient(f, [p])
            assert relative_error(ana, num) < 1e-4
        if train:  # batch statistics cancel the bias exactly
            bias.zero_grad()
            ad.backward(f())
            assert bias.grad is None


class TestDropout:
    def test_rate_zero_identity(self):
        x = ad.tensor(np.ones((2, 2)))
        assert ad.dropout(x, 0.0, True, np.random.default_rng(0)) is x

    def test_infer_identity(self):
        x = ad.tensor(np.ones((2, 2)))
        assert ad.dropout(x, 0.9, False, np.random.default_rng(0)) is x

    def test_statistics_and_reproducibility(self):
        x = ad.tensor(np.ones(10_000))
        out1 = ad.dropout(x, 0.5, True, np.random.default_rng(77)).data
        out2 = ad.dropout(x, 0.5, True, np.random.default_rng(77)).data
        assert np.array_equal(out1, out2)
        kept = np.count_nonzero(out1) / out1.size
        assert abs(kept - 0.5) < 0.02
        assert abs(out1.mean() - 1.0) < 0.03  # inverted scaling keeps E[x]

    def test_gradient_uses_mask(self):
        x = ad.Tensor(np.ones(1000), requires_grad=True)
        out = ad.dropout(x, 0.5, True, np.random.default_rng(3))
        ad.backward(ad.tsum(out))
        assert np.array_equal(x.grad, out.data)  # mask * 2 where kept


class TestBnReluDropoutPool:
    """The fused stage node against batchnorm1d -> relu -> dropout -> maxpool1d."""

    @staticmethod
    def _inputs(length, seed=41, channels=4):
        """x, gamma (every other channel negative), beta, folded bias and running
        statistics away from their defaults."""
        rng = np.random.default_rng(seed)
        x = ad.Tensor(rng.normal(size=(5, channels, length)), requires_grad=True)
        gamma = ad.Tensor(rng.normal(1.0, 0.3, size=channels) * np.resize([1.0, -1.0], channels),
                          requires_grad=True)
        beta = ad.Tensor(rng.normal(size=channels), requires_grad=True)
        bias = ad.Tensor(rng.normal(size=channels), requires_grad=True)
        st = ad.BatchNormState(channels)
        st.mean = rng.normal(size=channels)
        st.var = rng.uniform(0.5, 2.0, size=channels)
        return x, gamma, beta, bias, st

    @staticmethod
    def _composed(x, gamma, beta, bias, st, train, rate, pool, mask_seed):
        h = ad.relu(ad.batchnorm1d(x, gamma, beta, st, train, bias=bias))
        if train and rate > 0.0:
            keep = ad.byte_keep_mask(np.random.default_rng(mask_seed), h.shape, rate)
            h = ad.mul(h, ad.tensor(keep / (1.0 - rate)))
        return ad.maxpool1d(h, pool)

    def _check_against_composed(self, x, gamma, beta, bias, st, train, pool):
        """Fused node and composed chain on the same inputs and mask: output,
        every gradient and the running statistics agree to 1e-12, and the
        inference output bitwise."""
        coef = np.random.default_rng(42).normal(size=x.shape[:2] + (x.shape[2] // pool,))
        params = (x, gamma, beta, bias)
        results = []
        for fused in (False, True):
            state = st.copy()
            for p in params:
                p.zero_grad()
            if fused:
                out = ad.bn_relu_dropout_pool(x, gamma, beta, state, train, 0.25,
                                              np.random.default_rng(6), pool, bias=bias)
            else:
                out = self._composed(x, gamma, beta, bias, state, train, 0.25, pool, 6)
            ad.backward(ad.tsum(ad.mul(out, ad.tensor(coef))))
            results.append((out.data, [p.grad for p in params], state))
        (want, want_grads, want_st), (got, got_grads, got_st) = results
        if train:
            assert np.abs(got - want).max() < 1e-12
            assert np.count_nonzero(got) > 0
        else:
            assert np.array_equal(got, want)   # bitwise: the fold is exact
        for g, w in zip(got_grads, want_grads):
            assert (g is None) == (w is None)
            if g is not None:
                assert np.abs(g - w).max() < 1e-12
        assert np.abs(got_st.mean - want_st.mean).max() < 1e-12
        assert np.abs(got_st.var - want_st.var).max() < 1e-12

    @pytest.mark.parametrize("pool, length", [(1, 12), (2, 12), (2, 13), (3, 14),
                                              (4, 17), (5, 23)])
    @pytest.mark.parametrize("train", [True, False])
    def test_matches_composed_ops(self, train, pool, length):
        # two of the four channels have gamma < 0: inference pools them by min
        self._check_against_composed(*self._inputs(length), train, pool)

    @pytest.mark.parametrize("channels", [1, 3, 5])
    @pytest.mark.parametrize("train", [True, False])
    def test_odd_channel_counts(self, train, channels):
        # the last channel pair takes the odd channel; one channel is a pair
        self._check_against_composed(*self._inputs(13, channels=channels), train, 2)

    @pytest.mark.parametrize("pool", [2, 3, 4, 5])
    @pytest.mark.parametrize("train", [True, False])
    def test_tied_windows_match_composed_ops(self, train, pool):
        x, gamma, beta, bias, st = self._inputs(6 * pool + 1)
        # three values only: most windows hold a tie for their max and min
        x.data[...] = np.random.default_rng(45).integers(-1, 2, size=x.shape)
        self._check_against_composed(x, gamma, beta, bias, st, train, pool)

    @pytest.mark.parametrize("train", [True, False])
    def test_pool_wider_than_a_byte(self, train):
        # rising windows: the max sits at offsets up to 299, past uint8
        x, gamma, beta, bias, st = self._inputs(601)
        x.data[...] = np.linspace(-1.0, 1.0, 601) + 0.01 * x.data
        self._check_against_composed(x, gamma, beta, bias, st, train, 300)

    @pytest.mark.parametrize("pool, length", [(1, 6), (2, 7), (3, 8)])
    @pytest.mark.parametrize("train", [True, False])
    def test_gradients_match_finite_differences(self, train, pool, length):
        x, gamma, beta, bias, st = self._inputs(length, seed=43)
        coef = np.random.default_rng(44).normal(size=(5, 4, length // pool))

        def f():
            # the same mask and running statistics on every probe
            y = ad.bn_relu_dropout_pool(x, gamma, beta, st.copy(), train, 0.5,
                                        np.random.default_rng(9), pool, bias=bias)
            return ad.tsum(ad.mul(y, ad.tensor(coef)))

        params = (x, gamma, beta) if train else (x, gamma, beta, bias)
        for p in params:
            num = numeric_gradient(f, p)
            (ana,) = analytic_gradient(f, [p])
            assert np.count_nonzero(ana) > 0
            assert relative_error(ana, num) < 1e-4

    def test_one_byte_mask_draw(self):
        x, gamma, beta, bias, st = self._inputs(10)
        rng, twin = np.random.default_rng(12), np.random.default_rng(12)
        ad.bn_relu_dropout_pool(x, gamma, beta, st, True, 0.5, rng, 2)
        twin.bytes(x.data.size)
        assert rng.bytes(16) == twin.bytes(16)
        # no draw without dropout, nor in infer mode
        for train, rate in ((True, 0.0), (False, 0.5)):
            ad.bn_relu_dropout_pool(x, gamma, beta, st, train, rate, rng, 2)
        assert rng.bytes(16) == twin.bytes(16)

    def test_byte_keep_mask(self):
        keep = ad.byte_keep_mask(np.random.default_rng(77), (4, 5000), 0.25)
        assert keep.dtype == bool and keep.shape == (4, 5000)
        assert abs(keep.mean() - 0.75) < 0.01
        again = np.frombuffer(np.random.default_rng(77).bytes(20_000), np.uint8) >= 64
        assert np.array_equal(keep.reshape(-1), again)
        assert ad.byte_keep_mask(np.random.default_rng(0), (100,), 0.0).all()

    def test_rejects_bad_arguments(self):
        x, gamma, beta, bias, st = self._inputs(10)
        rng = np.random.default_rng(0)
        for rate in (0.3, 1.0, -0.5):   # 0.3 is not a multiple of 1/256
            with pytest.raises(ValueError):
                ad.bn_relu_dropout_pool(x, gamma, beta, st, True, rate, rng, 2)
        for pool in (0, 11):
            with pytest.raises(ValueError):
                ad.bn_relu_dropout_pool(x, gamma, beta, st, True, 0.5, rng, pool)


class TestStageWorkers:
    """Grouped conv1d splits its work by channel groups and the fused stage
    node by channel pairs across the stage workers; every result must be
    bitwise the same for any worker count."""

    CHUNKS = (1, 2, 3, 4)

    @staticmethod
    def _force(monkeypatch, n):
        """n stage workers (capped at the group count), whatever the host."""
        monkeypatch.setattr(ad, "available_cpus", lambda: n)

    def _per_chunk_count(self, monkeypatch, run):
        """run() under each chunk count, with thread switches forced often;
        asserts every array it returns is bitwise equal to the one-chunk
        result."""
        results = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for n in self.CHUNKS:
                self._force(monkeypatch, n)
                results.append(run())
        finally:
            sys.setswitchinterval(interval)
        for got in results[1:]:
            self._assert_bitwise_equal(got, results[0])
        return results[0]

    @staticmethod
    def _assert_bitwise_equal(got, want):
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert g.shape == w.shape and g.dtype == w.dtype
            assert g.tobytes() == w.tobytes()

    def test_worker_count_capped_at_parts(self, monkeypatch):
        self._force(monkeypatch, 2)
        assert ad.stage_workers(4) == 2 and ad.stage_workers(1) == 1
        self._force(monkeypatch, 8)
        assert ad.stage_workers(4) == 4

    def test_channel_pairs_cover_every_channel(self):
        assert ad._channel_blocks(0, 3, 7) == [(0, 2), (2, 4), (4, 7)]
        assert ad._channel_blocks(1, 2, 6) == [(2, 4)]
        assert ad._channel_blocks(0, 1, 1) == [(0, 1)]

    def test_every_chunk_finishes_and_errors_reach_the_caller(self, monkeypatch):
        self._force(monkeypatch, 4)
        done = []

        def work(g0, g1):
            time.sleep(0.01 * (4 - g0))   # the pool's chunks end last
            done.append((g0, g1))
            if g0 == 3:
                raise RuntimeError("chunk 3")

        with pytest.raises(RuntimeError, match="chunk 3"):
            ad._run_split(work, 4)
        assert sorted(done) == [(0, 1), (1, 2), (2, 3), (3, 4)]

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_forked_child_runs_its_own_pool(self, monkeypatch):
        # the child inherits the pool object but none of its threads; a
        # task queued there would never run
        self._force(monkeypatch, 2)
        x = ad.tensor(np.random.default_rng(50).normal(size=(2, 4, 12)))
        kern = ad.tensor(np.random.default_rng(51).normal(size=(8, 1, 3)))
        want = ad.conv1d(x, kern, "valid", groups=4).data
        pid = os.fork()
        if pid == 0:
            got = ad.conv1d(x, kern, "valid", groups=4).data
            os._exit(0 if np.array_equal(got, want) else 1)
        deadline = time.monotonic() + 60.0
        while (done := os.waitpid(pid, os.WNOHANG))[0] == 0 and time.monotonic() < deadline:
            time.sleep(0.05)
        if done[0] == 0:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        assert done[0] == pid and os.waitstatus_to_exitcode(done[1]) == 0

    @pytest.mark.parametrize("padding", ["valid", "same"])
    @pytest.mark.parametrize("ci,co", [(1, 8), (8, 4)])
    def test_grouped_conv_is_chunk_invariant(self, monkeypatch, padding, ci, co):
        groups = 4
        rng = np.random.default_rng(10 * ci + co)
        xv = rng.normal(size=(3, groups * ci, 37))
        kv = rng.normal(size=(groups * co, ci, 5))
        coef = rng.normal(size=(3, groups * co, 37 if padding == "same" else 33))

        def run():
            x = ad.Tensor(xv, requires_grad=True)
            kern = ad.Tensor(kv, requires_grad=True)
            y = ad.conv1d(x, kern, padding, groups=groups)
            ad.backward(ad.tsum(ad.mul(y, ad.tensor(coef))))
            return y.data, x.grad, kern.grad

        whole = self._per_chunk_count(monkeypatch, run)
        # the batch in blocks of one row each, not in one block
        monkeypatch.setattr(ad, "_BLOCK_BYTES", 1)
        self._assert_bitwise_equal(self._per_chunk_count(monkeypatch, run), whole)

    @pytest.mark.parametrize("channels", [8, 7])
    @pytest.mark.parametrize("pool", [1, 2, 3])
    @pytest.mark.parametrize("rate", [0.0, 0.5])
    @pytest.mark.parametrize("train", [True, False])
    def test_stage_node_is_chunk_invariant(self, monkeypatch, train, rate, pool, channels):
        x, gamma, beta, bias, st = TestBnReluDropoutPool._inputs(23, seed=47,
                                                                 channels=channels)
        coef = np.random.default_rng(48).normal(size=(5, channels, 23 // pool))

        def run():
            state = st.copy()
            for p in (x, gamma, beta, bias):
                p.zero_grad()
            out = ad.bn_relu_dropout_pool(x, gamma, beta, state, train, rate,
                                          np.random.default_rng(8), pool, bias=bias)
            ad.backward(ad.tsum(ad.mul(out, ad.tensor(coef))))
            grads = [p.grad for p in (x, gamma, beta, bias) if p.grad is not None]
            assert len(grads) == (3 if train else 4)
            return (out.data, *grads, state.mean, state.var)

        self._per_chunk_count(monkeypatch, run)

    def test_gradients_match_finite_differences_on_two_chunks(self, monkeypatch):
        self._force(monkeypatch, 2)
        rng = np.random.default_rng(49)
        x = ad.Tensor(rng.normal(size=(3, 4, 16)), requires_grad=True)
        kern = ad.Tensor(rng.normal(size=(8, 1, 5)), requires_grad=True)
        gamma = ad.Tensor(rng.normal(1.0, 0.3, size=8) * np.tile([1, -1], 4),
                          requires_grad=True)
        beta = ad.Tensor(rng.normal(size=8), requires_grad=True)
        bias = ad.Tensor(rng.normal(size=8), requires_grad=True)
        st = ad.BatchNormState(8)
        coef = rng.normal(size=(3, 8, 6))
        for train in (True, False):
            def f():
                h = ad.conv1d(x, kern, "valid", groups=4)
                y = ad.bn_relu_dropout_pool(h, gamma, beta, st.copy(), train, 0.5,
                                            np.random.default_rng(9), 2, bias=bias)
                return ad.tsum(ad.mul(y, ad.tensor(coef)))

            params = (x, kern, gamma, beta) if train else (x, kern, gamma, beta, bias)
            for p in params:
                num = numeric_gradient(f, p)
                (ana,) = analytic_gradient(f, [p])
                assert np.count_nonzero(ana) > 0
                assert relative_error(ana, num) < 1e-4


class TestNoGrad:
    def test_ops_build_no_graph(self):
        x = ad.tensor(np.ones((4, 2)))
        w = ad.parameter(np.ones((2, 3)))
        b = ad.parameter(np.zeros(3))
        with ad.no_grad():
            y = ad.relu(ad.dense(x, w, b))
        assert y.op == "relu" and not y.requires_grad
        assert y._parents == () and y._backward is None
        z = ad.relu(ad.dense(x, w, b))
        assert z.requires_grad and z._backward is not None
        assert np.array_equal(y.data, z.data)

    def test_op_outputs_are_not_scanned(self):
        with ad.no_grad():
            y = ad.scale(ad.tensor(np.ones(2)), np.inf)
        assert np.all(np.isinf(y.data))
        with pytest.raises(ValueError):
            ad.tensor(np.array([np.inf]))  # leaves still are

    def test_graph_building_restored_after_error(self):
        with pytest.raises(RuntimeError):
            with ad.no_grad():
                with ad.no_grad():
                    pass
                raise RuntimeError("inside")
        assert ad.scale(ad.parameter(np.ones(2)), 2.0)._backward is not None


class TestWeightedBce:
    def test_half_prediction_is_ln2(self):
        loss = ad.weighted_bce(ad.tensor(np.array([0.5])), np.array([1]), np.array([1.0]))
        assert abs(float(loss.data) - np.log(2.0)) < 1e-12

    def test_weight_scales_loss_and_gradient(self):
        p = ad.Tensor(np.array([0.3, 0.8]), requires_grad=True)
        l1 = ad.weighted_bce(p, np.array([1, 0]), np.array([1.0, 1.0]))
        ad.backward(l1)
        g1 = p.grad.copy()
        p.zero_grad()
        l2 = ad.weighted_bce(p, np.array([1, 0]), np.array([2.0, 2.0]))
        ad.backward(l2)
        assert abs(float(l2.data) - 2.0 * float(l1.data)) < 1e-12
        assert np.abs(p.grad - 2.0 * g1).max() < 1e-12

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(13)
        p = ad.Tensor(rng.uniform(0.05, 0.95, size=6), requires_grad=True)
        y = np.array([1, 0, 1, 1, 0, 0])
        w = rng.uniform(0.5, 2.0, size=6)

        def f():
            return ad.weighted_bce(p, y, w)

        num = numeric_gradient(f, p)
        (ana,) = analytic_gradient(f, [p])
        assert relative_error(ana, num) < 1e-6

    def test_rejects_bad_labels(self):
        with pytest.raises(ValueError):
            ad.weighted_bce(ad.tensor(np.array([0.5])), np.array([2]), np.array([1.0]))


class TestBackward:
    def test_sum_gradient_all_ones(self):
        x = ad.Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        ad.backward(ad.tsum(x))
        assert np.array_equal(x.grad, np.ones((2, 3)))

    def test_composite_three_layer_check(self):
        rng = np.random.default_rng(55)
        x = ad.tensor(rng.normal(size=(3, 4)))
        w1 = ad.Tensor(rng.normal(size=(4, 5)) * 0.5, requires_grad=True)
        b1 = ad.Tensor(np.zeros(5), requires_grad=True)
        w2 = ad.Tensor(rng.normal(size=(5, 2)) * 0.5, requires_grad=True)
        b2 = ad.Tensor(np.zeros(2), requires_grad=True)
        w3 = ad.Tensor(rng.normal(size=(2, 1)) * 0.5, requires_grad=True)
        b3 = ad.Tensor(np.zeros(1), requires_grad=True)
        y = np.array([1, 0, 1])
        wts = np.ones(3)

        def f():
            h1 = ad.relu(ad.dense(x, w1, b1))
            h2 = ad.relu(ad.dense(h1, w2, b2))
            out = ad.sigmoid(ad.dense(h2, w3, b3))
            return ad.weighted_bce(ad.reshape(out, (3,)), y, wts)

        for p in (w1, b1, w2, b2, w3, b3):
            num = numeric_gradient(f, p)
            (ana,) = analytic_gradient(f, [p])
            assert relative_error(ana, num) < 1e-4

    def test_reused_parameter_gradient_sums(self):
        # k appears twice; its gradient must equal the sum of the two
        # single-use gradients computed separately
        rng = np.random.default_rng(66)
        xv = rng.normal(size=(1, 1, 10))
        kv = rng.normal(size=(1, 1, 3))
        k = ad.Tensor(kv, requires_grad=True)
        x = ad.tensor(xv)

        def both():
            y1 = ad.conv1d(x, k, "same")
            y2 = ad.conv1d(y1, k, "same")
            return ad.tsum(y2)

        ad.backward(both())
        g_shared = k.grad.copy()

        # manual two-pass: freeze one use at a time
        k1 = ad.Tensor(kv, requires_grad=True)
        y1 = ad.conv1d(x, k1, "same")
        ad.backward(ad.tsum(ad.conv1d(y1, ad.tensor(kv), "same")))
        g_first = k1.grad.copy()

        k2 = ad.Tensor(kv, requires_grad=True)
        y1c = ad.conv1d(x, ad.tensor(kv), "same")
        ad.backward(ad.tsum(ad.conv1d(y1c, k2, "same")))
        g_second = k2.grad.copy()
        assert relative_error(g_shared, g_first + g_second) < 1e-10

    def test_rejects_non_scalar_root(self):
        x = ad.Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(ValueError):
            ad.backward(ad.relu(x))

    def test_rejects_cycle(self):
        a = ad.Tensor(np.array(1.0), requires_grad=True)
        b = ad.scale(a, 2.0)
        # forge a cycle, which normal construction cannot produce
        a._parents = (b,)
        with pytest.raises(ValueError):
            ad.backward(b)

    def test_deterministic(self):
        rng = np.random.default_rng(10)
        xv = rng.normal(size=(2, 1, 50))
        kv = rng.normal(size=(2, 1, 21))

        def run():
            k = ad.Tensor(kv.copy(), requires_grad=True)
            ad.backward(ad.tsum(ad.conv1d(ad.tensor(xv), k, "same")))
            return k.grad

        assert np.array_equal(run(), run())
