import numpy as np
import pytest

import pcgnet.autodiff as ad
from pcgnet.dsp import Waveform
from pcgnet.fir import apply_fir, default_bank
from pcgnet.frontend import TConvLayer, init_kernel
from pcgnet.model import NetworkConfig, _he_normal, build

from gradcheck import analytic_gradient, numeric_gradient, relative_error


def center_delta_kernel(bands=4, k_len=61):
    kern = np.zeros((bands, 1, k_len))
    kern[:, 0, (k_len - 1) // 2] = 1.0
    return kern


class TestInitKernel:
    def test_fir_bank_copies_reversed(self):
        bank = default_bank(1000.0, 60)
        kern = init_kernel(bank, (4, 1, 61))
        for b, f in enumerate(bank.filters):
            assert np.array_equal(kern[b, 0], f.coeffs[::-1])
            # designed filters are symmetric, so this equals the coefficients
            assert np.array_equal(kern[b, 0], f.coeffs)

    def test_zeros(self):
        net = build(NetworkConfig(frontend="tconv_free", init="zeros", input_len=100))
        assert not net.frontend.param.data.any()

    def test_he_std(self):
        # build's random init: He-normal, std sqrt(2 / kernel_len)
        kern = _he_normal(np.random.default_rng(7), (100_000 // 61 + 1, 1, 61), 61)
        flat = kern.reshape(-1)[:100_000]
        want = np.sqrt(2.0 / 61.0)
        assert abs(flat.std() - want) / want < 0.02
        net = build(NetworkConfig(frontend="tconv_free", init="random", input_len=100, seed=7))
        stream = np.random.SeedSequence(7).spawn(6)[0]
        assert np.array_equal(net.frontend.param.data,
                              _he_normal(np.random.default_rng(stream), (4, 1, 61), 61))

    def test_fir_bank_length_mismatch_rejected(self):
        bank = default_bank(1000.0, 60)
        with pytest.raises(ValueError):
            init_kernel(bank, (4, 1, 31))

    def test_fir_bank_count_mismatch_rejected(self):
        bank = default_bank(1000.0, 60)
        with pytest.raises(ValueError):
            init_kernel(bank, (3, 1, 61))


class TestFreeVariant:
    def test_center_delta_is_identity_per_band(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(2, 1, 200))
        layer = TConvLayer("free", center_delta_kernel())
        out = layer.forward(ad.tensor(x)).data
        for b in range(4):
            assert np.abs(out[:, b] - x[:, 0]).max() < 1e-15

    def test_fir_init_matches_causal_filter_after_alignment(self):
        # frozen fir-initialized front-end == the designed bank, modulo the
        # 30-sample alignment between the centered layer and the causal form
        rng = np.random.default_rng(1)
        x = rng.normal(size=2500)
        bank = default_bank(1000.0, 60)
        layer = TConvLayer("free", init_kernel(bank, (4, 1, 61)), trainable=False)
        out = layer.forward(ad.tensor(x[None, None, :])).data[0]
        for b, f in enumerate(bank.filters):
            causal = apply_fir(f, Waveform(x, 1000.0)).samples
            # layer output leads the causal output by N/2 = 30 samples
            assert np.abs(out[b, :-30] - causal[30:]).max() < 1e-10

    def test_wrong_channel_count_rejected(self):
        layer = TConvLayer("free", center_delta_kernel())
        with pytest.raises(ValueError):
            layer.forward(ad.tensor(np.zeros((1, 2, 100))))


class TestLinearPhaseVariant:
    def test_materialized_kernel_symmetric_bit_exact(self):
        rng = np.random.default_rng(3)
        layer = TConvLayer("linear_phase", rng.normal(size=(4, 1, 61)))
        kern = layer.materialized_kernel().data
        for b in range(4):
            assert np.array_equal(kern[b, 0], kern[b, 0][::-1])

    def test_symmetry_survives_gradient_updates(self):
        rng = np.random.default_rng(4)
        layer = TConvLayer("linear_phase", rng.normal(size=(4, 1, 61)) * 0.1)
        x = rng.normal(size=(4, 1, 300))
        for _ in range(5):
            out = layer.forward(ad.tensor(x))
            loss = ad.sum_of_squares(out)
            layer.param.zero_grad()
            ad.backward(loss)
            layer.param.data -= 1e-3 * layer.param.grad
        kern = layer.materialized_kernel().data
        for b in range(4):
            assert np.array_equal(kern[b, 0], kern[b, 0][::-1])

    def test_shared_parameter_gradient_is_sum_of_mirrored(self):
        # gradient of one half parameter == sum of the gradients a free
        # kernel would get at the two mirrored positions
        rng = np.random.default_rng(5)
        half = rng.normal(size=(1, 1, 31))
        lp = TConvLayer("linear_phase", np.concatenate(
            [half, half[:, :, :-1][:, :, ::-1]], axis=2))
        x = rng.normal(size=(1, 1, 80))
        coef = rng.normal(size=(1, 1, 80))

        def f_lp():
            return ad.tsum(ad.mul(lp.forward(ad.tensor(x)), ad.tensor(coef)))

        (g_half,) = analytic_gradient(f_lp, [lp.param])
        num = numeric_gradient(f_lp, lp.param)
        assert relative_error(g_half, num) < 1e-6

        free = TConvLayer("free", lp.materialized_kernel().data.copy())

        def f_free():
            return ad.tsum(ad.mul(free.forward(ad.tensor(x)), ad.tensor(coef)))

        (g_free,) = analytic_gradient(f_free, [free.param])
        mirrored = g_free[:, :, :31].copy()
        mirrored[:, :, :30] += g_free[:, :, 31:][:, :, ::-1]
        assert relative_error(g_half, mirrored) < 1e-10

    def test_fir_init_reconstructs_designed_filters(self):
        bank = default_bank(1000.0, 60)
        layer = TConvLayer("linear_phase", init_kernel(bank, (4, 1, 61)))
        kern = layer.materialized_kernel().data
        for b, f in enumerate(bank.filters):
            assert np.array_equal(kern[b, 0], f.coeffs)


class TestZeroPhaseVariant:
    def test_center_delta_is_identity(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(1, 1, 120))
        layer = TConvLayer("zero_phase", center_delta_kernel())
        out = layer.forward(ad.tensor(x)).data
        for b in range(4):
            assert np.abs(out[0, b] - x[0, 0]).max() < 1e-12

    def test_impulse_response_is_autocorrelation(self):
        rng = np.random.default_rng(7)
        kern = rng.normal(size=(4, 1, 61))
        layer = TConvLayer("zero_phase", kern)
        n = 512
        x = np.zeros((1, 1, n))
        x[0, 0, n // 2] = 1.0
        out = layer.forward(ad.tensor(x)).data[0]
        for b in range(4):
            h = kern[b, 0]
            acorr = np.correlate(h, h, mode="full")  # length 121, symmetric
            got = out[b, n // 2 - 60:n // 2 + 61]
            assert np.abs(got - acorr).max() < 1e-12
            assert np.abs(got - got[::-1]).max() < 1e-12

    def test_composite_response_is_squared_magnitude(self):
        rng = np.random.default_rng(8)
        kern = rng.normal(size=(4, 1, 61))
        layer = TConvLayer("zero_phase", kern)
        n = 512
        x = np.zeros((1, 1, n))
        x[0, 0, n // 2] = 1.0
        out = layer.forward(ad.tensor(x)).data[0]
        w = 2 * np.pi * np.arange(n // 2 + 1) / n
        for b in range(4):
            resp = np.fft.rfft(out[b]) * np.exp(1j * w * (n // 2))  # undo the delta's shift
            target = np.abs(np.fft.rfft(kern[b, 0], n)) ** 2
            assert np.abs(resp.imag).max() < 1e-9
            assert resp.real.min() > -1e-9
            assert np.abs(resp.real - target).max() < 1e-9

    def test_reverse_pass_equals_flip_conv_flip(self):
        # the reverse pass runs on the time-reversed kernel, not on
        # time-reversed bands: same output and gradients as the composed
        # flip_time -> conv1d -> flip_time, and no flip of a band tensor
        rng = np.random.default_rng(10)
        layer = TConvLayer("zero_phase", rng.normal(size=(4, 1, 61)))
        x = rng.normal(size=(3, 1, 200))
        coef = ad.tensor(rng.normal(size=(3, 4, 200)))
        kern = layer.param
        out = layer.forward(ad.tensor(x))
        z = ad.conv1d(ad.tensor(x), kern, padding="same")
        want = ad.flip_time(ad.conv1d(ad.flip_time(z), kern, padding="same", groups=4))
        assert np.abs(out.data - want.data).max() < 1e-12 * np.abs(want.data).max()
        (g_out,) = analytic_gradient(lambda: ad.tsum(ad.mul(out, coef)), [kern])
        (g_want,) = analytic_gradient(lambda: ad.tsum(ad.mul(want, coef)), [kern])
        assert np.abs(g_out - g_want).max() < 1e-12 * np.abs(g_want).max()

        flips, todo, seen = [], [out], set()
        while todo:
            node = todo.pop()
            if id(node) in seen:
                continue
            seen.add(id(node))
            if node.op == "flip_time":
                flips.append(node.shape)
            todo.extend(node._parents)
        assert flips == [(4, 1, 61)]

    def test_gradient_flows_through_both_uses(self):
        rng = np.random.default_rng(9)
        layer = TConvLayer("zero_phase", rng.normal(size=(2, 1, 5)))
        x = rng.normal(size=(1, 1, 30))
        coef = rng.normal(size=(1, 2, 30))

        def f():
            return ad.tsum(ad.mul(layer.forward(ad.tensor(x)), ad.tensor(coef)))

        (ana,) = analytic_gradient(f, [layer.param])
        num = numeric_gradient(f, layer.param)
        assert relative_error(ana, num) < 1e-6


class TestParamCounts:
    def test_free_244(self):
        assert TConvLayer("free", np.zeros((4, 1, 61))).free_param_count() == 244

    def test_linear_phase_124(self):
        layer = TConvLayer("linear_phase", np.zeros((4, 1, 61)))
        assert layer.free_param_count() == 124  # 31 per band: (61+1)/2

    def test_zero_phase_244(self):
        assert TConvLayer("zero_phase", np.zeros((4, 1, 61))).free_param_count() == 244

    def test_non_trainable_exposes_no_parameters(self):
        layer = TConvLayer("free", np.zeros((4, 1, 61)), trainable=False)
        assert layer.parameters() == []
        assert len(layer.state_arrays()) == 1


class TestValidation:
    def test_rejects_even_kernel(self):
        with pytest.raises(ValueError):
            TConvLayer("free", np.zeros((4, 1, 60)))

    def test_rejects_unknown_variant(self):
        with pytest.raises(ValueError):
            TConvLayer("minimum_phase", np.zeros((4, 1, 61)))

    def test_rejects_multichannel(self):
        with pytest.raises(ValueError):
            TConvLayer("free", np.zeros((4, 2, 61)))
