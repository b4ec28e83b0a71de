import json
import struct
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import pcgnet.autodiff as ad
import pcgnet.model as mdl
from pcgnet.cli import FRONTEND_ALIASES, INIT_ALIASES, build_parser
from pcgnet.data import CYCLE_LEN
from pcgnet.errors import CheckpointError
from pcgnet.model import (CKPT_MAGIC, FRONTENDS, INITS, Network, NetworkConfig,
                          aggregate_recording, branch_feature_len, build, config_name,
                          flatten_width, load, save)

from _reference import REFERENCE_ROWS, branch_loop_forward, branch_states


def shape_oracle(input_len, kernel=5, pool=2):
    """Propagate shapes step by step, independently of the model code."""
    n = input_len
    n = n - kernel + 1   # conv1 valid
    n = n // pool        # maxpool
    n = n - kernel + 1   # conv2 valid
    n = n // pool        # maxpool
    return n


class TestShapes:
    def test_standard_input_arithmetic(self):
        # 2500 -> 2496 -> 1248 -> 1244 -> 622; 4*622 per branch; 4 branches
        assert branch_feature_len(2500) == 622
        cfg = NetworkConfig(frontend="external_fir", seed=0)
        assert flatten_width(cfg) == 9952

    def test_head_parameter_count(self):
        net = build(NetworkConfig(frontend="external_fir", seed=0))
        head = (net.head_w1.data.size + net.head_b1.data.size
                + net.head_w2.data.size + net.head_b2.data.size)
        assert head == 9952 * 20 + 20 + 20 * 1 + 1

    def test_shape_propagation_random_lengths(self):
        rng = np.random.default_rng(0)
        for length in rng.integers(20, 400, size=10):
            length = int(length)
            assert branch_feature_len(length) == shape_oracle(length)
            cfg = NetworkConfig(frontend="tconv_free", init="random",
                                input_len=length, seed=1)
            net = build(cfg)
            x = rng.normal(size=(2, length))
            out = net.forward(x)
            assert out.data.shape == (2,)

    def test_lp_frontend_adds_124_trainable_params(self):
        base = build(NetworkConfig(frontend="external_fir", seed=3))
        lp = build(NetworkConfig(frontend="tconv_lp", init="fir_bank", seed=3))
        assert lp.trainable_count() - base.trainable_count() == 124

    def test_free_and_zp_frontends_add_244(self):
        base = build(NetworkConfig(frontend="external_fir", seed=3))
        for fe in ("tconv_free", "tconv_zp"):
            net = build(NetworkConfig(frontend=fe, init="fir_bank", seed=3))
            assert net.trainable_count() - base.trainable_count() == 244

    def test_frozen_frontend_adds_nothing_trainable(self):
        base = build(NetworkConfig(frontend="external_fir", seed=3))
        net = build(NetworkConfig(frontend="tconv_free", init="fir_bank",
                                  frontend_trainable=False, seed=3))
        assert net.trainable_count() == base.trainable_count()


class TestBuild:
    def test_same_seed_identical_parameters(self):
        a = build(NetworkConfig(frontend="tconv_lp", init="random", seed=11))
        b = build(NetworkConfig(frontend="tconv_lp", init="random", seed=11))
        for (na, pa), (nb, pb) in zip(a.parameters(), b.parameters()):
            assert na == nb
            assert np.array_equal(pa.data, pb.data)

    def test_different_seed_differs(self):
        a = build(NetworkConfig(frontend="tconv_free", init="random", seed=1))
        b = build(NetworkConfig(frontend="tconv_free", init="random", seed=2))
        assert not np.array_equal(a.frontend.param.data,
                                  b.frontend.param.data)

    def test_branch_params_independent_of_frontend_choice(self):
        # shared seed must give identical branches/head across front-ends,
        # otherwise the baseline-equivalence comparison is meaningless
        a = build(NetworkConfig(frontend="external_fir", seed=5))
        b = build(NetworkConfig(frontend="tconv_free", init="random", seed=5))
        for (na, pa), (nb, pb) in zip(
                [(n, p) for n, p in a.parameters() if not n.startswith("frontend")],
                [(n, p) for n, p in b.parameters() if not n.startswith("frontend")]):
            assert na == nb
            assert np.array_equal(pa.data, pb.data)

    def test_invalid_configs_rejected(self):
        with pytest.raises(ValueError):
            NetworkConfig(frontend="mlp")
        with pytest.raises(ValueError):
            NetworkConfig(frontend="external_fir", init="zeros")
        with pytest.raises(ValueError):
            NetworkConfig(frontend="tconv_free", kernel_len=60)
        with pytest.raises(ValueError):
            NetworkConfig(input_len=19)
        with pytest.raises(ValueError):     # the 61-tap bank is longer than a cycle
            NetworkConfig(frontend="external_fir", input_len=60)
        with pytest.raises(ValueError):
            NetworkConfig(hidden=21)
        with pytest.raises(ValueError):
            NetworkConfig(frontend="tconv_free", init="he")
        for bad in ({"dropout": 1.0}, {"dropout": -0.1}, {"dropout": 0.3},
                    {"dropout": 1 / 512}, {"l2_conv": -1e-3}, {"l2_conv": float("nan")}):
            with pytest.raises(ValueError):
                NetworkConfig(**bad)


class TestForward:
    def test_zero_input_near_half(self):
        net = build(NetworkConfig(frontend="tconv_free", init="random",
                                  input_len=200, seed=7))
        out = net.forward(np.zeros((4, 200))).data
        assert np.all((out > 0.3) & (out < 0.7))

    def test_infer_deterministic(self):
        net = build(NetworkConfig(frontend="tconv_lp", init="fir_bank",
                                  input_len=300, seed=2))
        x = np.random.default_rng(0).normal(size=(3, 300))
        assert np.array_equal(net.forward(x).data, net.forward(x).data)

    def test_batch_permutation_equivariant(self):
        net = build(NetworkConfig(frontend="tconv_free", init="random",
                                  input_len=250, seed=9))
        rng = np.random.default_rng(1)
        x = rng.normal(size=(5, 250))
        perm = rng.permutation(5)
        out = net.forward(x).data
        out_p = net.forward(x[perm]).data
        assert np.allclose(out_p, out[perm], rtol=1e-10, atol=1e-12)

    def test_probabilities_in_unit_interval(self):
        net = build(NetworkConfig(frontend="tconv_zp", init="random",
                                  input_len=200, seed=4))
        x = np.random.default_rng(2).normal(size=(6, 200)) * 5
        out = net.forward(x).data
        assert np.all((out > 0) & (out < 1))

    def test_wrong_rank_rejected(self):
        # every front-end takes raw [batch, input_len] cycles and nothing else
        for net in (build(NetworkConfig(frontend="external_fir", input_len=100, seed=0)),
                    build(NetworkConfig(frontend="tconv_free", init="random",
                                        input_len=100, seed=0))):
            assert net.forward(np.zeros((2, 100))).data.shape == (2,)
            for shape in ((2, 1, 100), (2, 4, 100), (2, 101)):
                with pytest.raises(ValueError):
                    net.forward(np.zeros(shape))

    def test_dropout_rates_in_steps_of_1_256(self):
        for rate in (0.0, 1 / 256, 0.25, 0.5, 255 / 256):
            assert NetworkConfig(dropout=rate).dropout == rate

    def test_train_forward_draws_one_byte_mask_per_stage(self):
        net = build(NetworkConfig(frontend="tconv_lp", input_len=300, seed=0))
        rng, twin = np.random.default_rng(5), np.random.default_rng(5)
        net.forward(np.random.default_rng(1).normal(size=(6, 300)), train=True, rng=rng)
        twin.bytes(6 * 32 * 296)          # stage 1: [6, 4*8, 300 - 4]
        twin.bytes(6 * 16 * (148 - 4))    # stage 2: [6, 4*4, 296 // 2 - 4]
        assert rng.bytes(64) == twin.bytes(64)

    def test_train_mode_requires_rng(self):
        net = build(NetworkConfig(frontend="tconv_free", init="random",
                                  input_len=100, seed=0))
        with pytest.raises(ValueError):
            net.forward(np.zeros((2, 100)), train=True)


class TestInferenceStages:
    """Without a graph, each branch stage runs as autodiff.conv_bn_relu_pool,
    one block of batch rows at a time; with one, as conv1d and the stage
    node."""

    @pytest.mark.parametrize("frontend", list(FRONTENDS))
    def test_no_grad_forward_equals_graph_building_forward(self, frontend):
        net = build(NetworkConfig(frontend=frontend, init="random", seed=21))
        rng = np.random.default_rng(22)
        for stage in (net.stage1, net.stage2):
            # min-pooled channels (gamma < 0), biases and running statistics
            stage.gamma.data[...] *= np.resize([1.0, -1.0], stage.gamma.data.size)
            stage.b.data[...] = rng.normal(size=stage.b.data.shape)
            stage.state.mean[...] = rng.normal(size=stage.state.mean.shape)
            stage.state.var[...] = rng.uniform(0.5, 2.0, size=stage.state.var.shape)
        # one 2500-sample row fills a stage block, so 5 rows are 5 blocks
        raw = rng.normal(size=(5, CYCLE_LEN))
        want = net.forward(raw)
        assert want._parents
        with ad.no_grad():
            got = net.forward(raw).data
        assert got.tobytes() == want.data.tobytes()

    def test_no_grad_forward_never_holds_the_stage1_conv_output(self):
        net = build(NetworkConfig(frontend="tconv_lp", seed=23))
        raw = np.random.default_rng(24).normal(size=(64, CYCLE_LEN))
        conv_out_bytes = 8 * 64 * 32 * (CYCLE_LEN - 4)   # [64, 4*8, 2496]
        with ad.no_grad():
            net.forward(raw[:2])   # the stage workers' pool starts outside the count
            tracemalloc.start()
            try:
                net.forward(raw)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak < conv_out_bytes


class TestGroupedStage:
    """The grouped branch stage against the per-branch op chains it replaces."""

    @staticmethod
    def _net_and_batch(frontend, init="random"):
        """The net, raw cycles for its forward, and the same cycles as the
        reference takes them: split into bands for external_fir, with a
        channel axis otherwise."""
        net = build(NetworkConfig(frontend=frontend, init=init, input_len=300, seed=12))
        rng = np.random.default_rng(40)
        # nonzero biases and running statistics, so the folding is exercised
        for stage in (net.stage1, net.stage2):
            stage.b.data[...] = rng.normal(size=stage.b.data.shape)
            stage.state.mean[...] = rng.normal(size=stage.state.mean.shape)
            stage.state.var[...] = rng.uniform(0.5, 2.0, size=stage.state.var.shape)
        raw = rng.normal(size=(6, 300))
        batch = net.decompose(raw) if frontend == "external_fir" else raw[:, None, :]
        return net, raw, batch

    @pytest.mark.parametrize("frontend", ["tconv_lp", "tconv_zp", "tconv_free",
                                          "external_fir"])
    def test_train_forward_and_gradients_match_branch_loop(self, frontend):
        net, raw, batch = self._net_and_batch(frontend)
        labels = np.array([1, 0, 1, 0, 1, 1])
        weights = np.linspace(0.5, 1.5, 6)
        states = branch_states(net)
        params = net.parameters()

        def grads(pred):
            net.zero_grad()
            ad.backward(ad.add(ad.weighted_bce(pred, labels, weights), net.l2_penalty()))
            return [p.grad if p.grad is not None else np.zeros_like(p.data) for _, p in params]

        assert net.config.dropout == 0.5
        want = branch_loop_forward(net, batch, True, np.random.default_rng(3), states)
        want_grads = grads(want)
        got = net.forward(raw, train=True, rng=np.random.default_rng(3))
        got_grads = grads(got)
        assert np.abs(got.data - want.data).max() < 1e-12
        for (name, _), g, w in zip(params, got_grads, want_grads):
            assert np.abs(g - w).max() < 1e-12, name
        for br, (s1, s2) in zip(net.branches, states):
            for mean, var, ref in ((br.bn1_mean, br.bn1_var, s1), (br.bn2_mean, br.bn2_var, s2)):
                assert np.abs(mean - ref.mean).max() < 1e-12
                assert np.abs(var - ref.var).max() < 1e-12

    @pytest.mark.parametrize("frontend", ["tconv_lp", "tconv_zp", "external_fir"])
    def test_infer_matches_branch_loop(self, frontend):
        net, raw, batch = self._net_and_batch(frontend)
        want = branch_loop_forward(net, batch, False, None, branch_states(net)).data
        with ad.no_grad():
            got = net.forward(raw).data
        assert np.abs(got - want).max() < 1e-12

    def test_branch_states_are_views_of_stage_states(self):
        net = build(NetworkConfig(frontend="external_fir", input_len=100, seed=0))
        net.branches[2].bn2_mean += 1.0
        assert np.array_equal(net.stage2.state.mean, np.repeat([0.0, 0.0, 1.0, 0.0], 4))


class TestDecompose:
    # conv1d's FFT path (61 and 31 taps) and its direct path (15 taps, below
    # FFT_KERNEL_MIN); 61 taps on 61 samples is the longest bank a config allows
    @pytest.mark.parametrize("input_len,kernel_len", [(2500, 61), (120, 31), (300, 15),
                                                      (61, 61)])
    def test_matches_numpy_same_convolution(self, input_len, kernel_len):
        net = build(NetworkConfig(frontend="external_fir", input_len=input_len,
                                  kernel_len=kernel_len, seed=0))
        raw = np.random.default_rng(8).normal(size=(5, input_len))
        want = np.empty((5, 4, input_len))
        for bi, f in enumerate(net.bank.filters):
            for r in range(5):
                want[r, bi] = np.convolve(raw[r], f.coeffs, mode="same")
        got = net.decompose(raw)
        assert got.shape == want.shape
        assert np.abs(got - want).max() < 1e-12
        assert np.array_equal(net.decompose(raw[:1]), got[:1])


class TestBaselineEquivalence:
    def test_frozen_fir_tconv_equals_external_fir(self):
        rng = np.random.default_rng(21)
        # 500 samples, and the pipeline's 2500 (a 2560-point frame)
        for n in (500, CYCLE_LEN):
            cycles = rng.normal(size=(8, n))
            frozen = build(NetworkConfig(frontend="tconv_free", init="fir_bank",
                                         frontend_trainable=False, input_len=n, seed=13))
            baseline = build(NetworkConfig(frontend="external_fir", input_len=n, seed=13))
            # the graph-building forward and the inference forward
            assert np.array_equal(frozen.forward(cycles).data,
                                  baseline.forward(cycles).data), n
            with ad.no_grad():
                assert np.array_equal(frozen.forward(cycles).data,
                                      baseline.forward(cycles).data), n


class TestAggregate:
    def test_mean_and_round(self):
        prob, label = aggregate_recording([0.9, 0.8, 0.7])
        assert abs(prob - 0.8) < 1e-15 and label == 1

    def test_low_mean_rounds_down(self):
        prob, label = aggregate_recording([0.2, 0.4])
        assert abs(prob - 0.3) < 1e-15 and label == 0

    def test_exact_half_rounds_up(self):
        assert aggregate_recording([0.5]) == (0.5, 1)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            aggregate_recording([])

    def test_order_invariant_bitwise(self):
        rng = np.random.default_rng(3)
        probs = list(rng.uniform(size=11))
        a, _ = aggregate_recording(probs)
        b, _ = aggregate_recording(probs[::-1])
        assert a == b


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        net = build(NetworkConfig(frontend="tconv_lp", init="fir_bank",
                                  input_len=300, seed=6))
        # perturb running stats and step so they must survive the trip
        net.branches[0].bn1_mean += 0.25
        net.step = 17
        x = np.random.default_rng(5).normal(size=(2, 300))
        before = net.forward(x).data
        path = tmp_path / "m.ckpt"
        save(net, str(path))
        again = load(str(path))
        assert again.step == 17
        assert np.array_equal(again.forward(x).data, before)
        for (na, pa), (nb, pb) in zip(net._blobs(), again._blobs()):
            assert na == nb and np.array_equal(pa, pb)

    def test_layout_of_committed_checkpoint(self, tmp_path):
        # written by an earlier version of the model code, with distinct
        # values in every array: it must load and re-save to the same bytes
        fixture = Path(__file__).parent / "data" / "lp_len20.ckpt"
        net = load(str(fixture))
        assert net.step == 37
        path = tmp_path / "again.ckpt"
        save(net, str(path))
        assert path.read_bytes() == fixture.read_bytes()
        branch = [("w1", (8, 1, 5)), ("b1", (8,)), ("bn1.gamma", (8,)), ("bn1.beta", (8,)),
                  ("bn1.mean", (8,)), ("bn1.var", (8,)), ("w2", (4, 8, 5)), ("b2", (4,)),
                  ("bn2.gamma", (4,)), ("bn2.beta", (4,)), ("bn2.mean", (4,)),
                  ("bn2.var", (4,))]
        layout = ([("frontend.half", (4, 1, 31))]
                  + [(f"branch{i}.{name}", shape) for i in range(4) for name, shape in branch]
                  + [("head.w1", (32, 20)), ("head.b1", (20,)), ("head.w2", (20, 1)),
                     ("head.b2", (1,))])
        assert [(name, arr.shape) for name, arr in net._blobs()] == layout

    def test_truncated_file_rejected(self, tmp_path):
        net = build(NetworkConfig(frontend="external_fir", input_len=100, seed=0))
        path = tmp_path / "m.ckpt"
        save(net, str(path))
        blob = path.read_bytes()
        for cut in (10, len(blob) // 2, len(blob) - 3):
            trunc = tmp_path / f"t{cut}.ckpt"
            trunc.write_bytes(blob[:cut])
            with pytest.raises(CheckpointError):
                load(str(trunc))

    def test_huge_shape_field_rejected(self, tmp_path):
        net = build(NetworkConfig(frontend="tconv_lp", init="fir_bank",
                                  input_len=100, seed=0))
        path = tmp_path / "m.ckpt"
        save(net, str(path))
        blob = bytearray(path.read_bytes())
        # the first blob, frontend.half [4, 1, 31]: its first shape field
        # follows magic, version, config, step, count, name length and name
        (cfg_len,) = struct.unpack_from("<Q", blob, len(CKPT_MAGIC) + 4)
        at = len(CKPT_MAGIC) + 4 + 8 + cfg_len + 8 + 4
        (nlen,) = struct.unpack_from("<H", blob, at)
        assert blob[at + 2:at + 2 + nlen] == b"frontend.half"
        shape_at = at + 2 + nlen + 1
        assert struct.unpack_from("<Q", blob, shape_at) == (4,)
        struct.pack_into("<Q", blob, shape_at, 2 ** 62)
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError):
            load(str(path))

    def test_wrong_blob_shape_rejected(self, tmp_path):
        small = build(NetworkConfig(frontend="external_fir", input_len=100, seed=0))
        path = tmp_path / "m.ckpt"
        save(small, str(path))
        blob = bytearray(path.read_bytes())
        name = b"branch0.w1"
        shape_at = blob.index(name) + len(name) + 1
        assert struct.unpack_from("<3Q", blob, shape_at) == (8, 1, 5)
        struct.pack_into("<3Q", blob, shape_at, 4, 2, 5)   # same size, other shape
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError):
            load(str(path))

    def test_repeated_blob_rejected(self, tmp_path):
        # one more blob than saved, a second head.b2: neither copy may win
        net = build(NetworkConfig(frontend="external_fir", input_len=100, seed=0))
        path = tmp_path / "m.ckpt"
        save(net, str(path))
        blob = bytearray(path.read_bytes())
        (cfg_len,) = struct.unpack_from("<Q", blob, len(CKPT_MAGIC) + 4)
        count_at = len(CKPT_MAGIC) + 4 + 8 + cfg_len + 8
        (count,) = struct.unpack_from("<I", blob, count_at)
        struct.pack_into("<I", blob, count_at, count + 1)
        blob += struct.pack("<H", 7) + b"head.b2" + struct.pack("<BQd", 1, 1, 7.0)
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="head.b2"):
            load(str(path))

    @staticmethod
    def _saved_with_config(path, **changes):
        """A baseline checkpoint of 100-sample cycles whose stored config
        JSON has `changes` applied after saving."""
        save(build(NetworkConfig(frontend="external_fir", input_len=100, seed=0)), str(path))
        blob = path.read_bytes()
        at = len(CKPT_MAGIC) + 4
        (n,) = struct.unpack_from("<Q", blob, at)
        cfg = json.dumps({**json.loads(blob[at + 8:at + 8 + n]), **changes}).encode()
        path.write_bytes(blob[:at] + struct.pack("<Q", len(cfg)) + cfg + blob[at + 8 + n:])
        return str(path)

    @pytest.mark.parametrize("kernel_len", [-1, 1])
    def test_kernel_len_below_three_rejected(self, tmp_path, kernel_len):
        # no array of a baseline checkpoint is sized by kernel_len, so the
        # config check alone keeps it from a filter bank of order < 2
        path = self._saved_with_config(tmp_path / "m.ckpt", kernel_len=kernel_len)
        with pytest.raises(CheckpointError, match="kernel_len"):
            load(path)

    def test_pool_leaving_no_branch_features_rejected(self, tmp_path):
        # 100 samples -> conv 96 -> pool 8 -> conv 4 -> pool 0 features
        assert branch_feature_len(100, 5, 12) == 0
        path = self._saved_with_config(tmp_path / "m.ckpt", pool=12)
        with pytest.raises(CheckpointError, match="pool 12 .*input_len 100"):
            load(path)

    def test_garbage_rejected(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"not a checkpoint at all")
        with pytest.raises(CheckpointError):
            load(str(path))
        with pytest.raises(CheckpointError):
            load(str(tmp_path / "missing.ckpt"))

    def test_trainable_flags_preserved(self, tmp_path):
        net = build(NetworkConfig(frontend="tconv_free", init="fir_bank",
                                  frontend_trainable=False, input_len=120, seed=1))
        path = tmp_path / "m.ckpt"
        save(net, str(path))
        again = load(str(path))
        assert again.config.frontend_trainable is False
        assert again.frontend.parameters() == []
        assert np.array_equal(again.frontend.param.data,
                              net.frontend.param.data)


class TestLoadDrawsNothing:
    """load assembles the network around the stored arrays: it draws no
    initial weight and designs no bank that a stored array replaces."""

    FIXTURE = Path(__file__).parent / "data" / "lp_len20.ckpt"

    @staticmethod
    def _forbid(monkeypatch, *names):
        def refuse(*args, **kwargs):
            raise AssertionError("load drew an array that the checkpoint replaces")
        for name in names:
            monkeypatch.setattr(mdl, name, refuse)

    @pytest.mark.parametrize("frontend,init", [("tconv_lp", "fir_bank"),
                                               ("tconv_zp", "random"),
                                               ("tconv_free", "random")])
    def test_tconv_checkpoint_loads_without_drawing(self, tmp_path, monkeypatch,
                                                    frontend, init):
        net = build(NetworkConfig(frontend=frontend, init=init, input_len=200, seed=4))
        path = tmp_path / "m.ckpt"
        save(net, str(path))
        self._forbid(monkeypatch, "_he_normal", "default_bank")
        again = load(str(path))
        for (na, pa), (nb, pb) in zip(net._blobs(), again._blobs(), strict=True):
            assert na == nb and pa.tobytes() == pb.tobytes()

    def test_external_fir_checkpoint_still_designs_its_bank(self, tmp_path, monkeypatch):
        net = build(NetworkConfig(frontend="external_fir", input_len=200, seed=4))
        path = tmp_path / "m.ckpt"
        save(net, str(path))
        self._forbid(monkeypatch, "_he_normal")
        designed, original = [], mdl.default_bank

        def default_bank(*args):
            designed.append(original(*args))
            return designed[-1]

        monkeypatch.setattr(mdl, "default_bank", default_bank)
        again = load(str(path))
        assert len(designed) == 1 and again.bank is designed[0]
        for want, got in zip(net.bank.filters, again.bank.filters):
            assert want.coeffs.tobytes() == got.coeffs.tobytes()

    @pytest.mark.parametrize("frontend", sorted(FRONTENDS))
    def test_every_front_end_round_trips_bit_exactly(self, tmp_path, frontend):
        net = build(NetworkConfig(frontend=frontend, init="random", input_len=200, seed=9))
        # move every stored array off its initial value
        rng = np.random.default_rng(3)
        for _, arr in net._blobs():
            arr += rng.uniform(0.5, 1.0, size=arr.shape)
        net.step = 5
        cycles = np.random.default_rng(4).normal(size=(3, 200))
        path = tmp_path / "m.ckpt"
        save(net, str(path))
        again = load(str(path))
        assert again.step == 5 and again.config == net.config
        assert again.trainable_count() == net.trainable_count()
        for (na, pa), (nb, pb) in zip(net._blobs(), again._blobs(), strict=True):
            assert na == nb and pa.tobytes() == pb.tobytes()
        assert again.forward(cycles).data.tobytes() == net.forward(cycles).data.tobytes()
        save(again, str(tmp_path / "again.ckpt"))
        assert (tmp_path / "again.ckpt").read_bytes() == path.read_bytes()

    def test_committed_checkpoint_resaves_without_drawing(self, tmp_path, monkeypatch):
        self._forbid(monkeypatch, "_he_normal", "default_bank")
        path = tmp_path / "again.ckpt"
        save(load(str(self.FIXTURE)), str(path))
        assert path.read_bytes() == self.FIXTURE.read_bytes()

    @pytest.mark.parametrize("frontend", sorted(FRONTENDS))
    def test_blob_shapes_are_the_stored_arrays(self, frontend):
        cfg = NetworkConfig(frontend=frontend, input_len=300, pool=3)
        assert mdl._blob_shapes(cfg) == [(n, a.shape) for n, a in build(cfg)._blobs()]


class TestL2Penalty:
    def test_applies_to_branch_convs_only(self):
        net = build(NetworkConfig(frontend="tconv_free", init="random",
                                  input_len=100, seed=2))
        expected = sum((br.w1 ** 2).sum() + (br.w2 ** 2).sum() for br in net.branches)
        pen = net.l2_penalty()
        assert abs(float(pen.data) - 0.0486 * expected) < 1e-12
        # front-end kernel, biases and dense weights are not in the set
        net.zero_grad()
        ad.backward(pen)
        regulated = {name for name, p in net.parameters() if p.grad is not None}
        assert regulated == {"stage1.w", "stage2.w"}

    def test_gradient_is_2_lambda_w(self):
        import pcgnet.autodiff as ad
        net = build(NetworkConfig(frontend="external_fir", input_len=100, seed=8))
        pen = net.l2_penalty()
        net.zero_grad()
        ad.backward(pen)
        for w in (net.stage1.w, net.stage2.w):
            assert np.abs(w.grad - 2 * 0.0486 * w.data).max() < 1e-12


class TestFrontendFamily:
    # (frontend, init, frontend_trainable) of each reference row
    ROW_CONFIGS = {
        "baseline": ("external_fir", "fir_bank", True),
        "tconv-nonlearn": ("tconv_free", "fir_bank", False),
        "tconv-fir": ("tconv_free", "fir_bank", True),
        "lp-tconv-fir": ("tconv_lp", "fir_bank", True),
        "zp-tconv-fir": ("tconv_zp", "fir_bank", True),
        "lp-tconv-rand": ("tconv_lp", "random", True),
    }

    def test_reference_rows_are_report_names(self):
        assert set(self.ROW_CONFIGS) == set(REFERENCE_ROWS)
        for name, (frontend, init, trainable) in self.ROW_CONFIGS.items():
            cfg = NetworkConfig(frontend=frontend, init=init, frontend_trainable=trainable)
            assert config_name(cfg) == name

    def test_every_alias_names_a_config_value(self):
        for alias, value in FRONTEND_ALIASES.items():
            assert NetworkConfig(frontend=value).frontend == value, alias
        for alias, value in INIT_ALIASES.items():
            assert NetworkConfig(frontend="tconv_free", init=value).init == value, alias

    def test_every_config_value_has_one_alias(self):
        assert sorted(FRONTEND_ALIASES.values()) == sorted(FRONTENDS)
        assert sorted(INIT_ALIASES.values()) == sorted(INITS)

    def test_cli_defaults_are_the_config_defaults(self):
        args = build_parser().parse_args(["train", "--cycles", "c", "--folds", "f",
                                          "--fold", "0", "--out", "o"])
        assert FRONTEND_ALIASES[args.frontend] == NetworkConfig.frontend
        assert INIT_ALIASES[args.init] == NetworkConfig.init
        assert args.trainable is NetworkConfig.frontend_trainable

    def test_unknown_frontend_lists_the_allowed_values(self):
        with pytest.raises(ValueError, match="expected one of external_fir, tconv_free, "
                                             "tconv_lp, tconv_zp"):
            NetworkConfig(frontend="tconv")

    def test_only_the_external_fir_network_keeps_the_bank(self):
        assert build(NetworkConfig(frontend="external_fir", input_len=100)).bank is not None
        for frontend in ("tconv_free", "tconv_lp", "tconv_zp"):
            net = build(NetworkConfig(frontend=frontend, init="fir_bank", input_len=100))
            assert net.bank is None
            with pytest.raises(ValueError, match="no fixed filter bank"):
                net.decompose(np.zeros((1, 100)))
