"""The full classifier: front-end, four CNN branches, MLP head.

Each of the four band signals feeds its own branch:
conv(8 filters, k=5, valid) -> batchnorm -> relu -> dropout -> maxpool(2)
-> conv(4 filters, k=5) -> batchnorm -> relu -> dropout -> maxpool(2).
Branch outputs are flattened, concatenated, and classified by a dense
hidden layer of 20 relu units and one sigmoid output.

The four branches run as two grouped stages. Each stage stores the
parameters of all four branches stacked branch-major on the output
channels (one kernel, bias, gamma and beta tensor, one set of running
statistics). In training a stage is a single grouped convolution
followed by one fused node, `autodiff.bn_relu_dropout_pool`, over
[batch, 4*filters, length]; the node draws the stage's dropout keep-mask
from random bytes, so dropout rates go in steps of 1/256. Inference,
every forward with train=False, has one path: it builds no graph
(`autodiff.no_grad`) and runs each stage as one op,
`autodiff.conv_bn_relu_pool`, over one block of batch rows at a time: it
pools each block's raw convolution output sign-aware (max where the
batch-norm scale is >= 0, min where it is < 0), applies batch-norm and
relu to the pooled half only, and keeps no more of the convolution
output than one block.

Inference also skips the zero tail that pads each cycle to
input_len. Batch-norm there uses running statistics and there is no
dropout, so a stage-2 feature whose window sees only front-end zeros is
one constant per channel. The forward finds where the batch's signal
ends from the cycles themselves, runs the front-end and both stages on
the `crop_len` samples that reach every other feature, and fills the
rest with the stages' output for an all-zero window. Evaluation feeds it
batches sorted by valid length, so each crop is close to its rows' own.
Its probabilities are those of an uncropped forward up to roundoff. The
checkpoint still stores each branch's arrays under its own names;
`Network.branches` gives them as views of the stage arrays.

Every network takes raw cycles [batch, input_len]. The front-end is either
one of the learnable band-splitting layers or "external_fir": the network
then splits the cycles into four bands with a fixed filter bank
(`Network.decompose`): the conv front-end's own "same" `autodiff.conv1d`,
with the bank's kernel held constant, so a frozen fir-initialized front-end
and the external decomposition produce bitwise equal probabilities.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass, asdict, fields
from functools import cached_property

import numpy as np

from . import autodiff as ad
from .data import CYCLE_LEN, PIPELINE_RATE_HZ, ByteCursor, read_input, write_output
from .errors import CheckpointError, check_field_types
from .fir import DEFAULT_ORDER, FilterBank, default_bank
from .frontend import TConvLayer, init_kernel, param_spec

# NetworkConfig.frontend -> (--frontend alias, report name, TConvLayer variant)
FRONTENDS = {"external_fir": ("baseline", "baseline", None),
             "tconv_free": ("tconv", "tconv", "free"),
             "tconv_lp": ("lp", "lp-tconv", "linear_phase"),
             "tconv_zp": ("zp", "zp-tconv", "zero_phase")}
# NetworkConfig.init -> (--init alias, report name)
INITS = {"fir_bank": ("fir", "fir"), "random": ("random", "rand"), "zeros": ("zeros", "zeros")}

CKPT_MAGIC = b"PCGNET\x00\x01"
CKPT_VERSION = 1


@dataclass(frozen=True)
class NetworkConfig:
    frontend: str = "external_fir"
    init: str = "fir_bank"          # ignored for external_fir
    frontend_trainable: bool = True
    bands: int = 4
    kernel_len: int = DEFAULT_ORDER + 1   # front-end kernel length (odd)
    branch_kernel: int = 5
    conv1_filters: int = 8
    conv2_filters: int = 4
    pool: int = 2
    hidden: int = 20
    dropout: float = 0.5
    l2_conv: float = 0.0486
    input_len: int = CYCLE_LEN
    seed: int = 0

    def __post_init__(self):
        check_field_types(self)
        for key, allowed in (("frontend", FRONTENDS), ("init", INITS)):
            value = getattr(self, key)
            if value not in allowed:
                raise ValueError(f"unknown {key} {value!r}; expected one of {', '.join(allowed)}")
        if self.frontend == "external_fir" and self.init == "zeros":
            raise ValueError("zeros init is meaningless for the external_fir frontend")
        if self.bands != 4 or self.branch_kernel != 5 or self.conv1_filters != 8 \
                or self.conv2_filters != 4 or self.hidden != 20:
            raise ValueError("branch topology is fixed: 4 bands, kernel 5, 8/4 filters, 20 hidden")
        if self.kernel_len < 3 or self.kernel_len % 2 == 0:
            raise ValueError(f"kernel_len must be odd and >= 3, got {self.kernel_len}")
        if self.input_len < 20:
            raise ValueError("input_len must be >= 20")
        if self.frontend == "external_fir" and self.kernel_len > self.input_len:
            raise ValueError(f"the {self.kernel_len}-tap external_fir bank is longer "
                             f"than input_len {self.input_len}")
        if self.pool < 1:
            raise ValueError("pool must be >= 1")
        if branch_feature_len(self.input_len, self.branch_kernel, self.pool) < 1:
            raise ValueError(f"pool {self.pool} leaves no branch features of "
                             f"input_len {self.input_len}")
        ad.check_dropout_rate(self.dropout, in_bytes=True)
        if not self.l2_conv >= 0.0:
            raise ValueError(f"l2_conv must be >= 0, got {self.l2_conv!r}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


def config_name(cfg: NetworkConfig) -> str:
    """Report name of a configuration, the `config` column of eval.csv."""
    _, kind, variant = FRONTENDS[cfg.frontend]
    if variant is None:     # the fixed bank has no init and is never trained
        return kind
    if not cfg.frontend_trainable:
        return f"{kind}-nonlearn"
    return f"{kind}-{INITS[cfg.init][1]}"


def branch_feature_len(input_len: int, kernel: int = 5, pool: int = 2) -> int:
    """Length after conv(valid)->pool->conv(valid)->pool."""
    n = input_len - (kernel - 1)
    n //= pool
    n -= kernel - 1
    return n // pool


def _stage2_window(cfg: NetworkConfig) -> tuple[int, int]:
    """(stride, length) in input samples of the window one stage-2 feature
    sees: stage 2's pool times stage 1's, and the receptive field of
    conv(valid)->pool->conv(valid)->pool."""
    k, pool = cfg.branch_kernel, cfg.pool
    return pool * pool, pool * (pool + k - 2) + pool + k - 1


def crop_len(cfg: NetworkConfig, top: int) -> int:
    """Input samples that inference needs of cycles that are zero from
    sample `top` on, or input_len when it needs them all.

    Front-end outputs from top + its half-span on (twice the span for
    zero phase's two passes) are zero, so a stage-2 feature whose window
    starts there is the stages' output for zero input. The crop is the
    shortest input that yields every feature before those: "same" padding
    then sees, past the crop, the zeros the full input holds there."""
    half = (cfg.kernel_len - 1) // 2 * (2 if cfg.frontend == "tconv_zp" else 1)
    stride, field = _stage2_window(cfg)
    kept = -(-(top + half) // stride)
    if kept >= branch_feature_len(cfg.input_len, cfg.branch_kernel, cfg.pool):
        return cfg.input_len
    return (kept - 1) * stride + field


def flatten_width(cfg: NetworkConfig) -> int:
    return cfg.bands * cfg.conv2_filters * branch_feature_len(
        cfg.input_len, cfg.branch_kernel, cfg.pool)


@dataclass
class _Stage:
    """One grouped branch stage: the four branches' conv kernels [4*Co, Ci, k],
    conv biases and batch-norm gamma/beta [4*Co], branch-major, and the
    running statistics of its batch-norm."""
    w: ad.Tensor
    b: ad.Tensor
    gamma: ad.Tensor
    beta: ad.Tensor
    state: ad.BatchNormState

    def arrays(self) -> tuple[np.ndarray, ...]:
        return (self.w.data, self.b.data, self.gamma.data, self.beta.data,
                self.state.mean, self.state.var)


@dataclass
class _Branch:
    """One branch's slices of the two stages, as views. The field order is
    the order of the branch's blobs in a checkpoint; a blob's name is its
    field's, with the first underscore as a dot (bn1_gamma -> bn1.gamma)."""
    w1: np.ndarray
    b1: np.ndarray
    bn1_gamma: np.ndarray
    bn1_beta: np.ndarray
    bn1_mean: np.ndarray
    bn1_var: np.ndarray
    w2: np.ndarray
    b2: np.ndarray
    bn2_gamma: np.ndarray
    bn2_beta: np.ndarray
    bn2_mean: np.ndarray
    bn2_var: np.ndarray


_BRANCH_BLOBS = tuple(f.name.replace("_", ".", 1) for f in fields(_Branch))


@dataclass
class Network:
    config: NetworkConfig
    frontend: TConvLayer | None
    bank: FilterBank | None        # external_fir only: the bank decompose filters with
    stage1: _Stage
    stage2: _Stage
    head_w1: ad.Tensor
    head_b1: ad.Tensor
    head_w2: ad.Tensor
    head_b2: ad.Tensor
    step: int = 0

    # -- parameter bookkeeping -------------------------------------------

    @cached_property
    def branches(self) -> list[_Branch]:
        """Per-branch views of the stage arrays; writes through a view
        change the stage. Made once: the stage arrays are only ever
        updated in place."""
        out = []
        for i in range(self.config.bands):
            views = []
            for stage in (self.stage1, self.stage2):
                c = stage.b.data.size // self.config.bands
                views.extend(a[i * c:(i + 1) * c] for a in stage.arrays())
            out.append(_Branch(*views))
        return out

    def parameters(self) -> list[tuple[str, ad.Tensor]]:
        """Trainable parameters in a fixed order."""
        out: list[tuple[str, ad.Tensor]] = []
        if self.frontend is not None:
            out.extend(self.frontend.parameters())
        for name, st in (("stage1", self.stage1), ("stage2", self.stage2)):
            out.extend([(f"{name}.w", st.w), (f"{name}.b", st.b),
                        (f"{name}.gamma", st.gamma), (f"{name}.beta", st.beta)])
        out.extend([("head.w1", self.head_w1), ("head.b1", self.head_b1),
                    ("head.w2", self.head_w2), ("head.b2", self.head_b2)])
        return out

    def _blobs(self) -> list[tuple[str, np.ndarray]]:
        """Every stored array in checkpoint order: front-end kernel,
        per-branch parameters and running stats, head."""
        out: list[tuple[str, np.ndarray]] = []
        if self.frontend is not None:
            out.extend(self.frontend.state_arrays())
        for i, br in enumerate(self.branches):
            out.extend((f"branch{i}.{name}", getattr(br, f.name))
                       for name, f in zip(_BRANCH_BLOBS, fields(br)))
        out.extend([("head.w1", self.head_w1.data), ("head.b1", self.head_b1.data),
                    ("head.w2", self.head_w2.data), ("head.b2", self.head_b2.data)])
        return out

    def restore(self, blobs: dict[str, np.ndarray]) -> None:
        """Copy every stored array from `blobs` (name -> array) in place."""
        for name, arr in self._blobs():
            arr[...] = blobs[name]

    def zero_grad(self):
        for _, p in self.parameters():
            p.zero_grad()

    def trainable_count(self) -> int:
        return sum(p.data.size for _, p in self.parameters())

    # -- forward ----------------------------------------------------------

    def forward(self, cycles: np.ndarray, train: bool = False,
                rng: np.random.Generator | None = None) -> ad.Tensor:
        """Per-cycle abnormality probabilities, shape [batch], from raw
        cycles [batch, input_len], whatever the front-end.

        Inference builds no graph, whatever the caller's grad mode: it runs
        the front-end and both stages on the batch's first `crop_len`
        samples and gives every later stage-2 feature the stages' output
        for zero input."""
        cfg = self.config
        if train and rng is None:
            raise ValueError("train-mode forward needs an rng for dropout")
        cycles = np.asarray(cycles, dtype=np.float64)
        if cycles.ndim != 2 or cycles.shape[1] != cfg.input_len:
            raise ValueError(f"expected raw cycles [batch, {cfg.input_len}], "
                             f"got {cycles.shape}")
        if train:
            return self._forward(cycles, True, rng)
        with ad.no_grad():
            return self._forward(cycles, False, None)

    def _forward(self, cycles: np.ndarray, train: bool, rng) -> ad.Tensor:
        cfg = self.config
        n, length = cycles.shape
        if not train:   # NaN and Inf are nonzero: the crop keeps them for the leaf scan
            signal = np.flatnonzero(cycles.any(axis=0))
            length = crop_len(cfg, int(signal[-1]) + 1 if signal.size else 0)
        x = cycles[:, :length]
        if self.frontend is None:   # an op output: the cycles were scanned already
            bands = ad.Tensor(self.decompose(x), op="decompose")
        else:
            bands = self.frontend.forward(ad.tensor(x[:, None, :]))
        h = self._stages(bands, train, rng)
        if length < cfg.input_len:
            _, field = _stage2_window(cfg)
            tail = self._stages(ad.tensor(np.zeros((1, cfg.bands, field))), False, None)
            width = branch_feature_len(cfg.input_len, cfg.branch_kernel, cfg.pool)
            fill = np.broadcast_to(tail.data, (n, tail.shape[1], width - h.shape[2]))
            h = ad.Tensor(np.concatenate([h.data, fill], axis=2), op=h.op)
        # [B, bands*filters, L'] flattens branch-major: each branch's
        # features form one contiguous block of the head's input
        z = ad.reshape(h, (n, -1))
        z = ad.relu(ad.dense(z, self.head_w1, self.head_b1))
        out = ad.sigmoid(ad.dense(z, self.head_w2, self.head_b2))
        return ad.reshape(out, (n,))

    def _stages(self, h: ad.Tensor, train: bool, rng) -> ad.Tensor:
        """Both branch stages over bands [batch, bands, L]."""
        cfg = self.config
        for st in (self.stage1, self.stage2):
            if train:
                h = ad.conv1d(h, st.w, padding="valid", groups=cfg.bands)
                h = ad.bn_relu_dropout_pool(h, st.gamma, st.beta, st.state, True,
                                            cfg.dropout, rng, cfg.pool, bias=st.b)
            else:
                h = ad.conv_bn_relu_pool(h, st.w, st.b, st.gamma, st.beta, st.state,
                                         cfg.pool, cfg.bands)
        return h

    def l2_penalty(self) -> ad.Tensor | None:
        """L2 penalty on the branch convolution kernels."""
        if self.config.l2_conv == 0.0:
            return None
        total = ad.add(ad.sum_of_squares(self.stage1.w), ad.sum_of_squares(self.stage2.w))
        return ad.scale(total, self.config.l2_conv)

    def decompose(self, raw: np.ndarray) -> np.ndarray:
        """Fixed-bank band decomposition of raw cycles [batch, L] into
        [batch, bands, L], the external_fir front-end: a "same" conv1d with
        the bank's kernel as a constant, the very kernel a frozen
        fir-initialized conv front-end holds (`frontend.init_kernel`), so
        the two give bitwise equal bands."""
        if self.bank is None:
            raise ValueError("this network has no fixed filter bank to decompose with")
        cfg = self.config
        kernel = ad.tensor(init_kernel(self.bank, (cfg.bands, 1, cfg.kernel_len)))
        raw = np.asarray(raw, dtype=np.float64)
        return ad.conv1d(ad.tensor(raw[:, None, :]), kernel, "same").data


def _he_normal(rng: np.random.Generator, shape: tuple[int, ...], fan_in: int) -> np.ndarray:
    return rng.normal(0.0, np.sqrt(2.0 / fan_in), size=shape)


def build(config: NetworkConfig) -> Network:
    """Deterministically initialize a network from config.seed.

    Each component draws from its own seed stream, so nets that share a
    seed get identical branch and head parameters regardless of the
    front-end choice.
    """
    return _assemble(config, _initial_blobs(config))


def _initial_blobs(cfg: NetworkConfig) -> dict[str, np.ndarray]:
    """The arrays of a new network by checkpoint name: He-normal branch and
    head kernels, the front-end kernel its `init` makes, zero biases, betas
    and running means, unit gammas and running variances."""
    streams = np.random.SeedSequence(cfg.seed).spawn(6)
    k, c1, c2 = cfg.branch_kernel, cfg.conv1_filters, cfg.conv2_filters
    blobs: dict[str, np.ndarray] = {}
    variant = FRONTENDS[cfg.frontend][2]
    if variant is not None:
        shape = (cfg.bands, 1, cfg.kernel_len)
        if cfg.init == "fir_bank":
            kern = init_kernel(default_bank(PIPELINE_RATE_HZ, cfg.kernel_len - 1), shape)
        elif cfg.init == "zeros":
            kern = np.zeros(shape)
        else:
            kern = _he_normal(np.random.default_rng(streams[0]), shape, cfg.kernel_len)
        name, (_, _, taps) = param_spec(variant, cfg.bands, cfg.kernel_len)
        blobs[name] = kern[:, :, :taps]
    # each branch draws its kernels from its own stream
    for i in range(cfg.bands):
        rng = np.random.default_rng(streams[1 + i])
        blobs[f"branch{i}.w1"] = _he_normal(rng, (c1, 1, k), k)
        blobs[f"branch{i}.w2"] = _he_normal(rng, (c2, c1, k), c1 * k)
    rng = np.random.default_rng(streams[5])
    width = flatten_width(cfg)
    blobs["head.w1"] = _he_normal(rng, (width, cfg.hidden), width)
    blobs["head.w2"] = _he_normal(rng, (cfg.hidden, 1), cfg.hidden)
    for name, shape in _blob_shapes(cfg):
        if name not in blobs:
            blobs[name] = (np.ones if name.endswith(("gamma", "var")) else np.zeros)(shape)
    return blobs


def _assemble(cfg: NetworkConfig, blobs: dict[str, np.ndarray]) -> Network:
    """The network of `cfg` around `blobs`, every stored array by its
    checkpoint name and shape (`_blob_shapes`): `build` passes the initial
    arrays, `load` the stored ones. The stages stack the branch arrays
    branch-major; the external_fir bank, which is not stored, is designed
    here."""
    variant = FRONTENDS[cfg.frontend][2]
    frontend = bank = None
    if variant is None:
        bank = default_bank(PIPELINE_RATE_HZ, cfg.kernel_len - 1)
    else:
        kern = blobs[param_spec(variant, cfg.bands, cfg.kernel_len)[0]]
        if variant == "linear_phase":   # the layer keeps the leading half of a full kernel
            kern = np.concatenate([kern, kern[:, :, -2::-1]], axis=2)
        frontend = TConvLayer(variant, kern, trainable=cfg.frontend_trainable)
    stages = []
    for names in (_BRANCH_BLOBS[:6], _BRANCH_BLOBS[6:]):
        w, b, gamma, beta, mean, var = (
            np.concatenate([blobs[f"branch{i}.{n}"] for i in range(cfg.bands)]) for n in names)
        state = ad.BatchNormState(b.size)
        state.mean, state.var = mean, var
        stages.append(_Stage(w=ad.parameter(w), b=ad.parameter(b), gamma=ad.parameter(gamma),
                             beta=ad.parameter(beta), state=state))
    return Network(config=cfg, frontend=frontend, bank=bank, stage1=stages[0], stage2=stages[1],
                   head_w1=ad.parameter(blobs["head.w1"]), head_b1=ad.parameter(blobs["head.b1"]),
                   head_w2=ad.parameter(blobs["head.w2"]), head_b2=ad.parameter(blobs["head.b2"]))


def _blob_shapes(cfg: NetworkConfig) -> list[tuple[str, tuple[int, ...]]]:
    """Name and shape of every array a network of `cfg` stores, in
    checkpoint order (`Network._blobs`)."""
    out = []
    variant = FRONTENDS[cfg.frontend][2]
    if variant is not None:
        out.append(param_spec(variant, cfg.bands, cfg.kernel_len))
    k, c1, c2 = cfg.branch_kernel, cfg.conv1_filters, cfg.conv2_filters
    branch = [(c1, 1, k), *[(c1,)] * 5, (c2, c1, k), *[(c2,)] * 5]
    out.extend((f"branch{i}.{name}", shape) for i in range(cfg.bands)
               for name, shape in zip(_BRANCH_BLOBS, branch))
    out.extend([("head.w1", (flatten_width(cfg), cfg.hidden)), ("head.b1", (cfg.hidden,)),
                ("head.w2", (cfg.hidden, 1)), ("head.b2", (1,))])
    return out


def aggregate_recording(cycle_probs) -> tuple[float, int]:
    """Average per-cycle probabilities and round; exactly 0.5 rounds up.

    The mean is taken over the sorted values so it does not depend on the
    order cycles were stored in.
    """
    probs = np.asarray(list(cycle_probs), dtype=np.float64)
    if probs.size == 0:
        raise ValueError("no cycle probabilities to aggregate")
    prob = float(np.sort(probs).mean())
    return prob, int(prob >= 0.5)


# ---------------------------------------------------------------------------
# checkpoint io

def save(net: Network, path: str) -> None:
    """Write a bit-exact snapshot: config, every array, running stats, step.
    The header fields and each array are written as chunks, in file order."""
    cfg_json = json.dumps(asdict(net.config), sort_keys=True,
                          separators=(",", ":")).encode()
    blobs = net._blobs()
    chunks = [CKPT_MAGIC, struct.pack("<IQ", CKPT_VERSION, len(cfg_json)), cfg_json,
              struct.pack("<QI", net.step, len(blobs))]
    for name, arr in blobs:
        nb = name.encode()
        chunks += [struct.pack(f"<H{len(nb)}sB{arr.ndim}Q", len(nb), nb, arr.ndim, *arr.shape),
                   np.ascontiguousarray(arr, dtype="<f8")]
    write_output(path, *chunks)


def load(path: str) -> Network:
    """Rebuild a network from a checkpoint; fails cleanly on truncation."""
    cur = ByteCursor(read_input(path, CheckpointError), path, CheckpointError)
    if cur.take(len(CKPT_MAGIC), "magic") != CKPT_MAGIC:
        raise CheckpointError(f"{path} is not a checkpoint (bad magic)")
    (version,) = cur.unpack("<I", "version")
    if version != CKPT_VERSION:
        raise CheckpointError(f"unsupported checkpoint version {version}")
    (cfg_len,) = cur.unpack("<Q", "config length")
    try:
        cfg = NetworkConfig(**json.loads(bytes(cur.take(cfg_len, "config"))))
    except (ValueError, TypeError) as e:
        raise CheckpointError(f"bad config in checkpoint: {e}") from None
    step, count = cur.unpack("<QI", "step and blob count")
    blobs: dict[str, np.ndarray] = {}
    for _ in range(count):
        (nlen,) = cur.unpack("<H", "blob name length")
        try:
            name = bytes(cur.take(nlen, "blob name")).decode()
        except UnicodeDecodeError:
            raise CheckpointError("bad blob name in checkpoint") from None
        if name in blobs:
            raise CheckpointError(f"blob {name} is stored twice")
        (ndim,) = cur.unpack("<B", f"ndim of {name}")
        if ndim > 3:    # no stored array has more axes than a kernel
            raise CheckpointError(f"blob {name} has {ndim} dimensions")
        shape = cur.unpack(f"<{ndim}Q", f"shape of {name}")
        arr = np.frombuffer(cur.take(8 * math.prod(shape), f"blob {name} {shape}"),
                            dtype="<f8")
        if not np.all(np.isfinite(arr)):
            raise CheckpointError(f"blob {name} holds NaN or Inf")
        blobs[name] = arr.reshape(shape).copy()

    # every stored array must be the one the config implies, by name and
    # shape, before a network is assembled around them
    expected = dict(_blob_shapes(cfg))
    if set(expected) != set(blobs):
        missing = set(expected) - set(blobs)
        extra = set(blobs) - set(expected)
        raise CheckpointError(f"checkpoint blob mismatch: missing {sorted(missing)}, "
                              f"unexpected {sorted(extra)}")
    for name, shape in expected.items():
        if blobs[name].shape != shape:
            raise CheckpointError(f"blob {name} has shape {blobs[name].shape}, "
                                  f"config implies {shape}")
    net = _assemble(cfg, blobs)
    net.step = step
    return net
