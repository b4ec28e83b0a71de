"""The full classifier: front-end, four CNN branches, MLP head.

Each of the four band signals feeds its own branch:
conv(8 filters, k=5, valid) -> batchnorm -> relu -> dropout -> maxpool(2)
-> conv(4 filters, k=5) -> batchnorm -> relu -> dropout -> maxpool(2).
Branch outputs are flattened, concatenated, and classified by a dense
hidden layer of 20 relu units and one sigmoid output.

The four branches run as two grouped stages. Each stage stores the
parameters of all four branches stacked branch-major on the output
channels (one kernel, bias, gamma and beta tensor, one set of running
statistics) and is a single grouped convolution followed by one fused
node, `autodiff.bn_relu_dropout_pool`, over [batch, 4*filters, length].
In training the node draws the stage's dropout keep-mask from random
bytes, so dropout rates go in steps of 1/256. In inference it pools the
raw convolution output sign-aware (max where the batch-norm scale is
>= 0, min where it is < 0) and applies batch-norm and relu to the pooled
half only. The checkpoint still stores each branch's arrays under its
own names; `Network.branches` gives them as views of the stage arrays.

Every network takes raw cycles [batch, input_len]. The front-end is either
one of the learnable band-splitting layers or "external_fir": the network
then splits the cycles into four bands with a fixed filter bank
(`Network.decompose`), aligned the same way the conv front-end aligns its
output (centered, not causal), so a frozen fir-initialized front-end and the
external decomposition produce identical probabilities.
"""

from __future__ import annotations

import io
import json
import math
import struct
from dataclasses import dataclass, asdict, fields
from functools import cached_property

import numpy as np

from . import autodiff as ad
from .data import CYCLE_LEN, PIPELINE_RATE_HZ, ByteCursor, read_input, write_output
from .dsp import next_pow2
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
        cycles [batch, input_len], whatever the front-end."""
        cfg = self.config
        if train and rng is None:
            raise ValueError("train-mode forward needs an rng for dropout")
        cycles = np.asarray(cycles, dtype=np.float64)
        if cycles.ndim != 2 or cycles.shape[1] != cfg.input_len:
            raise ValueError(f"expected raw cycles [batch, {cfg.input_len}], "
                             f"got {cycles.shape}")
        if self.frontend is None:
            bands = ad.tensor(self.decompose(cycles))
        else:
            bands = self.frontend.forward(ad.tensor(cycles[:, None, :]))

        n = cycles.shape[0]
        h = bands
        for st in (self.stage1, self.stage2):
            h = ad.conv1d(h, st.w, padding="valid", groups=cfg.bands)
            h = ad.bn_relu_dropout_pool(h, st.gamma, st.beta, st.state, train,
                                        cfg.dropout, rng, cfg.pool, bias=st.b)
        # [B, bands*filters, L'] flattens branch-major: each branch's
        # features form one contiguous block of the head's input
        z = ad.reshape(h, (n, -1))
        z = ad.relu(ad.dense(z, self.head_w1, self.head_b1))
        out = ad.sigmoid(ad.dense(z, self.head_w2, self.head_b2))
        return ad.reshape(out, (n,))

    def l2_penalty(self) -> ad.Tensor | None:
        """L2 penalty on the branch convolution kernels."""
        if self.config.l2_conv == 0.0:
            return None
        total = ad.add(ad.sum_of_squares(self.stage1.w), ad.sum_of_squares(self.stage2.w))
        return ad.scale(total, self.config.l2_conv)

    def decompose(self, raw: np.ndarray) -> np.ndarray:
        """Fixed-bank band decomposition of raw cycles [batch, L] into
        [batch, bands, L], the external_fir front-end.

        Centered alignment (numpy "same" convolution), matching the conv
        front-end's output sample-for-sample. Each cycle goes through one
        FFT product with the bank's spectrum, independent of
        autodiff.conv1d, so comparing the two checks one implementation
        against another. The stage workers split the batch by rows
        (autodiff.run_split); every row is computed on its own, so the
        result does not depend on the worker count.
        """
        if self.bank is None:
            raise ValueError("this network has no fixed filter bank to decompose with")
        raw = np.asarray(raw, dtype=np.float64)
        coeffs = np.stack([f.coeffs for f in self.bank.filters])   # [bands, K]
        (b, n), (bands, k) = raw.shape, coeffs.shape
        if n < k:
            raise ValueError(f"cycles of {n} samples are shorter than the {k}-tap bank")
        nfft = next_pow2(n + k - 1)
        bank_hat = np.fft.rfft(coeffs, nfft)
        start = (k - 1) // 2
        out = np.empty((b, bands, n))

        def rows(r0, r1):
            spec = np.fft.rfft(raw[r0:r1], nfft)[:, None, :] * bank_hat[None, :, :]
            out[r0:r1] = np.fft.irfft(spec, nfft)[:, :, start:start + n]

        ad.run_split(rows, b)
        return out


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
    """Write a bit-exact snapshot: config, every array, running stats, step."""
    buf = io.BytesIO()
    buf.write(CKPT_MAGIC)
    buf.write(struct.pack("<I", CKPT_VERSION))
    cfg_json = json.dumps(asdict(net.config), sort_keys=True,
                          separators=(",", ":")).encode()
    buf.write(struct.pack("<Q", len(cfg_json)))
    buf.write(cfg_json)
    buf.write(struct.pack("<Q", net.step))
    blobs = net._blobs()
    buf.write(struct.pack("<I", len(blobs)))
    for name, arr in blobs:
        nb = name.encode()
        buf.write(struct.pack("<H", len(nb)))
        buf.write(nb)
        buf.write(struct.pack("<B", arr.ndim))
        for d in arr.shape:
            buf.write(struct.pack("<Q", d))
        buf.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())
    write_output(path, buf.getvalue())


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
