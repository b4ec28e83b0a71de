"""Span tracing for the pcgnet benchmark, installed from outside the package.

`Tracer.install` replaces public functions of the pcgnet modules, as module
and class attributes, with wrappers that record a span around each call;
`uninstall` puts the originals back. Every autodiff node an op returns also
gets its `_backward` closure wrapped, so the backward pass is traced op by
op. Nothing under src/ changes.

A span is [name, start, end, parent, run, info]: times from
time.perf_counter() in seconds, `parent` the index of the enclosing span
(-1 for none), `run` the benchmark iteration it belongs to, and `info` a
small dict of attributes. Spans stay in memory until the benchmark writes
them out at its end.

Model blocks: an op belongs to the block of the parameter it uses (branch
conv/bias/batch-norm parameters of stage 1 or 2, head weights, front-end
kernel); an op without parameters belongs to the block of the tensor it
acts on. Everything computed inside TConvLayer.forward, and the per-branch
band selection that follows it, is the "frontend" block.
"""

from __future__ import annotations

import statistics
from contextlib import contextmanager
from time import perf_counter

# Leaf op functions of pcgnet.autodiff; the helpers built on them
# (slice_channels, slice_time, causal_conv1d) reach them through the module
# globals, so each node is recorded exactly once.
OP_FUNCS = ("add", "mul", "scale", "tsum", "sum_of_squares", "relu", "sigmoid",
            "reshape", "concat", "slice_axis", "pad_time", "flip_time", "conv1d",
            "dense", "add_channel_bias", "maxpool1d", "batchnorm1d", "dropout",
            "weighted_bce")

# Tensor.op labels reported per step.
OPS = ("conv1d_valid", "conv1d_same", "batchnorm", "dropout", "relu", "maxpool",
       "bias", "dense", "sigmoid", "concat", "slice", "reshape", "flip_time",
       "weighted_bce", "sum_sq", "add", "scale")
BLOCKS = ("frontend", "stage1", "stage2", "head")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.run = None
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._param_block: dict[int, str] = {}
        self._block_of: dict[int, str] = {}
        self._in_tconv = 0
        self._train_step = False

    # -- spans ------------------------------------------------------------

    def open(self, name: str, **info) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        info["mode"] = "train" if self._train_step else "infer"
        self.spans.append([name, perf_counter(), None, parent, self.run, info])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = perf_counter()
        top = self._stack.pop()
        if top != idx:
            raise RuntimeError(f"span {self.spans[idx][0]} closed out of order")

    @contextmanager
    def span(self, name: str, **info):
        idx = self.open(name, **info)
        try:
            yield idx
        finally:
            self.close(idx)

    # -- instrumentation --------------------------------------------------

    def install(self) -> None:
        import pcgnet.autodiff as ad
        import pcgnet.data as dat
        import pcgnet.frontend as fe
        import pcgnet.model as mdl
        import pcgnet.training as trn

        for name in OP_FUNCS:
            self._patch(ad, name, self._op(getattr(ad, name)))
        self._patch(ad, "backward", self._timed("autodiff.backward", ad.backward))
        self._patch(fe.TConvLayer, "forward", self._tconv_forward(fe.TConvLayer.forward))
        self._patch(mdl.Network, "forward", self._network_forward(mdl.Network.forward))
        self._patch(mdl.Network, "decompose",
                    self._timed("model.decompose", mdl.Network.decompose))
        for name in ("build", "save", "load"):
            self._patch(mdl, name, self._timed(f"model.{name}", getattr(mdl, name)))
        self._patch(mdl, "default_bank", self._timed("fir.default_bank", mdl.default_bank))
        self._patch(trn, "train_fold", self._timed("training.train_fold", trn.train_fold))
        self._patch(trn, "evaluate", self._timed("training.evaluate", trn.evaluate))
        self._patch(trn, "adam_step", self._adam_step(trn.adam_step))
        self._patch(dat, "load_recording",
                    self._timed("data.load_recording", dat.load_recording))
        self._patch(dat, "segment_cycles", self._segment_cycles(dat.segment_cycles))
        self._patch(dat, "resample", self._timed("dsp.resample", dat.resample))
        self._patch(dat.CycleStore, "save",
                    self._timed("data.store_save", dat.CycleStore.save))
        load = dat.CycleStore.__dict__["load"].__func__
        self._patch(dat.CycleStore, "load", classmethod(self._timed("data.store_load", load)))

    def uninstall(self) -> None:
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)
        self._param_block.clear()
        self._block_of.clear()
        self._train_step = False

    def _patch(self, owner, name: str, wrapper) -> None:
        original = owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)
        self._patches.append((owner, name, original))
        setattr(owner, name, wrapper)

    def _timed(self, span_name: str, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            idx = tracer.open(span_name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(idx)

        return wrapper

    def _op(self, fn):
        tracer = self
        from pcgnet.autodiff import Tensor

        def wrapper(*args, **kwargs):
            idx = tracer.open("autodiff.op")
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            span = tracer.spans[idx]
            if any(out is a for a in args):
                span[0] = "autodiff.passthrough"   # e.g. dropout outside training
                return out
            inputs = [t for a in args for t in (a if isinstance(a, list) else (a,))
                      if isinstance(t, Tensor)]
            block = tracer._attribute(inputs)
            in_tconv = tracer._in_tconv > 0
            span[0] = f"autodiff.{out.op}.fwd"
            span[5].update(block=block, tconv=in_tconv, nbytes=out.data.nbytes)
            tracer._block_of[id(out)] = block
            if out._backward is not None:
                out._backward = tracer._backward(out._backward, out.op, block, in_tconv)
            return out

        return wrapper

    def _backward(self, back, label: str, block: str, in_tconv: bool):
        tracer = self
        name = f"autodiff.{label}.bwd"

        def traced(g):
            idx = tracer.open(name, block=block, tconv=in_tconv)
            try:
                back(g)
            finally:
                tracer.close(idx)

        return traced

    def _attribute(self, inputs) -> str:
        if self._in_tconv:
            return "frontend"
        for t in inputs:
            block = self._param_block.get(id(t))
            if block:
                return block
        for t in inputs:
            block = self._block_of.get(id(t))
            if block:
                return block
        return "frontend"   # the network input itself: band selection

    def _tconv_forward(self, fn):
        tracer = self

        def forward(layer, x):
            idx = tracer.open("frontend.forward")
            tracer._in_tconv += 1
            try:
                return fn(layer, x)
            finally:
                tracer._in_tconv -= 1
                tracer.close(idx)

        return forward

    def _network_forward(self, fn):
        tracer = self

        def forward(net, batch, train=False, rng=None):
            tracer._block_of.clear()
            tracer._param_block = _param_blocks(net)
            if train:
                tracer._train_step = True
            idx = tracer.open("model.forward", train=bool(train))
            try:
                return fn(net, batch, train=train, rng=rng)
            finally:
                tracer.close(idx)

        return forward

    def _adam_step(self, fn):
        tracer = self

        def adam_step(*args, **kwargs):
            idx = tracer.open("training.adam_step")
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(idx)
                tracer._train_step = False

        return adam_step

    def _segment_cycles(self, fn):
        tracer = self

        def segment_cycles(*args, **kwargs):
            idx = tracer.open("data.segment_cycles", ok=False, cycles=0)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            tracer.spans[idx][5].update(ok=True, cycles=len(out))
            return out

        return segment_cycles


def _param_blocks(net) -> dict[int, str]:
    blocks: dict[int, str] = {}
    if net.frontend is not None:
        for _, p in net.frontend.parameters():
            blocks[id(p)] = "frontend"
    for br in net.branches:
        for p in (br.w1, br.b1, br.bn1_gamma, br.bn1_beta):
            blocks[id(p)] = "stage1"
        for p in (br.w2, br.b2, br.bn2_gamma, br.bn2_beta):
            blocks[id(p)] = "stage2"
    for p in (net.head_w1, net.head_b1, net.head_w2, net.head_b2):
        blocks[id(p)] = "head"
    return blocks


# ---------------------------------------------------------------------------
# analysis

def durations(spans) -> list[float]:
    return [s[2] - s[1] for s in spans]


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    out = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            out[s[3]] -= s[2] - s[1]
    return out


def check_nesting(spans: list[list]) -> list[str]:
    """Problems with the span tree: a child outside its parent's interval,
    siblings that overlap, or a span that never closed."""
    problems = []
    last_end: dict[int, float] = {}
    for i, (name, start, end, parent, _, _) in enumerate(spans):
        if end is None or end < start:
            problems.append(f"span {i} {name} is not closed")
            continue
        if parent >= 0:
            p = spans[parent]
            if parent >= i or start < p[1] or end > p[2]:
                problems.append(f"span {i} {name} lies outside its parent {p[0]}")
        if start < last_end.get(parent, float("-inf")):
            problems.append(f"span {i} {name} overlaps its previous sibling")
        last_end[parent] = end
    return problems


def _mean_ms(spans) -> float:
    return 1e3 * sum(durations(spans)) / len(spans) if spans else 0.0


def _percentile(values: list[float], q: int) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def layer_metrics(spans: list[list], epochs_per_train: int) -> tuple[dict, dict]:
    """Per-layer metrics from the spans of traced iterations.

    Op, block and front-end figures are per step: per training step where
    the spans hold training, otherwise per inference batch (one
    Network.forward call). Returns (metrics, sample counts).
    """
    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s[0], []).append(i)
    selfs = self_times(spans)

    def named(name):
        return [spans[i] for i in by_name.get(name, [])]

    adam = named("training.adam_step")
    forwards = named("model.forward")
    infer_forwards = [s for s in forwards if not s[5]["train"]]
    if adam:
        mode, units = "train", len(adam)
    else:
        mode, units = "infer", max(len(infer_forwards), 1)

    def per_step(selected) -> float:
        return 1e3 * sum(s[2] - s[1] for s in selected) / units

    fwd = [s for s in spans if s[0].endswith(".fwd") and s[5]["mode"] == mode]
    bwd = [s for s in spans if s[0].endswith(".bwd") and s[5]["mode"] == mode]
    m: dict[str, float] = {}
    for op in OPS:
        m[f"autodiff.{op}.fwd_ms"] = per_step(s for s in fwd if s[0] == f"autodiff.{op}.fwd")
        m[f"autodiff.{op}.bwd_ms"] = per_step(s for s in bwd if s[0] == f"autodiff.{op}.bwd")
    graph = [selfs[i] for i in by_name.get("autodiff.backward", [])]
    m["autodiff.backward.graph_ms"] = 1e3 * sum(graph) / units if adam else 0.0
    m["autodiff.nodes_per_step"] = len(fwd) / units
    m["autodiff.out_bytes_per_step"] = sum(s[5]["nbytes"] for s in fwd) / units

    m["frontend.fwd_ms"] = per_step(s for s in named("frontend.forward")
                                    if s[5]["mode"] == mode)
    m["frontend.bwd_ms"] = per_step(s for s in bwd if s[5]["tconv"])
    for block in BLOCKS:
        m[f"model.block.{block}.fwd_ms"] = per_step(s for s in fwd if s[5]["block"] == block)
        m[f"model.block.{block}.bwd_ms"] = per_step(s for s in bwd if s[5]["block"] == block)
    m["model.decompose_ms"] = _mean_ms(named("model.decompose"))
    m["model.save_ms"] = _mean_ms(named("model.save"))
    m["model.load_ms"] = _mean_ms(named("model.load"))

    steps, coverage = _step_intervals(spans, by_name)
    m["training.step_ms.p50"] = _percentile(steps, 50)
    m["training.step_ms.p90"] = _percentile(steps, 90)
    m["training.adam_ms"] = _mean_ms(adam)
    train_folds = by_name.get("training.train_fold", [])
    validate = [s for s in infer_forwards if _has_ancestor(spans, s, set(train_folds))]
    n_epochs = len(train_folds) * epochs_per_train
    m["training.validate_ms"] = 1e3 * sum(durations(validate)) / n_epochs if n_epochs else 0.0

    loads = named("data.load_recording")
    segs = named("data.segment_cycles")
    ok = [s for s in segs if s[5]["ok"]]
    m["data.load_recording_ms"] = _mean_ms(loads)
    m["data.segment_cycles_ms"] = _mean_ms(segs)
    m["data.segment_ok_ratio"] = len(ok) / len(segs) if segs else 0.0
    m["data.cycles_per_recording"] = sum(s[5]["cycles"] for s in ok) / len(ok) if ok else 0.0
    m["data.store_load_ms"] = _mean_ms(named("data.store_load"))
    m["data.store_save_ms"] = _mean_ms(named("data.store_save"))
    m["dsp.resample_ms"] = _mean_ms(named("dsp.resample"))
    m["fir.default_bank_ms"] = _mean_ms(named("fir.default_bank"))

    cli = [i for i, s in enumerate(spans) if s[0].startswith("cli.")]
    for cmd in ("train", "ingest", "eval"):
        m[f"cli.{cmd}_s"] = _mean_ms(named(f"cli.{cmd}")) / 1e3
    m["cli.self_s"] = sum(selfs[i] for i in cli) / len(cli) if cli else 0.0

    if not adam:   # inference: how much of each forward the op spans cover
        covered = sum(spans[i][2] - spans[i][1] - selfs[i]
                      for i in by_name.get("model.forward", []))
        wall = sum(durations(forwards))
        coverage = 100.0 * covered / wall if wall else 0.0
    m["trace.step_coverage_pct"] = coverage

    counts = {"steps": len(adam), "step_intervals": len(steps),
              "inference_batches": len(infer_forwards), "spans": len(spans),
              "recordings": len(segs)}
    return m, counts


def _has_ancestor(spans, span, ancestors: set[int]) -> bool:
    parent = span[3]
    while parent >= 0:
        if parent in ancestors:
            return True
        parent = spans[parent][3]
    return False


def _step_intervals(spans, by_name) -> tuple[list[float], float]:
    """Times between consecutive adam_step returns inside one train_fold
    call, skipping intervals that contain a validation pass, and the
    percentage of that time covered by train_fold's direct child spans."""
    intervals: list[float] = []
    covered = total = 0.0
    for tf in by_name.get("training.train_fold", []):
        children = [s for s in spans[tf + 1:] if s[3] == tf]
        prev = None
        pending: list[list] = []
        for s in children:
            if s[0] == "model.forward" and not s[5]["train"]:
                prev = None   # a validation pass: restart at the next step
                pending = []
                continue
            pending.append(s)
            if s[0] != "training.adam_step":
                continue
            if prev is not None:
                intervals.append(1e3 * (s[2] - prev))
                total += s[2] - prev
                covered += sum(c[2] - c[1] for c in pending if c[1] >= prev)
            prev = s[2]
            pending = []
    return intervals, (100.0 * covered / total if total else 0.0)


def self_time_table(spans: list[list], top: int = 25) -> list[str]:
    """Text table of span names ranked by total self time."""
    selfs = self_times(spans)
    agg: dict[str, list[float]] = {}
    for s, own in zip(spans, selfs):
        a = agg.setdefault(s[0], [0, 0.0, 0.0])
        a[0] += 1
        a[1] += s[2] - s[1]
        a[2] += own
    rows = sorted(agg.items(), key=lambda kv: -kv[1][2])[:top]
    lines = [f"{'span':34s} {'count':>7s} {'total_ms':>11s} {'self_ms':>11s}"]
    for name, (count, tot, own) in rows:
        lines.append(f"{name:34s} {count:7d} {1e3 * tot:11.1f} {1e3 * own:11.1f}")
    return lines

