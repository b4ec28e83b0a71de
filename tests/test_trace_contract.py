"""The names the benchmark's span tracer patches must exist and keep their
call shapes.

perfbench/spans.py replaces pcgnet functions by name (the autodiff ops,
Network.forward, Network.decompose, TConvLayer.forward, training.adam_step,
...) and reads Network.branches. The benchmark itself runs untraced, so a
rename there would only show in a traced run; this test runs one.
Two of the patched names are pcgnet.model's own attributes and must
survive any refactor: the method Network.decompose, though its body is one
conv1d call, and the module-level name model.default_bank, which model.py
imports from pcgnet.fir.
"""

import importlib.util
from collections import Counter
from pathlib import Path

import numpy as np

import pcgnet.autodiff as ad
import pcgnet.training as trn
from pcgnet.model import NetworkConfig, build
from pcgnet.training import TrainConfig

from test_training import toy_folds, toy_store

SPANS_PY = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PY)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def subtree_names(spans, root_name):
    """Names of the spans nested under the first span called root_name."""
    root = next(i for i, s in enumerate(spans) if s[0] == root_name)
    inside, names = {root}, []
    for i in range(root + 1, len(spans)):
        if spans[i][3] in inside:
            inside.add(i)
            names.append(spans[i][0])
    return names


def force_two_workers(monkeypatch):
    """Two stage workers even on a one-CPU host: the grouped convs, the FFT
    convs and the stage nodes then run chunks on a pool thread, and
    check_nesting shows that no worker thread ever enters a traced op."""
    monkeypatch.setattr(ad, "available_cpus", lambda: 2)
    assert ad.stage_workers(4) == 2


def test_traced_train_and_evaluate(monkeypatch):
    force_two_workers(monkeypatch)
    spans_mod = load_spans()
    store = toy_store(n_recordings=8, cycles_per=3, length=120)
    folds = toy_folds(store)
    conv1d = ad.conv1d
    tracer = spans_mod.Tracer()
    tracer.install()
    try:
        lp = build(NetworkConfig(frontend="tconv_lp", input_len=120, seed=1))
        trn.train_fold(lp, store, folds, 0, TrainConfig(batch_size=8, epochs=1, seed=1))
        baseline = build(NetworkConfig(frontend="external_fir", input_len=120, seed=1))
        trn.evaluate(baseline, store, np.arange(len(store)), fold=0)
    finally:
        tracer.uninstall()
    assert ad.conv1d is conv1d
    spans = tracer.spans
    assert spans_mod.check_nesting(spans) == []
    names = {s[0] for s in spans}
    assert {"training.train_fold", "training.adam_step", "training.evaluate",
            "model.forward", "model.decompose", "frontend.forward"} <= names
    assert "autodiff.conv1d_valid.fwd" in names and "autodiff.conv1d_valid.bwd" in names
    # each branch stage is its grouped conv plus one fused node, which the
    # tracer does not wrap: a train forward traces two valid convs and,
    # past the stages, only the head's relu; no batch-norm, dropout or
    # max-pool node is built anywhere
    train = Counter(subtree_names(spans, "training.train_fold"))
    steps = train["training.adam_step"]
    assert steps > 0
    forward = Counter(train_forward_names(spans))
    assert forward["model.forward"] == steps
    assert forward["autodiff.conv1d_valid.fwd"] == 2 * steps
    assert forward["autodiff.relu.fwd"] == steps
    evaluate = subtree_names(spans, "training.evaluate")
    # inference builds no graph, so each stage is one conv_bn_relu_pool
    # call, which the tracer does not wrap either: no valid conv span at all
    assert "model.forward" in evaluate and "autodiff.conv1d_valid.fwd" not in evaluate
    # the baseline's fixed bank is one "same" conv1d, inside decompose
    assert "model.decompose" in evaluate
    assert subtree_names(spans, "model.decompose") == ["autodiff.conv1d_same.fwd"]
    for names in (train, evaluate):
        assert not [n for n in names if n.startswith(
            ("autodiff.batchnorm", "autodiff.dropout", "autodiff.maxpool"))]


def test_traced_zero_phase_train(monkeypatch):
    # the zero-phase front-end is two FFT convs, the second one grouped, and
    # its reverse pass needs the input gradient of the second
    force_two_workers(monkeypatch)
    spans_mod = load_spans()
    store = toy_store(n_recordings=8, cycles_per=3, length=120)
    tracer = spans_mod.Tracer()
    tracer.install()
    try:
        zp = build(NetworkConfig(frontend="tconv_zp", input_len=120, seed=1))
        trn.train_fold(zp, store, toy_folds(store), 0,
                       TrainConfig(batch_size=8, epochs=1, seed=1))
    finally:
        tracer.uninstall()
    spans = tracer.spans
    assert spans_mod.check_nesting(spans) == []
    train = Counter(subtree_names(spans, "training.train_fold"))
    steps = train["training.adam_step"]
    assert steps > 0
    forward = Counter(train_forward_names(spans))
    assert forward["model.forward"] == forward["frontend.forward"] == steps
    assert forward["autodiff.conv1d_same.fwd"] == forward["autodiff.conv1d_valid.fwd"] \
        == 2 * steps
    assert forward["autodiff.relu.fwd"] == steps
    assert train["autodiff.conv1d_same.bwd"] == 2 * steps
    assert not [n for n in train if n.startswith(
        ("autodiff.batchnorm", "autodiff.dropout", "autodiff.maxpool"))]


def train_forward_names(spans):
    """Names of the train-mode model.forward spans and of every span nested
    under one."""
    inside, names = set(), []
    for i, (name, _, _, parent, _, info) in enumerate(spans):
        if parent in inside or (name == "model.forward" and info.get("train")):
            inside.add(i)
            names.append(name)
    return names
