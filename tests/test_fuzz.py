"""Seeded mutation fuzzing of the files the CLI reads: WAV recordings and
label CSVs, through `ingest`; checkpoints, through `analyze --ckpt`; cycle
stores, through `analyze --cycles`; eval CSVs, through `report`; filter
JSON, through `response`; fold CSVs and `--config` JSON, through
`train --epochs 0`.

The mutants are truncations, single-byte replacements, length fields set
to their extremes, repeated records and JSON values swapped for values of
other types, drawn from a fixed random.Random seed. Every mutant of a data
file must end in exit 0 or exit 3 without raising, and an exit 3 prints
exactly one stderr line, starting with "data error:". A config mutant is
a usage error instead: exit 0 or exit 2, one stderr line starting with
"error:".
"""

import json
import random
import struct

import pytest

from pcgnet.cli import main
from pcgnet.data import STORE_MAGIC
from pcgnet.model import CKPT_MAGIC, NetworkConfig, build, save

WAV_HEADER_LEN = 44     # the header write_wav emits: RIFF, fmt and data chunk ids
# JSON values of every type, for swapping into config and metadata fields
SWAPS = (2.0, 0.5, -1, 0, 1, "x", True, None, [1], {})


def replace_byte(blob: bytes, rng: random.Random, start: int, stop: int) -> tuple[str, bytes]:
    at = rng.randrange(start, stop)
    value = (blob[at] + rng.randrange(1, 256)) % 256       # never the old value
    return f"byte {at} = {value}", blob[:at] + bytes([value]) + blob[at + 1:]


def set_field(blob: bytes, at: int, fmt: str, value: int) -> tuple[str, bytes]:
    size = struct.calcsize(fmt)
    return f"field {fmt} at {at} = {value}", blob[:at] + struct.pack(fmt, value) + blob[at + size:]


def cuts(blob: bytes, rng: random.Random, n: int) -> list[tuple[str, bytes]]:
    return [(f"cut at {c}", blob[:c]) for c in sorted(rng.sample(range(len(blob)), n))]


def run_mutants(mutants, write, argv, capsys, fail_code=3, prefix="data error:") -> list[str]:
    """Write and run each (label, bytes) mutant; the contract breaches found."""
    bad = []
    for label, blob in mutants:
        write(blob)
        capsys.readouterr()
        try:
            code = main(argv)
        except Exception as e:          # MemoryError included
            bad.append(f"{label}: raised {type(e).__name__}: {e}")
            continue
        err = capsys.readouterr().err.strip().splitlines()
        if code not in (0, fail_code):
            bad.append(f"{label}: exit {code}, stderr {err}")
        elif code == fail_code and (len(err) != 1 or not err[0].startswith(prefix)):
            bad.append(f"{label}: stderr {err}")
    return bad


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """A two-recording synth corpus: (wav dir, labels csv)."""
    root = tmp_path_factory.mktemp("fuzz_wav")
    assert main(["synth", "--n", "2", "--abnormal-fraction", "0.5", "--seed", "4",
                 "--out", str(root)]) == 0
    return root / "wav", root / "labels.csv"


@pytest.fixture(scope="module")
def store(corpus):
    """The corpus ingested: the path of its cycle store."""
    wav_dir, labels = corpus
    out = wav_dir.parent / "ingested"
    assert main(["ingest", "--wav-dir", str(wav_dir), "--labels", str(labels),
                 "--out", str(out)]) == 0
    return out / "cycles.bin"


def test_mutated_wav_is_ingested_or_data_error(corpus, capsys):
    wav_dir, labels = corpus
    target = sorted(wav_dir.glob("*.wav"))[0]
    blob = target.read_bytes()
    assert blob[36:40] == b"data" and len(blob) > WAV_HEADER_LEN + 100
    rng = random.Random(20261018)
    data_len = len(blob) - WAV_HEADER_LEN
    cuts = sorted(rng.sample(range(1, WAV_HEADER_LEN), 9)) + [WAV_HEADER_LEN] + [
        WAV_HEADER_LEN + 2 * rng.randrange(data_len // 2) + 1 for _ in range(2)]
    mutants = [(f"cut at {c}", blob[:c]) for c in cuts]
    mutants += [replace_byte(blob, rng, 0, WAV_HEADER_LEN) for _ in range(40)]
    mutants += [set_field(blob, at, "<I", v) for at in (4, 40) for v in (0, 0xFFFFFFFF)]
    try:
        bad = run_mutants(mutants, target.write_bytes,
                          ["ingest", "--wav-dir", str(wav_dir), "--labels", str(labels),
                           "--out", str(wav_dir.parent / "store")], capsys)
    finally:
        target.write_bytes(blob)
    assert bad == []


def test_mutated_checkpoint_is_analyzed_or_data_error(tmp_path, capsys):
    ckpt = tmp_path / "m.ckpt"
    save(build(NetworkConfig(frontend="tconv_lp", input_len=100, seed=2)), str(ckpt))
    blob = ckpt.read_bytes()
    rng = random.Random(20261019)
    # the length fields, in file order: config length, blob count, then the
    # first blob's name length, ndim and first shape dimension
    cfg_len_at = len(CKPT_MAGIC) + 4
    (cfg_len,) = struct.unpack_from("<Q", blob, cfg_len_at)
    count_at = cfg_len_at + 8 + cfg_len + 8
    name_len_at = count_at + 4
    (name_len,) = struct.unpack_from("<H", blob, name_len_at)
    ndim_at = name_len_at + 2 + name_len
    assert blob[name_len_at + 2:ndim_at] == b"frontend.half"
    fields = [(cfg_len_at, "<Q"), (count_at, "<I"), (name_len_at, "<H"),
              (ndim_at, "<B"), (ndim_at + 1, "<Q")]
    mutants = [(f"cut at {c}", blob[:c]) for c in sorted(rng.sample(range(len(blob)), 12))]
    mutants += [replace_byte(blob, rng, 0, len(blob)) for _ in range(40)]
    mutants += [set_field(blob, at, fmt, 256 ** struct.calcsize(fmt) - 1) for at, fmt in fields]
    # the last blob, head.b2 [1]: name length, name, ndim, one dimension, one double
    last = blob[-(2 + 7 + 1 + 8 + 8):]
    assert last[2:9] == b"head.b2"
    (count,) = struct.unpack_from("<I", blob, count_at)
    mutants += [("last blob repeated", set_field(blob, count_at, "<I", count + 1)[1] + last)]
    bad = run_mutants(mutants, ckpt.write_bytes,
                      ["analyze", "--ckpt", str(ckpt), "--out", str(tmp_path / "an")], capsys)
    assert bad == []


def test_checkpoint_config_type_swaps_are_analyzed_or_data_error(tmp_path, capsys):
    ckpt = tmp_path / "m.ckpt"
    save(build(NetworkConfig(frontend="tconv_lp", input_len=100, seed=2)), str(ckpt))
    blob = ckpt.read_bytes()
    at = len(CKPT_MAGIC) + 4
    (cfg_len,) = struct.unpack_from("<Q", blob, at)
    cfg = json.loads(blob[at + 8:at + 8 + cfg_len])

    def with_config(changed: dict) -> bytes:
        text = json.dumps(changed).encode()
        return blob[:at] + struct.pack("<Q", len(text)) + text + blob[at + 8 + cfg_len:]

    swaps = (2.0, 0.5, -1, 0, "x", True, None, [1], {})
    mutants = [(f"{key} = {value!r}", with_config({**cfg, key: value}))
               for key in sorted(cfg) for value in swaps if value != cfg[key]]
    bad = run_mutants(mutants, ckpt.write_bytes,
                      ["analyze", "--ckpt", str(ckpt), "--out", str(tmp_path / "an")], capsys)
    assert bad == []


def test_mutated_eval_csv_is_reported_or_data_error(tmp_path, capsys):
    runs = tmp_path / "runs"
    runs.mkdir()
    target = runs / "eval.csv"
    blob = (b"config,fold,tp,tn,fp,fn,sensitivity_pct,specificity_pct,macc_pct\r\n"
            b"lp-tconv-fir,0,7,9,2,1,87.5,81.818181818181813,84.659090909090907\r\n")
    rng = random.Random(20261020)
    mutants = [(f"cut at {c}", blob[:c]) for c in sorted(rng.sample(range(len(blob)), 30))]
    mutants += [replace_byte(blob, rng, 0, len(blob)) for _ in range(80)]
    bad = run_mutants(mutants, target.write_bytes,
                      ["report", "--runs", str(runs), "--out", str(tmp_path / "rep")], capsys)
    assert bad == []


def test_mutated_filter_json_is_read_or_data_error(tmp_path, capsys):
    assert main(["design", "--lo", "45", "--hi", "80", "--order", "20",
                 "--out", str(tmp_path / "d")]) == 0
    blob = (tmp_path / "d" / "filter.json").read_bytes()
    target = tmp_path / "filter.json"
    rng = random.Random(20261021)
    mutants = [(f"cut at {c}", blob[:c]) for c in sorted(rng.sample(range(len(blob)), 30))]
    mutants += [replace_byte(blob, rng, 0, len(blob)) for _ in range(80)]
    bad = run_mutants(mutants, target.write_bytes,
                      ["response", "--filter", str(target), "--points", "64",
                       "--out", str(tmp_path / "r")], capsys)
    assert bad == []


def test_mutated_cycle_store_is_analyzed_or_data_error(store, tmp_path, capsys):
    ckpt = tmp_path / "m.ckpt"
    save(build(NetworkConfig(seed=0)), str(ckpt))
    blob = store.read_bytes()
    head = len(STORE_MAGIC)
    body = head + 16
    n, dim = struct.unpack_from("<QQ", blob, head)
    meta_at = body + 8 * n * dim
    meta = json.loads(blob[meta_at:])
    rng = random.Random(20261022)

    def with_meta(changed) -> bytes:
        return blob[:meta_at] + json.dumps(changed).encode()

    mutants = cuts(blob, rng, 16)
    mutants += [replace_byte(blob, rng, 0, body) for _ in range(20)]
    mutants += [replace_byte(blob, rng, body, meta_at) for _ in range(5)]
    mutants += [replace_byte(blob, rng, meta_at, len(blob)) for _ in range(40)]
    mutants += [set_field(blob, at, "<Q", v) for at in (head, head + 8)
                for v in (0, 1, 2 ** 61, 2 ** 63, 2 ** 64 - 1)]
    mutants += [(f"n = {v}, dim = 0", blob[:head] + struct.pack("<QQ", v, 0) + blob[body:])
                for v in (2 ** 31, 2 ** 61, 2 ** 64 - 1)]
    mutants += [(f"row 0 {key} = {value!r}", with_meta([{**meta[0], key: value}, *meta[1:]]))
                for key in sorted(meta[0]) for value in SWAPS if value != meta[0][key]]
    mutants += [(f"row 0 without {key}",
                 with_meta([{k: v for k, v in meta[0].items() if k != key}, *meta[1:]]))
                for key in sorted(meta[0])]
    mutants += [("valid_len past the cycle", with_meta([{**meta[0], "valid_len": dim + 1},
                                                        *meta[1:]])),
                ("one row short", with_meta(meta[:-1])),
                ("one row more", with_meta(meta + meta[:1])),
                ("rows not objects", with_meta([1] * n)),
                ("object, not list", with_meta({"rows": meta})),
                ("null", with_meta(None))]
    target = tmp_path / "cycles.bin"
    bad = run_mutants(mutants, target.write_bytes,
                      ["analyze", "--ckpt", str(ckpt), "--cycles", str(target),
                       "--out", str(tmp_path / "an")], capsys)
    assert bad == []


def test_mutated_label_csv_is_ingested_or_data_error(corpus, tmp_path, capsys):
    wav_dir, labels = corpus
    blob = labels.read_bytes()
    assert blob == b"id,label\r\nrec0000,-1\r\nrec0001,1\r\n"
    rng = random.Random(20261023)
    mutants = cuts(blob, rng, 15)
    mutants += [replace_byte(blob, rng, 0, len(blob)) for _ in range(40)]
    mutants += [("row repeated", blob + b"rec0001,1\r\n"),
                ("row repeated, other label", blob + b"rec0001,-1\r\n"),
                ("short row", blob + b"rec0002\r\n"),
                ("header only", b"id,label\r\n"),
                ("NUL", blob.replace(b"rec0000", b"rec\x000000"))]
    target = tmp_path / "labels.csv"
    bad = run_mutants(mutants, target.write_bytes,
                      ["ingest", "--wav-dir", str(wav_dir), "--labels", str(target),
                       "--out", str(tmp_path / "store")], capsys)
    assert bad == []


def test_mutated_fold_csv_is_trained_or_data_error(store, tmp_path, capsys):
    blob = b"id,fold\r\nrec0000,0\r\nrec0001,-1\r\n"
    rng = random.Random(20261024)
    mutants = cuts(blob, rng, 15)
    mutants += [replace_byte(blob, rng, 0, len(blob)) for _ in range(40)]
    mutants += [("row repeated", blob + b"rec0001,-1\r\n"),
                ("row repeated, other fold", blob + b"rec0001,0\r\n"),
                ("fold 4", blob.replace(b",-1", b",4")),
                ("fold 0.0", blob.replace(b",0", b",0.0")),
                ("unknown id", blob + b"rec0002,1\r\n")]
    target = tmp_path / "folds.csv"
    bad = run_mutants(mutants, target.write_bytes,
                      ["train", "--cycles", str(store), "--folds", str(target), "--fold", "0",
                       "--epochs", "0", "--out", str(tmp_path / "run")], capsys)
    assert bad == []


def test_mutated_config_json_is_trained_or_usage_error(store, tmp_path, capsys):
    folds = tmp_path / "folds.csv"
    folds.write_bytes(b"id,fold\r\nrec0000,0\r\nrec0001,-1\r\n")
    cfg = {"dropout": 0.25, "l2_conv": 0.01, "pool": 2, "kernel_len": 61, "lr0": 0.001,
           "lr_decay": 0.0001, "batch_size": 8, "epochs": 3, "class_weights": [1.0, 2.0]}
    blob = json.dumps(cfg).encode()
    rng = random.Random(20261025)
    mutants = cuts(blob, rng, 20)
    mutants += [replace_byte(blob, rng, 0, len(blob)) for _ in range(60)]
    mutants += [(f"{key} = {value!r}", json.dumps({**cfg, key: value}).encode())
                for key in sorted(cfg) for value in SWAPS if value != cfg[key]]
    mutants += [(f"class_weights = {value!r}", json.dumps({**cfg, "class_weights": value}).encode())
                for value in ([1.0], [1.0, 2.0, 3.0], [1.0, -2.0], [1.0, "2"], [1.0, None])]
    mutants += [(f"config {value!r}", json.dumps(value).encode())
                for value in ([cfg], None, 1, "x", {"frontend": "lp"})]
    mutants += [("not UTF-8", b"\xff" + blob)]
    target = tmp_path / "config.json"
    bad = run_mutants(mutants, target.write_bytes,
                      ["train", "--cycles", str(store), "--folds", str(folds), "--fold", "0",
                       "--epochs", "0", "--config", str(target), "--out", str(tmp_path / "run")],
                      capsys, fail_code=2, prefix="error:")
    assert bad == []
