"""Seeded mutation fuzzing of the files the CLI reads: WAV recordings,
through `ingest`; checkpoints, through `analyze --ckpt`; eval CSVs, through
`report`; filter JSON, through `response`.

The mutants are truncations, single-byte replacements, length fields set
to their extremes and checkpoint config values swapped for values of other
types, drawn from a fixed random.Random seed. Every mutant must end in
exit 0 or exit 3 without raising, and an exit 3 prints exactly one stderr
line, starting with "data error:".
"""

import json
import random
import struct

import pytest

from pcgnet.cli import main
from pcgnet.model import CKPT_MAGIC, NetworkConfig, build, save

WAV_HEADER_LEN = 44     # the header write_wav emits: RIFF, fmt and data chunk ids


def replace_byte(blob: bytes, rng: random.Random, start: int, stop: int) -> tuple[str, bytes]:
    at = rng.randrange(start, stop)
    value = (blob[at] + rng.randrange(1, 256)) % 256       # never the old value
    return f"byte {at} = {value}", blob[:at] + bytes([value]) + blob[at + 1:]


def set_field(blob: bytes, at: int, fmt: str, value: int) -> tuple[str, bytes]:
    size = struct.calcsize(fmt)
    return f"field {fmt} at {at} = {value}", blob[:at] + struct.pack(fmt, value) + blob[at + size:]


def run_mutants(mutants, write, argv, capsys) -> list[str]:
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
        if code not in (0, 3):
            bad.append(f"{label}: exit {code}, stderr {err}")
        elif code == 3 and (len(err) != 1 or not err[0].startswith("data error:")):
            bad.append(f"{label}: stderr {err}")
    return bad


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """A two-recording synth corpus: (wav dir, labels csv)."""
    root = tmp_path_factory.mktemp("fuzz_wav")
    assert main(["synth", "--n", "2", "--abnormal-fraction", "0.5", "--seed", "4",
                 "--out", str(root)]) == 0
    return root / "wav", root / "labels.csv"


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
