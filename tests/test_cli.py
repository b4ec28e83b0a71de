import csv
import hashlib
import json
import os
import struct
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from pcgnet import autodiff as ad
from pcgnet import cli
from pcgnet import data as dat
from pcgnet import training as trn
from pcgnet.cli import main
from pcgnet.data import (MIN_CYCLE_LEN, STORE_MAGIC, CycleStore, read_fold_manifest,
                         write_wav)
from pcgnet.dsp import Waveform
from pcgnet.errors import DataError
from pcgnet.fir import bank_from_json, default_bank, frequency_response
from pcgnet.model import CKPT_MAGIC, NetworkConfig, build, load, save

from _reference import REFERENCE_ROWS

EVAL_HEADER = ["config", "fold", "tp", "tn", "fp", "fn",
               "sensitivity_pct", "specificity_pct", "macc_pct"]
# report.csv of TestReport.test_report_csv_text, byte for byte
REPORT_CSV_TEXT = (
    b"config,fold,sensitivity_pct,specificity_pct,macc_pct,"
    b"crossfold_sens_mean,crossfold_sens_std,crossfold_spec_mean,crossfold_spec_std,"
    b"crossfold_macc_mean,crossfold_macc_std\r\n"
    b"lp,0,72.44,0.0,36.22,79.97,10.65,50.0,70.71,64.98,40.68\r\n"
    b"lp,1,87.5,100.0,93.75,,,,,,\r\n"
    b"zp,0,100.0,50.0,75.0,81.25,26.52,65.91,22.5,73.58,2.01\r\n"
    b"zp,1,62.5,81.82,72.16,,,,,,\r\n")


def digest(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def rewrite_config(ckpt, **changes):
    """Rewrite the config JSON stored in a checkpoint file."""
    blob = Path(ckpt).read_bytes()
    at = len(CKPT_MAGIC) + 4
    (n,) = struct.unpack_from("<Q", blob, at)
    cfg = json.loads(blob[at + 8:at + 8 + n])
    cfg.update(changes)
    text = json.dumps(cfg, sort_keys=True, separators=(",", ":")).encode()
    Path(ckpt).write_bytes(blob[:at] + struct.pack("<Q", len(text)) + text + blob[at + 8 + n:])


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """One small synth -> ingest -> folds pipeline shared by the tests."""
    root = tmp_path_factory.mktemp("pipe")
    assert main(["synth", "--n", "12", "--abnormal-fraction", "0.5",
                 "--seed", "7", "--out", str(root / "data")]) == 0
    assert main(["ingest", "--wav-dir", str(root / "data" / "wav"),
                 "--labels", str(root / "data" / "labels.csv"),
                 "--subset", "synthetic", "--out", str(root / "store")]) == 0
    assert main(["folds", "--cycles", str(root / "store" / "cycles.bin"),
                 "--seed", "7", "--out", str(root / "folds")]) == 0
    return root


class TestDesign:
    def test_bank_edges_and_files(self, tmp_path):
        assert main(["design", "--bank", "--rate", "1000",
                     "--out", str(tmp_path)]) == 0
        bank = bank_from_json((tmp_path / "bank.json").read_text())
        edges = [(f.band_lo_hz, f.band_hi_hz) for f in bank.filters]
        assert edges == [(25.0, 45.0), (45.0, 80.0), (80.0, 200.0), (200.0, 500.0)]
        assert (tmp_path / "manifest.json").exists()

    def test_single_filter_and_response_regeneration(self, tmp_path):
        out1 = tmp_path / "a"
        assert main(["design", "--lo", "45", "--hi", "80",
                     "--order", "60", "--rate", "1000", "--out", str(out1)]) == 0
        ra = tmp_path / "ra"
        rb = tmp_path / "rb"
        for r in (ra, rb):
            assert main(["response", "--filter", str(out1 / "filter.json"),
                         "--out", str(r)]) == 0
        assert digest(ra / "response.csv") == digest(rb / "response.csv")
        assert digest(ra / "response.csv") == digest(out1 / "response.csv")

    def test_degenerate_order_rejected(self, tmp_path):
        assert main(["design", "--lo", "25", "--hi", "45", "--order", "0",
                     "--rate", "1000", "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("mutate", [
        lambda t: t[:-2],                           # bad JSON
        lambda t: t.replace("[", "[NaN, ", 1),      # NaN, and one coefficient too many
        lambda t: json.dumps({**json.loads(t), "coeffs": [float("nan")] * 61}),
        lambda t: json.dumps({**json.loads(t), "coeffs": [0.0] * 60}),
        lambda t: json.dumps({k: v for k, v in json.loads(t).items() if k != "order"}),
        lambda t: json.dumps({**json.loads(t), "order": 60.0}),
        lambda t: json.dumps({**json.loads(t), "band_lo_hz": "45"}),
        lambda t: json.dumps([json.loads(t)]),
        lambda t: b"\xff\xfe\xfd",
    ], ids=["bad-json", "nan-extra-coeff", "nan-coeffs", "60-coeffs", "no-order",
            "float-order", "string-edge", "list", "not-utf8"])
    def test_malformed_filter_json_is_data_error(self, tmp_path, capsys, mutate):
        assert main(["design", "--lo", "45", "--hi", "80", "--order", "60",
                     "--rate", "1000", "--out", str(tmp_path / "d")]) == 0
        bad = mutate((tmp_path / "d" / "filter.json").read_text())
        path = tmp_path / "bad.json"
        (path.write_bytes if isinstance(bad, bytes) else path.write_text)(bad)
        capsys.readouterr()
        assert main(["response", "--filter", str(path), "--out", str(tmp_path / "r")]) == 3
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("data error:")
        assert not (tmp_path / "r" / "response.csv").exists()

    def test_bank_json_builds_each_filter_like_one_filter(self, tmp_path):
        assert main(["design", "--bank", "--out", str(tmp_path)]) == 0
        obj = json.loads((tmp_path / "bank.json").read_text())
        obj["filters"][2]["coeffs"][5] = float("nan")
        with pytest.raises(DataError, match="NaN"):
            bank_from_json(json.dumps(obj))


class TestSynthIngestFolds:
    def test_synth_class_counts(self, tmp_path):
        assert main(["synth", "--n", "100", "--abnormal-fraction", "0.21",
                     "--seed", "1", "--out", str(tmp_path)]) == 0
        labels = (tmp_path / "labels.csv").read_text().strip().splitlines()[1:]
        n_abn = sum(1 for line in labels if line.endswith(",1"))
        assert n_abn == 21 and len(labels) == 100

    def test_synth_reproducible(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert main(["synth", "--n", "4", "--seed", "5", "--out", str(out)]) == 0
        for wav in sorted((a / "wav").glob("*.wav")):
            assert digest(wav) == digest(b / "wav" / wav.name)

    def test_pipeline_store_and_folds(self, pipeline):
        store = CycleStore.load(pipeline / "store" / "cycles.bin")
        assert len(store) > 20
        folds = read_fold_manifest(pipeline / "folds" / "folds.csv")
        labels = store.recording_labels()
        for fold in range(4):
            ids = [r for r, f in folds.items() if f == fold]
            assert ids, f"fold {fold} empty"
            n_abn = sum(labels[r] for r in ids)
            assert 2 * n_abn == len(ids)

    def test_folds_rerun_identical(self, pipeline, tmp_path):
        assert main(["folds", "--cycles", str(pipeline / "store" / "cycles.bin"),
                     "--seed", "7", "--out", str(tmp_path)]) == 0
        assert digest(tmp_path / "folds.csv") == digest(pipeline / "folds" / "folds.csv")

    def test_ingest_empty_dir_is_data_error(self, tmp_path):
        (tmp_path / "w").mkdir()
        (tmp_path / "labels.csv").write_text("id,label\nx,1\n")
        assert main(["ingest", "--wav-dir", str(tmp_path / "w"),
                     "--labels", str(tmp_path / "labels.csv"),
                     "--out", str(tmp_path / "o")]) == 3

    def test_ingest_with_every_recording_skipped_is_one_line(self, tmp_path, capsys):
        (tmp_path / "w").mkdir()
        short = Waveform(np.random.default_rng(0).normal(0.0, 0.1, size=3000), 2000.0)
        for rid in ("r0", "r1"):
            write_wav(tmp_path / "w" / f"{rid}.wav", short)    # 1.5 s < 3 s
        (tmp_path / "labels.csv").write_text("id,label\nr0,1\nr1,-1\n")
        capsys.readouterr()
        assert main(["ingest", "--wav-dir", str(tmp_path / "w"),
                     "--labels", str(tmp_path / "labels.csv"),
                     "--out", str(tmp_path / "o")]) == 3
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("data error: no recordings produced cycles")
        assert "r0: too short" in err[0] and "r1: too short" in err[0]
        assert not (tmp_path / "o" / "cycles.bin").exists()

    @pytest.mark.parametrize("text", [None, "id,label\nrec1\n",
                                      "id,label\nrec0000,1\nrec0000,-1\n"])
    def test_bad_label_manifest_is_data_error(self, pipeline, tmp_path, capsys, text):
        labels = tmp_path / "labels.csv"
        if text is not None:
            labels.write_text(text)
        capsys.readouterr()
        assert main(["ingest", "--wav-dir", str(pipeline / "data" / "wav"),
                     "--labels", str(labels), "--out", str(tmp_path / "o")]) == 3
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("data error:")

    @pytest.mark.parametrize("row", [None, "{rid}", "{rid},x", "{rid},9", "{line}\n{line}"])
    def test_bad_fold_manifest_is_data_error(self, pipeline, tmp_path, capsys, row):
        folds = tmp_path / "folds.csv"
        if row is not None:
            # the pipeline's manifest with its first assignment broken
            lines = (pipeline / "folds" / "folds.csv").read_text().splitlines()
            lines[1] = row.format(rid=lines[1].split(",")[0], line=lines[1])
            folds.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert main(["train", "--cycles", str(pipeline / "store" / "cycles.bin"),
                     "--folds", str(folds), "--fold", "0", "--epochs", "1",
                     "--out", str(tmp_path / "run")]) == 3
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("data error:")


    @pytest.mark.parametrize("case", ["missing", "directory", "not_utf8"])
    def test_unreadable_pin_file_is_data_error(self, pipeline, tmp_path, capsys, case):
        pin = tmp_path / "pin.txt"
        if case == "directory":
            pin.mkdir()
        elif case == "not_utf8":
            pin.write_bytes(b"rec0000\n\xff\xfe\n")
        capsys.readouterr()
        assert main(["folds", "--cycles", str(pipeline / "store" / "cycles.bin"),
                     "--pin-fold0", str(pin), "--out", str(tmp_path / "o")]) == 3
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("data error:") and "pin.txt" in err[0]

    @pytest.mark.parametrize("case", ["repeated", "empty"])
    def test_repeated_or_empty_pin_list_is_data_error(self, pipeline, tmp_path, capsys, case):
        # a repeated id once made 1 normal + 2 abnormal pass as balanced
        labels = CycleStore.load(pipeline / "store" / "cycles.bin").recording_labels()
        normal = sorted(r for r, lab in labels.items() if lab == 0)
        abnormal = sorted(r for r, lab in labels.items() if lab == 1)
        pin = tmp_path / "pin.txt"
        pin.write_text("\n".join([normal[0], normal[0], *abnormal[:2]]) + "\n"
                       if case == "repeated" else "\n")
        capsys.readouterr()
        assert main(["folds", "--cycles", str(pipeline / "store" / "cycles.bin"),
                     "--pin-fold0", str(pin), "--out", str(tmp_path / "o")]) == 3
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("data error:")
        assert not (tmp_path / "o" / "folds.csv").exists()

    @pytest.mark.parametrize("case", ["cut_inside_frame", "cut_before_first_frame",
                                      "rate_0", "rate_2^31", "rate_2^32-1"])
    def test_malformed_wav_is_data_error(self, pipeline, tmp_path, capsys, case):
        src = sorted((pipeline / "data" / "wav").glob("*.wav"))[0]
        blob = src.read_bytes()
        assert blob[36:40] == b"data"           # the 44-byte header of write_wav
        if case == "cut_inside_frame":
            blob = blob[:44 + 2 * 100 + 1]
        elif case == "cut_before_first_frame":
            blob = blob[:44]
        else:
            rate = {"rate_0": 0, "rate_2^31": 2 ** 31, "rate_2^32-1": 2 ** 32 - 1}[case]
            blob = blob[:24] + struct.pack("<I", rate) + blob[28:]
        (tmp_path / "wav").mkdir()
        (tmp_path / "wav" / src.name).write_bytes(blob)
        capsys.readouterr()
        assert main(["ingest", "--wav-dir", str(tmp_path / "wav"),
                     "--labels", str(pipeline / "data" / "labels.csv"),
                     "--out", str(tmp_path / "o")]) == 3
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("data error:") and src.stem in err[0]

    @pytest.mark.parametrize("case", ["nan", "label2", "label_str", "no_label", "id_int",
                                      "valid_len_short", "valid_len_long", "nonzero_tail",
                                      "empty"])
    def test_malformed_store_is_data_error(self, pipeline, tmp_path, capsys, case):
        store = CycleStore.load(pipeline / "store" / "cycles.bin")
        samples = store.samples.copy()
        meta = [{"recording_id": r, "label": int(l), "valid_len": int(v)}
                for r, l, v in zip(store.recording_ids, store.labels, store.valid_lens)]
        named = ""      # what the error line must name besides "data error:"
        if case == "nan":
            samples[3, 10] = np.nan
        elif case == "label2":
            meta[0]["label"] = 2
        elif case == "label_str":
            meta[0]["label"] = "1"
        elif case == "no_label":
            del meta[0]["label"]
        elif case == "id_int":
            meta[0]["recording_id"] = 7
        elif case == "valid_len_short":
            meta[0]["valid_len"] = MIN_CYCLE_LEN - 1
        elif case == "valid_len_long":
            meta[0]["valid_len"] = samples.shape[1] + 1
        elif case == "nonzero_tail":
            # a padding sample the network would train on and analyze strips
            row = int(np.argmax(store.valid_lens < samples.shape[1]))
            assert store.valid_lens[row] < samples.shape[1]
            samples[row, -1] = 0.25
            named = f"metadata row {row}: nonzero samples past valid_len"
        else:
            samples, meta = samples[:0], []
        # the on-disk layout of CycleStore.save
        bad = tmp_path / "cycles.bin"
        bad.write_bytes(STORE_MAGIC + struct.pack("<QQ", *samples.shape)
                        + samples.astype("<f8").tobytes() + json.dumps(meta).encode())
        ckpt = tmp_path / "m.ckpt"
        save(build(NetworkConfig(frontend="tconv_lp")), str(ckpt))
        folds = str(pipeline / "folds" / "folds.csv")
        for argv in (["train", "--cycles", str(bad), "--folds", folds, "--fold", "0",
                      "--epochs", "1", "--out", str(tmp_path / "run")],
                     ["eval", "--ckpt", str(ckpt), "--cycles", str(bad), "--folds", folds,
                      "--fold", "0", "--out", str(tmp_path / "ev")],
                     ["analyze", "--ckpt", str(ckpt), "--cycles", str(bad),
                      "--out", str(tmp_path / "an")]):
            capsys.readouterr()
            assert main(argv) == 3, argv[0]
            err = capsys.readouterr().err.strip().splitlines()
            assert len(err) == 1 and err[0].startswith("data error:"), argv[0]
            assert named in err[0], argv[0]


class TestInputFiles:
    # each input the CLI reads, as (the path given for it, the command);
    # {bad} is that path, and every one is made a directory
    INPUTS = {
        "wav": ("wav/rec0000.wav", ["ingest", "--wav-dir", "{tmp}/wav",
                                    "--labels", "{pipe}/data/labels.csv"]),
        "labels": ("labels.csv", ["ingest", "--wav-dir", "{pipe}/data/wav",
                                  "--labels", "{bad}"]),
        "folds": ("folds.csv", ["train", "--cycles", "{pipe}/store/cycles.bin",
                                "--folds", "{bad}", "--fold", "0", "--epochs", "0"]),
        "cycles": ("cycles.bin", ["folds", "--cycles", "{bad}"]),
        "ckpt": ("m.ckpt", ["analyze", "--ckpt", "{bad}"]),
        "filter": ("filter.json", ["response", "--filter", "{bad}"]),
        "pin": ("pin.txt", ["folds", "--cycles", "{pipe}/store/cycles.bin",
                            "--pin-fold0", "{bad}"]),
        "eval": ("runs/eval.csv", ["report", "--runs", "{tmp}/runs"]),
        "config": ("cfg.json", ["train", "--cycles", "{pipe}/store/cycles.bin",
                                "--folds", "{pipe}/folds/folds.csv", "--fold", "0",
                                "--epochs", "0", "--config", "{bad}"]),
    }

    @pytest.mark.parametrize("kind", sorted(INPUTS))
    def test_directory_in_place_of_an_input_is_one_line(self, pipeline, tmp_path, capsys,
                                                        kind):
        where, argv = self.INPUTS[kind]
        bad = tmp_path / where
        bad.mkdir(parents=True)
        argv = [a.format(tmp=tmp_path, pipe=pipeline, bad=bad) for a in argv]
        capsys.readouterr()
        code = main([*argv, "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err.strip().splitlines()
        assert code == (2 if kind == "config" else 3)
        assert len(err) == 1 and "Traceback" not in err[0]
        assert err[0].startswith("error:" if kind == "config" else "data error:")
        assert f"cannot read {bad}" in err[0]


    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs FIFOs")
    @pytest.mark.parametrize("kind", ["labels", "cycles"])
    def test_fifo_in_place_of_an_input_is_one_line(self, pipeline, tmp_path, kind):
        # opening a FIFO with no writer blocks: run the command in its own
        # process, so a hang fails this test instead of stalling the suite
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)
        if kind == "labels":
            argv = ["ingest", "--wav-dir", str(pipeline / "data" / "wav"), "--labels", str(fifo)]
        else:
            ckpt = tmp_path / "m.ckpt"
            save(build(NetworkConfig(input_len=100)), str(ckpt))
            argv = ["eval", "--ckpt", str(ckpt), "--cycles", str(fifo),
                    "--folds", str(pipeline / "folds" / "folds.csv"), "--fold", "0"]
        done = subprocess.run([sys.executable, "-m", "pcgnet.cli", *argv,
                               "--out", str(tmp_path / "out")],
                              capture_output=True, text=True, timeout=30)
        err = done.stderr.strip().splitlines()
        assert done.returncode == 3
        assert err == [f"data error: cannot read {fifo}: not a regular file"]
        assert not (tmp_path / "out").exists()

    def test_failure_after_a_large_input_is_one_line(self, pipeline, tmp_path, capsys):
        # eval reads the store (over the digest floor) before the bad fold file
        store = pipeline / "store" / "cycles.bin"
        assert store.stat().st_size >= dat._DIGEST_THREAD_BYTES
        ckpt = tmp_path / "m.ckpt"
        save(build(NetworkConfig(input_len=100)), str(ckpt))
        bad = tmp_path / "folds.csv"
        bad.write_text("id,fold\nrec0000,9\n")
        out = tmp_path / "out"
        capsys.readouterr()
        assert main(["eval", "--ckpt", str(ckpt), "--cycles", str(store), "--folds", str(bad),
                     "--fold", "0", "--out", str(out)]) == 3
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("data error:")
        assert not out.exists()
        assert dat._io_log is None


class TestOutputs:
    @pytest.mark.parametrize("case", ["out_is_a_file", "out_under_a_file",
                                      "artifact_is_a_directory"])
    def test_unusable_output_is_one_line(self, tmp_path, capsys, case):
        out = tmp_path / "out"
        if case == "out_is_a_file":
            out.write_text("x")
        elif case == "out_under_a_file":
            (tmp_path / "file").write_text("x")
            out = tmp_path / "file" / "out"
        else:
            (out / "bank.json").mkdir(parents=True)
        capsys.readouterr()
        assert main(["design", "--bank", "--out", str(out)]) == 3
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "Traceback" not in err[0]
        assert err[0].startswith(f"data error: cannot write {out / 'bank.json'}")

    @staticmethod
    def checked_manifest(out):
        """The manifest of --out after checking it against the disk: every
        digest is the sha256 of its file, the outputs are every file under
        `out` but the manifest, wall_s is a time and peak_rss_mb a size."""
        manifest = json.loads((out / "manifest.json").read_text())
        for path, sha in {**manifest["inputs"], **manifest["outputs"]}.items():
            assert digest(path) == sha, path
        written = {str(p) for p in out.rglob("*") if p.is_file()} - {str(out / "manifest.json")}
        assert set(manifest["outputs"]) == written
        assert isinstance(manifest["wall_s"], float) and manifest["wall_s"] >= 0.0
        assert isinstance(manifest["peak_rss_mb"], float) and manifest["peak_rss_mb"] > 0.0
        return manifest

    def test_manifest_lists_what_ingest_read_and_wrote(self, pipeline, tmp_path):
        wavs = sorted((pipeline / "data" / "wav").glob("*.wav"))[:3]
        (tmp_path / "wav").mkdir()
        for wav in wavs:
            (tmp_path / "wav" / wav.name).write_bytes(wav.read_bytes())
        # no label: skipped before it is read, so it is no input
        (tmp_path / "wav" / "stray.wav").write_bytes(wavs[0].read_bytes())
        labels = pipeline / "data" / "labels.csv"
        out = tmp_path / "store"
        assert main(["ingest", "--wav-dir", str(tmp_path / "wav"), "--labels", str(labels),
                     "--out", str(out)]) == 0
        manifest = self.checked_manifest(out)
        assert set(manifest["inputs"]) == {str(labels), *(str(tmp_path / "wav" / w.name)
                                                          for w in wavs)}
        assert set(manifest["outputs"]) == {str(out / "cycles.bin")}

    def test_manifest_digests_of_large_inputs(self, pipeline, tmp_path):
        # the store and the checkpoint are hashed on the digest thread
        store = pipeline / "store" / "cycles.bin"
        folds = pipeline / "folds" / "folds.csv"
        run, ev = tmp_path / "run", tmp_path / "ev"
        common = ["--cycles", str(store), "--folds", str(folds), "--fold", "0"]
        assert main(["train", *common, "--frontend", "lp", "--epochs", "0",
                     "--out", str(run)]) == 0
        assert main(["eval", *common, "--ckpt", str(run / "checkpoint.ckpt"),
                     "--out", str(ev)]) == 0
        for out, inputs in ((run, (store, folds)),
                            (ev, (run / "checkpoint.ckpt", store, folds))):
            assert self.checked_manifest(out)["inputs"] == {
                str(p): hashlib.sha256(p.read_bytes()).hexdigest() for p in inputs}
        assert store.stat().st_size >= dat._DIGEST_THREAD_BYTES
        assert (run / "checkpoint.ckpt").stat().st_size >= dat._DIGEST_THREAD_BYTES

    def test_manifest_config_hash(self, pipeline, tmp_path):
        # train hashes the two configs it trained with; eval hashes none
        store = pipeline / "store" / "cycles.bin"
        common = ["--cycles", str(store), "--folds", str(pipeline / "folds" / "folds.csv"),
                  "--fold", "0"]
        (tmp_path / "cfg.json").write_text(json.dumps({"dropout": 0.25}))
        hashes = []
        for name, extra in (("plain", []), ("cfg", ["--config", str(tmp_path / "cfg.json")])):
            argv = ["train", *common, "--frontend", "lp", "--epochs", "0", *extra,
                    "--out", str(tmp_path / name)]
            assert main(argv) == 0
            args = cli.build_parser().parse_args(argv)
            overrides = cli._read_config(args.config)
            input_len = CycleStore.load(str(store)).samples.shape[1]
            net_cfg = cli._network_config(args, overrides, input_len)
            train_cfg = cli._train_config(args, overrides)
            config = {"network": asdict(net_cfg), "train": asdict(train_cfg)}
            hashes.append(self.checked_manifest(tmp_path / name)["config_hash"])
            assert hashes[-1] == hashlib.sha256(
                json.dumps(config, sort_keys=True).encode()).hexdigest()
        assert net_cfg.dropout == 0.25 and hashes[0] != hashes[1]
        assert main(["eval", *common, "--ckpt", str(tmp_path / "plain" / "checkpoint.ckpt"),
                     "--out", str(tmp_path / "ev")]) == 0
        assert self.checked_manifest(tmp_path / "ev")["config_hash"] is None

    def test_manifest_lists_what_report_read_and_wrote(self, tmp_path):
        runs = tmp_path / "runs"
        for name in ("lp", "zp"):
            (runs / name).mkdir(parents=True)
            with open(runs / name / "eval.csv", "w", newline="") as fh:
                csv.writer(fh).writerows([EVAL_HEADER, [name, 0, 1, 1, 1, 1, 50.0, 50.0, 50.0]])
        out = tmp_path / "rep"
        assert main(["report", "--runs", str(runs), "--out", str(out)]) == 0
        manifest = self.checked_manifest(out)
        assert set(manifest["inputs"]) == {str(runs / "lp" / "eval.csv"),
                                           str(runs / "zp" / "eval.csv")}
        assert set(manifest["outputs"]) == {str(out / "report.csv"), str(out / "report.json")}

    def test_manifest_lists_every_file_synth_and_design_wrote(self, tmp_path):
        for argv in (["synth", "--n", "3", "--seed", "2"], ["design", "--bank"]):
            out = tmp_path / argv[0]
            assert main([*argv, "--out", str(out)]) == 0
            manifest = self.checked_manifest(out)
            assert manifest["inputs"] == {}
            assert len(manifest["outputs"]) == (4 if argv[0] == "synth" else 5)


class TestTrainEval:
    def test_train_eval_round(self, pipeline, tmp_path):
        run = tmp_path / "run"
        assert main(["train", "--cycles", str(pipeline / "store" / "cycles.bin"),
                     "--folds", str(pipeline / "folds" / "folds.csv"),
                     "--fold", "0", "--frontend", "lp", "--init", "fir",
                     "--epochs", "1", "--batch-size", "16", "--seed", "3",
                     "--out", str(run)]) == 0
        assert (run / "checkpoint.ckpt").exists()
        hist = (run / "history.csv").read_text().strip().splitlines()
        assert hist[0] == "epoch,train_loss,val_macc_pct,val_cycle_acc"
        assert len(hist) == 2
        ev = tmp_path / "eval"
        assert main(["eval", "--ckpt", str(run / "checkpoint.ckpt"),
                     "--cycles", str(pipeline / "store" / "cycles.bin"),
                     "--folds", str(pipeline / "folds" / "folds.csv"),
                     "--fold", "0", "--out", str(ev)]) == 0
        with open(ev / "eval.csv", newline="") as fh:
            row = next(csv.DictReader(fh))
        assert row["config"] == "lp-tconv-fir"
        counts = sum(int(row[c]) for c in ("tp", "tn", "fp", "fn"))
        assert counts == 2  # 6+6 recordings: each fold validates 1+1

    def test_history_csv_reads_back_exactly(self, pipeline, tmp_path, monkeypatch):
        trained, original = [], trn.train_fold

        def train_fold(*args, **kwargs):
            trained.append(original(*args, **kwargs))
            return trained[-1]

        monkeypatch.setattr(trn, "train_fold", train_fold)
        run = tmp_path / "run"
        assert main(["train", "--cycles", str(pipeline / "store" / "cycles.bin"),
                     "--folds", str(pipeline / "folds" / "folds.csv"),
                     "--fold", "1", "--frontend", "zp", "--epochs", "2",
                     "--batch-size", "16", "--seed", "5", "--out", str(run)]) == 0
        with open(run / "history.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        (_, history), = trained
        assert [(int(r["epoch"]), float(r["train_loss"]), float(r["val_macc_pct"]),
                 float(r["val_cycle_acc"])) for r in rows] == [
            (h.epoch, h.train_loss, h.val_macc_pct, h.val_cycle_acc) for h in history]
        assert len(rows) == 2

    @staticmethod
    def train_and_eval_in_subprocess(pipeline, run, **popen):
        """lp train + eval of fold 0 in fresh `python -m pcgnet.cli`
        processes; the digests of checkpoint, history and eval.csv."""
        common = ["--cycles", str(pipeline / "store" / "cycles.bin"),
                  "--folds", str(pipeline / "folds" / "folds.csv"), "--fold", "0"]
        for argv in (["train", *common, "--frontend", "lp", "--epochs", "1",
                      "--batch-size", "16", "--seed", "3", "--out", str(run)],
                     ["eval", *common, "--ckpt", str(run / "checkpoint.ckpt"),
                      "--out", str(run / "ev")]):
            done = subprocess.run([sys.executable, "-m", "pcgnet.cli", *argv],
                                  capture_output=True, text=True, timeout=300, **popen)
            assert done.returncode == 0, done.stderr
        return [digest(run / name) for name in ("checkpoint.ckpt", "history.csv", "ev/eval.csv")]

    def test_artifacts_equal_across_blas_thread_counts(self, pipeline, tmp_path):
        # train and eval in fresh processes, so the thread count is set
        # before numpy loads its BLAS
        digests = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
            digests.append(self.train_and_eval_in_subprocess(
                pipeline, tmp_path / f"t{threads}", env=env))
        assert digests[0] == digests[1]
        if ad.blas_threads_in_use() is not None:
            # every command caps OpenBLAS at one thread, whatever the variable says
            for run in ("t1", "t2", "t1/ev", "t2/ev"):
                manifest = json.loads((tmp_path / run / "manifest.json").read_text())
                assert manifest["environment"]["blas_threads_in_use"] == 1

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs CPU affinity")
    def test_artifacts_equal_on_one_cpu_and_on_all(self, pipeline, tmp_path):
        # preexec_fn pins the child to one CPU between fork and exec, so it
        # runs one stage worker; this test process keeps its CPUs
        one_cpu = min(os.sched_getaffinity(0))
        pinned = self.train_and_eval_in_subprocess(
            pipeline, tmp_path / "one", preexec_fn=lambda: os.sched_setaffinity(0, {one_cpu}))
        free = self.train_and_eval_in_subprocess(pipeline, tmp_path / "all")
        assert pinned == free
        for run, cpus in (("one", 1), ("all", len(os.sched_getaffinity(0)))):
            env = json.loads((tmp_path / run / "manifest.json").read_text())["environment"]
            assert env["cpus_available"] == cpus
            assert env["stage_workers"] == min(cpus, 4)

    def test_manifest_records_the_environment(self, pipeline, tmp_path):
        run = tmp_path / "run"
        assert main(["train", "--cycles", str(pipeline / "store" / "cycles.bin"),
                     "--folds", str(pipeline / "folds" / "folds.csv"), "--fold", "0",
                     "--frontend", "lp", "--epochs", "0", "--out", str(run)]) == 0
        env = json.loads((run / "manifest.json").read_text())["environment"]
        assert set(env) == {"python", "numpy", "blas_threads", "blas_threads_in_use",
                            "cpus_available", "stage_workers"}
        assert env["numpy"] == np.__version__
        assert set(env["blas_threads"]) == {"OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                            "MKL_NUM_THREADS"}
        assert env["cpus_available"] >= env["stage_workers"] >= 1
        assert env["blas_threads_in_use"] == (None if ad.blas_threads_in_use() is None else 1)

    @pytest.mark.parametrize("command", ["train", "eval"])
    @pytest.mark.parametrize("fold", ["-1", "5"])
    def test_fold_outside_zero_to_three_is_usage_error(self, pipeline, tmp_path, capsys,
                                                       command, fold):
        # -1 marks the recordings that train in every split: validating on
        # them once read "best val Macc 100.0"
        extra = ["--ckpt", str(tmp_path / "m.ckpt")] if command == "eval" else []
        capsys.readouterr()
        with pytest.raises(SystemExit) as exit_:
            main([command, "--cycles", str(pipeline / "store" / "cycles.bin"),
                  "--folds", str(pipeline / "folds" / "folds.csv"), "--fold", fold,
                  *extra, "--out", str(tmp_path / "run")])
        assert exit_.value.code == 2
        err = capsys.readouterr().err
        assert "--fold" in err and "invalid choice" in err and "Traceback" not in err
        assert not (tmp_path / "run").exists()

    def test_invalid_combo_is_usage_error(self, pipeline, tmp_path):
        assert main(["train", "--cycles", str(pipeline / "store" / "cycles.bin"),
                     "--folds", str(pipeline / "folds" / "folds.csv"),
                     "--fold", "0", "--frontend", "baseline", "--init", "zeros",
                     "--epochs", "1", "--out", str(tmp_path)]) == 2

    def test_config_file_overrides_defaults(self, pipeline, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"epochs": 1, "batch_size": 8, "l2_conv": 0.01}))
        run = tmp_path / "run"
        assert main(["train", "--cycles", str(pipeline / "store" / "cycles.bin"),
                     "--folds", str(pipeline / "folds" / "folds.csv"),
                     "--fold", "1", "--frontend", "tconv", "--init", "fir",
                     "--no-trainable", "--config", str(cfg),
                     "--out", str(run)]) == 0
        manifest = json.loads((run / "manifest.json").read_text())
        assert manifest["seed"] == 0
        hist = (run / "history.csv").read_text().strip().splitlines()
        assert len(hist) == 2  # config file's epochs=1 applied

    def test_config_pool_reaches_the_network(self, pipeline, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"epochs": 1, "batch_size": 8, "pool": 3}))
        run = tmp_path / "run"
        assert main(["train", "--cycles", str(pipeline / "store" / "cycles.bin"),
                     "--folds", str(pipeline / "folds" / "folds.csv"),
                     "--fold", "0", "--frontend", "lp", "--config", str(cfg),
                     "--out", str(run)]) == 0
        assert load(str(run / "checkpoint.ckpt")).config.pool == 3

    def test_unknown_config_key_is_usage_error(self, pipeline, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"epochs": 1, "dropuot": 0.2}))
        capsys.readouterr()
        assert main(["train", "--cycles", str(pipeline / "store" / "cycles.bin"),
                     "--folds", str(pipeline / "folds" / "folds.csv"),
                     "--fold", "0", "--config", str(cfg),
                     "--out", str(tmp_path / "run")]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "dropuot" in err[0]
        assert not (tmp_path / "run" / "checkpoint.ckpt").exists()
        assert main(["train", "--cycles", str(pipeline / "store" / "cycles.bin"),
                     "--folds", str(pipeline / "folds" / "folds.csv"),
                     "--fold", "0", "--config", str(tmp_path / "missing.json"),
                     "--out", str(tmp_path / "run")]) == 2
        assert len(capsys.readouterr().err.strip().splitlines()) == 1


    @pytest.mark.parametrize("key, value", [
        ("epochs", "x"), ("epochs", True), ("batch_size", 1.5), ("pool", None),
        ("dropout", "x"), ("dropout", 1.0), ("lr0", [0.1]), ("l2_conv", -0.5),
        ("class_weights", [1.0]), ("class_weights", [1.0, 0.0]), ("class_weights", "x"),
        ("dropout", 0.3), ("batch_size", 1), ("pool", 2.0), ("kernel_len", 61.0),
        ("lr0", True), ("l2_conv", "0.1"), ("class_weights", 2.0),
        ("kernel_len", -1), ("kernel_len", 1), ("pool", 50), ("pool", 625),
    ])
    def test_bad_config_value_is_usage_error(self, pipeline, tmp_path, capsys, key, value):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: value}))
        capsys.readouterr()
        assert main(["train", "--cycles", str(pipeline / "store" / "cycles.bin"),
                     "--folds", str(pipeline / "folds" / "folds.csv"), "--fold", "0",
                     "--epochs", "1", "--batch-size", "16", "--config", str(cfg),
                     "--out", str(tmp_path / "run")]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and key in err[0]
        assert not (tmp_path / "run" / "checkpoint.ckpt").exists()

    @pytest.mark.parametrize("batch_size", ["1", "0"])
    def test_batch_size_below_two_is_usage_error(self, pipeline, tmp_path, capsys,
                                                 batch_size):
        capsys.readouterr()
        assert main(["train", "--cycles", str(pipeline / "store" / "cycles.bin"),
                     "--folds", str(pipeline / "folds" / "folds.csv"), "--fold", "0",
                     "--epochs", "1", "--batch-size", batch_size,
                     "--out", str(tmp_path / "run")]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "batch_size" in err[0]
        assert not (tmp_path / "run" / "history.csv").exists()

    @pytest.mark.parametrize("input_len", [100, 2501])
    def test_input_len_is_not_a_config_key(self, pipeline, tmp_path, capsys, input_len):
        # the network's input length comes from the store, never from --config
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"input_len": input_len}))
        capsys.readouterr()
        assert main(["train", "--cycles", str(pipeline / "store" / "cycles.bin"),
                     "--folds", str(pipeline / "folds" / "folds.csv"), "--fold", "0",
                     "--epochs", "1", "--batch-size", "16", "--config", str(cfg),
                     "--out", str(tmp_path / "run")]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "unknown config key" in err[0] and "input_len" in err[0]
        assert not (tmp_path / "run" / "checkpoint.ckpt").exists()

    def test_checkpoint_of_other_input_len_is_data_error(self, pipeline, tmp_path, capsys):
        ckpt = tmp_path / "m.ckpt"
        save(build(NetworkConfig(frontend="tconv_lp", input_len=100)), str(ckpt))
        capsys.readouterr()
        assert main(["eval", "--ckpt", str(ckpt),
                     "--cycles", str(pipeline / "store" / "cycles.bin"),
                     "--folds", str(pipeline / "folds" / "folds.csv"),
                     "--fold", "0", "--out", str(tmp_path / "ev")]) == 3
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("data error:") and "100" in err[0]
        assert not (tmp_path / "ev" / "eval.csv").exists()

    def test_checkpoint_with_unknown_init_is_data_error(self, pipeline, tmp_path, capsys):
        net = build(NetworkConfig(frontend="tconv_lp", init="random"))
        ckpt = tmp_path / "m.ckpt"
        save(net, str(ckpt))
        rewrite_config(ckpt, init="he")
        capsys.readouterr()
        assert main(["eval", "--ckpt", str(ckpt),
                     "--cycles", str(pipeline / "store" / "cycles.bin"),
                     "--folds", str(pipeline / "folds" / "folds.csv"),
                     "--fold", "0", "--out", str(tmp_path / "ev")]) == 3
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("data error:") and "he" in err[0]

    def test_checkpoint_with_dropout_off_the_byte_grid_is_data_error(
            self, pipeline, tmp_path, capsys):
        ckpt = tmp_path / "m.ckpt"
        save(build(NetworkConfig(frontend="tconv_lp", init="random")), str(ckpt))
        rewrite_config(ckpt, dropout=0.3)
        capsys.readouterr()
        assert main(["eval", "--ckpt", str(ckpt),
                     "--cycles", str(pipeline / "store" / "cycles.bin"),
                     "--folds", str(pipeline / "folds" / "folds.csv"),
                     "--fold", "0", "--out", str(tmp_path / "ev")]) == 3
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("data error:") and "1/256" in err[0]

    @pytest.mark.parametrize("key, value", [
        ("pool", 2.0), ("kernel_len", 61.0), ("input_len", 100.0), ("seed", 0.5),
        ("seed", -1), ("frontend_trainable", "no"), ("dropout", "0.5"), ("frontend", 3),
    ])
    def test_checkpoint_config_of_wrong_type_is_data_error(self, pipeline, tmp_path, capsys,
                                                           key, value):
        ckpt = tmp_path / "m.ckpt"
        save(build(NetworkConfig(frontend="tconv_lp", input_len=100)), str(ckpt))
        rewrite_config(ckpt, **{key: value})
        for argv in (["analyze", "--ckpt", str(ckpt), "--out", str(tmp_path / "an")],
                     ["eval", "--ckpt", str(ckpt),
                      "--cycles", str(pipeline / "store" / "cycles.bin"),
                      "--folds", str(pipeline / "folds" / "folds.csv"),
                      "--fold", "0", "--out", str(tmp_path / "ev")]):
            capsys.readouterr()
            assert main(argv) == 3
            err = capsys.readouterr().err.strip().splitlines()
            assert len(err) == 1 and err[0].startswith("data error:") and key in err[0]


class TestReport:
    def test_reference_rows_reproduced(self, tmp_path):
        runs = tmp_path / "runs"
        runs.mkdir()
        for name, row in REFERENCE_ROWS.items():
            d = runs / name
            d.mkdir()
            with open(d / "eval.csv", "w", newline="") as fh:
                w = csv.writer(fh)
                w.writerow(["config", "fold", "tp", "tn", "fp", "fn",
                            "sensitivity_pct", "specificity_pct", "macc_pct"])
                for fold in range(4):
                    w.writerow([name, fold, 0, 0, 0, 0, row["sens"][fold],
                                row["spec"][fold], row["macc"][fold]])
        out = tmp_path / "rep"
        assert main(["report", "--runs", str(runs), "--out", str(out)]) == 0
        summary = json.loads((out / "report.json").read_text())
        for name, row in REFERENCE_ROWS.items():
            got = summary[name]["crossfold"]["macc"]["mean"]
            assert abs(got - row["crossfold_macc"][0]) <= 0.01

    @pytest.mark.parametrize("header, row", [
        (["config", "fold", "sensitivity_pct", "specificity_pct"], ["a", "0", "50", "50"]),
        (EVAL_HEADER, ["a", "0", "1", "1", "1", "1", "", "50.0", "50.0"]),
        (EVAL_HEADER, ["a", "x", "1", "1", "1", "1", "50.0", "50.0", "50.0"]),
        (EVAL_HEADER, ["a", "0.5", "1", "1", "1", "1", "50.0", "50.0", "50.0"]),
        (EVAL_HEADER, ["a", "0", "1", "1", "1", "1", "50.0", "inf", "50.0"]),
        (EVAL_HEADER, ["a", "0", "1", "1", "1", "1", "50.0", "nan", "50.0"]),
        (EVAL_HEADER, ["a", "0", "1"]),
        (["fold", "config", "sensitivity_pct", "specificity_pct", "macc_pct"], ["0"]),
        (EVAL_HEADER, ["lp", "7", "1", "1", "1", "1", "50.0", "50.0", "50.0"]),
        (EVAL_HEADER, ["lp", "-1", "1", "1", "1", "1", "50.0", "50.0", "50.0"]),
    ])
    def test_malformed_eval_csv_is_data_error(self, tmp_path, capsys, header, row):
        runs = tmp_path / "runs"
        runs.mkdir()
        with open(runs / "eval.csv", "w", newline="") as fh:
            csv.writer(fh).writerows([header, row])
        capsys.readouterr()
        assert main(["report", "--runs", str(runs), "--out", str(tmp_path / "out")]) == 3
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith(f"data error: {runs / 'eval.csv'}")
        assert not (tmp_path / "out" / "report.csv").exists()

    def test_repeated_config_fold_is_data_error(self, tmp_path, capsys):
        # a rerun left in a second directory is not a second fold
        runs = tmp_path / "runs"
        for name, macc in (("first", 50.0), ("rerun", 90.0)):
            (runs / name).mkdir(parents=True)
            with open(runs / name / "eval.csv", "w", newline="") as fh:
                csv.writer(fh).writerows([EVAL_HEADER,
                                          ["lp", 0, 1, 1, 1, 1, macc, macc, macc]])
        capsys.readouterr()
        assert main(["report", "--runs", str(runs), "--out", str(tmp_path / "out")]) == 3
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("data error: lp fold 0")
        assert str(runs / "first" / "eval.csv") in err[0]
        assert str(runs / "rerun" / "eval.csv") in err[0]
        assert not (tmp_path / "out" / "report.csv").exists()

    def test_report_csv_text(self, tmp_path):
        # two configs x two folds, folds out of order on disk: the
        # cross-fold columns go on a config's first row, blanks on the next
        runs = tmp_path / "runs"
        rows = {"zp": [(1, 62.5, 81.818181818181813, 72.15909090909091),
                       (0, 100.0, 50.0, 75.0)],
                "lp": [(0, 72.435, 0.0, 36.2175), (1, 87.5, 100.0, 93.75)]}
        for name, folds in rows.items():
            (runs / name).mkdir(parents=True)
            with open(runs / name / "eval.csv", "w", newline="") as fh:
                csv.writer(fh).writerows([EVAL_HEADER] + [
                    [name, fold, 1, 1, 1, 1, sens, spec, macc]
                    for fold, sens, spec, macc in folds])
        out = tmp_path / "rep"
        assert main(["report", "--runs", str(runs), "--out", str(out)]) == 0
        assert (out / "report.csv").read_bytes() == REPORT_CSV_TEXT

    def test_empty_runs_dir_is_data_error(self, tmp_path):
        (tmp_path / "runs").mkdir()
        assert main(["report", "--runs", str(tmp_path / "runs"),
                     "--out", str(tmp_path / "out")]) == 3

    def test_header_only_eval_csv_is_data_error(self, tmp_path, capsys):
        # an eval CSV without rows gives no report, not an empty one
        runs = tmp_path / "runs"
        runs.mkdir()
        with open(runs / "eval.csv", "w", newline="") as fh:
            csv.writer(fh).writerow(EVAL_HEADER)
        capsys.readouterr()
        assert main(["report", "--runs", str(runs), "--out", str(tmp_path / "out")]) == 3
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("data error:")
        assert not (tmp_path / "out" / "report.csv").exists()

    def test_deterministic_ordering(self, tmp_path):
        runs = tmp_path / "runs"
        runs.mkdir()
        for name in ("zeta", "alpha"):
            d = runs / name
            d.mkdir()
            with open(d / "eval.csv", "w", newline="") as fh:
                w = csv.writer(fh)
                w.writerow(["config", "fold", "tp", "tn", "fp", "fn",
                            "sensitivity_pct", "specificity_pct", "macc_pct"])
                w.writerow([name, 0, 1, 1, 1, 1, 50.0, 50.0, 50.0])
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert main(["report", "--runs", str(runs), "--out", str(out)]) == 0
        assert digest(a / "report.csv") == digest(b / "report.csv")
        first_config = (a / "report.csv").read_text().splitlines()[1].split(",")[0]
        assert first_config == "alpha"


class TestAnalyze:
    def test_frozen_fir_checkpoint_responses_match_design(self, tmp_path):
        net = build(NetworkConfig(frontend="tconv_free", init="fir_bank",
                                  frontend_trainable=False, seed=0))
        ckpt = tmp_path / "m.ckpt"
        save(net, str(ckpt))
        out = tmp_path / "an"
        assert main(["analyze", "--ckpt", str(ckpt), "--points", "257",
                     "--out", str(out)]) == 0
        bank = default_bank(1000.0, 60)
        for b, filt in enumerate(bank.filters):
            freq, mag, phase = frequency_response(filt, 257)
            rows = list(csv.DictReader(open(out / f"response_band{b}.csv", newline="")))
            got_mag = np.array([float(r["magnitude_db"]) for r in rows])
            assert np.abs(got_mag - mag).max() < 1e-9
        kern_rows = list(csv.DictReader(open(out / "kernels.csv", newline="")))
        assert len(kern_rows) == 4 * 61

    def test_kernels_csv_reads_back_exactly(self, tmp_path):
        net = build(NetworkConfig(frontend="tconv_zp", init="random", input_len=100, seed=4))
        ckpt = tmp_path / "m.ckpt"
        save(net, str(ckpt))
        out = tmp_path / "an"
        assert main(["analyze", "--ckpt", str(ckpt), "--out", str(out)]) == 0
        with open(out / "kernels.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        kern = net.frontend.materialized_kernel().data
        got = np.zeros_like(kern)
        for r in rows:
            got[int(r["band"]), 0, int(r["tap"])] = float(r["value"])
        assert len(rows) == kern.size and np.array_equal(got, kern)

    def test_lp_checkpoint_reports_phase_linearity(self, tmp_path):
        net = build(NetworkConfig(frontend="tconv_lp", init="fir_bank", seed=1))
        ckpt = tmp_path / "m.ckpt"
        save(net, str(ckpt))
        out = tmp_path / "an"
        assert main(["analyze", "--ckpt", str(ckpt), "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        for band in summary["bands"]:
            assert band["phase_linearity_residual_rad"] < 1e-6
            assert band["group_delay_samples"] == 30.0

    def test_corrupt_shape_field_is_data_error(self, tmp_path, capsys):
        net = build(NetworkConfig(frontend="tconv_free", init="fir_bank", seed=0))
        ckpt = tmp_path / "m.ckpt"
        save(net, str(ckpt))
        blob = bytearray(ckpt.read_bytes())
        name = b"frontend.kernel"
        shape_at = blob.index(name) + len(name) + 1
        blob[shape_at:shape_at + 8] = (2 ** 62).to_bytes(8, "little")
        ckpt.write_bytes(bytes(blob))
        capsys.readouterr()
        assert main(["analyze", "--ckpt", str(ckpt), "--out", str(tmp_path / "o")]) == 3
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("data error:")

    @pytest.mark.parametrize("frontend,changes", [
        ("tconv_lp", {"input_len": 10 ** 12}),
        ("tconv_lp", {"kernel_len": 10 ** 11 + 1}),
        ("external_fir", {"kernel_len": 10 ** 11 + 1}),
        ("tconv_lp", {"tap": float("nan")}),
    ])
    def test_checkpoint_config_or_values_out_of_reach_is_data_error(
            self, tmp_path, capsys, frontend, changes):
        net = build(NetworkConfig(frontend=frontend, input_len=100, seed=0))
        if "tap" in changes:
            net.frontend.param.data[2, 0, 5] = changes.pop("tap")
        ckpt = tmp_path / "m.ckpt"
        save(net, str(ckpt))
        if changes:
            rewrite_config(ckpt, **changes)
        capsys.readouterr()
        assert main(["analyze", "--ckpt", str(ckpt), "--out", str(tmp_path / "o")]) == 3
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("data error:")

    def test_missing_checkpoint_is_data_error(self, tmp_path):
        assert main(["analyze", "--ckpt", str(tmp_path / "nope.ckpt"),
                     "--out", str(tmp_path / "o")]) == 3

    def test_ltsa_export_per_label(self, pipeline, tmp_path):
        net = build(NetworkConfig(frontend="tconv_free", init="fir_bank", seed=0))
        ckpt = tmp_path / "m.ckpt"
        save(net, str(ckpt))
        out = tmp_path / "an"
        assert main(["analyze", "--ckpt", str(ckpt),
                     "--cycles", str(pipeline / "store" / "cycles.bin"),
                     "--out", str(out)]) == 0
        assert (out / "ltsa_normal.csv").exists()
        assert (out / "ltsa_abnormal.csv").exists()
