#!/usr/bin/env python3
"""Tiny-scale self-test of the benchmark. Run from the repository root:

    python3 perfbench/selftest.py

It runs every workload at `--scale tiny`, untraced on seed 2 and traced on
seed 3 (run.py's default seed is 1), and checks that

- BENCHMARK.json keeps to the format the benchmark runner reads;
- each run exits 0 and ends with {correct, attempted, failed, metrics},
  correct and with no failed operation;
- an untraced run reports every end-to-end metric and a traced run every
  per-layer metric, each with its BENCHMARK.json unit and a finite value,
  and every end-to-end value above 0;
- the spans a traced run writes nest: each inside its parent, siblings
  disjoint;
- run.py in a directory that holds only BENCHMARK.json and perfbench/ fails
  without printing a result.

Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import WORKLOADS, trace_path  # noqa: E402
from spans import check_nesting  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
PATH = re.compile(r"[A-Za-z0-9_./-]{1,200}")


def spec_problems(spec: dict, size: int) -> list[str]:
    p = []
    if size > 64 * 1024:
        p.append("BENCHMARK.json is larger than 64 KiB")
    if set(spec) != {"command", "paths", "run_seconds", "workloads", "end_to_end",
                     "per_layer"}:
        p.append(f"top-level keys {sorted(spec)}")
    cmd = spec.get("command", [])
    if not (1 <= len(cmd) <= 32 and all(isinstance(c, str) and len(c) <= 200 for c in cmd)):
        p.append("command must be 1 to 32 strings of at most 200 characters")
    if any(c.startswith("/") or ".." in c.split("/") for c in cmd):
        p.append("command leaves the repository")
    paths = spec.get("paths", [])
    if not (1 <= len(paths) <= 16 and all(PATH.fullmatch(x) and ".." not in x.split("/")
                                          for x in paths)):
        p.append(f"bad paths {paths}")
    rs = spec.get("run_seconds")
    if not (isinstance(rs, int) and 1 <= rs <= 60):
        p.append(f"run_seconds {rs!r} is not a whole number from 1 to 60")
    wls = spec.get("workloads", [])
    if not 2 <= len(wls) <= 8 or any(set(w) != {"name", "why"} or "\n" in w["why"]
                                     or len(w["why"]) > 200 for w in wls):
        p.append("workloads need 2 to 8 entries of one-line name and why")
    if [w["name"] for w in wls] != list(WORKLOADS):
        p.append(f"workloads {[w['name'] for w in wls]} differ from run.py's {WORKLOADS}")
    e2e, layers = spec.get("end_to_end", []), spec.get("per_layer", [])
    if not (1 <= len(e2e) <= 16 and 1 <= len(layers) <= 128):
        p.append("need 1 to 16 end-to-end and 1 to 128 per-layer metrics")
    for m in e2e:
        if set(m) != {"name", "unit", "better", "bound"} or not 0 < m["bound"] <= 0.25:
            p.append(f"end-to-end metric {m}")
    for m in layers:
        if set(m) != {"name", "unit", "better"}:
            p.append(f"per-layer metric {m}")
    names = [m["name"] for m in wls + e2e + layers]
    if len(set(names)) != len(names):
        p.append("a name is used twice")
    for m in e2e + layers:
        if not NAME.fullmatch(m["name"]) or not UNIT.fullmatch(m["unit"]) \
                or m["better"] not in ("higher", "lower"):
            p.append(f"bad name, unit or direction in {m}")
    setup = [m for m in e2e if m["name"] == "setup_s"]
    if not setup or setup[0]["unit"] != "s" or setup[0]["better"] != "lower":
        p.append("setup_s must be an end-to-end metric in s, lower is better")
    elif setup[0]["bound"] < max(m["bound"] for m in e2e):
        p.append("setup_s must have the largest bound")
    return p


def run(workload: str, seed: int, trace: int, cwd: Path = ROOT):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace), "--scale", "tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def result_problems(proc, wanted: list[dict], positive: bool) -> list[str]:
    if proc.returncode != 0:
        return [f"exit code {proc.returncode}: {proc.stderr.strip()[-500:]}"]
    try:
        result = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        return ["the last stdout line is not JSON"]
    p = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        p.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0 \
            or not result.get("attempted", 0) >= 1:
        p.append(f"correct {result.get('correct')}, attempted {result.get('attempted')}, "
                 f"failed {result.get('failed')}")
    metrics = result.get("metrics", {})
    if set(metrics) != {m["name"] for m in wanted}:
        p.append(f"metrics differ from BENCHMARK.json: "
                 f"{sorted(set(metrics) ^ {m['name'] for m in wanted})}")
    for m in wanted:
        got = metrics.get(m["name"], {})
        value = got.get("value")
        if got.get("unit") != m["unit"]:
            p.append(f"{m['name']}: unit {got.get('unit')!r}, want {m['unit']!r}")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            p.append(f"{m['name']}: value {value!r} is not a finite number")
        elif positive and value <= 0:
            p.append(f"{m['name']}: value {value} is not above 0")
    return p


def main() -> int:
    text = (ROOT / "BENCHMARK.json").read_text()
    spec = json.loads(text)
    failures = [f"BENCHMARK.json: {x}" for x in spec_problems(spec, len(text.encode()))]
    for workload in WORKLOADS:
        for seed, trace, wanted in ((2, 0, spec["end_to_end"]), (3, 1, spec["per_layer"])):
            tag = f"{workload} seed {seed} trace {trace}"
            problems = result_problems(run(workload, seed, trace), wanted, positive=not trace)
            if trace and not problems:
                spans = json.loads(trace_path(workload, seed).read_text())["spans"]
                problems = check_nesting(spans)
                problems += [] if spans else ["no spans recorded"]
            failures += [f"{tag}: {x}" for x in problems]
            print(f"{tag}: {'ok' if not problems else 'FAILED'}", flush=True)

    bare = HERE / ".work" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns(".*", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = run(WORKLOADS[0], 2, 0, cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        failures.append("a directory without the program: run.py exited "
                        f"{proc.returncode} with output {proc.stdout.strip()[-200:]!r}")
    print(f"bare directory: {'ok' if proc.returncode and not proc.stdout.strip() else 'FAILED'}")

    for f in failures:
        print(f"FAIL {f}", file=sys.stderr)
    print("selftest passed" if not failures else f"selftest: {len(failures)} failures")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
