"""Output checks reject tampered outputs, counts must repeat, and the run
stops what it starts."""

from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import run
import workloads

ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture
def artifacts(tmp_path) -> Path:
    out = tmp_path / "out"
    shutil.copytree(ROOT / workloads.GOLDENS, out)
    return out


def test_golden_artifacts_pass(artifacts):
    assert workloads.check_figures(artifacts) == []


def test_one_flipped_byte_is_rejected(artifacts):
    target = artifacts / "fig07.csv"
    data = bytearray(target.read_bytes())
    data[len(data) // 2] ^= 0x01
    target.write_bytes(bytes(data))
    assert workloads.check_figures(artifacts)


def test_missing_or_extra_artifact_is_rejected(artifacts):
    (artifacts / "table1.csv").unlink()
    assert workloads.check_figures(artifacts)
    shutil.copy(ROOT / workloads.GOLDENS / "table1.csv", artifacts / "table1.csv")
    (artifacts / "extra.csv").write_text("x\n")
    assert workloads.check_figures(artifacts)


def test_tampered_analyze_outputs_are_rejected(tmp_path):
    (tmp_path / "summary.csv").write_text("category,mechanism\n")
    problems = workloads.check_analyze(tmp_path)
    assert len(problems) == 2  # summary wrong, observations missing


def test_static_digest_must_match_the_pin():
    assert workloads.check_static(workloads.PINS["static_sweep"]) == []
    assert workloads.check_static("0" * 64)


def test_counts_must_repeat_across_runs(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "WORK", tmp_path)
    first = {"records": 85, "cached": 0}
    assert run.check_counts("c0de", "w", "step", [first, dict(first)]) == []
    assert run.check_counts("c0de", "w", "step", [first]) == []
    assert run.check_counts("c0de", "w", "step", [dict(first, records=84)])
    assert run.check_counts("c0de", "w", "step", [first, dict(first, cached=1)])


def test_fails_without_a_result_outside_a_checkout(tmp_path):
    """With only BENCHMARK.json and the benchmark's files, the command
    exits non-zero and prints no result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    cmd = json.loads((ROOT / "BENCHMARK.json").read_text())["command"]
    proc = subprocess.run(
        [sys.executable if c == "python3" else c for c in cmd]
        + ["--workload", "static-sweep", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_a_write_in_place_to_the_warm_cache_is_caught(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "WORK", tmp_path)
    warm = tmp_path / "warm-c0de"
    (warm / "ab").mkdir(parents=True)
    entry = warm / "ab" / "abcd.json"
    entry.write_text('{"payload": 1}')
    run._atomic_json(warm.with_suffix(".json"), run._tree_stat(warm))
    linked = tmp_path / "copy"
    shutil.copytree(warm, linked, copy_function=os.link)
    (linked / "ab" / "new.json").write_text("{}")  # a new file leaves the original alone
    assert run.check_warm_cache(warm) == []
    with open(linked / "ab" / "abcd.json", "a") as f:  # a write in place does not
        f.write(" ")
    assert run.check_warm_cache(warm)
    assert not warm.with_suffix(".json").exists()


def _pids_running(needle: str) -> list[int]:
    pids = []
    for proc in Path("/proc").iterdir():
        if proc.name.isdigit():
            try:
                cmdline = (proc / "cmdline").read_bytes()
            except OSError:
                continue
            if needle.encode() in cmdline:
                pids.append(int(proc.name))
    return pids


def _segments() -> set[str]:
    return {p.name for p in Path("/dev/shm").glob("repro-tr-*")}


def test_sigterm_stops_the_run_its_children_and_their_segments():
    """Killed while pool workers hold published trace segments, the run
    stops every process it started and unlinks the segments."""
    before = _segments()
    proc = subprocess.Popen(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", "figures-pool",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
    )
    needle = f"run-{proc.pid}/"
    deadline = time.monotonic() + 120
    while not (_pids_running(needle) and _segments() - before) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert _pids_running(needle), "the run never started a child"
    assert _segments() - before, "the pool never published a segment"
    proc.send_signal(signal.SIGTERM)
    out, _ = proc.communicate(timeout=30)
    assert proc.returncode == 128 + signal.SIGTERM
    assert b'"correct"' not in out
    assert _pids_running(needle) == []
    assert _segments() - before == set()
