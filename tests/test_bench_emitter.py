"""``benchmarks/emit_bench_json.py``: simulator payload assembly.

A baseline number counts only when it was measured in the same run.
Without a ``pre_pr`` lane the payload must say so (``null`` fields,
``"not measured"``) rather than copy figures from an earlier file.
"""

from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

import pytest

EMITTER = Path(__file__).resolve().parent.parent / "benchmarks" / "emit_bench_json.py"


@pytest.fixture(scope="module")
def emit():
    saved = list(sys.path)
    spec = importlib.util.spec_from_file_location("emit_bench_json", EMITTER)
    mod = importlib.util.module_from_spec(spec)
    try:
        spec.loader.exec_module(mod)
    finally:
        sys.path[:] = saved
    return mod


def _best(emit, *, pre_pr: float | None = None) -> dict:
    best = {}
    for name in emit.CORE_SCENARIOS:
        best[(name, "fast")] = 2000.0
        best[(name, "reference")] = 1000.0
        best[(name, "trace_gen")] = 10000.0
        if pre_pr is not None:
            best[(name, "pre_pr")] = pre_pr
    return best


class TestSimulatorPayload:
    def test_without_baseline_lane_nothing_is_claimed(self, emit):
        p = emit.simulator_payload(_best(emit), rounds=1, accesses=64, baseline_note="n")
        assert p["baseline"] == {"note": "n", "measured": "not measured"}
        for s in p["scenarios"].values():
            assert s["pre_pr_acc_per_s"] is None
            assert s["speedup_fast_vs_pre_pr"] is None
        assert p["geomean_speedup_fast_vs_pre_pr"] is None
        assert p["geomean_speedup_fast_vs_reference"] == 2.0

    def test_measured_baseline_lane_is_live(self, emit):
        p = emit.simulator_payload(
            _best(emit, pre_pr=500.0), rounds=1, accesses=64, baseline_note="n"
        )
        assert p["baseline"]["measured"] == "live"
        for s in p["scenarios"].values():
            assert s["pre_pr_acc_per_s"] == 500
            assert s["speedup_fast_vs_pre_pr"] == 4.0
        assert p["geomean_speedup_fast_vs_pre_pr"] == 4.0

    def test_main_does_not_carry_a_previous_baseline(self, emit, tmp_path, monkeypatch):
        out = tmp_path / "BENCH_simulator.json"
        stale = emit.simulator_payload(
            _best(emit, pre_pr=500.0), rounds=1, accesses=64, baseline_note="old"
        )
        out.write_text(json.dumps(stale))
        monkeypatch.setattr(emit, "_throughput", lambda root, engine, benches, n: 2000.0)
        monkeypatch.setattr(emit, "_trace_gen_throughput", lambda root, benches, n: 10000.0)
        assert emit.main(["--rounds", "1", "--accesses", "64", "--out", str(out)]) == 0
        fresh = json.loads(out.read_text())
        assert fresh["baseline"]["measured"] == "not measured"
        assert all(s["pre_pr_acc_per_s"] is None for s in fresh["scenarios"].values())
