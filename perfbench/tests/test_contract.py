"""BENCHMARK.json and the metrics the benchmark prints agree, by name,
unit and charset."""

from __future__ import annotations

import json
import re
from pathlib import Path
from types import SimpleNamespace

import layers
import run
import workloads

ROOT = Path(__file__).resolve().parents[2]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _bench() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_keys_and_limits():
    b = _bench()
    assert set(b) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert b["paths"] == ["perfbench"]
    assert 1 <= b["run_seconds"] <= 60 and isinstance(b["run_seconds"], int)
    for w in b["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
    for m in b["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25 and m["better"] in ("lower", "higher")
    for m in b["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    setup = [m for m in b["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in b["end_to_end"])
    assert len(json.dumps(b)) <= 64 * 1024


def test_names_and_units_follow_the_charset_and_are_unique():
    b = _bench()
    names = [w["name"] for w in b["workloads"]]
    names += [m["name"] for m in b["end_to_end"] + b["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names), [n for n in names if not NAME.match(n)]
    units = [m["unit"] for m in b["end_to_end"] + b["per_layer"]]
    assert all(UNIT.match(u) for u in units)


def test_declared_metrics_match_the_emitted_ones():
    b = _bench()
    assert [w["name"] for w in b["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in b["per_layer"]] == list(layers.PER_LAYER)
    step = SimpleNamespace(wall_s=1.0, cpu_s=1.0, peak_rss_mb=1.0)
    e2e = run.end_to_end([step], [0.5])
    assert set(e2e) == {m["name"] for m in b["end_to_end"]}


def test_per_layer_reports_every_declared_metric():
    trace = {"self": {"sim.fastengine.core_advance_s": 2.0, "experiments.engine.plan_s": 0.5},
             "incl": {layers.UNCACHED_SIM: 1.0},
             "wall": {"experiments.engine.pooled_wall_s": 4.0,
                      "experiments.engine.pool_wait_s": 3.0},
             "count": {layers.ACCESSES: 1000, layers.EPOCHS: 7}}
    result = {"trace": trace, "fallbacks": 0, "degradations": 0, "import_s": 0.4,
              "process_cpu_s": 3.0,
              "records": {"n": 10, "executed": 6, "cached": 4, "failed": 0, "busy_s": 6.0,
                          "workers": 2}}
    child = SimpleNamespace(result=result, shm_residue=0)
    traced = SimpleNamespace(children=[child], wall_s=5.0)
    m = run.per_layer(traced, 4.0, [child])
    assert set(m) == {name for name, _ in layers.PER_LAYER}
    assert m["trace.other_s"] == 0.5
    assert m["sim.ns_per_access"] == 2.0 / 1000 * 1e9
    assert m["experiments.engine.pool_efficiency"] == 6.0 / (2 * 4.0)
    assert m["experiments.engine.cache_hit_ratio"] == 0.4
    assert m["trace.overhead_ratio"] == 1.25
