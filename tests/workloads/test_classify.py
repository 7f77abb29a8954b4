"""Measured classification (Figs. 1-3 criteria) matches intended flags.

These run the simulator; they use a small machine and reduced access
counts, and mark the exhaustive sweep as slow.

``profile_benchmark`` runs its prefetch-on way sweep as one batched
static sweep; :class:`TestBatchedProfileDifferential` pins it against
per-configuration scalar machines on the ``fast`` and ``reference``
engines, for every trace source the experiment engine can hand it.
"""

import dataclasses
import functools
import hashlib
import json

import pytest

from repro.experiments.config import SCALES
from repro.experiments.engine import KIND_PROFILE, PlannedRun, _compute_profile
from repro.sim.params import scaled_params
from repro.sim.tracestore import ManifestView, TraceStore, shm_residue, use_view
from repro.workloads.classify import (
    DEFAULT_WAY_SWEEP,
    AloneProfile,
    _ipc_and_bw,
    classify,
    profile_benchmark,
    run_alone,
)
from repro.workloads.speclike import BENCHMARKS, benchmark

PARAMS = scaled_params(16)
N = 24576


class TestClassifyThresholds:
    def make_profile(self, **kw):
        base = dict(
            name="x", ipc_on=1.0, ipc_off=1.0, demand_bw_off_mbs=0.0,
            total_bw_on_mbs=0.0, demand_bw_on_mbs=0.0, ipc_by_ways={},
        )
        base.update(kw)
        return AloneProfile(**base)

    def test_aggressive_needs_bw_and_increase(self):
        p = self.make_profile(demand_bw_off_mbs=2000.0, total_bw_on_mbs=3500.0)
        assert classify(p).pref_aggressive
        p = self.make_profile(demand_bw_off_mbs=1000.0, total_bw_on_mbs=2500.0)
        assert not classify(p).pref_aggressive  # BW below 1500 MB/s
        p = self.make_profile(demand_bw_off_mbs=2000.0, total_bw_on_mbs=2500.0)
        assert not classify(p).pref_aggressive  # increase below 50%

    def test_friendly_requires_aggressive_and_speedup(self):
        p = self.make_profile(
            ipc_on=1.4, ipc_off=1.0, demand_bw_off_mbs=2000.0, total_bw_on_mbs=3500.0
        )
        assert classify(p).pref_friendly
        p = self.make_profile(ipc_on=1.4, ipc_off=1.0)  # not aggressive
        assert not classify(p).pref_friendly

    def test_llc_sensitive_min_ways(self):
        p = self.make_profile(ipc_by_ways={1: 0.2, 4: 0.4, 8: 0.85, 12: 0.95, 20: 1.0})
        assert classify(p).llc_sensitive
        assert p.min_ways_for_frac(0.80) == 8
        p = self.make_profile(ipc_by_ways={1: 0.95, 8: 1.0, 20: 1.0})
        assert not classify(p).llc_sensitive

    def test_min_ways_requires_sweep(self):
        with pytest.raises(ValueError):
            self.make_profile().min_ways_for_frac()


class TestRunAlone:
    def test_warmup_snapshot_excludes_cold_start(self):
        m, snap = run_alone("416.gamess", PARAMS, 2048, warmup=4096)
        sample = m.pmu.delta_since(snap)
        # working set fits L2: warm window has (almost) no memory traffic
        from repro.sim.pmu import Event
        assert sample.get(0, Event.L3_LOAD_MISS) < 20

    def test_way_restriction_applied(self):
        m, _ = run_alone("429.mcf", PARAMS, 1024, ways=2)
        assert m.cat.allowed_ways(0) == (0, 1)


class TestMeasuredClassification:
    @pytest.mark.parametrize("name", ["410.bwaves", "rand_access", "453.povray"])
    def test_key_benchmarks_fast(self, name):
        spec = benchmark(name)
        prof = profile_benchmark(spec, PARAMS, N)
        c = classify(prof)
        assert c.pref_aggressive == spec.pref_aggressive
        assert c.pref_friendly == spec.pref_friendly

    def test_rand_access_slows_down_with_prefetching(self):
        prof = profile_benchmark("rand_access", PARAMS, N)
        assert prof.prefetch_speedup < -0.10  # paper: ~-25% when alone

    @pytest.mark.slow
    def test_all_benchmarks_match_intended_classes(self):
        sweep = (1, 2, 4, 8, 12, 20)
        for name, spec in BENCHMARKS.items():
            prof = profile_benchmark(spec, PARAMS, N, way_sweep=sweep)
            c = classify(prof)
            assert c.pref_aggressive == spec.pref_aggressive, name
            assert c.pref_friendly == spec.pref_friendly, name
            assert c.llc_sensitive == spec.llc_sensitive, name

    def test_friendly_benchmark_way_insensitive(self):
        prof = profile_benchmark("462.libquantum", PARAMS, N, way_sweep=(1, 2, 8, 20))
        assert prof.min_ways_for_frac(0.90) <= 2  # the paper's Fig. 3 observation

    def test_sensitive_benchmark_needs_many_ways(self):
        prof = profile_benchmark("429.mcf", PARAMS, N, way_sweep=(1, 2, 8, 12, 20))
        assert prof.min_ways_for_frac(0.80) >= 8


# ------------------------------------------------ batched way sweeps

DIFF_N = 4096
#: Includes the full CBM (20 ways) and one count above the LLC's
#: associativity, which both paths must skip.
DIFF_SWEEP = (1, 4, 12, 20, 24)


@functools.lru_cache(maxsize=None)
def _oracle(name: str, warmup: int, engine: str) -> AloneProfile:
    """The pre-batching profile: one scalar ``run_alone`` machine per
    configuration on ``engine``, each synthesising its trace live."""
    params = dataclasses.replace(PARAMS, sim_engine=engine)

    def measure(**kw):
        m, snap = run_alone(name, params, DIFF_N, warmup=warmup, **kw)
        return _ipc_and_bw(m.pmu.delta_since(snap), params)

    ipc_on, demand_on, total_on = measure(prefetch_mask=0x0)
    ipc_off, demand_off, _ = measure(prefetch_mask=0xF)
    return AloneProfile(
        name=name,
        ipc_on=ipc_on,
        ipc_off=ipc_off,
        demand_bw_off_mbs=demand_off,
        total_bw_on_mbs=total_on,
        demand_bw_on_mbs=demand_on,
        ipc_by_ways={
            w: measure(ways=w)[0] for w in DIFF_SWEEP if w <= params.llc.ways
        },
    )


class TestBatchedProfileDifferential:
    @pytest.mark.parametrize("source", ["none", "memory", "manifest"])
    @pytest.mark.parametrize("warmup", [None, 2560], ids=["warmup-default", "warmup-2560"])
    @pytest.mark.parametrize("name", ["462.libquantum", "429.mcf", "rand_access"])
    def test_matches_scalar_machines(self, name, warmup, source):
        window = DIFF_N if warmup is None else warmup
        publisher = None
        store = None
        if source == "memory":
            store = TraceStore(None, mode="memory")
        elif source == "manifest":
            publisher = TraceStore(None, mode="memory")
            item = publisher.publish(
                name, llc_lines=PARAMS.llc.lines, base_line=0, seed=0, length=window + DIFF_N
            )
            if item is None:
                publisher.close()
                pytest.skip("shared memory unavailable on this platform")
            store = ManifestView({item["key"]: item})
        try:
            got = profile_benchmark(
                name, PARAMS, DIFF_N, warmup=warmup, way_sweep=DIFF_SWEEP, trace_store=store
            )
        finally:
            if publisher is not None:
                publisher.close()
        if publisher is not None:
            assert not [s for s in shm_residue() if publisher._tag in s]
        assert list(got.ipc_by_ways) == [1, 4, 12, 20]
        for engine in ("fast", "reference"):
            assert repr(got) == repr(_oracle(name, window, engine)), engine

    def test_manifest_miss_uses_a_private_store(self):
        """A worker view without the trace still profiles, identically."""
        got = profile_benchmark(
            "429.mcf", PARAMS, DIFF_N, way_sweep=DIFF_SWEEP, trace_store=ManifestView({})
        )
        assert repr(got) == repr(_oracle("429.mcf", DIFF_N, "fast"))

    def test_plane_off_store_uses_a_private_store(self):
        got = profile_benchmark(
            "429.mcf", PARAMS, DIFF_N, way_sweep=DIFF_SWEEP,
            trace_store=TraceStore(None, mode="off"),
        )
        assert repr(got) == repr(_oracle("429.mcf", DIFF_N, "fast"))


#: sha256 of the canonical JSON ``_compute_profile`` payload at tiny
#: scale with the default way sweep, captured on the scalar-machine
#: implementation before the sweep was batched.
PROFILE_PAYLOAD_SHA256 = {
    "429.mcf": "81d2974fad0b83fac3b0fd37498a81b00b84fd6ec955253f7200178bda4a7d2f",
    "462.libquantum": "f6aa6c580d9a19f1d89f6688e54dfd751ef58c030ba958f53fd2ef4b384dfbe5",
}


class TestProfilePayloadPins:
    @pytest.mark.parametrize("name", sorted(PROFILE_PAYLOAD_SHA256))
    def test_tiny_payload_digest(self, name):
        run = PlannedRun(KIND_PROFILE, SCALES["tiny"], bench=name, way_sweep=DEFAULT_WAY_SWEEP)
        with use_view(None):
            payload = _compute_profile(run)
        blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        assert hashlib.sha256(blob.encode()).hexdigest() == PROFILE_PAYLOAD_SHA256[name]
