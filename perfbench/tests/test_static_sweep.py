"""The pinned static-sweep digest equals per-run scalar fast machines'."""

from __future__ import annotations

import workloads
from repro.experiments.runner import build_machine
from repro.sim.tracestore import TraceStore


def test_pinned_digest_matches_per_run_scalar_fast_machines():
    sc = workloads.static_scale()
    store = TraceStore(None, mode="memory")
    rows = []
    for spec in workloads.static_specs():
        m = build_machine(spec.mix, sc, trace_store=store, engine="fast")
        for cpu, mask in enumerate(spec.masks):
            m.prefetch_msr.set_mask(cpu, mask)
        for clos, cbm in spec.clos_cbms:
            m.cat.set_cbm(clos, cbm)
        for cpu, clos in enumerate(spec.core_clos):
            m.cat.assign_core(cpu, clos)
        snap = m.pmu.snapshot()
        m.run_accesses(spec.n_accesses)
        sample = m.pmu.delta_since(snap)
        rows.append((sample.deltas, sample.wall_cycles))
    assert len(rows) == 76
    assert workloads.run_digest(rows) == workloads.PINS["static_sweep"]
