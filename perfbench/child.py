"""One fresh-interpreter step of a workload, spawned by ``run.py``.

Usage: ``python3 perfbench/child.py JOB.json``.  The job names what to
do (``probe``: set up and exit; ``cli``: call ``repro.cli.main`` with
``argv``; ``sweep``: run the static sweep) and whether to trace.  The
result file records when set-up ended (``ready``, on the system-wide
monotonic clock, so the parent can subtract its spawn time), the CPU
spent by then, the timed region's wall time, the session's run records
and, when traced, every layer's totals.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path


def _cpu_self() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def _session_summary() -> dict:
    """Run records of the CLI's session, which is then closed."""
    engine = sys.modules.get("repro.experiments.engine")
    session = getattr(engine, "_DEFAULT_SESSION", None) if engine else None
    if session is None:
        return {"n": 0, "executed": 0, "cached": 0, "failed": 0, "busy_s": 0.0, "workers": 1}
    recs = session.records
    executed = [r for r in recs if not r.cached and r.error is None]
    out = {
        "n": len(recs),
        "executed": len(executed),
        "cached": sum(1 for r in recs if r.cached),
        "failed": sum(1 for r in recs if r.error is not None),
        "busy_s": sum(r.seconds for r in executed),
        "workers": session.max_workers,
    }
    session.close()  # pool workers are joined at interpreter exit, before wait4 sees us
    return out


def main(job_path: str) -> int:
    job = json.loads(Path(job_path).read_text())
    t0 = time.perf_counter()
    import repro.cli

    out: dict = {"import_s": time.perf_counter() - t0}
    if job["kind"] == "sweep":
        from repro.experiments.batch import simulate_batch
        from repro.sim.tracestore import TraceStore

        import workloads

        specs = workloads.static_specs()
        order = workloads.seeded_order(specs, job["seed"])
        sc = workloads.static_scale()
    tracer = None
    if job["trace"]:
        import layers
        from tracer import Tracer

        tracer = Tracer()
        layers.install(tracer)
    out["ready"] = time.monotonic()
    out["cpu_ready"] = _cpu_self()
    if job["kind"] != "probe":
        p0 = time.process_time()
        t0 = time.monotonic()
        if job["kind"] == "cli":
            out["rc"] = repro.cli.main(job["argv"])
        else:
            stats = simulate_batch([specs[i] for i in order], sc,
                                   trace_store=TraceStore(None, mode="memory"))
            out["rc"] = 0
        out["wall_s"] = time.monotonic() - t0
        out["process_cpu_s"] = time.process_time() - p0
        if tracer is not None:
            tracer.unpatch()
            out["trace"] = tracer.totals()
        if job["kind"] == "sweep":
            canonical = [None] * len(specs)
            for pos, i in enumerate(order):
                canonical[i] = stats[pos]
            out["digest"] = workloads.run_digest((s.totals, s.wall_cycles) for s in canonical)
            out["specs"] = len(specs)
        from repro.sim import batch, tracestore

        out["fallbacks"] = tracestore.fallback_count()
        out["degradations"] = batch.degradation_count()
        out["records"] = _session_summary()
    Path(job["result"]).write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
