"""Which program functions the traced run wraps, and under which metric.

Metric names follow the ``repro.*`` module that owns the layer.  Times
ending in ``_s`` are thread-CPU self time (see :mod:`tracer`) unless
:data:`WALL_SPANS` lists them.  Every name here is reported on
every workload; a layer a workload never reaches reads 0.
"""

from __future__ import annotations

import importlib

from tracer import Tracer

#: (metric, module, class or None, attribute) — thread-CPU self time.
CPU_SPANS = (
    ("sim.fastengine.core_advance_s", "repro.sim.fastengine", None, "run_core_chunk"),
    ("sim.fastengine.llc_serve_s", "repro.sim.fastengine", None, "run_llc_phase"),
    ("sim.machine.run_accesses_s", "repro.sim.machine", "Machine", "run_accesses"),
    ("sim.batch.llc_serve_s", "repro.sim.batch", "GroupedLLC", "serve"),
    ("sim.batch.core_step_s", "repro.sim.batch", "GroupedCore", "step"),
    ("sim.batch.static_sweep_s", "repro.sim.batch", None, "run_static_sweep"),
    ("sim.trace.gen_s", "repro.sim.trace", "TraceGenerator", "chunk"),
    ("sim.trace.gen_s", "repro.sim.trace", "PhasedTrace", "chunk"),
    ("sim.tracestore.trace_for_s", "repro.sim.tracestore", "TraceStore", "trace_for"),
    ("sim.tracestore.publish_s", "repro.sim.tracestore", "TraceStore", "publish"),
    ("core.controller.epoch_s", "repro.core.controller", "CMMController", "run_epoch"),
    ("core.pipeline.run_s", "repro.core.pipeline", "DecisionPipeline", "run"),
    ("experiments.engine.plan_s", "repro.experiments.engine", "PlannedRun", "key"),
    ("experiments.engine.cache_read_s", "repro.experiments.engine", "ResultCache", "get"),
    ("experiments.engine.cache_read_s", "repro.experiments.engine", "ResultCache", "get_traces"),
    ("experiments.engine.cache_write_s", "repro.experiments.engine", "ResultCache", "put"),
    ("experiments.engine.cache_write_s", "repro.experiments.engine", "ResultCache", "put_traces"),
    ("experiments.engine.execute_s", "repro.experiments.engine", "ExperimentSession", "execute"),
    ("experiments.batch.group_s", "repro.experiments.batch", None, "compute_mechanism_group"),
    ("analysis.artifacts.build_s", "repro.analysis.artifacts", None, "build_artifacts"),
    ("analysis.artifacts.write_s", "repro.analysis.artifacts", None, "write_artifacts"),
    ("analysis.artifacts.check_s", "repro.analysis.artifacts", None, "check_artifacts"),
    ("analysis.analyze.summarize_s", "repro.analysis.analyze", None, "summarize"),
    ("analysis.analyze.collect_s", "repro.analysis.analyze", None, "collect_observations"),
    ("analysis.analyze.write_s", "repro.analysis.analyze", None, "write_analysis"),
)

#: Wall-clock spans: waits, not CPU.  (metric, module, class, attribute)
WALL_SPANS = (
    ("experiments.engine.pool_wait_s", "repro.experiments.engine", None, "wait"),
    ("experiments.engine.pooled_wall_s", "repro.experiments.engine", "ExperimentSession",
     "_execute_parallel"),
)

#: Simulation outside ``ExperimentSession.execute`` (inclusive CPU).
UNCACHED_SIM = "experiments.figures.uncached_sim_s"
ACCESSES = "sim.accesses"
EPOCHS = "core.controller.epochs"
EXECUTE_SCOPE = "execute"

#: Layers whose self time is simulation proper (``sim.ns_per_access``).
KERNEL_LAYERS = ("sim.fastengine.", "sim.machine.", "sim.batch.")

#: Metrics that are the self time of wrapped functions.
SELF_METRICS = tuple(dict.fromkeys(m for m, *_ in CPU_SPANS))

#: (name, unit) of every per-layer metric, in report order.
PER_LAYER = (
    [(m, "s") for m in SELF_METRICS]
    + [
        ("sim.tracestore.fallbacks", "count"),
        ("sim.batch.degradations", "count"),
        ("sim.tracestore.shm_residue", "count"),
        (ACCESSES, "count"),
        ("sim.ns_per_access", "ns"),
        (EPOCHS, "count"),
        ("experiments.engine.pool_wait_s", "s"),
        ("experiments.engine.worker_busy_s", "s"),
        ("experiments.engine.pool_efficiency", "ratio"),
        (UNCACHED_SIM, "s"),
        ("experiments.engine.runs_executed", "count"),
        ("experiments.engine.runs_cached", "count"),
        ("experiments.engine.runs_failed", "count"),
        ("experiments.engine.cache_hit_ratio", "ratio"),
        ("process.import_s", "s"),
        ("trace.process_cpu_s", "s"),
        ("trace.other_s", "s"),
        ("trace.overhead_ratio", "ratio"),
    ]
)
COUNT_METRICS = tuple(name for name, unit in PER_LAYER if unit == "count")


def _count_machine_accesses(tracer: Tracer, args, kwargs) -> None:
    machine, n = args[0], args[1] if len(args) > 1 else kwargs["n_per_core"]
    tracer.count(ACCESSES, int(n) * sum(1 for cs in machine.cores if cs.active))


def _count_sweep_accesses(tracer: Tracer, args, kwargs) -> None:
    kernel, configs, _masks, n = args
    tracer.count(ACCESSES, len(configs) * len(kernel.lane_cores) * int(n))


def _count_epoch(tracer: Tracer, args, kwargs) -> None:
    tracer.count(EPOCHS, 1)


_CPU_EXTRAS = {
    "run_accesses": dict(on_call=_count_machine_accesses, inclusive=UNCACHED_SIM,
                         unless_scope=EXECUTE_SCOPE),
    "run_static_sweep": dict(on_call=_count_sweep_accesses, inclusive=UNCACHED_SIM,
                             unless_scope=EXECUTE_SCOPE),
    "run_epoch": dict(on_call=_count_epoch),
    "execute": dict(scope=EXECUTE_SCOPE),
}


def _owner(module: str, cls: str | None):
    mod = importlib.import_module(module)
    return mod if cls is None else getattr(mod, cls)


def install(tracer: Tracer) -> None:
    """Import every traced module, then wrap each layer function.

    Module-level functions are replaced in every ``repro`` module that
    imported them by name, so call sites see the wrapper however they
    reach it.  The pool ``wait`` is wrapped in the engine module only.
    """
    for _m, module, cls, _a in CPU_SPANS + WALL_SPANS:
        _owner(module, cls)
    importlib.import_module("repro.analysis")
    importlib.import_module("repro.experiments.figures")
    for metric, module, cls, attr in CPU_SPANS:
        extras = _CPU_EXTRAS.get(attr, {})
        tracer.patch(
            _owner(module, cls), attr,
            lambda fn, metric=metric, extras=extras: tracer.cpu_span(metric, fn, **extras),
            everywhere="repro",
        )
    for metric, module, cls, attr in WALL_SPANS:
        tracer.patch(_owner(module, cls), attr,
                     lambda fn, metric=metric: tracer.wall_span(metric, fn))
