"""Regenerate ``BENCH_simulator.json`` — simulator core-throughput record.

Measures the core-throughput scenarios from
``bench_simulator_speed.py`` (accesses simulated per second) for the
``fast`` and ``reference`` engines and writes the results, per-scenario
speedups and their geometric mean to ``BENCH_simulator.json`` at the
repository root.  Each scenario also records trace-*generation*
throughput separately, so the split between generation and kernel time
is visible (``trace_share_of_fast`` is the fraction of a fast-engine
run spent producing trace chunks).

Methodology: scenarios are measured best-of-``--rounds`` with the
engines *interleaved* round by round, so transient machine load hits
every engine alike instead of biasing whichever ran last.  Numbers are
this-host absolute throughputs — compare ratios, not raw values,
across machines.

Refresh::

    PYTHONPATH=src python benchmarks/emit_bench_json.py

To also measure the pre-fast-kernel baseline live, point
``--baseline-src`` at a checkout of the commit preceding the fast
kernel (e.g. ``git archive <commit> | tar -x -C /tmp/prepr`` then
``--baseline-src /tmp/prepr/src``).  Without it the baseline fields
are written as ``null`` and ``"not measured"``: a number from an
earlier file is never carried forward under a ``"live"`` label.

``--engine`` instead measures the *experiment engine* and writes
``BENCH_engine.json``.  Two families of scenarios:

* **mechanism sweeps** — one full-machine mix evaluated under several
  mechanisms with the trace plane (:mod:`repro.sim.tracestore`) on vs.
  off; the plane-off lane is the pre-trace-plane execution path (every
  run regenerates its traces live);
* **batch sweeps** — a wide static CAT sweep of one mix (every
  way-split x two CLOS layouts, the Fig. 3/Table I shape) executed by
  ``repro.simulate_batch`` on the multi-run batch engine vs. per-run
  scalar fast machines.  Both lanes share one warm in-memory trace
  store, so the measured ratio isolates the batch kernel (lane
  deduplication + the lockstep grouped LLC), not trace reuse.  The
  bench also asserts the two lanes' results are bit-identical and
  records that in the payload;
* **dynamic mechanism sweeps** — every registered policy driven over
  one mix in masked lockstep (``GroupedCore`` + grouped LLC, runs
  diverging per epoch) vs. per-run scalar fast machines, bit-identity
  asserted every round (``batch_dynamic_sweeps``).

Lanes are interleaved round by round like the simulator benches.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import platform
import sys
import tempfile
import time
from datetime import datetime, timezone
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(Path(__file__).resolve().parent))

from bench_simulator_speed import CORE_SCENARIOS  # noqa: E402

QUANTUM = 512


def _host_info() -> dict:
    """One host/toolchain block shared by every bench payload.

    Records the numba version (or null) because the ``native`` lanes
    only engage when numba imports — absolute numbers from hosts
    without it are pure-NumPy figures.
    """
    numba_version = None
    sys.path.insert(0, str(REPO_ROOT / "src"))
    try:
        from repro.sim import nativekernels

        numba_version = nativekernels.NUMBA_VERSION
    except Exception:
        pass
    finally:
        sys.path.pop(0)
    return {
        "platform": platform.platform(),
        "python": platform.python_version(),
        "cpus": os.cpu_count(),
        "numba": numba_version,
    }


class _native_env:
    """Pin ``$REPRO_NATIVE_KERNELS`` for one lane, resetting the tier's
    cached decisions on entry and exit so lanes cannot leak state."""

    def __init__(self, mode: str) -> None:
        self.mode = mode

    def __enter__(self):
        from repro.sim import nativekernels

        self.nk = nativekernels
        self.prev = os.environ.get(nativekernels.ENV_VAR)
        os.environ[nativekernels.ENV_VAR] = self.mode
        nativekernels._reset_for_tests()
        return nativekernels

    def __exit__(self, *exc):
        if self.prev is None:
            os.environ.pop(self.nk.ENV_VAR, None)
        else:
            os.environ[self.nk.ENV_VAR] = self.prev
        self.nk._reset_for_tests()
        return False


def _load_stack(src_root: str):
    """(Re)import the simulator from ``src_root``, dropping cached modules."""
    for mod in [m for m in sys.modules if m.split(".")[0] == "repro"]:
        del sys.modules[mod]
    sys.path.insert(0, src_root)
    try:
        machine_mod = importlib.import_module("repro.sim.machine")
        params_mod = importlib.import_module("repro.sim.params")
        spec_mod = importlib.import_module("repro.workloads.speclike")
    finally:
        sys.path.pop(0)
    return machine_mod.Machine, params_mod.scaled_params, spec_mod.build_trace


def _throughput(src_root: str, engine: str | None, benches: list[str], n: int) -> float:
    Machine, scaled_params, build_trace = _load_stack(src_root)
    params = scaled_params(16)
    kwargs = {} if engine is None else {"engine": engine}
    m = Machine(params, quantum=512, **kwargs)
    for core, bench in enumerate(benches):
        m.attach_trace(
            core,
            build_trace(
                bench,
                llc_lines=params.llc.lines,
                base_line=m.core_base_line(core),
                seed=core,
            ),
        )
    t0 = time.perf_counter()
    m.run_accesses(n)
    return n * len(benches) / (time.perf_counter() - t0)


def _trace_gen_throughput(src_root: str, benches: list[str], n: int) -> float:
    """Trace generation alone (no kernel), chunked at the quantum."""
    _Machine, scaled_params, build_trace = _load_stack(src_root)
    params = scaled_params(16)
    import importlib as _il

    stride = _il.import_module("repro.sim.machine").CORE_ADDRESS_STRIDE_LINES
    t0 = time.perf_counter()
    for core, bench in enumerate(benches):
        t = build_trace(
            bench, llc_lines=params.llc.lines, base_line=core * stride, seed=core
        )
        for _ in range(n // QUANTUM):
            t.chunk(QUANTUM)
    return n * len(benches) / (time.perf_counter() - t0)


def _geomean(vals: list[float]) -> float | None:
    vals = [v for v in vals if v]
    if not vals:
        return None
    return math.exp(sum(math.log(v) for v in vals) / len(vals))


# ------------------------------------------------------- engine sweep

ENGINE_MECHANISMS = ("baseline", "pt", "dunn", "cmm-a")


def _engine_sweep_times(
    trace_cache: str, tmp_root: Path, tag: str, store=None
) -> dict[str, float]:
    """Cold per-mechanism wall seconds for one full-machine mix.

    One session per lane per round — the result cache starts empty
    (every run simulates).  The plane-on lane replays a pre-warmed
    shared in-memory ``store`` (the plane's production steady state:
    the store outlives sessions), so every mechanism measures pure
    replay rather than charging materialization to whichever
    mechanism happens to run while the store is still cold.
    """
    from repro.experiments.engine import ExperimentSession
    from repro.workloads.mixes import make_mixes

    from bench_simulator_speed import ENGINE_SC

    mix = make_mixes("pref_agg", 1, seed=2019)[0]
    session = ExperimentSession(
        cache_dir=tmp_root / tag, max_workers=1, trace_cache=trace_cache
    )
    if store is not None:
        session.trace_store = store
    times: dict[str, float] = {}
    try:
        for mech in ENGINE_MECHANISMS:
            t0 = time.perf_counter()
            session.run(mix, mech, ENGINE_SC)
            times[mech] = time.perf_counter() - t0
    finally:
        if store is not None:
            session.trace_store = None  # shared store outlives the session
        session.close()
    return times


BATCH_CATEGORIES = ("pref_agg", "pref_unfri")
BATCH_ACCESSES = 24576


def _batch_sweep_specs(mix, sc):
    """Every CAT way-split x two CLOS layouts, prefetchers on — the
    widest static sweep the experiment layer runs (Fig. 3 shape)."""
    from repro.experiments.batch import BatchRunSpec

    w = sc.params().llc.ways
    alternating = tuple(c % 2 for c in range(mix.n_cores))
    halved = tuple(0 if c < mix.n_cores // 2 else 1 for c in range(mix.n_cores))
    specs = []
    for k in range(1, w):
        cbm0 = (1 << k) - 1
        cbm1 = ((1 << w) - 1) ^ cbm0
        for layout in (alternating, halved):
            specs.append(
                BatchRunSpec(
                    mix=mix,
                    n_accesses=BATCH_ACCESSES,
                    masks=(0x0,) * mix.n_cores,
                    clos_cbms=((0, cbm0), (1, cbm1)),
                    core_clos=layout,
                )
            )
    return specs


def _batch_scalar_run(mix, spec, sc, store):
    from repro.experiments.runner import build_machine

    # Pin the scalar reference lane to the fast engine so auto
    # resolution can't silently upgrade it to the native tier on
    # numba hosts (that would mislabel the baseline timing).
    m = build_machine(mix, sc, trace_store=store, engine="fast")
    for cpu, mask in enumerate(spec.masks):
        m.prefetch_msr.set_mask(cpu, mask)
    for clos, cbm in spec.clos_cbms:
        m.cat.set_cbm(clos, cbm)
    for cpu, clos in enumerate(spec.core_clos):
        m.cat.assign_core(cpu, clos)
    snap = m.pmu.snapshot()
    m.run_accesses(spec.n_accesses)
    return m.pmu.delta_since(snap)


def _measure_batch_sweeps(rounds: int) -> dict[str, dict]:
    from repro.experiments.batch import simulate_batch
    from repro.experiments.config import ScaleConfig
    from repro.sim.tracestore import TraceStore
    from repro.workloads.mixes import make_mixes

    sc = ScaleConfig(name="bench-batch", llc_scale=16, quantum=512)
    store = TraceStore(None, mode="memory")
    out: dict[str, dict] = {}
    for cat in BATCH_CATEGORIES:
        mix = make_mixes(cat, 1, seed=2019)[0]
        specs = _batch_sweep_specs(mix, sc)
        best_batch = best_scalar = float("inf")
        identical = True
        for _ in range(rounds):
            t0 = time.perf_counter()
            batch = simulate_batch(specs, sc, trace_store=store)
            best_batch = min(best_batch, time.perf_counter() - t0)
            t0 = time.perf_counter()
            scalar = [_batch_scalar_run(mix, s, sc, store) for s in specs]
            best_scalar = min(best_scalar, time.perf_counter() - t0)
            identical = identical and all(
                (rs.totals == s.deltas).all() and rs.wall_cycles == s.wall_cycles
                for rs, s in zip(batch, scalar)
            )
        out[cat] = {
            "runs": len(specs),
            "accesses_per_core": BATCH_ACCESSES,
            "scalar_s": round(best_scalar, 3),
            "batch_s": round(best_batch, 3),
            "speedup": round(best_scalar / best_batch, 2),
            "bit_identical": identical,
        }
        print(
            f"batch {cat}: R={len(specs)} scalar={best_scalar:.2f}s "
            f"batch={best_batch:.2f}s x{best_scalar / best_batch:.2f} "
            f"identical={identical}"
        )
    return out


DYNAMIC_CATEGORIES = ("pref_agg", "pref_unfri", "pref_fri")
DYNAMIC_EXEC_UNITS = 49152


def _measure_dynamic_sweeps(rounds: int) -> dict[str, dict]:
    """Mechanism sweeps (every registered policy over one mix) batched in
    masked lockstep vs. per-run scalar fast machines.

    Unlike the static ``batch_sweeps`` the runs here are
    controller-driven and *diverge* — each policy flips prefetch masks
    and CAT every epoch — so this lane measures the dynamic lockstep
    kernel (GroupedCore + grouped LLC + span-batched serves), not the
    lane-tree replay path.  Both lanes share one warm in-memory trace
    store; bit-identity is asserted per run every round.  Capped at
    best-of-3: each lane is tens of seconds per round.
    """
    from repro.core.policies import POLICIES
    from repro.experiments.batch import (
        _lockstep_mechanisms,
        _run_mechanism,
        build_batch_kernel,
    )
    from repro.experiments.config import ScaleConfig
    from repro.experiments.runner import build_machine
    from repro.sim.tracestore import TraceStore
    from repro.workloads.mixes import make_mixes

    sc = ScaleConfig(
        name="bench-dynamic", llc_scale=16, n_cores=4, quantum=512,
        sample_units=512, exec_units=DYNAMIC_EXEC_UNITS, n_epochs=1,
    )
    store = TraceStore(None, mode="memory")
    mechs = list(POLICIES)
    rounds = max(1, min(rounds, 3))
    out: dict[str, dict] = {}
    for cat in DYNAMIC_CATEGORIES:
        mix = make_mixes(cat, 1, n_cores=4, seed=2019)[0]
        build_batch_kernel(mix, sc, store)  # warm the store off the clock
        best_batch = best_scalar = float("inf")
        identical = True
        for _ in range(rounds):
            t0 = time.perf_counter()
            scalar = [
                _run_mechanism(
                    build_machine(mix, sc, trace_store=store, engine="fast"), m, sc
                )
                for m in mechs
            ]
            best_scalar = min(best_scalar, time.perf_counter() - t0)
            t0 = time.perf_counter()
            kernel = build_batch_kernel(mix, sc, store)
            batch = _lockstep_mechanisms(kernel, mechs, sc)
            best_batch = min(best_batch, time.perf_counter() - t0)
            identical = identical and all(
                (b.totals == s.totals).all() and b.wall_cycles == s.wall_cycles
                for b, s in zip(batch, scalar)
            )
        assert identical, f"dynamic sweep {cat}: batch diverged from scalar"
        out[cat] = {
            "mechanisms": len(mechs),
            "exec_units_per_epoch": DYNAMIC_EXEC_UNITS,
            "scalar_s": round(best_scalar, 3),
            "batch_s": round(best_batch, 3),
            "speedup": round(best_scalar / best_batch, 2),
            "bit_identical": identical,
        }
        print(
            f"dynamic {cat}: R={len(mechs)} scalar={best_scalar:.2f}s "
            f"batch={best_batch:.2f}s x{best_scalar / best_batch:.2f} "
            f"identical={identical}"
        )
    return out


NATIVE_CATEGORIES = ("pref_agg", "pref_unfri")


def _measure_native_sweeps(rounds: int) -> dict:
    """The compiled kernel tier vs. the pure-NumPy lockstep lanes.

    Three lanes over the widest static CAT sweep (the ``batch_sweeps``
    shape) plus one dynamic all-policies lockstep sweep: per-run scalar
    fast machines, ``simulate_batch`` with the native tier off, and
    ``simulate_batch`` with the native tier on.  JIT compilation is
    warmed off the clock (the tier's self-check plus one unmeasured
    round); bit-identity across all three lanes is asserted every
    measured round.  On hosts without numba the native lane is not
    measured and the payload says so.
    """
    from repro.experiments.batch import (
        _lockstep_mechanisms,
        _run_mechanism,
        build_batch_kernel,
        simulate_batch,
    )
    from repro.core.policies import POLICIES
    from repro.experiments.config import ScaleConfig
    from repro.experiments.runner import build_machine
    from repro.sim.tracestore import TraceStore
    from repro.workloads.mixes import make_mixes

    with _native_env("auto") as nk:
        enabled = nk.kernels_enabled()  # self-check doubles as JIT warm-up
        out: dict = {"tier": nk.tier_status()}
    if not enabled:
        out["note"] = "numba unavailable or tier disabled; native lanes not measured"
        print("native sweeps: tier disabled, skipping")
        return out

    sc = ScaleConfig(name="bench-batch", llc_scale=16, quantum=512)
    store = TraceStore(None, mode="memory")
    rounds = max(1, min(rounds, 3))
    sweeps: dict[str, dict] = {}
    for cat in NATIVE_CATEGORIES:
        mix = make_mixes(cat, 1, seed=2019)[0]
        specs = _batch_sweep_specs(mix, sc)
        with _native_env("auto"):
            simulate_batch(specs[:2], sc, trace_store=store)  # warm store + JIT
        best_native = best_pure = best_scalar = float("inf")
        identical = True
        for _ in range(rounds):
            t0 = time.perf_counter()
            scalar = [_batch_scalar_run(mix, s, sc, store) for s in specs]
            best_scalar = min(best_scalar, time.perf_counter() - t0)
            with _native_env("off"):
                t0 = time.perf_counter()
                pure = simulate_batch(specs, sc, trace_store=store)
                best_pure = min(best_pure, time.perf_counter() - t0)
            with _native_env("auto"):
                t0 = time.perf_counter()
                native = simulate_batch(specs, sc, trace_store=store)
                best_native = min(best_native, time.perf_counter() - t0)
            identical = identical and all(
                (nr.totals == pr.totals).all()
                and nr.wall_cycles == pr.wall_cycles
                and (nr.totals == s.deltas).all()
                and nr.wall_cycles == s.wall_cycles
                for nr, pr, s in zip(native, pure, scalar)
            )
        assert identical, f"native sweep {cat}: lanes diverged"
        sweeps[cat] = {
            "runs": len(specs),
            "accesses_per_core": BATCH_ACCESSES,
            "scalar_s": round(best_scalar, 3),
            "pure_batch_s": round(best_pure, 3),
            "native_batch_s": round(best_native, 3),
            "speedup_native_vs_pure": round(best_pure / best_native, 2),
            "speedup_native_vs_scalar": round(best_scalar / best_native, 2),
            "bit_identical": identical,
        }
        print(
            f"native {cat}: R={len(specs)} scalar={best_scalar:.2f}s "
            f"pure={best_pure:.2f}s native={best_native:.2f}s "
            f"x{best_pure / best_native:.2f} identical={identical}"
        )
    out["sweeps"] = sweeps
    out["geomean_speedup_native_vs_pure"] = (
        round(g, 2)
        if (g := _geomean([s["speedup_native_vs_pure"] for s in sweeps.values()]))
        else None
    )

    # Dynamic lane: every registered policy in masked lockstep, native
    # vs pure grouped kernels, scalar fast as the identity reference.
    dsc = ScaleConfig(
        name="bench-dynamic", llc_scale=16, n_cores=4, quantum=512,
        sample_units=512, exec_units=DYNAMIC_EXEC_UNITS, n_epochs=1,
    )
    mix = make_mixes("pref_agg", 1, n_cores=4, seed=2019)[0]
    mechs = list(POLICIES)
    build_batch_kernel(mix, dsc, store)  # warm the store off the clock
    with _native_env("auto"):
        _lockstep_mechanisms(build_batch_kernel(mix, dsc, store), mechs[:2], dsc)
    best_native = best_pure = float("inf")
    identical = True
    scalar = [
        _run_mechanism(
            build_machine(mix, dsc, trace_store=store, engine="fast"), m, dsc
        )
        for m in mechs
    ]
    for _ in range(rounds):
        with _native_env("off"):
            t0 = time.perf_counter()
            pure = _lockstep_mechanisms(build_batch_kernel(mix, dsc, store), mechs, dsc)
            best_pure = min(best_pure, time.perf_counter() - t0)
        with _native_env("auto"):
            t0 = time.perf_counter()
            native = _lockstep_mechanisms(build_batch_kernel(mix, dsc, store), mechs, dsc)
            best_native = min(best_native, time.perf_counter() - t0)
        identical = identical and all(
            (nr.totals == pr.totals).all()
            and nr.wall_cycles == pr.wall_cycles
            and (nr.totals == s.totals).all()
            and nr.wall_cycles == s.wall_cycles
            for nr, pr, s in zip(native, pure, scalar)
        )
    assert identical, "native dynamic sweep: lanes diverged"
    out["dynamic"] = {
        "mechanisms": len(mechs),
        "exec_units_per_epoch": DYNAMIC_EXEC_UNITS,
        "pure_batch_s": round(best_pure, 3),
        "native_batch_s": round(best_native, 3),
        "speedup_native_vs_pure": round(best_pure / best_native, 2),
        "bit_identical": identical,
    }
    print(
        f"native dynamic: R={len(mechs)} pure={best_pure:.2f}s "
        f"native={best_native:.2f}s x{best_pure / best_native:.2f} "
        f"identical={identical}"
    )
    return out


def emit_engine(args) -> int:
    sys.path.insert(0, str(REPO_ROOT / "src"))
    try:
        from repro.experiments.batch import build_batch_kernel
        from repro.sim.tracestore import TraceStore
        from repro.workloads.mixes import make_mixes

        from bench_simulator_speed import ENGINE_SC

        # Pre-warm one shared in-memory store for the plane-on lane so
        # it measures steady-state replay (materialization off-clock).
        warm = TraceStore(None, mode="memory")
        build_batch_kernel(make_mixes("pref_agg", 1, seed=2019)[0], ENGINE_SC, warm)

        best: dict[tuple[str, str], float] = {}
        lanes = ["off", "memory"]
        with tempfile.TemporaryDirectory(prefix="bench-engine-") as tmp:
            tmp_root = Path(tmp)
            for rnd in range(args.rounds):
                for lane in lanes:
                    times = _engine_sweep_times(
                        lane, tmp_root, f"{lane}-{rnd}",
                        store=warm if lane == "memory" else None,
                    )
                    for mech, secs in times.items():
                        key = (mech, lane)
                        best[key] = min(best.get(key, float("inf")), secs)
        batch_sweeps = _measure_batch_sweeps(args.rounds)
        dynamic_sweeps = _measure_dynamic_sweeps(args.rounds)
        native_sweeps = _measure_native_sweeps(args.rounds)
        mechanisms = {}
        for mech in ENGINE_MECHANISMS:
            off = best[(mech, "off")]
            on = best[(mech, "memory")]
            mechanisms[mech] = {
                "plane_off_s": round(off, 4),
                "plane_on_s": round(on, 4),
                "speedup": round(off / on, 3),
            }
            print(f"{mech}: off={off * 1e3:.1f}ms  on={on * 1e3:.1f}ms  "
                  f"x{off / on:.2f}")
        geo = _geomean([m["speedup"] for m in mechanisms.values()])
        payload = {
            "generated_utc": datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ"),
            "host": _host_info(),
            "method": (
                f"cold per-mechanism runs of one full-machine mix at the "
                f"bench-engine scale, best of {args.rounds} interleaved rounds, "
                f"max_workers=1 (serial); plane_off is the pre-trace-plane "
                f"execution path (live per-run trace generation); plane_on "
                f"shares one in-memory materialization across the sweep; "
                f"batch_sweeps compare repro.simulate_batch (multi-run batch "
                f"engine) against per-run scalar fast machines over a warm "
                f"shared trace store, {BATCH_ACCESSES} accesses/core; "
                f"batch_dynamic_sweeps run every registered policy over one "
                f"mix in masked lockstep vs per-run scalar fast "
                f"(controller-driven, divergent masks/CAT; "
                f"{DYNAMIC_EXEC_UNITS} exec units/epoch, best of <=3 rounds, "
                f"bit-identity asserted every round); native_sweeps compare "
                f"the compiled (numba) kernel tier against the pure-NumPy "
                f"lockstep lanes and scalar fast machines on the same sweeps "
                f"(JIT warmed off the clock, bit-identity asserted every "
                f"round, skipped when numba is unavailable)"
            ),
            "mechanisms": mechanisms,
            "geomean_speedup_plane_on_vs_off": round(geo, 3) if geo else None,
            "batch_sweeps": batch_sweeps,
            "geomean_speedup_batch_vs_scalar": (
                round(g, 2)
                if (g := _geomean([s["speedup"] for s in batch_sweeps.values()]))
                else None
            ),
            "batch_dynamic_sweeps": dynamic_sweeps,
            "geomean_speedup_dynamic_batch_vs_scalar": (
                round(g, 2)
                if (g := _geomean([s["speedup"] for s in dynamic_sweeps.values()]))
                else None
            ),
            "native_sweeps": native_sweeps,
        }
        out = args.out if args.out.name != "BENCH_simulator.json" else (
            REPO_ROOT / "BENCH_engine.json"
        )
        out.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"wrote {out}")
        return 0
    finally:
        sys.path.pop(0)


def simulator_payload(
    best: dict[tuple[str, str], float], *, rounds: int, accesses: int, baseline_note: str
) -> dict:
    """Assemble ``BENCH_simulator.json`` from best-of-rounds throughputs.

    ``best`` maps ``(scenario, lane)`` to accesses/second for the lanes
    ``fast``, ``reference`` and ``trace_gen`` (and ``native`` /
    ``pre_pr`` when measured).  Baseline fields come only from a
    ``pre_pr`` lane measured in this run; without one they are
    ``null`` and the baseline reads ``"not measured"``.
    """
    live = any(lane == "pre_pr" for _, lane in best)
    scenarios = {}
    for name, benches in CORE_SCENARIOS.items():
        fast = best[(name, "fast")]
        ref = best[(name, "reference")]
        trace_gen = best[(name, "trace_gen")]
        pre = best.get((name, "pre_pr"))
        native = best.get((name, "native"))
        # Generation and kernel times add: 1/fast = 1/kernel + 1/trace_gen.
        kernel_inv = 1.0 / fast - 1.0 / trace_gen
        scenarios[name] = {
            "benchmarks": benches,
            "fast_acc_per_s": round(fast),
            "reference_acc_per_s": round(ref),
            "native_acc_per_s": round(native) if native else None,
            "trace_gen_acc_per_s": round(trace_gen),
            "kernel_only_acc_per_s": round(1.0 / kernel_inv) if kernel_inv > 0 else None,
            "trace_share_of_fast": round(fast / trace_gen, 3),
            "pre_pr_acc_per_s": round(pre) if pre else None,
            "speedup_fast_vs_reference": round(fast / ref, 2),
            "speedup_native_vs_fast": round(native / fast, 2) if native else None,
            "speedup_fast_vs_pre_pr": round(fast / pre, 2) if pre else None,
        }
    return {
        "generated_utc": datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ"),
        "host": _host_info(),
        "method": (
            f"best of {rounds} interleaved rounds, "
            f"{accesses} accesses/core, scaled_params(16), quantum=512; "
            f"the native lane (compiled kernel tier) is measured only when "
            f"numba imports, JIT warmed off the clock"
        ),
        "baseline": {
            "note": baseline_note,
            "measured": "live" if live else "not measured",
        },
        "scenarios": scenarios,
        "geomean_speedup_fast_vs_reference": round(
            _geomean([s["speedup_fast_vs_reference"] for s in scenarios.values()]), 2
        ),
        "geomean_speedup_native_vs_fast": (
            round(g, 2)
            if (g := _geomean(
                [s["speedup_native_vs_fast"] or 0 for s in scenarios.values()]
            ))
            else None
        ),
        "geomean_speedup_fast_vs_pre_pr": (
            round(g, 2)
            if (g := _geomean(
                [s["speedup_fast_vs_pre_pr"] or 0 for s in scenarios.values()]
            ))
            else None
        ),
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--rounds", type=int, default=5)
    ap.add_argument("--accesses", type=int, default=8192, help="accesses per core")
    ap.add_argument("--out", type=Path, default=REPO_ROOT / "BENCH_simulator.json")
    ap.add_argument(
        "--baseline-src",
        type=Path,
        default=None,
        help="src/ dir of a pre-fast-kernel checkout to measure live",
    )
    ap.add_argument(
        "--baseline-note",
        default="pre-PR kernel (commit before the fast engine landed)",
    )
    ap.add_argument(
        "--engine",
        action="store_true",
        help="measure the experiment engine's cold sweep (trace plane on "
        "vs off) and write BENCH_engine.json instead",
    )
    args = ap.parse_args(argv)
    if args.engine:
        return emit_engine(args)

    src = str(REPO_ROOT / "src")
    best: dict[tuple[str, str], float] = {}
    lanes = [("fast", src, "fast"), ("reference", src, "reference")]
    # Native scalar lane only where the compiled tier actually engages
    # (numba importable, self-check green); the probe also doubles as
    # the off-clock JIT warm-up for the first measured round.
    sys.path.insert(0, src)
    try:
        from repro.sim import nativekernels

        native_on = nativekernels.kernels_enabled()
    except Exception:
        native_on = False
    finally:
        sys.path.pop(0)
    if native_on:
        lanes.append(("native", src, "native"))
    if args.baseline_src is not None:
        lanes.append(("pre_pr", str(args.baseline_src), None))

    for name, benches in CORE_SCENARIOS.items():
        for _ in range(args.rounds):
            for lane, root, engine in lanes:
                rate = _throughput(root, engine, benches, args.accesses)
                key = (name, lane)
                best[key] = max(best.get(key, 0.0), rate)
            rate = _trace_gen_throughput(src, benches, args.accesses)
            best[(name, "trace_gen")] = max(best.get((name, "trace_gen"), 0.0), rate)
        print(f"{name}: " + "  ".join(
            f"{lane}={best[(name, lane)]:,.0f}/s" for lane, _, _ in lanes)
            + f"  trace_gen={best[(name, 'trace_gen')]:,.0f}/s")
    payload = simulator_payload(
        best, rounds=args.rounds, accesses=args.accesses, baseline_note=args.baseline_note
    )
    args.out.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
