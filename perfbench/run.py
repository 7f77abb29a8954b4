#!/usr/bin/env python3
"""The repository benchmark: end-to-end and per-layer cost of ``repro``.

Usage (from the repository root)::

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Workloads (see README.md for why each exists):

``figures-cold``  ``repro figures --scale tiny --workers 1 --check GOLDENS``
                  on an empty cache;
``figures-pool``  the same with ``--workers 2``;
``replay-warm``   back-to-back fresh-process replays of ``repro figures``
                  and ``repro analyze --seeds 2`` on a populated cache;
``static-sweep``  ``repro.simulate_batch`` on a 76-run static CAT sweep.

Every step runs in a fresh interpreter with ``REPRO_*`` cleared, its own
cache, trace store and output directory.  Steps repeat until
``--seconds`` have passed, and no step starts that would likely end
past ``OVERSHOOT`` times that; timings are medians over steps.  With
``--trace 1`` one more step runs with the layer tracer installed and
the per-layer metrics are reported instead.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed``,
``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import workloads  # noqa: E402
from workloads import ROOT  # noqa: E402

WORK = HERE / ".work"
SHM = Path("/dev/shm")
SHM_PREFIX = "repro-tr-"
MIN_SETUPS = 5
#: A step is not started if it would end the measuring past this many
#: times ``--seconds``, so a run's length stays predictable.
OVERSHOOT = 1.5
CHILD_TIMEOUT_S = 170.0
PR_SET_CHILD_SUBREAPER = 36


class BenchError(RuntimeError):
    """The benchmark cannot run here (no result is printed)."""


# ------------------------------------------------------------ processes


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(HERE)])
    env["PYTHONHASHSEED"] = "0"
    env["TMPDIR"] = str(WORK)
    return env


def _shm_entries() -> set[str]:
    try:
        return {p.name for p in SHM.iterdir() if p.name.startswith(SHM_PREFIX)}
    except OSError:
        return set()


def _remove_shm_since(before: set[str]) -> int:
    """Unlink the trace-plane segments that appeared since ``before`` (the
    program's leaks, counted so the next step starts clean)."""
    residue = _shm_entries() - before
    for name in residue:
        (SHM / name).unlink(missing_ok=True)
    return len(residue)


def _become_subreaper() -> None:
    """Adopt orphaned grandchildren (pool workers whose parent died), so
    :func:`_stop_group` can wait for them; Linux only, best effort."""
    try:
        prctl = ctypes.CDLL(None, use_errno=True).prctl
    except (OSError, AttributeError):
        return
    prctl.argtypes = [ctypes.c_int] + [ctypes.c_ulong] * 4
    prctl.restype = ctypes.c_int
    prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)


def _stop_group(pgid: int) -> None:
    """Wait for (then kill) whatever is left of a child's process group."""
    deadline = time.monotonic() + 5.0
    sig = 0
    while True:
        with contextlib.suppress(ChildProcessError):
            while os.waitpid(-1, os.WNOHANG)[0]:
                pass  # reap adopted orphans
        try:
            os.killpg(pgid, sig)
        except (ProcessLookupError, PermissionError):
            return
        if time.monotonic() > deadline:
            if sig == signal.SIGKILL and time.monotonic() > deadline + 5.0:
                raise BenchError(f"processes of group {pgid} survive SIGKILL")
            sig = signal.SIGKILL
        time.sleep(0.01)


class Child:
    """One finished child: its result file plus what ``wait4`` saw."""

    def __init__(self, job: dict, rundir: Path, tag: str) -> None:
        job_path = rundir / f"{tag}.job.json"
        result_path = rundir / f"{tag}.result.json"
        self.log = rundir / f"{tag}.log"
        job = dict(job, result=str(result_path))
        job_path.write_text(json.dumps(job))
        shm_before = _shm_entries()
        self.t_spawn = time.monotonic()
        with open(self.log, "wb") as log:
            proc = subprocess.Popen(
                [sys.executable, str(HERE / "child.py"), str(job_path)],
                cwd=ROOT, env=child_env(), stdout=log, stderr=subprocess.STDOUT,
                start_new_session=True,
            )
        try:
            status, usage = self._wait(proc)
        except BaseException:  # interrupted: take the child's group down with us
            with contextlib.suppress(ProcessLookupError):
                os.killpg(proc.pid, signal.SIGKILL)
            with contextlib.suppress(ChildProcessError):
                os.wait4(proc.pid, 0)
            proc.returncode = -signal.SIGKILL
            _stop_group(proc.pid)
            _remove_shm_since(shm_before)
            raise
        self.t_exit = time.monotonic()
        _stop_group(proc.pid)
        self.shm_residue = _remove_shm_since(shm_before)
        self.exit_code = os.waitstatus_to_exitcode(status)
        self.cpu_tree = usage.ru_utime + usage.ru_stime
        self.maxrss_mb = usage.ru_maxrss / 1024.0
        if self.exit_code != 0 or not result_path.is_file():
            tail = self.log.read_text(errors="replace")[-2000:]
            raise BenchError(f"{tag}: child exited {self.exit_code}\n{tail}")
        self.result = json.loads(result_path.read_text())

    @staticmethod
    def _wait(proc: subprocess.Popen):
        deadline = time.monotonic() + CHILD_TIMEOUT_S
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                proc.returncode = os.waitstatus_to_exitcode(status)
                return status, usage
            if time.monotonic() > deadline:
                raise BenchError(f"child {proc.args} exceeded {CHILD_TIMEOUT_S:.0f}s")
            time.sleep(0.005)

    @property
    def setup_s(self) -> float:
        return self.result["ready"] - self.t_spawn

    @property
    def cpu_s(self) -> float:
        """CPU of the child's process tree after set-up ended."""
        return self.cpu_tree - self.result["cpu_ready"]

    def counts(self) -> dict[str, int]:
        rec = self.result["records"]
        return {"records": rec["n"], "executed": rec["executed"], "cached": rec["cached"],
                "failed": rec["failed"], "fallbacks": self.result["fallbacks"],
                "degradations": self.result["degradations"], "shm_residue": self.shm_residue}


# ---------------------------------------------------------------- steps


class Step:
    """One measured repetition of a workload."""

    def __init__(self, children: list[Child], wall_s: float, cpu_s: float,
                 problems: list[str], operations: int, failed: int, counts: dict) -> None:
        self.children = children
        self.wall_s = wall_s
        self.cpu_s = cpu_s
        self.peak_rss_mb = max(c.maxrss_mb for c in children)
        self.problems = problems
        self.operations = operations
        self.failed = operations if problems else failed
        self.counts = counts


def _fresh(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


class Workload:
    """Set-up and steps of one workload inside a run directory."""

    def __init__(self, name: str, seed: int, rundir: Path, warm_cache: Path | None) -> None:
        self.name = name
        self.seed = seed
        self.rundir = rundir
        self.warm_cache = warm_cache
        self.setups: list[float] = []
        self.replay_cache: Path | None = None
        self._n = 0

    def _tag(self, what: str) -> str:
        self._n += 1
        return f"{self._n:03d}-{what}"

    def prepare(self) -> float:
        """Workload preparation done before the child starts (seconds)."""
        if self.warm_cache is None:
            return 0.0
        dest = self.rundir / f"cache-{self._n + 1:03d}"
        t0 = time.monotonic()
        # Hard links: the program only ever replaces cache files (write
        # to a temp file, then rename), so a linked tree is a private
        # copy; check_warm_cache() catches a write in place.
        shutil.copytree(self.warm_cache, dest, copy_function=os.link)
        elapsed = time.monotonic() - t0
        if self.replay_cache is None:
            self.replay_cache = dest
        else:
            shutil.rmtree(dest)
        return elapsed

    def probe(self) -> None:
        """One set-up without a timed region."""
        prep = self.prepare()
        child = Child({"kind": "probe", "trace": False}, self.rundir, self._tag("probe"))
        self.setups.append(prep + child.setup_s)

    def step(self, trace: bool) -> Step:
        if self.name == "replay-warm":
            return self._replay(trace)
        prep = self.prepare()
        work = _fresh(self.rundir / "work")
        if self.name == "static-sweep":
            job = {"kind": "sweep", "seed": self.seed}
        else:
            workers = 2 if self.name == "figures-pool" else 1
            job = {"kind": "cli",
                   "argv": workloads.figures_argv(workers, str(work / "cache"), str(work / "out"))}
        child = Child(dict(job, trace=trace), self.rundir, self._tag(self.name))
        if not trace:
            self.setups.append(prep + child.setup_s)
        res = child.result
        if self.name == "static-sweep":
            problems = workloads.check_static(res["digest"])
            ops = res["specs"] + 1
            counts = {"specs": res["specs"], "fallbacks": res["fallbacks"],
                      "degradations": res["degradations"], "shm_residue": child.shm_residue}
        else:
            problems = [] if res["rc"] == 0 else [f"repro figures exited {res['rc']}"]
            problems += workloads.check_figures(work / "out")
            ops = res["records"]["n"] + 1
            counts = child.counts()
        shutil.rmtree(work)
        return Step([child], res["wall_s"], child.cpu_s, problems, ops,
                    res["records"]["failed"], counts)

    def _replay(self, trace: bool) -> Step:
        if self.replay_cache is None:
            self.probe()
        cache = str(self.replay_cache)
        work = _fresh(self.rundir / "work")
        fig = Child({"kind": "cli", "trace": trace,
                     "argv": workloads.figures_argv(1, cache, str(work / "fig"))},
                    self.rundir, self._tag("replay-figures"))
        ana = Child({"kind": "cli", "trace": trace,
                     "argv": workloads.analyze_argv(cache, str(work / "ana"))},
                    self.rundir, self._tag("replay-analyze"))
        problems = []
        for child, what in ((fig, "figures"), (ana, "analyze")):
            if child.result["rc"] != 0:
                problems.append(f"repro {what} exited {child.result['rc']}")
        problems += workloads.check_figures(work / "fig")
        problems += workloads.check_analyze(work / "ana")
        shutil.rmtree(work)
        counts = {f"{what}.{k}": v for child, what in ((fig, "figures"), (ana, "analyze"))
                  for k, v in child.counts().items()}
        return Step([fig, ana], ana.t_exit - fig.t_spawn, fig.cpu_tree + ana.cpu_tree, problems,
                    fig.result["records"]["n"] + ana.result["records"]["n"] + 2,
                    fig.result["records"]["failed"] + ana.result["records"]["failed"], counts)


# -------------------------------------------------------------- metrics


def per_layer(traced: Step, untraced_wall_s: float, all_children: list[Child]) -> dict[str, float]:
    """Per-layer metrics from the traced step (summed over its processes);
    the overhead is its wall time over ``untraced_wall_s``."""
    self_s: dict[str, float] = {}
    incl: dict[str, float] = {}
    wall: dict[str, float] = {}
    count: dict[str, int] = {}
    records = {"n": 0, "executed": 0, "cached": 0, "failed": 0, "busy_s": 0.0}
    process_cpu = 0.0
    workers = 1
    for child in traced.children:
        tr = child.result["trace"]
        for acc, part in ((self_s, tr["self"]), (incl, tr["incl"]), (wall, tr["wall"]),
                          (count, tr["count"])):
            for k, v in part.items():
                acc[k] = acc.get(k, 0) + v
        for k in records:
            records[k] += child.result["records"][k]
        workers = max(workers, child.result["records"]["workers"])
        process_cpu += child.result["process_cpu_s"]
    m = {name: self_s.get(name, 0.0) for name in layers.SELF_METRICS}
    accesses = count.get(layers.ACCESSES, 0)
    kernel_self = sum(v for k, v in self_s.items() if k.startswith(layers.KERNEL_LAYERS))
    pooled = wall.get("experiments.engine.pooled_wall_s", 0.0)
    m.update({
        "sim.tracestore.fallbacks": sum(c.result["fallbacks"] for c in traced.children),
        "sim.batch.degradations": sum(c.result["degradations"] for c in traced.children),
        "sim.tracestore.shm_residue": sum(c.shm_residue for c in traced.children),
        layers.ACCESSES: accesses,
        "sim.ns_per_access": kernel_self / accesses * 1e9 if accesses else 0.0,
        layers.EPOCHS: count.get(layers.EPOCHS, 0),
        "experiments.engine.pool_wait_s": wall.get("experiments.engine.pool_wait_s", 0.0),
        "experiments.engine.worker_busy_s": records["busy_s"],
        "experiments.engine.pool_efficiency":
            records["busy_s"] / (workers * pooled) if pooled else 0.0,
        layers.UNCACHED_SIM: incl.get(layers.UNCACHED_SIM, 0.0),
        "experiments.engine.runs_executed": records["executed"],
        "experiments.engine.runs_cached": records["cached"],
        "experiments.engine.runs_failed": records["failed"],
        "experiments.engine.cache_hit_ratio":
            records["cached"] / records["n"] if records["n"] else 0.0,
        "process.import_s": statistics.median(c.result["import_s"] for c in all_children),
        "trace.process_cpu_s": process_cpu,
        "trace.other_s": process_cpu - sum(self_s.values()),
        "trace.overhead_ratio": traced.wall_s / untraced_wall_s,
    })
    return m


def end_to_end(steps: list[Step], setups: list[float]) -> dict[str, float]:
    return {
        "wall_s": statistics.median(s.wall_s for s in steps),
        "cpu_s": statistics.median(s.cpu_s for s in steps),
        "peak_rss_mb": statistics.median(s.peak_rss_mb for s in steps),
        "setup_s": statistics.median(setups),
    }


# ---------------------------------------------------------- checkout


def check_layout() -> None:
    need = [ROOT / "src" / "repro" / "cli.py", ROOT / workloads.GOLDENS / "manifest.json"]
    missing = [str(p.relative_to(ROOT)) for p in need if not p.is_file()]
    if missing:
        raise BenchError(f"not a repro checkout: missing {', '.join(missing)}")


def code_hash() -> str:
    """sha256 of the code and data under test plus the benchmark itself."""
    h = hashlib.sha256()
    for base in (ROOT / "src", HERE, ROOT / workloads.GOLDENS):
        for p in sorted(base.rglob("*")):
            rel = p.relative_to(ROOT)
            if not p.is_file() or "__pycache__" in rel.parts or WORK in p.parents:
                continue
            if base == HERE and p.suffix not in (".py", ".json"):
                continue
            h.update(str(rel).encode() + b"\0" + hashlib.sha256(p.read_bytes()).digest())
    return h.hexdigest()[:16]


def _atomic_json(path: Path, obj) -> None:
    tmp = path.with_suffix(f".tmp{os.getpid()}")
    tmp.write_text(json.dumps(obj, sort_keys=True))
    os.replace(tmp, path)


def ensure_built(code: str) -> None:
    """Byte-compile the sources once per code version, so every set-up
    imports from warm bytecode as an installed package would."""
    marker = WORK / f"compiled-{code}"
    if marker.exists():
        return
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(ROOT / "src"), str(HERE)],
                   cwd=ROOT, env=child_env(), check=True, stdout=subprocess.DEVNULL,
                   timeout=CHILD_TIMEOUT_S)
    marker.touch()


def _tree_stat(root: Path) -> dict[str, list[int]]:
    return {str(p.relative_to(root)): [p.stat().st_size, p.stat().st_mtime_ns]
            for p in sorted(root.rglob("*")) if p.is_file()}


def ensure_warm_cache(code: str) -> Path:
    """The populated result cache replays read, built once per code
    version by a cold ``repro figures`` and ``repro analyze``."""
    warm = WORK / f"warm-{code}"
    manifest = warm.with_suffix(".json")
    if warm.is_dir() and manifest.is_file():
        return warm
    for stale in WORK.glob("warm-*"):
        if stale.is_dir():
            shutil.rmtree(stale, ignore_errors=True)
        else:
            stale.unlink()
    build = _fresh(WORK / f"build-{os.getpid()}")
    try:
        cache = str(build / "cache")
        fig = Child({"kind": "cli", "trace": False,
                     "argv": workloads.figures_argv(1, cache, str(build / "fig"))},
                    build, "warm-figures")
        ana = Child({"kind": "cli", "trace": False,
                     "argv": workloads.analyze_argv(cache, str(build / "ana"))},
                    build, "warm-analyze")
        problems = workloads.check_figures(build / "fig") + workloads.check_analyze(build / "ana")
        if fig.result["rc"] or ana.result["rc"] or problems:
            raise BenchError("building the warm cache failed: " + "; ".join(problems))
        os.replace(build / "cache", warm)
        _atomic_json(manifest, _tree_stat(warm))
    finally:
        shutil.rmtree(build, ignore_errors=True)
    return warm


def check_warm_cache(warm: Path) -> list[str]:
    """The warm cache must be exactly as built; a run that changed it
    (a write in place through a hard link) invalidates it."""
    manifest = warm.with_suffix(".json")
    if json.loads(manifest.read_text()) == _tree_stat(warm):
        return []
    manifest.unlink()
    return [f"the warm cache {warm.name} was modified in place; it is rebuilt next run"]


def check_counts(code: str, workload: str, kind: str, counts: list[dict]) -> list[str]:
    """Every count must repeat exactly across all runs of the same code.

    The first run of a code version records its counts under
    ``.work``; every later step and run must reproduce them.
    """
    path = WORK / f"counts-{code}-{workload}-{kind}.json"
    reference = json.loads(path.read_text()) if path.is_file() else counts[0]
    problems = [f"{kind} counts {c} differ from earlier runs' {reference}"
                for c in counts if c != reference]
    if not path.is_file() and not problems:
        _atomic_json(path, reference)
    return problems


# ------------------------------------------------------------------ run


def run(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    check_layout()
    WORK.mkdir(exist_ok=True)
    _become_subreaper()
    code = code_hash()
    ensure_built(code)
    warm = ensure_warm_cache(code) if workload == "replay-warm" else None
    rundir = _fresh(WORK / f"run-{os.getpid()}")
    walls = WORK / f"walls-{code}-{workload}.json"
    recorded = json.loads(walls.read_text()) if walls.is_file() else []
    steps: list[Step] = []
    traced = None
    try:
        wl = Workload(workload, seed, rundir, warm)
        if trace:
            # The overhead is taken against the untraced runs of this
            # code; only without any does this run make its own.
            if not recorded:
                steps.append(wl.step(trace=False))
            traced = wl.step(trace=True)
        else:
            if warm is not None:
                while len(wl.setups) < MIN_SETUPS:
                    wl.probe()
            t_begin = time.monotonic()
            while True:
                t0 = time.monotonic()
                steps.append(wl.step(trace=False))
                print(f"perfbench: {workload} step {len(steps)}: wall {steps[-1].wall_s:.3f}s "
                      f"cpu {steps[-1].cpu_s:.3f}s", file=sys.stderr)
                used = time.monotonic() - t_begin
                if used >= seconds or used + (time.monotonic() - t0) > seconds * OVERSHOOT:
                    break
            while len(wl.setups) < MIN_SETUPS:
                wl.probe()
    finally:
        shutil.rmtree(rundir, ignore_errors=True)

    problems = [p for s in steps for p in s.problems]
    if warm is not None:
        problems += check_warm_cache(warm)
    if steps:
        problems += check_counts(code, workload, "step", [s.counts for s in steps])
    all_steps = steps + ([traced] if traced else [])
    if traced is not None:
        problems += traced.problems
        children = [c for s in all_steps for c in s.children]
        baseline = statistics.median(recorded or [s.wall_s for s in steps])
        metrics = per_layer(traced, baseline, children)
        units = dict(layers.PER_LAYER)
        layer_counts = {k: metrics[k] for k in layers.COUNT_METRICS}
        problems += check_counts(code, workload, "traced", [layer_counts])
    else:
        metrics = end_to_end(steps, wl.setups)
        units = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
        if not problems:
            _atomic_json(walls, recorded + [metrics["wall_s"]])
    for p in problems:
        print(f"perfbench: {p}", file=sys.stderr)
    return {
        "correct": not problems,
        "attempted": sum(s.operations for s in all_steps),
        "failed": sum(s.failed for s in all_steps),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
