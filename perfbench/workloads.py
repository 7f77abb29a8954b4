"""The benchmark's workloads, their inputs and their output checks.

Kept free of ``repro`` imports at module level: the parent process
only spawns children and compares digests.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
GOLDENS = "tests/goldens/analysis/tiny"
PINS = json.loads((HERE / "pins.json").read_text())

WORKLOADS = ("figures-cold", "figures-pool", "replay-warm", "static-sweep")

#: The static CAT sweep: every way split x two CLOS layouts, all
#: prefetchers on, for one mix of each category.
STATIC_CATEGORIES = ("pref_agg", "pref_unfri")
STATIC_MIX_SEED = 2019
STATIC_ACCESSES = 24576
STATIC_SCALE = {"name": "bench-batch", "llc_scale": 16, "quantum": 512}


def figures_argv(workers: int, cache: str, out: str) -> list[str]:
    return ["figures", "--scale", "tiny", "--workers", str(workers),
            "--cache-dir", cache, "--out", out, "--check", GOLDENS]


def analyze_argv(cache: str, out: str) -> list[str]:
    return ["analyze", "--scale", "tiny", "--seeds", "2", "--workers", "1",
            "--cache-dir", cache, "--out", out]


def static_scale():
    from repro.experiments.config import ScaleConfig

    return ScaleConfig(**STATIC_SCALE)


def static_specs() -> list:
    """The sweep's run specs, in canonical order."""
    from repro.experiments.batch import BatchRunSpec
    from repro.workloads.mixes import make_mixes

    ways = static_scale().params().llc.ways
    specs = []
    for category in STATIC_CATEGORIES:
        mix = make_mixes(category, 1, seed=STATIC_MIX_SEED)[0]
        n = mix.n_cores
        alternating = tuple(c % 2 for c in range(n))
        halved = tuple(0 if c < n // 2 else 1 for c in range(n))
        for k in range(1, ways):
            cbm0 = (1 << k) - 1
            cbm1 = ((1 << ways) - 1) ^ cbm0
            for layout in (alternating, halved):
                specs.append(BatchRunSpec(
                    mix=mix, n_accesses=STATIC_ACCESSES, masks=(0x0,) * n,
                    clos_cbms=((0, cbm0), (1, cbm1)), core_clos=layout,
                ))
    return specs


def seeded_order(specs, seed: int) -> list[int]:
    """The order the sweep's specs are submitted in: the seed shuffles
    the runs within each mix, and the mixes keep their order (which mix
    goes first sets the peak memory).  Results are un-permuted before
    checking."""
    rng = random.Random(seed)
    blocks: dict[str, list[int]] = {}
    for i, spec in enumerate(specs):
        blocks.setdefault(spec.mix.name, []).append(i)
    order: list[int] = []
    for block in blocks.values():
        rng.shuffle(block)
        order += block
    return order


def run_digest(rows) -> str:
    """sha256 over each run's PMU totals (float64 bytes) and wall cycles,
    in canonical spec order; ``rows`` are ``(totals, wall_cycles)``."""
    import numpy as np

    h = hashlib.sha256()
    for totals, wall_cycles in rows:
        h.update(np.ascontiguousarray(totals, dtype=np.float64).tobytes())
        h.update(repr(float(wall_cycles)).encode())
    return h.hexdigest()


def dir_digest(directory: Path) -> str:
    """sha256 over the sorted (name, sha256 of bytes) of a directory's files."""
    h = hashlib.sha256()
    for p in sorted(directory.iterdir()):
        if p.is_file():
            h.update(p.name.encode() + b"\0" + hashlib.sha256(p.read_bytes()).digest())
    return h.hexdigest()


def file_digests(directory: Path, names) -> dict[str, str]:
    out = {}
    for name in names:
        p = directory / name
        out[name] = hashlib.sha256(p.read_bytes()).hexdigest() if p.is_file() else "missing"
    return out


def check_figures(out_dir: Path) -> list[str]:
    """Problems with a ``repro figures`` artifact set (empty = correct)."""
    if not out_dir.is_dir():
        return [f"no artifacts in {out_dir}"]
    got = dir_digest(out_dir)
    want = PINS["figures_tiny"]
    return [] if got == want else [f"figures artifacts digest {got} != pinned {want}"]


def check_analyze(out_dir: Path) -> list[str]:
    want = PINS["analyze_tiny_seeds2"]
    got = file_digests(out_dir, want)
    return [f"analyze {name} sha256 {got[name]} != pinned {want[name]}"
            for name in want if got[name] != want[name]]


def check_static(digest: str) -> list[str]:
    want = PINS["static_sweep"]
    return [] if digest == want else [f"static sweep digest {digest} != pinned {want}"]
