"""Microbenchmark harnesses with machine-readable regression output.

``repro bench fm`` times the production
:class:`~repro.core.engine.FMEngine` against the frozen seed reference
(:class:`~repro.core._seed_engine.SeedFMEngine`) on identical inputs,
**verifies move-for-move equivalence on the same run**, and emits a
machine-readable ``BENCH_fm_kernel.json`` so CI (or the next PR) can
gate on kernel regressions instead of eyeballing timings.

``repro bench ml`` (:func:`bench_ml_coarsen`) applies the same
discipline one layer up: an end-to-end multilevel multistart where the
baseline rebuilds the coarsening hierarchy per start through the frozen
seed oracle (:class:`~repro.multilevel.mlpart.MLPartitioner` in oracle
mode), while the subject draws kernel-built hierarchies from a seeded
:class:`~repro.multilevel.pool.HierarchyPool`.  The split-RNG pooling
contract (see :mod:`repro.multilevel.pool`) makes the two runs
bit-identical per start, so the equivalence check compares the full
per-start cut vectors and any divergence fails the bench outright.

Methodology
-----------
* Both engines refine copies of the *same* initial solution with fresh,
  identically-seeded RNGs, so the work is identical by construction —
  the equivalence check (final cut, final assignment, per-pass move
  logs and kept prefixes) turns any behavioral divergence into a hard
  failure rather than a silently-unfair timing.
* Timed runs use ``record_moves=False`` (production configuration);
  one extra recorded run per engine performs the move-log comparison.
* The reported per-config time is the **minimum** over ``repeats``
  (the standard microbenchmark estimator: minimum ≈ noise-free cost).
* The headline ``speedup`` is the geometric mean of the per-config
  speedups (flat and CLIP weighted equally).

The JSON schema is intentionally flat and stable::

    {
      "benchmark": "fm_kernel",
      "instance": {...}, "repeats": N, "seed": S, "tolerance": T,
      "configs": {"flat": {"seed_seconds": [...], "kernel_seconds": [...],
                           "speedup": ..., "equivalent": true,
                           "final_cut": ..., "perf": {...}}, ...},
      "speedup": <geomean>, "equivalent": <all configs>
    }
"""

from __future__ import annotations

import json
import math
import random
import time
from typing import Dict, List, Optional, Sequence

from repro.core._seed_engine import SeedFMEngine
from repro.core.balance import BalanceConstraint
from repro.core.config import FMConfig
from repro.core.engine import FMEngine, FMResult
from repro.core.partition import Partition2
from repro.core.perf import PerfCounters
from repro.evaluation import _seed_eval
from repro.evaluation.bsf import BootstrapKernel, default_tau_grid, eval_seed
from repro.evaluation.records import TrialRecord, group_by
from repro.instances.suite import suite_instance
from repro.multilevel.mlpart import MLConfig, MLPartitioner
from repro.hypergraph.shm import shm_available
from repro.multilevel.pool import (
    HierarchyPool,
    build_hierarchy,
    hierarchy_seed,
    run_multistart_pooled,
)
from repro.orchestrate._seed_executor import (
    SeedExecutionPolicy,
    seed_execute_trials,
)
from repro.orchestrate.executor import ExecutionPolicy, execute_trials
from repro.orchestrate.plan import TrialPlan

#: Named kernel configurations the bench exercises.  Flat LIFO FM and
#: CLIP are the two production hot paths; both run with the corking
#: guard on (the strong-implementation default).
BENCH_CONFIGS: Dict[str, FMConfig] = {
    "flat": FMConfig(),
    "clip": FMConfig(clip=True),
}


def backend_sweep(
    backends: Optional[Sequence[str]] = None,
) -> List[str]:
    """The backend names a bench sweeps: the explicit list, or every
    *available* registered backend other than ``numpy`` (the interpreted
    baseline each bench already times).  Requesting an unavailable
    backend explicitly raises — a silent numpy fallback would time the
    baseline twice and report a fake 1.0x column."""
    from repro.backends import BACKEND_NAMES, get_backend

    if backends is None:
        return [
            name
            for name in BACKEND_NAMES
            if name != "numpy" and get_backend(name).available
        ]
    names = list(backends)
    for name in names:
        if name == "numpy":
            continue
        info = get_backend(name)
        if not info.available:
            raise ValueError(
                f"backend {name!r} unavailable ({info.reason})"
            )
    return names


def _equivalent(a: FMResult, b: FMResult, pa: Partition2, pb: Partition2) -> bool:
    """Move-for-move equivalence of two recorded refinement runs."""
    if a.final_cut != b.final_cut or pa.assignment != pb.assignment:
        return False
    if len(a.pass_stats) != len(b.pass_stats):
        return False
    for sa, sb in zip(a.pass_stats, b.pass_stats):
        if (
            sa.move_log != sb.move_log
            or sa.moves_kept != sb.moves_kept
            or sa.cut_before != sb.cut_before
            or sa.cut_after != sb.cut_after
            or sa.stuck != sb.stuck
        ):
            return False
    return True


def bench_fm_kernel(
    instance: str = "ibm01s",
    scale: int = 32,
    repeats: int = 3,
    seed: int = 0,
    tolerance: float = 0.1,
    configs: Optional[Sequence[str]] = None,
    max_passes: int = 4,
    backends: Optional[Sequence[str]] = None,
) -> Dict[str, object]:
    """Run the kernel-vs-seed microbenchmark and return the result dict.

    Parameters
    ----------
    instance / scale:
        Synthetic suite instance (:func:`repro.instances.suite_instance`)
        and its scale divisor.  The default ``ibm01s`` at scale 32 is
        the tier-1-friendly size; scale 16 is the "ibm01s-scale"
        acceptance target.
    repeats:
        Timed runs per engine per config (minimum is reported).
    seed:
        Seed for the initial random balanced solution.
    tolerance:
        Balance tolerance (paper convention; 0.1 = the 45/55 window).
    configs:
        Subset of :data:`BENCH_CONFIGS` names; default: all.
    max_passes:
        Pass cap per refinement (both engines; keeps runs comparable
        even if convergence needs many passes).
    backends:
        Registry backends to time alongside the interpreted engine
        (default: every available one, :func:`backend_sweep`).  Each
        gets an extra per-config column: its timed refinement plus a
        recorded move-for-move comparison against the numpy engine's
        run, so a backend column is only reported fast *and* faithful.
        The interpreted rows pin ``backend="numpy"`` explicitly, so the
        baseline stays the baseline even under ``REPRO_BACKEND``.
    """
    names = list(configs) if configs else list(BENCH_CONFIGS)
    for name in names:
        if name not in BENCH_CONFIGS:
            raise ValueError(
                f"unknown bench config {name!r}; valid: "
                f"{', '.join(BENCH_CONFIGS)}"
            )
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    sweep = backend_sweep(backends)

    hg = suite_instance(instance, scale=scale)
    bal = BalanceConstraint(hg.total_vertex_weight, tolerance)
    base = Partition2.random_balanced(hg, bal, random.Random(seed))

    # Charge backend activation (compile + self-check) before timing.
    from repro.backends import warmup

    for bname in sweep:
        warmup(bname)

    out_configs: Dict[str, Dict[str, object]] = {}
    speedups: List[float] = []
    all_equivalent = True
    for name in names:
        cfg = BENCH_CONFIGS[name].with_options(max_passes=max_passes)

        # Equivalence run (recorded; not timed).
        p_seed = base.copy()
        p_new = base.copy()
        r_seed = SeedFMEngine(
            bal, cfg, random.Random(1), record_moves=True
        ).refine(p_seed)
        r_new = FMEngine(
            bal, cfg, random.Random(1), record_moves=True, backend="numpy"
        ).refine(p_new)
        equivalent = _equivalent(r_seed, r_new, p_seed, p_new)
        all_equivalent = all_equivalent and equivalent

        # Timed runs (production configuration: no move recording).
        seed_secs: List[float] = []
        kern_secs: List[float] = []
        perf_dict: Dict[str, object] = {}
        for _ in range(repeats):
            p = base.copy()
            t0 = time.perf_counter()
            SeedFMEngine(bal, cfg, random.Random(1)).refine(p)
            seed_secs.append(time.perf_counter() - t0)

            p = base.copy()
            eng = FMEngine(bal, cfg, random.Random(1), backend="numpy")
            t0 = time.perf_counter()
            res = eng.refine(p)
            kern_secs.append(time.perf_counter() - t0)
            perf_dict = res.perf.as_dict() if res.perf else {}

        best_seed = min(seed_secs)
        best_kern = min(kern_secs)

        # Registry-backend columns: each sweeps the identical refinement
        # (recorded comparison vs the numpy engine's run, then timed).
        backend_cols: Dict[str, Dict[str, object]] = {}
        for bname in sweep:
            p_b = base.copy()
            eng_b = FMEngine(
                bal, cfg, random.Random(1), record_moves=True,
                backend=bname,
            )
            r_b = eng_b.refine(p_b)
            b_equiv = _equivalent(r_new, r_b, p_new, p_b)
            all_equivalent = all_equivalent and b_equiv
            b_secs: List[float] = []
            for _ in range(repeats):
                p = base.copy()
                eng_b2 = FMEngine(
                    bal, cfg, random.Random(1), backend=bname
                )
                t0 = time.perf_counter()
                eng_b2.refine(p)
                b_secs.append(time.perf_counter() - t0)
            best_b = min(b_secs)
            backend_cols[bname] = {
                "seconds": b_secs,
                "best_seconds": best_b,
                # vs the interpreted numpy engine, the production default
                "speedup": best_kern / best_b if best_b > 0
                else float("inf"),
                "equivalent": b_equiv,
                "resolved": eng_b._backend_name,
            }

        speedup = best_seed / best_kern if best_kern > 0 else float("inf")
        speedups.append(speedup)
        out_configs[name] = {
            "seed_seconds": seed_secs,
            "kernel_seconds": kern_secs,
            "best_seed_seconds": best_seed,
            "best_kernel_seconds": best_kern,
            "speedup": speedup,
            "equivalent": equivalent,
            "final_cut": r_new.final_cut,
            "passes": r_new.passes,
            "total_moves": r_new.total_moves,
            "perf": perf_dict,
            "backends": backend_cols,
        }

    geomean = math.exp(sum(math.log(s) for s in speedups) / len(speedups))
    return {
        "benchmark": "fm_kernel",
        "backends": sweep,
        "instance": {
            "name": instance,
            "scale": scale,
            "num_vertices": hg.num_vertices,
            "num_nets": hg.num_nets,
            "num_pins": hg.num_pins,
        },
        "repeats": repeats,
        "seed": seed,
        "tolerance": tolerance,
        "max_passes": max_passes,
        "configs": out_configs,
        "speedup": geomean,
        "equivalent": all_equivalent,
    }


def render_fm_bench(result: Dict[str, object]) -> str:
    """Human-readable table for one :func:`bench_fm_kernel` result."""
    inst = result["instance"]
    lines = [
        f"FM kernel microbenchmark — {inst['name']} (scale {inst['scale']}: "
        f"{inst['num_vertices']} cells, {inst['num_nets']} nets, "
        f"{inst['num_pins']} pins), {result['repeats']} repeat(s), "
        f"tolerance {result['tolerance']:g}",
        "",
        f"{'config':8s} {'seed (s)':>10s} {'kernel (s)':>11s} "
        f"{'speedup':>8s} {'cut':>8s} {'moves':>7s}  equivalent",
    ]
    for name, c in result["configs"].items():
        lines.append(
            f"{name:8s} {c['best_seed_seconds']:10.4f} "
            f"{c['best_kernel_seconds']:11.4f} "
            f"{c['speedup']:7.2f}x {c['final_cut']:8g} "
            f"{c['total_moves']:7d}  {'yes' if c['equivalent'] else 'NO'}"
        )
    if any(c.get("backends") for c in result["configs"].values()):
        lines.append("")
        lines.append(
            f"{'config':8s} {'backend':9s} {'best (s)':>10s} "
            f"{'vs numpy':>9s}  equivalent"
        )
        for name, c in result["configs"].items():
            for bname, col in c.get("backends", {}).items():
                lines.append(
                    f"{name:8s} {bname:9s} {col['best_seconds']:10.4f} "
                    f"{col['speedup']:8.2f}x  "
                    f"{'yes' if col['equivalent'] else 'NO'}"
                )
    lines.append("")
    lines.append(
        f"geomean speedup: {result['speedup']:.2f}x — move-for-move "
        f"equivalent: {'yes' if result['equivalent'] else 'NO'}"
    )
    return "\n".join(lines)


def write_fm_bench_json(result: Dict[str, object], path: str) -> None:
    """Persist a bench result as pretty-printed JSON."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=2, sort_keys=True)
        fh.write("\n")


#: Alias: the writer is schema-agnostic and serves every bench.
write_bench_json = write_fm_bench_json


# ----------------------------------------------------------------------
# Multilevel coarsening kernel + hierarchy pooling (``repro bench ml``)
# ----------------------------------------------------------------------
def bench_ml_coarsen(
    instance: str = "ibm01s",
    scale: int = 32,
    repeats: int = 3,
    num_starts: int = 8,
    pool_size: int = 2,
    seed: int = 0,
    tolerance: float = 0.02,
    clip: bool = False,
    backends: Optional[Sequence[str]] = None,
) -> Dict[str, object]:
    """End-to-end multilevel multistart: seed-oracle path vs pooled kernels.

    Baseline (the pre-kernel code path, frozen): every start rebuilds
    its coarsening hierarchy through the seed oracle and partitions with
    :class:`MLPartitioner` in oracle mode (frozen seed FM engine, plain
    partition construction, fresh projection allocations).  Subject: the
    production path — :func:`run_multistart_pooled` over a seeded
    :class:`HierarchyPool` of ``pool_size`` kernel-built hierarchies,
    cached engines with warm scratch, buffered projections.

    Both paths give start ``i`` hierarchy seed
    ``hierarchy_seed(seed, i % pool_size)`` and per-start seed
    ``seed + i``, so they are bit-identical by the pooling contract: the
    equivalence verdict compares the per-start cut vectors exactly (and
    their stability across repeats).  Timings are end-to-end per
    multistart run; the reported times are minima over ``repeats``, with
    baseline and subject interleaved within each repeat so slow drift in
    the environment hits both equally.

    Each registry backend in ``backends`` (default: every available
    one) gets an extra timed pooled run — engines, matching and
    contraction all on that backend — whose per-start cuts must equal
    the oracle baseline's exactly.
    """
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    if num_starts < 1:
        raise ValueError("num_starts must be >= 1")
    if pool_size < 1:
        raise ValueError("pool_size must be >= 1")
    sweep = backend_sweep(backends)

    hg = suite_instance(instance, scale=scale)
    config = MLConfig(fm_config=FMConfig(clip=clip))

    from repro.backends import warmup

    for bname in sweep:
        warmup(bname)

    def run_baseline() -> List[float]:
        engine = MLPartitioner(config, tolerance=tolerance, oracle=True)
        cuts: List[float] = []
        for i in range(num_starts):
            h = build_hierarchy(
                hg,
                config,
                random.Random(hierarchy_seed(seed, i % pool_size)),
                oracle=True,
            )
            cuts.append(engine.partition(hg, seed=seed + i, hierarchy=h).cut)
        return cuts

    def run_pooled(
        perf: PerfCounters, backend: str = "numpy"
    ) -> List[float]:
        pool = HierarchyPool(
            hg, config, pool_size, base_seed=seed, perf=perf,
            backend=backend,
        )
        engine = MLPartitioner(config, tolerance=tolerance, backend=backend)
        ms = run_multistart_pooled(
            engine, hg, num_starts, base_seed=seed, pool=pool
        )
        return [s.cut for s in ms.starts]

    base_secs: List[float] = []
    pool_secs: List[float] = []
    base_cuts: List[float] = []
    pool_cuts: List[float] = []
    perf_dict: Dict[str, object] = {}
    equivalent = True
    for rep in range(repeats):
        t0 = time.perf_counter()
        cuts_b = run_baseline()
        base_secs.append(time.perf_counter() - t0)

        perf = PerfCounters()
        t0 = time.perf_counter()
        cuts_p = run_pooled(perf)
        pool_secs.append(time.perf_counter() - t0)
        perf_dict = perf.as_dict()

        if rep == 0:
            base_cuts, pool_cuts = cuts_b, cuts_p
        # Bit-identical per start, and deterministic across repeats.
        equivalent = equivalent and (
            cuts_b == cuts_p and cuts_b == base_cuts and cuts_p == pool_cuts
        )

    best_base = min(base_secs)
    best_pool = min(pool_secs)

    # Registry-backend columns: one timed pooled run per backend per
    # repeat; cuts must equal the oracle baseline's bit for bit.
    backend_cols: Dict[str, Dict[str, object]] = {}
    for bname in sweep:
        b_secs: List[float] = []
        b_equiv = True
        for _ in range(repeats):
            t0 = time.perf_counter()
            cuts_k = run_pooled(PerfCounters(), backend=bname)
            b_secs.append(time.perf_counter() - t0)
            b_equiv = b_equiv and cuts_k == base_cuts
        best_b = min(b_secs)
        backend_cols[bname] = {
            "seconds": b_secs,
            "best_seconds": best_b,
            "speedup": best_pool / best_b if best_b > 0 else float("inf"),
            "equivalent": b_equiv,
        }
        equivalent = equivalent and b_equiv

    speedup = best_base / best_pool if best_pool > 0 else float("inf")
    return {
        "benchmark": "ml_coarsen",
        "backends": backend_cols,
        "instance": {
            "name": instance,
            "scale": scale,
            "num_vertices": hg.num_vertices,
            "num_nets": hg.num_nets,
            "num_pins": hg.num_pins,
        },
        "repeats": repeats,
        "num_starts": num_starts,
        "pool_size": pool_size,
        "seed": seed,
        "tolerance": tolerance,
        "clip": clip,
        "baseline_seconds": base_secs,
        "pooled_seconds": pool_secs,
        "best_baseline_seconds": best_base,
        "best_pooled_seconds": best_pool,
        "speedup": speedup,
        "equivalent": equivalent,
        "cuts": pool_cuts,
        "best_cut": min(pool_cuts),
        "perf": perf_dict,
    }


# ----------------------------------------------------------------------
# Vectorized evaluation bootstrap (``repro bench eval``)
# ----------------------------------------------------------------------
def _bootstrap_records(
    num_records: int, num_heuristics: int, seed: int
) -> List[TrialRecord]:
    """Deterministic synthetic trial records for the bootstrap bench:
    ``num_records`` trials split evenly over ``num_heuristics``
    heuristics of one instance, with varied cuts and runtimes."""
    rng = random.Random(seed)
    records: List[TrialRecord] = []
    per = max(1, num_records // num_heuristics)
    for h in range(num_heuristics):
        name = f"H{h}"
        for i in range(per):
            records.append(
                TrialRecord(
                    heuristic=name,
                    instance="bench",
                    seed=i,
                    cut=float(rng.randint(100, 1000)),
                    runtime_seconds=0.05 + rng.random(),
                    legal=True,
                )
            )
    return records


def bench_eval_bootstrap(
    num_records: int = 10000,
    num_heuristics: int = 2,
    tau_points: int = 12,
    num_shuffles: int = 50,
    repeats: int = 3,
    seed: int = 0,
    backends: Optional[Sequence[str]] = None,
) -> Dict[str, object]:
    """Evaluation-bootstrap microbenchmark: frozen oracle vs vectorized.

    The workload is one instance's full Section 3.2 bootstrap suite over
    ``num_records`` trial records: for every heuristic, the mean-c_tau
    ranking grid (``tau_points`` budgets) *and* the Schreiber-Martin
    reach probabilities ``P(c_tau <= best known cut)`` at every budget.
    The baseline runs the frozen pure-Python bootstrap
    (:mod:`repro.evaluation._seed_eval`) under the derived-seed
    contract — a fresh ``random.Random(eval_seed(seed, heuristic))`` per
    (heuristic, tau, view); the subject builds one
    :class:`~repro.evaluation.bsf.BootstrapKernel` per heuristic and
    answers every tau and view from its shared ordering matrix.

    Both paths produce the identical derived-seed bootstrap, so the
    equivalence verdict compares every mean and every probability
    exactly (``==``, no tolerance); any divergence fails the bench.
    Reported times are minima over ``repeats`` with the two paths
    interleaved within each repeat.
    """
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    if num_records < 1 or num_heuristics < 1:
        raise ValueError("num_records and num_heuristics must be >= 1")
    if tau_points < 1 or num_shuffles < 1:
        raise ValueError("tau_points and num_shuffles must be >= 1")
    sweep = backend_sweep(backends)

    from repro.backends import warmup

    for bname in sweep:
        warmup(bname)

    records = _bootstrap_records(num_records, num_heuristics, seed)
    taus = default_tau_grid(records, points=tau_points)
    target = min(r.cut for r in records)
    groups = group_by(records, "heuristic")

    def run_oracle():
        means: Dict[str, List[Optional[float]]] = {}
        reach: Dict[str, List[float]] = {}
        for (name,), rs in groups.items():
            s = eval_seed(seed, name)
            ms: List[Optional[float]] = []
            rh: List[float] = []
            for tau in taus:
                samples = _seed_eval.c_tau_samples(
                    rs, tau, num_shuffles, random.Random(s)
                )
                ms.append(sum(samples) / len(samples) if samples else None)
                rh.append(
                    _seed_eval.probability_reaching(
                        rs, tau, target, num_shuffles, random.Random(s)
                    )
                )
            means[name], reach[name] = ms, rh
        return means, reach

    def run_kernel(backend: str = "numpy"):
        means: Dict[str, List[Optional[float]]] = {}
        reach: Dict[str, List[float]] = {}
        for (name,), rs in groups.items():
            kernel = BootstrapKernel(
                rs, num_shuffles, eval_seed(seed, name), backend=backend
            )
            means[name] = [kernel.mean_c_tau(tau) for tau in taus]
            reach[name] = [
                kernel.probability_reaching(tau, target) for tau in taus
            ]
        return means, reach

    oracle_secs: List[float] = []
    kernel_secs: List[float] = []
    equivalent = True
    first: Dict[str, object] = {}
    for rep in range(repeats):
        t0 = time.perf_counter()
        o_means, o_reach = run_oracle()
        oracle_secs.append(time.perf_counter() - t0)

        t0 = time.perf_counter()
        k_means, k_reach = run_kernel()
        kernel_secs.append(time.perf_counter() - t0)

        if rep == 0:
            first = {"means": k_means, "reach": k_reach}
        # Exact equality of every mean and probability, and stability
        # across repeats (the bootstrap is deterministic by contract).
        equivalent = equivalent and (
            o_means == k_means
            and o_reach == k_reach
            and k_means == first["means"]
            and k_reach == first["reach"]
        )

    best_oracle = min(oracle_secs)
    best_kernel = min(kernel_secs)

    # Registry-backend columns: the identical bootstrap per backend
    # (bit-for-bit equality with the oracle's means and probabilities).
    backend_cols: Dict[str, Dict[str, object]] = {}
    for bname in sweep:
        b_secs: List[float] = []
        b_equiv = True
        for _ in range(repeats):
            t0 = time.perf_counter()
            b_means, b_reach = run_kernel(backend=bname)
            b_secs.append(time.perf_counter() - t0)
            b_equiv = b_equiv and (
                b_means == first["means"] and b_reach == first["reach"]
            )
        best_b = min(b_secs)
        backend_cols[bname] = {
            "seconds": b_secs,
            "best_seconds": best_b,
            "speedup": best_kernel / best_b if best_b > 0
            else float("inf"),
            "equivalent": b_equiv,
        }
        equivalent = equivalent and b_equiv

    speedup = best_oracle / best_kernel if best_kernel > 0 else float("inf")
    return {
        "benchmark": "eval_bootstrap",
        "backends": backend_cols,
        "num_records": len(records),
        "num_heuristics": num_heuristics,
        "tau_points": tau_points,
        "num_shuffles": num_shuffles,
        "repeats": repeats,
        "seed": seed,
        "taus": [float(t) for t in taus],
        "oracle_seconds": oracle_secs,
        "kernel_seconds": kernel_secs,
        "best_oracle_seconds": best_oracle,
        "best_kernel_seconds": best_kernel,
        "speedup": speedup,
        "equivalent": equivalent,
    }


def render_eval_bench(result: Dict[str, object]) -> str:
    """Human-readable summary for one :func:`bench_eval_bootstrap` result."""
    lines = [
        f"Evaluation bootstrap bench — {result['num_records']} records over "
        f"{result['num_heuristics']} heuristic(s), "
        f"{result['tau_points']}-point tau grid, "
        f"{result['num_shuffles']} shuffles, {result['repeats']} repeat(s)",
        "",
        f"frozen oracle:     {result['best_oracle_seconds']:8.3f} s "
        f"(pure-Python shuffle-and-play per (heuristic, tau, view))",
        f"vectorized kernel: {result['best_kernel_seconds']:8.3f} s "
        f"(one ordering matrix per heuristic, numpy cumsum/prefix-min)",
        "",
        f"speedup: {result['speedup']:.2f}x — bootstrap bit-identical: "
        f"{'yes' if result['equivalent'] else 'NO'}",
    ]
    for bname, col in (result.get("backends") or {}).items():
        lines.append(
            f"  backend {bname:9s} {col['best_seconds']:8.3f} s "
            f"({col['speedup']:.2f}x vs vectorized numpy, bootstrap "
            f"{'identical' if col['equivalent'] else 'DIVERGED'})"
        )
    return "\n".join(lines)


def render_ml_bench(result: Dict[str, object]) -> str:
    """Human-readable summary for one :func:`bench_ml_coarsen` result."""
    inst = result["instance"]
    perf = result.get("perf") or {}
    lines = [
        f"Multilevel coarsening bench — {inst['name']} (scale "
        f"{inst['scale']}: {inst['num_vertices']} cells, "
        f"{inst['num_nets']} nets, {inst['num_pins']} pins), "
        f"{result['num_starts']} start(s), pool size "
        f"{result['pool_size']}, {result['repeats']} repeat(s), "
        f"tolerance {result['tolerance']:g}",
        "",
        f"seed-oracle path: {result['best_baseline_seconds']:8.3f} s "
        f"(per-start hierarchy rebuild + frozen seed engines)",
        f"pooled kernels:   {result['best_pooled_seconds']:8.3f} s "
        f"({perf.get('hierarchies_built', '?')} built, "
        f"{perf.get('hierarchies_reused', '?')} reused, "
        f"{perf.get('coarsen_levels', '?')} level(s) total)",
        "",
        f"speedup: {result['speedup']:.2f}x — per-start cuts "
        f"bit-identical: {'yes' if result['equivalent'] else 'NO'}",
        f"best cut: {result['best_cut']:g} over cuts "
        f"{[int(c) if float(c).is_integer() else c for c in result['cuts']]}",
    ]
    for bname, col in (result.get("backends") or {}).items():
        lines.append(
            f"  backend {bname:9s} {col['best_seconds']:8.3f} s "
            f"({col['speedup']:.2f}x vs pooled numpy, cuts "
            f"{'identical' if col['equivalent'] else 'DIVERGED'})"
        )
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Campaign orchestration plane (``repro bench orchestrate``)
# ----------------------------------------------------------------------
def _outcome_key(outcomes) -> List[tuple]:
    """Timing-free identity of an outcome stream (order included)."""
    return [
        (o.trial, o.status, o.heuristic, o.instance, o.seed, o.cut, o.legal)
        for o in outcomes
    ]


def bench_orchestrate(
    instance: str = "ibm01s",
    scale: int = 16,
    repeats: int = 3,
    num_starts: int = 48,
    workers: int = 2,
    pool_size: int = 1,
    seed: int = 0,
    tolerance: float = 0.1,
) -> Dict[str, object]:
    """Short-trial campaign: pre-PR worker pool vs the shm/batched pool.

    Baseline (frozen in :mod:`repro.orchestrate._seed_executor`): the
    PR-1 pool — full instance copies per worker, one task/result queue
    round-trip per trial, 50 ms poll granularity, re-pickled respawn
    payloads, and every multilevel trial rebuilding its coarsening
    hierarchy from scratch.  Subject: the production executor with the
    shared-memory instance plane, adaptively batched dispatch and sticky
    per-worker hierarchy caches (``pool_size`` hierarchies per
    (heuristic, instance) block).

    The workload is the short-trial regime the orchestrator exists for:
    a coarsening-dominated multilevel configuration (no refinement
    passes, single initial start) running ``num_starts`` independent
    starts, where per-trial dispatch overhead and repeated coarsening
    dominate.  Campaigns with heavier refinement see proportionally
    less benefit — sticky caches only remove the coarsening share.

    Equivalence is two exact record-stream comparisons, both required:

    * transport/batching change nothing — the subject executor with the
      sticky cache *off* reproduces the frozen pool's outcome stream
      bit for bit, which also pins the shm attach path;
    * sticky parallel ≡ sticky serial — the timed sticky pool run
      reproduces an inline run under the same policy bit for bit
      (hierarchy selection keys on the trial's start index, never on
      worker identity).

    Timings are end-to-end wall clock per campaign; reported times are
    minima over ``repeats`` with baseline and subject interleaved.
    """
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    if num_starts < 1:
        raise ValueError("num_starts must be >= 1")
    if workers < 1:
        raise ValueError("workers must be >= 1")

    hg = suite_instance(instance, scale=scale)
    instances = {instance: hg}
    config = MLConfig(refine_passes=0, initial_starts=1)
    heuristics = {
        "ml-fast": MLPartitioner(config, tolerance=tolerance, name="ml-fast")
    }
    trials = [
        TrialPlan(
            index=i,
            heuristic="ml-fast",
            instance=instance,
            seed=seed + i,
            start=i,
        )
        for i in range(num_starts)
    ]

    seed_policy = SeedExecutionPolicy(workers=workers)
    plain_policy = ExecutionPolicy(workers=workers)
    sticky_policy = ExecutionPolicy(
        workers=workers, sticky_cache=True, sticky_pool_size=pool_size
    )
    sticky_inline = ExecutionPolicy(
        sticky_cache=True, sticky_pool_size=pool_size
    )

    base_secs: List[float] = []
    subj_secs: List[float] = []
    base_key: List[tuple] = []
    subj_key: List[tuple] = []
    equivalent = True
    for rep in range(repeats):
        t0 = time.perf_counter()
        base_out = seed_execute_trials(
            trials, heuristics, instances, policy=seed_policy
        )
        base_secs.append(time.perf_counter() - t0)

        t0 = time.perf_counter()
        subj_out = execute_trials(
            trials, heuristics, instances, policy=sticky_policy
        )
        subj_secs.append(time.perf_counter() - t0)

        kb, ks = _outcome_key(base_out), _outcome_key(subj_out)
        if rep == 0:
            base_key, subj_key = kb, ks
        # Deterministic across repeats (each stream equals its first).
        equivalent = equivalent and kb == base_key and ks == subj_key

    # Transport equivalence: new executor minus the sticky cache must
    # reproduce the frozen pool's stream exactly (shm + batching are
    # pure transport).  Sticky equivalence: the timed parallel sticky
    # stream must equal an inline run under the same policy.  The extra
    # pool run also collects perf counters (untimed — collection adds
    # wire weight the timed runs don't carry).
    plain_out = execute_trials(
        trials, heuristics, instances, policy=plain_policy
    )
    inline_out = execute_trials(
        trials, heuristics, instances, policy=sticky_inline
    )
    perf_totals: Dict[str, PerfCounters] = {}
    perf_out = execute_trials(
        trials,
        heuristics,
        instances,
        policy=sticky_policy,
        perf_totals=perf_totals,
    )
    transport_equivalent = _outcome_key(plain_out) == base_key
    sticky_equivalent = (
        _outcome_key(inline_out) == subj_key
        and _outcome_key(perf_out) == subj_key
    )
    equivalent = equivalent and transport_equivalent and sticky_equivalent

    best_base = min(base_secs)
    best_subj = min(subj_secs)
    speedup = best_base / best_subj if best_subj > 0 else float("inf")
    perf = perf_totals.get("ml-fast", PerfCounters())
    cuts = [k[5] for k in subj_key]
    return {
        "benchmark": "orchestrate",
        "instance": {
            "name": instance,
            "scale": scale,
            "num_vertices": hg.num_vertices,
            "num_nets": hg.num_nets,
            "num_pins": hg.num_pins,
        },
        "repeats": repeats,
        "num_starts": num_starts,
        "workers": workers,
        "pool_size": pool_size,
        "seed": seed,
        "tolerance": tolerance,
        "shared_memory": shm_available(),
        "baseline_seconds": base_secs,
        "subject_seconds": subj_secs,
        "best_baseline_seconds": best_base,
        "best_subject_seconds": best_subj,
        "speedup": speedup,
        "equivalent": equivalent,
        "transport_equivalent": transport_equivalent,
        "sticky_equivalent": sticky_equivalent,
        "cuts": cuts,
        "best_cut": min(cuts),
        "perf": perf.as_dict(),
    }


def render_orchestrate_bench(result: Dict[str, object]) -> str:
    """Human-readable summary for one :func:`bench_orchestrate` result."""
    inst = result["instance"]
    perf = result.get("perf") or {}
    lines = [
        f"Campaign orchestration bench — {inst['name']} (scale "
        f"{inst['scale']}: {inst['num_vertices']} cells, "
        f"{inst['num_nets']} nets, {inst['num_pins']} pins), "
        f"{result['num_starts']} trial(s), {result['workers']} worker(s), "
        f"sticky pool size {result['pool_size']}, "
        f"{result['repeats']} repeat(s), shared memory "
        f"{'on' if result['shared_memory'] else 'OFF (pickling fallback)'}",
        "",
        f"pre-PR pool:       {result['best_baseline_seconds']:8.3f} s "
        f"(instance copies per worker, per-trial dispatch, "
        f"hierarchy rebuilt every trial)",
        f"shm/batched pool:  {result['best_subject_seconds']:8.3f} s "
        f"({perf.get('hierarchies_built', '?')} hierarchies built, "
        f"{perf.get('hierarchies_reused', '?')} reused)",
        "",
        f"speedup: {result['speedup']:.2f}x — records bit-identical: "
        f"{'yes' if result['equivalent'] else 'NO'} "
        f"(transport {'ok' if result['transport_equivalent'] else 'FAIL'}, "
        f"sticky {'ok' if result['sticky_equivalent'] else 'FAIL'})",
        f"best cut: {result['best_cut']:g}",
    ]
    return "\n".join(lines)


# ----------------------------------------------------------------------
# K-way / scenario campaign plane (``repro bench kway``)
# ----------------------------------------------------------------------
def _scenario_outcome_key(outcomes) -> List[tuple]:
    """Timing-free identity of an outcome stream *including* the k and
    objective stamps the scenario layer threads through the executor."""
    return [
        (
            o.trial,
            o.status,
            o.heuristic,
            o.instance,
            o.seed,
            o.cut,
            o.legal,
            o.k,
            o.objective,
        )
        for o in outcomes
    ]


def bench_kway(
    instance: str = "ibm01s",
    scale: int = 16,
    repeats: int = 3,
    num_starts: int = 4,
    workers: int = 2,
    seed: int = 0,
    tolerance: float = 0.1,
    ks: Sequence[int] = (2, 4, 8),
) -> Dict[str, object]:
    """Scenario-campaign bench: k-way + terminal-propagation workloads
    through every execution plane, gated on record equivalence.

    The workload is the PR's scenario layer end to end: recursive
    bisection at each ``k`` under the connectivity ((lambda - 1))
    objective plus one terminal-propagation placement scenario, each
    run ``num_starts`` independent starts on one suite instance.

    Unlike the other benches, the headline here is not a speedup (the
    pool's scaling is ``bench orchestrate``'s story) but the
    determinism contract for the new workloads, checked exactly:

    * **plane equivalence** — serial inline, the worker pool, unit
      batching and the sticky-cache policy must all produce
      bit-identical outcome streams, including the per-trial
      ``k``/``objective`` stamps;
    * **per-scenario balance gate** — for every ``k``, the part
      weights of a fresh partition must satisfy the documented k-way
      balance window ``total/k * (1 +- t*k/(2(k-1)))``, and every
      journaled outcome must carry ``legal=True``.

    The serial-vs-pool timing is reported for trend-watching; the gate
    never keys on it.
    """
    from repro.evaluation.scenarios import (
        Scenario,
        ScenarioHeuristic,
        balance_for,
        kway_axes,
    )

    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    if num_starts < 1:
        raise ValueError("num_starts must be >= 1")
    if workers < 1:
        raise ValueError("workers must be >= 1")

    hg = suite_instance(instance, scale=scale)
    instances = {instance: hg}
    adapters = kway_axes(
        ks=tuple(ks), objective="connectivity", tolerance=tolerance
    ) + [
        ScenarioHeuristic(
            Scenario(kind="terminal-propagation", objective="hpwl",
                     tolerance=tolerance)
        )
    ]
    heuristics = {a.name: a for a in adapters}
    trials = [
        TrialPlan(
            index=i,
            heuristic=name,
            instance=instance,
            seed=seed + s,
            start=s,
        )
        for i, (name, s) in enumerate(
            (name, s) for name in heuristics for s in range(num_starts)
        )
    ]

    serial_policy = ExecutionPolicy()
    pool_policy = ExecutionPolicy(workers=workers)
    batched_policy = ExecutionPolicy(workers=workers, batch_size=1)
    sticky_policy = ExecutionPolicy(
        workers=workers, sticky_cache=True, sticky_pool_size=2
    )

    base_secs: List[float] = []
    subj_secs: List[float] = []
    serial_key: List[tuple] = []
    pool_key: List[tuple] = []
    equivalent = True
    for rep in range(repeats):
        t0 = time.perf_counter()
        serial_out = execute_trials(
            trials, heuristics, instances, policy=serial_policy
        )
        base_secs.append(time.perf_counter() - t0)

        t0 = time.perf_counter()
        pool_out = execute_trials(
            trials, heuristics, instances, policy=pool_policy
        )
        subj_secs.append(time.perf_counter() - t0)

        kb, kp = (
            _scenario_outcome_key(serial_out),
            _scenario_outcome_key(pool_out),
        )
        if rep == 0:
            serial_key, pool_key = kb, kp
        equivalent = equivalent and kb == serial_key and kp == pool_key

    plane_equivalent: Dict[str, bool] = {
        "pool": pool_key == serial_key
    }
    for label, policy in (
        ("batched", batched_policy),
        ("sticky", sticky_policy),
    ):
        out = execute_trials(trials, heuristics, instances, policy=policy)
        plane_equivalent[label] = (
            _scenario_outcome_key(out) == serial_key
        )
    equivalent = equivalent and all(plane_equivalent.values())

    all_ok = all(k[1] == "ok" for k in serial_key)
    all_legal = all(k[6] for k in serial_key)

    # Per-scenario balance gate: fresh partitions at every k must land
    # inside the documented window (checked on actual part weights, not
    # just the adapter's own legal flag).
    balance_ok: Dict[str, bool] = {}
    for adapter in adapters:
        if adapter.scenario.kind != "kway":
            continue
        res = adapter.partition(hg, seed=seed)
        balance = balance_for(hg, adapter.scenario)
        part_weights = [0.0] * adapter.k
        for v, p in enumerate(res.assignment):
            part_weights[p] += hg.vertex_weight(v)
        balance_ok[adapter.name] = balance.is_legal(part_weights)
    legal = all_ok and all_legal and all(balance_ok.values())

    best_base = min(base_secs)
    best_subj = min(subj_secs)
    speedup = best_base / best_subj if best_subj > 0 else float("inf")
    best_by_heuristic = {
        name: min(k[5] for k in serial_key if k[2] == name)
        for name in heuristics
    }
    return {
        "benchmark": "kway",
        "instance": {
            "name": instance,
            "scale": scale,
            "num_vertices": hg.num_vertices,
            "num_nets": hg.num_nets,
            "num_pins": hg.num_pins,
        },
        "repeats": repeats,
        "num_starts": num_starts,
        "workers": workers,
        "seed": seed,
        "tolerance": tolerance,
        "ks": list(ks),
        "scenarios": [a.name for a in adapters],
        "shared_memory": shm_available(),
        "baseline_seconds": base_secs,
        "subject_seconds": subj_secs,
        "best_baseline_seconds": best_base,
        "best_subject_seconds": best_subj,
        "speedup": speedup,
        "equivalent": equivalent,
        "plane_equivalent": plane_equivalent,
        "legal": legal,
        "balance_ok": balance_ok,
        "best_by_scenario": best_by_heuristic,
    }


def render_kway_bench(result: Dict[str, object]) -> str:
    """Human-readable summary for one :func:`bench_kway` result."""
    inst = result["instance"]
    planes = ", ".join(
        f"{name}:{'ok' if ok else 'FAIL'}"
        for name, ok in sorted(result["plane_equivalent"].items())
    )
    lines = [
        f"K-way scenario bench — {inst['name']} (scale "
        f"{inst['scale']}: {inst['num_vertices']} cells, "
        f"{inst['num_nets']} nets, {inst['num_pins']} pins), "
        f"k in {result['ks']}, {result['num_starts']} start(s)/scenario, "
        f"{result['workers']} worker(s), {result['repeats']} repeat(s), "
        f"shared memory "
        f"{'on' if result['shared_memory'] else 'OFF (pickling fallback)'}",
        "",
        f"serial inline:     {result['best_baseline_seconds']:8.3f} s",
        f"worker pool:       {result['best_subject_seconds']:8.3f} s "
        f"({result['speedup']:.2f}x, informational)",
        "",
        f"records bit-identical across planes: "
        f"{'yes' if result['equivalent'] else 'NO'} ({planes})",
        f"balance windows honored at every k: "
        f"{'yes' if result['legal'] else 'NO'}",
    ]
    for name, cut in sorted(result["best_by_scenario"].items()):
        lines.append(f"  best {name:32s} {cut:g}")
    return "\n".join(lines)


def bench_backends(
    instance: str = "ibm01s",
    scale: int = 16,
    repeats: int = 5,
    seed: int = 0,
    tolerance: float = 0.1,
    configs: Optional[Sequence[str]] = None,
    max_passes: int = 4,
    floor: float = 5.0,
) -> Dict[str, object]:
    """Compiled-backend acceptance gate on the fused FM pass kernel.

    Times the production interpreted engine (``backend="numpy"``)
    against every registered backend on an ibm-scale synthetic
    instance, with a recorded move-for-move comparison per (config,
    backend) so a column is only reported fast *and* bit-identical.
    Activation cost (JIT compile / C build + self-check) is paid before
    timing and reported per backend as ``compile_seconds``.

    The gate: the best available *compiled* backend (``compiled`` in
    its registry status — numba's JIT or cnative's C build, never the
    interpreted flatref reference) must reach ``floor``x geomean
    speedup over the interpreted engine while staying equivalent.  When
    no compiled backend is available (numpy-only install), the gate is
    reported as skipped with the recorded per-backend reasons rather
    than failed — the registry's fallback contract.
    """
    from repro.backends import backend_status, get_backend, warmup

    names = list(configs) if configs else list(BENCH_CONFIGS)
    for name in names:
        if name not in BENCH_CONFIGS:
            raise ValueError(
                f"unknown bench config {name!r}; valid: "
                f"{', '.join(BENCH_CONFIGS)}"
            )
    if repeats < 1:
        raise ValueError("repeats must be >= 1")

    # Activate everything first: compile cost must not leak into the
    # timed runs, and the status table should show every outcome.
    status = backend_status()
    available = [s["name"] for s in status
                 if s["available"] and s["name"] != "numpy"]
    for bname in available:
        warmup(bname)

    hg = suite_instance(instance, scale=scale)
    bal = BalanceConstraint(hg.total_vertex_weight, tolerance)
    base = Partition2.random_balanced(hg, bal, random.Random(seed))

    out_configs: Dict[str, Dict[str, object]] = {}
    per_backend_speedups: Dict[str, List[float]] = {b: [] for b in available}
    all_equivalent = True
    for name in names:
        cfg = BENCH_CONFIGS[name].with_options(max_passes=max_passes)

        # Reference run (recorded; not timed) on the interpreted engine.
        p_ref = base.copy()
        r_ref = FMEngine(
            bal, cfg, random.Random(1), record_moves=True, backend="numpy"
        ).refine(p_ref)

        numpy_secs: List[float] = []
        for _ in range(repeats):
            p = base.copy()
            eng = FMEngine(bal, cfg, random.Random(1), backend="numpy")
            t0 = time.perf_counter()
            eng.refine(p)
            numpy_secs.append(time.perf_counter() - t0)
        best_numpy = min(numpy_secs)

        cols: Dict[str, Dict[str, object]] = {}
        for bname in available:
            p_b = base.copy()
            r_b = FMEngine(
                bal, cfg, random.Random(1), record_moves=True,
                backend=bname,
            ).refine(p_b)
            b_equiv = _equivalent(r_ref, r_b, p_ref, p_b)
            all_equivalent = all_equivalent and b_equiv
            b_secs: List[float] = []
            for _ in range(repeats):
                p = base.copy()
                eng_b = FMEngine(bal, cfg, random.Random(1), backend=bname)
                t0 = time.perf_counter()
                eng_b.refine(p)
                b_secs.append(time.perf_counter() - t0)
            best_b = min(b_secs)
            b_speed = best_numpy / best_b if best_b > 0 else float("inf")
            per_backend_speedups[bname].append(b_speed)
            cols[bname] = {
                "seconds": b_secs,
                "best_seconds": best_b,
                "speedup": b_speed,
                "equivalent": b_equiv,
            }
        out_configs[name] = {
            "numpy_seconds": numpy_secs,
            "best_numpy_seconds": best_numpy,
            "final_cut": r_ref.final_cut,
            "total_moves": r_ref.total_moves,
            "backends": cols,
        }

    speedups = {
        bname: math.exp(sum(math.log(s) for s in ss) / len(ss))
        for bname, ss in per_backend_speedups.items()
        if ss
    }

    # Gate on the best available compiled backend.
    compiled = [s["name"] for s in status
                if s["available"] and s["compiled"]]
    gate: Dict[str, object] = {"floor": floor}
    if compiled:
        gate_backend = max(compiled, key=lambda b: speedups.get(b, 0.0))
        gate_equivalent = all(
            out_configs[name]["backends"][gate_backend]["equivalent"]
            for name in names
        )
        gate.update(
            backend=gate_backend,
            speedup=speedups[gate_backend],
            equivalent=gate_equivalent,
            passed=bool(
                gate_equivalent and speedups[gate_backend] >= floor
            ),
            skipped=False,
        )
    else:
        gate.update(
            backend=None,
            speedup=None,
            equivalent=None,
            passed=None,
            skipped=True,
            skip_reason="no compiled backend available: " + "; ".join(
                f"{s['name']}: {s['reason']}" for s in status
                if not s["available"]
            ),
        )

    return {
        "benchmark": "backends",
        "instance": {
            "name": instance,
            "scale": scale,
            "num_vertices": hg.num_vertices,
            "num_nets": hg.num_nets,
            "num_pins": hg.num_pins,
        },
        "repeats": repeats,
        "seed": seed,
        "tolerance": tolerance,
        "max_passes": max_passes,
        "status": status,
        "configs": out_configs,
        "speedups": speedups,
        "equivalent": all_equivalent,
        "gate": gate,
    }


def render_backends_bench(result: Dict[str, object]) -> str:
    """Human-readable summary for one :func:`bench_backends` result."""
    inst = result["instance"]
    lines = [
        f"Backend registry gate — {inst['name']} (scale {inst['scale']}: "
        f"{inst['num_vertices']} cells, {inst['num_nets']} nets, "
        f"{inst['num_pins']} pins), {result['repeats']} repeat(s), "
        f"tolerance {result['tolerance']:g}",
        "",
        f"{'backend':9s} {'available':>9s} {'compiled':>8s} "
        f"{'compile (s)':>11s}  reason",
    ]
    for s in result["status"]:
        lines.append(
            f"{s['name']:9s} {'yes' if s['available'] else 'no':>9s} "
            f"{'yes' if s['compiled'] else 'no':>8s} "
            f"{s['compile_seconds']:11.3f}  {s['reason']}"
        )
    lines.append("")
    lines.append(
        f"{'config':8s} {'backend':9s} {'best (s)':>10s} "
        f"{'vs numpy':>9s}  equivalent"
    )
    for name, c in result["configs"].items():
        lines.append(
            f"{name:8s} {'numpy':9s} {c['best_numpy_seconds']:10.4f} "
            f"{'1.00x':>9s}  (reference)"
        )
        for bname, col in c["backends"].items():
            lines.append(
                f"{name:8s} {bname:9s} {col['best_seconds']:10.4f} "
                f"{col['speedup']:8.2f}x  "
                f"{'yes' if col['equivalent'] else 'NO'}"
            )
    lines.append("")
    gate = result["gate"]
    if gate.get("skipped"):
        lines.append(
            f"gate SKIPPED (floor {gate['floor']:g}x): "
            f"{gate['skip_reason']}"
        )
    else:
        lines.append(
            f"gate [{gate['backend']}]: {gate['speedup']:.2f}x geomean "
            f"vs the interpreted engine (floor {gate['floor']:g}x), "
            f"move-for-move equivalent: "
            f"{'yes' if gate['equivalent'] else 'NO'} — "
            f"{'PASSED' if gate['passed'] else 'FAILED'}"
        )
    return "\n".join(lines)


# ----------------------------------------------------------------------
# One-shot summary (``repro bench all``)
# ----------------------------------------------------------------------
#: (target, runner, renderer) for ``bench_all``; runners use reduced
#: parameters so the full suite stays minutes-not-hours while every
#: equivalence verdict still gets exercised.
def _bench_all_targets(quick: bool):
    if quick:
        return (
            ("fm", lambda: bench_fm_kernel(repeats=1)),
            ("ml", lambda: bench_ml_coarsen(repeats=1, num_starts=4)),
            ("eval", lambda: bench_eval_bootstrap(
                num_records=2000, tau_points=8, num_shuffles=20,
                repeats=1)),
            ("orchestrate", lambda: bench_orchestrate(
                scale=32, repeats=1, num_starts=12)),
            ("kway", lambda: bench_kway(
                scale=32, repeats=1, num_starts=2)),
            ("backends", lambda: bench_backends(scale=32, repeats=2)),
        )
    return (
        ("fm", bench_fm_kernel),
        ("ml", bench_ml_coarsen),
        ("eval", bench_eval_bootstrap),
        ("orchestrate", bench_orchestrate),
        ("kway", bench_kway),
        ("backends", bench_backends),
    )


def bench_all(quick: bool = True) -> Dict[str, object]:
    """Run every bench target and collect one summary.

    ``quick`` (the default) shrinks each target's workload so the whole
    suite finishes in CI-friendly time; the per-target equivalence
    verdicts are still real (they compare full runs, just smaller
    ones).  ``quick=False`` runs every target at its own defaults.

    The summary's ``equivalent`` is the conjunction of every target's
    verdict; the backend gate's pass/fail rides separately (``quick``
    workloads are too small to hold the gate to its floor, so
    ``bench_all`` reports the gate but never fails on it).
    """
    results: Dict[str, Dict[str, object]] = {}
    seconds: Dict[str, float] = {}
    for name, runner in _bench_all_targets(quick):
        t0 = time.perf_counter()
        results[name] = runner()
        seconds[name] = time.perf_counter() - t0
    return {
        "benchmark": "all",
        "quick": quick,
        "results": results,
        "bench_seconds": seconds,
        "equivalent": all(
            r.get("equivalent", True) for r in results.values()
        ),
    }


def render_all_bench(result: Dict[str, object]) -> str:
    """One-table summary for :func:`bench_all`."""
    lines = [
        "Bench suite summary"
        + (" (quick workloads)" if result["quick"] else ""),
        "",
        f"{'target':12s} {'baseline (s)':>12s} {'subject (s)':>12s} "
        f"{'speedup':>8s} {'bench (s)':>10s}  equivalent",
    ]
    base_keys = (
        "best_seed_seconds", "best_baseline_seconds", "best_oracle_seconds",
        "best_numpy_seconds",
    )
    subj_keys = (
        "best_kernel_seconds", "best_pooled_seconds", "best_subject_seconds",
    )

    def pick(r: Dict[str, object], keys) -> Optional[float]:
        for k in keys:
            if k in r:
                return r[k]  # type: ignore[return-value]
        return None

    for name, r in result["results"].items():
        if name == "backends":
            # baseline = interpreted engine, subject = gate backend
            gate = r["gate"]
            base = min(
                c["best_numpy_seconds"] for c in r["configs"].values()
            )
            subj = None
            speed = gate.get("speedup")
            if gate.get("backend"):
                subj = min(
                    c["backends"][gate["backend"]]["best_seconds"]
                    for c in r["configs"].values()
                )
        elif name == "fm":
            # per-config times: sum them (flat + clip, one pass each)
            base = sum(
                c["best_seed_seconds"] for c in r["configs"].values()
            )
            subj = sum(
                c["best_kernel_seconds"] for c in r["configs"].values()
            )
            speed = r.get("speedup")
        else:
            base = pick(r, base_keys)
            subj = pick(r, subj_keys)
            speed = r.get("speedup")
        base_s = f"{base:12.3f}" if base is not None else f"{'—':>12s}"
        subj_s = f"{subj:12.3f}" if subj is not None else f"{'—':>12s}"
        speed_s = f"{speed:7.2f}x" if speed else f"{'—':>8s}"
        lines.append(
            f"{name:12s} {base_s} {subj_s} {speed_s} "
            f"{result['bench_seconds'][name]:10.1f}  "
            f"{'yes' if r.get('equivalent', True) else 'NO'}"
        )
    lines.append("")
    gate = result["results"].get("backends", {}).get("gate", {})
    if gate:
        if gate.get("skipped"):
            lines.append(f"backend gate: skipped — {gate['skip_reason']}")
        else:
            lines.append(
                f"backend gate [{gate['backend']}]: "
                f"{gate['speedup']:.2f}x (floor {gate['floor']:g}x, "
                f"informational at quick scale)"
            )
    lines.append(
        "all record/statistic streams bit-identical: "
        + ("yes" if result["equivalent"] else "NO")
    )
    return "\n".join(lines)
