"""Paper-scale end-to-end benchmark of the ``repro`` partitioner.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see ``BENCHMARK.json`` and ``perfbench/NOTES.md``):

``ml-ibm18``
    ml-lifo multilevel starts in one process on ibm18s (210,613 cells)
    with the best compiled backend (``REPRO_BACKEND=auto``).
``campaign-ladder``
    ``repro campaign run --spec ... --workers 2 --backend auto``: the
    flat/ML x LIFO/CLIP engine ladder on ibm01s and ibm02s, journal and
    rendered report, repeated with the same seeds.
``ml-ibm01-interp``
    ml-lifo starts on ibm01s pinned to the interpreted backend.

The inputs are generated from ``--seed`` before anything is timed (seed
0 reproduces the suite instances at ``scale=1``) and handed to the
program as ``.hgr`` files.  ``--seconds`` sizes the work: start and trial
counts are fixed multiples of it, so every run of one setting does the
same work.  ``--trace 0`` prints the end-to-end metrics; ``--trace 1``
runs the workload once untraced and once traced and prints the
per-layer metrics.  Every output is checked (see :mod:`checks`); the
last line of standard output is the JSON result.  Scratch files live
under ``.bench_build/perfbench`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import spans  # noqa: E402

TOLERANCE = 0.02
#: Start seeds of workload seed ``s`` begin at ``START_SEED_STRIDE * s``.
START_SEED_STRIDE = 1000
#: Per-process wall-clock limit for any child this benchmark starts.
CHILD_TIMEOUT = 170.0

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "start_s_p50": "s",
    "trials_per_s": "1/s",
    "peak_rss_mb": "MB",
    "best_cut": "nets",
}

#: ``quality.avg_cut`` is the mean cut over the starts or trials.  It is
#: deterministic per seed, but its spread across workload seeds (which
#: regenerate the instances) reaches 0.2-0.3 of its median on ibm01s, so
#: it is reported here, without a bound, instead of end to end.
PER_LAYER = {
    "quality.avg_cut": "nets",
    "hypergraph.read_hgr_s": "s",
    "hypergraph.from_csr_s": "s",
    "hypergraph.from_csr_calls": "count",
    "hypergraph.weight_fingerprint_s": "s",
    "hypergraph.weight_fingerprint_calls": "count",
    "multilevel.partition_s": "s",
    "multilevel.partition_self_s": "s",
    "multilevel.build_hierarchy_s": "s",
    "multilevel.levels": "count",
    "multilevel.match_s": "s",
    "multilevel.contract_s": "s",
    "multilevel.project_s": "s",
    "core.refine_s": "s",
    "core.refine_calls": "count",
    "core.passes": "count",
    "core.moves_applied": "count",
    "core.kept_ratio": "ratio",
    "core.gain_updates": "count",
    "core.partition_build_s": "s",
    "core.partition_builds": "count",
    "core.initial_s": "s",
    "backends.warmup_s": "s",
    "cli.import_s": "s",
    "orchestrate.first_outcome_s": "s",
    "orchestrate.worker_busy_frac": "ratio",
    "orchestrate.trial_s_p50": "s",
    "orchestrate.trial_s_p90": "s",
    "orchestrate.journal_append_s": "s",
    "orchestrate.journal_appends": "count",
    "orchestrate.worker_peak_rss_mb": "MB",
    "evaluation.report_s": "s",
    "evaluation.report_calls": "count",
    "evaluation.ranking_s": "s",
    "evaluation.wilcoxon_s": "s",
    "evaluation.records_load_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_frac": "ratio",
}

#: Layer span name -> (seconds metric, calls metric or None).
SPAN_METRICS = {
    "hypergraph.read_hgr": ("hypergraph.read_hgr_s", None),
    "hypergraph.from_csr": ("hypergraph.from_csr_s",
                            "hypergraph.from_csr_calls"),
    "hypergraph.weight_fingerprint": ("hypergraph.weight_fingerprint_s",
                                      "hypergraph.weight_fingerprint_calls"),
    "multilevel.partition": ("multilevel.partition_s", None),
    "multilevel.build_hierarchy": ("multilevel.build_hierarchy_s", None),
    "multilevel.match": ("multilevel.match_s", None),
    "multilevel.contract": ("multilevel.contract_s", None),
    "multilevel.project": ("multilevel.project_s", None),
    "core.refine": ("core.refine_s", "core.refine_calls"),
    "core.partition_build": ("core.partition_build_s",
                             "core.partition_builds"),
    "core.initial": ("core.initial_s", None),
    "backends.warmup": ("backends.warmup_s", None),
    "orchestrate.first_outcome": ("orchestrate.first_outcome_s", None),
    "orchestrate.journal_append": ("orchestrate.journal_append_s",
                                   "orchestrate.journal_appends"),
    "evaluation.report": ("evaluation.report_s", "evaluation.report_calls"),
    "evaluation.ranking": ("evaluation.ranking_s", None),
    "evaluation.wilcoxon": ("evaluation.wilcoxon_s", None),
    "evaluation.records_load": ("evaluation.records_load_s", None),
}

ENGINES = ("flat-lifo", "flat-clip", "ml-lifo", "ml-clip")

#: Seconds the calibration load takes at the reference speed (its median
#: on a quiet 2-vCPU Xeon VM with Python 3.11 and numpy 2.4).
REFERENCE_CALIBRATION_S = 0.26


class BenchError(RuntimeError):
    """The benchmark cannot produce a result (no metrics are printed)."""


@dataclass(frozen=True)
class MLWorkload:
    instance: str
    backend: str  #: REPRO_BACKEND for the partitioning process
    seconds_per_start: float  #: sizes the start count from --seconds
    min_starts: int
    setup_samples: int  #: processes whose set-up time is measured

    def starts(self, seconds: int) -> int:
        return max(self.min_starts, round(seconds / self.seconds_per_start))


@dataclass(frozen=True)
class CampaignWorkload:
    instances: Tuple[str, ...]
    workers: int
    repeats: int  #: identical campaigns per run (set-up samples)
    seconds_per_start: float  #: one ladder start on every instance

    def starts(self, seconds: int) -> int:
        per_repeat = seconds / self.repeats
        return max(2, round(per_repeat / self.seconds_per_start))


WORKLOADS = {
    "ml-ibm18": MLWorkload("ibm18s", "auto", 7.0, 2, 3),
    "campaign-ladder": CampaignWorkload(("ibm01s", "ibm02s"), 2, 3, 0.65),
    "ml-ibm01-interp": MLWorkload("ibm01s", "numpy", 1.0, 4, 5),
}


# ----------------------------------------------------------------------
# Processes
# ----------------------------------------------------------------------
@dataclass
class Context:
    workload: str
    seed: int
    seconds: int
    work: Path  #: per-run scratch directory (removed at the end)
    cache: Path  #: kept across runs of one checkout
    env: Dict[str, str]
    problems: List[str] = field(default_factory=list)
    source: str = ""  #: hash of the program source (see source_digest)
    backend: Optional[str] = None  #: resolved backend, for the metadata


def child_env(cache: Path) -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["REPRO_CNATIVE_CACHE"] = str(cache / "cnative")
    env.pop("REPRO_BACKEND", None)
    return env


def _become_subreaper() -> None:
    """Adopt orphaned descendants (Linux ``PR_SET_CHILD_SUBREAPER``), so
    workers that outlive the campaign supervisor can be waited for."""
    try:
        import ctypes

        ctypes.CDLL(None, use_errno=True).prctl(36, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass


def launch(ctx: Context, args: List[str], env=None) -> subprocess.Popen:
    """Start ``python ARGS`` as the leader of a new process group."""
    return subprocess.Popen(
        [sys.executable] + args, cwd=ROOT, env=env or ctx.env,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True,
    )


def finish(proc: subprocess.Popen, started: float, what: str) -> str:
    """Wait for ``proc`` and every process of its group; returns stdout.

    On timeout or failure the group is killed and BenchError raised."""
    try:
        out, err = proc.communicate(
            timeout=max(0.1, CHILD_TIMEOUT - (time.monotonic() - started))
        )
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        out, err = None, f"timed out after {CHILD_TIMEOUT:g}s"
    _stop_group(proc.pid)
    if out is None or proc.returncode != 0:
        raise BenchError(
            f"{what} failed (exit {proc.returncode}): {err.strip()[-2000:]}"
        )
    return out


def _stop_group(pgid: int, grace: float = 10.0) -> None:
    """Wait until no process of group ``pgid`` is left, reaping adopted
    orphans; after ``grace`` seconds kill the rest."""
    deadline = time.monotonic() + grace
    killed = False
    while True:
        try:
            while os.waitpid(-1, os.WNOHANG)[0]:
                pass
        except ChildProcessError:
            pass
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        if time.monotonic() > deadline:
            if killed:
                return  # only zombies this process cannot reap remain
            os.killpg(pgid, signal.SIGKILL)
            killed, deadline = True, time.monotonic() + 2.0
        time.sleep(0.01)


def run_child(ctx: Context, args: List[str], env=None) -> Tuple[float, str]:
    """Run ``python ARGS`` to completion; returns its launch stamp
    (``time.monotonic()``) and its stdout."""
    started = time.monotonic()
    proc = launch(ctx, args, env)
    return started, finish(proc, started, " ".join(args[:2]))


def generate(ctx: Context, names) -> Dict[str, dict]:
    _, out = run_child(
        ctx, [str(HERE / "gen.py"), str(ctx.work), str(ctx.seed), *names]
    )
    return json.loads(out.strip().splitlines()[-1])


def warm_backend(ctx: Context, backend: str) -> None:
    """Compile (once per source hash) and load the backend, and write
    the bytecode caches, outside any timed region."""
    run_child(ctx, ["-c", "import repro.backends as b; b.warmup(%r)" % backend])


def require_compiled(workload: str, backend: str, note: str) -> None:
    if backend == "numpy":
        raise BenchError(
            f"{workload} needs a compiled kernel backend but 'auto' "
            f"resolved to the interpreted engine ({note or 'no reason'}); "
            "timing it would measure a program several times slower"
        )


def import_probe(ctx: Context, backend: str, samples: int = 3
                 ) -> Tuple[float, float]:
    """Median seconds of ``import repro.cli`` and of backend activation
    (``repro.backends.warmup``) in fresh interpreters."""
    code = (
        "import time; t = time.perf_counter(); import repro.cli; "
        "a = time.perf_counter() - t; import repro.backends as b; "
        "t = time.perf_counter(); b.warmup(%r); "
        "print(a, time.perf_counter() - t)" % backend
    )
    imports, warmups = [], []
    for _ in range(samples):
        _, out = run_child(ctx, ["-c", code])
        a, w = out.split()
        imports.append(float(a))
        warmups.append(float(w))
    return statistics.median(imports), statistics.median(warmups)


def calibrate(rounds: int = 3) -> float:
    """Median seconds of a fixed Python and numpy load in this process.

    The shared host's speed drifts by tens of percent over minutes, and
    the load's time tracks the program's.  Every time metric is scaled
    to the reference speed by it -- the machine normalisation the paper
    asks for when CPU times are compared -- so runs made minutes apart
    stay comparable."""
    import random

    import numpy as np

    rng = random.Random(12345)
    data = [rng.random() for _ in range(100_000)]
    arr = np.array(data)
    times = []
    for _ in range(rounds):
        t0 = time.perf_counter()
        for _ in range(8):
            acc: Dict[int, float] = {}
            for i, x in enumerate(data):
                acc[i & 4095] = acc.get(i & 4095, 0.0) + x
            ordered = sorted(data)
            doubled = [0.0] * len(ordered)
            for i in range(len(ordered)):
                doubled[i] = ordered[i] * 2
            a = arr
            for _ in range(10):
                a = np.sort(a * 1.000001)
            np.add.reduceat(arr[np.argsort(arr)], np.arange(0, arr.size, 7))
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def normalise(metrics: dict, units: Dict[str, str], speed: float) -> dict:
    """Scale times (``s``) and rates (``1/s``) to the reference speed;
    ``speed`` is the calibration time over the reference one."""
    scale = {"s": 1 / speed, "1/s": speed}
    return {name: metrics[name] * scale[unit] if unit in scale
            else metrics[name] for name, unit in units.items()}


# ----------------------------------------------------------------------
# Multilevel workloads
# ----------------------------------------------------------------------
def ml_process(ctx: Context, wl: MLWorkload, starts: int, tag: str,
               trace: bool = False) -> dict:
    """One partitioning process; a probe (``starts`` 0) only sets up."""
    import numpy as np

    out = ctx.work / f"{tag}.json"
    npy = ctx.work / f"{tag}.npy"
    args = [
        str(HERE / "ml_child.py"), str(ctx.work / f"{wl.instance}.hgr"),
        str(starts), str(START_SEED_STRIDE * ctx.seed), str(TOLERANCE),
        str(out), "--assignments", str(npy),
    ]
    if trace:
        args += ["--trace", str(ctx.work / f"{tag}.spans.json")]
    env = dict(ctx.env, REPRO_BACKEND=wl.backend)
    started, _ = run_child(ctx, args, env=env)
    result = json.loads(out.read_text(encoding="utf-8"))
    result["setup_s"] = result["ready"] - started
    result["wall_s"] = result["done"] - started
    if starts:
        if wl.backend == "auto":
            require_compiled(ctx.workload, result["backend"],
                             result["fallback_note"])
        ctx.backend = result["backend"]
        result["assignments"] = np.load(npy)
    if trace:
        result["trace"] = json.loads(
            (ctx.work / f"{tag}.spans.json").read_text(encoding="utf-8")
        )
    return result


def results_record(ctx: Context) -> Path:
    """Where runs of this workload, seed and program source record their
    cuts, so a later run can check that a seed's cut did not change."""
    return (ctx.cache / "results"
            / f"{ctx.workload}-seed{ctx.seed}-{ctx.source}.json")


def check_ml(ctx: Context, wl: MLWorkload, result: dict) -> int:
    """Number of failed starts; problems are appended to ``ctx``."""
    failed = set()
    inst = checks.read_hgr(ctx.work / f"{wl.instance}.hgr")
    for rec, assignment in zip(result["starts"], result["assignments"]):
        problems = checks.check_start(
            inst, TOLERANCE, assignment, rec["cut"], rec["part_weights"],
            rec["legal"],
        )
        if problems:
            failed.add(rec["seed"])
            ctx.problems += [f"start seed {rec['seed']}: {p}" for p in problems]
    cuts = {str(r["seed"]): r["cut"] for r in result["starts"]}
    record = results_record(ctx)
    for seed in checks.differing_results(record, cuts):
        failed.add(int(seed))
        ctx.problems.append(f"start seed {seed}: cut differs between runs")
    return len(failed)


def ml_end_to_end(ctx: Context, wl: MLWorkload) -> Tuple[dict, int, int]:
    starts = wl.starts(ctx.seconds)
    probes = [
        ml_process(ctx, wl, 0, f"probe{i}")["setup_s"]
        for i in range(wl.setup_samples - 1)
    ]
    main = ml_process(ctx, wl, starts, "main")
    failed = check_ml(ctx, wl, main)
    seconds = [r["seconds"] for r in main["starts"]]
    cuts = [r["cut"] for r in main["starts"]]
    metrics = {
        "setup_s": statistics.median(probes + [main["setup_s"]]),
        "wall_s": main["wall_s"],
        "start_s_p50": statistics.median(seconds),
        "trials_per_s": starts / (main["done"] - main["ready"]),
        "peak_rss_mb": main["peak_rss_kb"] / 1024.0,
        "best_cut": min(cuts),
    }
    return metrics, starts, failed


def ml_per_layer(ctx: Context, wl: MLWorkload) -> Tuple[dict, int, int]:
    starts = wl.starts(ctx.seconds)
    plain = ml_process(ctx, wl, starts, "plain")
    traced = ml_process(ctx, wl, starts, "traced", trace=True)
    failed = check_ml(ctx, wl, plain) + check_ml(ctx, wl, traced)
    metrics = span_metrics(traced["trace"])
    metrics["quality.avg_cut"] = statistics.fmean(
        r["cut"] for r in plain["starts"]
    )
    metrics["cli.import_s"], _ = import_probe(ctx, wl.backend)
    metrics["trace.wall_s"] = traced["wall_s"]
    metrics["trace.overhead_frac"] = traced["wall_s"] / plain["wall_s"] - 1
    print_split(metrics, starts)
    return metrics, 2 * starts, failed


def span_metrics(dump: dict) -> dict:
    """Per-layer metrics from the spans and counts of one traced process
    (layers it never called read 0)."""
    recorded = dump["spans"]
    metrics = {name: 0.0 for name in PER_LAYER}
    for span_name, (secs, calls) in SPAN_METRICS.items():
        metrics[secs] = spans.inclusive_seconds(recorded, span_name)
        if calls:
            metrics[calls] = len(spans.outermost(recorded, span_name))
    own = spans.self_seconds(recorded)
    metrics["multilevel.partition_self_s"] = sum(
        own[s["id"]] for s in recorded if s["name"] == "multilevel.partition"
    )
    counts = dump["counts"]
    metrics["multilevel.levels"] = counts.get("multilevel.levels", 0)
    for name in ("passes", "moves_applied", "gain_updates"):
        metrics[f"core.{name}"] = counts.get(f"core.{name}", 0)
    applied = counts.get("core.moves_applied", 0)
    metrics["core.kept_ratio"] = (
        counts.get("core.moves_kept", 0) / applied if applied else 0.0
    )
    return metrics


def print_split(metrics: dict, starts: int) -> None:
    """Human-readable split of a start's time in raw seconds (not part of
    the result)."""
    total = metrics["multilevel.partition_s"]
    if not total:
        return
    parts = [
        ("coarsen", metrics["multilevel.build_hierarchy_s"]),
        ("refine", metrics["core.refine_s"]),
        ("Partition2 build", metrics["core.partition_build_s"]),
        ("glue (partition self time)", metrics["multilevel.partition_self_s"]),
    ]
    line = ", ".join(f"{n} {v / starts:.3f}s ({100 * v / total:.0f}%)"
                     for n, v in parts)
    print(f"per start ({total / starts:.3f}s): {line}; "
          f"read once {metrics['hypergraph.read_hgr_s']:.3f}s")


# ----------------------------------------------------------------------
# Campaign workload
# ----------------------------------------------------------------------
def write_spec(ctx: Context, wl: CampaignWorkload, starts: int) -> Path:
    spec = {
        "name": "ladder",
        "instances": [
            {"kind": "file", "label": name,
             "path": str(ctx.work / f"{name}.hgr")}
            for name in wl.instances
        ],
        "engines": list(ENGINES),
        "num_starts": starts,
        "base_seed": START_SEED_STRIDE * ctx.seed,
        "tolerance": TOLERANCE,
    }
    path = ctx.work / "ladder.json"
    path.write_text(json.dumps(spec, indent=1), encoding="utf-8")
    return path


def campaign_process(ctx: Context, wl: CampaignWorkload, spec: Path,
                     tag: str, trace: bool = False) -> dict:
    """One ``repro campaign run``.  Untraced, the journal is polled for
    its first line to time set-up: the first trial became ready when it
    was appended minus its own runtime."""
    store = ctx.work / tag
    res_path = ctx.work / f"{tag}.rusage.json"
    args = [str(HERE / "cli_child.py"), str(res_path)]
    if trace:
        args += ["--trace", str(ctx.work / f"{tag}.spans.json")]
    args += ["--", "campaign", "run", "--spec", str(spec),
             "--workers", str(wl.workers), "--backend", "auto",
             "--store-dir", str(store)]
    journal = store / "ladder" / "journal.jsonl"
    launch_wall, started = time.time(), time.monotonic()
    proc = launch(ctx, args)
    first_seen = None
    while not trace and proc.poll() is None:
        if journal.exists() and journal.stat().st_size:
            first_seen = time.monotonic()
            break
        if time.monotonic() - started > CHILD_TIMEOUT:
            break
        time.sleep(0.005)
    finish(proc, started, f"campaign {tag}")
    ended = time.monotonic()
    entries = checks.read_journal(journal)
    result = {
        "entries": entries,
        "wall_s": ended - started,
        "rusage": json.loads(res_path.read_text(encoding="utf-8")),
        "perf": json.loads(
            (store / "ladder" / "perf.json").read_text(encoding="utf-8")
        ),
    }
    if not trace:
        if first_seen is None:
            raise BenchError(f"campaign {tag}: no journal line appeared")
        ready = first_seen - entries[0]["runtime_seconds"]
        last_append = journal.stat().st_mtime - launch_wall + started
        result["setup_s"] = ready - started
        result["exec_s"] = last_append - ready
    if trace:
        result["trace"] = json.loads(
            (ctx.work / f"{tag}.spans.json").read_text(encoding="utf-8")
        )
    return result


def check_campaign(ctx: Context, run: dict, planned: int,
                   reference: Optional[Dict[str, float]]) -> int:
    """Failed trials of one campaign run; ``reference`` is the digest of
    an earlier run with the same seeds (None for the first)."""
    entries = run["entries"]
    backends = sorted({p.get("backend") for p in run["perf"].values()})
    if any(b in (None, "numpy") for b in backends):
        raise BenchError(
            f"campaign ran on backend(s) {backends}; 'auto' must resolve "
            "to a compiled backend"
        )
    ctx.backend = ",".join(backends)
    problems = checks.check_journal(entries, planned)
    ctx.problems += problems
    bad = {e["trial"] for e in entries
           if e.get("status") != "ok" or e.get("legal") is not True}
    if any("not journaled" in p or "more than once" in p
           or "unplanned" in p for p in problems):
        bad = set(range(planned))
    digest = {checks.trial_key(e): e.get("cut") for e in entries}
    if reference is not None:
        for e in entries:
            if reference.get(checks.trial_key(e)) != e.get("cut"):
                bad.add(e["trial"])
                ctx.problems.append(
                    f"trial {e['trial']}: cut differs between repeats"
                )
    record = results_record(ctx)
    differing = set(checks.differing_results(record, digest))
    for e in entries:
        if checks.trial_key(e) in differing:
            bad.add(e["trial"])
            ctx.problems.append(
                f"trial {e['trial']}: cut differs from an earlier run"
            )
    return len(bad)


def campaign_end_to_end(ctx: Context, wl: CampaignWorkload
                        ) -> Tuple[dict, int, int]:
    starts = wl.starts(ctx.seconds)
    spec = write_spec(ctx, wl, starts)
    planned = starts * len(ENGINES) * len(wl.instances)
    runs, failed, reference = [], 0, None
    for r in range(wl.repeats):
        run = campaign_process(ctx, wl, spec, f"repeat{r}")
        failed += check_campaign(ctx, run, planned, reference)
        if reference is None:
            reference = {checks.trial_key(e): e.get("cut")
                         for e in run["entries"]}
        runs.append(run)
    first = runs[0]["entries"]
    best = {}
    for e in first:
        best[e["instance"]] = min(best.get(e["instance"], e["cut"]), e["cut"])
    metrics = {
        "setup_s": statistics.median(r["setup_s"] for r in runs),
        "wall_s": statistics.median(r["wall_s"] for r in runs),
        # Trial runtimes cluster by (engine, instance); a median over all
        # of them falls between two clusters.  One cluster, the ml-lifo
        # starts on the largest instance, gives a stable median.
        "start_s_p50": statistics.median(
            e["runtime_seconds"] for r in runs for e in r["entries"]
            if e["heuristic"] == "ML LIFO FM"
            and e["instance"] == wl.instances[-1]
        ),
        "trials_per_s": sum(len(r["entries"]) for r in runs)
        / sum(r["exec_s"] for r in runs),
        "peak_rss_mb": statistics.median(
            r["rusage"]["peak_rss_kb"] for r in runs
        ) / 1024.0,
        "best_cut": sum(best.values()),
    }
    return metrics, planned * wl.repeats, failed


def campaign_per_layer(ctx: Context, wl: CampaignWorkload
                       ) -> Tuple[dict, int, int]:
    starts = wl.starts(ctx.seconds)
    spec = write_spec(ctx, wl, starts)
    planned = starts * len(ENGINES) * len(wl.instances)
    plain = campaign_process(ctx, wl, spec, "plain")
    failed = check_campaign(ctx, plain, planned, None)
    reference = {checks.trial_key(e): e.get("cut") for e in plain["entries"]}
    traced = campaign_process(ctx, wl, spec, "traced", trace=True)
    failed += check_campaign(ctx, traced, planned, reference)

    metrics = span_metrics(traced["trace"])
    metrics["quality.avg_cut"] = statistics.fmean(
        e["cut"] for e in plain["entries"]
    )
    runtimes = sorted(e["runtime_seconds"] for e in traced["entries"])
    execute = spans.inclusive_seconds(traced["trace"]["spans"],
                                      "orchestrate.execute_trials")
    deciles = statistics.quantiles(runtimes, n=10)
    metrics["orchestrate.trial_s_p50"] = statistics.median(runtimes)
    metrics["orchestrate.trial_s_p90"] = deciles[8]
    metrics["orchestrate.worker_busy_frac"] = (
        sum(runtimes) / (wl.workers * execute) if execute else 0.0
    )
    metrics["orchestrate.worker_peak_rss_mb"] = (
        traced["rusage"]["children_peak_rss_kb"] / 1024.0
    )
    # Trial-internal work: the deterministic count fields of perf.json.
    perf = traced["perf"].values()
    total = {f: sum(p.get(f, 0) for p in perf)
             for f in ("passes", "moves_applied", "moves_kept",
                       "gain_updates", "coarsen_levels")}
    metrics["multilevel.levels"] = total["coarsen_levels"]
    for name in ("passes", "moves_applied", "gain_updates"):
        metrics[f"core.{name}"] = total[name]
    metrics["core.kept_ratio"] = (
        total["moves_kept"] / total["moves_applied"]
        if total["moves_applied"] else 0.0
    )
    metrics["cli.import_s"], metrics["backends.warmup_s"] = import_probe(
        ctx, "auto"
    )
    metrics["trace.wall_s"] = traced["wall_s"]
    metrics["trace.overhead_frac"] = traced["wall_s"] / plain["wall_s"] - 1
    return metrics, 2 * planned, failed


# ----------------------------------------------------------------------
# Driver
# ----------------------------------------------------------------------
def source_digest() -> str:
    """SHA-256 over the program's source files (the checkout has no git
    metadata, so this identifies the code that was measured)."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".c"):
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def commit() -> Optional[str]:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def metadata(ctx: Context, instances: Dict[str, dict]) -> dict:
    import numpy

    return {
        "workload": ctx.workload,
        "workload_seed": ctx.seed,
        "seconds": ctx.seconds,
        "scale": 1,
        "instances": instances,
        "backend": ctx.backend,
        "host": platform.node(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "commit": commit(),
        "source_sha256": ctx.source,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def run(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        raise BenchError(
            f"no program source at {ROOT / 'src' / 'repro'}; run from a "
            "checkout of the repository"
        )
    wl = WORKLOADS[workload]
    base = ROOT / ".bench_build" / "perfbench"
    work = base / f"run-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    ctx = Context(workload, seed, seconds, work, base, child_env(base),
                  source=source_digest())
    _become_subreaper()
    try:
        names = (wl.instance,) if isinstance(wl, MLWorkload) else wl.instances
        instances = generate(ctx, names)
        warm_backend(ctx, wl.backend if isinstance(wl, MLWorkload) else "auto")
        if isinstance(wl, MLWorkload):
            step = ml_per_layer if trace else ml_end_to_end
        else:
            step = campaign_per_layer if trace else campaign_end_to_end
        before = calibrate()
        metrics, attempted, failed = step(ctx, wl)
        after = calibrate()
        units = PER_LAYER if trace else END_TO_END
        speed = (before + after) / 2 / REFERENCE_CALIBRATION_S
        meta = metadata(ctx, instances)
        meta["calibration_s"] = [before, after]
        meta["speed_factor"] = speed
        (base / f"last-{workload}{'-trace' if trace else ''}.json").write_text(
            json.dumps({"meta": meta, "raw_metrics": metrics,
                        "problems": ctx.problems}, indent=1),
            encoding="utf-8",
        )
        metrics = normalise(metrics, units, speed)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("meta " + json.dumps(meta, sort_keys=True))
    for problem in ctx.problems:
        print(f"problem: {problem}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in units.items()
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
