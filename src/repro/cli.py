"""Command-line interface.

The subcommands mirror a practitioner's workflow::

    python -m repro stats     circuit.hgr
    python -m repro generate  --cells 2000 --seed 7 -o circuit.hgr
    python -m repro partition circuit.hgr --engine ml-clip --tolerance 0.02 \
                              --starts 4 -o circuit.part.2
    python -m repro evaluate  circuit.hgr --starts 10
    python -m repro campaign  run circuit.hgr --starts 20 --workers 4 \
                              --store-dir campaigns --progress
    python -m repro campaign  resume campaigns/campaign
    python -m repro campaign  status campaigns/campaign
    python -m repro campaign  report campaigns/campaign
    python -m repro campaign  report campaigns/campaign --live --follow

``partition`` accepts both hMetis ``.hgr`` and ISPD98 ``.netD`` (with
optional ``--are``) inputs, writes an hMetis-style solution file, and
prints cut / balance / runtime.  ``evaluate`` runs the engine ladder and
prints the traditional table plus the non-dominated frontier — the
Section 3.2 reporting discipline from the shell.  ``campaign`` drives
the :mod:`repro.orchestrate` subsystem: parallel workers, a crash-safe
per-trial journal, resume after a kill, and live progress.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.baselines import WeakFM
from repro.core import FMConfig, FMPartitioner, run_multistart
from repro.core.kway import RecursiveBisection
from repro.evaluation import (
    frontier_from_records,
    run_trials,
    summary_by_heuristic,
)
from repro.hypergraph import (
    Hypergraph,
    hypergraph_stats,
    read_hgr,
    read_netd,
    write_hgr,
)
from repro.hypergraph.io_fix import read_fix
from repro.hypergraph.io_solution import write_solution
from repro.instances import generate_circuit
from repro.multilevel import MLConfig, MLPartitioner

ENGINES = ("flat-lifo", "flat-clip", "ml-lifo", "ml-clip", "weak")


def _load(path: str, are: Optional[str]) -> Hypergraph:
    if path.endswith((".netD", ".netd", ".net")):
        return read_netd(path, are)
    return read_hgr(path)


def _make_engine(engine: str, tolerance: float):
    if engine == "flat-lifo":
        return FMPartitioner(tolerance=tolerance, name="Flat LIFO FM")
    if engine == "flat-clip":
        return FMPartitioner(
            FMConfig(clip=True), tolerance=tolerance, name="Flat CLIP FM"
        )
    if engine == "ml-lifo":
        return MLPartitioner(tolerance=tolerance, name="ML LIFO FM")
    if engine == "ml-clip":
        return MLPartitioner(
            MLConfig(fm_config=FMConfig(clip=True)),
            tolerance=tolerance,
            name="ML CLIP FM",
        )
    if engine == "weak":
        return WeakFM(tolerance=tolerance)
    raise ValueError(f"unknown engine {engine!r}")


# ----------------------------------------------------------------------
def cmd_stats(args: argparse.Namespace) -> int:
    hg = _load(args.input, args.are)
    print(hg)
    print(hypergraph_stats(hg).summary())
    return 0


def cmd_generate(args: argparse.Namespace) -> int:
    hg = generate_circuit(
        args.cells, seed=args.seed, unit_areas=args.unit_areas
    )
    write_hgr(hg, args.output)
    print(f"wrote {args.output}: {hg}")
    return 0


def cmd_partition(args: argparse.Namespace) -> int:
    hg = _load(args.input, args.are)
    fixed = read_fix(args.fix, hg) if args.fix else None
    if args.k > 2:
        if fixed is not None:
            raise ValueError("--fix is only supported for 2-way partitioning")
        tol = args.tolerance
        rb = RecursiveBisection(
            args.k,
            tolerance=tol,
            partitioner_factory=lambda t: _make_engine(args.engine, t),
        )
        result = rb.partition(hg, seed=args.seed)
        print(
            f"k={args.k} cut={result.cut:g} "
            f"connectivity={result.connectivity:g} "
            f"max_imbalance={result.max_imbalance():.3f} "
            f"time={result.runtime_seconds:.2f}s"
        )
        assignment = result.assignment
    else:
        engine = _make_engine(args.engine, args.tolerance)
        ms = run_multistart(
            engine, hg, args.starts, base_seed=args.seed, fixed_parts=fixed
        )
        assignment = ms.best_assignment
        print(
            f"{engine.name}: best cut {ms.min_cut:g} over {args.starts} "
            f"start(s) (avg {ms.avg_cut:.1f}), "
            f"total time {ms.total_runtime:.2f}s"
        )
    if args.output:
        write_solution(assignment, args.output, hg, k=args.k)
        print(f"wrote {args.output}")
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    hg = _load(args.input, args.are)
    engines = [
        _make_engine(name, args.tolerance)
        for name in ("flat-lifo", "flat-clip", "ml-lifo", "ml-clip")
    ]
    records = run_trials(engines, {args.input: hg}, args.starts,
                         base_seed=args.seed)
    print(summary_by_heuristic(records))
    print("\nNon-dominated (avg cut, avg time) frontier:")
    for p in frontier_from_records(records):
        print(f"  {p.label:28s} cost={p.cost:9.1f}  time={p.time:.4f}s")
    return 0


def _campaign_spec(args: argparse.Namespace):
    """Engine-ladder campaign spec shared by ``report`` and
    ``campaign run``."""
    from pathlib import Path

    from repro.evaluation import CampaignSpec

    hg = _load(args.input, args.are)
    engines = [
        _make_engine(name, args.tolerance)
        for name in ("flat-lifo", "flat-clip", "ml-lifo", "ml-clip")
    ]
    return CampaignSpec(
        name=args.name,
        heuristics=engines,
        instances={Path(args.input).name: hg},
        num_starts=args.starts,
        base_seed=args.seed,
    )


def cmd_report(args: argparse.Namespace) -> int:
    """Run a full campaign on one instance and save records + report."""
    from repro.evaluation import run_campaign

    result = run_campaign(_campaign_spec(args))
    out = result.save(args.output_dir, num_shuffles=args.num_shuffles)
    print(result.report(num_shuffles=args.num_shuffles))
    print(f"\nsaved records and report under {out}")
    return 0


# ----------------------------------------------------------------------
def _parse_backends(value: Optional[str]):
    """``--backends`` flag value -> list for the bench sweep (None =
    every available backend, empty string = skip the sweep)."""
    if value is None:
        return None
    names = [b.strip() for b in value.split(",") if b.strip()]
    return names


def cmd_bench_fm(args: argparse.Namespace) -> int:
    """FM kernel microbenchmark vs the frozen seed engine.

    Prints a table, writes machine-readable JSON, and (with
    ``--min-speedup``) acts as a regression gate: exit code 1 when the
    kernel is slower than required or diverges move-for-move.
    """
    from repro.bench import bench_fm_kernel, render_fm_bench, write_fm_bench_json

    configs = [c.strip() for c in args.configs.split(",") if c.strip()]
    result = bench_fm_kernel(
        instance=args.instance,
        scale=args.scale,
        repeats=args.repeats,
        seed=args.seed,
        tolerance=args.tolerance,
        configs=configs,
        max_passes=args.max_passes,
        backends=_parse_backends(args.backends),
    )
    print(render_fm_bench(result))
    write_fm_bench_json(result, args.output)
    print(f"\nwrote {args.output}")
    if not result["equivalent"]:
        print("error: kernel is NOT move-for-move equivalent to the seed",
              file=sys.stderr)
        return 1
    if args.min_speedup and result["speedup"] < args.min_speedup:
        print(
            f"error: speedup {result['speedup']:.2f}x below required "
            f"{args.min_speedup:g}x",
            file=sys.stderr,
        )
        return 1
    return 0


def cmd_bench_ml(args: argparse.Namespace) -> int:
    """Multilevel coarsening/pooling bench vs the frozen seed-oracle path.

    Prints a summary, writes machine-readable JSON, and gates: exit
    code 1 when the pooled kernel path is below ``--min-speedup`` or
    any per-start cut diverges from the oracle baseline.
    """
    from repro.bench import bench_ml_coarsen, render_ml_bench, write_bench_json

    result = bench_ml_coarsen(
        instance=args.instance,
        scale=args.scale,
        repeats=args.repeats,
        num_starts=args.num_starts,
        pool_size=args.pool_size,
        seed=args.seed,
        tolerance=args.tolerance,
        clip=args.clip,
        backends=_parse_backends(args.backends),
    )
    print(render_ml_bench(result))
    write_bench_json(result, args.output)
    print(f"\nwrote {args.output}")
    if not result["equivalent"]:
        print(
            "error: pooled kernel cuts diverged from the seed-oracle path",
            file=sys.stderr,
        )
        return 1
    if args.min_speedup and result["speedup"] < args.min_speedup:
        print(
            f"error: speedup {result['speedup']:.2f}x below required "
            f"{args.min_speedup:g}x",
            file=sys.stderr,
        )
        return 1
    return 0


def cmd_bench_eval(args: argparse.Namespace) -> int:
    """Evaluation-bootstrap bench vs the frozen pure-Python oracle.

    Prints a summary, writes machine-readable JSON, and gates: exit
    code 1 when the vectorized engine is below ``--min-speedup`` or any
    bootstrap statistic diverges from the oracle.
    """
    from repro.bench import bench_eval_bootstrap, render_eval_bench, write_bench_json

    result = bench_eval_bootstrap(
        num_records=args.records,
        num_heuristics=args.heuristics,
        tau_points=args.taus,
        num_shuffles=args.shuffles,
        repeats=args.repeats,
        seed=args.seed,
        backends=_parse_backends(args.backends),
    )
    print(render_eval_bench(result))
    write_bench_json(result, args.output)
    print(f"\nwrote {args.output}")
    if not result["equivalent"]:
        print(
            "error: vectorized bootstrap diverged from the frozen oracle",
            file=sys.stderr,
        )
        return 1
    if args.min_speedup and result["speedup"] < args.min_speedup:
        print(
            f"error: speedup {result['speedup']:.2f}x below required "
            f"{args.min_speedup:g}x",
            file=sys.stderr,
        )
        return 1
    return 0


def cmd_bench_orchestrate(args: argparse.Namespace) -> int:
    """Campaign orchestration bench vs the frozen pre-PR worker pool.

    Prints a summary, writes machine-readable JSON, and gates: exit
    code 1 when the shm/batched/sticky pool is below ``--min-speedup``
    or any record stream diverges (transport vs the frozen pool, sticky
    parallel vs sticky serial).
    """
    from repro.bench import (
        bench_orchestrate,
        render_orchestrate_bench,
        write_bench_json,
    )

    result = bench_orchestrate(
        instance=args.instance,
        scale=args.scale,
        repeats=args.repeats,
        num_starts=args.num_starts,
        workers=args.workers,
        pool_size=args.pool_size,
        seed=args.seed,
        tolerance=args.tolerance,
    )
    print(render_orchestrate_bench(result))
    write_bench_json(result, args.output)
    print(f"\nwrote {args.output}")
    if not result["equivalent"]:
        print(
            "error: orchestrated records diverged "
            f"(transport ok: {result['transport_equivalent']}, "
            f"sticky ok: {result['sticky_equivalent']})",
            file=sys.stderr,
        )
        return 1
    if args.min_speedup and result["speedup"] < args.min_speedup:
        print(
            f"error: speedup {result['speedup']:.2f}x below required "
            f"{args.min_speedup:g}x",
            file=sys.stderr,
        )
        return 1
    return 0


def cmd_bench_backends(args: argparse.Namespace) -> int:
    """Compiled-backend gate: registry backends vs the interpreted
    engine on the fused FM pass kernel.

    Prints the registry status + per-backend timing tables, writes
    machine-readable JSON, and gates: exit code 1 when any backend
    diverges move-for-move or the best compiled backend misses the
    speedup floor.  On a numpy-only install the gate is *skipped* (no
    compiled backend to hold to the floor) unless ``--require-compiled``
    insists.
    """
    from repro.bench import (
        bench_backends,
        render_backends_bench,
        write_bench_json,
    )

    configs = [c.strip() for c in args.configs.split(",") if c.strip()]
    result = bench_backends(
        instance=args.instance,
        scale=args.scale,
        repeats=args.repeats,
        seed=args.seed,
        tolerance=args.tolerance,
        configs=configs,
        max_passes=args.max_passes,
        floor=args.floor,
    )
    print(render_backends_bench(result))
    write_bench_json(result, args.output)
    print(f"\nwrote {args.output}")
    if not result["equivalent"]:
        print(
            "error: a backend is NOT move-for-move equivalent to the "
            "interpreted engine",
            file=sys.stderr,
        )
        return 1
    gate = result["gate"]
    if gate["skipped"]:
        if args.require_compiled:
            print(
                f"error: --require-compiled but {gate['skip_reason']}",
                file=sys.stderr,
            )
            return 1
        return 0
    if not gate["passed"]:
        print(
            f"error: gate backend {gate['backend']} at "
            f"{gate['speedup']:.2f}x is below the {gate['floor']:g}x floor",
            file=sys.stderr,
        )
        return 1
    return 0


def cmd_bench_all(args: argparse.Namespace) -> int:
    """Run every bench target and print one summary table.

    Gates only on the equivalence verdicts (every target's records and
    statistics must be bit-identical); speedup floors stay with the
    individual targets, whose workloads are sized for them.
    """
    from repro.bench import bench_all, render_all_bench, write_bench_json

    result = bench_all(quick=not args.full)
    print(render_all_bench(result))
    if args.output:
        write_bench_json(result, args.output)
        print(f"\nwrote {args.output}")
    if not result["equivalent"]:
        print(
            "error: a bench target reported non-equivalent results",
            file=sys.stderr,
        )
        return 1
    return 0


#: One-line description per bench target, shown by bare ``repro bench``.
BENCH_TARGETS = (
    ("fm", "FM kernel vs the frozen seed engine (move-for-move gate)"),
    ("ml", "multilevel coarsening + hierarchy pool vs the seed-oracle path"),
    ("eval", "vectorized evaluation bootstrap vs the pure-Python oracle"),
    ("orchestrate", "campaign orchestration plane vs the frozen worker pool"),
    ("kway", "k-way + terminal-propagation scenarios across every "
             "execution plane"),
    ("backends", "compiled kernel backends vs the interpreted engine "
                 "(bit-identity + speedup-floor gate)"),
    ("all", "every target once, one summary table"),
)


def cmd_bench_list(args: argparse.Namespace) -> int:
    """Bare ``repro bench``: list the available targets and exit 0."""
    print("available bench targets (repro bench <target> --help):")
    for name, desc in BENCH_TARGETS:
        print(f"  {name:12s} {desc}")
    return 0


def cmd_bench_kway(args: argparse.Namespace) -> int:
    """K-way / terminal-propagation scenario bench across every
    execution plane.

    Prints a summary, writes machine-readable JSON, and gates: exit
    code 1 when any plane's record stream diverges from serial inline
    or any k violates its documented balance window.  The serial-vs-
    pool speedup is informational only.
    """
    from repro.bench import bench_kway, render_kway_bench, write_bench_json

    ks = tuple(int(k.strip()) for k in args.ks.split(",") if k.strip())
    result = bench_kway(
        instance=args.instance,
        scale=args.scale,
        repeats=args.repeats,
        num_starts=args.num_starts,
        workers=args.workers,
        seed=args.seed,
        tolerance=args.tolerance,
        ks=ks,
    )
    print(render_kway_bench(result))
    write_bench_json(result, args.output)
    print(f"\nwrote {args.output}")
    if not result["equivalent"]:
        print(
            "error: scenario records diverged across execution planes",
            file=sys.stderr,
        )
        return 1
    if not result["legal"]:
        print(
            "error: a scenario produced an illegal partition "
            "(balance window violated)",
            file=sys.stderr,
        )
        return 1
    return 0


# ----------------------------------------------------------------------
def _print_perf_totals(store) -> None:
    """Per-heuristic kernel counters aggregated across all workers
    (``perf.json``, campaign-cumulative across resumes)."""
    totals = store.load_perf()
    if not totals:
        return
    print("\nkernel work by heuristic (all workers):")
    for name, perf in sorted(totals.items()):
        print(f"  {name:28s} {perf.summary()}")


def _spec_from_jobspec_file(path: str):
    """Build the executable CampaignSpec from a declarative JobSpec JSON
    file (the same wire format the service's job API accepts), loading
    every declared instance source."""
    import json
    from pathlib import Path

    from repro.service.spec import JobSpec

    jobspec = JobSpec.from_json(
        json.loads(Path(path).read_text(encoding="utf-8"))
    )
    instances = {src.label: src.load() for src in jobspec.instances}
    return jobspec, jobspec.campaign_spec(instances)


def cmd_campaign_run(args: argparse.Namespace) -> int:
    """Orchestrated campaign: parallel workers + crash-safe journal."""
    from pathlib import Path

    from repro.orchestrate import ProgressPrinter, RunStore, orchestrate_campaign

    if args.spec and args.input:
        print("error: give either an input netlist or --spec, not both",
              file=sys.stderr)
        return 2
    if args.spec:
        _, spec = _spec_from_jobspec_file(args.spec)
        # The spec file is the single source of truth on resume — the
        # ladder flags (--tolerance/--starts/--seed/--name) are unused.
        cli_meta = {"spec_path": str(Path(args.spec).resolve())}
    elif args.input:
        spec = _campaign_spec(args)
        cli_meta = {
            "input": str(Path(args.input).resolve()),
            "are": str(Path(args.are).resolve()) if args.are else None,
            "tolerance": args.tolerance,
        }
    else:
        print("error: need an input netlist or --spec FILE",
              file=sys.stderr)
        return 2
    result = orchestrate_campaign(
        spec,
        store_dir=args.store_dir,
        workers=args.workers,
        timeout_seconds=args.timeout,
        max_retries=args.retries,
        batch_size=args.batch_size,
        sticky_cache=args.sticky_cache,
        sticky_pool_size=args.sticky_pool_size,
        use_shared_memory=not args.no_shared_memory,
        backend=args.backend,
        progress=ProgressPrinter() if args.progress else None,
        resume=args.resume,
        cli_meta=cli_meta,
    )
    report = result.report(num_shuffles=args.num_shuffles)
    print(report)
    out = Path(args.store_dir) / spec.name
    (out / "report.txt").write_text(report, encoding="utf-8")
    _print_perf_totals(RunStore(out))
    print(f"\njournal and report under {out}")
    return 0


def cmd_campaign_resume(args: argparse.Namespace) -> int:
    """Finish a killed/crashed campaign; journaled trials never rerun."""
    from pathlib import Path

    from repro.orchestrate import ProgressPrinter, RunStore, orchestrate_campaign

    store = RunStore(args.campaign_dir)
    meta = store.load_meta()
    cli = meta.get("cli")
    if not cli:
        raise ValueError(
            f"{store.meta_path} has no CLI metadata; this store was not "
            "created by `repro campaign run` and cannot be resumed from "
            "the command line"
        )
    if cli.get("spec_path"):
        _, spec = _spec_from_jobspec_file(cli["spec_path"])
    else:
        ns = argparse.Namespace(
            input=cli["input"],
            are=cli.get("are"),
            tolerance=cli.get("tolerance", 0.02),
            name=meta["name"],
            starts=meta["num_starts"],
            seed=meta["base_seed"],
        )
        spec = _campaign_spec(ns)
    result = orchestrate_campaign(
        spec,
        store_dir=Path(args.campaign_dir).parent,
        workers=args.workers,
        timeout_seconds=args.timeout,
        max_retries=args.retries,
        batch_size=args.batch_size,
        sticky_cache=args.sticky_cache,
        sticky_pool_size=args.sticky_pool_size,
        use_shared_memory=not args.no_shared_memory,
        backend=args.backend,
        progress=ProgressPrinter() if args.progress else None,
        resume=True,
    )
    report = result.report(num_shuffles=args.num_shuffles)
    print(report)
    (Path(args.campaign_dir) / "report.txt").write_text(
        report, encoding="utf-8"
    )
    _print_perf_totals(store)
    print(f"\njournal and report under {args.campaign_dir}")
    return 0


def cmd_campaign_status(args: argparse.Namespace) -> int:
    """Print journal progress of a (possibly running) campaign.

    The journal is read through the streaming
    :class:`~repro.evaluation.streaming.JournalTail`, so one invocation
    parses it exactly once, and ``--watch`` re-reads only the bytes
    appended since the previous check instead of the whole file.
    """
    import time

    from repro.evaluation.streaming import JournalTail
    from repro.orchestrate import RunStore

    store = RunStore(args.campaign_dir)
    meta = store.load_meta()
    tail = JournalTail(store)
    total = int(meta.get("total_trials", 0))

    def render() -> int:
        tail.poll()
        outcomes = tail.outcomes()
        done = len(outcomes)
        ok = sum(1 for o in outcomes if o.ok)
        print(f"campaign:  {meta['name']}")
        print(f"spec hash: {meta['spec_hash']}")
        print(
            f"trials:    {done}/{total or done} journaled "
            f"({ok} ok, {done - ok} errors, "
            f"{max(total - done, 0)} remaining)"
        )
        best = {}
        for o in outcomes:
            if o.ok and (o.instance not in best or o.cut < best[o.instance]):
                best[o.instance] = o.cut
        for inst, cut in sorted(best.items()):
            print(f"best cut:  {inst} = {cut:g}")
        for o in outcomes:
            if o.ok:
                continue
            first_line = (o.error or "").splitlines()[-1] if o.error else "?"
            print(
                f"error:     trial {o.trial} ({o.heuristic} on "
                f"{o.instance}, seed {o.seed}, {o.attempts} "
                f"attempt(s)): {first_line}"
            )
        return done

    done = render()
    while args.watch and done < total:
        time.sleep(args.interval)
        print()
        done = render()
    return 0


def cmd_campaign_report(args: argparse.Namespace) -> int:
    """Render the full Section 3.2 report from a campaign journal.

    ``--live`` renders from whatever trials have been journaled so far
    (a partially-written journal of a still-running campaign is fine;
    progress goes to stderr, the report to stdout).  ``--follow`` keeps
    tailing the journal, re-reporting progress as outcomes land, until
    every planned trial is journaled — the final report is identical to
    a post-hoc ``repro campaign report`` of the finished journal.
    """
    from repro.evaluation import CampaignResult
    from repro.orchestrate import RunStore

    store = RunStore(args.campaign_dir)
    if args.live or args.follow:
        from repro.evaluation.streaming import ReportBuilder, follow_report

        builder = ReportBuilder(store, num_shuffles=args.num_shuffles)
        if args.follow:
            text = follow_report(builder, interval=args.interval)
        else:
            builder.refresh()
            print(builder.status_line(), file=sys.stderr)
            text = builder.render()
        print(text)
    else:
        meta = store.load_meta()
        result = CampaignResult(
            spec_name=meta["name"],
            records=store.records(),
            alpha=meta.get("alpha", 0.05),
        )
        text = result.report(num_shuffles=args.num_shuffles)
        print(text)
    if args.output:
        from pathlib import Path

        Path(args.output).write_text(text, encoding="utf-8")
        print(f"\nwrote {args.output}")
    return 0


# ----------------------------------------------------------------------
# ----------------------------------------------------------------------
def cmd_serve(args: argparse.Namespace) -> int:
    """Run the persistent campaign service until interrupted."""
    import time

    from repro.service import CampaignService, ServiceHTTP

    service = CampaignService(
        args.dir,
        workers=args.workers,
        cache_capacity=args.cache_capacity,
        use_shared_memory=not args.no_shared_memory,
    )
    recovered = service.recover()
    for job_id in recovered:
        print(f"recovered {job_id}", file=sys.stderr)
    http = ServiceHTTP(service, host=args.host, port=args.port)
    http.start()
    print(f"serving on {http.url} (jobs under {args.dir}/jobs)",
          file=sys.stderr)
    try:
        while True:
            time.sleep(1.0)
    except KeyboardInterrupt:
        print("shutting down", file=sys.stderr)
    finally:
        http.stop()
        service.close()
    return 0


def _job_spec_from_args(args: argparse.Namespace):
    """A JobSpec from ``repro job submit`` flags: either ``--spec FILE``
    (the JSON wire form) or the inline single-instance shorthand."""
    import json as _json

    from repro.service import InstanceSource, JobSpec

    if args.spec:
        with open(args.spec, "r", encoding="utf-8") as f:
            return JobSpec.from_json(_json.load(f))
    if args.input:
        label = args.label or args.input.rsplit("/", 1)[-1].split(".")[0]
        source = InstanceSource(
            kind="file", label=label, path=args.input, are=args.are
        )
    elif args.suite:
        source = InstanceSource(
            kind="suite", label=args.label or args.suite,
            suite=args.suite, scale=args.scale,
        )
    elif args.cells:
        source = InstanceSource(
            kind="generate", label=args.label or f"gen{args.cells}",
            cells=args.cells, seed=args.gen_seed,
        )
    else:
        raise ValueError(
            "job submit needs --spec, --input, --suite or --cells"
        )
    return JobSpec(
        name=args.name,
        instances=[source],
        engines=args.engines.split(","),
        num_starts=args.starts,
        base_seed=args.seed,
        tolerance=args.tolerance,
        num_shuffles=args.num_shuffles,
        priority=args.priority,
        timeout_seconds=args.timeout,
        max_retries=args.retries,
        backend=args.backend,
    )


def _print_job_status(status: dict) -> None:
    line = (
        f"{status['job_id']}: {status['status']} "
        f"{status['done']}/{status['total']} trials "
        f"({status['ok']} ok, {status['errors']} errors, "
        f"priority {status['priority']})"
    )
    best = status.get("best") or {}
    if best:
        cuts = ", ".join(f"{k}={best[k]:g}" for k in sorted(best))
        line += f" best[{cuts}]"
    print(line)


def _watch_job(client, job_id: str, kind: str) -> None:
    for event in client.watch(job_id, kind=kind):
        name = event.get("event")
        if name == "status":
            print(
                f"[live] {job_id}: {event['done']}/{event['total']} "
                f"trials ({event['ok']} ok, {event['errors']} errors)"
            )
        elif name == "bsf":
            print(
                f"[bsf] {job_id}: trial {event['trial']} "
                f"{event['heuristic']} on {event['instance']} "
                f"cut {event['cut']:g}"
            )
        elif name == "report":
            print(event["report"])
        elif name == "end":
            print(f"[live] {job_id}: finished "
                  f"({event['done']}/{event['total']} trials journaled)")
            return


def cmd_job(args: argparse.Namespace) -> int:
    """Dispatch ``repro job <action>`` against a running service."""
    from repro.service import ServiceClient
    from repro.service.client import ServiceError

    client = ServiceClient(args.url)
    try:
        if args.job_command == "submit":
            spec = _job_spec_from_args(args)
            job_id = client.submit(spec)
            print(job_id)
            if args.wait:
                _watch_job(client, job_id, "status")
                status = client.status(job_id)
                _print_job_status(status)
                if status.get("report_path"):
                    print(f"report: {status['report_path']}")
                return 0 if status["status"] == "done" else 1
        elif args.job_command == "status":
            _print_job_status(client.status(args.job_id))
        elif args.job_command == "list":
            jobs = client.list()
            if not jobs:
                print("no jobs")
            for status in jobs:
                _print_job_status(status)
        elif args.job_command == "cancel":
            client.cancel(args.job_id)
            print(f"cancelled {args.job_id}")
        elif args.job_command == "pause":
            client.pause(args.job_id)
            print(f"paused {args.job_id}")
        elif args.job_command == "resume":
            client.resume(args.job_id)
            print(f"resumed {args.job_id}")
        elif args.job_command == "watch":
            _watch_job(client, args.job_id, args.kind)
    except ServiceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ConnectionRefusedError:
        print(
            f"error: no campaign service at {args.url} "
            "(start one with `repro serve`)",
            file=sys.stderr,
        )
        return 2
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="FM-based hypergraph partitioning for VLSI CAD "
        "(DAC 1999 methodology reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("stats", help="print instance statistics")
    p.add_argument("input")
    p.add_argument("--are", help=".are area file for .netD inputs")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("generate", help="generate a synthetic netlist")
    p.add_argument("--cells", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--unit-areas", action="store_true")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("partition", help="partition a netlist")
    p.add_argument("input")
    p.add_argument("--are", help=".are area file for .netD inputs")
    p.add_argument("--engine", choices=ENGINES, default="ml-lifo")
    p.add_argument("--tolerance", type=float, default=0.02)
    p.add_argument("--starts", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--fix", help="hMetis .fix file of fixed vertices")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_partition)

    p = sub.add_parser(
        "evaluate", help="compare the engine ladder on one instance"
    )
    p.add_argument("input")
    p.add_argument("--are")
    p.add_argument("--tolerance", type=float, default=0.02)
    p.add_argument("--starts", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser(
        "report",
        help="run a recorded campaign and save the full Section 3.2 report",
    )
    p.add_argument("input")
    p.add_argument("--are")
    p.add_argument("--name", default="campaign")
    p.add_argument("--tolerance", type=float, default=0.02)
    p.add_argument("--starts", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--num-shuffles", type=int, default=100)
    p.add_argument("--output-dir", default="campaigns")
    p.set_defaults(func=cmd_report)

    p = sub.add_parser(
        "bench",
        help="microbenchmarks with machine-readable regression output",
    )
    p.set_defaults(func=cmd_bench_list)
    bsub = p.add_subparsers(dest="bench_command")

    b = bsub.add_parser(
        "fm",
        help="FM kernel vs frozen seed engine (writes BENCH_fm_kernel.json)",
    )
    b.add_argument("--instance", default="ibm01s",
                   help="synthetic suite instance (default ibm01s)")
    b.add_argument("--scale", type=int, default=16,
                   help="suite scale divisor (default 16 = acceptance size)")
    b.add_argument("--repeats", type=int, default=3,
                   help="timed runs per engine per config (min is reported)")
    b.add_argument("--seed", type=int, default=0)
    b.add_argument("--tolerance", type=float, default=0.1)
    b.add_argument("--configs", default="flat,clip",
                   help="comma-separated kernel configs (flat,clip)")
    b.add_argument("--max-passes", type=int, default=4)
    b.add_argument("--backends", default=None,
                   help="comma-separated registry backends for the "
                   "per-backend columns (default: every available one; "
                   "pass '' to skip the sweep)")
    b.add_argument("--min-speedup", type=float, default=0.0,
                   help="fail (exit 1) below this geomean speedup")
    b.add_argument("-o", "--output", default="BENCH_fm_kernel.json")
    b.set_defaults(func=cmd_bench_fm)

    b = bsub.add_parser(
        "ml",
        help="multilevel coarsening kernel + hierarchy pool vs the frozen "
        "seed-oracle path (writes BENCH_ml_coarsen.json)",
    )
    b.add_argument("--instance", default="ibm01s",
                   help="synthetic suite instance (default ibm01s)")
    b.add_argument("--scale", type=int, default=16,
                   help="suite scale divisor (default 16 = acceptance size)")
    b.add_argument("--repeats", type=int, default=3,
                   help="multistart runs per path (min is reported)")
    b.add_argument("--num-starts", type=int, default=8,
                   help="starts per multistart run (acceptance: 8)")
    b.add_argument("--pool-size", type=int, default=2,
                   help="pooled hierarchies (default 2)")
    b.add_argument("--seed", type=int, default=0)
    b.add_argument("--tolerance", type=float, default=0.02)
    b.add_argument("--clip", action="store_true",
                   help="CLIP refinement instead of flat LIFO FM")
    b.add_argument("--backends", default=None,
                   help="comma-separated registry backends for extra "
                   "pooled-run columns (default: every available one; "
                   "pass '' to skip)")
    b.add_argument("--min-speedup", type=float, default=2.0,
                   help="fail (exit 1) below this end-to-end speedup "
                   "(default 2.0; pass 0 to disable the gate)")
    b.add_argument("-o", "--output", default="BENCH_ml_coarsen.json")
    b.set_defaults(func=cmd_bench_ml)

    b = bsub.add_parser(
        "eval",
        help="vectorized evaluation bootstrap vs the frozen pure-Python "
        "oracle (writes BENCH_eval_bootstrap.json)",
    )
    b.add_argument("--records", type=int, default=10000,
                   help="synthetic trial records in the workload "
                   "(default 10000 = acceptance size)")
    b.add_argument("--heuristics", type=int, default=2,
                   help="heuristics the records are split over (default 2)")
    b.add_argument("--taus", type=int, default=12,
                   help="tau grid points (default 12, the report default)")
    b.add_argument("--shuffles", type=int, default=50,
                   help="bootstrap shuffles per (heuristic, tau) (default 50)")
    b.add_argument("--repeats", type=int, default=3,
                   help="timed runs per path (min is reported)")
    b.add_argument("--seed", type=int, default=0)
    b.add_argument("--backends", default=None,
                   help="comma-separated registry backends for extra "
                   "bootstrap columns (default: every available one; "
                   "pass '' to skip)")
    b.add_argument("--min-speedup", type=float, default=10.0,
                   help="fail (exit 1) below this speedup "
                   "(default 10.0; pass 0 to disable the gate)")
    b.add_argument("-o", "--output", default="BENCH_eval_bootstrap.json")
    b.set_defaults(func=cmd_bench_eval)

    b = bsub.add_parser(
        "orchestrate",
        help="campaign orchestration plane vs the frozen pre-PR worker "
        "pool (writes BENCH_orchestrate.json)",
    )
    b.add_argument("--instance", default="ibm01s",
                   help="synthetic suite instance (default ibm01s)")
    b.add_argument("--scale", type=int, default=16,
                   help="suite scale divisor (default 16 = acceptance size)")
    b.add_argument("--repeats", type=int, default=3,
                   help="timed campaigns per pool (min is reported)")
    b.add_argument("--num-starts", type=int, default=48,
                   help="short trials in the campaign (default 48)")
    b.add_argument("--workers", type=int, default=2,
                   help="pool workers for both pools (default 2)")
    b.add_argument("--pool-size", type=int, default=1,
                   help="hierarchies per sticky cache block (default 1)")
    b.add_argument("--seed", type=int, default=0)
    b.add_argument("--tolerance", type=float, default=0.1)
    b.add_argument("--min-speedup", type=float, default=2.0,
                   help="fail (exit 1) below this end-to-end speedup "
                   "(default 2.0; pass 0 to disable the gate)")
    b.add_argument("-o", "--output", default="BENCH_orchestrate.json")
    b.set_defaults(func=cmd_bench_orchestrate)

    b = bsub.add_parser(
        "kway",
        help="k-way + terminal-propagation scenarios across every "
        "execution plane (writes BENCH_kway.json)",
    )
    b.add_argument("--instance", default="ibm01s",
                   help="suite or adversarial instance (default ibm01s)")
    b.add_argument("--scale", type=int, default=16,
                   help="instance scale divisor (default 16)")
    b.add_argument("--repeats", type=int, default=3,
                   help="timed campaign runs per plane (min is reported)")
    b.add_argument("--num-starts", type=int, default=4,
                   help="independent starts per scenario (default 4)")
    b.add_argument("--workers", type=int, default=2,
                   help="worker-pool size for the parallel planes "
                   "(default 2)")
    b.add_argument("--seed", type=int, default=0)
    b.add_argument("--tolerance", type=float, default=0.1)
    b.add_argument("--ks", default="2,4,8",
                   help="comma-separated k values (default 2,4,8)")
    b.add_argument("-o", "--output", default="BENCH_kway.json")
    b.set_defaults(func=cmd_bench_kway)

    b = bsub.add_parser(
        "backends",
        help="compiled kernel backends vs the interpreted engine "
        "(writes BENCH_backends.json)",
    )
    b.add_argument("--instance", default="ibm01s",
                   help="synthetic suite instance (default ibm01s)")
    b.add_argument("--scale", type=int, default=16,
                   help="suite scale divisor (default 16 = acceptance size)")
    b.add_argument("--repeats", type=int, default=5,
                   help="timed runs per backend per config (min is "
                   "reported)")
    b.add_argument("--seed", type=int, default=0)
    b.add_argument("--tolerance", type=float, default=0.1)
    b.add_argument("--configs", default="flat,clip",
                   help="comma-separated kernel configs (flat,clip)")
    b.add_argument("--max-passes", type=int, default=4)
    b.add_argument("--floor", type=float, default=5.0,
                   help="required geomean speedup of the best compiled "
                   "backend over the interpreted engine (default 5.0)")
    b.add_argument("--require-compiled", action="store_true",
                   help="fail instead of skipping the gate when no "
                   "compiled backend is available")
    b.add_argument("-o", "--output", default="BENCH_backends.json")
    b.set_defaults(func=cmd_bench_backends)

    b = bsub.add_parser(
        "all",
        help="run every bench target once and print one summary table",
    )
    b.add_argument("--full", action="store_true",
                   help="each target at its own default workload instead "
                   "of the quick sizes")
    b.add_argument("-o", "--output", default=None,
                   help="also write the combined JSON here")
    b.set_defaults(func=cmd_bench_all)

    p = sub.add_parser(
        "campaign",
        help="orchestrated campaigns: parallel, journaled, resumable",
    )
    csub = p.add_subparsers(dest="campaign_command", required=True)

    def add_dispatch_flags(c: argparse.ArgumentParser) -> None:
        """Pool dispatch knobs shared by ``run`` and ``resume``; none of
        them changes any record, only where the time goes."""
        c.add_argument(
            "--batch-size", type=int, default=None,
            help="trials per worker dispatch (default: adaptive from "
            "observed trial runtime)",
        )
        c.add_argument(
            "--sticky-cache", action="store_true",
            help="keep per-worker hierarchy pools so consecutive trials "
            "on one instance reuse coarsening (multilevel engines)",
        )
        c.add_argument(
            "--sticky-pool-size", type=int, default=2,
            help="hierarchies per sticky pool (default 2)",
        )
        c.add_argument(
            "--no-shared-memory", action="store_true",
            help="ship instances to workers by pickling instead of the "
            "shared-memory plane",
        )
        c.add_argument(
            "--backend", default=None,
            help="kernel backend for every trial (numpy, flatref, "
            "numba, cnative, cython, or auto = best available "
            "compiled); backends are selectable only when "
            "bit-identical, so records never change — unavailable "
            "backends fall back to numpy with the reason recorded",
        )

    c = csub.add_parser("run", help="run a campaign through the orchestrator")
    c.add_argument("input", nargs="?",
                   help="netlist file for an engine-ladder campaign "
                   "(omit when using --spec)")
    c.add_argument(
        "--spec",
        help="declarative JobSpec JSON (the service job wire format): "
        "instance sources + engines and/or k-way / terminal-propagation "
        "scenarios; supersedes the ladder flags",
    )
    c.add_argument("--are", help=".are area file for .netD inputs")
    c.add_argument("--name", default="campaign")
    c.add_argument("--tolerance", type=float, default=0.02)
    c.add_argument("--starts", type=int, default=10)
    c.add_argument("--seed", type=int, default=0)
    c.add_argument("--workers", type=int, default=1)
    c.add_argument(
        "--timeout", type=float, default=None,
        help="per-trial wall-clock timeout in seconds",
    )
    c.add_argument(
        "--retries", type=int, default=0,
        help="extra attempts per trial after a failure",
    )
    c.add_argument("--store-dir", default="campaigns")
    c.add_argument("--num-shuffles", type=int, default=100)
    c.add_argument(
        "--resume", action="store_true",
        help="continue an existing journal instead of refusing",
    )
    c.add_argument(
        "--progress", action="store_true",
        help="stream live progress events to stderr",
    )
    add_dispatch_flags(c)
    c.set_defaults(func=cmd_campaign_run)

    c = csub.add_parser(
        "resume", help="finish a killed campaign from its journal"
    )
    c.add_argument("campaign_dir")
    c.add_argument("--workers", type=int, default=1)
    c.add_argument("--timeout", type=float, default=None)
    c.add_argument("--retries", type=int, default=0)
    c.add_argument("--num-shuffles", type=int, default=100)
    c.add_argument("--progress", action="store_true")
    add_dispatch_flags(c)
    c.set_defaults(func=cmd_campaign_resume)

    c = csub.add_parser("status", help="print journal progress")
    c.add_argument("campaign_dir")
    c.add_argument(
        "--watch", action="store_true",
        help="keep printing status (incremental journal reads) until "
        "every planned trial is journaled",
    )
    c.add_argument(
        "--interval", type=float, default=2.0,
        help="poll interval in seconds for --watch (default 2)",
    )
    c.set_defaults(func=cmd_campaign_status)

    c = csub.add_parser(
        "report", help="render the report from a campaign journal "
        "(post-hoc, or live while the campaign is still running)"
    )
    c.add_argument("campaign_dir")
    c.add_argument("--num-shuffles", type=int, default=100)
    c.add_argument(
        "--live", action="store_true",
        help="render from the trials journaled so far, even mid-campaign",
    )
    c.add_argument(
        "--follow", action="store_true",
        help="keep tailing the journal until every planned trial lands, "
        "then render the final report (implies --live)",
    )
    c.add_argument(
        "--interval", type=float, default=2.0,
        help="poll interval in seconds for --follow (default 2)",
    )
    c.add_argument("-o", "--output")
    c.set_defaults(func=cmd_campaign_report)

    p = sub.add_parser(
        "serve",
        help="run the persistent campaign service (HTTP job API)",
    )
    p.add_argument("--dir", default="service",
                   help="service state directory (default ./service)")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8337)
    p.add_argument("--workers", type=int, default=2,
                   help="shared fleet size (default 2)")
    p.add_argument("--cache-capacity", type=int, default=8,
                   help="instances kept hot in the cross-campaign cache")
    p.add_argument("--no-shared-memory", action="store_true",
                   help="ship instances to workers by pickling instead "
                   "of the shared-memory plane")
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser(
        "job", help="submit to / inspect a running campaign service"
    )
    p.add_argument("--url", default="http://127.0.0.1:8337",
                   help="service endpoint (default http://127.0.0.1:8337)")
    jsub = p.add_subparsers(dest="job_command", required=True)

    j = jsub.add_parser("submit", help="submit a campaign job")
    j.add_argument("--spec", help="JobSpec JSON file (overrides all "
                   "inline instance/engine flags)")
    j.add_argument("--name", default="job")
    j.add_argument("--input", help="netlist file (.hgr / .netD)")
    j.add_argument("--are", help=".are area file for .netD inputs")
    j.add_argument("--suite", help="synthetic suite instance name")
    j.add_argument("--scale", type=int, default=16,
                   help="suite instance scale (default 16)")
    j.add_argument("--cells", type=int, default=0,
                   help="generate a synthetic netlist with this many cells")
    j.add_argument("--gen-seed", type=int, default=0,
                   help="generator seed for --cells")
    j.add_argument("--label", help="instance label in the campaign")
    j.add_argument("--engines", default="flat-lifo,ml-clip",
                   help="comma-separated engine ladder subset")
    j.add_argument("--starts", type=int, default=10)
    j.add_argument("--seed", type=int, default=0)
    j.add_argument("--tolerance", type=float, default=0.02)
    j.add_argument("--num-shuffles", type=int, default=100)
    j.add_argument("--priority", type=int, default=1,
                   help="fair-share weight relative to other jobs")
    j.add_argument("--timeout", type=float, default=None,
                   help="per-trial wall-clock timeout in seconds")
    j.add_argument("--retries", type=int, default=0)
    j.add_argument("--backend", default=None,
                   help="kernel backend for this job's trials (numpy, "
                   "flatref, numba, cnative, cython, auto); selectable "
                   "only when bit-identical, so records never change")
    j.add_argument("--wait", action="store_true",
                   help="follow the job and exit when it finishes")

    jsub.add_parser("list", help="list all jobs")
    for action in ("status", "cancel", "pause", "resume"):
        a = jsub.add_parser(action, help=f"{action} one job")
        a.add_argument("job_id")
    w = jsub.add_parser("watch", help="follow a job's live event stream")
    w.add_argument("job_id")
    w.add_argument("--kind", choices=("status", "bsf", "report"),
                   default="status")
    p.set_defaults(func=cmd_job)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
