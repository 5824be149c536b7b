"""In-memory span recorder for the benchmark's traced runs.

A traced child process calls :func:`install_partitioning` or
:func:`install_campaign` before it drives the program.  Each replaces a
fixed list of public functions with wrappers that record one span per
call: name, start, end and the span that was open when the call began
(its parent).  Each wrapper is set
where the caller looks the name up (a class attribute, or the module
global a caller imported by name), so the program runs unchanged.

Only functions called once per level, per start or per trial are
wrapped -- never once per move or per net -- so tracing adds a few
microseconds per call.  Counts that a function returns (FM pass and
move counts, hierarchy depth) are read off its result, never from
``PerfCounters`` seconds fields.  Spans stay in memory until
:meth:`Tracer.dump` writes them out at the end of the run.
"""

from __future__ import annotations

import functools
import json
import time
from typing import Callable, Dict, List, Optional

#: PerfCounters count fields summed from every FMEngine.refine result.
FM_COUNT_FIELDS = ("passes", "moves_applied", "moves_kept", "gain_updates")


class Tracer:
    """Records spans and counts of one process (single-threaded use)."""

    def __init__(self) -> None:
        self.spans: List[dict] = []
        self.counts: Dict[str, int] = {}
        self._stack: List[int] = []

    # -- recording ------------------------------------------------------
    def begin(self, name: str) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(
            {"id": sid, "name": name, "parent": parent,
             "start": time.perf_counter(), "end": None}
        )
        self._stack.append(sid)
        return sid

    def end(self, sid: int) -> None:
        self.spans[sid]["end"] = time.perf_counter()
        popped = self._stack.pop()
        if popped != sid:
            raise RuntimeError(f"span {sid} closed out of order")

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + int(n)

    def traced(self, name: str, fn: Callable,
               on_result: Optional[Callable] = None) -> Callable:
        """``fn`` wrapped in a span named ``name``."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(sid)
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    # -- patching -------------------------------------------------------
    def patch(self, owner, attr: str, name: str,
              on_result: Optional[Callable] = None) -> None:
        """Replace ``owner.attr`` with a traced wrapper.

        Methods are read from the class ``__dict__`` so a classmethod
        stays a classmethod.
        """
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(
            owner, attr
        )
        if isinstance(raw, classmethod):
            new = classmethod(self.traced(name, raw.__func__, on_result))
        else:
            new = self.traced(name, raw, on_result)
        setattr(owner, attr, new)

    # -- output ---------------------------------------------------------
    def dump(self, path: str) -> None:
        open_spans = [s["id"] for s in self.spans if s["end"] is None]
        if open_spans:
            raise RuntimeError(f"spans still open at dump: {open_spans}")
        with open(path, "w", encoding="utf-8") as f:
            json.dump({"spans": self.spans, "counts": self.counts}, f)


# ----------------------------------------------------------------------
# Patch sets: one per workload kind
# ----------------------------------------------------------------------
def install_partitioning(tracer: Tracer) -> None:
    """Wrap the layers a multilevel start runs through."""
    import repro.backends
    import repro.hypergraph
    from repro.core.engine import FMEngine
    from repro.core.partition import Partition2
    from repro.hypergraph.hypergraph import Hypergraph
    from repro.multilevel import mlpart, pool
    from repro.multilevel.coarsen import CoarseLevel
    from repro.multilevel.mlpart import MLPartitioner

    def on_refine(result) -> None:
        tracer.count("core.refine_calls")
        perf = getattr(result, "perf", None)
        if perf is not None:
            for field in FM_COUNT_FIELDS:
                tracer.count(f"core.{field}", getattr(perf, field))

    def on_hierarchy(hierarchy) -> None:
        tracer.count("multilevel.levels", hierarchy.num_levels)

    tracer.patch(repro.hypergraph, "read_hgr", "hypergraph.read_hgr")
    tracer.patch(Hypergraph, "from_csr", "hypergraph.from_csr")
    tracer.patch(Hypergraph, "weight_fingerprint",
                 "hypergraph.weight_fingerprint")
    tracer.patch(mlpart, "build_hierarchy", "multilevel.build_hierarchy",
                 on_hierarchy)
    tracer.patch(pool, "heavy_edge_matching", "multilevel.match")
    tracer.patch(pool, "coarsen", "multilevel.contract")
    tracer.patch(CoarseLevel, "project_assignment_into",
                 "multilevel.project")
    tracer.patch(MLPartitioner, "partition", "multilevel.partition")
    tracer.patch(FMEngine, "refine", "core.refine", on_refine)
    tracer.patch(Partition2, "fast", "core.partition_build")
    tracer.patch(Partition2, "__init__", "core.partition_build")
    tracer.patch(mlpart, "generate_initial", "core.initial")
    tracer.patch(repro.backends, "warmup", "backends.warmup")


def install_campaign(tracer: Tracer) -> None:
    """Wrap the campaign supervisor's calls: instance load, dispatch,
    journal and report.  Trials run in worker processes and are not
    traced; their numbers come from the journal and ``perf.json``."""
    import repro.cli
    from repro.evaluation import campaign
    from repro.evaluation.campaign import CampaignResult
    from repro.orchestrate import orchestrator
    from repro.orchestrate.store import RunStore

    original = orchestrator.execute_trials

    @functools.wraps(original)
    def execute_trials(*args, **kwargs):
        sid = tracer.begin("orchestrate.execute_trials")
        started = tracer.spans[sid]["start"]
        first: List[float] = []
        user_cb = kwargs.get("on_outcome")

        def on_outcome(*cb_args):
            if not first:
                first.append(time.perf_counter())
            if user_cb is not None:
                return user_cb(*cb_args)
            return None

        kwargs["on_outcome"] = on_outcome
        try:
            return original(*args, **kwargs)
        finally:
            tracer.end(sid)
            if first:
                tracer.spans.append(
                    {"id": len(tracer.spans),
                     "name": "orchestrate.first_outcome",
                     "parent": sid, "start": started, "end": first[0]}
                )

    orchestrator.execute_trials = execute_trials
    tracer.patch(repro.cli, "read_hgr", "hypergraph.read_hgr")
    tracer.patch(RunStore, "append", "orchestrate.journal_append")
    tracer.patch(RunStore, "records", "evaluation.records_load")
    tracer.patch(CampaignResult, "report", "evaluation.report")
    tracer.patch(campaign, "ranking_diagram", "evaluation.ranking")
    tracer.patch(campaign, "paired_wilcoxon", "evaluation.wilcoxon")


# ----------------------------------------------------------------------
# Reading a dump
# ----------------------------------------------------------------------
def outermost(spans: List[dict], name: str) -> List[dict]:
    """Spans called ``name`` that are not nested in another of the same
    name (a fallback that re-enters a wrapped constructor counts once)."""
    by_id = {s["id"]: s for s in spans}
    out = []
    for s in spans:
        if s["name"] != name:
            continue
        p = s["parent"]
        nested = False
        while p is not None:
            if by_id[p]["name"] == name:
                nested = True
                break
            p = by_id[p]["parent"]
        if not nested:
            out.append(s)
    return out


def inclusive_seconds(spans: List[dict], name: str) -> float:
    return sum(s["end"] - s["start"] for s in outermost(spans, name))


def self_seconds(spans: List[dict]) -> Dict[int, float]:
    """Per span: its duration minus the durations of its direct
    children (children of one span never overlap: one thread)."""
    own = {s["id"]: s["end"] - s["start"] for s in spans}
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own
