"""Campaign service: spec/cache units and fair-share scheduler behavior.

The load-bearing property throughout: a job's journal depends only on
its own spec — whatever else the shared fleet is running, however the
deficit-round-robin interleaves batches, and however often the service
is killed and restarted, the records equal a standalone run's.
"""

import json
import time
from collections import deque

import pytest

from repro.core.perf import PerfCounters
from repro.hypergraph.shm import ShmHandle
from repro.instances import generate_circuit
from repro.orchestrate import orchestrate_campaign
from repro.orchestrate.executor import PendingTrial, build_payload
from repro.orchestrate.plan import expand_spec
from repro.orchestrate.store import RunStore
from repro.service import (
    JOB_CANCELLED,
    JOB_DONE,
    FairShareScheduler,
    InstanceCache,
    InstanceSource,
    JobSpec,
    ServiceJob,
)
from repro.service.server import CampaignService
from repro.service.spec import make_engine

pytestmark = pytest.mark.service


def tiny_spec(name, cells=40, gen_seed=3, base_seed=0, starts=3,
              engines=("flat-lifo",), **kwargs):
    return JobSpec(
        name=name,
        instances=[
            InstanceSource(
                kind="generate", label=f"gen{cells}", cells=cells,
                seed=gen_seed,
            )
        ],
        engines=list(engines),
        num_starts=starts,
        base_seed=base_seed,
        num_shuffles=10,
        **kwargs,
    )


def outcome_key(outcomes):
    return [
        (o.trial, o.status, o.heuristic, o.instance, o.seed, o.cut, o.legal)
        for o in outcomes
    ]


def standalone_keys(spec: JobSpec, tmp_path):
    """The reference journal: the same spec run through the one-shot
    orchestrator, serially."""
    instances = {src.label: src.load() for src in spec.instances}
    orchestrate_campaign(
        spec.campaign_spec(instances),
        store_dir=tmp_path / f"standalone-{spec.name}",
        workers=1,
    )
    store = RunStore(tmp_path / f"standalone-{spec.name}" / spec.name)
    return outcome_key(store.outcomes())


# ----------------------------------------------------------------------
class TestJobSpec:
    def test_roundtrip(self):
        spec = tiny_spec("rt", engines=("flat-lifo", "ml-clip"),
                         priority=3, timeout_seconds=5.0, max_retries=2,
                         sticky_cache=True)
        again = JobSpec.from_json(json.loads(json.dumps(spec.to_json())))
        assert again == spec
        assert again.fingerprint() == spec.fingerprint()

    def test_validation(self):
        src = InstanceSource(kind="generate", label="g", cells=10)
        with pytest.raises(ValueError):
            JobSpec(name="", instances=[src], engines=["flat-lifo"])
        with pytest.raises(ValueError):
            JobSpec(name="x", instances=[], engines=["flat-lifo"])
        with pytest.raises(ValueError):
            JobSpec(name="x", instances=[src], engines=["no-such-engine"])
        with pytest.raises(ValueError):
            JobSpec(name="x", instances=[src],
                    engines=["flat-lifo", "flat-lifo"])
        with pytest.raises(ValueError):
            JobSpec(name="x", instances=[src, src], engines=["flat-lifo"])
        with pytest.raises(ValueError):
            JobSpec(name="x", instances=[src], engines=["flat-lifo"],
                    priority=0)
        with pytest.raises(ValueError):
            InstanceSource(kind="file", label="f")  # no path
        with pytest.raises(ValueError):
            InstanceSource(kind="nope", label="x")

    def test_cache_key_ignores_label(self):
        a = InstanceSource(kind="generate", label="a", cells=10, seed=1)
        b = InstanceSource(kind="generate", label="b", cells=10, seed=1)
        c = InstanceSource(kind="generate", label="a", cells=10, seed=2)
        assert a.cache_key() == b.cache_key()
        assert a.cache_key() != c.cache_key()

    def test_campaign_spec_assembly(self):
        spec = tiny_spec("asm", engines=("flat-lifo", "flat-clip"))
        instances = {src.label: src.load() for src in spec.instances}
        campaign = spec.campaign_spec(instances)
        assert campaign.name == "asm"
        assert len(campaign.heuristics) == 2
        assert len(expand_spec(campaign)) == 2 * spec.num_starts


# ----------------------------------------------------------------------
class TestInstanceCache:
    def source(self, cells=10, seed=0, label=None):
        return InstanceSource(
            kind="generate", label=label or f"g{cells}-{seed}",
            cells=cells, seed=seed,
        )

    def test_hit_and_miss(self):
        cache = InstanceCache(capacity=4, use_shared_memory=False)
        a = cache.lease(self.source(seed=1))
        b = cache.lease(self.source(seed=1, label="other-label"))
        assert a is b  # label does not split the cache
        assert cache.stats.misses == 1 and cache.stats.hits == 1
        assert a.leases == 2
        cache.release(a)
        cache.release(b)
        assert a.leases == 0
        assert len(cache) == 1  # stays cached for the next job
        cache.close()

    def test_unmatched_release_raises(self):
        cache = InstanceCache(capacity=2, use_shared_memory=False)
        entry = cache.lease(self.source())
        cache.release(entry)
        with pytest.raises(ValueError):
            cache.release(entry)
        cache.close()

    def test_lru_eviction_skips_pinned(self):
        cache = InstanceCache(capacity=2, use_shared_memory=False)
        pinned = cache.lease(self.source(seed=1))
        b = cache.lease(self.source(seed=2))
        cache.release(b)
        cache.lease(self.source(seed=3))  # over capacity: b evicted
        assert cache.stats.evictions == 1
        assert len(cache) == 2
        assert pinned.key in {e for e in cache.snapshot()}
        cache.close()

    def test_close_is_idempotent(self):
        cache = InstanceCache(capacity=2, use_shared_memory=False)
        cache.lease(self.source())
        cache.close()
        cache.close()
        with pytest.raises(RuntimeError):
            cache.lease(self.source())


# ----------------------------------------------------------------------
def make_service_job(job_id, spec: JobSpec, tmp_path, on_finish=None):
    """A ServiceJob wired straight to the scheduler (no CampaignService),
    shipping instances by pickling fallback handles."""
    instances = {src.label: src.load() for src in spec.instances}
    campaign = spec.campaign_spec(instances)
    plan = expand_spec(campaign)
    store = RunStore(tmp_path / job_id)
    store.initialize({"name": spec.name, "total_trials": len(plan),
                      "alpha": spec.alpha})
    heuristics = {
        getattr(h, "name", type(h).__name__): h for h in campaign.heuristics
    }
    handles = {
        label: ShmHandle(segment=None, fallback=hg)
        for label, hg in instances.items()
    }
    return ServiceJob(
        job_id=job_id,
        store=store,
        total=len(plan),
        payload_blob=build_payload(heuristics, handles),
        pending=deque(PendingTrial(p) for p in plan),
        priority=spec.priority,
        timeout_seconds=spec.timeout_seconds,
        max_retries=spec.max_retries,
        on_finish=on_finish,
    )


def wait_for(predicate, timeout=90.0, interval=0.05):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return False


class TestFairShareScheduler:
    def test_concurrent_jobs_record_identical_to_standalone(self, tmp_path):
        """Three jobs with distinct seed streams race on one fleet; each
        journal must equal its standalone serial run, record for
        record."""
        specs = [
            tiny_spec("j-a", base_seed=0, starts=4),
            tiny_spec("j-b", base_seed=100, starts=4,
                      engines=("flat-lifo", "flat-clip")),
            tiny_spec("j-c", base_seed=200, starts=3, gen_seed=7),
        ]
        finished = []
        scheduler = FairShareScheduler(workers=2)
        scheduler.start()
        try:
            jobs = [
                make_service_job(
                    f"job{i}", spec, tmp_path,
                    on_finish=lambda j: finished.append(j.job_id),
                )
                for i, spec in enumerate(specs)
            ]
            for job in jobs:
                scheduler.submit(job)
            assert wait_for(lambda: len(finished) == 3)
            for job, spec in zip(jobs, specs):
                assert job.status == JOB_DONE
                assert outcome_key(job.store.outcomes()) == standalone_keys(
                    spec, tmp_path
                )
        finally:
            scheduler.stop()

    def test_sticky_job_record_identical_to_standalone(self, tmp_path):
        """A sticky-cache multilevel job on the fleet journals the same
        records as the standalone serial orchestrator."""
        spec = tiny_spec("sticky", engines=("ml-clip",), sticky_cache=True)
        instances = {src.label: src.load() for src in spec.instances}
        campaign = spec.campaign_spec(instances)
        plan = expand_spec(campaign)
        store = RunStore(tmp_path / "job")
        store.initialize({"name": spec.name, "total_trials": len(plan),
                          "alpha": spec.alpha})
        heuristics = {
            getattr(h, "name", type(h).__name__): h
            for h in campaign.heuristics
        }
        handles = {
            label: ShmHandle(segment=None, fallback=hg)
            for label, hg in instances.items()
        }
        job = ServiceJob(
            job_id="sticky0",
            store=store,
            total=len(plan),
            payload_blob=build_payload(
                heuristics, handles, sticky_cache=True,
                sticky_pool_size=spec.sticky_pool_size,
            ),
            pending=deque(PendingTrial(p) for p in plan),
            priority=spec.priority,
        )
        scheduler = FairShareScheduler(workers=2)
        scheduler.start()
        try:
            scheduler.submit(job)
            assert wait_for(lambda: job.status == JOB_DONE)
        finally:
            scheduler.stop()
        assert outcome_key(store.outcomes()) == standalone_keys(
            spec, tmp_path
        )

    def test_starvation_bound(self, tmp_path):
        """A priority-1 job keeps progressing under a priority-8 flood
        on a single worker: DRR guarantees it one trial per replenish
        cycle, so its 4 trials finish long before the flood's 60."""
        finished = []
        scheduler = FairShareScheduler(workers=1)
        scheduler.start()
        try:
            flood = make_service_job(
                "flood",
                tiny_spec("flood", starts=60, priority=8),
                tmp_path,
                on_finish=lambda j: finished.append(j.job_id),
            )
            meek = make_service_job(
                "meek",
                tiny_spec("meek", starts=4, base_seed=500, priority=1),
                tmp_path,
                on_finish=lambda j: finished.append(j.job_id),
            )
            scheduler.submit(flood)
            scheduler.submit(meek)
            assert wait_for(lambda: len(finished) == 2)
            assert finished[0] == "meek"  # finished under the flood
            assert flood.status == JOB_DONE and meek.status == JOB_DONE
        finally:
            scheduler.stop()

    def test_pause_resume(self, tmp_path):
        scheduler = FairShareScheduler(workers=1)
        scheduler.start()
        try:
            job = make_service_job(
                "pr", tiny_spec("pr", cells=200, starts=60), tmp_path
            )
            job.sizer.fixed = 1  # one trial per dispatch: a pause always
            # lands between batches, well before the journal fills
            scheduler.submit(job)
            assert wait_for(lambda: job.done >= 2)
            scheduler.pause("pr")
            assert wait_for(lambda: job.status == "paused")
            # One in-flight batch may still land; after that, nothing.
            time.sleep(0.5)
            frozen = job.done
            time.sleep(0.5)
            assert job.done == frozen
            assert job.done < job.total
            scheduler.resume("pr")
            assert wait_for(lambda: job.status == JOB_DONE)
            assert job.done == job.total
        finally:
            scheduler.stop()

    def test_cancel(self, tmp_path):
        done = []
        scheduler = FairShareScheduler(workers=1)
        scheduler.start()
        try:
            job = make_service_job(
                "cx", tiny_spec("cx", cells=150, starts=50), tmp_path,
                on_finish=lambda j: done.append(j.status),
            )
            scheduler.submit(job)
            assert wait_for(lambda: job.done >= 1)
            scheduler.cancel("cx")
            assert wait_for(lambda: job.status == JOB_CANCELLED)
            assert done == [JOB_CANCELLED]
            assert job.done < job.total
            # Journaled prefix still parses and stays standalone-valid.
            assert all(o.ok for o in job.store.outcomes())
        finally:
            scheduler.stop()

    def test_cancel_unknown_job_is_harmless(self, tmp_path):
        scheduler = FairShareScheduler(workers=1)
        scheduler.start()
        try:
            scheduler.cancel("never-existed")
            job = make_service_job("ok", tiny_spec("ok"), tmp_path)
            scheduler.submit(job)
            assert wait_for(lambda: job.status == JOB_DONE)
        finally:
            scheduler.stop()


# ----------------------------------------------------------------------
class TestServiceRecovery:
    def test_kill_restart_reruns_no_journaled_trial(self, tmp_path):
        """Stop the service mid-campaign, restart, recover: the journal
        ends with every planned trial exactly once, and the records
        equal a standalone run's."""
        spec = tiny_spec("phoenix", cells=150, starts=20)
        svc = CampaignService(tmp_path / "svc", workers=2,
                              use_shared_memory=False)
        job_id = svc.submit(spec)
        record = svc._records[job_id]
        assert wait_for(lambda: record.job.done >= 3, timeout=60)
        svc.close()  # kill: in-flight trials die un-journaled

        journaled = record.store.completed_trials()
        assert 0 < len(journaled) < record.job.total

        svc2 = CampaignService(tmp_path / "svc", workers=2,
                               use_shared_memory=False)
        try:
            assert svc2.recover() == [job_id]
            assert svc2.wait(job_id, timeout=120) == JOB_DONE

            store = svc2._records[job_id].store
            # Raw line scan: a journaled trial must never rerun, so no
            # trial index may appear twice across both invocations.
            indices = []
            with open(store.journal_path) as f:
                for line in f:
                    indices.append(json.loads(line)["trial"])
            assert sorted(indices) == list(range(record.job.total))
            assert set(journaled) <= set(indices)
            assert outcome_key(store.outcomes()) == standalone_keys(
                spec, tmp_path
            )
            assert (svc2._records[job_id].directory / "report.txt").exists()
        finally:
            svc2.close()

    def test_recover_completed_journal_finalizes_without_fleet(
        self, tmp_path
    ):
        """A journal that already covers the plan just flips to done and
        writes the report on recovery."""
        spec = tiny_spec("already")
        svc = CampaignService(tmp_path / "svc", workers=1,
                              use_shared_memory=False)
        job_id = svc.submit(spec)
        assert svc.wait(job_id, timeout=60) == JOB_DONE
        report = (svc._records[job_id].directory / "report.txt").read_text()
        # Rewind the persisted status to "active" as if the kill landed
        # after the last journal append but before the status flip.
        job_json = svc._records[job_id].directory / "job.json"
        data = json.loads(job_json.read_text())
        data["status"] = "active"
        job_json.write_text(json.dumps(data))
        svc.close()

        svc2 = CampaignService(tmp_path / "svc", workers=1,
                               use_shared_memory=False)
        try:
            assert svc2.recover() == [job_id]
            assert svc2.wait(job_id, timeout=30) == JOB_DONE
            again = (
                svc2._records[job_id].directory / "report.txt"
            ).read_text()
            assert again == report  # same journal, same bytes
        finally:
            svc2.close()

    def test_recover_loads_legacy_job_and_perf_json(self, tmp_path):
        """Stores written before the in-run knob was retired still load:
        a ``job.json`` whose spec carries ``inrun_workers`` recovers, and
        a ``perf.json`` with the old ``inrun_*_seconds`` keys reads."""
        spec = tiny_spec("legacy")
        wire = spec.to_json()
        assert "inrun_workers" not in wire
        legacy_wire = dict(wire, inrun_workers=2)
        assert JobSpec.from_json(legacy_wire) == spec

        svc = CampaignService(tmp_path / "svc", workers=1,
                              use_shared_memory=False)
        job_id = svc.submit(spec)
        assert svc.wait(job_id, timeout=60) == JOB_DONE
        directory = svc._records[job_id].directory
        svc.close()
        job_json = directory / "job.json"
        data = json.loads(job_json.read_text())
        data["status"] = "active"
        data["spec"] = legacy_wire
        job_json.write_text(json.dumps(data))
        counts = {name: 1 for name in PerfCounters.COUNT_FIELDS}
        (directory / "perf.json").write_text(json.dumps({
            "flat-lifo": dict(
                counts,
                total_seconds=0.5,
                coarsen_seconds=0.0,
                inrun_proposal_seconds=0.0,
                inrun_merge_seconds=0.0,
                inrun_fanout_seconds=0.25,
                compile_seconds=0.0,
                backend="numpy",
            )
        }))

        svc2 = CampaignService(tmp_path / "svc", workers=1,
                               use_shared_memory=False)
        try:
            assert svc2.recover() == [job_id]
            assert svc2.wait(job_id, timeout=30) == JOB_DONE
            assert svc2._records[job_id].spec == spec
        finally:
            svc2.close()
        store = RunStore(directory)
        perf = store.load_perf()["flat-lifo"]
        assert perf.passes == 1 and perf.total_seconds == 0.5
        assert perf.backend == "numpy"
        assert not hasattr(perf, "inrun_fanout_seconds")
        store.merge_perf({"flat-lifo": PerfCounters(passes=2)})
        rewritten = json.loads(store.perf_path.read_text())["flat-lifo"]
        assert rewritten["passes"] == 3
        assert not any(k.startswith("inrun") for k in rewritten)

    def test_resubmitted_spec_mismatch_rejected(self, tmp_path):
        svc = CampaignService(tmp_path / "svc", workers=1,
                              use_shared_memory=False)
        try:
            job_id = svc.submit(tiny_spec("strict"))
            assert svc.wait(job_id, timeout=60) == JOB_DONE
            with pytest.raises(ValueError):
                svc._register_job(
                    job_id, tiny_spec("strict", starts=9), fresh=False
                )
        finally:
            svc.close()


# ----------------------------------------------------------------------
class TestEngineFactory:
    def test_make_engine_matches_cli(self):
        from repro.cli import _make_engine

        for name in ("flat-lifo", "ml-clip", "weak"):
            ours = make_engine(name, 0.02)
            cli = _make_engine(name, 0.02)
            assert type(ours) is type(cli)
            assert getattr(ours, "name", None) == getattr(cli, "name", None)
