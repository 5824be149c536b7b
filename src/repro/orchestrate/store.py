"""Crash-safe run store: append-only JSONL journal plus run metadata.

Layout of a campaign directory::

    <dir>/
        meta.json       # spec hash, trial count, machine info, CLI args
        journal.jsonl   # one TrialOutcome per line, appended + fsynced

Every completed (or failed) trial is appended and fsynced immediately,
so a kill -9 loses at most the trial that was in flight.  Loading
tolerates a truncated final line — the classic crash artifact — by
skipping lines that do not parse; the corresponding trials simply rerun
on resume.  Duplicate journal entries for the same trial index (possible
if a crash lands between the append and the scheduler's bookkeeping)
resolve to the *last* occurrence.

The journal stores :class:`TrialOutcome`, a superset of
:class:`~repro.evaluation.records.TrialRecord`: successful outcomes
convert losslessly to records (what the reporting stack consumes), and
failed outcomes keep the error text and attempt count instead of
aborting the campaign.
"""

from __future__ import annotations

import json
import os
import platform
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Dict, List, Optional, Set, Union

from repro.core.perf import PerfCounters
from repro.evaluation.records import TrialRecord

META_FILENAME = "meta.json"
JOURNAL_FILENAME = "journal.jsonl"
PERF_FILENAME = "perf.json"


@dataclass(frozen=True)
class TrialOutcome:
    """Journal entry: one attempt-resolved trial, successful or not."""

    trial: int  #: index into the canonical plan
    status: str  #: ``"ok"`` or ``"error"``
    heuristic: str
    instance: str
    seed: int
    cut: Optional[float] = None
    runtime_seconds: Optional[float] = None
    legal: Optional[bool] = None
    error: Optional[str] = None
    attempts: int = 1
    #: Scenario axes: part count and ranked objective ("cut",
    #: "connectivity" or "hpwl").  Journals written before these fields
    #: existed parse with the 2-way defaults.
    k: int = 2
    objective: str = "cut"

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    def to_record(self) -> TrialRecord:
        """Convert a successful outcome to the reporting stack's atom."""
        if not self.ok:
            raise ValueError(f"trial {self.trial} failed: {self.error}")
        return TrialRecord(
            heuristic=self.heuristic,
            instance=self.instance,
            seed=self.seed,
            cut=self.cut,
            runtime_seconds=self.runtime_seconds,
            legal=self.legal,
            k=self.k,
            objective=self.objective,
        )


@dataclass(frozen=True)
class StoreStatus:
    """Aggregate journal state for ``repro campaign status``."""

    total: int
    done: int
    ok: int
    errors: int

    @property
    def remaining(self) -> int:
        return self.total - self.done


def parse_journal_line(line: str) -> Optional[TrialOutcome]:
    """Parse one journal line into a :class:`TrialOutcome`, or ``None``
    for blank or unparseable lines (e.g. a line truncated by a crash —
    the corresponding trial simply reruns on resume).  Shared by the
    batch reader (:meth:`RunStore.outcomes`) and the streaming tailer
    (:class:`repro.evaluation.streaming.JournalTail`) so both sides of
    the report pipeline agree on what counts as a record."""
    line = line.strip()
    if not line:
        return None
    try:
        return TrialOutcome(**json.loads(line))
    except (ValueError, TypeError):
        return None


def machine_info() -> Dict[str, object]:
    """Host facts recorded for the paper's CPU-time normalization
    (footnote 9): reported times are only comparable across machines
    via a calibration factor, so every run records where it ran."""
    return {
        "platform": platform.platform(),
        "python": platform.python_version(),
        "processor": platform.processor() or platform.machine(),
        "cpu_count": os.cpu_count(),
    }


class RunStore:
    """One campaign's persistent journal + metadata."""

    def __init__(self, directory: Union[str, Path]):
        self.directory = Path(directory)
        self._tail_checked = False

    # -- paths ----------------------------------------------------------
    @property
    def meta_path(self) -> Path:
        return self.directory / META_FILENAME

    @property
    def journal_path(self) -> Path:
        return self.directory / JOURNAL_FILENAME

    @property
    def perf_path(self) -> Path:
        return self.directory / PERF_FILENAME

    def exists(self) -> bool:
        """True if this directory already holds an initialized store."""
        return self.meta_path.exists()

    # -- metadata -------------------------------------------------------
    def initialize(self, meta: Dict[str, object]) -> None:
        """Create the store directory and write metadata atomically."""
        self.directory.mkdir(parents=True, exist_ok=True)
        tmp = self.meta_path.with_suffix(".json.tmp")
        tmp.write_text(
            json.dumps(meta, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        os.replace(tmp, self.meta_path)

    def load_meta(self) -> Dict[str, object]:
        if not self.exists():
            raise FileNotFoundError(f"no campaign store at {self.directory}")
        return json.loads(self.meta_path.read_text(encoding="utf-8"))

    # -- journal --------------------------------------------------------
    def _heal_torn_tail(self) -> None:
        """If a crash left a partial final line (no trailing newline),
        terminate it so the next append starts on a fresh line instead
        of concatenating into the garbage.  Checked once per store
        instance, before its first append."""
        if not self.journal_path.exists():
            return
        with open(self.journal_path, "rb+") as f:
            f.seek(0, os.SEEK_END)
            if f.tell() == 0:
                return
            f.seek(-1, os.SEEK_END)
            if f.read(1) != b"\n":
                f.write(b"\n")

    def append(self, outcome: TrialOutcome) -> None:
        """Append one outcome and fsync so it survives a crash."""
        if not self._tail_checked:
            self._heal_torn_tail()
            self._tail_checked = True
        line = json.dumps(asdict(outcome), sort_keys=True)
        with open(self.journal_path, "a", encoding="ascii") as f:
            f.write(line + "\n")
            f.flush()
            os.fsync(f.fileno())

    def outcomes(self) -> List[TrialOutcome]:
        """All journaled outcomes, deduplicated by trial index (last
        occurrence wins), sorted by trial index.  Unparseable lines —
        e.g. a line truncated by a crash — are skipped; those trials
        will simply rerun on resume."""
        if not self.journal_path.exists():
            return []
        by_trial: Dict[int, TrialOutcome] = {}
        with open(self.journal_path, "r", encoding="ascii") as f:
            for line in f:
                outcome = parse_journal_line(line)
                if outcome is None:
                    continue  # truncated / corrupt line: rerun that trial
                by_trial[outcome.trial] = outcome
        return [by_trial[k] for k in sorted(by_trial)]

    def completed_trials(self) -> Set[int]:
        """Trial indices that need not rerun (both ok and error: an
        error outcome means its bounded retries were already spent)."""
        return {o.trial for o in self.outcomes()}

    def records(self) -> List[TrialRecord]:
        """Successful trials as reporting-stack records, in canonical
        (plan index) order — identical to a serial run's record list."""
        return [o.to_record() for o in self.outcomes() if o.ok]

    def errors(self) -> List[TrialOutcome]:
        return [o for o in self.outcomes() if not o.ok]

    # -- perf aggregates ------------------------------------------------
    def merge_perf(self, totals: Dict[str, PerfCounters]) -> None:
        """Fold per-heuristic kernel counters into ``perf.json``.

        Merging (not overwriting) keeps the file campaign-cumulative
        across resumed invocations: each invocation contributes only the
        trials it actually executed.  Written atomically, like
        ``meta.json``.
        """
        if not totals:
            return
        merged = self.load_perf()
        for heuristic, perf in totals.items():
            acc = merged.setdefault(heuristic, PerfCounters())
            acc.merge(perf)
        payload = {
            name: dict(
                {
                    field_name: getattr(perf, field_name)
                    for field_name in (
                        PerfCounters.COUNT_FIELDS + PerfCounters.TIMING_FIELDS
                    )
                },
                # The backend tag is a string ("mixed" after merging
                # different backends), so it rides outside the numeric
                # field tuples.
                backend=perf.backend,
            )
            for name, perf in sorted(merged.items())
        }
        tmp = self.perf_path.with_suffix(".json.tmp")
        tmp.write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        os.replace(tmp, self.perf_path)

    def load_perf(self) -> Dict[str, PerfCounters]:
        """Per-heuristic counters from ``perf.json`` (empty if absent).

        Keys that are not current counter fields (written by an older
        version) are ignored.
        """
        if not self.perf_path.exists():
            return {}
        raw = json.loads(self.perf_path.read_text(encoding="utf-8"))
        known = set(PerfCounters.COUNT_FIELDS + PerfCounters.TIMING_FIELDS)
        known.add("backend")
        out: Dict[str, PerfCounters] = {}
        for heuristic, fields in raw.items():
            perf = PerfCounters()
            for field_name, value in fields.items():
                if field_name in known:
                    setattr(perf, field_name, value)
            out[heuristic] = perf
        return out

    def status(self) -> StoreStatus:
        meta = self.load_meta()
        outcomes = self.outcomes()
        ok = sum(1 for o in outcomes if o.ok)
        return StoreStatus(
            total=int(meta.get("total_trials", len(outcomes))),
            done=len(outcomes),
            ok=ok,
            errors=len(outcomes) - ok,
        )
