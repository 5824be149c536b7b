"""Tests of the benchmark itself: span nesting, count stability, the
independent recount, and agreement with ``BENCHMARK.json``.

Run from the root of a checkout::

    python -m pytest perfbench -q
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import run as bench  # noqa: E402
import spans  # noqa: E402


def _env(tmp: Path):
    return bench.child_env(tmp)


@pytest.fixture(scope="module")
def small_hgr(tmp_path_factory) -> Path:
    """A 600-cell synthetic netlist written by the program's own writer."""
    tmp = tmp_path_factory.mktemp("inst")
    path = tmp / "small.hgr"
    code = (
        "from repro.instances import generate_circuit; "
        "from repro.hypergraph import write_hgr; "
        f"write_hgr(generate_circuit(600, seed=5), {str(path)!r})"
    )
    subprocess.run([sys.executable, "-c", code], check=True, env=_env(tmp))
    return path


def _traced_ml(hgr: Path, tmp: Path, tag: str):
    out, trace, npy = (tmp / f"{tag}.json", tmp / f"{tag}.spans.json",
                       tmp / f"{tag}.npy")
    env = dict(_env(tmp), REPRO_BACKEND="numpy")
    t0 = time.monotonic()
    subprocess.run(
        [sys.executable, str(HERE / "ml_child.py"), str(hgr), "2", "7",
         "0.02", str(out), "--assignments", str(npy), "--trace", str(trace)],
        check=True, env=env, cwd=ROOT,
    )
    wall = time.monotonic() - t0
    return (json.loads(out.read_text()), json.loads(trace.read_text()),
            np.load(npy), wall)


@pytest.fixture(scope="module")
def two_traced_runs(small_hgr, tmp_path_factory):
    tmp = tmp_path_factory.mktemp("traced")
    return [_traced_ml(small_hgr, tmp, f"run{i}") for i in range(2)]


def _assert_nested(recorded, wall):
    by_id = {s["id"]: s for s in recorded}
    for s in recorded:
        assert s["end"] >= s["start"]
        if s["parent"] is None:
            continue
        parent = by_id[s["parent"]]
        assert parent["start"] <= s["start"] and s["end"] <= parent["end"]
        assert s["end"] - s["start"] <= parent["end"] - parent["start"]
    own = spans.self_seconds(recorded)
    assert min(own.values()) >= -1e-9
    assert sum(own.values()) <= wall


def test_ml_spans_nest(two_traced_runs):
    _, dump, _, wall = two_traced_runs[0]
    recorded = dump["spans"]
    names = {s["name"] for s in recorded}
    assert {"multilevel.partition", "multilevel.build_hierarchy",
            "multilevel.match", "multilevel.contract", "core.refine",
            "core.partition_build", "hypergraph.from_csr",
            "hypergraph.read_hgr", "backends.warmup"} <= names
    roots = [s for s in recorded if s["parent"] is None]
    assert [s["name"] for s in roots] == ["bench.process"]
    _assert_nested(recorded, wall)


def test_counts_identical_across_traced_runs(two_traced_runs):
    count_metrics = [
        name for name, unit in bench.PER_LAYER.items() if unit == "count"
    ] + ["core.kept_ratio"]
    first, second = (bench.span_metrics(run[1]) for run in two_traced_runs)
    assert {k: first[k] for k in count_metrics} == {
        k: second[k] for k in count_metrics
    }
    assert first["core.refine_calls"] > 0 and first["multilevel.levels"] > 0
    assert [r["cut"] for r in two_traced_runs[0][0]["starts"]] == [
        r["cut"] for r in two_traced_runs[1][0]["starts"]
    ]


def test_recount_accepts_program_output(small_hgr, two_traced_runs):
    result, _, assignments, _ = two_traced_runs[0]
    inst = checks.read_hgr(small_hgr)
    for rec, assignment in zip(result["starts"], assignments):
        assert checks.check_start(
            inst, 0.02, assignment, rec["cut"], rec["part_weights"],
            rec["legal"],
        ) == []


def test_recount_rejects_corrupted_assignment(small_hgr, two_traced_runs):
    result, _, assignments, _ = two_traced_runs[0]
    rec, assignment = result["starts"][0], assignments[0].copy()
    inst = checks.read_hgr(small_hgr)
    # Move one pin of a cut net across: the cut or the weights change.
    pins = inst.net_pins[inst.net_ptr[0]:inst.net_ptr[1]]
    assignment[pins[0]] ^= 1
    problems = checks.check_start(
        inst, 0.02, assignment, rec["cut"], rec["part_weights"], rec["legal"]
    )
    assert problems
    wrong_part = assignments[0].copy()
    wrong_part[0] = 2
    assert checks.check_start(inst, 0.02, wrong_part, rec["cut"],
                              rec["part_weights"], True)
    assert checks.check_start(inst, 0.02, assignments[0][:-1], rec["cut"],
                              rec["part_weights"], True)


def test_recount_flags_imbalance():
    inst = checks.HgrInstance(
        num_vertices=4,
        net_ptr=np.array([0, 2, 4]),
        net_pins=np.array([0, 1, 2, 3]),
        net_weights=np.ones(2),
        vertex_weights=np.ones(4),
    )
    assert checks.recount(inst, [0, 1, 0, 0]) == (1.0, [3.0, 1.0])
    problems = checks.check_start(inst, 0.02, [0, 1, 0, 0], 1.0,
                                  [3.0, 1.0], True)
    assert any("outside the window" in p for p in problems)


def test_journal_checks():
    entry = {"trial": 0, "status": "ok", "legal": True, "heuristic": "h",
             "instance": "i", "seed": 3, "cut": 5.0}
    assert checks.check_journal([entry, dict(entry, trial=1)], 2) == []
    assert checks.check_journal([entry], 2)
    assert checks.check_journal([entry, entry, dict(entry, trial=1)], 2)
    assert checks.check_journal(
        [entry, dict(entry, trial=1, legal=False)], 2
    )


def test_differing_results_records_then_compares(tmp_path):
    record = tmp_path / "r.json"
    assert checks.differing_results(record, {"a": 1.0}) == []
    assert checks.differing_results(record, {"a": 1.0, "b": 2.0}) == []
    assert checks.differing_results(record, {"a": 3.0, "b": 2.0}) == ["a"]


def test_campaign_spans_nest(small_hgr, tmp_path):
    spec = {
        "name": "ladder",
        "instances": [{"kind": "file", "label": "small",
                       "path": str(small_hgr)}],
        "engines": ["flat-lifo", "ml-lifo"],
        "num_starts": 2,
        "tolerance": 0.1,
    }
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    t0 = time.monotonic()
    subprocess.run(
        [sys.executable, str(HERE / "cli_child.py"),
         str(tmp_path / "rusage.json"), "--trace",
         str(tmp_path / "spans.json"), "--", "campaign", "run", "--spec",
         str(spec_path), "--workers", "2", "--store-dir",
         str(tmp_path / "store")],
        check=True, env=_env(tmp_path), cwd=ROOT,
        stdout=subprocess.DEVNULL,
    )
    wall = time.monotonic() - t0
    dump = json.loads((tmp_path / "spans.json").read_text())
    _assert_nested(dump["spans"], wall)
    metrics = bench.span_metrics(dump)
    assert metrics["orchestrate.journal_appends"] == 4
    assert metrics["evaluation.report_calls"] >= 1
    assert 0 < metrics["orchestrate.first_outcome_s"] <= wall
    entries = checks.read_journal(
        tmp_path / "store" / "ladder" / "journal.jsonl"
    )
    assert checks.check_journal(entries, 4) == []


def test_benchmark_json_matches_runner():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in doc["workloads"]} == set(bench.WORKLOADS)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == \
        bench.END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == \
        bench.PER_LAYER


def test_normalise_scales_times_and_rates_only():
    metrics = {"t": 2.0, "r": 3.0, "n": 7}
    units = {"t": "s", "r": "1/s", "n": "count"}
    assert bench.normalise(metrics, units, 2.0) == {"t": 1.0, "r": 6.0,
                                                    "n": 7}
