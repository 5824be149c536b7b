"""Regression gate for the k-way / terminal-propagation scenario plane.

Runs the end-to-end ``repro bench kway`` harness: recursive-bisection
scenarios at k in {2, 4, 8} under the connectivity objective plus one
terminal-propagation placement scenario, executed through every
execution plane (serial inline, worker pool, unit batching, sticky
policy).  The gate is a determinism-and-
correctness gate, not a speedup gate: every plane's outcome stream —
including the per-trial ``k``/``objective`` stamps — must be
bit-identical to serial, and every k must honor the documented balance
window ``total/k * (1 +- t*k/(2(k-1)))``.

Two tiers:

* ``test_kway_equivalence_fast`` (marker ``kway``) — a small-instance
  sweep, quick enough for any run of this directory;
* ``test_bench_kway_gate`` (markers ``kway`` + ``slow``) — the full
  run at the acceptance scale, writing the committed
  ``BENCH_kway.json`` artifact.
"""

from pathlib import Path

import pytest

from _common import RESULTS_DIR, bench_scale, emit

#: Clamp so the default REPRO_BENCH_SCALE=32 run still measures the
#: acceptance-size instance (scale 16; smaller divisor = bigger
#: instance).
MAX_SCALE = 16


@pytest.mark.kway
def test_kway_equivalence_fast():
    """Equivalence-only sweep on a deliberately small instance: every
    execution plane must reproduce the serial scenario records bit for
    bit, and every k must stay inside its balance window."""
    from repro.bench import bench_kway

    result = bench_kway(scale=64, repeats=1, num_starts=2, workers=2)
    assert result["equivalent"], (
        f"scenario records diverged: {result['plane_equivalent']}"
    )
    assert result["legal"], (
        f"balance window violated: {result['balance_ok']}"
    )


@pytest.mark.kway
@pytest.mark.slow
def test_bench_kway_gate():
    """Scenario-plane gate; writes ``BENCH_kway.json``.

    The machine-readable record (timings, per-plane equivalence
    verdicts, per-k balance verdicts, best objective value per
    scenario, shm availability) lands both in the repository root —
    the regression artifact named by the issue — and under
    ``benchmarks/results`` with the other bench outputs.
    """
    from repro.bench import bench_kway, render_kway_bench, write_bench_json

    result = bench_kway(
        scale=min(bench_scale(), MAX_SCALE),
        repeats=3,
        num_starts=4,
        workers=2,
    )
    emit("BENCH_kway", render_kway_bench(result))
    RESULTS_DIR.mkdir(exist_ok=True)
    write_bench_json(result, str(RESULTS_DIR / "BENCH_kway.json"))
    write_bench_json(
        result,
        str(Path(__file__).resolve().parent.parent / "BENCH_kway.json"),
    )
    assert result["equivalent"], (
        "scenario record streams were not bit-identical to serial on "
        f"every plane: {result['plane_equivalent']}"
    )
    assert result["legal"], (
        "a scenario left its documented balance window: "
        f"{result['balance_ok']}"
    )
