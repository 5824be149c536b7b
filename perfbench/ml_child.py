"""One multilevel partitioning process: read, set up, run N ml-lifo starts.

Usage::

    python ml_child.py HGR STARTS SEED_BASE TOLERANCE RESULT_JSON
                       [--assignments NPY] [--trace SPANS_JSON]

with ``src`` on ``PYTHONPATH`` and the backend chosen by
``REPRO_BACKEND``, as for ``repro partition``.  The starts are the calls
``repro partition --engine ml-lifo --starts N --seed SEED_BASE`` makes:
one ``MLPartitioner`` and ``partition(hg, seed=SEED_BASE + i)`` per
start.  With ``STARTS`` 0 the process only sets up (a set-up probe).

The result file holds ``time.monotonic()`` stamps (one clock for every
process of the host, so the parent can subtract its launch stamp), the
resolved backend, each start's seconds, cut, part weights and legality,
and the peak resident set after the last start.  Assignments are saved
after that stamp, outside the timed region.
"""

from __future__ import annotations

import json
import resource
import sys
import time


def main(argv) -> int:
    hgr, starts, seed_base, tolerance, out = argv[:5]
    starts, seed_base, tolerance = int(starts), int(seed_base), float(tolerance)
    opts = dict(zip(argv[5::2], argv[6::2]))
    tracer = None
    if "--trace" in opts:
        import spans

        tracer = spans.Tracer()
        root = tracer.begin("bench.process")
        spans.install_partitioning(tracer)

    import repro.backends
    import repro.hypergraph
    import repro.multilevel

    hg = repro.hypergraph.read_hgr(hgr)
    backend, _ = repro.backends.warmup()
    fallback_note = repro.backends.resolve_backend()[1]
    engine = repro.multilevel.MLPartitioner(tolerance=tolerance,
                                            name="ML LIFO FM")
    ready = time.monotonic()

    records, assignments = [], []
    for i in range(starts):
        t0 = time.perf_counter()
        result = engine.partition(hg, seed=seed_base + i)
        seconds = time.perf_counter() - t0
        records.append({
            "seed": seed_base + i,
            "seconds": seconds,
            "cut": result.cut,
            "part_weights": list(result.part_weights),
            "legal": bool(result.legal),
        })
        assignments.append(result.assignment)
    done = time.monotonic()
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    if tracer is not None:
        tracer.end(root)
        tracer.dump(opts["--trace"])
    if "--assignments" in opts and assignments:
        import numpy as np

        np.save(opts["--assignments"], np.array(assignments, dtype=np.int8))
    with open(out, "w", encoding="utf-8") as f:
        json.dump({
            "ready": ready,
            "done": done,
            "backend": backend,
            "fallback_note": fallback_note,
            "peak_rss_kb": peak_rss_kb,
            "starts": records,
        }, f)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
