"""Generate the benchmark's input netlists as hMetis ``.hgr`` files.

Usage: ``python gen.py OUT_DIR SEED NAME [NAME ...]`` with ``src`` on
``PYTHONPATH``.  Each ``NAME`` is a synthetic suite entry (``ibm01s``
...).  Its instance is regenerated at the published ISPD98 cell count
(``scale=1``) with the entry's Rent exponent and macro fraction, under
generator seed ``entry.seed + SEED_STRIDE * SEED``; workload seed 0
therefore reproduces ``suite_instance(NAME, scale=1)`` exactly.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

#: Distance between the generator seeds of consecutive workload seeds;
#: larger than the suite's 18 consecutive entry seeds, so no two
#: (entry, workload seed) pairs share a generator seed.
SEED_STRIDE = 7919


def main(argv) -> int:
    out_dir, seed, names = Path(argv[0]), int(argv[1]), argv[2:]
    from repro.hypergraph import write_hgr
    from repro.instances import generate_circuit
    from repro.instances.suite import SUITE

    out_dir.mkdir(parents=True, exist_ok=True)
    info = {}
    for name in names:
        spec = SUITE[name]
        gen_seed = spec.seed + SEED_STRIDE * seed
        hg = generate_circuit(
            spec.paper_cells,
            seed=gen_seed,
            rent_exponent=spec.rent_exponent,
            macro_fraction=spec.macro_fraction,
        )
        write_hgr(hg, out_dir / f"{name}.hgr")
        info[name] = {
            "generator_seed": gen_seed,
            "cells": hg.num_vertices,
            "nets": hg.num_nets,
            "pins": hg.num_pins,
        }
        del hg
    print(json.dumps(info))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
