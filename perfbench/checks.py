"""Output checks that do not trust the program under test.

The cut and part weights of every returned assignment are recounted
from the ``.hgr`` text with numpy alone (no ``repro`` import), and a
campaign journal is checked for plan coverage, legality and a stable
per-trial digest.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

import numpy as np


@dataclass(frozen=True)
class HgrInstance:
    """Flat CSR view of an hMetis file: nets, net and vertex weights."""

    num_vertices: int
    net_ptr: np.ndarray
    net_pins: np.ndarray
    net_weights: np.ndarray
    vertex_weights: np.ndarray

    @property
    def total_weight(self) -> float:
        return float(self.vertex_weights.sum())


def read_hgr(path) -> HgrInstance:
    """Parse an hMetis ``.hgr`` file (formats 0, 1, 10 and 11)."""
    lines = [
        ln for ln in Path(path).read_text(encoding="ascii").splitlines()
        if ln.strip() and not ln.lstrip().startswith("%")
    ]
    header = lines[0].split()
    num_nets, num_vertices = int(header[0]), int(header[1])
    fmt = header[2] if len(header) == 3 else "0"
    net_w = fmt in ("1", "11")
    vtx_w = fmt in ("10", "11")
    ptr = [0]
    pins: List[int] = []
    weights: List[float] = []
    for line in lines[1:1 + num_nets]:
        fields = line.split()
        if net_w:
            weights.append(float(fields[0]))
            fields = fields[1:]
        # Duplicate pins of one net count once, as in the reader.
        pins.extend(sorted({int(f) - 1 for f in fields}))
        ptr.append(len(pins))
    if vtx_w:
        vw = np.array(
            [float(x) for x in lines[1 + num_nets:1 + num_nets + num_vertices]]
        )
    else:
        vw = np.ones(num_vertices)
    return HgrInstance(
        num_vertices=num_vertices,
        net_ptr=np.array(ptr, dtype=np.int64),
        net_pins=np.array(pins, dtype=np.int64),
        net_weights=np.array(weights) if net_w else np.ones(num_nets),
        vertex_weights=vw,
    )


def recount(inst: HgrInstance, assignment: Sequence[int]
            ) -> Tuple[float, List[float]]:
    """``(cut, [w0, w1])`` of a 2-way assignment, from the pins."""
    a = np.asarray(assignment, dtype=np.int64)
    if a.shape != (inst.num_vertices,):
        raise ValueError(
            f"assignment has {a.size} entries, instance has "
            f"{inst.num_vertices} vertices"
        )
    if a.size and not np.isin(a, (0, 1)).all():
        raise ValueError("assignment holds a part other than 0 or 1")
    sizes = np.diff(inst.net_ptr)
    nonempty = sizes > 0
    starts = inst.net_ptr[:-1][nonempty]
    side = a[inst.net_pins]
    ones = np.add.reduceat(side, starts) if starts.size else np.zeros(0)
    cut_nets = (ones > 0) & (ones < sizes[nonempty])
    cut = float(inst.net_weights[nonempty][cut_nets].sum())
    w1 = float(inst.vertex_weights[a == 1].sum())
    w0 = float(inst.vertex_weights[a == 0].sum())
    return cut, [w0, w1]


def check_start(inst: HgrInstance, tolerance: float, assignment,
                cut: float, part_weights: Sequence[float],
                legal: bool) -> List[str]:
    """Problems with one reported start; empty when it is correct."""
    try:
        true_cut, true_w = recount(inst, assignment)
    except ValueError as exc:
        return [str(exc)]
    problems = []
    if true_cut != cut:
        problems.append(f"reported cut {cut:g}, recount {true_cut:g}")
    if [float(w) for w in part_weights] != true_w:
        problems.append(
            f"reported part weights {list(part_weights)}, recount {true_w}"
        )
    total = inst.total_weight
    lo, hi = total * (0.5 - tolerance / 2), total * (0.5 + tolerance / 2)
    if not all(lo <= w <= hi for w in true_w):
        problems.append(
            f"part weights {true_w} outside the window [{lo:g}, {hi:g}]"
        )
    if not legal:
        problems.append("program reported the start as illegal")
    return problems


# ----------------------------------------------------------------------
# Campaign journal
# ----------------------------------------------------------------------
def read_journal(path) -> List[dict]:
    """Every journal line, in file order (duplicates kept)."""
    out = []
    for line in Path(path).read_text(encoding="ascii").splitlines():
        if line.strip():
            out.append(json.loads(line))
    return out


def check_journal(entries: List[dict], planned: int) -> List[str]:
    """Every planned trial journaled exactly once, ok and legal."""
    problems = []
    seen: Dict[int, int] = {}
    for e in entries:
        seen[e["trial"]] = seen.get(e["trial"], 0) + 1
    missing = sorted(set(range(planned)) - set(seen))
    if missing:
        problems.append(f"{len(missing)} planned trials not journaled")
    extra = sorted(set(seen) - set(range(planned)))
    if extra:
        problems.append(f"unplanned trial indices {extra[:5]}")
    dups = sorted(t for t, n in seen.items() if n > 1)
    if dups:
        problems.append(f"trials journaled more than once: {dups[:5]}")
    for e in entries:
        if e.get("status") != "ok":
            problems.append(f"trial {e['trial']} status {e.get('status')}")
        elif e.get("legal") is not True:
            problems.append(f"trial {e['trial']} is not legal")
    return problems


def trial_key(e: dict) -> str:
    """Digest key of one journaled trial: heuristic, instance, seed."""
    return f"{e['heuristic']}|{e['instance']}|{int(e['seed'])}"


def differing_results(path: Path, results: Dict[str, float]) -> List[str]:
    """Keys whose result differs from the one a previous run of the same
    workload and seed recorded at ``path``.  New keys are added to the
    record, so the first run of a seed in a checkout writes it."""
    previous: Dict[str, float] = {}
    if path.exists():
        previous = json.loads(path.read_text(encoding="utf-8"))
    differing = sorted(
        k for k, v in results.items() if k in previous and previous[k] != v
    )
    merged = dict(previous)
    for k, v in results.items():
        merged.setdefault(k, v)
    if merged != previous:
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(merged, sort_keys=True), encoding="utf-8")
        tmp.replace(path)
    return differing
