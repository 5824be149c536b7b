"""Statistical significance of heuristic comparisons.

Brglez (cited in Section 3.2) points out that VLSI CAD papers routinely
claim improvements that are indistinguishable from randomization noise.
These helpers answer "is heuristic A actually better than B on this
data?" with standard tests:

* Wilcoxon signed-rank for paired per-seed comparisons (same instance,
  same seed stream — the design :func:`repro.evaluation.runner.run_trials`
  guarantees);
* Mann-Whitney U for unpaired cut distributions;
* a permutation test on mean difference (no distributional assumptions).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.evaluation.records import TrialRecord


@dataclass(frozen=True)
class ComparisonResult:
    """Outcome of a two-heuristic significance comparison."""

    heuristic_a: str
    heuristic_b: str
    mean_a: float
    mean_b: float
    p_value: float
    test: str
    significant: bool  #: at the requested alpha

    @property
    def better(self) -> Optional[str]:
        """The significantly better (lower mean cut) heuristic, if any."""
        if not self.significant:
            return None
        return self.heuristic_a if self.mean_a < self.mean_b else self.heuristic_b


def _cuts_by_heuristic(
    records: Sequence[TrialRecord], a: str, b: str
) -> Tuple[List[TrialRecord], List[TrialRecord]]:
    ra = [r for r in records if r.heuristic == a]
    rb = [r for r in records if r.heuristic == b]
    if not ra or not rb:
        raise ValueError(f"records missing for {a!r} or {b!r}")
    return ra, rb


def paired_wilcoxon(
    records: Sequence[TrialRecord],
    heuristic_a: str,
    heuristic_b: str,
    alpha: float = 0.05,
) -> ComparisonResult:
    """Wilcoxon signed-rank test on per-seed paired cuts.

    Requires both heuristics to have been run with the same seed stream
    on the same instance (pairs are matched on ``(instance, seed)``).
    """
    ra, rb = _cuts_by_heuristic(records, heuristic_a, heuristic_b)
    by_key_a: Dict[tuple, float] = {(r.instance, r.seed): r.cut for r in ra}
    by_key_b: Dict[tuple, float] = {(r.instance, r.seed): r.cut for r in rb}
    keys = sorted(set(by_key_a) & set(by_key_b))
    if len(keys) < 5:
        raise ValueError("need at least 5 matched pairs for Wilcoxon")
    xs = [by_key_a[k] for k in keys]
    ys = [by_key_b[k] for k in keys]
    diffs = [x - y for x, y in zip(xs, ys)]
    if all(d == 0 for d in diffs):
        p_value = 1.0
    else:
        import scipy.stats  # lazy: costs ~0.5 s at CLI import

        p_value = float(scipy.stats.wilcoxon(xs, ys).pvalue)
    return ComparisonResult(
        heuristic_a=heuristic_a,
        heuristic_b=heuristic_b,
        mean_a=sum(xs) / len(xs),
        mean_b=sum(ys) / len(ys),
        p_value=p_value,
        test="wilcoxon-signed-rank",
        significant=p_value < alpha,
    )


def mann_whitney(
    records: Sequence[TrialRecord],
    heuristic_a: str,
    heuristic_b: str,
    alpha: float = 0.05,
) -> ComparisonResult:
    """Mann-Whitney U test on the two unpaired cut distributions."""
    ra, rb = _cuts_by_heuristic(records, heuristic_a, heuristic_b)
    xs = [r.cut for r in ra]
    ys = [r.cut for r in rb]
    import scipy.stats  # lazy: costs ~0.5 s at CLI import

    p_value = float(scipy.stats.mannwhitneyu(xs, ys).pvalue)
    return ComparisonResult(
        heuristic_a=heuristic_a,
        heuristic_b=heuristic_b,
        mean_a=sum(xs) / len(xs),
        mean_b=sum(ys) / len(ys),
        p_value=p_value,
        test="mann-whitney-u",
        significant=p_value < alpha,
    )


def permutation_test(
    records: Sequence[TrialRecord],
    heuristic_a: str,
    heuristic_b: str,
    alpha: float = 0.05,
    num_permutations: int = 2000,
    rng: Optional[random.Random] = None,
) -> ComparisonResult:
    """Two-sided permutation test on the difference of mean cuts."""
    if rng is None:
        rng = random.Random(0)
    ra, rb = _cuts_by_heuristic(records, heuristic_a, heuristic_b)
    xs = [r.cut for r in ra]
    ys = [r.cut for r in rb]
    observed = abs(sum(xs) / len(xs) - sum(ys) / len(ys))
    pooled = xs + ys
    n_a = len(xs)
    extreme = 0
    for _ in range(num_permutations):
        rng.shuffle(pooled)
        pa = pooled[:n_a]
        pb = pooled[n_a:]
        stat = abs(sum(pa) / len(pa) - sum(pb) / len(pb))
        if stat >= observed - 1e-12:
            extreme += 1
    p_value = (extreme + 1) / (num_permutations + 1)
    return ComparisonResult(
        heuristic_a=heuristic_a,
        heuristic_b=heuristic_b,
        mean_a=sum(xs) / len(xs),
        mean_b=sum(ys) / len(ys),
        p_value=p_value,
        test="permutation",
        significant=p_value < alpha,
    )
