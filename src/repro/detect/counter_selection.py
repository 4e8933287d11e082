"""Two-step Pearson-correlation counter selection (Section III-B2).

Step 1 keeps counters whose correlation with the target metric (IPC) across
the bug-free training data exceeds a threshold (|r| > 0.7).  Step 2 prunes one
of every pair of surviving counters whose mutual correlation exceeds 0.95
(they are redundant).  Selection is per probe, and the number of selected
counters is clamped to the paper's observed 4-64 range.
"""

from __future__ import annotations

import numpy as np

from ..coresim.counters import CounterTimeSeries
from ..ml.metrics import pearson_correlation

#: Step-1 threshold on |corr(counter, target)|.
TARGET_CORRELATION_THRESHOLD = 0.7
#: Step-2 threshold on |corr(counter_a, counter_b)| above which one is pruned.
REDUNDANCY_THRESHOLD = 0.95
#: Bounds on the per-probe counter count reported by the paper.
MIN_COUNTERS = 4
MAX_COUNTERS = 64

#: Counters that must never be selected as features because they either are
#: the target itself or trivially encode it.
EXCLUDED_COUNTERS = frozenset(
    {
        "commit.instructions",
        "cycles",
        "derived.commit_utilization",
        "mem.amat",
    }
)


def _stack_series(
    series_list: list[CounterTimeSeries], names: list[str]
) -> tuple[np.ndarray, np.ndarray]:
    """Concatenate counter matrices and targets across designs."""
    features = np.vstack([s.matrix(names) for s in series_list])
    targets = np.concatenate([s.ipc for s in series_list])
    return features, targets


def candidate_counters(series_list: list[CounterTimeSeries]) -> list[str]:
    """Counter names available in every series, minus the excluded ones."""
    if not series_list:
        raise ValueError("at least one series is required")
    common = set(series_list[0].names)
    for series in series_list[1:]:
        common &= set(series.names)
    return sorted(
        name
        for name in common
        if name not in EXCLUDED_COUNTERS and not name.startswith("uarch.")
        and not name.startswith("mem.l1d_") and not name.startswith("bug.")
    )


def select_counters(
    series_list: list[CounterTimeSeries],
    correlation_threshold: float = TARGET_CORRELATION_THRESHOLD,
    redundancy_threshold: float = REDUNDANCY_THRESHOLD,
    min_counters: int = MIN_COUNTERS,
    max_counters: int = MAX_COUNTERS,
) -> list[str]:
    """Select the per-probe counter subset from bug-free training series.

    Parameters
    ----------
    series_list:
        Bug-free :class:`CounterTimeSeries` of this probe across the training
        microarchitectures.
    correlation_threshold, redundancy_threshold:
        The two Pearson thresholds of Section III-B2.
    min_counters, max_counters:
        Clamp on the selected set size; if fewer than *min_counters* survive
        step 1, the highest-correlation counters are taken instead.
    """
    names = candidate_counters(series_list)
    if not names:
        raise ValueError("no candidate counters found")
    features, targets = _stack_series(series_list, names)

    correlations = np.array(
        [pearson_correlation(features[:, j], targets) for j in range(len(names))]
    )
    order = np.argsort(-np.abs(correlations))

    # Step 1: keep counters strongly correlated with the target.
    selected_indices = [j for j in order if abs(correlations[j]) > correlation_threshold]
    if len(selected_indices) < min_counters:
        selected_indices = list(order[:min_counters])

    # Step 2: prune redundant counters (pairwise correlation above threshold),
    # keeping the counter with the stronger target correlation.
    kept: list[int] = []
    for j in selected_indices:
        redundant = False
        for k in kept:
            pair_corr = pearson_correlation(features[:, j], features[:, k])
            if abs(pair_corr) > redundancy_threshold:
                redundant = True
                break
        if not redundant:
            kept.append(j)
        if len(kept) >= max_counters:
            break

    if len(kept) < min_counters:
        for j in selected_indices:
            if j not in kept:
                kept.append(j)
            if len(kept) >= min_counters:
                break
    return [names[j] for j in kept]


def manual_counter_set(series_list: list[CounterTimeSeries]) -> list[str]:
    """The fixed, manually chosen 22-counter set used as a baseline (Fig. 10).

    Mirrors the paper's manual selection: cache miss rates at every level,
    branch statistics, and per-stage instruction counts of the core pipeline.
    The same set is used for every probe.  Counters missing from the data
    (e.g. L3 statistics on designs without an L3) are dropped.
    """
    manual = [
        "derived.l1d_miss_rate",
        "derived.l2_miss_rate",
        "derived.l3_miss_rate",
        "derived.mpki_l1d",
        "derived.mpki_l2",
        "cache.l1d.accesses",
        "cache.l2.accesses",
        "bp.lookups",
        "bp.mispredicts",
        "derived.bp_mispredict_rate",
        "derived.branch_mpki",
        "derived.pct_branches",
        "derived.pct_loads",
        "derived.pct_stores",
        "derived.pct_fp",
        "fetch.instructions",
        "dispatch.instructions",
        "issue.instructions",
        "writeback.instructions",
        "commit.register_writes",
        "rob.occupancy_sum",
        "iq.occupancy_sum",
    ]
    available = set(candidate_counters(series_list))
    chosen = [name for name in manual if name in available]
    if not chosen:
        raise ValueError("none of the manual counters are present in the data")
    return chosen
