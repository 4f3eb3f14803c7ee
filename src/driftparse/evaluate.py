"""Scoring parsed KPI tables against ground truth.

The comparison universe is the population of candidate extraction slots
(one per scanned line in single-KPI mode); true negatives are whatever the
universe leaves after counting hits, false alarms and misses.  A row whose
value mismatches the truth counts as one false positive and one false
negative.  Values are compared as the strings KpiTable stores, which
KpiTable.add has already canonicalized, so "24.970004" and "24.97" are
the same value whether a table was parsed in memory or read from CSV.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .parsing import KpiTable
from .preprocess import EventRecord


@dataclass(frozen=True)
class ConfusionMatrix:
    tp: int
    fp: int
    fn: int
    tn: int

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.fn + self.tn

    def __post_init__(self):
        if min(self.tp, self.fp, self.fn, self.tn) < 0:
            raise ValueError("confusion counts must be non-negative")


def confusion(parsed: KpiTable, truth: KpiTable, universe_size: int) -> ConfusionMatrix:
    """Slot-count confusion matrix over an explicit comparison universe.

    Each table holds one row per key, so FP = parsed rows - TP and
    FN = truth rows - TP.
    """
    truth_map = truth.as_dict()
    tp = sum(truth_map.get((eid, kpi)) == value for eid, kpi, value in parsed.rows)
    fp = len(parsed.rows) - tp
    fn = len(truth.rows) - tp
    tn = universe_size - tp - fp - fn
    if tn < 0:
        raise ValueError(
            f"universe of {universe_size} too small for {tp + fp + fn} occupied slots"
        )
    return ConfusionMatrix(tp, fp, fn, tn)


def accuracy(cm: ConfusionMatrix) -> float:
    """Share of correct decisions (TP+TN)/(TP+FP+FN+TN) over the comparison universe."""
    if cm.total == 0:
        raise ValueError("accuracy undefined on an empty universe")
    return (cm.tp + cm.tn) / cm.total


def sensitivity(cm: ConfusionMatrix) -> float:
    """Hit rate TP/(TP+FN); undefined when there are no actual positives."""
    if cm.tp + cm.fn == 0:
        raise ValueError("sensitivity undefined when tp + fn = 0")
    return cm.tp / (cm.tp + cm.fn)


def stratified_split(
    corpus: list[EventRecord],
    truth: KpiTable,
    train_fraction: float,
    seed: int,
) -> tuple[tuple[list[EventRecord], KpiTable], tuple[list[EventRecord], KpiTable]]:
    """Split events by presence of a truth row, each stratum independently.

    Deterministic for a given seed.  Errors out when either stratum is
    empty, because a stratified split over one stratum is meaningless.
    """
    if not 0 < train_fraction < 1:
        raise ValueError("train_fraction must lie strictly between 0 and 1")
    truth_events = {eid for eid, _, _ in truth.rows}
    positives = [e for e in corpus if e.event_id in truth_events]
    negatives = [e for e in corpus if e.event_id not in truth_events]
    if not positives or not negatives:
        raise ValueError("both strata must be non-empty for a stratified split")

    rng = random.Random(seed)
    train_ids: set[str] = set()
    for stratum in (positives, negatives):
        shuffled = stratum[:]
        rng.shuffle(shuffled)
        take = round(train_fraction * len(shuffled))
        train_ids.update(e.event_id for e in shuffled[:take])

    train_events = [e for e in corpus if e.event_id in train_ids]
    test_events = [e for e in corpus if e.event_id not in train_ids]
    train_truth = KpiTable([r for r in truth.rows if r[0] in train_ids])
    test_truth = KpiTable([r for r in truth.rows if r[0] not in train_ids])
    return (train_events, train_truth), (test_events, test_truth)


def format_confusion(cm: ConfusionMatrix) -> str:
    """Text rendering in the two-by-two truth-versus-parser layout."""
    lines = [
        "                     True Parsing",
        "                     Positive   Negative",
        f"Parser  Positive     {cm.tp:>8}   {cm.fp:>8}",
        f"        Negative     {cm.fn:>8}   {cm.tn:>8}",
        "",
        f"accuracy    {accuracy(cm) * 100:.1f}%",
    ]
    if cm.tp + cm.fn > 0:
        lines.append(f"sensitivity {sensitivity(cm) * 100:.1f}%")
    return "\n".join(lines)
