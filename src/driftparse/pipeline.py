"""End-to-end orchestration: preprocess, mine, build, parse."""

from __future__ import annotations

from .bundle import ModelBundle
from .hmm import TriggerNotFoundError, build_hmm, find_trigger_state
from .mining import MiningConfig, mine_clusters
from .parsing import DEFAULT_KPI, KpiTable, ParsingPattern, parse_corpus
from .preprocess import EventRecord, TokenSequence, may_yield, preprocess_event


class TrainingError(ValueError):
    """The pipeline could not produce a usable pattern."""


def preprocess_corpus(records: list[EventRecord]) -> list[TokenSequence]:
    return [preprocess_event(r) for r in records]


def train(
    records: list[EventRecord],
    truth: KpiTable,
    kpi_name: str = DEFAULT_KPI,
    threshold: int | None = None,
    aliases: list[str] | None = None,
    provenance: str = "",
) -> ModelBundle:
    """Learn a parsing pattern from example logs plus a ground-truth table.

    The mining threshold defaults to the number of truth rows for the
    training window, which is the number of KPI occurrences the pattern
    is expected to cover.  The best-supported cluster that has a trigger
    state wins; one with no number after any of its tokens is passed over.
    The pattern's trigger aliases are the given aliases plus the trigger.
    """
    if threshold is None:
        threshold = len(truth.rows)
        if threshold == 0:
            raise TrainingError("threshold would be zero: the truth table has no rows")
    config = MiningConfig(threshold=threshold)
    corpus = preprocess_corpus(records)
    for cluster in mine_clusters(corpus, config).clusters:
        matching = [line for line in corpus if cluster.tokens <= line.token_set()]
        try:
            trigger = find_trigger_state(cluster.tokens, matching)
        except TriggerNotFoundError:
            continue
        model = build_hmm(matching, cluster.tokens)
        pattern = ParsingPattern(cluster.tokens, trigger, kpi_name, frozenset(aliases or ()) | {trigger})
        return ModelBundle(model, pattern, config, provenance)
    raise TrainingError(f"no cluster with support >= {threshold} has a trigger state")


def parse_records(pattern: ParsingPattern, records: list[EventRecord]) -> KpiTable:
    """Parse raw records, preprocessing only those whose text may yield the trigger.

    The trigger is a required token, so a line that cannot yield it cannot
    match: the table equals parse_corpus over every preprocessed record.
    """
    candidates = [r for r in records if may_yield(r.text, pattern.trigger)]
    return parse_corpus(pattern, preprocess_corpus(candidates))
