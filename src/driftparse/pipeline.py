"""End-to-end orchestration: preprocess, mine, build, compile, parse."""

from __future__ import annotations

from .bundle import ModelBundle
from .hmm import TriggerNotFoundError, build_hmm, find_trigger_state
from .mining import MiningConfig, mine_clusters
from .parsing import DEFAULT_KPI, KpiTable, ParsingPattern, compile_pattern, parse_corpus
from .preprocess import EventRecord, TokenSequence, preprocess_event


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
    """
    if threshold is None:
        threshold = len(truth.rows)
    if threshold < 1:
        raise TrainingError("threshold would be zero: the truth table has no rows")
    corpus = preprocess_corpus(records)
    config = MiningConfig(threshold=threshold)
    for cluster in mine_clusters(corpus, config).clusters:
        matching = [line for line in corpus if cluster.tokens <= line.token_set()]
        try:
            trigger = find_trigger_state(cluster.tokens, matching)
        except TriggerNotFoundError:
            continue
        model = build_hmm(matching, cluster)
        pattern = compile_pattern(model, trigger, kpi_name, aliases)
        return ModelBundle(model, pattern, config, provenance)
    raise TrainingError(f"no cluster with support >= {threshold} has a trigger state")


def parse_records(pattern: ParsingPattern, records: list[EventRecord]) -> KpiTable:
    return parse_corpus(pattern, preprocess_corpus(records))
