"""End-to-end orchestration: preprocess, mine, build, compile, parse."""

from __future__ import annotations

from .bundle import ModelBundle
from .hmm import TriggerNotFoundError, build_hmm, find_trigger_state
from .mining import MiningConfig, mine_clusters
from .parsing import KpiTable, ParsingPattern, compile_pattern, parse_corpus
from .preprocess import DEFAULT_STOPWORDS, EventRecord, TokenSequence, preprocess_event


class TrainingError(ValueError):
    """The pipeline could not produce a usable pattern."""


def preprocess_corpus(
    records: list[EventRecord], stopwords: frozenset[str] = DEFAULT_STOPWORDS
) -> list[TokenSequence]:
    return [preprocess_event(r, stopwords) for r in records]


def train(
    records: list[EventRecord],
    truth: KpiTable,
    kpi_name: str = "ctdi",
    threshold: int | None = None,
    aliases: list[str] | None = None,
    stopwords: frozenset[str] = DEFAULT_STOPWORDS,
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
    corpus = preprocess_corpus(records, stopwords)
    config = MiningConfig(threshold=threshold, expected_kpi_count=1)
    # every cluster at the threshold, best first: there are at most as many as lines
    every = MiningConfig(threshold=threshold, expected_kpi_count=max(len(corpus), 1))
    for cluster in mine_clusters(corpus, every).clusters:
        matching = [line for line in corpus if cluster.tokens <= line.token_set()]
        try:
            trigger = find_trigger_state(cluster.tokens, matching)
        except TriggerNotFoundError:
            continue
        model = build_hmm(matching, cluster)
        pattern = compile_pattern(model, trigger, kpi_name, aliases)
        return ModelBundle(model, pattern, config, provenance)
    raise TrainingError(f"no cluster with support >= {threshold} has a trigger state")


def parse_records(
    pattern: ParsingPattern,
    records: list[EventRecord],
    stopwords: frozenset[str] = DEFAULT_STOPWORDS,
) -> KpiTable:
    return parse_corpus(pattern, preprocess_corpus(records, stopwords))
