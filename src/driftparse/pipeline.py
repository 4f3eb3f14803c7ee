"""End-to-end orchestration: preprocess, mine, build, parse."""

from __future__ import annotations

from collections import Counter

from .bundle import ModelBundle
from .hmm import build_hmm, state_followers
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

    Only the truth rows of kpi_name are read, and the mining threshold
    defaults to their number: the KPI occurrences the pattern is expected
    to cover.  In a cluster's matching lines, a state scores a hit on each
    line whose event has a truth value and in which the state is followed
    by exactly that value.  Clusters are tried best-supported first and the
    first with a hit wins, so one whose states never precede a truth value
    (status lines, say) is passed over.  The trigger is the winner's state
    with the most hits, ties going to the lowest token.  The pattern's
    trigger aliases are the given aliases plus the trigger.
    """
    values = {event_id: value for event_id, kpi, value in truth.rows if kpi == kpi_name}
    if threshold is None:
        threshold = len(values)
        if threshold == 0:
            raise TrainingError(f"threshold would be zero: the truth table has no {kpi_name} rows")
    config = MiningConfig(threshold=threshold)
    corpus = preprocess_corpus(records)
    for cluster in mine_clusters(corpus, config).clusters:
        matching = [line for line in corpus if cluster.tokens <= line.token_set()]
        hits: Counter[str] = Counter()
        for line in matching:
            value = values.get(line.event_id)
            if value is not None:
                hits.update({s for s, b in state_followers(line.tokens, cluster.tokens) if b == value})
        if hits:
            trigger = min(hits, key=lambda s: (-hits[s], s))
            model = build_hmm(matching, cluster.tokens)
            pattern = ParsingPattern(cluster.tokens, trigger, kpi_name, frozenset(aliases or ()) | {trigger})
            return ModelBundle(model, pattern, config, provenance)
    raise TrainingError(f"no cluster with support >= {threshold} has a state followed by a {kpi_name} value")


def parse_records(pattern: ParsingPattern, records: list[EventRecord]) -> KpiTable:
    """Parse raw records, preprocessing only those whose text may yield the trigger.

    The trigger is a required token, so a line that cannot yield it cannot
    match: the table equals parse_corpus over every preprocessed record.
    """
    candidates = [r for r in records if may_yield(r.text, pattern.trigger)]
    return parse_corpus(pattern, preprocess_corpus(candidates))
