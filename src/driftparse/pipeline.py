"""End-to-end orchestration: preprocess, mine, build, parse."""

from __future__ import annotations

from collections import Counter
from itertools import compress

from .bundle import ModelBundle
from .hmm import build_hmm
from .mining import MiningConfig, mine_clusters
from .parsing import DEFAULT_KPI, KpiTable, ParsingPattern, parse_corpus
from .preprocess import EventRecord, TokenSequence, may_yield, preprocess_event


class TrainingError(ValueError):
    """The pipeline could not produce a usable pattern."""


def preprocess_corpus(records: list[EventRecord]) -> list[TokenSequence]:
    return [preprocess_event(r) for r in records]


def _states_before(tokens: tuple[str, ...], value: str, state_set) -> set[str]:
    """The states s of the state_followers pairs (s, value) of one line.

    tuple.index finds each occurrence of value, and the token before it is
    read, so a line is searched in C rather than paired token by token.  An
    occurrence as the line's first token follows nothing.
    """
    found = set()
    at = -1
    for _ in range(tokens.count(value)):
        at = tokens.index(value, at + 1)
        if at and tokens[at - 1] in state_set:
            found.add(tokens[at - 1])
    return found


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
    trigger aliases are the given aliases plus the trigger.  An alias that
    is not a token as preprocessing emits it could never fire, so it is
    refused before mining.
    """
    for alias in aliases or ():
        tokens = preprocess_event(EventRecord("", "", "", alias)).tokens
        if tokens != (alias,):
            becomes = ", ".join(map(repr, tokens)) or "nothing"
            raise TrainingError(f"alias {alias!r} preprocesses to {becomes}, not to itself")
    values = {event_id: value for event_id, kpi, value in truth.rows if kpi == kpi_name}
    if threshold is None:
        threshold = len(values)
        if threshold == 0:
            raise TrainingError(f"threshold would be zero: the truth table has no {kpi_name} rows")
    config = MiningConfig(threshold=threshold)
    corpus = preprocess_corpus(records)
    selection = mine_clusters(corpus, config)
    for cluster in selection.clusters:
        matching = list(compress(corpus, map(cluster.tokens.__le__, selection.subsets)))
        hits: Counter[str] = Counter()
        for line in matching:
            value = values.get(line.event_id)
            if value is not None:
                hits.update(_states_before(line.tokens, value, cluster.tokens))
        if hits:
            trigger = min(hits, key=lambda s: (-hits[s], s))
            model = build_hmm(matching, cluster.tokens)
            pattern = ParsingPattern(cluster.tokens, trigger, kpi_name, frozenset(aliases or ()) | {trigger})
            return ModelBundle(model, pattern, config, provenance)
    raise TrainingError(f"no cluster with support >= {threshold} has a state followed by a {kpi_name} value")


def preprocess_candidates(pattern: ParsingPattern, records: list[EventRecord]) -> list[TokenSequence]:
    """Preprocess only the records whose text may yield the pattern's trigger.

    The text half of parsing.trigger_lines: every record behind a trigger
    line is among them, in log order, so trigger_lines over the result
    equals trigger_lines over every preprocessed record.
    """
    return preprocess_corpus([r for r in records if may_yield(r.text, pattern.trigger)])


def parse_records(pattern: ParsingPattern, records: list[EventRecord]) -> KpiTable:
    """Parse raw records, preprocessing only those whose text may yield the trigger.

    Only trigger lines can match (parsing.trigger_lines), so the table
    equals parse_corpus over every preprocessed record.
    """
    return parse_corpus(pattern, preprocess_candidates(pattern, records))
