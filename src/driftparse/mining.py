"""Position-agnostic frequent-pattern mining over preprocessed log lines.

A cluster is an unordered set of tokens that co-occur in many lines.  Token
order within a line is deliberately ignored so that field reordering across
software versions does not split clusters.  Numeric and value tokens are
eligible cluster members: a value that happens to be near-constant (for
example "off") can and will be mined into a cluster, which restricts the
resulting pattern to lines carrying that value.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .preprocess import TokenSequence


@dataclass(frozen=True)
class PatternCluster:
    """An unordered token set plus the number of lines supporting it."""

    tokens: frozenset[str]
    support: int


@dataclass(frozen=True)
class MiningConfig:
    """Mining knobs.

    threshold is both the frequent-token cutoff and the cluster support
    cutoff; by convention it is the number of ground-truth KPI rows for
    the training window.
    """

    threshold: int

    def __post_init__(self):
        if self.threshold < 1:
            raise ValueError("threshold must be >= 1")


@dataclass(frozen=True)
class ClusterSelection:
    """Every cluster at the threshold, best first."""

    clusters: tuple[PatternCluster, ...]


def count_token_frequencies(corpus: list[TokenSequence]) -> Counter:
    """Count, per token, the number of lines containing it at least once."""
    counts = Counter()
    for line in corpus:
        counts.update(line.token_set())
    return counts


def find_frequent_tokens(freqs: Counter, threshold: int) -> frozenset[str]:
    """Tokens whose line count meets the threshold."""
    if threshold < 1:
        raise ValueError("threshold must be >= 1")
    return frozenset(token for token, count in freqs.items() if count >= threshold)


def build_cluster_candidates(
    corpus: list[TokenSequence],
    frequent: frozenset[str],
) -> list[PatternCluster]:
    """One candidate per distinct frequent-token subset seen in a line.

    Support counts lines whose frequent subset equals the candidate's token
    set.  Lines sharing no token with the frequent set contribute nothing.
    """
    subset_counts = Counter()
    for line in corpus:
        subset = line.token_set() & frequent
        if subset:
            subset_counts[subset] += 1
    return [PatternCluster(frozenset(s), n) for s, n in subset_counts.items()]


def select_clusters(candidates: list[PatternCluster], threshold: int) -> list[PatternCluster]:
    """Keep candidates at or above the support threshold.

    Sorted by support descending; ties broken by the lexicographically
    smallest rendering of the token set.
    """
    kept = [c for c in candidates if c.support >= threshold]
    kept.sort(key=lambda c: (-c.support, sorted(c.tokens)))
    return kept


def mine_clusters(corpus: list[TokenSequence], config: MiningConfig) -> ClusterSelection:
    """Full mining pass: frequencies -> frequent tokens -> candidates -> ranked clusters."""
    freqs = count_token_frequencies(corpus)
    frequent = find_frequent_tokens(freqs, config.threshold)
    candidates = build_cluster_candidates(corpus, frequent)
    return ClusterSelection(tuple(select_clusters(candidates, config.threshold)))
