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
from itertools import chain

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
    """Every cluster at the threshold, best first, plus each line's frequent tokens.

    subsets[i] is the frequent subset of corpus line i, the one mining
    counted it under; lines with equal subsets share one frozenset.  A
    cluster is a subset of the frequent tokens, so a line carries every
    token of a cluster exactly when its subset holds the cluster's tokens.
    """

    clusters: tuple[PatternCluster, ...]
    subsets: tuple[frozenset[str], ...]


def count_token_frequencies(corpus: list[TokenSequence]) -> Counter:
    """Count, per token, the number of lines containing it at least once."""
    return Counter(chain.from_iterable(map(TokenSequence.token_set, corpus)))


def find_frequent_tokens(freqs: Counter, threshold: int) -> frozenset[str]:
    """Tokens whose line count meets the threshold."""
    if threshold < 1:
        raise ValueError("threshold must be >= 1")
    return frozenset(token for token, count in freqs.items() if count >= threshold)


def frequent_subsets(corpus: list[TokenSequence], frequent: frozenset[str]) -> list[frozenset[str]]:
    """Each line's frequent tokens, in line order; equal subsets are one frozenset.

    Lines repeat a handful of subsets, so the list holds a handful of sets.
    """
    distinct: dict[frozenset[str], frozenset[str]] = {}
    return [distinct.setdefault(s, s) for s in (frequent.intersection(line.tokens) for line in corpus)]


def build_cluster_candidates(subsets: list[frozenset[str]]) -> list[PatternCluster]:
    """One candidate per distinct non-empty frequent subset, in order of first line.

    Support counts the lines whose frequent subset equals the candidate's
    token set.  Lines sharing no token with the frequent set contribute
    nothing.
    """
    return [PatternCluster(s, n) for s, n in Counter(filter(None, subsets)).items()]


def select_clusters(candidates: list[PatternCluster], threshold: int) -> list[PatternCluster]:
    """Keep candidates at or above the support threshold.

    Sorted by support descending; ties broken by the lexicographically
    smallest rendering of the token set.
    """
    kept = [c for c in candidates if c.support >= threshold]
    kept.sort(key=lambda c: (-c.support, sorted(c.tokens)))
    return kept


def mine_clusters(corpus: list[TokenSequence], config: MiningConfig) -> ClusterSelection:
    """Full mining pass: frequencies -> frequent tokens -> candidates -> ranked clusters.

    As in SLCT (Vaarandi 2003), one pass counts the tokens and one counts
    the candidates.  The first builds one token set per line and drops it;
    the second builds each line's frequent subset from its tokens, and
    train reads a cluster's matching lines off those subsets.
    """
    frequent = find_frequent_tokens(count_token_frequencies(corpus), config.threshold)
    subsets = frequent_subsets(corpus, frequent)
    candidates = build_cluster_candidates(subsets)
    return ClusterSelection(tuple(select_clusters(candidates, config.threshold)), tuple(subsets))
