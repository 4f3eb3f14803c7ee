import random

import pytest
from hypothesis import given, settings, strategies as st

from driftparse.mining import (
    MiningConfig,
    PatternCluster,
    build_cluster_candidates,
    count_token_frequencies,
    find_frequent_tokens,
    frequent_subsets,
    mine_clusters,
    select_clusters,
)
from driftparse.preprocess import TokenSequence


def lines(*token_lists):
    return [TokenSequence(f"e{i}", tuple(toks)) for i, toks in enumerate(token_lists)]


def candidates(corpus, frequent):
    return build_cluster_candidates(frequent_subsets(corpus, frequent))


token_strategy = st.text(alphabet="abcdef", min_size=1, max_size=3)
corpus_strategy = st.lists(
    st.lists(token_strategy, min_size=0, max_size=8), min_size=0, max_size=20
).map(lambda ls: lines(*ls))


class TestCounting:
    def test_counts_lines_not_occurrences(self):
        corpus = lines(["ctdi", "ctdi", "x"], ["ctdi"], ["y"])
        assert count_token_frequencies(corpus)["ctdi"] == 2

    def test_empty_corpus(self):
        assert count_token_frequencies([]) == {}

    def test_threshold_filters(self):
        assert find_frequent_tokens({"a": 5, "b": 2}, 3) == {"a"}

    def test_threshold_one_keeps_all(self):
        assert find_frequent_tokens({"a": 5, "b": 2}, 1) == {"a", "b"}

    def test_threshold_below_one_rejected(self):
        with pytest.raises(ValueError, match="^threshold must be >= 1$"):
            find_frequent_tokens({"a": 5}, 0)

    @given(corpus_strategy)
    @settings(max_examples=100, deadline=None)
    def test_count_matches_brute_force_rescan(self, corpus):
        counts = count_token_frequencies(corpus)
        for token, count in counts.items():
            assert count == sum(1 for line in corpus if token in line.tokens)


class TestCandidates:
    def test_identical_subsets_merge(self):
        corpus = lines(["a", "b", "v1"], ["b", "a", "v2"])
        cands = candidates(corpus, frozenset({"a", "b"}))
        assert cands == [PatternCluster(frozenset({"a", "b"}), 2)]

    def test_disjoint_line_contributes_nothing(self):
        corpus = lines(["x", "y"])
        assert candidates(corpus, frozenset({"a"})) == []


class TestSelection:
    def test_threshold_cut(self):
        cands = [PatternCluster(frozenset({"a"}), 25), PatternCluster(frozenset({"b"}), 19)]
        assert select_clusters(cands, 20) == [cands[0]]

    def test_all_below_threshold(self):
        assert select_clusters([PatternCluster(frozenset({"a"}), 1)], 5) == []

    def test_sort_by_support_then_tokens(self):
        cands = [
            PatternCluster(frozenset({"z"}), 5),
            PatternCluster(frozenset({"a"}), 5),
            PatternCluster(frozenset({"m"}), 9),
        ]
        assert [c.tokens for c in select_clusters(cands, 1)] == [
            frozenset({"m"}),
            frozenset({"a"}),
            frozenset({"z"}),
        ]

    def test_reduce_picks_top(self):
        corpus = lines(*([c] for c, n in (("a", 3), ("b", 9), ("c", 5)) for _ in range(n)))
        sel = mine_clusters(corpus, MiningConfig(threshold=1))
        assert sel.clusters == (
            PatternCluster(frozenset({"b"}), 9),
            PatternCluster(frozenset({"c"}), 5),
            PatternCluster(frozenset({"a"}), 3),
        )


class TestProperties:
    @given(corpus_strategy, st.integers(min_value=1, max_value=5), st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_position_invariance(self, corpus, threshold, seed):
        rng = random.Random(seed)
        shuffled = []
        for line in corpus:
            toks = list(line.tokens)
            rng.shuffle(toks)
            shuffled.append(TokenSequence(line.event_id, tuple(toks)))
        config = MiningConfig(threshold=threshold)
        a = mine_clusters(corpus, config)
        b = mine_clusters(shuffled, config)
        assert {(c.tokens, c.support) for c in a.clusters} == {(c.tokens, c.support) for c in b.clusters}

    @given(corpus_strategy, st.integers(min_value=1, max_value=5))
    @settings(max_examples=100, deadline=None)
    def test_support_recount_oracle(self, corpus, threshold):
        freqs = count_token_frequencies(corpus)
        frequent = find_frequent_tokens(freqs, threshold)
        for cluster in candidates(corpus, frequent):
            containing = sum(1 for line in corpus if cluster.tokens <= line.token_set())
            exact = sum(
                1 for line in corpus if (line.token_set() & frequent) == cluster.tokens
            )
            assert cluster.support == exact
            assert cluster.support <= containing

    @given(corpus_strategy, st.integers(min_value=1, max_value=5))
    @settings(max_examples=100, deadline=None)
    def test_subsets_are_each_line_s_frequent_tokens(self, corpus, threshold):
        # train reads a cluster's matching lines off these subsets
        selection = mine_clusters(corpus, MiningConfig(threshold=threshold))
        frequent = find_frequent_tokens(count_token_frequencies(corpus), threshold)
        assert selection.subsets == tuple(line.token_set() & frequent for line in corpus)
        for cluster in selection.clusters:
            matching = [line for line in corpus if cluster.tokens <= line.token_set()]
            assert matching == [line for line, s in zip(corpus, selection.subsets) if cluster.tokens <= s]
        # equal subsets are one object, so the selection holds each distinct subset once
        distinct = {s: s for s in selection.subsets}
        assert all(s is distinct[s] for s in selection.subsets)

    @given(corpus_strategy, st.integers(min_value=1, max_value=4))
    @settings(max_examples=100, deadline=None)
    def test_threshold_monotonicity(self, corpus, threshold):
        """Raising the threshold shrinks the frequent set, and every candidate
        cluster at the higher threshold is covered by one at the lower."""
        freqs = count_token_frequencies(corpus)
        frequent_low = find_frequent_tokens(freqs, threshold)
        frequent_high = find_frequent_tokens(freqs, threshold + 1)
        assert frequent_high <= frequent_low
        lower_sets = {c.tokens for c in candidates(corpus, frequent_low)}
        for cluster in candidates(corpus, frequent_high):
            assert any(cluster.tokens <= s for s in lower_sets)


class TestValueOverfitting:
    def test_near_constant_value_is_mined_into_cluster(self):
        # the value "off" rides along in most KPI lines, so a threshold below
        # its line count pulls it into the pattern; lines carrying "on" are
        # then invisible to the resulting parser
        corpus = lines(
            *(["key", "sub", "off", "1.00"] for _ in range(8)),
            *(["key", "sub", "on", "2.00"] for _ in range(2)),
        )
        selection = mine_clusters(corpus, MiningConfig(threshold=8))
        assert len(selection.clusters) == 1
        assert "off" in selection.clusters[0].tokens
        assert selection.clusters[0].support == 8
