from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

import driftparse.adapt
from driftparse.adapt import (
    DEFAULT_CONSENSUS_FRACTION,
    DEFAULT_COVERAGE_FRACTION,
    adapt_baum_welch,
    adapt_viterbi,
)
from driftparse.corpus import DRIFT_SYSTEM_B, GeneratorConfig, generate_corpus
from driftparse.evaluate import confusion, sensitivity
from driftparse.hmm import OOV_TOKEN, FitConfig, Hmm, observation_sequences, state_usage
from driftparse.parsing import ParsingPattern, parse_corpus
from driftparse.pipeline import preprocess_corpus, train
from driftparse.preprocess import TokenSequence

from .decoding import decode_one


@pytest.fixture(scope="module")
def adapted_bw(bundle_a, lines_b):
    return adapt_baum_welch(bundle_a.hmm, bundle_a.pattern, lines_b)


@pytest.fixture(scope="module")
def adapted_vit(bundle_a, lines_b):
    return adapt_viterbi(bundle_a.hmm, bundle_a.pattern, lines_b)


def anchored_vote(pattern, states, lines):
    """Model-free reference for adapt_viterbi's pattern.

    A line votes when it carries at least DEFAULT_COVERAGE_FRACTION of the
    states and some state is followed by a token; a token joins the pattern
    when it follows the same state token in at least
    DEFAULT_CONSENSUS_FRACTION of the voting lines.
    """
    state_set = frozenset(states)
    votes, voting = Counter(), 0
    for line in lines:
        pairs = {(a, b) for a, b in zip(line.tokens, line.tokens[1:]) if a in state_set}
        if pairs and len(line.token_set() & state_set) >= DEFAULT_COVERAGE_FRACTION * len(state_set):
            votes.update(pairs)
            voting += 1
    joined = {token for (_, token), n in votes.items() if n / voting >= DEFAULT_CONSENSUS_FRACTION}
    return pattern.required_tokens | joined


def hit_rate(pattern, lines, truth):
    parsed = parse_corpus(pattern, lines)
    cm = confusion(parsed, truth, universe_size=10 * len(lines))
    return sensitivity(cm), cm


class TestHelpers:
    def test_observation_sequences_follow_states(self):
        lines = [TokenSequence("e1", ("a", "x", "b", "y", "z"))]
        assert observation_sequences(("a", "b"), lines) == [["x", "y"]]

    def test_line_final_state_emits_nothing(self):
        lines = [TokenSequence("e1", ("x", "a"))]
        assert observation_sequences(("a",), lines) == [[]]

    def test_state_usage_counts_occurrences(self):
        lines = [
            TokenSequence("e1", ("a", "x", "a")),
            TokenSequence("e2", ("b", "y")),
        ]
        assert state_usage(("a", "b", "c"), lines) == {"a": 2, "b": 1, "c": 0}


class TestBaumWelchAdaptation:
    def test_pattern_shrinks(self, bundle_a, adapted_bw):
        _, pattern, _ = adapted_bw
        assert pattern.required_tokens < bundle_a.pattern.required_tokens

    def test_drops_exactly_the_drifted_fields(self, bundle_a, adapted_bw):
        _, pattern, _ = adapted_bw
        dropped = bundle_a.pattern.required_tokens - pattern.required_tokens
        # fields the drifted system renamed or stopped writing
        assert dropped == {"mas", "miorgcharabdomen", "mirangestartauto", "mirot", "scanuid"}

    def test_trigger_survives(self, adapted_bw):
        _, pattern, _ = adapted_bw
        assert pattern.trigger == "ctdi"
        assert pattern.trigger in pattern.required_tokens

    def test_loglik_trace_recorded_and_nondecreasing(self, adapted_bw):
        _, _, report = adapted_bw
        trace = report.loglik_trace
        assert trace
        assert all(b >= a - 1e-6 for a, b in zip(trace, trace[1:]))

    def test_aliases_keep_non_states_and_lose_starved_states(self, bundle_a, lines_b):
        # ctdivol is no state, so the refit has no count for it; mas is a
        # state the drifted log starves
        aliases = frozenset({"ctdi", "ctdivol", "mas"})
        pattern = replace(bundle_a.pattern, trigger_aliases=aliases)
        _, adapted, _ = adapt_baum_welch(bundle_a.hmm, pattern, lines_b, FitConfig(max_iterations=1))
        assert "ctdivol" not in bundle_a.hmm.states
        assert "mas" not in adapted.required_tokens
        assert adapted.trigger_aliases == {"ctdi", "ctdivol"}

    def test_refit_model_validates(self, adapted_bw):
        adapted_bw[0].validate()

    def test_fixed_point_on_undrifted_corpus(self, bundle_a, lines_a):
        _, pattern, _ = adapt_baum_welch(bundle_a.hmm, bundle_a.pattern, lines_a)
        assert pattern.required_tokens == bundle_a.pattern.required_tokens

    def test_empty_corpus_rejected(self, bundle_a):
        with pytest.raises(ValueError):
            adapt_baum_welch(bundle_a.hmm, bundle_a.pattern, [])

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_refit_that_drops_the_trigger_is_refused_before_the_refit(self, seed, monkeypatch):
        # drift renames the KPI key in every scan line: ctdi starves, and
        # without truth values no other state may take its place
        train_log, train_truth = generate_corpus(GeneratorConfig(seed=seed, n_events=600))
        bundle = train(train_log, train_truth)
        drifted, _ = generate_corpus(GeneratorConfig(seed=seed + 1000, n_events=400))
        renamed = [replace(r, text=r.text.replace("@CTDI@=", "@CTDIvol@=")) for r in drifted]

        def no_refit(*args, **kwargs):
            raise AssertionError("the refit ran")

        monkeypatch.setattr("driftparse.adapt.baum_welch_fit", no_refit)
        with pytest.raises(ValueError, match=r"^refit would drop the trigger 'ctdi': it occurs 0 times"):
            adapt_baum_welch(bundle.hmm, bundle.pattern, preprocess_corpus(renamed))

    @pytest.mark.parametrize("floor", [-1.0, float("nan"), float("inf")])
    def test_bad_occupancy_floor_rejected_before_the_refit(self, bundle_a, lines_b, floor, monkeypatch):
        def no_refit(*args, **kwargs):
            raise AssertionError("the refit ran")

        monkeypatch.setattr("driftparse.adapt.baum_welch_fit", no_refit)
        with pytest.raises(ValueError, match="occupancy_floor"):
            adapt_baum_welch(bundle_a.hmm, bundle_a.pattern, lines_b, occupancy_floor=floor)


class TestViterbiAdaptation:
    def test_pattern_grows(self, bundle_a, adapted_vit):
        _, pattern, _ = adapted_vit
        assert pattern.required_tokens > bundle_a.pattern.required_tokens

    def test_additions_include_drifted_tokens(self, bundle_a, adapted_vit):
        _, pattern, _ = adapted_vit
        added = pattern.required_tokens - bundle_a.pattern.required_tokens
        assert "studyloid" in added

    def test_fixed_point_on_undrifted_corpus(self, bundle_a, lines_a):
        _, pattern, _ = adapt_viterbi(bundle_a.hmm, bundle_a.pattern, lines_a)
        assert pattern.required_tokens == bundle_a.pattern.required_tokens

    def test_additions_equal_per_line_decode_vote(self, bundle_a, lines_b, adapted_vit):
        # reference: the public decode of each voting line, then the consensus vote
        model = bundle_a.hmm
        state_set = frozenset(model.states)
        votes, voting = Counter(), 0
        for line, obs in zip(lines_b, observation_sequences(model.states, lines_b)):
            if obs and len(line.token_set() & state_set) >= DEFAULT_COVERAGE_FRACTION * len(state_set):
                path, _ = decode_one(model, obs)
                votes.update(set(zip(obs, path)))
                voting += 1
        expected = {tok for (tok, _), n in votes.items() if n / voting >= DEFAULT_CONSENSUS_FRACTION}
        _, pattern, _ = adapted_vit
        assert pattern.required_tokens == bundle_a.pattern.required_tokens | expected

    def test_each_distinct_encoding_decoded_once(self, bundle_a, lines_b, monkeypatch):
        model = bundle_a.hmm
        state_set = frozenset(model.states)
        voting = [
            obs
            for line, obs in zip(lines_b, observation_sequences(model.states, lines_b))
            if obs and len(line.token_set() & state_set) >= DEFAULT_COVERAGE_FRACTION * len(state_set)
        ]
        calls, groups, trees = [], [], []
        real_decode = driftparse.adapt.viterbi_decode
        real_group, real_tree = driftparse.hmm._decode_tree, driftparse.hmm._prefix_tree

        def decode_spy(m, encoded):
            calls.append([obs.tobytes() for obs in encoded])
            return real_decode(m, encoded)

        def group_spy(m, rows):
            groups.append([tuple(row.tolist()) for row in rows])
            return real_group(m, rows)

        def tree_spy(symbols, live):
            levels, node = real_tree(symbols, live)
            trees.append([(parent.tolist(), symbol.tolist()) for parent, symbol in levels])
            return levels, node

        monkeypatch.setattr(driftparse.adapt, "viterbi_decode", decode_spy)
        monkeypatch.setattr(driftparse.hmm, "_decode_tree", group_spy)
        monkeypatch.setattr(driftparse.hmm, "_prefix_tree", tree_spy)
        _, _, report = adapt_viterbi(model, bundle_a.pattern, lines_b)
        distinct = {model.encode(obs).tobytes() for obs in voting}
        [decoded] = calls
        assert set(decoded) == distinct
        assert len(decoded) == len(distinct) < len(voting) == report.voting_lines
        # the groups cut the distinct encodings into as few bounded groups as can hold them
        bound = driftparse.hmm._DECODE_BATCH
        grouped = [np.array(row, dtype=np.intp).tobytes() for group in groups for row in group]
        assert sorted(grouped) == sorted(decoded)
        assert all(1 <= len(group) <= bound for group in groups)
        assert len(groups) == -(-len(distinct) // bound) > 1
        # level t of a group's tree steps each distinct prefix of length t + 1 once
        assert len(trees) == len(groups)
        for group, levels in zip(groups, trees):
            assert len(levels) == max(map(len, group))
            prefixes = [()]
            for t, (parent, symbol) in enumerate(levels):
                prefixes = [prefixes[p] + (s,) for p, s in zip(parent, symbol)]
                assert prefixes == sorted({row[: t + 1] for row in group if len(row) > t})

    def test_small_decode_batch_gives_the_same_adaptation(self, bundle_a, lines_b, adapted_vit, monkeypatch):
        monkeypatch.setattr(driftparse.hmm, "_DECODE_BATCH", 2)
        _, pattern, report = adapt_viterbi(bundle_a.hmm, bundle_a.pattern, lines_b)
        assert (pattern, report) == adapted_vit[1:]

    def test_lines_of_equal_length_that_encode_differently_decode_apart(self):
        # s0 emits x and s1 emits y: "x y" decodes to [0, 1] and "y x" to [1, 0];
        # reusing one path for both would split each token's votes 1 to 1
        model = Hmm(
            ("s0", "s1"),
            ("x", "y", OOV_TOKEN),
            np.array([0.5, 0.5]),
            np.array([[0.5, 0.5], [0.5, 0.5]]),
            np.array([[0.9, 0.05, 0.05], [0.05, 0.9, 0.05]]),
        )
        pattern = ParsingPattern(frozenset(model.states), "s0", "ctdi", frozenset({"s0"}))
        lines = [TokenSequence("e1", ("s0", "x", "s1", "y")), TokenSequence("e2", ("s1", "y", "s0", "x"))]
        _, adapted, report = adapt_viterbi(model, pattern, lines)
        assert adapted.required_tokens == {"s0", "s1", "x", "y"}
        assert report.voting_lines == 2
        assert report.consensus == (("x", 1.0), ("y", 1.0))

    def test_pattern_equals_anchored_vote(self, bundle_a, lines_b, adapted_vit):
        _, pattern, _ = adapted_vit
        assert pattern.required_tokens == anchored_vote(bundle_a.pattern, bundle_a.hmm.states, lines_b)

    @pytest.mark.parametrize("seed", range(10))
    def test_pattern_equals_anchored_vote_on_generated_drift(self, seed):
        trained = train(*generate_corpus(GeneratorConfig(seed=seed, n_events=600)))
        drifted, _ = generate_corpus(
            GeneratorConfig(seed=seed + 1000, n_events=400, drift_profile=DRIFT_SYSTEM_B)
        )
        lines = preprocess_corpus(drifted)
        _, pattern, _ = adapt_viterbi(trained.hmm, trained.pattern, lines)
        assert pattern.required_tokens == anchored_vote(trained.pattern, trained.hmm.states, lines)

    def test_stricter_consensus_adds_no_more(self, bundle_a, lines_b, adapted_vit):
        _, default_pattern, _ = adapted_vit
        _, strict_pattern, _ = adapt_viterbi(
            bundle_a.hmm, bundle_a.pattern, lines_b, consensus_fraction=1.0
        )
        assert strict_pattern.required_tokens <= default_pattern.required_tokens

    def test_bad_consensus_rejected(self, bundle_a, lines_b):
        with pytest.raises(ValueError):
            adapt_viterbi(bundle_a.hmm, bundle_a.pattern, lines_b, consensus_fraction=0.0)

    def test_empty_corpus_rejected(self, bundle_a):
        with pytest.raises(ValueError):
            adapt_viterbi(bundle_a.hmm, bundle_a.pattern, [])


class TestDirectionalContract:
    """The two strategies must bracket the unadapted pattern."""

    def test_pattern_size_ordering(self, bundle_a, adapted_bw, adapted_vit):
        _, bw_pattern, _ = adapted_bw
        _, vit_pattern, _ = adapted_vit
        assert (
            len(bw_pattern.required_tokens)
            < len(bundle_a.pattern.required_tokens)
            < len(vit_pattern.required_tokens)
        )

    def test_hit_rate_ordering_on_drifted_corpus(
        self, bundle_a, adapted_bw, adapted_vit, lines_b, corpus_b
    ):
        _, truth = corpus_b
        base_hits, base_cm = hit_rate(bundle_a.pattern, lines_b, truth)
        bw_hits, bw_cm = hit_rate(adapted_bw[1], lines_b, truth)
        vit_hits, _ = hit_rate(adapted_vit[1], lines_b, truth)
        assert vit_hits <= base_hits < bw_hits
        assert base_hits < 0.2  # drift mostly breaks the unadapted pattern
        assert bw_hits > 0.9  # generalizing recovers the misses
        assert bw_cm.fp > base_cm.fp  # at the cost of new false alarms
