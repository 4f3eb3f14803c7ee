from collections import Counter

import pytest

from driftparse.adapt import (
    DEFAULT_CONSENSUS_FRACTION,
    DEFAULT_COVERAGE_FRACTION,
    adapt_baum_welch,
    adapt_viterbi,
)
from driftparse.corpus import DRIFT_SYSTEM_B, GeneratorConfig, generate_corpus
from driftparse.evaluate import confusion, sensitivity
from driftparse.hmm import observation_sequences, state_usage, viterbi_decode
from driftparse.parsing import parse_corpus
from driftparse.pipeline import preprocess_corpus, train
from driftparse.preprocess import TokenSequence


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

    def test_refit_model_validates(self, adapted_bw):
        adapted_bw[0].validate()

    def test_fixed_point_on_undrifted_corpus(self, bundle_a, lines_a):
        _, pattern, _ = adapt_baum_welch(bundle_a.hmm, bundle_a.pattern, lines_a)
        assert pattern.required_tokens == bundle_a.pattern.required_tokens

    def test_empty_corpus_rejected(self, bundle_a):
        with pytest.raises(ValueError):
            adapt_baum_welch(bundle_a.hmm, bundle_a.pattern, [])

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
                path, _ = viterbi_decode(model, obs)
                votes.update(set(zip(obs, path)))
                voting += 1
        expected = {tok for (tok, _), n in votes.items() if n / voting >= DEFAULT_CONSENSUS_FRACTION}
        _, pattern, _ = adapted_vit
        assert pattern.required_tokens == bundle_a.pattern.required_tokens | expected

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
