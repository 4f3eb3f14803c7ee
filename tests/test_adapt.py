from collections import Counter
from dataclasses import replace
from functools import cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import driftparse.adapt
from driftparse.adapt import CONSENSUS_FRACTION, adapt_baum_welch, adapt_viterbi
from driftparse.corpus import DRIFT_SYSTEM_B, GeneratorConfig, generate_corpus, load_kpi_table
from driftparse.evaluate import confusion, sensitivity
from driftparse.hmm import OOV_TOKEN, FitConfig, Hmm, build_hmm, observation_sequences
from driftparse.parsing import ParsingPattern, missing_tokens, parse_corpus
from driftparse.pipeline import parse_records, preprocess_corpus, train
from driftparse.preprocess import TokenSequence

from .decoding import decode_one
from .drift_kinds import DRIFT_KINDS, drift_scan_lines
from .syslog_family import syslog_corpus
from .test_hmm import assert_valid_and_smoothed


@pytest.fixture(scope="module")
def adapted_bw(bundle_a, lines_b):
    return adapt_baum_welch(bundle_a.hmm, bundle_a.pattern, lines_b)


@pytest.fixture(scope="module")
def adapted_vit(bundle_a, lines_b):
    return adapt_viterbi(bundle_a.hmm, bundle_a.pattern, lines_b)


def trigger_lines(pattern, lines):
    """The lines whose tokens include the pattern's trigger."""
    return [line for line in lines if pattern.trigger in line.tokens]


def anchored_vote(pattern, states, lines):
    """Model-free reference for adapt_viterbi's pattern.

    A line votes when it holds the trigger and some state is followed by a
    token; a token joins the pattern when it follows the same state token
    in at least CONSENSUS_FRACTION of the voting lines.
    """
    state_set = frozenset(states)
    votes, voting = Counter(), 0
    for line in trigger_lines(pattern, lines):
        pairs = {(a, b) for a, b in zip(line.tokens, line.tokens[1:]) if a in state_set}
        if pairs:
            votes.update(pairs)
            voting += 1
    joined = {token for (_, token), n in votes.items() if n / voting >= CONSENSUS_FRACTION}
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

    def test_keeps_a_state_in_four_of_five_trigger_lines(self):
        # a is in 4 of the 5 lines holding the trigger t, b in 3 of them; c
        # is in every line without t, which outnumber the trigger lines
        trigger = [("t", "1", "a", "x", "b", "y")] * 3 + [("t", "2", "a", "x")] + [("t", "3")]
        other = [("c", "z", "a", "w", "b", "v")] * 20
        lines = [TokenSequence(f"e{i}", tokens) for i, tokens in enumerate(trigger + other)]
        states = {"t", "a", "b", "c"}
        model = build_hmm(lines, states)
        pattern = ParsingPattern(frozenset(states), "t", "ctdi", frozenset(states))
        _, adapted, _ = adapt_baum_welch(model, pattern, lines, FitConfig(max_iterations=1))
        assert adapted.required_tokens == {"t", "a"}
        assert adapted.trigger_aliases == {"t", "a"}

    def test_default_noise_keeps_no_renamed_state(self):
        # drift_fraction 0.95 leaves the renamed states in 4 undrifted lines
        # (3 scans, 1 preview echo) of the 23 that hold the trigger: enough
        # to pass a count over every line, too few to keep
        bundle = train(*generate_corpus(GeneratorConfig(seed=0, n_events=800)))
        records, truth = generate_corpus(GeneratorConfig(seed=16, n_events=60, drift_profile=DRIFT_SYSTEM_B))
        lines = preprocess_corpus(records)
        _, pattern, _ = adapt_baum_welch(bundle.hmm, bundle.pattern, lines, FitConfig(max_iterations=1))
        dropped = bundle.pattern.required_tokens - pattern.required_tokens
        assert dropped == {"mas", "miorgcharabdomen", "mirangestartauto", "mirot", "scanuid"}
        hits, cm = hit_rate(pattern, lines, truth)
        assert (hits, cm.tp, cm.fp) == (1.0, 19, 4)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_second_log_family(self, seed):
        # preview lines carry acquisition and kv, which drift removed from the
        # scan lines; they are too few of the trigger lines to keep either
        bundle = train(*syslog_corpus(seed, 600))
        records, truth = syslog_corpus(seed + 1000, 400, drifted=True)
        lines = preprocess_corpus(records)
        assert hit_rate(bundle.pattern, lines, truth)[0] == 0
        _, pattern, _ = adapt_baum_welch(bundle.hmm, bundle.pattern, lines, FitConfig(max_iterations=1))
        assert {"acquisit", "kv"} <= bundle.pattern.required_tokens - pattern.required_tokens
        hits, cm = hit_rate(pattern, lines, truth)
        assert (hits, cm.fp) == (1.0, 0)

    def test_refit_model_validates(self, adapted_bw):
        assert_valid_and_smoothed(adapted_bw[0])

    def test_fixed_point_on_undrifted_corpus(self, bundle_a, lines_a):
        _, pattern, _ = adapt_baum_welch(bundle_a.hmm, bundle_a.pattern, lines_a)
        assert pattern.required_tokens == bundle_a.pattern.required_tokens

    def test_empty_corpus_rejected(self, bundle_a):
        with pytest.raises(ValueError, match="^no state-relevant observations in new corpus$"):
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

    def test_corpus_without_state_observations_rejected(self, bundle_a):
        # no line holds a state token followed by another token
        lines = [TokenSequence("e1", ("x", "y")), TokenSequence("e2", ("ctdi",))]
        with pytest.raises(ValueError, match="^no state-relevant observations in new corpus$"):
            adapt_baum_welch(bundle_a.hmm, bundle_a.pattern, lines)


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
        votes, voting = Counter(), 0
        for obs in observation_sequences(model.states, trigger_lines(bundle_a.pattern, lines_b)):
            if obs:
                path, _ = decode_one(model, obs)
                votes.update(set(zip(obs, path)))
                voting += 1
        expected = {tok for (tok, _), n in votes.items() if n / voting >= CONSENSUS_FRACTION}
        _, pattern, _ = adapted_vit
        assert pattern.required_tokens == bundle_a.pattern.required_tokens | expected

    def test_each_distinct_encoding_decoded_once(self, bundle_a, lines_b, monkeypatch):
        model = bundle_a.hmm
        voting = [obs for obs in observation_sequences(model.states, trigger_lines(bundle_a.pattern, lines_b)) if obs]
        calls, groups, trees = [], [], []
        real_decode = driftparse.adapt.viterbi_decode
        real_group, real_tree = driftparse.hmm._decode_tree, driftparse.hmm._prefix_tree

        def decode_spy(m, sequences):
            calls.append(sequences)
            return real_decode(m, sequences)

        def group_spy(m, rows):
            groups.append([tuple(row.tolist()) for row in rows])
            return real_group(m, rows)

        def tree_spy(symbols, alive):
            starts, node = real_tree(symbols, alive)
            trees.append((symbols.T.tolist(), starts.tolist(), node.tolist()))
            return starts, node

        monkeypatch.setattr(driftparse.adapt, "viterbi_decode", decode_spy)
        monkeypatch.setattr(driftparse.hmm, "_decode_tree", group_spy)
        monkeypatch.setattr(driftparse.hmm, "_prefix_tree", tree_spy)
        # the fixture holds 102 distinct encodings, fewer than the default
        # bound: a smaller one makes the groups split
        monkeypatch.setattr(driftparse.hmm, "_DECODE_BATCH", 64)
        _, _, report = adapt_viterbi(model, bundle_a.pattern, lines_b)
        # one call takes every voting line's own tokens
        [decoded] = calls
        assert decoded == voting
        assert len(decoded) == report.voting_lines
        # the groups hold each distinct encoding once
        distinct = {model.encode(obs).tobytes() for obs in voting}
        grouped = [np.array(row, dtype=np.intp).tobytes() for group in groups for row in group]
        assert sorted(grouped) == sorted(distinct)
        assert len(grouped) == len(distinct) < len(voting)
        assert report.distinct_decodes == len(distinct)
        # the groups cut the distinct encodings into as few bounded groups as can hold them
        bound = driftparse.hmm._DECODE_BATCH
        assert all(1 <= len(group) <= bound for group in groups)
        assert len(groups) == -(-len(distinct) // bound) > 1
        # level t of a group's tree steps each distinct prefix of length t + 1
        # once, and each row alive at t reaches the node of its own prefix
        assert len(trees) == len(groups)
        for group, (columns, starts, node) in zip(groups, trees):
            assert len(starts) == max(map(len, group))
            for t, (level_starts, level_node) in enumerate(zip(starts, node)):
                stepped = [tuple(columns[g][: t + 1]) for g, start in enumerate(level_starts) if start]
                assert sorted(stepped) == sorted({row[: t + 1] for row in group if len(row) > t})
                for row, w in zip(group, level_node):
                    if len(row) > t:
                        assert stepped[w] == row[: t + 1]

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

    def test_lines_that_encode_alike_decode_once_and_vote_with_their_own_tokens(self, monkeypatch):
        # u1 and u2 are unseen, so all five lines encode as [<oov>, y]
        model = Hmm(
            ("s0", "s1"),
            ("x", "y", OOV_TOKEN),
            np.array([0.5, 0.5]),
            np.array([[0.5, 0.5], [0.5, 0.5]]),
            np.array([[0.9, 0.05, 0.05], [0.05, 0.9, 0.05]]),
        )
        pattern = ParsingPattern(frozenset(model.states), "s0", "ctdi", frozenset({"s0"}))
        unseen = ["u1", "u1", "u1", "u1", "u2"]
        lines = [TokenSequence(f"e{i}", ("s0", u, "s1", "y")) for i, u in enumerate(unseen)]
        rows = []
        real_group = driftparse.hmm._decode_tree

        def group_spy(m, group):
            rows.extend(row.tolist() for row in group)
            return real_group(m, group)

        monkeypatch.setattr(driftparse.hmm, "_decode_tree", group_spy)
        _, adapted, report = adapt_viterbi(model, pattern, lines)
        assert rows == [[2, 1]]
        assert report.voting_lines == 5
        # u1 reaches CONSENSUS_FRACTION exactly; u2, in one line of five, does not
        assert report.consensus == (("u1", 0.8), ("y", 1.0))
        assert adapted.required_tokens == {"s0", "s1", "u1", "y"}

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

    def test_empty_corpus_rejected(self, bundle_a):
        with pytest.raises(ValueError, match="^no decodable lines in new corpus$"):
            adapt_viterbi(bundle_a.hmm, bundle_a.pattern, [])

    def test_corpus_without_voting_lines_rejected(self, bundle_a):
        # one line holds no state, one a state but not the trigger, and the
        # one that holds the trigger has nothing after it to decode
        other_state = next(s for s in bundle_a.hmm.states if s != bundle_a.pattern.trigger)
        lines = [
            TokenSequence("e1", ("x", "y")),
            TokenSequence("e2", (other_state, "x")),
            TokenSequence("e3", ("x", bundle_a.pattern.trigger)),
        ]
        with pytest.raises(ValueError, match="^no decodable lines in new corpus$"):
            adapt_viterbi(bundle_a.hmm, bundle_a.pattern, lines)


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


def test_a_line_holding_only_a_non_trigger_alias_is_no_trigger_line():
    # mas is in each of the 5 lines holding the trigger ctdi and in none of
    # the 20 holding only its alias ctdivol, each of which has an
    # observation and would lack ctdi and mas
    scans = [TokenSequence(f"s{i}", ("ctdi", f"{i}.00", "kv", "x", "mas", "y")) for i in range(5)]
    aliased = [TokenSequence(f"a{i}", ("ctdivol", f"{i}.00", "kv", "z")) for i in range(20)]
    lines = scans + aliased
    states = frozenset({"ctdi", "kv", "mas"})
    model = build_hmm(lines, states)
    pattern = ParsingPattern(states, "ctdi", "ctdi", frozenset({"ctdi", "ctdivol"}))
    _, refit, _ = adapt_baum_welch(model, pattern, lines, FitConfig(max_iterations=1))
    assert refit.required_tokens == states
    _, decoded, report = adapt_viterbi(model, pattern, lines)
    assert report.voting_lines == 5
    assert "z" not in decoded.required_tokens
    assert missing_tokens(pattern, lines) == (0, Counter())


@cache
def drift_matrix_setting(seed):
    """The drift matrix's inputs: a bundle trained on 600 events, and 400 clean events at seed + 1000."""
    bundle = train(*generate_corpus(GeneratorConfig(seed=seed, n_events=600)))
    return (bundle, *generate_corpus(GeneratorConfig(seed=seed + 1000, n_events=400)))


class TestComposedDrifts:
    """One to three drift kinds applied in turn to the same scan lines."""

    @given(
        seed=st.integers(0, 2),
        kinds=st.lists(st.sampled_from([k for k in DRIFT_KINDS if k != "none"]), min_size=1, max_size=3, unique=True),
    )
    @settings(max_examples=25, deadline=None)
    def test_adapting_never_trades_hits_or_false_alarms_the_wrong_way(self, tmp_path_factory, seed, kinds):
        bundle, records, truth = drift_matrix_setting(seed)
        for kind in kinds:
            records = drift_scan_lines(records, kind, seed)
        lines = preprocess_corpus(records)
        universe = 10 * len(lines)
        parsed = parse_records(bundle.pattern, records)
        unadapted = confusion(parsed, truth, universe)
        # parse output is valid eval input, and scores the same once loaded
        path = tmp_path_factory.mktemp("composed") / "parsed.csv"
        parsed.write_csv(path)
        assert confusion(load_kpi_table(path), truth, universe) == unadapted
        refit_refused = False
        try:
            # one iteration: the refit's model does not change its pattern
            refit = adapt_baum_welch(bundle.hmm, bundle.pattern, lines, FitConfig(max_iterations=1))[1]
        except ValueError as exc:
            assert str(exc).startswith(f"refit would drop the trigger {bundle.pattern.trigger!r}")
            refit_refused = True
        else:
            assert hit_rate(refit, lines, truth)[0] >= sensitivity(unadapted)
        try:
            decoded = adapt_viterbi(bundle.hmm, bundle.pattern, lines)[1]
        except ValueError as exc:
            # both strategies read the lines that hold the trigger: with none, both refuse
            assert refit_refused and str(exc) == "no decodable lines in new corpus"
        else:
            assert hit_rate(decoded, lines, truth)[1].fp <= unadapted.fp
