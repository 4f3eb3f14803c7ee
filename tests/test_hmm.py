import itertools
import math
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import driftparse
from driftparse.adapt import adapt_baum_welch
from driftparse.corpus import DRIFT_SYSTEM_B, GeneratorConfig, generate_corpus
from driftparse.hmm import (
    OOV_TOKEN,
    SMOOTHING_EPSILON,
    _EM_FLOOR,
    FitConfig,
    Hmm,
    _decode_tree,
    _expected_counts,
    _renormalize_or_keep,
    _smooth_rows,
    baum_welch_fit,
    build_hmm,
    extend_alphabet,
    observation_sequences,
    sequence_loglikelihood,
    state_followers,
    viterbi_decode,
)
from driftparse.mining import MiningConfig, mine_clusters
from driftparse.parsing import KpiTable
from driftparse.pipeline import TrainingError, preprocess_corpus, train
from driftparse.preprocess import EventRecord, TokenSequence

from .decoding import decode_one


def make_hmm(ps, pt, pe, states=None, emissions=None):
    ps = np.asarray(ps, dtype=float)
    pt = np.asarray(pt, dtype=float)
    pe = np.asarray(pe, dtype=float)
    n, m = pe.shape
    states = tuple(states or (f"s{i}" for i in range(n)))
    emissions = tuple(emissions or [f"e{k}" for k in range(m - 1)] + [OOV_TOKEN])
    return Hmm(states, emissions, ps, pt, pe)


def assert_valid_and_smoothed(model):
    """Each invariant Hmm checks when it is built, plus the smoothing floor:
    every probability is > 0."""
    n, m = len(model.states), len(model.emissions)
    assert len(set(model.states)) == n
    assert len(set(model.emissions)) == m
    assert model.emissions[-1] == OOV_TOKEN
    assert model.ps.shape == (n,) and model.pt.shape == (n, n) and model.pe.shape == (n, m)
    for p in (model.ps, model.pt, model.pe):
        assert np.isfinite(p).all()
        assert (p > 0).all()
    assert abs(model.ps.sum() - 1.0) <= 1e-9
    for matrix in (model.pt, model.pe):
        assert (np.abs(matrix.sum(axis=1) - 1.0) <= 1e-9).all()


def brute_force_loglik(model, observations):
    """Sum P(path, obs) over every state path by explicit enumeration."""
    obs = model.encode(observations)
    n = len(model.states)
    total = 0.0
    for path in itertools.product(range(n), repeat=len(obs)):
        p = model.ps[path[0]] * model.pe[path[0], obs[0]]
        for t in range(1, len(obs)):
            p *= model.pt[path[t - 1], path[t]] * model.pe[path[t], obs[t]]
        total += p
    return math.log(total)


def brute_force_expected_counts(model, sequences):
    """E-step by enumeration: posterior-weighted start, transition and
    emission counts summed over sequences, plus the total log-likelihood."""
    n, m = model.pe.shape
    ps_acc, pt_acc, pe_acc = np.zeros(n), np.zeros((n, n)), np.zeros((n, m))
    total_ll = 0.0
    for observations in sequences:
        obs = model.encode(observations)
        joint = {}
        for path in itertools.product(range(n), repeat=len(obs)):
            p = model.ps[path[0]] * model.pe[path[0], obs[0]]
            for t in range(1, len(obs)):
                p *= model.pt[path[t - 1], path[t]] * model.pe[path[t], obs[t]]
            joint[path] = p
        evidence = sum(joint.values())
        total_ll += math.log(evidence)
        for path, p in joint.items():
            w = p / evidence
            ps_acc[path[0]] += w
            for t in range(len(obs)):
                pe_acc[path[t], obs[t]] += w
            for t in range(1, len(obs)):
                pt_acc[path[t - 1], path[t]] += w
    return ps_acc, pt_acc, pe_acc, total_ll


def per_sequence_expected_counts(ps, pt, pe, encoded):
    """The E-step one sequence at a time, as driftparse ran it before it
    batched sequences of equal length: scaled forward-backward (Rabiner 1989,
    section V.A) with the transition counts taken after the backward pass."""
    n, m = pe.shape
    ps_acc, pt_acc, pe_acc = np.zeros(n), np.zeros((n, n)), np.zeros((m, n))
    total_ll = 0.0
    for obs in encoded:
        emit = pe[:, obs].T
        alpha, scale = np.empty_like(emit), np.empty(len(obs))
        for t in range(len(obs)):
            a = (ps if t == 0 else alpha[t - 1] @ pt) * emit[t]
            scale[t] = a.sum()
            alpha[t] = a / scale[t]
        beta = np.ones_like(alpha)
        for t in range(len(obs) - 2, -1, -1):
            beta[t] = pt @ (emit[t + 1] * beta[t + 1]) / scale[t + 1]
        gamma = alpha * beta
        total_ll += float(np.log(scale).sum())
        ps_acc += gamma[0]
        np.add.at(pe_acc, obs, gamma)
        pt_acc += pt * (alpha[:-1].T @ (emit[1:] * beta[1:] / scale[1:, None]))
    return ps_acc, pt_acc, pe_acc.T, total_ll


def brute_force_viterbi(model, observations):
    """Best path by enumeration; ties broken toward the lexicographically
    smallest index tuple, matching first-argmax backtracking."""
    obs = model.encode(observations)
    n = len(model.states)
    best_path, best_logp = None, -math.inf
    for path in itertools.product(range(n), repeat=len(obs)):
        p = model.ps[path[0]] * model.pe[path[0], obs[0]]
        for t in range(1, len(obs)):
            p *= model.pt[path[t - 1], path[t]] * model.pe[path[t], obs[t]]
        logp = math.log(p) if p > 0 else -math.inf
        if logp > best_logp + 1e-12:
            best_path, best_logp = list(path), logp
    return best_path, best_logp


random_model = st.integers(min_value=2, max_value=3).flatmap(
    lambda n: st.integers(min_value=2, max_value=3).flatmap(
        lambda m: st.tuples(
            st.lists(
                st.lists(st.floats(min_value=0.05, max_value=1.0), min_size=n, max_size=n),
                min_size=1,
                max_size=1,
            ),
            st.lists(
                st.lists(st.floats(min_value=0.05, max_value=1.0), min_size=n, max_size=n),
                min_size=n,
                max_size=n,
            ),
            st.lists(
                st.lists(st.floats(min_value=0.05, max_value=1.0), min_size=m + 1, max_size=m + 1),
                min_size=n,
                max_size=n,
            ),
        )
    )
).map(
    lambda raw: make_hmm(
        np.array(raw[0][0]) / np.sum(raw[0][0]),
        np.array(raw[1]) / np.sum(raw[1], axis=1, keepdims=True),
        np.array(raw[2]) / np.sum(raw[2], axis=1, keepdims=True),
    )
)


def two_reduction_viterbi(model, observations):
    """Reference Viterbi that takes each step's best score with a second
    reduction, scores.max, beside the argmax that records the back-pointer."""
    obs = model.encode(observations)
    log_ps, log_pt, log_pe_by_symbol = model._log_tables
    emit = log_pe_by_symbol[obs]
    delta = log_ps + emit[0]
    back = np.zeros((len(obs), len(model.states)), dtype=np.intp)
    for t in range(1, len(obs)):
        scores = delta[:, None] + log_pt
        scores.argmax(axis=0, out=back[t])
        delta = scores.max(axis=0) + emit[t]
    path = [int(np.argmax(delta))]
    for t in range(len(obs) - 1, 0, -1):
        path.append(int(back[t, path[-1]]))
    path.reverse()
    return path, float(np.max(delta))


def distribution(k):
    """A probability row of length k: small integer weights give exact zeros
    (-inf in log-space) and exact ties, uniform rows tie everywhere."""
    weights = st.one_of(
        st.lists(st.integers(min_value=0, max_value=3), min_size=k, max_size=k).filter(any),
        st.lists(st.floats(min_value=0.05, max_value=1.0), min_size=k, max_size=k),
        st.just([1.0] * k),
    )
    return weights.map(lambda w: np.array(w, dtype=float) / np.sum(w))


model_with_zeros_and_ties = st.tuples(
    st.integers(min_value=2, max_value=5), st.integers(min_value=1, max_value=4)
).flatmap(
    lambda nm: st.tuples(
        distribution(nm[0]),
        st.lists(distribution(nm[0]), min_size=nm[0], max_size=nm[0]),
        st.lists(distribution(nm[1] + 1), min_size=nm[0], max_size=nm[0]),
    )
).map(lambda raw: make_hmm(raw[0], raw[1], raw[2]))


def obs_for(model, draw_len):
    symbols = list(model.emissions[:-1])
    return st.lists(st.sampled_from(symbols), min_size=1, max_size=draw_len)


class TestValidate:
    def test_good_model_passes(self):
        make_hmm([1.0], [[1.0]], [[0.5, 0.5]])

    def test_bad_row_sum_rejected(self):
        with pytest.raises(ValueError, match="does not sum to 1"):
            Hmm(("a",), ("x", OOV_TOKEN), np.array([1.0]), np.array([[1.0]]),
                np.array([[0.7, 0.7]]))

    def test_negative_probability_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            Hmm(("a",), ("x", OOV_TOKEN), np.array([1.0]), np.array([[1.0]]),
                np.array([[1.5, -0.5]]))

    def test_duplicate_state_rejected(self):
        with pytest.raises(ValueError, match="distinct"):
            Hmm(("a", "a"), ("x", OOV_TOKEN), np.array([0.5, 0.5]),
                np.full((2, 2), 0.5), np.full((2, 2), 0.5))

    def test_duplicate_emission_rejected(self):
        with pytest.raises(ValueError, match="^emissions must be distinct$"):
            Hmm(("a",), ("x", "x", OOV_TOKEN), np.array([1.0]), np.array([[1.0]]),
                np.full((1, 3), 1 / 3))

    def test_nan_probability_rejected_when_built(self):
        # unchecked, a NaN entry decodes to a NaN score and runs a whole refit
        with pytest.raises(ValueError, match="^probabilities must be finite$"):
            Hmm(("a", "b"), ("x", OOV_TOKEN), np.array([0.5, 0.5]), np.full((2, 2), 0.5),
                np.array([[np.nan, 0.5], [0.5, 0.5]]))

    def test_start_probabilities_not_summing_to_one_rejected(self):
        with pytest.raises(ValueError, match="^ps does not sum to 1$"):
            Hmm(("a", "b"), ("x", OOV_TOKEN), np.array([0.5, 0.4]),
                np.full((2, 2), 0.5), np.full((2, 2), 0.5))

    def test_lists_build_the_model_arrays_build(self):
        ps, pt, pe = [0.5, 0.5], [[0.5, 0.5], [0.25, 0.75]], [[0.9, 0.1], [0.5, 0.5]]
        arrays = tuple(np.array(p) for p in (ps, pt, pe))
        from_lists = Hmm(("a", "b"), ("x", OOV_TOKEN), ps, pt, pe)
        from_arrays = Hmm(("a", "b"), ("x", OOV_TOKEN), *arrays)
        for got, want in zip((from_lists.ps, from_lists.pt, from_lists.pe), arrays):
            assert isinstance(got, np.ndarray) and got.dtype == np.float64
            assert np.array_equal(got, want)
        # a float64 array is kept, not copied
        assert from_arrays.ps is arrays[0] and from_arrays.pe is arrays[2]
        assert decode_one(from_lists, ["x", "y"]) == decode_one(from_arrays, ["x", "y"])

    def test_nan_in_lists_rejected(self):
        with pytest.raises(ValueError, match="^probabilities must be finite$"):
            Hmm(("a", "b"), ("x", OOV_TOKEN), [0.5, 0.5], [[0.5, 0.5], [0.5, 0.5]],
                [[float("nan"), 0.5], [0.5, 0.5]])

    @pytest.mark.parametrize(
        "ps, pe, message",
        [
            ([1e308, 1e308], [[0.5, 0.5], [0.5, 0.5]], "^ps does not sum to 1$"),
            ([0.5, 0.5], [[0.5, 0.5], [1e308, 1e308]], "^pe row 1 does not sum to 1$"),
        ],
    )
    def test_entries_whose_sum_overflows_rejected(self, ps, pe, message):
        # the suite turns RuntimeWarning into an error, so an overflowing sum would fail here
        with pytest.raises(ValueError, match=message):
            Hmm(("a", "b"), ("x", OOV_TOKEN), ps, [[0.5, 0.5], [0.5, 0.5]], pe)

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"max_iterations": 0}, "max_iterations must be >= 1"),
            ({"loglik_tolerance": 0.0}, "loglik_tolerance must be > 0"),
            ({"loglik_tolerance": float("nan")}, "loglik_tolerance must be > 0"),
            ({"max_iterations": 2.5}, "max_iterations must be an int"),
            ({"max_iterations": True}, "max_iterations must be an int"),
            ({"max_iterations": "3"}, "max_iterations must be an int"),
        ],
    )
    def test_fit_config_out_of_range_rejected(self, kwargs, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            FitConfig(**kwargs)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shapes"):
            Hmm(("a",), ("x", OOV_TOKEN), np.array([1.0]),
                np.full((2, 2), 0.5), np.array([[0.5, 0.5]]))


class TestEncode:
    def test_known_and_unknown_symbols(self):
        model = make_hmm([1.0], [[1.0]], [[0.3, 0.3, 0.4]], emissions=("x", "y", OOV_TOKEN))
        assert list(model.encode(["y", "never-seen", "x"])) == [1, 2, 0]


class TestModelCaches:
    def test_extended_model_encodes_its_new_symbols(self):
        model = make_hmm([1.0], [[1.0]], [[0.6, 0.4]], emissions=("x", OOV_TOKEN))
        assert list(model.encode(["x", "y"])) == [0, 1]
        decode_one(model, ["x", "y"])
        extended = extend_alphabet(model, ["y"])
        assert list(extended.encode(["x", "y", "z"])) == [0, 1, 2]
        path, logp = decode_one(extended, ["y"])
        assert path == [0]
        assert logp == pytest.approx(math.log(extended.pe[0, 1]), rel=1e-12)

    def test_log_tables_built_once_per_model(self, monkeypatch):
        model = make_hmm(
            [0.6, 0.4],
            [[0.7, 0.3], [0.2, 0.8]],
            [[0.5, 0.4, 0.1], [0.1, 0.8, 0.1]],
        )
        real_log = driftparse.hmm._log
        logged = []

        def counting_log(p):
            logged.append(p)
            return real_log(p)

        monkeypatch.setattr(driftparse.hmm, "_log", counting_log)
        for _ in range(50):
            decode_one(model, ["e0", "e1", "e1", "e0"])
        # one build logs ps, pt and pe once each
        assert len(logged) <= 3


class TestForward:
    def test_single_symbol_by_hand(self):
        model = make_hmm(
            [0.6, 0.4],
            [[0.7, 0.3], [0.2, 0.8]],
            [[0.5, 0.4, 0.1], [0.1, 0.8, 0.1]],
        )
        expected = math.log(0.6 * 0.5 + 0.4 * 0.1)
        assert sequence_loglikelihood(model, ["e0"]) == pytest.approx(expected)

    @given(random_model.flatmap(lambda m: st.tuples(st.just(m), obs_for(m, 5))))
    @settings(max_examples=60, deadline=None)
    def test_matches_brute_force_enumeration(self, model_obs):
        model, obs = model_obs
        assert sequence_loglikelihood(model, obs) == pytest.approx(
            brute_force_loglik(model, obs), rel=1e-9
        )

    def test_long_sequence_stays_finite(self):
        model = make_hmm(
            [0.5, 0.5],
            [[0.9, 0.1], [0.1, 0.9]],
            [[0.5, 0.4, 0.1], [0.2, 0.7, 0.1]],
        )
        obs = ["e0", "e1"] * 5000
        ll = sequence_loglikelihood(model, obs)
        assert math.isfinite(ll)
        assert ll < -0.3 * len(obs)  # every step multiplies in a probability < 0.7

    def test_empty_sequence_rejected(self):
        model = make_hmm([1.0], [[1.0]], [[0.5, 0.5]])
        with pytest.raises(ValueError):
            sequence_loglikelihood(model, [])

    def test_impossible_sequence_is_minus_infinity(self):
        # no state emits e1, so every path has probability zero
        model = make_hmm(
            [0.6, 0.4],
            [[0.7, 0.3], [0.2, 0.8]],
            [[0.5, 0.0, 0.5], [0.9, 0.0, 0.1]],
        )
        assert sequence_loglikelihood(model, ["e0", "e1", "e0"]) == -math.inf
        with pytest.raises(ValueError, match="probability zero"):
            _expected_counts(model.ps, model.pt, model.pe, [model.encode(["e0", "e1", "e0"])])


class TestExpectedCounts:
    @given(
        random_model.flatmap(
            lambda m: st.tuples(st.just(m), st.lists(obs_for(m, 6), min_size=1, max_size=4))
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_brute_force_enumeration(self, model_seqs):
        model, sequences = model_seqs
        ps_acc, pt_acc, pe_acc, total_ll = _expected_counts(
            model.ps, model.pt, model.pe, [model.encode(seq) for seq in sequences]
        )
        oracle = brute_force_expected_counts(model, sequences)
        assert ps_acc == pytest.approx(oracle[0], rel=1e-9)
        assert pt_acc == pytest.approx(oracle[1], rel=1e-9)
        assert pe_acc == pytest.approx(oracle[2], rel=1e-9)
        assert total_ll == pytest.approx(oracle[3], rel=1e-9)


    @given(
        random_model.flatmap(
            lambda m: st.tuples(
                st.just(m),
                st.lists(
                    st.lists(st.sampled_from(m.emissions[:-1]), min_size=1, max_size=3),
                    min_size=2,
                    max_size=6,
                ),
            )
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_batches_of_short_sequences_match_brute_force(self, model_seqs):
        # 2-6 sequences over 3 lengths: batches of several sequences and of length 1
        model, sequences = model_seqs
        counts = _expected_counts(model.ps, model.pt, model.pe, [model.encode(seq) for seq in sequences])
        oracle = brute_force_expected_counts(model, sequences)
        for got, expected in zip(counts, oracle):
            assert got == pytest.approx(expected, rel=1e-9)

    def test_small_batch_bound_gives_the_same_counts(self, monkeypatch):
        model = make_hmm(
            [0.6, 0.4],
            [[0.7, 0.3], [0.2, 0.8]],
            [[0.5, 0.4, 0.1], [0.1, 0.8, 0.1]],
        )
        sequences = [["e0", "e1", "e1"], ["e1"], ["e1", "e0", "e0"], ["e0", "e0", "e1"],
                     ["e0"], ["e1", "e1", "e1"], ["e0", "e1"], ["e1"], ["e0", "e0", "e0"]]
        encoded = [model.encode(seq) for seq in sequences]
        default = _expected_counts(model.ps, model.pt, model.pe, encoded)
        monkeypatch.setattr(driftparse.hmm, "_BATCH_SEQUENCES", 2)
        small = _expected_counts(model.ps, model.pt, model.pe, encoded)
        oracle = brute_force_expected_counts(model, sequences)
        for got, expected, exact in zip(small, default, oracle):
            assert got == pytest.approx(expected, rel=1e-12)
            assert got == pytest.approx(exact, rel=1e-9)

    def test_impossible_sequence_in_a_batch_raises(self):
        # no state emits e1; the other sequences of the same length are possible
        model = make_hmm(
            [0.6, 0.4],
            [[0.7, 0.3], [0.2, 0.8]],
            [[0.5, 0.0, 0.5], [0.9, 0.0, 0.1]],
        )
        sequences = [["e0", "e0", "e0"], ["e0", "e1", "e0"], ["e0", "e0", "e0"]]
        with pytest.raises(ValueError, match="probability zero"):
            _expected_counts(model.ps, model.pt, model.pe, [model.encode(seq) for seq in sequences])
        assert sequence_loglikelihood(model, sequences[1]) == -math.inf
        assert math.isfinite(sequence_loglikelihood(model, sequences[0]))


@pytest.fixture(scope="module")
def drift_lines():
    """A generated system-B log of about 300 events, preprocessed."""
    records, _ = generate_corpus(
        GeneratorConfig(seed=7, n_events=300, drift_profile=DRIFT_SYSTEM_B)
    )
    return preprocess_corpus(records)


class TestExpectedCountsAtLogSize:
    """The batched E-step against the per-sequence reference on a real log."""

    def encoded(self, bundle_a, drift_lines):
        sequences = [s for s in observation_sequences(bundle_a.hmm.states, drift_lines) if s]
        model = extend_alphabet(bundle_a.hmm, (tok for seq in sequences for tok in seq))
        return model, [model.encode(seq) for seq in sequences]

    def test_matches_per_sequence_reference(self, bundle_a, drift_lines):
        model, encoded = self.encoded(bundle_a, drift_lines)
        counts = _expected_counts(model.ps, model.pt, model.pe, encoded)
        reference = per_sequence_expected_counts(model.ps, model.pt, model.pe, encoded)
        for got, expected in zip(counts, reference):
            assert got == pytest.approx(expected, rel=1e-9)

    def test_refit_matches_per_sequence_reference(self, bundle_a, drift_lines, monkeypatch):
        fitted, pattern, report = adapt_baum_welch(bundle_a.hmm, bundle_a.pattern, drift_lines)
        monkeypatch.setattr(driftparse.hmm, "_expected_counts", per_sequence_expected_counts)
        ref_fitted, ref_pattern, ref_report = adapt_baum_welch(
            bundle_a.hmm, bundle_a.pattern, drift_lines
        )
        assert pattern == ref_pattern
        assert len(report.loglik_trace) == len(ref_report.loglik_trace)
        assert fitted.emissions == ref_fitted.emissions
        assert fitted.pe == pytest.approx(ref_fitted.pe, rel=1e-9)

    @pytest.mark.parametrize("bound", [None, 16])
    def test_one_forward_pass_per_bounded_batch(self, bundle_a, drift_lines, monkeypatch, bound):
        # a silent fallback to one pass per sequence, or to unbounded
        # batches, would show here
        if bound is not None:
            monkeypatch.setattr(driftparse.hmm, "_BATCH_SEQUENCES", bound)
        limit = driftparse.hmm._BATCH_SEQUENCES
        model, encoded = self.encoded(bundle_a, drift_lines)
        real_forward = driftparse.hmm._forward
        batches = []

        def spy(ps, pt, emit):
            batches.append(emit.shape[:2])
            return real_forward(ps, pt, emit)

        monkeypatch.setattr(driftparse.hmm, "_forward", spy)
        _expected_counts(model.ps, model.pt, model.pe, encoded)
        group_sizes = {}
        for obs in encoded:
            group_sizes[len(obs)] = group_sizes.get(len(obs), 0) + 1
        if bound is not None:
            assert max(group_sizes.values()) > bound  # some group is split
        for length, size in group_sizes.items():
            sizes = [b for t, b in batches if t == length]
            assert len(sizes) <= -(-size // limit)
            assert sum(sizes) == size
        assert max(b for _, b in batches) <= limit


class TestEmFloor:
    """The EM zeroes what the final smoothing rounds away, and no more."""

    def test_smoothing_cannot_tell_a_value_below_the_floor_from_zero(self):
        assert SMOOTHING_EPSILON + np.nextafter(_EM_FLOOR, 0) == SMOOTHING_EPSILON

    def refit(self, bundle_a, drift_lines, monkeypatch):
        """adapt_baum_welch's model and report, and per E-step its arrays,
        the row sums of its transition counts and their total."""
        real = driftparse.hmm._expected_counts
        steps = []

        def spy(ps, pt, pe, encoded):
            counts = real(ps, pt, pe, encoded)
            # the M-step normalizes the transition counts in place
            steps.append(((ps, pt, pe), counts[1].sum(axis=1), counts[1].sum()))
            return counts

        with monkeypatch.context() as patch:
            patch.setattr(driftparse.hmm, "_expected_counts", spy)
            fitted, _, report = adapt_baum_welch(bundle_a.hmm, bundle_a.pattern, drift_lines)
        return fitted, report.loglik_trace, steps

    def test_no_e_step_sees_a_probability_below_the_floor(self, bundle_a, drift_lines, monkeypatch):
        _, _, steps = self.refit(bundle_a, drift_lines, monkeypatch)
        assert len(steps) > 1
        for arrays, _, _ in steps:
            for p in arrays:
                assert not ((p > 0) & (p < _EM_FLOOR)).any()

    def test_floor_changes_only_the_rows_of_states_with_no_mass(self, bundle_a, drift_lines, monkeypatch):
        fitted, trace, _ = self.refit(bundle_a, drift_lines, monkeypatch)
        monkeypatch.setattr(driftparse.hmm, "_EM_FLOOR", 0.0)
        reference, ref_trace, ref_steps = self.refit(bundle_a, drift_lines, monkeypatch)
        assert len(trace) == len(ref_trace)
        assert trace == pytest.approx(ref_trace, rel=1e-12)
        assert fitted.ps == pytest.approx(reference.ps, rel=1e-12)
        assert fitted.pe == pytest.approx(reference.pe, rel=1e-12)
        # a state whose counts the floor makes exactly 0 keeps its previous
        # row, where the reference re-estimates it from subnormal counts
        same = np.isclose(fitted.pt, reference.pt, rtol=1e-12, atol=0).all(axis=1)
        for _, row_counts, total in ref_steps[-3:]:
            assert (row_counts[~same] < 1e-12 * total).all()


def full_alphabet_fit(model, training_sequences, config=FitConfig()):
    """baum_welch_fit with its EM over every column of the extended alphabet,
    as driftparse ran it before the EM kept to the columns its sequences use."""
    sequences = [seq for seq in training_sequences if seq]
    model = extend_alphabet(model, (tok for seq in sequences for tok in seq))
    encoded = [model.encode(seq) for seq in sequences]
    ps, pt, pe = model.ps, model.pt, model.pe
    trace = []
    for _ in range(config.max_iterations):
        ps_acc, pt_acc, pe_acc, total_ll = _expected_counts(ps, pt, pe, encoded)
        trace.append(total_ll)
        if len(trace) > 1 and total_ll - trace[-2] < config.loglik_tolerance:
            break
        ps = ps_acc / ps_acc.sum()
        pt = _renormalize_or_keep(pt_acc, pt)
        pe = _renormalize_or_keep(pe_acc, pe)
        for p in (ps, pt, pe):
            p[p < _EM_FLOOR] = 0.0
    return Hmm(model.states, model.emissions, _smooth_rows(ps), _smooth_rows(pt), _smooth_rows(pe)), trace


class TestUsedColumns:
    """The EM runs on the emission columns its sequences use, and that is exact."""

    def test_equals_the_full_alphabet_em(self, bundle_a, drift_lines):
        sequences = observation_sequences(bundle_a.hmm.states, drift_lines)
        fitted, trace = baum_welch_fit(bundle_a.hmm, sequences)
        reference, ref_trace = full_alphabet_fit(bundle_a.hmm, sequences)
        assert len(trace) == len(ref_trace) > 1
        assert trace == pytest.approx(ref_trace, rel=1e-12)
        assert fitted.emissions == reference.emissions
        for got, expected in zip((fitted.ps, fitted.pt, fitted.pe), (reference.ps, reference.pt, reference.pe)):
            assert got == pytest.approx(expected, rel=1e-12)

    def test_e_step_sees_one_column_per_distinct_symbol(self, bundle_a, drift_lines, monkeypatch):
        sequences = [s for s in observation_sequences(bundle_a.hmm.states, drift_lines) if s]
        real = driftparse.hmm._expected_counts
        columns = []

        def spy(ps, pt, pe, encoded):
            columns.append(pe.shape[1])
            return real(ps, pt, pe, encoded)

        monkeypatch.setattr(driftparse.hmm, "_expected_counts", spy)
        fitted, trace = baum_welch_fit(bundle_a.hmm, sequences)
        used = len({tok for seq in sequences for tok in seq})
        assert used < len(fitted.emissions)
        assert columns == [used] * len(trace)

    # s1 never has mass: nothing starts in it and nothing moves to it.  Every
    # sequence reads e0 only, so e1 and <oov> are unused, and s1's e1 entry
    # lies below _EM_FLOOR
    HAND_BUILT = make_hmm([1.0, 0.0], [[1.0, 0.0], [0.0, 1.0]], [[0.6, 0.3, 0.1], [0.5, 4e-23, 0.5]])
    HAND_SEQUENCES = [["e0", "e0"], ["e0"]]

    def test_hand_built_rows(self):
        before = [p.copy() for p in (self.HAND_BUILT.ps, self.HAND_BUILT.pt, self.HAND_BUILT.pe)]
        fitted, _ = baum_welch_fit(self.HAND_BUILT, self.HAND_SEQUENCES)
        # the fit smooths its own arrays in place, never the input model's
        for p, copy in zip((self.HAND_BUILT.ps, self.HAND_BUILT.pt, self.HAND_BUILT.pe), before):
            assert (p == copy).all()
        # s0 is re-estimated: all its mass on e0 and exactly the smoothing
        # floor in the unused columns.  s1 keeps its whole row, unused
        # columns included, and its entry below _EM_FLOOR comes out as a 0
        # the EM floored would
        expected = _smooth_rows(np.array([[1.0, 0.0, 0.0], [0.5, 0.0, 0.5]]))
        assert (fitted.pe == expected).all()
        floor = SMOOTHING_EPSILON / (1 + 3 * SMOOTHING_EPSILON)
        assert fitted.pe[0, 1] == fitted.pe[0, 2] == pytest.approx(floor, rel=1e-15)

    def test_hand_built_rows_equal_the_full_alphabet_em(self):
        fitted, trace = baum_welch_fit(self.HAND_BUILT, self.HAND_SEQUENCES)
        reference, ref_trace = full_alphabet_fit(self.HAND_BUILT, self.HAND_SEQUENCES)
        assert trace == ref_trace
        for got, expected in zip((fitted.ps, fitted.pt, fitted.pe), (reference.ps, reference.pt, reference.pe)):
            assert (got == expected).all()


def rows_sharing_prefixes(symbol):
    """Rows of mixed lengths built from one stem: branches that leave it at
    any depth (one past its end extends it), its first symbol, which is a
    prefix of it, and the stem again, a repeat."""
    word = st.lists(symbol, min_size=1, max_size=8)
    return st.tuples(word, st.lists(st.tuples(st.integers(min_value=0, max_value=9), word), max_size=6)).map(
        lambda raw: [raw[0], *(raw[0][:depth] + tail for depth, tail in raw[1]), raw[0][:1], raw[0]]
    )


class TestViterbi:
    @given(random_model.flatmap(lambda m: st.tuples(st.just(m), obs_for(m, 5))))
    @settings(max_examples=60, deadline=None)
    def test_matches_brute_force_best_path_score(self, model_obs):
        model, obs = model_obs
        path, logp = decode_one(model, obs)
        oracle_path, oracle_logp = brute_force_viterbi(model, obs)
        assert logp == pytest.approx(oracle_logp, rel=1e-9)
        # recompute the returned path's own score; it must equal the optimum
        enc = model.encode(obs)
        p = math.log(model.ps[path[0]]) + math.log(model.pe[path[0], enc[0]])
        for t in range(1, len(enc)):
            p += math.log(model.pt[path[t - 1], path[t]])
            p += math.log(model.pe[path[t], enc[t]])
        assert p == pytest.approx(oracle_logp, rel=1e-9)

    @given(
        model_with_zeros_and_ties.flatmap(
            lambda m: st.tuples(
                st.just(m), st.lists(st.sampled_from(m.emissions + ("unseen",)), min_size=1, max_size=12)
            )
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_equals_two_reduction_reference_exactly(self, model_obs):
        model, obs = model_obs
        assert decode_one(model, obs) == two_reduction_viterbi(model, obs)

    @given(
        model_with_zeros_and_ties.flatmap(
            lambda m: st.integers(min_value=1, max_value=8).flatmap(
                lambda length: st.tuples(
                    st.just(m),
                    st.lists(
                        st.lists(st.sampled_from(m.emissions + ("unseen",)), min_size=length, max_size=length),
                        min_size=1,
                        max_size=6,
                    ),
                )
            )
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_stacked_rows_equal_their_own_decode_exactly(self, model_rows):
        # 1-6 rows of one length decode as one group; a row's result must not
        # depend on the rows beside it
        model, rows = model_rows
        batched = viterbi_decode(model, rows)
        assert len(batched) == len(rows)
        for row, result in zip(rows, batched):
            assert result == decode_one(model, row)
            assert result == two_reduction_viterbi(model, row)

    @pytest.mark.parametrize("bound", [None, 2])
    @given(
        model_with_zeros_and_ties.flatmap(
            lambda m: st.tuples(
                st.just(m),
                rows_sharing_prefixes(st.sampled_from(m.emissions + ("unseen",))).flatmap(st.permutations),
            )
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_rows_sharing_prefixes_equal_their_own_decode_exactly(self, bound, model_rows):
        # rows that share steps in the prefix tree must not share results
        model, rows = model_rows
        with pytest.MonkeyPatch.context() as patch:
            if bound is not None:
                patch.setattr(driftparse.hmm, "_DECODE_BATCH", bound)
            decoded = viterbi_decode(model, rows)
        assert len(decoded) == len(rows)
        for row, result in zip(rows, decoded):
            assert result == decode_one(model, row)
            assert result == two_reduction_viterbi(model, row)

    @given(
        model_with_zeros_and_ties.flatmap(
            lambda m: st.tuples(
                st.just(m),
                rows_sharing_prefixes(st.sampled_from(m.emissions + ("unseen",))).flatmap(st.permutations),
            )
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_group_in_any_row_order_equals_each_row_alone(self, model_rows):
        # viterbi_decode hands _decode_tree its rows sorted; the group decode
        # must not rely on that, repeats and rows that are prefixes included
        model, rows = model_rows
        decoded = _decode_tree(model, [model.encode(row) for row in rows])
        assert decoded == [decode_one(model, row) for row in rows]

    def test_transition_table_by_hand(self):
        model = make_hmm(
            [0.5, 0.25, 0.25],
            # row 0 ties at its floor; row 1 repeats a value above it; row 2 has a zero
            [[0.5, 0.25, 0.25], [0.4, 0.4, 0.2], [0.0, 0.3, 0.7]],
            [[0.5, 0.5], [0.5, 0.5], [0.5, 0.5]],
        )
        floor, origin, larger = model._log_pt_above_floor
        assert floor.tolist() == [math.log(0.25), math.log(0.2), -math.inf]
        assert (floor == model._log_tables[1].min(axis=1)).all()
        # per to-state, the from-states above their floor in ascending order,
        # padded with origin 0 and -inf to the longest list
        assert origin.T.tolist() == [[0, 1], [1, 2], [2, 0]]
        assert larger.T.tolist() == [
            [math.log(0.5), math.log(0.4)],
            [math.log(0.4), math.log(0.3)],
            [math.log(0.7), -math.inf],
        ]

    @pytest.mark.parametrize("above_floor", [0, 1])
    def test_floor_and_larger_entry_tie_breaks_to_lowest_index(self, above_floor):
        # into state 0, one of states 0 and 1 has an entry above its floor 0.2
        # and the other its floor, both 0.3: the two tie, and 0 must win
        chain, flat = [0.3, 0.5, 0.2], [0.3, 0.35, 0.35]
        model = make_hmm(
            [0.5, 0.5, 0.0],
            [chain, flat, flat] if above_floor == 0 else [flat, chain, flat],
            [[0.5, 0.4, 0.1], [0.5, 0.1, 0.4], [0.5, 0.1, 0.4]],
            emissions=("x", "y", OOV_TOKEN),
        )
        _, origin, larger = model._log_pt_above_floor
        assert origin[:, 0][larger[:, 0] > -math.inf].tolist() == [above_floor]
        assert decode_one(model, ["x", "y"]) == two_reduction_viterbi(model, ["x", "y"])
        assert decode_one(model, ["x", "y"])[0] == [0, 0]

    def test_trained_chain_equals_two_reduction_reference_exactly(self, bundle_a, lines_b):
        # a trained model's transitions are nearly a chain, but some state is
        # entered from more than one entry above its row's floor
        model = bundle_a.hmm
        _, origin, _ = model._log_pt_above_floor
        assert 1 < len(origin) < len(model.states)
        lines = [line for line in lines_b if bundle_a.pattern.trigger in line.tokens]
        voting = [obs for obs in observation_sequences(model.states, lines) if obs]
        assert viterbi_decode(model, voting) == [two_reduction_viterbi(model, obs) for obs in voting]

    def test_mixed_lengths_keep_their_order(self, monkeypatch):
        model = make_hmm(
            [0.6, 0.4],
            [[0.7, 0.3], [0.2, 0.8]],
            [[0.5, 0.4, 0.1], [0.1, 0.8, 0.1]],
        )
        sequences = [["e0", "e1", "e1"], ["e1"], ["e1", "e0", "e0"], ["e0", "e1"], ["e1", "e1", "e1"]]
        monkeypatch.setattr(driftparse.hmm, "_DECODE_BATCH", 2)
        decoded = viterbi_decode(model, sequences)
        assert decoded == [two_reduction_viterbi(model, seq) for seq in sequences]

    def test_sequences_that_encode_alike_share_one_result(self):
        model = make_hmm([1.0], [[1.0]], [[0.6, 0.4]], emissions=("x", OOV_TOKEN))
        first, second, third = viterbi_decode(model, [["x", "u1"], ["x", "u2"], ["x", "x"]])
        assert first is second
        assert first == decode_one(model, ["x", "u1"])
        assert third == decode_one(model, ["x", "x"])

    def test_empty_sequence_rejected(self):
        model = make_hmm([1.0], [[1.0]], [[0.6, 0.4]], emissions=("x", OOV_TOKEN))
        assert viterbi_decode(model, []) == []
        with pytest.raises(ValueError, match="non-empty"):
            viterbi_decode(model, [["x"], []])

    def test_tie_breaks_to_lowest_index(self):
        model = make_hmm(
            [0.5, 0.5],
            [[0.5, 0.5], [0.5, 0.5]],
            [[0.5, 0.5], [0.5, 0.5]],
            emissions=("x", OOV_TOKEN),
        )
        path, _ = decode_one(model, ["x", "x", "x"])
        assert path == [0, 0, 0]

    def test_forward_upper_bounds_viterbi(self):
        model = make_hmm(
            [0.6, 0.4],
            [[0.7, 0.3], [0.2, 0.8]],
            [[0.5, 0.4, 0.1], [0.1, 0.8, 0.1]],
        )
        obs = ["e0", "e1", "e1", "e0"]
        _, best = decode_one(model, obs)
        assert sequence_loglikelihood(model, obs) >= best


class TestStateFollowers:
    def test_pairs_each_state_not_last_in_its_line(self):
        pairs = state_followers(("a", "x", "b", "a", "y", "a"), frozenset({"a", "b"}))
        assert list(pairs) == [("a", "x"), ("b", "a"), ("a", "y")]

    def test_tests_no_further_than_the_caller_reads(self):
        tested = []

        class SpySet(frozenset):
            def __contains__(self, token):
                tested.append(token)
                return super().__contains__(token)

        pairs = state_followers(("x", "a", "1.00", "a", "2.00"), SpySet({"a"}))
        assert next(pairs) == ("a", "1.00")
        assert tested == ["x", "a"]


class TestBuildHmm:
    def lines(self, *token_lists):
        return [TokenSequence(f"e{i}", tuple(t)) for i, t in enumerate(token_lists)]

    def test_counts_by_hand(self):
        # two lines over states {a, b}: transitions a->b twice, b->a once
        corpus = self.lines(["a", "x", "b", "a"], ["a", "b", "y"])
        model = build_hmm(corpus, {"a", "b"})
        eps = SMOOTHING_EPSILON
        assert model.states == ("a", "b")
        assert model.emissions == ("x", "y", OOV_TOKEN)
        # start counts: a appears 3 times, b twice
        assert model.ps[0] == pytest.approx((3 + eps) / (5 + 2 * eps), rel=1e-12)
        ai, bi = 0, 1
        # a is followed by b twice and by a never; b by a once
        assert model.pt[ai, bi] == pytest.approx((2 + eps) / (2 + 2 * eps), rel=1e-12)
        assert model.pt[bi, ai] == pytest.approx((1 + eps) / (1 + 2 * eps), rel=1e-12)
        xi = model.emissions.index("x")
        yi = model.emissions.index("y")
        # a emits only x, b only y, over an alphabet of three symbols
        assert model.pe[ai, xi] == pytest.approx((1 + eps) / (1 + 3 * eps), rel=1e-12)
        assert model.pe[bi, yi] == pytest.approx((1 + eps) / (1 + 3 * eps), rel=1e-12)

    def test_oov_column_is_last_and_small(self):
        corpus = self.lines(["a", "x"])
        model = build_hmm(corpus, {"a"})
        assert model.emissions[-1] == OOV_TOKEN
        assert model.pe[0, -1] < 1e-5

    def test_a_follower_spelled_oov_counts_in_the_oov_column(self):
        # a log may hold the literal token; encode maps it to the OOV column
        corpus = self.lines(["a", OOV_TOKEN], ["a", "x"])
        model = build_hmm(corpus, {"a"})
        eps = SMOOTHING_EPSILON
        assert model.emissions == ("x", OOV_TOKEN)
        assert model.pe[0, -1] == pytest.approx((1 + eps) / (2 + 2 * eps), rel=1e-12)
        assert model.encode([OOV_TOKEN, "x"]).tolist() == [1, 0]

    def test_rows_are_stochastic(self, bundle_a):
        assert_valid_and_smoothed(bundle_a.hmm)

    def test_empty_inputs_rejected(self):
        with pytest.raises(ValueError):
            build_hmm([], {"a"})
        with pytest.raises(ValueError):
            build_hmm(self.lines(["a"]), set())


def reference_build_hmm(matching_lines, state_tokens):
    """build_hmm as a walk of every line, one numpy increment per transition."""
    states = tuple(sorted(state_tokens))
    state_set = frozenset(states)
    sidx = {s: i for i, s in enumerate(states)}
    start_counts = np.zeros(len(states))
    trans_counts = np.zeros((len(states), len(states)))
    pair_counts = Counter()
    for line in matching_lines:
        state_seq = [t for t in line.tokens if t in state_set]
        for s in state_seq:
            start_counts[sidx[s]] += 1
        for a, b in itertools.pairwise(state_seq):
            trans_counts[sidx[a], sidx[b]] += 1
        pair_counts.update(
            (a, e) for a, e in state_followers(line.tokens, state_set) if e not in state_set
        )
    alphabet = tuple(sorted({e for _, e in pair_counts})) + (OOV_TOKEN,)
    eidx = {e: k for k, e in enumerate(alphabet)}
    emit_counts = np.zeros((len(states), len(alphabet)))
    for (a, e), n in pair_counts.items():
        emit_counts[sidx[a], eidx[e]] = n
    ps, pt, pe = (_smooth_rows(c) for c in (start_counts, trans_counts, emit_counts))
    return Hmm(states, alphabet, ps, pt, pe)


def reference_trigger(records, truth, kpi_name="ctdi", threshold=None):
    """train's trigger as a walk of every line position; TrainingError when train must fail.

    Clusters come from mine_clusters, best first.  A state scores a line
    when some position holds the state and the next one the line's truth
    value of kpi_name; the first cluster with a score wins, and its
    highest-scoring state, lowest token first.
    """
    values = {event_id: value for event_id, kpi, value in truth.rows if kpi == kpi_name}
    threshold = len(values) if threshold is None else threshold
    if threshold == 0:
        return TrainingError
    corpus = preprocess_corpus(records)
    for cluster in mine_clusters(corpus, MiningConfig(threshold)).clusters:
        scores = {s: 0 for s in cluster.tokens}
        for line in corpus:
            tokens = line.tokens
            if line.event_id not in values or not cluster.tokens <= set(tokens):
                continue
            for s in cluster.tokens:
                if any(tokens[i] == s and tokens[i + 1] == values[line.event_id] for i in range(len(tokens) - 1)):
                    scores[s] += 1
        best = max(scores.values())
        if best:
            return min(s for s in cluster.tokens if scores[s] == best)
    return TrainingError


# states include a number; lines put a state after a state, a state last,
# and a numeric state after a state; followers include a negative number and
# a dotted identifier, which is not a number
ORACLE_STATES = ("a", "b", "1.00")
ORACLE_LINES = st.lists(st.sampled_from(ORACLE_STATES + ("x", "2.00", "-5", "1.2.3", "0.60")), min_size=1, max_size=10)
ORACLE_CORPORA = st.lists(ORACLE_LINES, min_size=1, max_size=25).map(
    lambda lines: [TokenSequence(f"e{i}", tuple(t)) for i, t in enumerate(lines)]
)


def assert_same_model(model, reference):
    assert model.states == reference.states
    assert model.emissions == reference.emissions
    for name in ("ps", "pt", "pe"):
        assert np.array_equal(getattr(model, name), getattr(reference, name)), name


def trained_trigger(records, truth, kpi_name="ctdi", threshold=None):
    try:
        return train(records, truth, kpi_name, threshold).pattern.trigger
    except TrainingError:
        return TrainingError


# truth values: "-5" is stored as "-5.00", as preprocessing writes the
# token "-5"; no line holds "9.00", so no state ever precedes it
ORACLE_VALUES = ("1.00", "2.00", "-5", "0.60", "9.00")


class TestTrainingOracles:
    """build_hmm and train's trigger choice equal their per-line references exactly."""

    @given(ORACLE_CORPORA, st.sets(st.sampled_from(ORACLE_STATES), min_size=1))
    def test_build_hmm_equals_reference(self, corpus, states):
        assert_same_model(build_hmm(corpus, states), reference_build_hmm(corpus, states))

    @settings(max_examples=200, deadline=None)
    @given(st.lists(ORACLE_LINES, min_size=1, max_size=5), st.data())
    def test_trigger_equals_reference(self, shapes, data):
        # lines repeat a few shapes, so that clusters reach thresholds above
        # one; each line may hold a ctdi value and a dlp value, and only
        # ctdi is trained
        picks = data.draw(st.lists(st.sampled_from(range(len(shapes))), min_size=1, max_size=25))
        records = [EventRecord(f"e{i}", "t", "scan", " ".join(shapes[k])) for i, k in enumerate(picks)]
        rows = [
            (record.event_id, kpi, value)
            for record in records
            for kpi in ("ctdi", "dlp")
            if (value := data.draw(st.none() | st.sampled_from(ORACLE_VALUES))) is not None
        ]
        truth = KpiTable(rows)
        threshold = data.draw(st.sampled_from((None, 1, 2, 3)))
        assert trained_trigger(records, truth, threshold=threshold) == reference_trigger(records, truth, threshold=threshold)

    def test_numeric_state_after_a_state(self):
        corpus = [TokenSequence("e0", ("a", "1.00", "x")), TokenSequence("e1", ("b", "1.00", "2.00"))]
        states = ("a", "b", "1.00")
        assert_same_model(build_hmm(corpus, states), reference_build_hmm(corpus, states))

    def test_trained_corpus_with_numeric_states(self, corpus_a, bundle_a, lines_a):
        states = bundle_a.hmm.states
        assert {"0.60", "1.00", "60.00"} <= set(states)
        matching = [line for line in lines_a if set(states) <= line.token_set()]
        assert_same_model(build_hmm(matching, states), reference_build_hmm(matching, states))
        assert bundle_a.pattern.trigger == reference_trigger(*corpus_a) == "ctdi"


class TestBaumWelch:
    def test_loglik_trace_nondecreasing(self):
        model = make_hmm(
            [0.6, 0.4],
            [[0.7, 0.3], [0.2, 0.8]],
            [[0.5, 0.4, 0.1], [0.1, 0.8, 0.1]],
        )
        seqs = [["e0", "e1", "e0"], ["e1", "e1"], ["e0"], ["e0", "e1", "e0"]]
        _, trace = baum_welch_fit(model, seqs, FitConfig(max_iterations=20, loglik_tolerance=1e-12))
        assert len(trace) >= 2
        assert all(b >= a - 1e-9 for a, b in zip(trace, trace[1:]))

    def test_fixed_point_on_own_distribution(self):
        # a near-deterministic model trained on its own typical output
        # should barely move
        model = make_hmm(
            [0.99, 0.01],
            [[0.01, 0.99], [0.99, 0.01]],
            [[0.98, 0.01, 0.01], [0.01, 0.98, 0.01]],
        )
        seqs = [["e0", "e1", "e0", "e1"]] * 20
        fitted, _ = baum_welch_fit(model, seqs, FitConfig(max_iterations=5))
        assert fitted.pe[0, 0] > 0.95
        assert fitted.pe[1, 1] > 0.95
        assert fitted.pt[0, 1] > 0.95

    def test_recovers_planted_emissions(self):
        # start from a vague model; data generated by a two-state alternator
        # where state 0 always emits e0 and state 1 always emits e1
        vague = make_hmm(
            [0.5, 0.5],
            [[0.4, 0.6], [0.6, 0.4]],
            [[0.6, 0.3, 0.1], [0.3, 0.6, 0.1]],
        )
        seqs = [["e0", "e1"] * 6] * 30
        fitted, trace = baum_welch_fit(
            vague, seqs, FitConfig(max_iterations=50, loglik_tolerance=1e-9)
        )
        assert trace[-1] > trace[0]
        assert fitted.pe[0, 0] > 0.9
        assert fitted.pe[1, 1] > 0.9

    def test_alphabet_extension_covers_new_symbols(self):
        model = make_hmm([1.0], [[1.0]], [[0.9, 0.1]], emissions=("x", OOV_TOKEN))
        fitted, _ = baum_welch_fit(model, [["x", "z", "x"]], FitConfig(max_iterations=2))
        assert "z" in fitted.emissions
        assert fitted.emissions[-1] == OOV_TOKEN

    def test_extend_alphabet_noop_for_known(self):
        model = make_hmm([1.0], [[1.0]], [[0.9, 0.1]], emissions=("x", OOV_TOKEN))
        assert extend_alphabet(model, ["x"]) is model

    def test_all_empty_sequences_rejected(self):
        model = make_hmm([1.0], [[1.0]], [[0.5, 0.5]])
        with pytest.raises(ValueError):
            baum_welch_fit(model, [[], []])

    def test_result_validates(self):
        model = make_hmm(
            [0.6, 0.4],
            [[0.7, 0.3], [0.2, 0.8]],
            [[0.5, 0.4, 0.1], [0.1, 0.8, 0.1]],
        )
        fitted, _ = baum_welch_fit(model, [["e0", "e1"]], FitConfig(max_iterations=3))
        assert_valid_and_smoothed(fitted)


def test_import_needs_only_numpy_beyond_the_standard_library():
    code = (
        "import sys; before = set(sys.modules); import driftparse; "
        "loaded = {m.split('.')[0] for m in set(sys.modules) - before}; "
        "print(sorted(loaded - set(sys.stdlib_module_names)))"
    )
    src = str(Path(driftparse.__file__).resolve().parents[1])
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert result.stdout.strip() == "['driftparse', 'numpy']"
