"""Discrete-observation hidden Markov model over log-line tokens.

States are the mined pattern tokens; emissions are the value tokens
observed immediately after them.  The forward-backward pass works in
probability space with the forward variables rescaled to sum to 1 at every
step (Rabiner 1989, section V.A), and Viterbi decoding is max-plus in
log-space, so that sequences of thousands of symbols never underflow.

Unknown symbols at inference time map to a reserved out-of-vocabulary
emission column that carries only smoothing-floor mass; drifted logs
contain unseen values by construction, so a hard failure would be wrong.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mining import PatternCluster
from .preprocess import TokenSequence, is_number

OOV_TOKEN = "<oov>"

_ROW_SUM_ATOL = 1e-9


class TriggerNotFoundError(ValueError):
    """No state is ever followed by a numeric emission."""


@dataclass(frozen=True)
class FitConfig:
    max_iterations: int = 10
    loglik_tolerance: float = 1e-3
    smoothing_epsilon: float = 1e-6

    def __post_init__(self):
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if self.loglik_tolerance <= 0:
            raise ValueError("loglik_tolerance must be > 0")
        if self.smoothing_epsilon <= 0:
            raise ValueError("smoothing_epsilon must be > 0")


@dataclass(frozen=True)
class Hmm:
    """Immutable model: states, emission alphabet (OOV last), ps/pt/pe."""

    states: tuple[str, ...]
    emissions: tuple[str, ...]
    ps: np.ndarray
    pt: np.ndarray
    pe: np.ndarray

    def validate(self) -> None:
        n, m = len(self.states), len(self.emissions)
        if len(set(self.states)) != n:
            raise ValueError("states must be distinct")
        if len(set(self.emissions)) != m:
            raise ValueError("emissions must be distinct")
        if self.ps.shape != (n,) or self.pt.shape != (n, n) or self.pe.shape != (n, m):
            raise ValueError("matrix shapes inconsistent with state/emission counts")
        if np.any(self.ps < 0) or np.any(self.pt < 0) or np.any(self.pe < 0):
            raise ValueError("probabilities must be non-negative")
        if abs(self.ps.sum() - 1.0) > _ROW_SUM_ATOL:
            raise ValueError("ps does not sum to 1")
        for name, matrix in (("pt", self.pt), ("pe", self.pe)):
            bad = np.abs(matrix.sum(axis=1) - 1.0) > _ROW_SUM_ATOL
            if bad.any():
                raise ValueError(f"{name} row {int(np.argmax(bad))} does not sum to 1")

    def encode(self, observations: list[str]) -> np.ndarray:
        """Map observation tokens to emission indices; unknown -> OOV."""
        lookup = {tok: i for i, tok in enumerate(self.emissions)}
        oov = lookup[OOV_TOKEN]
        return np.array([lookup.get(tok, oov) for tok in observations], dtype=np.intp)


def _smooth_rows(counts: np.ndarray, epsilon: float) -> np.ndarray:
    smoothed = counts + epsilon
    return smoothed / smoothed.sum(axis=-1, keepdims=True)


def _log(p: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore"):
        return np.log(p)


def state_token_runs(tokens: tuple[str, ...], state_set: frozenset[str]):
    """Split a line into its state tokens, their bigrams and (state, follower) pairs.

    Returns (state_sequence, bigrams, emission_pairs): state_sequence is the
    line's state-token subsequence, bigrams are its consecutive pairs (non-state
    tokens in between are skipped), and emission_pairs holds
    (state_token, next_token) for every state occurrence whose successor is
    a non-state token.
    """
    state_seq = [t for t in tokens if t in state_set]
    bigrams = list(zip(state_seq, state_seq[1:]))
    pairs = [
        (tokens[i], tokens[i + 1])
        for i in range(len(tokens) - 1)
        if tokens[i] in state_set and tokens[i + 1] not in state_set
    ]
    return state_seq, bigrams, pairs


def build_hmm(
    matching_lines: list[TokenSequence],
    cluster: PatternCluster,
    smoothing_epsilon: float = 1e-6,
) -> Hmm:
    """Construct the model from lines that all carry the cluster tokens.

    Start probabilities follow token occurrence counts; transitions are
    bigrams over the line's state-token subsequence (non-state tokens are
    skipped); emissions are the non-state tokens observed immediately after
    a state token.  Counts are additively smoothed and row-normalized.
    """
    if not matching_lines:
        raise ValueError("matching_lines must be non-empty")
    if not cluster.tokens:
        raise ValueError("cluster must be non-empty")
    states = tuple(sorted(cluster.tokens))
    state_set = frozenset(states)
    sidx = {s: i for i, s in enumerate(states)}

    start_counts = np.zeros(len(states))
    trans_counts = np.zeros((len(states), len(states)))
    pair_counts: dict[tuple[str, str], int] = {}
    for line in matching_lines:
        state_seq, bigrams, pairs = state_token_runs(line.tokens, state_set)
        for token in state_seq:
            start_counts[sidx[token]] += 1
        for a, b in bigrams:
            trans_counts[sidx[a], sidx[b]] += 1
        for a, e in pairs:
            pair_counts[(a, e)] = pair_counts.get((a, e), 0) + 1

    alphabet = tuple(sorted({e for _, e in pair_counts})) + (OOV_TOKEN,)
    eidx = {e: k for k, e in enumerate(alphabet)}
    emit_counts = np.zeros((len(states), len(alphabet)))
    for (a, e), n in pair_counts.items():
        emit_counts[sidx[a], eidx[e]] = n

    ps = _smooth_rows(start_counts, smoothing_epsilon)
    pt = _smooth_rows(trans_counts, smoothing_epsilon)
    pe = _smooth_rows(emit_counts, smoothing_epsilon)
    model = Hmm(states, alphabet, ps, pt, pe)
    model.validate()
    return model


def _forward(model: Hmm, obs: np.ndarray):
    """Scaled forward pass over encoded observations.

    Returns (alpha, scale, emit): alpha[t] is the forward variable rescaled
    to sum to 1, scale[t] the factor it was divided by (the log-likelihood
    is the sum of log(scale)) and emit[t] the column pe[:, obs[t]].  An
    impossible sequence stops at its first zero scale; alpha stops before it.
    """
    emit = model.pe[:, obs].T
    alpha = np.empty_like(emit)
    scale = np.empty(len(obs))
    for t in range(len(obs)):
        a = (model.ps if t == 0 else alpha[t - 1] @ model.pt) * emit[t]
        scale[t] = a.sum()
        if scale[t] == 0:
            return alpha[:t], scale[: t + 1], emit
        alpha[t] = a / scale[t]
    return alpha, scale, emit


def sequence_loglikelihood(model: Hmm, observations: list[str]) -> float:
    """Forward algorithm: log-probability of the sequence over all paths (-inf if none)."""
    if not observations:
        raise ValueError("observation sequence must be non-empty")
    _, scale, _ = _forward(model, model.encode(observations))
    return float(_log(scale).sum())


def viterbi_decode(model: Hmm, observations: list[str]) -> tuple[list[int], float]:
    """Most probable state path and its joint log-probability.

    Ties are broken toward the lowest state index at every step.
    """
    if not observations:
        raise ValueError("observation sequence must be non-empty")
    obs = model.encode(observations)
    log_ps, log_pt, log_pe = _log(model.ps), _log(model.pt), _log(model.pe)
    n = len(model.states)
    delta = log_ps + log_pe[:, obs[0]]
    back = np.zeros((len(obs), n), dtype=np.intp)
    for t in range(1, len(obs)):
        scores = delta[:, None] + log_pt
        back[t] = np.argmax(scores, axis=0)
        delta = scores[back[t], np.arange(n)] + log_pe[:, obs[t]]
    path = [int(np.argmax(delta))]
    for t in range(len(obs) - 1, 0, -1):
        path.append(int(back[t, path[-1]]))
    path.reverse()
    return path, float(np.max(delta))


def _expected_counts(model: Hmm, encoded: list[np.ndarray]):
    """One E-step over all sequences: expected start/transition/emission counts.

    The backward variables of each sequence are divided by the forward
    pass's scales, so alpha * beta is the state posterior at every step.
    """
    n, m = len(model.states), len(model.emissions)
    ps_acc = np.zeros(n)
    pt_acc = np.zeros((n, n))
    pe_acc = np.zeros((m, n))
    total_ll = 0.0
    for obs in encoded:
        alpha, scale, emit = _forward(model, obs)
        if len(alpha) < len(obs):
            raise ValueError("a training sequence has probability zero under the model")
        beta = np.ones_like(alpha)
        for t in range(len(obs) - 2, -1, -1):
            beta[t] = model.pt @ (emit[t + 1] * beta[t + 1]) / scale[t + 1]
        gamma = alpha * beta
        total_ll += float(np.log(scale).sum())
        ps_acc += gamma[0]
        np.add.at(pe_acc, obs, gamma)
        pt_acc += model.pt * (alpha[:-1].T @ (emit[1:] * beta[1:] / scale[1:, None]))
    return ps_acc, pt_acc, pe_acc.T, total_ll


def _renormalize_or_keep(counts: np.ndarray, fallback: np.ndarray) -> np.ndarray:
    """Row-normalize expected counts; rows with no mass keep the old row."""
    sums = counts.sum(axis=1, keepdims=True)
    out = np.where(sums > 0, counts / np.where(sums > 0, sums, 1.0), fallback)
    return out


def extend_alphabet(model: Hmm, symbols, floor: float) -> Hmm:
    """Return a model whose alphabet covers the given symbols.

    New symbols are inserted (sorted) before the OOV column with
    smoothing-floor mass; rows are renormalized.
    """
    known = set(model.emissions)
    new = sorted({s for s in symbols if s not in known})
    if not new:
        return model
    emissions = model.emissions[:-1] + tuple(new) + (OOV_TOKEN,)
    n = len(model.states)
    pe = np.empty((n, len(emissions)))
    pe[:, : len(model.emissions) - 1] = model.pe[:, :-1]
    pe[:, len(model.emissions) - 1 : -1] = floor
    pe[:, -1] = model.pe[:, -1]
    pe /= pe.sum(axis=1, keepdims=True)
    return Hmm(model.states, emissions, model.ps, model.pt, pe)


def baum_welch_fit(
    model: Hmm,
    training_sequences: list[list[str]],
    config: FitConfig = FitConfig(),
) -> tuple[Hmm, list[float]]:
    """Expectation-maximization re-estimation over multiple sequences.

    Expected counts are summed across sequences before re-estimation.  The
    EM iterations themselves are unsmoothed so the recorded log-likelihood
    trace is exactly non-decreasing; the smoothing floor is applied once to
    the returned model to keep every probability strictly positive.
    Symbols unseen by the input model extend its emission alphabet first.
    """
    sequences = [seq for seq in training_sequences if seq]
    if not sequences:
        raise ValueError("training_sequences must contain a non-empty sequence")
    current = extend_alphabet(
        model, (tok for seq in sequences for tok in seq), config.smoothing_epsilon
    )
    encoded = [current.encode(seq) for seq in sequences]

    trace: list[float] = []
    for _ in range(config.max_iterations):
        ps_acc, pt_acc, pe_acc, total_ll = _expected_counts(current, encoded)
        trace.append(total_ll)
        if len(trace) > 1 and total_ll - trace[-2] < config.loglik_tolerance:
            break
        ps = ps_acc / ps_acc.sum()
        pt = _renormalize_or_keep(pt_acc, current.pt)
        pe = _renormalize_or_keep(pe_acc, current.pe)
        current = Hmm(current.states, current.emissions, ps, pt, pe)

    fitted = Hmm(
        current.states,
        current.emissions,
        _smooth_rows(current.ps, config.smoothing_epsilon),
        _smooth_rows(current.pt, config.smoothing_epsilon),
        _smooth_rows(current.pe, config.smoothing_epsilon),
    )
    fitted.validate()
    return fitted, trace


def find_trigger_state(states, lines: list[TokenSequence]) -> str:
    """The state token that precedes a numeric token in the most lines.

    Ties break lexicographically on the state token.
    """
    state_set = frozenset(states)
    counts = {s: 0 for s in states}
    for line in lines:
        hit = set()
        for a, b in zip(line.tokens, line.tokens[1:]):
            if a in state_set and is_number(b):
                hit.add(a)
        for s in hit:
            counts[s] += 1
    best = max(counts.values())
    if best == 0:
        raise TriggerNotFoundError("no state is followed by a numeric emission")
    return min(s for s, n in counts.items() if n == best)
