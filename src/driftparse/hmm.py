"""Discrete-observation hidden Markov model over log-line tokens.

States are the mined pattern tokens.  state_followers is the one rule by
which training, parsing and adaptation read a line: every state occurrence
that does not end the line pairs with the token after it.  The emission
rule is not yet that rule: the model's alphabet leaves out a state token
that follows a state, while the observations keep it, so such an
observation encodes as <oov>.  build_hmm takes the start and transition
counts of each distinct state run (a line's state tokens in order) once,
weighted by the number of lines that share it: matching lines repeat a
handful of runs.

The forward-backward pass works in probability space with the forward
variables rescaled to sum to 1 at every step (Rabiner 1989, section V.A),
and Viterbi decoding is max-plus in log-space, so that sequences of
thousands of symbols never underflow.

The Baum-Welch E-step runs over batches of equal-length sequences:
_length_batches groups the sequences by length and stacks each group in
batches of at most _BATCH_SEQUENCES, so a step costs a few numpy calls per
batch rather than per sequence, and the batch arrays stay small however
large the corpus.  The EM runs unsmoothed, so a probability it does not use
shrinks super-exponentially from step to step and soon leaves the normal
float range, where every operation that touches it takes the CPU's slow
subnormal path.  After each M-step the EM therefore sets to 0.0 every
probability below _EM_FLOOR, which the final smoothing could not tell from
0 anyway.  The EM runs on the emission columns its sequences use, not on
the whole alphabet, which the refit extends with every unseen value.  That
is exact up to the rounding of the row sums: a column no sequence uses gets
zero expected count, so the first M-step zeroes it in every row with mass
and no E-step reads it; a row with no mass keeps its whole row.
viterbi_decode is the one Viterbi path.  A path
depends only on the encoded sequence, so it encodes each token sequence
once and decodes each distinct encoding once, however many sequences
share it.  It cuts the distinct encodings, sorted by their bytes, into
groups of at most _DECODE_BATCH and decodes each group over the prefix
tree of its rows, so rows that share a prefix share its steps.  The tree
is read off neighbouring rows: a row shares the node of the row before it
at each level while the two agree, and the byte order puts the rows that
share a prefix side by side.  A trained transition matrix is nearly a
chain: most entries of a row equal its minimum, the smoothing floor.  So a
step scores each from-state once at its row's minimum and each to-state's
few larger entries apart, K per to-state at most, and takes the better of
the two: O(N * K) per node of a level, not O(N^2), with the dense step's
result bit for bit.  A single sequence is a group of one, so the oracle
tests check the very code adaptation runs.

Unknown symbols at inference time map to a reserved out-of-vocabulary
emission column that carries only smoothing-floor mass; drifted logs
contain unseen values by construction, so a hard failure would be wrong.
"""

from __future__ import annotations

import operator
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import compress, pairwise

import numpy as np

from .preprocess import TokenSequence

OOV_TOKEN = "<oov>"

# added to every row of a built or refit model, so none of its probabilities is zero
SMOOTHING_EPSILON = 1e-6

# below this, p + SMOOTHING_EPSILON == SMOOTHING_EPSILON in float64, so the
# final smoothing cannot tell p from 0; the EM sets such entries to 0.0
_EM_FLOOR = SMOOTHING_EPSILON * np.finfo(np.float64).eps / 4

_ROW_SUM_ATOL = 1e-9

# most sequences one E-step batch stacks: bounds its (T, B, N) arrays
_BATCH_SEQUENCES = 256

# most distinct encodings one Viterbi group holds: bounds its (W, N, K)
# score array and its back-pointers, one (W, N) array per level, W being
# at most the rows; a larger group shares more prefixes and spreads each
# level's numpy calls over more nodes, at more peak memory
_DECODE_BATCH = 256


@dataclass(frozen=True)
class FitConfig:
    max_iterations: int = 10
    loglik_tolerance: float = 1e-3

    def __post_init__(self):
        # a bool is an int to isinstance, and range() refuses a float only later
        if type(self.max_iterations) is not int:
            raise ValueError("max_iterations must be an int")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        # written so that NaN, which compares false, is refused too
        if not self.loglik_tolerance > 0:
            raise ValueError("loglik_tolerance must be > 0")


@dataclass(frozen=True)
class Hmm:
    """Immutable model: states, emission alphabet (OOV last), ps/pt/pe.

    The invariants are checked when the model is built, so build_hmm,
    baum_welch_fit and the bundle loader cannot return an invalid one.
    The arrays are never written after construction, so each instance
    builds its emission index and log tables once, on first use; a changed
    model is a new instance with caches of its own.
    """

    states: tuple[str, ...]
    emissions: tuple[str, ...]
    ps: np.ndarray
    pt: np.ndarray
    pe: np.ndarray

    def __post_init__(self):
        for name in ("ps", "pt", "pe"):
            # a float64 array passes through uncopied; lists become arrays
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=np.float64))
        n, m = len(self.states), len(self.emissions)
        if len(set(self.states)) != n:
            raise ValueError("states must be distinct")
        if len(set(self.emissions)) != m:
            raise ValueError("emissions must be distinct")
        if not self.emissions or self.emissions[-1] != OOV_TOKEN:
            raise ValueError(f"the last emission must be {OOV_TOKEN}")
        if self.ps.shape != (n,) or self.pt.shape != (n, n) or self.pe.shape != (n, m):
            raise ValueError("matrix shapes inconsistent with state/emission counts")
        if not all(np.isfinite(p).all() for p in (self.ps, self.pt, self.pe)):
            raise ValueError("probabilities must be finite")
        if np.any(self.ps < 0) or np.any(self.pt < 0) or np.any(self.pe < 0):
            raise ValueError("probabilities must be non-negative")
        # the entries are finite, so a sum that overflows to inf only marks
        # a row that does not sum to 1
        with np.errstate(over="ignore"):
            if abs(self.ps.sum() - 1.0) > _ROW_SUM_ATOL:
                raise ValueError("ps does not sum to 1")
            for name, matrix in (("pt", self.pt), ("pe", self.pe)):
                bad = np.abs(matrix.sum(axis=1) - 1.0) > _ROW_SUM_ATOL
                if bad.any():
                    raise ValueError(f"{name} row {int(np.argmax(bad))} does not sum to 1")

    @cached_property
    def _emission_index(self) -> dict[str, int]:
        return {tok: i for i, tok in enumerate(self.emissions)}

    @cached_property
    def _log_tables(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(log ps, log pt, log pe), log pe transposed: one contiguous row per symbol."""
        return _log(self.ps), _log(self.pt), np.ascontiguousarray(_log(self.pe).T)

    @cached_property
    def _log_pt_above_floor(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(floor, origin, larger): log pt as each row's minimum plus the entries above it.

        floor[i] is the minimum of row i of log pt.  Column j of origin
        lists, in ascending order, the from-states i whose entry log pt[i, j]
        lies above floor[i], and column j of larger holds those entries;
        both are (K, N), padded to the longest such list K (at least 1) with
        origin 0 and -inf.  A padding entry scores -inf, so it can decide a
        step only where every candidate scores -inf, and there the step
        points back to state 0, as the dense max-plus step does.
        """
        log_pt = self._log_tables[1]
        floor = log_pt.min(axis=1)
        # (j, i) pairs with i ascending within each j
        to, origin_of = np.nonzero((log_pt > floor[:, None]).T)
        slot = np.arange(len(to)) - np.searchsorted(to, to)
        width = max(1, slot.max(initial=-1) + 1)
        origin = np.zeros((width, len(self.states)), dtype=np.intp)
        larger = np.full((width, len(self.states)), -np.inf)
        origin[slot, to] = origin_of
        larger[slot, to] = log_pt[origin_of, to]
        return floor, origin, larger

    def encode(self, observations: list[str]) -> np.ndarray:
        """Map observation tokens to emission indices; unknown -> OOV."""
        lookup = self._emission_index
        oov = lookup[OOV_TOKEN]
        return np.array([lookup.get(tok, oov) for tok in observations], dtype=np.intp)


def _smooth_rows(counts: np.ndarray) -> np.ndarray:
    """Add SMOOTHING_EPSILON to every entry and row-normalize, in place; returns counts."""
    counts += SMOOTHING_EPSILON
    counts /= counts.sum(axis=-1, keepdims=True)
    return counts


def _log(p: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore"):
        return np.log(p)


def state_followers(tokens: tuple[str, ...], state_set):
    """Lazily yield (state token, next token) for each state occurrence not last in its line.

    Training, parsing and adaptation all pair a state with its follower
    here; a caller that stops at its first hit tests no further token.
    The tokens are read twice, so they must be a sequence, not an iterator.
    """
    # compress filters the pairs with no Python-level step per pair
    return compress(pairwise(tokens), map(state_set.__contains__, tokens))


def observation_sequences(states, corpus: list[TokenSequence]) -> list[list[str]]:
    """Per line, the token after each state occurrence (state_followers).

    The rule decides which tokens vote in the Viterbi consensus and what the
    Baum-Welch refit model is fitted to; it does not affect the refit
    pattern, which comes from the state tokens the trigger lines carry.
    """
    state_set = frozenset(states)
    return [[b for _, b in state_followers(line.tokens, state_set)] for line in corpus]


def build_hmm(matching_lines: list[TokenSequence], state_tokens) -> Hmm:
    """Construct the model whose states are state_tokens, sorted, from lines.

    Training passes a mined cluster's tokens and the lines that carry them.
    Start counts are each state token's occurrences across the lines;
    transitions are bigrams over the line's state-token subsequence, its
    state run (non-state tokens are skipped); emissions are the
    state_followers pairs whose follower is not a state token, a follower
    spelled <oov> counting in the OOV column that encode maps it to.
    Counts are smoothed by SMOOTHING_EPSILON and row-normalized.
    """
    if not matching_lines:
        raise ValueError("matching_lines must be non-empty")
    if not state_tokens:
        raise ValueError("state_tokens must be non-empty")
    states = tuple(sorted(state_tokens))
    state_set = frozenset(states)
    sidx = {s: i for i, s in enumerate(states)}

    runs: Counter[tuple[str, ...]] = Counter()
    pair_counts: Counter[tuple[str, str]] = Counter()
    for line in matching_lines:
        tokens = line.tokens
        is_state = list(map(state_set.__contains__, tokens))
        runs[tuple(compress(tokens, is_state))] += 1
        # a state followed by a non-state: the state_followers pairs whose
        # follower is not a state.  A follower that is itself a state token
        # is left out of the alphabet, though the observations keep it.
        # Counting it too moves the alphabet and refit iteration counts that
        # perfbench/golden.json pins, so it waits for a benchmark change
        # that re-records the goldens.
        pair_counts.update(compress(pairwise(tokens), map(operator.gt, is_state, is_state[1:])))

    # each distinct run once, weighted by its lines; integer sums, so exact
    start_counts = np.zeros(len(states))
    trans_counts = np.zeros((len(states), len(states)))
    for run, n in runs.items():
        for s in run:
            start_counts[sidx[s]] += n
        for a, b in pairwise(run):
            trans_counts[sidx[a], sidx[b]] += n

    alphabet = tuple(sorted({e for _, e in pair_counts} - {OOV_TOKEN})) + (OOV_TOKEN,)
    eidx = {e: k for k, e in enumerate(alphabet)}
    emit_counts = np.zeros((len(states), len(alphabet)))
    for (a, e), n in pair_counts.items():
        emit_counts[sidx[a], eidx[e]] = n

    ps = _smooth_rows(start_counts)
    pt = _smooth_rows(trans_counts)
    pe = _smooth_rows(emit_counts)
    return Hmm(states, alphabet, ps, pt, pe)


def _forward(ps: np.ndarray, pt: np.ndarray, emit: np.ndarray):
    """Scaled forward pass over a batch of B equal-length sequences.

    emit[t, b] is the emission column pe[:, obs_b[t]], a (T, B, N) array
    indexed time first so that each step is one contiguous (B, N) block.
    Returns (alpha, scale): alpha[t, b] is the forward variable of sequence
    b rescaled to sum to 1 and scale[t, b] the factor it was divided by, so
    the log-likelihood of sequence b is the sum of log(scale[:, b]).  The
    pass stops at the first step where any sequence's scale is zero; scale
    then ends with that step and alpha stops before it.
    """
    alpha = np.empty_like(emit)
    scale = np.empty(emit.shape[:2])
    for t in range(len(emit)):
        a = (ps if t == 0 else alpha[t - 1] @ pt) * emit[t]
        scale[t] = a.sum(axis=1)
        if not scale[t].all():
            return alpha[:t], scale[: t + 1]
        alpha[t] = a / scale[t, :, None]
    return alpha, scale


def sequence_loglikelihood(model: Hmm, observations: list[str]) -> float:
    """Forward algorithm: log-probability of the sequence over all paths (-inf if none)."""
    if not observations:
        raise ValueError("observation sequence must be non-empty")
    _, scale = _forward(model.ps, model.pt, model.pe.T[model.encode(observations), None])
    return float(_log(scale).sum())


def _length_batches(encoded: list[np.ndarray], bound: int):
    """Yield batches of equal-length sequences stacked, at most bound per batch.

    Groups follow the order in which their lengths first occur, and each
    group is cut in order into batches of at most bound rows.
    """
    by_length: dict[int, list[np.ndarray]] = {}
    for obs in encoded:
        by_length.setdefault(len(obs), []).append(obs)
    for group in by_length.values():
        for start in range(0, len(group), bound):
            yield np.stack(group[start : start + bound])


def _prefix_tree(symbols: np.ndarray, alive: np.ndarray):
    """The prefix tree of a group's rows, read off each row and the row before it.

    symbols is (T, G): column g holds row g, padded after its end, and
    alive[t, g] is true while row g is longer than t.  Row g starts a node
    at level t unless row g - 1 is alive there and equal to row g on levels
    0..t; otherwise it shares row g - 1's node.  starts[t, g] marks the rows
    that start a node at level t, and node[t, g] is the index, among the
    nodes of level t, of the node that row g reaches there (meaningful
    while the row is alive); the parent of a node is node[t - 1] of its
    first row.  Each node is a prefix of length t + 1 of its rows, so any
    row order gives a correct tree; rows sorted so that those sharing a
    prefix lie side by side give each distinct prefix exactly one node.
    """
    same = np.zeros_like(alive)
    same[:, 1:] = alive[:, :-1] & (symbols[:, 1:] == symbols[:, :-1])
    starts = alive & ~np.logical_and.accumulate(same, axis=0)
    return starts, np.cumsum(starts, axis=1) - 1


def _decode_tree(model: Hmm, rows: list[np.ndarray]) -> list[tuple[list[int], float]]:
    """Viterbi over a group of encoded rows, one step per node of their prefix tree.

    Rows that share a node share its steps: level t of the prefix tree
    (_prefix_tree) holds prefixes of length t + 1, and each node is stepped
    once from the scores of its parent.  A step reads log pt as each row's
    floor plus the few entries above it (Hmm._log_pt_above_floor), so it
    costs O(N * K) per node, not O(N^2), K being the most entries above
    their floor that one to-state has.  For the W nodes of a level:

    * at_floor = delta + floor scores every from-state i at its floor; its
      first argmax is lowest and its best score floor_best (W, 1);
    * scores[w, e, j] = delta[w, origin[e, j]] + larger[e, j] scores the
      entries above the floor, (W, K, N); its maximum over e is above_best,
      and above is the lowest from-state that reaches it.

    An entry above its row's floor gives a score no lower than the floor
    score of the same from-state, as float addition rounds monotonically,
    so the best score over every from-state is max(above_best, floor_best)
    and its lowest argmax is above where above_best is larger, lowest where
    floor_best is, and the lower of the two where they tie.  The written
    score is the same float sum as the dense max-plus step takes at that
    argmax, -inf (a zero probability) included.  floor_best is read at its
    argmax through a flat index instead of reducing a second time: the
    value at the first argmax is the maximum bit for bit, as the log
    tables hold no NaN (an Hmm refuses non-finite probabilities).  A row
    takes its last state and log-probability at the level where it ends,
    and one back-trace walks every row alive at a level at once.  The rows
    are decoded in the order given, and each result is the same bit for bit
    in any order; an order that puts rows sharing a prefix side by side
    only shares more steps.
    """
    log_ps, _, log_pe_by_symbol = model._log_tables
    floor, origin, larger = model._log_pt_above_floor
    n = len(model.states)
    lengths = np.fromiter(map(len, rows), dtype=np.intp, count=len(rows))
    longest = lengths.max()
    alive = np.arange(longest)[:, None] < lengths
    symbols = np.zeros((longest, len(rows)), dtype=np.intp)
    symbols.T[alive.T] = np.concatenate(rows)
    starts, node = _prefix_tree(symbols, alive)

    width = starts.sum(axis=1).max()
    # flat position of at_floor[w, 0]; adding an argmax i gives at_floor[w, i]
    floor_offsets = np.arange(width)[:, None] * n
    backs = [None]  # level 0 has no parent to point back to
    last = np.empty(len(rows), dtype=np.intp)
    logp = np.empty(len(rows))
    for t in range(longest):
        first = np.flatnonzero(starts[t])
        if t == 0:
            delta = log_ps + log_pe_by_symbol[symbols[0, first]]
        else:
            nodes = len(first)
            parent = delta[node[t - 1, first]]
            at_floor = parent + floor
            lowest = at_floor.argmax(axis=1)[:, None]
            floor_best = at_floor.take(lowest + floor_offsets[:nodes])
            scores = parent[:, origin]
            scores += larger
            above_best = scores.max(axis=1)
            above = np.where(scores == above_best[:, None], origin, n).min(axis=1)
            delta = np.maximum(above_best, floor_best)
            back = np.where(above_best > floor_best, above, lowest)
            np.minimum(back, above, out=back, where=above_best == floor_best)
            delta += log_pe_by_symbol[symbols[t, first]]
            backs.append(back)
        ending = np.flatnonzero(lengths == t + 1)
        final = delta[node[t, ending]]
        last[ending] = final.argmax(axis=1)
        logp[ending] = final.max(axis=1)

    # a row joins the back-trace at the level where it ends
    paths = np.empty((longest, len(rows)), dtype=np.intp)
    for t in range(longest - 1, 0, -1):
        now = alive[t]
        paths[t, now] = last[now]
        last[now] = backs[t][node[t, now], last[now]]
    paths[0] = last
    return [
        (path[:length], score) for path, length, score in zip(paths.T.tolist(), lengths.tolist(), logp.tolist())
    ]


def viterbi_decode(model: Hmm, sequences: list[list[str]]) -> list[tuple[list[int], float]]:
    """Most probable state path and its joint log-probability, per sequence.

    The result holds one (path, log-probability) per token sequence, in the
    same order.  Each sequence is encoded once (Hmm.encode), and each
    distinct encoding is decoded once: sequences that encode alike, such as
    lines whose unseen values all map to <oov>, share one result object,
    which callers only read.  The distinct encodings are sorted by their
    bytes, so those that share a prefix lie side by side, and cut in that
    order into groups of at most _DECODE_BATCH; each group is decoded over
    the prefix tree of its rows (_decode_tree), one step per distinct
    prefix.  A result is the same bit for bit whatever group it shares.
    Ties are broken toward the lowest state index at every step.
    """
    if not all(sequences):
        raise ValueError("observation sequence must be non-empty")
    # a row's bytes are its key, and np.frombuffer reads the row back from them
    keys = [model.encode(obs).tobytes() for obs in sequences]
    ordered = sorted(set(keys))
    results = {}
    for start in range(0, len(ordered), _DECODE_BATCH):
        group = ordered[start : start + _DECODE_BATCH]
        rows = [np.frombuffer(key, dtype=np.intp) for key in group]
        results.update(zip(group, _decode_tree(model, rows)))
    return [results[key] for key in keys]


def _expected_counts(ps: np.ndarray, pt: np.ndarray, pe: np.ndarray, encoded: list[np.ndarray]):
    """One E-step of the arrays (ps, pt, pe): expected start/transition/emission counts.

    Sequences of equal length run through forward-backward together, in
    batches of at most _BATCH_SEQUENCES, so the batch arrays stay bounded
    however many sequences share a length.  The backward variables are
    divided by the forward pass's scales, so alpha * beta is the state
    posterior at every step.  Transition counts are summed inside the
    backward loop and emission counts once per batch.
    """
    n, m = pe.shape
    ps_acc = np.zeros(n)
    pt_acc = np.zeros((n, n))
    pe_acc = np.zeros((m, n))
    total_ll = 0.0
    # one contiguous row per symbol; nothing is copied for a model
    # re-estimated from these counts, whose pe is the returned pe_acc.T
    pe_by_symbol = np.ascontiguousarray(pe.T)
    for batch in _length_batches(encoded, _BATCH_SEQUENCES):
        emit = pe_by_symbol[batch.T]
        alpha, scale = _forward(ps, pt, emit)
        if len(alpha) < len(emit):
            raise ValueError("a training sequence has probability zero under the model")
        # beta holds one step; alpha[t] is turned in place into the
        # state posterior alpha[t] * beta[t] once step t is done
        beta = np.ones((len(batch), n))
        xi = np.zeros((n, n))
        for t in range(len(alpha) - 2, -1, -1):
            w = emit[t + 1] * beta / scale[t + 1, :, None]
            xi += alpha[t].T @ w
            beta = w @ pt.T
            alpha[t] *= beta
        total_ll += float(np.log(scale).sum())
        ps_acc += alpha[0].sum(axis=0)
        pt_acc += pt * xi
        # sum the posterior rows of each distinct symbol, then add them once
        symbols = batch.T.ravel()
        order = np.argsort(symbols, kind="stable")
        seen, starts = np.unique(symbols[order], return_index=True)
        pe_acc[seen] += np.add.reduceat(alpha.reshape(-1, n)[order], starts)
    return ps_acc, pt_acc, pe_acc.T, total_ll


def _renormalize_or_keep(counts: np.ndarray, fallback: np.ndarray) -> np.ndarray:
    """Row-normalize expected counts in place; rows with no mass keep the old row."""
    sums = counts.sum(axis=1, keepdims=True)
    empty = sums[:, 0] == 0
    counts /= np.where(empty[:, None], 1.0, sums)
    counts[empty] = fallback[empty]
    return counts


def extend_alphabet(model: Hmm, symbols) -> Hmm:
    """Return a model whose alphabet covers the given symbols.

    New symbols are inserted (sorted) before the OOV column with
    SMOOTHING_EPSILON mass; rows are renormalized.
    """
    known = set(model.emissions)
    new = sorted({s for s in symbols if s not in known})
    if not new:
        return model
    emissions = model.emissions[:-1] + tuple(new) + (OOV_TOKEN,)
    n = len(model.states)
    pe = np.empty((n, len(emissions)))
    pe[:, : len(model.emissions) - 1] = model.pe[:, :-1]
    pe[:, len(model.emissions) - 1 : -1] = SMOOTHING_EPSILON
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
    EM iterations run on the arrays, unsmoothed so the recorded
    log-likelihood trace is non-decreasing up to the rounding of _EM_FLOOR:
    each M-step sets every probability below it to 0.0, which keeps the
    E-steps out of subnormal arithmetic, and a state whose expected count
    thereby becomes exactly 0 keeps its previous row.  SMOOTHING_EPSILON is
    added once to the returned model, the one Hmm built, to keep every
    probability strictly positive.
    Symbols unseen by the input model extend its emission alphabet first.
    The EM then runs on the columns the sequences use, renumbered 0..k-1,
    and writes them back into the extended matrix at the end.  That is what
    an EM over every column gives, up to the rounding of the row sums: a
    column no sequence uses gets zero expected count, so no E-step reads
    it and a row re-estimated at least once gets 0 there, while a row that
    never had mass keeps its whole row.
    """
    sequences = [seq for seq in training_sequences if seq]
    if not sequences:
        raise ValueError("training_sequences must contain a non-empty sequence")
    model = extend_alphabet(model, (tok for seq in sequences for tok in seq))
    encoded = [model.encode(seq) for seq in sequences]
    # the EM runs on the used columns only: symbol observed[j] becomes j
    observed, renumbered = np.unique(np.concatenate(encoded), return_inverse=True)
    encoded = np.split(renumbered, np.cumsum([len(obs) for obs in encoded[:-1]]))

    ps, pt, pe = model.ps, model.pt, model.pe[:, observed]
    estimated = np.zeros(len(model.states), dtype=bool)
    trace: list[float] = []
    for _ in range(config.max_iterations):
        ps_acc, pt_acc, pe_acc, total_ll = _expected_counts(ps, pt, pe, encoded)
        trace.append(total_ll)
        if len(trace) > 1 and total_ll - trace[-2] < config.loglik_tolerance:
            break
        estimated |= pe_acc.any(axis=1)
        ps = ps_acc / ps_acc.sum()
        pt = _renormalize_or_keep(pt_acc, pt)
        pe = _renormalize_or_keep(pe_acc, pe)
        for p in (ps, pt, pe):
            p[p < _EM_FLOOR] = 0.0

    # a re-estimated row has no mass in an unused column; a row that never
    # had mass keeps its whole row, whose entries below _EM_FLOOR need no
    # zeroing: the smoothing cannot tell them from 0
    fitted_pe = np.where(estimated[:, None], 0.0, model.pe)
    fitted_pe[:, observed] = pe
    # the first iteration always runs an M-step, so ps and pt are the EM's own
    # arrays and smoothing them in place leaves the input model untouched
    fitted = Hmm(model.states, model.emissions, _smooth_rows(ps), _smooth_rows(pt), _smooth_rows(fitted_pe))
    return fitted, trace
