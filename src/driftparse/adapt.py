"""Model adaptation to drifted corpora.

Two strategies with opposite failure modes, both deliberately preserved:

* Baum-Welch refit generalizes.  The model is re-estimated on the new
  corpus and states whose token usage falls below a relative floor are
  dropped from the required-token set, so the pattern gets shorter and
  more permissive (hit rate rises, false positives appear).

* Viterbi re-decoding restricts.  Each new line is decoded against the
  trained model and observation tokens that align to the same state in at
  least a consensus fraction of lines are added to the required-token
  set, so the pattern gets longer and stricter (hit rate collapses).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .hmm import FitConfig, Hmm, baum_welch_fit, find_trigger_state, state_usage, viterbi_decode
from .parsing import ParsingPattern, normalize_aliases
from .preprocess import TokenSequence

DEFAULT_OCCUPANCY_FLOOR = 0.1
DEFAULT_CONSENSUS_FRACTION = 0.8
# a line is a high-confidence decode when it carries at least this share
# of the pattern's states
DEFAULT_COVERAGE_FRACTION = 0.5


@dataclass(frozen=True)
class AdaptReport:
    pattern_before: ParsingPattern
    pattern_after: ParsingPattern
    loglik_trace: tuple[float, ...] = ()


def observation_sequences(states, corpus: list[TokenSequence]) -> list[list[str]]:
    """Per line, the tokens immediately following each state-token occurrence.

    Every state occurrence (except a line-final one) contributes one
    observation, whether or not the follower is itself a state token.  The
    rule decides which tokens vote in the Viterbi consensus and what the
    Baum-Welch refit model is fitted to; it does not affect the refit
    pattern, which comes from state_usage counts of the state tokens.
    """
    state_set = frozenset(states)
    sequences = []
    for line in corpus:
        obs = [
            line.tokens[i + 1]
            for i in range(len(line.tokens) - 1)
            if line.tokens[i] in state_set
        ]
        sequences.append(obs)
    return sequences


def adapt_baum_welch(
    model: Hmm,
    pattern: ParsingPattern,
    new_corpus: list[TokenSequence],
    config: FitConfig = FitConfig(),
    occupancy_floor: float = DEFAULT_OCCUPANCY_FLOOR,
) -> tuple[Hmm, ParsingPattern, AdaptReport]:
    """Refit on the new corpus and drop starved states from the pattern.

    The adapted pattern depends only on the state_usage token counts of the
    new corpus: states used less than occupancy_floor times the mean usage
    are dropped, and a dropped trigger is re-chosen among the kept states by
    find_trigger_state.  The Baum-Welch refit does not affect the pattern;
    it only produces the model returned here and saved into the bundle.
    """
    if not new_corpus:
        raise ValueError("new_corpus must be non-empty")
    sequences = [s for s in observation_sequences(model.states, new_corpus) if s]
    if not sequences:
        raise ValueError("no state-relevant observations in new corpus")
    fitted, trace = baum_welch_fit(model, sequences, config)
    usage = state_usage(fitted.states, new_corpus)
    mean_usage = sum(usage.values()) / len(usage)
    floor = occupancy_floor * mean_usage
    kept = frozenset(s for s, occ in usage.items() if occ >= floor)
    if not kept:
        raise ValueError("refit retained no state above the occupancy floor")
    trigger = pattern.trigger
    if trigger not in kept:
        trigger = find_trigger_state(kept, new_corpus)
    aliases = normalize_aliases(trigger, [a for a in pattern.trigger_aliases if a in kept])
    adapted = replace(pattern, required_tokens=kept, trigger=trigger, trigger_aliases=aliases)
    report = AdaptReport(pattern, adapted, tuple(trace))
    return fitted, adapted, report


def adapt_viterbi(
    model: Hmm,
    pattern: ParsingPattern,
    new_corpus: list[TokenSequence],
    consensus_fraction: float = DEFAULT_CONSENSUS_FRACTION,
) -> tuple[Hmm, ParsingPattern, AdaptReport]:
    """Decode the new corpus and add consistently aligned tokens to the pattern.

    Only high-confidence lines vote: a line must carry at least
    DEFAULT_COVERAGE_FRACTION of the pattern's states, otherwise unrelated lines
    that merely share a token or two would dilute every consensus.
    """
    if not new_corpus:
        raise ValueError("new_corpus must be non-empty")
    if not 0 < consensus_fraction <= 1:
        raise ValueError("consensus_fraction must lie in (0, 1]")
    state_set = frozenset(model.states)
    min_states = DEFAULT_COVERAGE_FRACTION * len(state_set)
    sequences = observation_sequences(model.states, new_corpus)
    decoded = 0
    pair_line_counts: dict[tuple[str, int], int] = {}
    for line, obs in zip(new_corpus, sequences):
        if not obs or len(line.token_set() & state_set) < min_states:
            continue
        path, _ = viterbi_decode(model, obs)
        decoded += 1
        for token, state in set(zip(obs, path)):
            key = (token, state)
            pair_line_counts[key] = pair_line_counts.get(key, 0) + 1
    if decoded == 0:
        raise ValueError("no decodable lines in new corpus")
    additions = frozenset(
        token
        for (token, _), count in pair_line_counts.items()
        if count / decoded >= consensus_fraction
    )
    adapted = replace(pattern, required_tokens=pattern.required_tokens | additions)
    report = AdaptReport(pattern, adapted)
    return model, adapted, report
