"""Model adaptation to drifted corpora.

Two strategies with opposite failure modes, both deliberately preserved:

* Baum-Welch refit generalizes.  The model is re-estimated on the new
  corpus and states whose token usage falls below OCCUPANCY_FLOOR times
  the mean usage are dropped from the required-token set, so the pattern
  gets shorter and more permissive (hit rate rises, false positives
  appear).

* Viterbi re-decoding restricts.  Each new line is decoded against the
  trained model and observation tokens that align to the same state in at
  least CONSENSUS_FRACTION of the voting lines are added to the
  required-token set, so the pattern gets longer and stricter (hit rate
  collapses).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, replace

from .hmm import (
    FitConfig,
    Hmm,
    baum_welch_fit,
    observation_sequences,
    state_usage,
    viterbi_decode,
)
from .parsing import ParsingPattern
from .preprocess import TokenSequence

# constants, not parameters: every result the tests pin is measured at them
OCCUPANCY_FLOOR = 0.1
CONSENSUS_FRACTION = 0.8
# a line is a high-confidence decode when it carries at least this share
# of the pattern's states
COVERAGE_FRACTION = 0.5


@dataclass(frozen=True)
class AdaptReport:
    """The evidence an adaptation acted on.

    loglik_trace is set by adapt_baum_welch only: the refit's
    log-likelihood per iteration.  voting_lines and consensus are set by
    adapt_viterbi only: the number of lines that voted, and each added
    token with its largest share of those lines over the states it aligned
    to, sorted by token.
    """

    loglik_trace: tuple[float, ...] = ()
    voting_lines: int = 0
    consensus: tuple[tuple[str, float], ...] = ()


def adapt_baum_welch(
    model: Hmm,
    pattern: ParsingPattern,
    new_corpus: list[TokenSequence],
    config: FitConfig = FitConfig(),
) -> tuple[Hmm, ParsingPattern, AdaptReport]:
    """Refit on the new corpus and drop starved states from the pattern.

    The adapted pattern depends only on the state_usage token counts of the
    new corpus: states used less than OCCUPANCY_FLOOR times the mean usage
    are dropped.  The required tokens become the kept states, so a token an
    earlier Viterbi adapt added is not kept; the trigger aliases lose only
    the dropped states.  A refit that would drop the trigger is refused
    with a ValueError naming it: without a truth table there is no value
    to choose another trigger by.  The Baum-Welch refit does not affect the
    pattern; it only produces the model returned here and saved into the
    bundle.  A corpus with no state-relevant observation and a dropped
    trigger are each refused before the refit runs.  Some state is then
    used, and the most-used one, at or above the mean usage, is kept.
    """
    if not new_corpus:
        raise ValueError("new_corpus must be non-empty")
    sequences = [s for s in observation_sequences(model.states, new_corpus) if s]
    if not sequences:
        raise ValueError("no state-relevant observations in new corpus")
    usage = state_usage(model.states, new_corpus)
    mean_usage = sum(usage.values()) / len(usage)
    floor = OCCUPANCY_FLOOR * mean_usage
    kept = frozenset(s for s, occ in usage.items() if occ >= floor)
    if pattern.trigger not in kept:
        raise ValueError(
            f"refit would drop the trigger {pattern.trigger!r}: it occurs {usage.get(pattern.trigger, 0)} "
            f"times, below the occupancy floor {floor:g}, and without truth values adaptation "
            "cannot choose another trigger"
        )
    starved = usage.keys() - kept
    adapted = replace(pattern, required_tokens=kept, trigger_aliases=pattern.trigger_aliases - starved)
    fitted, trace = baum_welch_fit(model, sequences, config)
    report = AdaptReport(tuple(trace))
    return fitted, adapted, report


def adapt_viterbi(
    model: Hmm,
    pattern: ParsingPattern,
    new_corpus: list[TokenSequence],
) -> tuple[Hmm, ParsingPattern, AdaptReport]:
    """Decode the new corpus and add consistently aligned tokens to the pattern.

    Only high-confidence lines vote: a line must carry at least
    COVERAGE_FRACTION of the pattern's states, otherwise unrelated lines
    that merely share a token or two would dilute every consensus.

    The voting lines' observations go to one viterbi_decode call, which
    decodes each distinct encoding once and steps each of their distinct
    prefixes once; on a drifted log most unseen values encode as <oov>, and
    the 599 voting lines of the benchmark's Viterbi workload at seed 0 hold
    204 distinct encodings of 9,166 symbols but 3,458 distinct prefixes.
    Each line still votes with its own raw tokens, never with their
    encoding.

    On the corpora the tests check (acceptance 4's drifted log and generated
    system_b logs of seeds 0-9), the adapted pattern does not depend on the
    model's probabilities: it equals a model-free anchored vote, in which a
    token joins when it follows the same state token in at least
    CONSENSUS_FRACTION of the voting lines.  The decode stays, as the
    paper's method; that test makes any divergence from the vote visible.
    """
    if not new_corpus:
        raise ValueError("new_corpus must be non-empty")
    state_set = frozenset(model.states)
    min_states = COVERAGE_FRACTION * len(state_set)
    covering = [line for line in new_corpus if len(line.token_set() & state_set) >= min_states]
    voters = [obs for obs in observation_sequences(model.states, covering) if obs]
    voting = len(voters)
    if voting == 0:
        raise ValueError("no decodable lines in new corpus")
    pair_line_counts: Counter[tuple[str, int]] = Counter()
    for obs, (path, _) in zip(voters, viterbi_decode(model, voters)):
        pair_line_counts.update(set(zip(obs, path)))
    shares: dict[str, float] = {}
    for (token, _), count in pair_line_counts.items():
        share = count / voting
        if share >= CONSENSUS_FRACTION and token not in pattern.required_tokens:
            shares[token] = max(share, shares.get(token, 0.0))
    adapted = replace(pattern, required_tokens=pattern.required_tokens | frozenset(shares))
    report = AdaptReport(voting_lines=voting, consensus=tuple(sorted(shares.items())))
    return model, adapted, report
