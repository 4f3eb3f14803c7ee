"""Model adaptation to drifted corpora.

Two strategies with opposite failure modes, both deliberately preserved.
Both read the same lines of the new corpus, its trigger lines, which
parsing.trigger_lines defines for parse and adaptation alike.

* Baum-Welch refit generalizes.  The model is re-estimated on the new
  corpus and states that fewer than CONSENSUS_FRACTION of the trigger
  lines carry are dropped from the required-token set, so the pattern
  gets shorter and more permissive (hit rate rises, false positives
  appear).

* Viterbi re-decoding restricts.  Each trigger line is decoded against
  the trained model and observation tokens that align to the same state
  in at least CONSENSUS_FRACTION of the voting lines are added to the
  required-token set, so the pattern gets longer and stricter (hit rate
  collapses).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, replace
from itertools import chain

from .hmm import FitConfig, Hmm, baum_welch_fit, observation_sequences, viterbi_decode
from .parsing import ParsingPattern, trigger_lines
from .preprocess import TokenSequence

# a constant, not a parameter: every result the tests pin is measured at it
CONSENSUS_FRACTION = 0.8


@dataclass(frozen=True)
class AdaptReport:
    """The evidence an adaptation acted on.

    loglik_trace is set by adapt_baum_welch only: the refit's
    log-likelihood per iteration.  voting_lines, distinct_decodes and
    consensus are set by adapt_viterbi only: the number of lines that
    voted, the number of distinct encodings among them (each decoded once),
    and each added token with its largest share of those lines over the
    states it aligned to, sorted by token.
    """

    loglik_trace: tuple[float, ...] = ()
    voting_lines: int = 0
    distinct_decodes: int = 0
    consensus: tuple[tuple[str, float], ...] = ()


def adapt_baum_welch(
    model: Hmm,
    pattern: ParsingPattern,
    new_corpus: list[TokenSequence],
    config: FitConfig = FitConfig(),
) -> tuple[Hmm, ParsingPattern, AdaptReport]:
    """Refit on the new corpus and drop the states its trigger lines lack.

    The adapted pattern depends only on which states the trigger lines of
    the new corpus carry: a state in fewer than CONSENSUS_FRACTION of them
    is dropped.  The trigger is in every such line, so it is always kept.
    The required tokens become the kept states, so a token an earlier
    Viterbi adapt added is not kept; the trigger aliases lose only the
    dropped states.  A corpus in which no line holds the trigger is
    refused with a ValueError naming it: the refit would drop it, and
    without a truth table there is no value to choose another trigger by.
    So is a corpus with no state-relevant observation, an empty one
    included, both before the refit runs.  The Baum-Welch refit does not
    affect the pattern; it fits every line's observations and only
    produces the model returned here and saved into the bundle.
    """
    sequences = [s for s in observation_sequences(model.states, new_corpus) if s]
    if not sequences:
        raise ValueError("no state-relevant observations in new corpus")
    lines = trigger_lines(pattern, new_corpus)
    if not lines:
        raise ValueError(
            f"refit would drop the trigger {pattern.trigger!r}: it occurs 0 times, "
            "and without truth values adaptation cannot choose another trigger"
        )
    state_set = frozenset(model.states)
    line_counts = Counter(chain.from_iterable(state_set.intersection(line.tokens) for line in lines))
    kept = frozenset(s for s in state_set if line_counts[s] / len(lines) >= CONSENSUS_FRACTION)
    starved = state_set - kept
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

    Only the trigger lines with some observation vote: unrelated lines
    that merely share a token or two would dilute every consensus.  A
    corpus with no voting line, an empty one included, is refused.

    The voting lines' observations go to one viterbi_decode call, which
    decodes each distinct encoding once, and in each group of encodings
    steps each distinct prefix once; on a drifted log most unseen values
    encode as <oov>, and the 599 voting lines of the benchmark's Viterbi
    workload at seed 0 hold 204 distinct encodings of 9,166 symbols but
    3,458 distinct prefixes, which their one group steps once each.  The
    lines that encode alike share one result object, so the report counts
    the distinct decodes off the results.  Each line still votes with its
    own raw tokens, never with their encoding.

    On the corpora the tests check (acceptance 4's drifted log and generated
    system_b logs of seeds 0-9), the adapted pattern does not depend on the
    model's probabilities: it equals a model-free anchored vote, in which a
    token joins when it follows the same state token in at least
    CONSENSUS_FRACTION of the voting lines.  The decode stays, as the
    paper's method; that test makes any divergence from the vote visible.
    """
    voters = [obs for obs in observation_sequences(model.states, trigger_lines(pattern, new_corpus)) if obs]
    voting = len(voters)
    if voting == 0:
        raise ValueError("no decodable lines in new corpus")
    decoded = viterbi_decode(model, voters)
    pair_line_counts: Counter[tuple[str, int]] = Counter()
    for obs, (path, _) in zip(voters, decoded):
        pair_line_counts.update(set(zip(obs, path)))
    shares: dict[str, float] = {}
    for (token, _), count in pair_line_counts.items():
        share = count / voting
        if share >= CONSENSUS_FRACTION and token not in pattern.required_tokens:
            shares[token] = max(share, shares.get(token, 0.0))
    adapted = replace(pattern, required_tokens=pattern.required_tokens | frozenset(shares))
    report = AdaptReport(
        voting_lines=voting,
        distinct_decodes=len(set(map(id, decoded))),
        consensus=tuple(sorted(shares.items())),
    )
    return model, adapted, report
