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

import math
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

DEFAULT_OCCUPANCY_FLOOR = 0.1
DEFAULT_CONSENSUS_FRACTION = 0.8
# a line is a high-confidence decode when it carries at least this share
# of the pattern's states
DEFAULT_COVERAGE_FRACTION = 0.5


@dataclass(frozen=True)
class AdaptReport:
    """What an adaptation changed, and the evidence it acted on.

    voting_lines and consensus are set by adapt_viterbi only: the number of
    lines that voted, and each added token with its largest share of those
    lines over the states it aligned to, sorted by token.
    """

    pattern_before: ParsingPattern
    pattern_after: ParsingPattern
    loglik_trace: tuple[float, ...] = ()
    voting_lines: int = 0
    consensus: tuple[tuple[str, float], ...] = ()


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
    are dropped.  The required tokens become the kept states, so a token an
    earlier Viterbi adapt added is not kept; the trigger aliases lose only
    the dropped states.  A refit that would drop the trigger is refused
    with a ValueError naming it: without a truth table there is no value
    to choose another trigger by.  The Baum-Welch refit does not affect the
    pattern; it only produces the model returned here and saved into the
    bundle.  A floor that is negative or not finite, no kept state and a
    dropped trigger are each refused before the refit runs.
    """
    if not new_corpus:
        raise ValueError("new_corpus must be non-empty")
    if not (math.isfinite(occupancy_floor) and occupancy_floor >= 0):
        raise ValueError("occupancy_floor must be finite and >= 0")
    sequences = [s for s in observation_sequences(model.states, new_corpus) if s]
    if not sequences:
        raise ValueError("no state-relevant observations in new corpus")
    usage = state_usage(model.states, new_corpus)
    mean_usage = sum(usage.values()) / len(usage)
    floor = occupancy_floor * mean_usage
    kept = frozenset(s for s, occ in usage.items() if occ >= floor)
    if not kept:
        raise ValueError("refit retained no state above the occupancy floor")
    if pattern.trigger not in kept:
        raise ValueError(
            f"refit would drop the trigger {pattern.trigger!r}: it occurs {usage.get(pattern.trigger, 0)} "
            f"times, below the occupancy floor {floor:g}, and without truth values adaptation "
            "cannot choose another trigger"
        )
    starved = usage.keys() - kept
    adapted = replace(pattern, required_tokens=kept, trigger_aliases=pattern.trigger_aliases - starved)
    fitted, trace = baum_welch_fit(model, sequences, config)
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

    A decoded path depends only on the line's encoding, so each voting line
    is encoded once and the distinct encodings go to one viterbi_decode
    call, which steps each of their distinct prefixes once; on a drifted
    log most unseen values encode as <oov>, and the 599 voting lines of the
    benchmark's Viterbi workload at seed 0 hold 204 distinct encodings of
    9,166 symbols but 3,458 distinct prefixes.  Each line still votes with
    its own raw tokens, never with their encoding.

    On the corpora the tests check (acceptance 4's drifted log and generated
    system_b logs of seeds 0-9), the adapted pattern does not depend on the
    model's probabilities: it equals a model-free anchored vote, in which a
    token joins when it follows the same state token in at least
    consensus_fraction of the voting lines.  The decode stays, as the
    paper's method; that test makes any divergence from the vote visible.
    """
    if not new_corpus:
        raise ValueError("new_corpus must be non-empty")
    if not 0 < consensus_fraction <= 1:
        raise ValueError("consensus_fraction must lie in (0, 1]")
    state_set = frozenset(model.states)
    min_states = DEFAULT_COVERAGE_FRACTION * len(state_set)
    sequences = observation_sequences(model.states, new_corpus)
    # each distinct encoding under its bytes, and each voting line's tokens with that key
    encodings = {}
    voters: list[tuple[list[str], bytes]] = []
    for line, obs in zip(new_corpus, sequences):
        if not obs or len(line.token_set() & state_set) < min_states:
            continue
        encoded = model.encode(obs)
        key = encoded.tobytes()
        encodings.setdefault(key, encoded)
        voters.append((obs, key))
    voting = len(voters)
    if voting == 0:
        raise ValueError("no decodable lines in new corpus")
    decoded = viterbi_decode(model, list(encodings.values()))
    paths = {key: path for key, (path, _) in zip(encodings, decoded)}
    pair_line_counts: Counter[tuple[str, int]] = Counter()
    for obs, key in voters:
        pair_line_counts.update(set(zip(obs, paths[key])))
    shares: dict[str, float] = {}
    for (token, _), count in pair_line_counts.items():
        share = count / voting
        if share >= consensus_fraction and token not in pattern.required_tokens:
            shares[token] = max(share, shares.get(token, 0.0))
    adapted = replace(pattern, required_tokens=pattern.required_tokens | frozenset(shares))
    report = AdaptReport(pattern, adapted, voting_lines=voting, consensus=tuple(sorted(shares.items())))
    return model, adapted, report
