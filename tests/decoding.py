"""Test helper: Viterbi on one token sequence, through the decode adaptation runs."""

from driftparse.hmm import viterbi_decode


def decode_one(model, observations):
    """The (path, log-probability) of one token sequence, decoded as a group of one."""
    [result] = viterbi_decode(model, [observations])
    return result
