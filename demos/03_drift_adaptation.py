"""Train on system A, parse drifted system B, then adapt both ways.

Both adaptation strategies read the drifted lines that hold the
trigger, the only lines a pattern can extract a value from.  They fail in
opposite directions, and that contrast is the point:

* Baum-Welch refitting drops the states fewer than 80% of those lines
  carry, so the pattern generalizes: hit rate recovers to 1.0 but false
  positives appear (here, "scan preview" echo events).
* Viterbi re-decoding adds tokens that align to the same state in at
  least 80% of those lines, so the pattern over-restricts: hit rate
  collapses.

Run:  python3 demos/03_drift_adaptation.py   (under 1 s on a 2-CPU machine)
"""

from driftparse.adapt import adapt_baum_welch, adapt_viterbi
from driftparse.corpus import GeneratorConfig, generate_corpus
from driftparse.evaluate import confusion, sensitivity
from driftparse.parsing import parse_corpus
from driftparse.pipeline import preprocess_corpus, train


def score(tag, pattern, corpus, truth):
    cm = confusion(parse_corpus(pattern, corpus), truth, universe_size=10 * len(corpus))
    print(f"{tag:<22} hit rate {sensitivity(cm):5.3f}   FP {cm.fp:>3}   "
          f"required tokens {len(pattern.required_tokens)}")
    return cm


def main():
    records_a, truth_a = generate_corpus(GeneratorConfig(seed=42, n_events=1000))
    records_b, truth_b = generate_corpus(
        GeneratorConfig(seed=7, n_events=1000, drift_profile="system_b")
    )
    corpus_b = preprocess_corpus(records_b)

    bundle = train(records_a, truth_a)
    print(f"trained on system A: trigger {bundle.pattern.trigger!r}, "
          f"{len(bundle.pattern.required_tokens)} required tokens\n")

    # System B renames ScanUID to StudyLOID, mAs to mA, and scans heads
    # instead of abdomens; 95% of its scan lines use the new format.
    score("unadapted on B", bundle.pattern, corpus_b, truth_b)

    _, bw_pattern, bw_report = adapt_baum_welch(bundle.hmm, bundle.pattern, corpus_b)
    dropped = bundle.pattern.required_tokens - bw_pattern.required_tokens
    score("Baum-Welch refit", bw_pattern, corpus_b, truth_b)
    print(f"  dropped states: {sorted(dropped)}")
    print(f"  log-likelihood {bw_report.loglik_trace[0]:.0f} -> "
          f"{bw_report.loglik_trace[-1]:.0f} in {len(bw_report.loglik_trace)} iterations")

    _, vit_pattern, _ = adapt_viterbi(bundle.hmm, bundle.pattern, corpus_b)
    added = vit_pattern.required_tokens - bundle.pattern.required_tokens
    score("Viterbi re-decode", vit_pattern, corpus_b, truth_b)
    print(f"  added tokens: {sorted(added)}")


if __name__ == "__main__":
    main()
