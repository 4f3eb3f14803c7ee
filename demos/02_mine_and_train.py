"""Mine a frequent-token cluster from a synthetic corpus, build the HMM,
and parse the corpus back against its own ground truth.

Run:  python3 demos/02_mine_and_train.py
"""

from driftparse.corpus import GeneratorConfig, generate_corpus
from driftparse.evaluate import confusion, format_confusion
from driftparse.mining import MiningConfig, mine_clusters
from driftparse.parsing import parse_corpus
from driftparse.pipeline import preprocess_corpus, train


def main():
    # A deterministic corpus: ~35% CT scan events carrying a planted dose
    # value, the rest service chatter (warmups, heartbeats, recon jobs).
    records, truth = generate_corpus(GeneratorConfig(seed=42, n_events=1000))
    print(f"{len(records)} events, {len(truth.rows)} ground-truth dose rows\n")

    corpus = preprocess_corpus(records)

    # Mining is position-agnostic: a token is frequent when it appears in
    # at least `threshold` lines, and lines with the same frequent-token
    # subset collapse into one cluster. The threshold defaults to the
    # number of truth rows, i.e. how many lines the pattern must cover.
    # mine_clusters returns every cluster at the threshold, best first.
    selection = mine_clusters(corpus, MiningConfig(threshold=len(truth.rows)))
    cluster = selection.clusters[0]
    print(f"top cluster: support {cluster.support}, {len(cluster.tokens)} tokens")
    print(f"  {sorted(cluster.tokens)}\n")

    # train() runs the same mining and keeps the best-supported cluster
    # that reproduces the truth: its trigger is the state token followed
    # by the event's truth value in the most lines. A cluster whose tokens
    # are never followed by a truth value is passed over. The HMM is then
    # estimated from the lines that carry the kept cluster.
    bundle = train(records, truth)
    model = bundle.hmm
    print(f"model: {len(model.states)} states, {len(model.emissions)} emission symbols")
    print(f"trigger state: {bundle.pattern.trigger!r}\n")

    parsed = parse_corpus(bundle.pattern, corpus)
    cm = confusion(parsed, truth, universe_size=10 * len(corpus))
    print("self-parse against ground truth:")
    print(format_confusion(cm))


if __name__ == "__main__":
    main()
