"""Acceptance suite: one criterion per test, one printed PASS/FAIL line each.

Each test writes its verdict straight to the real stdout so the summary
survives pytest's output capture, then asserts, so a failed criterion is
both visible in the printed report and red in the test run.
"""

import itertools
import random
import sys

import numpy as np
import pytest

from driftparse.adapt import adapt_baum_welch, adapt_viterbi
from driftparse.bundle import (
    bundle_to_document,
    document_to_bundle,
    load_bundle,
    save_bundle,
)
from driftparse.corpus import DRIFT_SYSTEM_B, GeneratorConfig, file_digest, generate_corpus, load_log, write_log
from driftparse.evaluate import (
    ConfusionMatrix,
    accuracy,
    confusion,
    sensitivity,
    stratified_split,
)
from driftparse.hmm import (
    OOV_TOKEN,
    FitConfig,
    Hmm,
    baum_welch_fit,
    sequence_loglikelihood,
)
from driftparse.mining import MiningConfig, build_cluster_candidates, count_token_frequencies, find_frequent_tokens, mine_clusters
from driftparse.parsing import parse_corpus
from driftparse.pipeline import parse_records, preprocess_corpus, train
from driftparse.preprocess import EventRecord, is_canonical_number, is_number, preprocess_event

from .decoding import decode_one
from .drift_kinds import DRIFT_KINDS, drift_scan_lines
from .golden_event import RAW_EVENT


VERDICTS: list[str] = []

# (TP, FP, FN) of the unadapted, refit and Viterbi patterns, per training seed
SYSTEM_B_COUNTS = {
    0: ((20, 5, 306), (326, 52, 0), (0, 0, 326)),
    1: ((18, 2, 329), (347, 51, 0), (0, 0, 347)),
    2: ((23, 4, 347), (370, 47, 0), (0, 0, 370)),
}

# the only reference matrix with FN 0, as the refit has
REFERENCE_MATRIX_3 = ConfusionMatrix(673, 3355, 0, 575558)

# (hit rate, FP) of the unadapted, refit and Viterbi patterns per kind of
# drift, the same on training seeds 0-2; None: the strategy is refused, as
# no line holds the trigger (the refit would drop it, and Viterbi has no
# line to vote)
DRIFT_KIND_SCORES = {
    "none": ((1.0, 0), (1.0, 0), (1.0, 0)),
    "fields shuffled": ((1.0, 0), (1.0, 0), (1.0, 0)),
    "field inserted": ((1.0, 0), (1.0, 0), (1.0, 0)),
    "constant value": ((0.0, 0), (1.0, 0), (0.0, 0)),
    "non-KPI key renamed": ((0.0, 0), (1.0, 0), (0.0, 0)),
    "KPI key renamed": ((0.0, 0), None, None),
}


def report(criterion: str, ok: bool, detail: str = "") -> None:
    verdict = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    line = f"ACCEPTANCE {criterion}: {verdict}{suffix}"
    VERDICTS.append(line)
    print(line, file=sys.__stdout__, flush=True)


def checked(criterion: str, ok: bool, detail: str = "") -> None:
    report(criterion, ok, detail)
    assert ok, f"criterion {criterion} failed: {detail}"


def random_hmm(rng: random.Random, n: int, m: int) -> Hmm:
    def row(k):
        raw = [rng.uniform(0.05, 1.0) for _ in range(k)]
        total = sum(raw)
        return np.array([x / total for x in raw])

    return Hmm(
        tuple(f"s{i}" for i in range(n)),
        tuple(f"e{k}" for k in range(m)) + (OOV_TOKEN,),
        row(n),
        np.stack([row(n) for _ in range(n)]),
        np.stack([row(m + 1) for _ in range(n)]),
    )


def exhaustive_path_probs(model: Hmm, obs: list[str]) -> np.ndarray:
    """Joint probability of every state path, by full enumeration."""
    enc = model.encode(obs)
    n = len(model.states)
    paths = np.array(list(itertools.product(range(n), repeat=len(enc))))
    p = model.ps[paths[:, 0]] * model.pe[paths[:, 0], enc[0]]
    for t in range(1, len(enc)):
        p = p * model.pt[paths[:, t - 1], paths[:, t]] * model.pe[paths[:, t], enc[t]]
    return p


class TestAcceptance:
    def test_1_metric_replay(self):
        """Reference confusion matrices must reproduce their quoted rates."""
        cases = [
            ("1", ConfusionMatrix(3293, 0, 2972, 856393), 99.7, 52.6),
            ("2", ConfusionMatrix(2113, 814, 673, 570663), 99.7, 75.8),
            ("3", REFERENCE_MATRIX_3, 99.4, 100.0),
            # The source quotes 99.8 for matrix 4, but its own counts give
            # (0 + 578290) / 585104 = 98.835%, the definition matrices 1-3 use.
            ("4", ConfusionMatrix(0, 4028, 2786, 578290), 98.8, 0.0),  # source: 99.8
        ]
        failures = []
        for name, cm, want_acc, want_sens in cases:
            got_acc = accuracy(cm) * 100
            got_sens = sensitivity(cm) * 100
            if abs(got_acc - want_acc) > 0.05:
                failures.append(f"table {name} accuracy {got_acc:.2f}% != {want_acc}%")
            if abs(got_sens - want_sens) > 0.05:
                failures.append(f"table {name} sensitivity {got_sens:.2f}% != {want_sens}%")
        checked("1 metric replay", not failures, "; ".join(failures) or "4 matrices replayed")

    def test_2_golden_preprocessing(self):
        event = EventRecord("e1", "2018-12-01T00:00:00", "scan", RAW_EVENT)
        tokens = list(preprocess_event(event).tokens)
        needle = ["ctdi", "16.66", "dlp", "59.98"]
        in_order = any(
            tokens[i : i + len(needle)] == needle for i in range(len(tokens))
        )
        canonical = all(is_canonical_number(t) for t in tokens if is_number(t))
        checked(
            "2 golden preprocessing",
            in_order and canonical,
            f"{len(tokens)} tokens, KPI subsequence in order, numerics canonical",
        )

    def test_3_end_to_end_no_drift(self, bundle_a, lines_a, corpus_a):
        _, truth = corpus_a
        parsed = parse_corpus(bundle_a.pattern, lines_a)
        cm = confusion(parsed, truth, universe_size=10 * len(lines_a))
        ok = sensitivity(cm) == 1.0 and cm.fp == 0
        checked("3 end-to-end no drift", ok, f"hit rate {sensitivity(cm):.3f}, FP {cm.fp}")

    def test_4_drift_contrast(self, bundle_a, lines_b, corpus_b):
        _, truth = corpus_b
        universe = 10 * len(lines_b)

        def score(pattern):
            cm = confusion(parse_corpus(pattern, lines_b), truth, universe)
            return sensitivity(cm), cm.fp

        base_hits, base_fp = score(bundle_a.pattern)
        _, bw_pattern, _ = adapt_baum_welch(bundle_a.hmm, bundle_a.pattern, lines_b)
        bw_hits, bw_fp = score(bw_pattern)
        _, vit_pattern, _ = adapt_viterbi(bundle_a.hmm, bundle_a.pattern, lines_b)
        vit_hits, _ = score(vit_pattern)

        ok = (
            0.0 < base_hits < 1.0
            and bw_hits == 1.0
            and bw_fp > base_fp
            and vit_hits <= 0.5 * base_hits
        )
        checked(
            "4 drift contrast",
            ok,
            f"hit rate unadapted {base_hits:.3f} / refit {bw_hits:.3f} / "
            f"re-decode {vit_hits:.3f}; FP {base_fp} -> {bw_fp}",
        )

    def test_5_hmm_oracle_suite(self):
        rng = random.Random(1234)
        worst_fwd = worst_vit = 0.0
        for _ in range(200):
            n = rng.randint(2, 4)
            m = rng.randint(2, 4)
            model = random_hmm(rng, n, m)
            obs = [f"e{rng.randrange(m)}" for _ in range(rng.randint(1, 8))]
            probs = exhaustive_path_probs(model, obs)
            worst_fwd = max(
                worst_fwd,
                abs(sequence_loglikelihood(model, obs) - np.log(probs.sum())),
            )
            _, best = decode_one(model, obs)
            worst_vit = max(worst_vit, abs(best - np.log(probs.max())))
        ok = worst_fwd <= 1e-10 and worst_vit <= 1e-10
        checked(
            "5 hmm oracle suite",
            ok,
            f"200 models, max forward error {worst_fwd:.2e}, max viterbi error {worst_vit:.2e}",
        )

    def test_6_baum_welch_monotonicity(self):
        rng = random.Random(99)
        worst_drop = 0.0
        for _ in range(50):
            n = rng.randint(2, 4)
            m = rng.randint(2, 4)
            model = random_hmm(rng, n, m)
            seqs = [
                [f"e{rng.randrange(m)}" for _ in range(rng.randint(1, 8))]
                for _ in range(rng.randint(1, 6))
            ]
            _, trace = baum_welch_fit(
                model, seqs, FitConfig(max_iterations=10, loglik_tolerance=1e-12)
            )
            for a, b in zip(trace, trace[1:]):
                worst_drop = max(worst_drop, a - b)
        checked(
            "6 baum-welch monotonicity",
            worst_drop <= 1e-9,
            f"50 fits, worst log-likelihood drop {worst_drop:.2e}",
        )

    def test_7_miner_properties(self):
        from driftparse.preprocess import TokenSequence

        rng = random.Random(7)
        vocabulary = [f"t{i}" for i in range(8)]
        for case in range(100):
            corpus = [
                TokenSequence(
                    f"e{i}",
                    tuple(rng.choice(vocabulary) for _ in range(rng.randint(0, 8))),
                )
                for i in range(rng.randint(0, 15))
            ]
            threshold = rng.randint(1, 5)

            shuffled = []
            for line in corpus:
                toks = list(line.tokens)
                rng.shuffle(toks)
                shuffled.append(TokenSequence(line.event_id, tuple(toks)))
            config = MiningConfig(threshold=threshold)
            a = mine_clusters(corpus, config)
            b = mine_clusters(shuffled, config)
            assert {(c.tokens, c.support) for c in a.clusters} == {
                (c.tokens, c.support) for c in b.clusters
            }

            frequent = find_frequent_tokens(count_token_frequencies(corpus), threshold)
            for cluster in build_cluster_candidates(corpus, frequent):
                recount = sum(
                    1 for line in corpus if (line.token_set() & frequent) == cluster.tokens
                )
                assert cluster.support == recount

            freqs = count_token_frequencies(corpus)
            frequent_high = find_frequent_tokens(freqs, threshold + 1)
            assert frequent_high <= frequent
            lower_sets = {c.tokens for c in build_cluster_candidates(corpus, frequent)}
            for cluster in build_cluster_candidates(corpus, frequent_high):
                assert any(cluster.tokens <= s for s in lower_sets)
        checked("7 miner properties", True, "100 cases x 3 properties")

    def test_8_overfitting_reproduction(self):
        # "off" is planted in 90% of KPI lines (and never in the others),
        # so a support threshold below that count mines it into the
        # cluster; the pattern then misses every "on" line
        records, truth = generate_corpus(
            GeneratorConfig(
                seed=11,
                n_events=1200,
                noise_profile={"care_off": 0.9, "aec_off": 0.0, "cbc_off": 0.0},
            )
        )
        (train_e, train_t), (test_e, test_t) = stratified_split(records, truth, 0.7, seed=5)
        bundle = train(train_e, train_t, threshold=int(0.85 * len(train_t.rows)))
        parsed = parse_records(bundle.pattern, test_e)
        cm = confusion(parsed, test_t, universe_size=10 * len(test_e))
        precision = cm.tp / (cm.tp + cm.fp)
        hits = sensitivity(cm)
        ok = "off" in bundle.pattern.required_tokens and hits < 0.97 and precision == 1.0
        checked(
            "8 overfitting reproduction",
            ok,
            f"'off' mined: {'off' in bundle.pattern.required_tokens}, "
            f"sensitivity {hits:.3f}, precision {precision:.3f}",
        )

    def test_9_determinism_and_round_trips(self, tmp_path, bundle_a):
        problems = []

        path_a, path_b = tmp_path / "m1.json", tmp_path / "m2.json"
        save_bundle(bundle_a, path_a)
        restored = load_bundle(path_a)
        if not (
            restored.pattern == bundle_a.pattern
            and np.array_equal(restored.hmm.pe, bundle_a.hmm.pe)
            and np.array_equal(restored.hmm.pt, bundle_a.hmm.pt)
            and np.array_equal(restored.hmm.ps, bundle_a.hmm.ps)
        ):
            problems.append("bundle save/load not structurally identical")
        save_bundle(restored, path_b)
        if path_a.read_bytes() != path_b.read_bytes():
            problems.append("re-save not byte-identical")

        gen1 = generate_corpus(GeneratorConfig(seed=21, n_events=100))
        gen2 = generate_corpus(GeneratorConfig(seed=21, n_events=100))
        if gen1[0] != gen2[0] or gen1[1].rows != gen2[1].rows:
            problems.append("generator not deterministic under fixed seed")

        log_path = tmp_path / "log.tsv"
        write_log(gen1[0], log_path)
        loaded = load_log(log_path)
        if loaded.rejects or loaded.records != gen1[0]:
            problems.append("log write/load round trip lost data")
        log2 = tmp_path / "log2.tsv"
        write_log(gen2[0], log2)
        if file_digest(log_path) != file_digest(log2):
            problems.append("log files not byte-identical under fixed seed")

        checked("9 determinism and round trips", not problems, "; ".join(problems) or "all round trips exact")

    def test_10_paper_metric_on_system_b(self):
        # the paper's setting: train on one system, parse a drifted one, score
        # accuracy and sensitivity with one slot per event of the drifted log
        problems, details = [], []
        for seed, expected in SYSTEM_B_COUNTS.items():
            records, truth = generate_corpus(GeneratorConfig(seed=seed, n_events=1500))
            bundle = train(records, truth)
            drifted, drifted_truth = generate_corpus(
                GeneratorConfig(seed=seed + 1000, n_events=1000, drift_profile=DRIFT_SYSTEM_B)
            )
            lines = preprocess_corpus(drifted)
            kinds = {r.event_id: r.event_type for r in drifted}
            truth_map = drifted_truth.as_dict()
            patterns = (
                bundle.pattern,
                adapt_baum_welch(bundle.hmm, bundle.pattern, lines)[1],
                adapt_viterbi(bundle.hmm, bundle.pattern, lines)[1],
            )
            scores = []
            for name, pattern, want in zip(("unadapted", "refit", "Viterbi"), patterns, expected):
                parsed = parse_corpus(pattern, lines)
                cm = confusion(parsed, drifted_truth, universe_size=len(drifted))
                got = (cm.tp, cm.fp, cm.fn)
                scores.append(f"{name} {cm.tp}/{cm.fp}/{cm.fn} {accuracy(cm):.1%} {sensitivity(cm):.1%}")
                if got != want:
                    problems.append(f"seed {seed} {name} TP/FP/FN {got} != {want}")
                false_kinds = {kinds[event_id] for (event_id, kpi), value in parsed.as_dict().items()
                               if truth_map.get((event_id, kpi)) != value}
                if false_kinds - {"scan_preview"}:
                    problems.append(f"seed {seed} {name}: false positives on {sorted(false_kinds)} events")
            details.append(f"seed {seed}: " + ", ".join(scores))
        ref = REFERENCE_MATRIX_3
        details.append(
            f"reference matrix 3: {accuracy(ref):.1%} accuracy, FP on {ref.fp / ref.total:.2%} of slots, FN {ref.fn}"
        )
        checked("10 paper metric on system_b", not problems, "; ".join(problems or details))

    def test_11_drift_kinds(self):
        # one kind of drift at a time, in the scan lines of a clean log
        assert DRIFT_KIND_SCORES.keys() == DRIFT_KINDS.keys()
        problems, seen = [], {kind: set() for kind in DRIFT_KINDS}
        for seed in range(3):
            bundle = train(*generate_corpus(GeneratorConfig(seed=seed, n_events=600)))
            records, truth = generate_corpus(GeneratorConfig(seed=seed + 1000, n_events=400))
            for kind, expected in DRIFT_KIND_SCORES.items():
                lines = preprocess_corpus(drift_scan_lines(records, kind, seed))

                def score(pattern):
                    if pattern is None:
                        return None
                    cm = confusion(parse_corpus(pattern, lines), truth, universe_size=10 * len(lines))
                    return sensitivity(cm), cm.fp

                try:
                    # one iteration: the refit's model does not change its pattern
                    refit = adapt_baum_welch(bundle.hmm, bundle.pattern, lines, FitConfig(max_iterations=1))[1]
                except ValueError as exc:
                    if not str(exc).startswith(f"refit would drop the trigger {bundle.pattern.trigger!r}"):
                        raise
                    refit = None
                try:
                    decoded = adapt_viterbi(bundle.hmm, bundle.pattern, lines)[1]
                except ValueError as exc:
                    if str(exc) != "no decodable lines in new corpus":
                        raise
                    decoded = None
                got = tuple(map(score, (bundle.pattern, refit, decoded)))
                seen[kind].add(" · ".join("refused" if g is None else f"{g[0]:.2f}/{g[1]}" for g in got))
                if got != expected:
                    problems.append(f"seed {seed} {kind}: {got} != {expected}")
        details = "hit rate/FP unadapted · refit · Viterbi; " + "; ".join(
            f"{kind}: {' | '.join(sorted(scores))}" for kind, scores in seen.items()
        )
        checked("11 drift kinds", not problems, "; ".join(problems) or details)
