import pytest
from hypothesis import given, settings, strategies as st

from driftparse.corpus import DRIFT_SYSTEM_B, GeneratorConfig, generate_corpus, load_kpi_table
from driftparse.evaluate import (
    ConfusionMatrix,
    accuracy,
    confusion,
    format_confusion,
    sensitivity,
    stratified_split,
)
from driftparse.parsing import KpiTable
from driftparse.pipeline import parse_records, train
from driftparse.preprocess import EventRecord


def table(*rows):
    return KpiTable([(eid, "ctdi", value) for eid, value in rows])


class TestConfusion:
    def test_perfect_parse(self):
        cm = confusion(table(("e1", "1.00")), table(("e1", "1.00")), 10)
        assert (cm.tp, cm.fp, cm.fn, cm.tn) == (1, 0, 0, 9)

    def test_spurious_row_is_fp(self):
        cm = confusion(table(("e1", "1.00")), table(), 10)
        assert (cm.tp, cm.fp, cm.fn, cm.tn) == (0, 1, 0, 9)

    def test_missed_row_is_fn(self):
        cm = confusion(table(), table(("e1", "1.00")), 10)
        assert (cm.tp, cm.fp, cm.fn, cm.tn) == (0, 0, 1, 9)

    def test_value_mismatch_is_fp_plus_fn(self):
        cm = confusion(table(("e1", "1.00")), table(("e1", "2.00")), 10)
        assert (cm.tp, cm.fp, cm.fn, cm.tn) == (0, 1, 1, 8)

    def test_rounded_tolerance(self):
        cm = confusion(table(("e1", "1.004")), table(("e1", "1.00")), 10)
        assert cm.tp == 1

    def test_universe_too_small_rejected(self):
        with pytest.raises(ValueError, match="universe"):
            confusion(table(("e1", "1.00")), table(("e2", "2.00")), 1)

    @given(
        st.dictionaries(st.integers(0, 20), st.sampled_from(["1.00", "2.00"]), max_size=10),
        st.dictionaries(st.integers(0, 20), st.sampled_from(["1.00", "2.00"]), max_size=10),
    )
    @settings(max_examples=100, deadline=None)
    def test_counts_partition_the_universe(self, parsed_raw, truth_raw):
        parsed = table(*((f"e{k}", v) for k, v in parsed_raw.items()))
        truth = table(*((f"e{k}", v) for k, v in truth_raw.items()))
        cm = confusion(parsed, truth, 100)
        assert cm.total == 100
        # a hit is a (key, value) pair the two tables share
        assert cm.tp == len(parsed_raw.items() & truth_raw.items())
        assert cm.tp + cm.fp == len(parsed.rows)
        assert cm.tp + cm.fn >= len(truth.rows) - len(parsed.rows)
        # every truth row is either hit or missed
        assert cm.tp + cm.fn == len(truth.rows)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_in_memory_equals_csv_round_trip(self, seed, tmp_path):
        # a clean-trained pattern on a drifted log gives hits and misses, and
        # false alarms at seeds 1 and 2
        pattern = train(*generate_corpus(GeneratorConfig(seed=seed, n_events=300))).pattern
        records, truth = generate_corpus(GeneratorConfig(seed=seed + 1000, n_events=300, drift_profile=DRIFT_SYSTEM_B))
        parsed = parse_records(pattern, records)
        parsed.write_csv(tmp_path / "parsed.csv")
        truth.write_csv(tmp_path / "truth.csv")
        loaded = confusion(load_kpi_table(tmp_path / "parsed.csv"), load_kpi_table(tmp_path / "truth.csv"), len(records))
        assert confusion(parsed, truth, len(records)) == loaded


class TestMetrics:
    def test_accuracy(self):
        assert accuracy(ConfusionMatrix(3293, 0, 2972, 856393)) == pytest.approx(0.99655, abs=5e-5)

    def test_sensitivity(self):
        assert sensitivity(ConfusionMatrix(3293, 0, 2972, 856393)) == pytest.approx(0.5256, abs=5e-4)

    def test_sensitivity_undefined_without_positives(self):
        with pytest.raises(ValueError):
            sensitivity(ConfusionMatrix(0, 5, 0, 5))

    def test_accuracy_undefined_on_empty(self):
        with pytest.raises(ValueError):
            accuracy(ConfusionMatrix(0, 0, 0, 0))

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            ConfusionMatrix(-1, 0, 0, 0)

    def test_format_mentions_both_metrics(self):
        text = format_confusion(ConfusionMatrix(90, 5, 10, 895))
        assert "90.0%" in text  # sensitivity
        assert "98.5%" in text  # accuracy
        assert "90" in text and "895" in text


def records(n):
    return [EventRecord(f"e{i}", "t", "x", "text") for i in range(n)]


class TestStratifiedSplit:
    def split(self, seed=0, fraction=0.5):
        corpus = records(10)
        truth = table(*((f"e{i}", "1.00") for i in range(4)))
        return stratified_split(corpus, truth, fraction, seed), corpus, truth

    def test_partition(self):
        ((train_e, train_t), (test_e, test_t)), corpus, truth = self.split()
        assert sorted(e.event_id for e in train_e + test_e) == sorted(e.event_id for e in corpus)
        assert sorted(train_t.rows + test_t.rows) == sorted(truth.rows)

    def test_stratum_proportions(self):
        ((train_e, train_t), _), _, _ = self.split()
        assert len(train_t.rows) == 2  # half the 4 positives
        assert len(train_e) == 5  # half of each stratum

    def test_truth_follows_events(self):
        ((train_e, train_t), (test_e, test_t)), _, _ = self.split()
        train_ids = {e.event_id for e in train_e}
        assert all(r[0] in train_ids for r in train_t.rows)
        assert not any(r[0] in train_ids for r in test_t.rows)

    def test_deterministic_per_seed(self):
        (a, _), _, _ = self.split(seed=3)
        (b, _), _, _ = self.split(seed=3)
        assert [e.event_id for e in a[0]] == [e.event_id for e in b[0]]

    def test_empty_stratum_rejected(self):
        corpus = records(4)
        truth = table(*((f"e{i}", "1.00") for i in range(4)))
        with pytest.raises(ValueError):
            stratified_split(corpus, truth, 0.5, 0)

    def test_bad_fraction_rejected(self):
        _, corpus, truth = self.split()
        with pytest.raises(ValueError):
            stratified_split(corpus, truth, 1.0, 0)
