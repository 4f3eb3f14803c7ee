"""train's trigger rule: the state whose follower reproduces the truth values."""

import re
from dataclasses import replace

import pytest

from driftparse.evaluate import confusion
from driftparse.parsing import KpiTable
from driftparse.pipeline import TrainingError, parse_records, train
from driftparse.preprocess import EventRecord


def records(*texts):
    return [EventRecord(f"e{i}", "t", "scan", text) for i, text in enumerate(texts)]


def truth(*values, kpi="ctdi"):
    """One row per value, for events e0, e1, ... in turn; None gives its event no row."""
    return KpiTable([(f"e{i}", kpi, value) for i, value in enumerate(values) if value is not None])


class TestTrainTrigger:
    def test_picks_the_state_that_reproduces_the_truth(self):
        # both states precede a number on every line; only dlp precedes the truth value
        log = records("ctdi 1.00 dlp 2.00", "ctdi 3.00 dlp 4.00")
        assert train(log, truth("2.00", "4.00", kpi="dlp"), kpi_name="dlp").pattern.trigger == "dlp"

    def test_tie_breaks_lexicographically(self):
        assert train(records("beta 1.00 alpha 1.00"), truth("1.00")).pattern.trigger == "alpha"

    def test_counts_lines_not_occurrences(self):
        log = records("a 1.00 a 1.00 a 1.00 b 5.00", "a 7.00 b 2.00", "a 7.00 b 3.00")
        assert train(log, truth("1.00", "2.00", "3.00")).pattern.trigger == "b"

    def test_numeric_state_can_be_the_trigger(self):
        log = records("kv 120 60 16.66", "kv 130 60 3.2")
        bundle = train(log, truth("16.66", "3.2"))
        assert bundle.pattern.required_tokens == {"kv", "60.00"}
        assert bundle.pattern.trigger == "60.00"

    def test_values_compare_canonical(self):
        # the log writes 16.6 and the table 16.600: both are stored as 16.60
        assert train(records("ctdi 16.6"), truth("16.600")).pattern.trigger == "ctdi"

    def test_cluster_without_a_hit_is_passed_over(self):
        # heartbeat tops the mining with support 3 and precedes numbers, but
        # none of its events has a truth value
        log = records("heartbeat 5", "heartbeat 6", "heartbeat 7", "ctdi 1.00", "ctdi 2.00")
        bundle = train(log, truth(None, None, None, "1.00", "2.00"))
        assert bundle.pattern.trigger == "ctdi"
        assert bundle.mining_config.threshold == 2

    def test_threshold_counts_only_the_rows_of_the_kpi(self):
        log = records("ctdi 1.00 dlp 2.00", "ctdi 3.00 dlp 4.00", "ctdi 5.00 dlp 6.00")
        table = KpiTable(truth("1.00", "3.00").rows + truth("2.00", "4.00", "6.00", kpi="dlp").rows)
        assert train(log, table).mining_config.threshold == 2
        assert train(log, table, kpi_name="dlp").mining_config.threshold == 3

    def test_no_reproduced_value_raises(self):
        # the state a precedes a word and a number, never the truth value
        with pytest.raises(TrainingError) as caught:
            train(records("a word", "a 2.00"), truth("1.00", "1.00"))
        assert str(caught.value) == "no cluster with support >= 2 has a state followed by a ctdi value"

    def test_no_row_of_the_kpi_raises(self):
        with pytest.raises(TrainingError) as caught:
            train(records("dlp 1.00"), truth("1.00", kpi="dlp"))
        assert str(caught.value) == "threshold would be zero: the truth table has no ctdi rows"

    def test_trained_model_trigger_is_kpi_token(self, bundle_a):
        assert bundle_a.pattern.trigger == "ctdi"


class TestAliases:
    @pytest.mark.parametrize(
        "alias, becomes",
        [("CTDIvol", "'ctdivol'"), ("16.6", "'16.60'"), ("the", "nothing"), ("ctdi vol", "'ctdi', 'vol'")],
    )
    def test_alias_that_preprocessing_changes_is_refused_before_mining(self, alias, becomes):
        # the log alone would fail in mining: no state precedes the truth value
        with pytest.raises(TrainingError) as caught:
            train(records("a word"), truth("1.00"), aliases=[alias])
        assert str(caught.value) == f"alias {alias!r} preprocesses to {becomes}, not to itself"

    def test_alias_in_token_form_fires_where_the_trigger_does_not(self, corpus_a, bundle_a):
        # a scan line whose value moved from CTDI to CTDIvol
        log, ctdi = corpus_a
        event_id, _, value = ctdi.rows[0]
        scan = next(r for r in log if r.event_id == event_id)
        moved = re.sub(r"@CTDI@=#([^#]*)#", r"@CTDI@=#n.a.#,@CTDIvol@=#\1#", scan.text)
        drifted = [replace(scan, text=moved)]
        assert parse_records(bundle_a.pattern, drifted).rows == []
        aliased = train(log, ctdi, aliases=["ctdivol"])
        assert parse_records(aliased.pattern, drifted).rows == [(event_id, "ctdi", value)]


@pytest.fixture(scope="module")
def dlp_truth(corpus_a):
    """The planted DLP values of the ctdi truth table's events."""
    log, ctdi = corpus_a
    text = {r.event_id: r.text for r in log}
    dlp = {event_id: re.search(r"@DLP@=#([^#]*)#", text[event_id])[1] for event_id, _, _ in ctdi.rows}
    return KpiTable([(event_id, "dlp", value) for event_id, value in dlp.items()])


class TestTruthTables:
    """At gen seed 42 (1,000 events, 367 scans), each KPI trains its own trigger."""

    def assert_parses_its_kpi(self, log, table, kpi):
        bundle = train(log, table, kpi_name=kpi)
        assert bundle.pattern.trigger == kpi
        assert bundle.mining_config.threshold == 367
        expected = KpiTable([row for row in table.rows if row[1] == kpi])
        cm = confusion(parse_records(bundle.pattern, log), expected, 10 * len(log))
        assert (cm.tp, cm.fp, cm.fn) == (367, 0, 0)

    def test_dlp_table_trains_dlp(self, corpus_a, dlp_truth):
        self.assert_parses_its_kpi(corpus_a[0], dlp_truth, "dlp")

    @pytest.mark.parametrize("kpi", ["ctdi", "dlp"])
    def test_combined_table_trains_each_kpi(self, corpus_a, dlp_truth, kpi):
        log, ctdi = corpus_a
        self.assert_parses_its_kpi(log, KpiTable(ctdi.rows + dlp_truth.rows), kpi)
