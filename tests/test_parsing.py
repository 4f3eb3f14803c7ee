import re
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from driftparse.parsing import (
    KpiTable,
    ParsingPattern,
    missing_tokens,
    parse_corpus,
    parse_event,
)
from driftparse import pipeline
from driftparse.adapt import adapt_baum_welch
from driftparse.corpus import GeneratorConfig, generate_corpus
from driftparse.pipeline import parse_records, preprocess_corpus, train
from driftparse.preprocess import EventRecord, TokenSequence


def line(*tokens, event_id="e1"):
    return TokenSequence(event_id, tuple(tokens))


def pattern(required, trigger="ctdi", aliases=None):
    return ParsingPattern(frozenset(required), trigger, "ctdi", frozenset(aliases or {trigger}))


class TestPattern:
    def test_trigger_must_be_required(self):
        with pytest.raises(ValueError):
            pattern({"kv"}, trigger="ctdi")

    def test_aliases_required(self):
        with pytest.raises(ValueError):
            ParsingPattern(frozenset({"ctdi"}), "ctdi", "ctdi", frozenset())

    def test_aliases_must_hold_the_trigger(self):
        with pytest.raises(ValueError, match="trigger must be one of the trigger aliases"):
            ParsingPattern(frozenset({"ctdi"}), "ctdi", "ctdi", frozenset({"dlp"}))

    def test_train_adds_the_trigger_to_the_aliases(self, corpus_a):
        records, truth = corpus_a
        bundle = train(records, truth, aliases=["ctdivol"])
        p = bundle.pattern
        assert p.trigger == "ctdi"
        assert p.trigger_aliases == frozenset({"ctdi", "ctdivol"})
        assert p.required_tokens == frozenset(bundle.hmm.states)


class TestParseEvent:
    def test_basic_extraction(self):
        p = pattern({"ctdi", "kv"})
        assert parse_event(p, line("kv", "120.00", "ctdi", "16.66")) == "16.66"

    def test_missing_required_token_no_match(self):
        p = pattern({"ctdi", "kv"})
        assert parse_event(p, line("ctdi", "16.66")) is None

    def test_trigger_without_numeric_follower_no_match(self):
        p = pattern({"ctdi"})
        assert parse_event(p, line("ctdi", "off")) is None
        assert parse_event(p, line("kv", "ctdi")) is None

    def test_first_trigger_occurrence_wins(self):
        p = pattern({"ctdi"})
        assert parse_event(p, line("ctdi", "1.00", "ctdi", "2.00")) == "1.00"

    def test_value_normalized(self):
        p = pattern({"ctdi"})
        assert parse_corpus(p, [line("ctdi", "16.660")]).rows == [("e1", "ctdi", "16.66")]

    def test_alias_can_extract(self):
        # distinct dose spellings survive stemming as distinct tokens, so
        # aliases are how one pattern covers both
        p = pattern({"ctdi"}, aliases=("ctdi", "ctdivol"))
        assert parse_event(p, line("ctdi", "word", "ctdivol", "3.14")) == "3.14"

    def test_extra_tokens_do_not_block(self):
        p = pattern({"ctdi"})
        assert parse_event(p, line("noise", "ctdi", "2.00", "more")) == "2.00"

    @given(
        st.sets(st.text(alphabet="abcdef", min_size=1, max_size=3), min_size=1, max_size=4),
        st.lists(st.text(alphabet="abcxyz", min_size=1, max_size=3), min_size=0, max_size=8),
    )
    @settings(max_examples=100, deadline=None)
    def test_monotone_restrictiveness(self, extra, tokens):
        """Adding required tokens can only turn matches into non-matches."""
        base = pattern({"ctdi"})
        widened = pattern({"ctdi"} | extra)
        probe = line(*tokens, "ctdi", "1.00")
        if parse_event(widened, probe) is not None:
            assert parse_event(base, probe) is not None


class TestParseCorpus:
    def test_rows_in_corpus_order(self):
        p = pattern({"ctdi"})
        corpus = [
            line("ctdi", "1.00", event_id="a"),
            line("other", event_id="b"),
            line("ctdi", "2.00", event_id="c"),
        ]
        table = parse_corpus(p, corpus)
        assert table.rows == [("a", "ctdi", "1.00"), ("c", "ctdi", "2.00")]

    def test_repeated_event_id_is_refused(self, bundle_a, corpus_a):
        records, _ = corpus_a
        with pytest.raises(ValueError, match="duplicate KPI row"):
            parse_records(bundle_a.pattern, records + records[:50])

    def test_trained_pattern_recovers_all_truth(self, bundle_a, lines_a, corpus_a):
        _, truth = corpus_a
        parsed = parse_corpus(bundle_a.pattern, lines_a)
        assert parsed.as_dict() == truth.as_dict()


def unfiltered(pattern, records):
    return parse_corpus(pattern, preprocess_corpus(records))


# the slot number is the trigger: its token "7.00" is not in the text "7"
SLOT_RECORDS = [
    EventRecord(f"slot{i}", "t", "x", f"&Dose slot&,@Slot {i % 9}@=#{i}.6#,@CTDI@=#1#") for i in range(40)
]
SLOT_PATTERN = ParsingPattern(frozenset({"dos", "slot", "7.00"}), "7.00", "slot7", frozenset({"7.00"}))


class TestParseRecords:
    """parse_records preprocesses only the lines that may yield the trigger; its table must not change."""

    @pytest.mark.parametrize("seed", [0, 3])
    @pytest.mark.parametrize("drift", ["none", "system_b"])
    def test_equals_the_unfiltered_parse_on_gen_logs(self, bundle_a, seed, drift):
        records, _ = generate_corpus(GeneratorConfig(seed=seed, n_events=400, drift_profile=drift))
        assert parse_records(bundle_a.pattern, records).rows == unfiltered(bundle_a.pattern, records).rows

    def test_equals_the_unfiltered_parse_on_the_drifted_log(self, bundle_a, lines_b, corpus_b):
        # acceptance 4's drifted log, with the trained and the refit pattern
        records, _ = corpus_b
        _, refit, _ = adapt_baum_welch(bundle_a.hmm, bundle_a.pattern, lines_b)
        for p in (bundle_a.pattern, refit):
            expected = unfiltered(p, records)
            assert expected.rows
            assert parse_records(p, records).rows == expected.rows

    def test_numeric_trigger_parses_every_line(self, corpus_a):
        records = corpus_a[0][:200] + SLOT_RECORDS
        expected = unfiltered(SLOT_PATTERN, records)
        assert [row[2] for row in expected.rows] == ["7.60", "16.60", "25.60", "34.60"]
        assert parse_records(SLOT_PATTERN, records).rows == expected.rows

    def test_trigger_alias_besides_the_trigger(self, bundle_a, corpus_b):
        # kv comes before ctdi in a scan line, so the alias extracts the kV value
        p = ParsingPattern(bundle_a.pattern.required_tokens, "ctdi", "ctdi", frozenset({"ctdi", "kv"}))
        records, _ = corpus_b
        expected = unfiltered(p, records)
        assert expected.rows and expected.rows != unfiltered(bundle_a.pattern, records).rows
        assert parse_records(p, records).rows == expected.rows

    def test_lines_without_the_trigger_are_not_preprocessed(self, bundle_a, corpus_a, monkeypatch):
        seen, real = [], pipeline.preprocess_event

        def spy(event):
            seen.append(event)
            return real(event)

        monkeypatch.setattr(pipeline, "preprocess_event", spy)
        records, truth = corpus_a
        table = parse_records(bundle_a.pattern, records)
        assert table.as_dict() == truth.as_dict()
        assert all("ctdi" in event.text.lower() for event in seen)
        assert len(seen) == sum("ctdi" in r.text.lower() for r in records) < len(records)


class TestMissingTokens:
    def test_counts_what_each_unmatched_trigger_line_lacks(self):
        p = pattern({"ctdi", "kv", "mas", "slic"})
        corpus = [
            line("ctdi", "16.60", "kv", "mas", "slic"),  # matches: counts nothing
            line("ctdi", "16.60", "kv"),  # lacks mas and slic
            line("kv", "ctdi", "9.00", "slic"),  # lacks mas
            line("kv", "mas"),  # no trigger: counts nothing
        ]
        assert missing_tokens(p, corpus) == Counter({"mas": 2, "slic": 1})

    def test_an_alias_is_not_the_trigger(self):
        p = pattern({"ctdi", "kv"}, aliases={"ctdi", "ctdivol"})
        assert missing_tokens(p, [line("ctdivol", "16.60", "kv")]) == Counter()

    def test_matching_corpus_lacks_nothing(self, bundle_a, lines_a):
        assert missing_tokens(bundle_a.pattern, lines_a) == Counter()


class TestKpiTable:
    def test_csv_round_trip(self):
        table = KpiTable([("e1", "ctdi", "16.66"), ("e2", "ctdi", "3.00")])
        assert KpiTable.from_csv(table.to_csv()).rows == table.rows

    def test_from_csv_normalizes_values(self):
        text = "event_id,kpi,value\ne1,ctdi,16.660\n"
        assert KpiTable.from_csv(text).rows == [("e1", "ctdi", "16.66")]

    def test_duplicate_key_rejected(self):
        text = "event_id,kpi,value\ne1,ctdi,1.00\ne1,ctdi,2.00\n"
        with pytest.raises(ValueError, match="duplicate"):
            KpiTable.from_csv(text)

    def test_duplicate_key_not_written(self):
        rows = [("e1", "ctdi", "1.00"), ("e2", "ctdi", "1.00"), ("e1", "ctdi", "2.00")]
        with pytest.raises(ValueError, match=re.escape("duplicate KPI row for (e1, ctdi)")):
            KpiTable(rows)
        table = KpiTable(rows[:2])
        with pytest.raises(ValueError, match=re.escape("duplicate KPI row for (e1, ctdi)")):
            table.add(*rows[2])
        assert table.rows == rows[:2]

    def test_constructor_and_add_canonicalize(self):
        rows = [("e1", "ctdi", "1.004")]
        table = KpiTable(rows)
        table.add("e2", "ctdi", "1.004")
        table.add("e3", "ctdi", "n.a.")
        assert table.rows == [("e1", "ctdi", "1.00"), ("e2", "ctdi", "1.00"), ("e3", "ctdi", "n.a.")]
        assert rows == [("e1", "ctdi", "1.004")]

    def test_bad_header_rejected(self):
        with pytest.raises(ValueError, match="header"):
            KpiTable.from_csv("id,kpi,value\n")

    def test_bad_row_rejected(self):
        with pytest.raises(ValueError, match="row"):
            KpiTable.from_csv("event_id,kpi,value\ne1,ctdi\n")

    def test_unquoted_lone_carriage_return_is_a_value_error(self):
        with pytest.raises(ValueError, match=r"^line 2: unquoted carriage return in a field$"):
            KpiTable.from_csv("event_id,kpi,value\ne1\rx,ctdi,1.0\n")

    def test_lone_carriage_return_is_quoted(self):
        table = KpiTable([("e1", "ctdi", "1.50"), ("cr\rx", "ctdi", "1.50")])
        assert table.to_csv() == 'event_id,kpi,value\ne1,ctdi,1.50\n"cr\rx","ctdi","1.50"\n'
        assert KpiTable.from_csv(table.to_csv()).rows == table.rows

    # a table refuses a repeated key, so the rows drawn have distinct keys
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.text(), st.text(), st.text()), unique_by=lambda r: r[:2]))
    def test_csv_round_trip_any_text(self, rows):
        table = KpiTable(rows)
        assert KpiTable.from_csv(table.to_csv()).rows == table.rows

    def test_file_round_trip(self, tmp_path):
        table = KpiTable([("e1", "ctdi", "16.66")])
        path = tmp_path / "kpi.csv"
        table.write_csv(path)
        assert KpiTable.from_csv(path.read_text()).rows == table.rows
