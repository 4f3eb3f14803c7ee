import re

import pytest
from hypothesis import given, settings, strategies as st

from driftparse.parsing import (
    KpiTable,
    ParsingPattern,
    compile_pattern,
    parse_corpus,
    parse_event,
)
from driftparse.preprocess import TokenSequence, normalize_number


def line(*tokens, event_id="e1"):
    return TokenSequence(event_id, tuple(tokens))


def pattern(required, trigger="ctdi", aliases=None):
    return ParsingPattern(frozenset(required), trigger, "ctdi", tuple(aliases or (trigger,)))


class TestPattern:
    def test_trigger_must_be_required(self):
        with pytest.raises(ValueError):
            pattern({"kv"}, trigger="ctdi")

    def test_aliases_required(self):
        with pytest.raises(ValueError):
            ParsingPattern(frozenset({"ctdi"}), "ctdi", "ctdi", ())

    def test_compile_prepends_trigger_alias(self):
        class FakeModel:
            states = ("ctdi", "kv")

        p = compile_pattern(FakeModel(), "ctdi", "ctdi", aliases=["ctdivol"])
        assert p.trigger == "ctdi"
        assert p.trigger_aliases == ("ctdi", "ctdivol")
        assert p.required_tokens == frozenset({"ctdi", "kv"})


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
        assert parse_event(p, line("ctdi", "16.660")) == "16.66"

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

    def test_trained_pattern_recovers_all_truth(self, bundle_a, lines_a, corpus_a):
        _, truth = corpus_a
        parsed = parse_corpus(bundle_a.pattern, lines_a)
        assert parsed.as_dict() == truth.as_dict()


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

    def test_duplicate_key_not_written(self, tmp_path):
        table = KpiTable([("e1", "ctdi", "1.00"), ("e2", "ctdi", "1.00"), ("e1", "ctdi", "2.00")])
        with pytest.raises(ValueError, match=re.escape("duplicate KPI row for (e1, ctdi)")):
            table.to_csv()
        path = tmp_path / "kpi.csv"
        with pytest.raises(ValueError, match="duplicate"):
            table.write_csv(path)
        assert not path.exists()

    def test_bad_header_rejected(self):
        with pytest.raises(ValueError, match="header"):
            KpiTable.from_csv("id,kpi,value\n")

    def test_bad_row_rejected(self):
        with pytest.raises(ValueError, match="row"):
            KpiTable.from_csv("event_id,kpi,value\ne1,ctdi\n")

    def test_unquoted_lone_carriage_return_is_a_value_error(self):
        with pytest.raises(ValueError, match="line 2"):
            KpiTable.from_csv("event_id,kpi,value\ne1\rx,ctdi,1.0\n")

    def test_lone_carriage_return_is_quoted(self):
        table = KpiTable([("e1", "ctdi", "1.50"), ("cr\rx", "ctdi", "1.50")])
        assert table.to_csv() == 'event_id,kpi,value\ne1,ctdi,1.50\n"cr\rx","ctdi","1.50"\n'
        assert KpiTable.from_csv(table.to_csv()).rows == table.rows

    # from_csv normalizes values and refuses a repeated key, so the tables
    # drawn hold normalized values and distinct keys
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.text(), st.text(), st.text().map(normalize_number)), unique_by=lambda r: r[:2]))
    def test_csv_round_trip_any_text(self, rows):
        table = KpiTable(rows)
        assert KpiTable.from_csv(table.to_csv()).rows == table.rows

    def test_file_round_trip(self, tmp_path):
        table = KpiTable([("e1", "ctdi", "16.66")])
        path = tmp_path / "kpi.csv"
        table.write_csv(path)
        assert KpiTable.from_csv(path.read_text()).rows == table.rows
