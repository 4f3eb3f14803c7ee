import json
import math
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from driftparse.corpus import (
    DRIFT_SYSTEM_B,
    GeneratorConfig,
    file_digest,
    generate_corpus,
    load_kpi_table,
    load_log,
    write_log,
    write_manifest,
)
from driftparse.parsing import KpiTable
from driftparse.pipeline import preprocess_corpus
from driftparse.preprocess import EventRecord

from .conftest import A_SEED, N_EVENTS


class TestGeneratorConfig:
    def test_unknown_noise_key_rejected(self):
        with pytest.raises(ValueError, match="noise"):
            GeneratorConfig(seed=1, n_events=10, noise_profile={"typo": 0.5})

    def test_unknown_drift_profile_rejected(self):
        with pytest.raises(ValueError, match="drift"):
            GeneratorConfig(seed=1, n_events=10, drift_profile="system_c")

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"n_events": 0}, "n_events must be >= 1"),
            ({"kpi_line_fraction": 0.0}, r"kpi_line_fraction must lie in \(0, 1\]"),
            ({"kpi_line_fraction": 1.5}, r"kpi_line_fraction must lie in \(0, 1\]"),
        ],
    )
    def test_out_of_range_rejected(self, kwargs, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            GeneratorConfig(**{"seed": 1, "n_events": 10, **kwargs})

    @pytest.mark.parametrize(
        "key, value",
        [("drift_fraction", 2.0), ("echo_fraction", -0.5), ("care_off", math.nan), ("width_na", "x"),
         ("aec_off", True)],
    )
    def test_noise_value_outside_zero_one_rejected(self, key, value):
        message = rf"^noise profile {key} must be a number in \[0, 1\], got {re.escape(repr(value))}$"
        with pytest.raises(ValueError, match=message):
            GeneratorConfig(seed=1, n_events=10, drift_profile=DRIFT_SYSTEM_B, noise_profile={key: value})

    def test_noise_override(self):
        config = GeneratorConfig(seed=1, n_events=10, noise_profile={"width_na": 0.7})
        assert config.noise("width_na") == 0.7
        assert config.noise("care_off") == 0.5


class TestGenerate:
    def test_seed_determinism(self):
        a = generate_corpus(GeneratorConfig(seed=123, n_events=200))
        b = generate_corpus(GeneratorConfig(seed=123, n_events=200))
        assert a[0] == b[0]
        assert a[1].rows == b[1].rows

    def test_different_seeds_differ(self):
        a = generate_corpus(GeneratorConfig(seed=1, n_events=200))
        b = generate_corpus(GeneratorConfig(seed=2, n_events=200))
        assert a[0] != b[0]

    def test_truth_rows_match_scan_events(self, corpus_a):
        records, truth = corpus_a
        scan_ids = {r.event_id for r in records if r.event_type == "scan"}
        assert {eid for eid, _, _ in truth.rows} == scan_ids

    def test_truth_values_canonical(self, corpus_a):
        from driftparse.preprocess import is_canonical_number

        for _, _, value in corpus_a[1].rows:
            assert is_canonical_number(value)

    def test_event_ids_unique_and_timestamps_monotone(self, corpus_a):
        records, _ = corpus_a
        ids = [r.event_id for r in records]
        assert len(set(ids)) == len(ids) == N_EVENTS
        stamps = [r.timestamp for r in records]
        assert stamps == sorted(stamps)

    def test_drift_profile_swaps_identifier_fields(self, lines_a, lines_b):
        tokens_a = set().union(*(l.token_set() for l in lines_a))
        tokens_b = set().union(*(l.token_set() for l in lines_b))
        assert "scanuid" in tokens_a and "studyloid" not in tokens_a
        assert "studyloid" in tokens_b
        assert "miorgcharhead" in tokens_b

    def test_drift_profile_emits_preview_echoes(self, corpus_b):
        records, truth = corpus_b
        previews = [r for r in records if r.event_type == "scan_preview"]
        assert previews
        truth_ids = {eid for eid, _, _ in truth.rows}
        assert not any(r.event_id in truth_ids for r in previews)

    def test_drift_fraction_leaves_some_undrifted(self, corpus_b):
        records, _ = corpus_b
        scans = [r for r in records if r.event_type == "scan"]
        drifted = [r for r in scans if "StudyLOID" in r.text]
        assert 0 < len(drifted) < len(scans)
        assert len(drifted) / len(scans) > 0.8


class TestLogIo:
    def test_round_trip(self, tmp_path, corpus_a):
        records, _ = corpus_a
        path = tmp_path / "log.tsv"
        write_log(records, path)
        result = load_log(path)
        assert result.rejects == []
        assert result.records == records

    # any text a UTF-8 file can hold, less the field and line separators
    _field = st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\t\r\n"))

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.tuples(_field, _field, _field, _field.filter(bool)), unique_by=lambda r: r[0]))
    def test_round_trip_any_fields(self, rows):
        # write_log refuses a repeated id and empty text
        records = [EventRecord(eid, ts, kind, text) for eid, ts, kind, text in rows]
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "log.tsv"
            write_log(records, path)
            result = load_log(path)
        assert result.rejects == []
        assert result.records == records

    # few distinct characters, so that repeated ids, empty text, separators
    # and lone surrogates are common
    _small_field = st.text(st.sampled_from("a\t\r\n\ud800"), max_size=2)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(_small_field, _small_field, _small_field, _small_field), max_size=5))
    def test_written_log_loads_back_whole_or_is_refused(self, rows):
        records = [EventRecord(eid, ts, kind, text) for eid, ts, kind, text in rows]
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "log.tsv"
            try:
                write_log(records, path)
            except ValueError:
                assert not path.exists()
                return
            result = load_log(path)
        assert result.rejects == []
        assert result.records == records

    @pytest.mark.parametrize("bad", ["a\tb", "a\rb", "a\nb"], ids=["tab", "cr", "lf"])
    @pytest.mark.parametrize("field", ["timestamp", "event_type", "event_id", "text"])
    def test_separator_in_a_field_refused(self, tmp_path, field, bad):
        values = {"event_id": "e2", "timestamp": "t2", "event_type": "scan", "text": "text"}
        values[field] = bad
        records = [EventRecord("e1", "t1", "scan", "fine"), EventRecord(**values)]
        path = tmp_path / "log.tsv"
        with pytest.raises(ValueError, match=re.escape(repr(values["event_id"]))):
            write_log(records, path)
        assert not path.exists()

    @pytest.mark.parametrize(
        "second, message",
        [
            (EventRecord("e2", "t2", "scan", ""), "'e2': empty event text"),
            (EventRecord("e1", "t2", "scan", "again"), "'e1': duplicate event id"),
            (EventRecord("e2", "t2", "scan", "x\ud800"), "'e2': a field has no UTF-8 form"),
        ],
        ids=["empty-text", "repeated-id", "lone-surrogate"],
    )
    def test_record_load_log_would_lose_refused(self, tmp_path, second, message):
        path = tmp_path / "log.tsv"
        with pytest.raises(ValueError, match=re.escape(message)):
            write_log([EventRecord("e1", "t1", "scan", "fine"), second], path)
        assert not path.exists()

    def test_malformed_lines_rejected_with_reason(self, tmp_path):
        path = tmp_path / "log.tsv"
        path.write_text(
            "t1\tscan\te1\tgood text\n"
            "only-two\tfields\n"
            "t2\tscan\te2\t\n"
            "\n"
            "t3\tscan\te3\tmore text\n"
        )
        result = load_log(path)
        assert [r.event_id for r in result.records] == ["e1", "e3"]
        assert [(lineno, reason.split(",")[0]) for lineno, reason, _ in result.rejects] == [
            (2, "expected 4 fields"),
            (3, "empty event text"),
        ]

    def test_duplicate_event_id_keeps_first_line(self, tmp_path):
        path = tmp_path / "log.tsv"
        path.write_text(
            "t1\tscan\te1\tfirst text\n"
            "t2\tscan\te2\tother text\n"
            "t3\tscan\te1\trepeated text\n"
        )
        result = load_log(path)
        assert [(r.event_id, r.text) for r in result.records] == [
            ("e1", "first text"),
            ("e2", "other text"),
        ]
        assert [(lineno, reason) for lineno, reason, _ in result.rejects] == [
            (3, "duplicate event id e1, first on line 1"),
        ]

    def test_invalid_utf8_line_rejected_others_load(self, tmp_path):
        path = tmp_path / "log.tsv"
        path.write_bytes(
            b"t1\tscan\te1\tgood text\n"
            b"t2\tscan\te2\tbad \xff byte\n"
            b"t3\tscan\te3\tm\xc3\xa5re text\n"
        )
        result = load_log(path)
        assert [r.event_id for r in result.records] == ["e1", "e3"]
        assert result.records[1].text == "m\u00e5re text"
        assert [(lineno, reason) for lineno, reason, _ in result.rejects] == [
            (2, "invalid UTF-8 at byte 15 of the line"),
        ]

    def test_load_kpi_table_normalizes(self, tmp_path):
        path = tmp_path / "truth.csv"
        path.write_text("event_id,kpi,value\ne1,ctdi,16.660\n")
        assert load_kpi_table(path).rows == [("e1", "ctdi", "16.66")]

    @pytest.mark.parametrize(
        "data, message",
        [
            (b"", "line 1: bad KPI table header: None"),
            (b"id,kpi,value\n", "line 1: bad KPI table header"),
            (b"event_id,kpi,value\ne1,ctdi,1.00\ne2,ctdi,1.00,x\n", "line 3: bad KPI table row"),
            (b"event_id,kpi,value\ne1,ctdi,1.00\ne1,ctdi,2.00\n", "line 3: duplicate KPI row for (e1, ctdi)"),
            (b"event_id,kpi,value\ne1,ctdi,1.00\ne2,ctdi,2.0\xff\n", "line 3: invalid UTF-8 byte 0xff"),
            (b"event_id,kpi,value\n\xc3", "line 2: invalid UTF-8 byte 0xc3"),
        ],
    )
    def test_load_kpi_table_refusal_names_file_and_line(self, tmp_path, data, message):
        path = tmp_path / "truth.csv"
        path.write_bytes(data)
        with pytest.raises(ValueError, match="^" + re.escape(f"{path}: {message}")):
            load_kpi_table(path)


class TestManifest:
    def test_manifest_records_config_and_digests(self, tmp_path):
        records, truth = generate_corpus(GeneratorConfig(seed=5, n_events=50))
        log_path = tmp_path / "log.tsv"
        truth_path = tmp_path / "truth.csv"
        write_log(records, log_path)
        truth.write_csv(truth_path)
        manifest_path = tmp_path / "manifest.json"
        write_manifest(
            manifest_path,
            GeneratorConfig(seed=5, n_events=50),
            {"log": log_path, "truth": truth_path},
        )
        manifest = json.loads(manifest_path.read_text())
        assert manifest["seed"] == 5
        assert manifest["files"]["log"] == file_digest(log_path)
        assert manifest["files"]["truth"] == file_digest(truth_path)

    def test_byte_deterministic_outputs(self, tmp_path):
        for name in ("x", "y"):
            records, truth = generate_corpus(GeneratorConfig(seed=9, n_events=50))
            write_log(records, tmp_path / f"{name}.tsv")
            truth.write_csv(tmp_path / f"{name}.csv")
        assert file_digest(tmp_path / "x.tsv") == file_digest(tmp_path / "y.tsv")
        assert file_digest(tmp_path / "x.csv") == file_digest(tmp_path / "y.csv")
