import bisect
import hashlib
import json
import math
import re
from collections import Counter, namedtuple
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from driftparse.bundle import (
    FORMAT_VERSION,
    BundleError,
    ModelBundle,
    _sparse_row,
    bundle_to_document,
    document_to_bundle,
    load_bundle,
    save_bundle,
)
from driftparse.corpus import GeneratorConfig, generate_corpus
from driftparse.hmm import OOV_TOKEN, Hmm
from driftparse.mining import MiningConfig
from driftparse.parsing import ParsingPattern
from driftparse.pipeline import train


def doc_of(bundle):
    return json.loads(json.dumps(bundle_to_document(bundle)))


def set_entry(row, column, text):
    """Store ``text`` for ``column`` of a row object as a listed entry."""
    index, value = row["index"], row["value"]
    if column in index:
        value[index.index(column)] = text
    else:
        at = bisect.bisect(index, column)
        index.insert(at, column)
        value.insert(at, text)


def expand(row, width):
    """The per-entry strings a row object stands for."""
    strings = [row["fill"]] * width
    for j, text in zip(row["index"], row["value"]):
        strings[j] = text
    return strings


class TestRoundTrip:
    def test_exact_round_trip(self, bundle_a):
        restored = document_to_bundle(doc_of(bundle_a))
        assert restored.hmm.states == bundle_a.hmm.states
        assert restored.hmm.emissions == bundle_a.hmm.emissions
        assert np.array_equal(restored.hmm.ps, bundle_a.hmm.ps)
        assert np.array_equal(restored.hmm.pt, bundle_a.hmm.pt)
        assert np.array_equal(restored.hmm.pe, bundle_a.hmm.pe)
        assert restored.pattern == bundle_a.pattern
        assert restored.mining_config == bundle_a.mining_config

    def test_file_round_trip(self, tmp_path, bundle_a):
        path = tmp_path / "model.json"
        save_bundle(bundle_a, path)
        restored = load_bundle(path)
        assert restored.pattern == bundle_a.pattern
        assert np.array_equal(restored.hmm.pe, bundle_a.hmm.pe)

    def test_saves_are_byte_identical(self, tmp_path, bundle_a):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        save_bundle(bundle_a, a)
        save_bundle(bundle_a, b)
        assert a.read_bytes() == b.read_bytes()

    def test_aliases_are_written_sorted_and_load_as_a_set(self, bundle_a):
        aliases = frozenset({"zz", bundle_a.pattern.trigger, "aa"})
        aliased = replace(bundle_a, pattern=replace(bundle_a.pattern, trigger_aliases=aliases))
        doc = doc_of(aliased)
        assert doc["pattern"]["trigger_aliases"] == sorted(aliases)
        doc["pattern"]["trigger_aliases"].reverse()
        assert document_to_bundle(doc).pattern.trigger_aliases == aliases

    def test_save_load_save_is_stable(self, tmp_path, bundle_a):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        save_bundle(bundle_a, a)
        save_bundle(load_bundle(a), b)
        assert a.read_bytes() == b.read_bytes()

    def test_file_is_one_line_holding_the_document(self, tmp_path, bundle_a):
        path = tmp_path / "model.json"
        save_bundle(bundle_a, path)
        text = path.read_text(encoding="utf-8")
        assert text.count("\n") == 1 and text.endswith("\n")
        assert json.loads(text) == doc_of(bundle_a)

    def test_indented_v4_file_still_loads(self, tmp_path, bundle_a):
        # the indented view `driftparse inspect --json` prints loads like the compact file
        indented, compact = tmp_path / "indented.json", tmp_path / "compact.json"
        indented.write_text(json.dumps(bundle_to_document(bundle_a), indent=2, sort_keys=True) + "\n")
        restored = load_bundle(indented)
        assert restored.hmm.states == bundle_a.hmm.states
        assert restored.hmm.emissions == bundle_a.hmm.emissions
        for name in ("ps", "pt", "pe"):
            assert getattr(restored.hmm, name).tobytes() == getattr(bundle_a.hmm, name).tobytes()
        assert restored.pattern == bundle_a.pattern
        assert restored.mining_config == bundle_a.mining_config
        assert restored.provenance == bundle_a.provenance
        save_bundle(restored, compact)
        assert json.loads(compact.read_text()) == json.loads(indented.read_text())


def reference_strings(values):
    """The per-entry rendering that the writer must reproduce."""
    if values.ndim == 1:
        return [format(float(x), ".17g") for x in values]
    return [[format(float(x), ".17g") for x in row] for row in values]


# repeated values plus the edge cases of a 17-digit rendering: both zeros,
# the smallest subnormal and the largest double below 1
_EDGE_VALUES = [0.0, -0.0, 5e-324, 1 - 2**-53, 0.5, 1e-6]
_entries = st.one_of(st.sampled_from(_EDGE_VALUES), st.floats(width=64))


Arrays = namedtuple("Arrays", "ps pt pe")


@st.composite
def float_arrays(draw):
    """The ps, pt and pe of 1-4 states and 1-6 symbols, any float in each entry.

    No Hmm holds most of them; the writer's row objects are checked on them
    through _sparse_row, which bundle_to_document applies to each row.
    """
    n = draw(st.integers(1, 4))
    m = draw(st.integers(1, 6))

    def array(*shape):
        size = math.prod(shape)
        return np.array(draw(st.lists(_entries, min_size=size, max_size=size))).reshape(shape)

    return Arrays(array(n), array(n, n), array(n, m))


def row_objects(arrays):
    return {
        "ps": _sparse_row(arrays.ps),
        "pt": [_sparse_row(row) for row in arrays.pt],
        "pe": [_sparse_row(row) for row in arrays.pe],
    }


def hmm_document(model):
    pattern = ParsingPattern(frozenset({"s0"}), "s0", "ctdi", frozenset({"s0"}))
    return bundle_to_document(ModelBundle(model, pattern, MiningConfig(threshold=1), "test"))["hmm"]


def rows_of(doc, arrays):
    """(row object, array row) for ``ps`` and every row of ``pt`` and ``pe``."""
    yield doc["ps"], arrays.ps
    for name in ("pt", "pe"):
        yield from zip(doc[name], getattr(arrays, name))


class TestWriterOracle:
    @settings(max_examples=100, deadline=None)
    @given(float_arrays())
    def test_strings_equal_per_entry_format(self, arrays):
        doc = row_objects(arrays)
        assert expand(doc["ps"], len(arrays.ps)) == reference_strings(arrays.ps)
        for name in ("pt", "pe"):
            matrix = getattr(arrays, name)
            assert [expand(row, matrix.shape[1]) for row in doc[name]] == reference_strings(matrix)

    @settings(max_examples=100, deadline=None)
    @given(float_arrays())
    def test_fill_is_the_most_common_bits_and_only_the_rest_is_listed(self, arrays):
        for row, values in rows_of(row_objects(arrays), arrays):
            bits = values.view(np.uint64).tolist()
            counts = Counter(bits)
            top = max(counts.values())
            fill_bits = min(b for b, c in counts.items() if c == top)
            fill = values[bits.index(fill_bits)]
            assert row["fill"] == format(float(fill), ".17g")
            assert row["index"] == [j for j, b in enumerate(bits) if b != fill_bits]
            assert row["value"] == [format(float(values[j]), ".17g") for j in row["index"]]

    def test_tie_goes_to_the_lowest_bit_pattern(self):
        # three values twice each: 0.0 has the lowest bits, -0.0 the sign bit set
        ps = np.array([-0.0, 0.5, 0.0, 0.5, -0.0, 0.0])
        states = tuple(f"s{i}" for i in range(len(ps)))
        model = Hmm(states, ("<oov>",), ps, np.eye(len(ps)), np.ones((len(ps), 1)))
        doc = hmm_document(model)
        assert doc["ps"] == {"fill": "0", "index": [0, 1, 3, 4], "value": ["-0", "0.5", "0.5", "-0"]}
        assert doc["pe"][0] == {"fill": "1", "index": [], "value": []}


class TestSparseRows:
    def test_training_bundle_lists_only_entries_off_the_fill(self):
        # about 600 scan events, the size of the benchmark's parse-files bundle;
        # a writer gone back to dense rows would list every entry
        records, truth = generate_corpus(GeneratorConfig(seed=0, n_events=1333, kpi_line_fraction=0.45))
        bundle = train(records, truth)
        pe = bundle.hmm.pe
        off_fill = sum(len(row) - Counter(row.view(np.uint64).tolist()).most_common(1)[0][1] for row in pe)
        listed = sum(len(row["value"]) for row in doc_of(bundle)["hmm"]["pe"])
        assert listed <= off_fill < pe.size // 10


# sha256 of save_bundle(train(...)) on the gen corpora of seeds 0-2 at 800
# events.  Training counts in bulk and the writer formats each distinct
# value once; both must leave every byte as the per-pair counting and
# per-entry formatting wrote it.  A change to the model or the format that
# moves a byte re-records these.
SAVED_DIGESTS = {
    0: "92354ddb48df5bd9269b24928a35e52a18e114b335c263e56802475eec5145d7",
    1: "bc3778114486a623b58209f6f90b0af39fd530ce0f62cc76a618a8a5ba56559f",
    2: "847e7f3063d575b88c70c4048d5b39cf393f9c6a42b4832103488958748007d0",
}


class TestSavedBytes:
    @pytest.mark.parametrize("seed", sorted(SAVED_DIGESTS))
    def test_trained_bundle_bytes_are_pinned(self, tmp_path, seed):
        records, truth = generate_corpus(GeneratorConfig(seed=seed, n_events=800))
        path = tmp_path / "model.json"
        save_bundle(train(records, truth), path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == SAVED_DIGESTS[seed]


def stochastic_row(k):
    weights = st.lists(st.floats(0.0, 1.0), min_size=k, max_size=k).filter(any)
    return weights.map(lambda w: np.array(w) / sum(w))


# entries an Hmm refuses, next to some it holds
_ODD_ENTRIES = [math.nan, math.inf, -math.inf, -0.5, -0.0, 0.0, 5e-324, 0.7, 1.0]


@st.composite
def model_arrays(draw):
    """The ps, pt and pe of 1-3 states and 1-4 symbols, every row stochastic,
    except that half the time one row is replaced by arbitrary entries."""
    n = draw(st.integers(1, 3))
    m = draw(st.integers(1, 4))
    rows = [draw(stochastic_row(n)) for _ in range(1 + n)] + [draw(stochastic_row(m)) for _ in range(n)]
    if draw(st.booleans()):
        i = draw(st.integers(0, len(rows) - 1))
        k = len(rows[i])
        rows[i] = np.array(draw(st.lists(st.sampled_from(_ODD_ENTRIES), min_size=k, max_size=k)))
    return Arrays(rows[0], np.array(rows[1 : 1 + n]), np.array(rows[1 + n :]))


def holds_a_model(arrays):
    """Finite, non-negative, and ps and every row of pt and pe summing to 1 within 1e-9."""
    if not all(np.isfinite(a).all() and (a >= 0).all() for a in arrays):
        return False
    sums = [arrays.ps.sum(), *arrays.pt.sum(axis=1), *arrays.pe.sum(axis=1)]
    return all(abs(total - 1) <= 1e-9 for total in sums)


class TestEveryBuiltBundleLoads:
    @settings(max_examples=100, deadline=None)
    @given(model_arrays(), st.text(max_size=8))
    def test_built_bundle_round_trips_and_invalid_arrays_raise(self, tmp_path_factory, arrays, provenance):
        # a model that can be built can be saved, and what is saved loads back exactly
        states = tuple(f"s{i}" for i in range(len(arrays.ps)))
        emissions = tuple(f"e{j}" for j in range(arrays.pe.shape[1] - 1)) + (OOV_TOKEN,)
        if not holds_a_model(arrays):
            with pytest.raises(ValueError):
                Hmm(states, emissions, *arrays)
            return
        pattern = ParsingPattern(frozenset({"s0"}), "s0", "ctdi", frozenset({"s0"}))
        bundle = ModelBundle(Hmm(states, emissions, *arrays), pattern, MiningConfig(threshold=3), provenance)
        path = tmp_path_factory.mktemp("bundle") / "model.json"
        save_bundle(bundle, path)
        restored = load_bundle(path)
        assert (restored.hmm.states, restored.hmm.emissions) == (states, emissions)
        for name in ("ps", "pt", "pe"):
            assert getattr(restored.hmm, name).tobytes() == getattr(arrays, name).tobytes()
        assert (restored.pattern, restored.mining_config, restored.provenance) == (
            pattern, bundle.mining_config, provenance
        )


class TestSchema:
    """docs/bundle_schema.json against the document the writer writes."""

    SCHEMA = json.loads((Path(__file__).resolve().parents[1] / "docs" / "bundle_schema.json").read_text())

    def test_format_version_is_the_writers(self):
        assert self.SCHEMA["properties"]["format_version"]["const"] == FORMAT_VERSION

    def test_each_required_list_is_the_written_keys(self, bundle_a):
        doc, props = doc_of(bundle_a), self.SCHEMA["properties"]
        levels = [
            (self.SCHEMA, doc),
            (props["mining_config"], doc["mining_config"]),
            (props["hmm"], doc["hmm"]),
            (props["pattern"], doc["pattern"]),
            (self.SCHEMA["$defs"]["row"], doc["hmm"]["ps"]),
        ]
        for node, written in levels:
            assert sorted(node["required"]) == sorted(written)

    def test_every_probability_of_a_trained_bundle_matches_the_pattern(self, bundle_a):
        pattern = re.compile(self.SCHEMA["$defs"]["probability"]["pattern"])
        hmm = doc_of(bundle_a)["hmm"]
        rows = [hmm["ps"], *hmm["pt"], *hmm["pe"]]
        strings = [text for row in rows for text in [row["fill"], *row["value"]]]
        assert len(strings) > len(rows)
        assert all(pattern.search(text) for text in strings)


class TestValidation:
    def test_not_json(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text("{ nope")
        with pytest.raises(BundleError, match="JSON"):
            load_bundle(path)

    def test_invalid_utf8_names_the_byte_offset(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_bytes(b'{"format_version": "\xff"}')
        with pytest.raises(BundleError, match="invalid UTF-8 byte 0xff at byte offset 20"):
            load_bundle(path)

    def test_wrong_version(self, bundle_a):
        doc = doc_of(bundle_a)
        doc["format_version"] = 99
        with pytest.raises(BundleError, match="format_version"):
            document_to_bundle(doc)

    def test_v1_document_rejected(self, bundle_a):
        doc = doc_of(bundle_a)
        doc["format_version"] = 1
        with pytest.raises(BundleError, match="format_version 1"):
            document_to_bundle(doc)

    def test_v2_document_rejected(self, bundle_a):
        doc = doc_of(bundle_a)
        assert doc["format_version"] == FORMAT_VERSION == 4
        assert doc["mining_config"] == {"threshold": bundle_a.mining_config.threshold}
        doc["format_version"] = 2
        doc["mining_config"]["expected_kpi_count"] = 1
        with pytest.raises(BundleError, match="format_version 2"):
            document_to_bundle(doc)

    def test_v3_document_rejected(self, bundle_a):
        # format 3 stored every probability of a row as its own string
        doc = doc_of(bundle_a)
        doc["format_version"] = 3
        doc["hmm"]["ps"] = reference_strings(bundle_a.hmm.ps)
        doc["hmm"]["pt"] = reference_strings(bundle_a.hmm.pt)
        doc["hmm"]["pe"] = reference_strings(bundle_a.hmm.pe)
        with pytest.raises(BundleError, match="unsupported format_version 3, expected 4"):
            document_to_bundle(doc)

    def test_missing_field_names_path(self, bundle_a):
        doc = doc_of(bundle_a)
        del doc["hmm"]["ps"]
        with pytest.raises(BundleError, match=r"\$\.hmm\.ps"):
            document_to_bundle(doc)

    def test_bad_number_names_path(self, bundle_a):
        doc = doc_of(bundle_a)
        set_entry(doc["hmm"]["ps"], 0, "not-a-number")
        with pytest.raises(BundleError, match=r"\$\.hmm\.ps"):
            document_to_bundle(doc)

    @pytest.mark.parametrize("value", [[0.5], 10**400], ids=["list", "huge-int"])
    def test_unparsable_entry_names_path(self, bundle_a, value):
        doc = doc_of(bundle_a)
        set_entry(doc["hmm"]["pe"][1], 0, value)
        with pytest.raises(BundleError, match=r"bad number in \$\.hmm\.pe\[1\]"):
            document_to_bundle(doc)

    def test_boolean_probabilities_rejected(self, bundle_a):
        # true, false, ... would load as the valid start distribution (1, 0, ...)
        doc = doc_of(bundle_a)
        doc["hmm"]["ps"] = {"fill": False, "index": [0], "value": [True]}
        with pytest.raises(BundleError, match=r"bad number in \$\.hmm\.ps"):
            document_to_bundle(doc)

    def test_json_number_probabilities_rejected(self, bundle_a):
        # the same values as JSON numbers would load unchanged
        doc = doc_of(bundle_a)
        row = doc["hmm"]["pe"][1]
        row["fill"] = float(row["fill"])
        row["value"] = [float(x) for x in row["value"]]
        with pytest.raises(BundleError, match=r"bad number in \$\.hmm\.pe\[1\]"):
            document_to_bundle(doc)

    def test_ragged_matrix_names_row(self, bundle_a):
        # a row object has no length of its own: an entry listed past the last
        # column stands for a row of the wrong length
        doc = doc_of(bundle_a)
        set_entry(doc["hmm"]["pt"][2], len(bundle_a.hmm.states), "0")
        with pytest.raises(BundleError, match=r"\$\.hmm\.pt\[2\]"):
            document_to_bundle(doc)

    def test_broken_row_sum_rejected(self, bundle_a):
        doc = doc_of(bundle_a)
        set_entry(doc["hmm"]["pe"][0], 0, "0.9999")
        with pytest.raises(BundleError, match="invalid model"):
            document_to_bundle(doc)

    @pytest.mark.parametrize("matrix", ["ps", "pt", "pe"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_probability_rejected(self, bundle_a, matrix, value):
        doc = doc_of(bundle_a)
        row = doc["hmm"]["ps"] if matrix == "ps" else doc["hmm"][matrix][0]
        set_entry(row, 0, value)
        with pytest.raises(BundleError, match="finite"):
            document_to_bundle(doc)

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_fill_rejected(self, bundle_a, value):
        doc = doc_of(bundle_a)
        doc["hmm"]["pe"][1]["fill"] = value
        with pytest.raises(BundleError, match="finite"):
            document_to_bundle(doc)

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"fill": 0.001}, "bad number"),
            ({"fill": None}, "bad number"),
            ({"value": [0.5, "0.25"]}, "bad number"),
            ({"index": [1.0, 3]}, "bad index"),
            ({"index": [True, 3]}, "bad index"),
            ({"index": [-1, 3]}, "index out of range or not increasing"),
            ({"index": [1, 10**400]}, "index out of range or not increasing"),
            ({"index": [3, 3]}, "index out of range or not increasing"),
            ({"index": [3, 1]}, "index out of range or not increasing"),
            ({"value": ["0.5", "0.25", "0"]}, "lengths differ"),
            ({"index": [1, 3, 5]}, "lengths differ"),
        ],
        ids=[
            "fill-number", "fill-null", "value-number", "index-float", "index-bool", "index-negative",
            "index-past-width", "index-repeated", "index-decreasing", "value-longer", "index-longer",
        ],
    )
    def test_bad_row_object_names_row(self, bundle_a, fields, message):
        doc = doc_of(bundle_a)
        row = doc["hmm"]["pe"][1]
        row.update({"index": [1, 3], "value": ["0.5", "0.25"]}, **fields)
        with pytest.raises(BundleError, match=rf"{message} in \$\.hmm\.pe\[1\]$"):
            document_to_bundle(doc)

    def test_dense_row_rejected(self, bundle_a):
        doc = doc_of(bundle_a)
        doc["hmm"]["pt"][0] = reference_strings(bundle_a.hmm.pt[0])
        with pytest.raises(BundleError, match=r"bad type at \$\.hmm\.pt\[0\]"):
            document_to_bundle(doc)

    @pytest.mark.parametrize(
        "section, key",
        [("hmm", "states"), ("hmm", "emissions"), ("pattern", "required_tokens"), ("pattern", "trigger_aliases")],
    )
    def test_non_string_token_names_path(self, bundle_a, section, key):
        doc = doc_of(bundle_a)
        doc[section][key][0] = [doc[section][key][0]]
        with pytest.raises(BundleError, match=rf"bad type at \$\.{section}\.{key}\[0\]"):
            document_to_bundle(doc)

    @pytest.mark.parametrize("key", ["required_tokens", "trigger_aliases"])
    def test_repeated_token_names_path(self, bundle_a, key):
        # a set stored twice over would load as the set, hiding a corrupt file
        doc = doc_of(bundle_a)
        items = doc["pattern"][key]
        doc["pattern"][key] = items + items
        with pytest.raises(BundleError, match=rf"^repeated item at \$\.pattern\.{key}\[{len(items)}\]$"):
            document_to_bundle(doc)

    def test_missing_oov_column_rejected(self, bundle_a):
        doc = doc_of(bundle_a)
        assert doc["hmm"]["emissions"][-1] == "<oov>"
        doc["hmm"]["emissions"][-1] = "zzz"
        with pytest.raises(BundleError, match="<oov>"):
            document_to_bundle(doc)

    def test_trigger_outside_required_rejected(self, bundle_a):
        doc = doc_of(bundle_a)
        doc["pattern"]["trigger"] = "never-mined"
        with pytest.raises(BundleError, match="invalid pattern"):
            document_to_bundle(doc)

    def test_aliases_without_the_trigger_rejected(self, bundle_a):
        doc = doc_of(bundle_a)
        doc["pattern"]["trigger_aliases"] = ["dlp"]
        message = r"^invalid pattern in \$\.pattern: trigger must be one of the trigger aliases$"
        with pytest.raises(BundleError, match=message):
            document_to_bundle(doc)

    def test_invalid_threshold_names_path(self, bundle_a):
        doc = doc_of(bundle_a)
        doc["mining_config"]["threshold"] = 0
        with pytest.raises(BundleError, match=r"\$\.mining_config\.threshold"):
            document_to_bundle(doc)

    @pytest.mark.parametrize("section, key, value", [("hmm", "pt", {}), ("pattern", "trigger", 5)])
    def test_wrong_type_names_path(self, bundle_a, section, key, value):
        doc = doc_of(bundle_a)
        doc[section][key] = value
        with pytest.raises(BundleError, match=rf"^bad type at \$\.{section}\.{key}$"):
            document_to_bundle(doc)

    def test_bool_is_not_an_int(self, bundle_a):
        doc = doc_of(bundle_a)
        doc["format_version"] = True
        with pytest.raises(BundleError, match="bad type"):
            document_to_bundle(doc)
