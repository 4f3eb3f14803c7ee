import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from driftparse.bundle import (
    FORMAT_VERSION,
    BundleError,
    ModelBundle,
    bundle_to_document,
    document_to_bundle,
    load_bundle,
    save_bundle,
)
from driftparse.hmm import Hmm
from driftparse.mining import MiningConfig
from driftparse.parsing import ParsingPattern


def doc_of(bundle):
    return json.loads(json.dumps(bundle_to_document(bundle)))


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

    def test_indented_v3_file_still_loads(self, tmp_path, bundle_a):
        # the layout written before saves became one compact line
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


@st.composite
def models(draw):
    n = draw(st.integers(1, 4))
    m = draw(st.integers(1, 6))

    def array(*shape):
        size = math.prod(shape)
        return np.array(draw(st.lists(_entries, min_size=size, max_size=size))).reshape(shape)

    states = tuple(f"s{i}" for i in range(n))
    emissions = tuple(f"e{j}" for j in range(m - 1)) + ("<oov>",)
    return Hmm(states, emissions, array(n), array(n, n), array(n, m))


class TestWriterOracle:
    @settings(max_examples=100, deadline=None)
    @given(models())
    def test_strings_equal_per_entry_format(self, model):
        pattern = ParsingPattern(frozenset({"s0"}), "s0", "ctdi", ("s0",))
        doc = bundle_to_document(ModelBundle(model, pattern, MiningConfig(threshold=1), "test"))
        for name in ("ps", "pt", "pe"):
            assert doc["hmm"][name] == reference_strings(getattr(model, name))


class TestValidation:
    def test_not_json(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text("{ nope")
        with pytest.raises(BundleError, match="JSON"):
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
        assert doc["format_version"] == FORMAT_VERSION == 3
        assert doc["mining_config"] == {"threshold": bundle_a.mining_config.threshold}
        doc["format_version"] = 2
        doc["mining_config"]["expected_kpi_count"] = 1
        with pytest.raises(BundleError, match="format_version 2"):
            document_to_bundle(doc)

    def test_missing_field_names_path(self, bundle_a):
        doc = doc_of(bundle_a)
        del doc["hmm"]["ps"]
        with pytest.raises(BundleError, match=r"\$\.hmm\.ps"):
            document_to_bundle(doc)

    def test_bad_number_names_path(self, bundle_a):
        doc = doc_of(bundle_a)
        doc["hmm"]["ps"][0] = "not-a-number"
        with pytest.raises(BundleError, match=r"\$\.hmm\.ps"):
            document_to_bundle(doc)

    @pytest.mark.parametrize("value", [[0.5], 10**400], ids=["list", "huge-int"])
    def test_unparsable_entry_names_path(self, bundle_a, value):
        doc = doc_of(bundle_a)
        doc["hmm"]["pe"][1][0] = value
        with pytest.raises(BundleError, match=r"bad number in \$\.hmm\.pe\[1\]"):
            document_to_bundle(doc)

    def test_boolean_probabilities_rejected(self, bundle_a):
        # true, false, ... would load as the valid start distribution (1, 0, ...)
        doc = doc_of(bundle_a)
        doc["hmm"]["ps"] = [True] + [False] * (len(doc["hmm"]["ps"]) - 1)
        with pytest.raises(BundleError, match=r"bad number in \$\.hmm\.ps"):
            document_to_bundle(doc)

    def test_json_number_probabilities_rejected(self, bundle_a):
        # the same values as JSON numbers would load unchanged
        doc = doc_of(bundle_a)
        doc["hmm"]["pe"][1] = [float(x) for x in doc["hmm"]["pe"][1]]
        with pytest.raises(BundleError, match=r"bad number in \$\.hmm\.pe\[1\]"):
            document_to_bundle(doc)

    def test_ragged_matrix_names_row(self, bundle_a):
        doc = doc_of(bundle_a)
        doc["hmm"]["pt"][2] = doc["hmm"]["pt"][2][:-1]
        with pytest.raises(BundleError, match=r"\$\.hmm\.pt\[2\]"):
            document_to_bundle(doc)

    def test_broken_row_sum_rejected(self, bundle_a):
        doc = doc_of(bundle_a)
        doc["hmm"]["pe"][0][0] = "0.9999"
        with pytest.raises(BundleError, match="invalid model"):
            document_to_bundle(doc)

    @pytest.mark.parametrize("matrix", ["ps", "pt", "pe"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_probability_rejected(self, bundle_a, matrix, value):
        doc = doc_of(bundle_a)
        if matrix == "ps":
            doc["hmm"]["ps"][0] = value
        else:
            doc["hmm"][matrix][0][0] = value
        with pytest.raises(BundleError, match="finite"):
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

    def test_invalid_threshold_names_path(self, bundle_a):
        doc = doc_of(bundle_a)
        doc["mining_config"]["threshold"] = 0
        with pytest.raises(BundleError, match=r"\$\.mining_config\.threshold"):
            document_to_bundle(doc)

    def test_bool_is_not_an_int(self, bundle_a):
        doc = doc_of(bundle_a)
        doc["format_version"] = True
        with pytest.raises(BundleError, match="bad type"):
            document_to_bundle(doc)
