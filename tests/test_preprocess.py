import re
import sys

import pytest
from hypothesis import given, strategies as st

from driftparse.preprocess import (
    DEFAULT_STOPWORDS,
    EventRecord,
    is_canonical_number,
    is_number,
    normalize_number,
    preprocess_event,
    preprocess_tokens,
    stem,
    tokenize,
)

from .golden_event import EXPECTED_TOKENS, RAW_EVENT

# every code point the regex class \s matches: the ASCII ones, \x1c-\x1f,
# \x85, \xa0, \u1680, \u2000-\u200a, \u2028, \u2029, \u202f, \u205f, \u3000
WHITESPACE = "".join(re.findall(r"\s", "".join(map(chr, range(sys.maxunicode + 1)))))

# delimiters, whitespace, the in-token punctuation, digits, and letters whose
# lowercase is longer (İ) or depends on context (final Σ)
TOKENIZER_TEXT = st.text(
    alphabet=st.sampled_from("&@=#," + WHITESPACE + ".-" + "0123456789" + "aeAEZΣσİ"),
    max_size=40,
) | st.lists(
    st.sampled_from(["@CTDI@", "=", "#16.660#", " ", "\u3000", "\x85", "ΟΔΟΣ", "İD", ",", "the", "The"]),
    max_size=12,
).map("".join)


def reference_tokenize(text):
    """The regex split the tokenizer replaced."""
    return [f.lower() for f in re.split(r"[&@=#,\s]+", text) if f]


class TestTokenize:
    def test_key_value_pair(self):
        assert tokenize("@CTDI@=#16.660#") == ["ctdi", "16.660"]

    def test_empty(self):
        assert tokenize("") == []

    def test_hyphen_survives(self):
        assert tokenize("@Scandirection@=#cr-ca#") == ["scandirection", "cr-ca"]

    def test_dotted_uid_survives(self):
        assert tokenize("@ScanUID@=#1.3.12.2.1107#") == ["scanuid", "1.3.12.2.1107"]

    def test_lowercases_and_drops_empty_fragments(self):
        assert tokenize("&Load scan protocol&,,@@") == ["load", "scan", "protocol"]

    def test_whitespace_is_what_the_regex_class_matches(self):
        assert tokenize("a" + "a".join(WHITESPACE) + "a") == ["a"] * 30

    @given(TOKENIZER_TEXT)
    def test_equals_regex_split(self, text):
        assert tokenize(text) == reference_tokenize(text)


class TestStem:
    @pytest.mark.parametrize(
        "word, expected",
        [
            ("protocol", "protocol"),
            ("scandirection", "scandirect"),
            ("x", "x"),
            ("slices", "slic"),
            ("size", "siz"),
            ("original", "origin"),
            ("normal", "norm"),
            ("none", "non"),
            ("readings", "read"),
            ("mas", "mas"),  # stripping 's' would leave too short a stem
        ],
    )
    def test_examples(self, word, expected):
        assert stem(word) == expected

    @given(st.text(alphabet="abcdefghijklmnopqrstuvwxyz", min_size=1, max_size=20))
    def test_idempotent_and_never_empty(self, word):
        once = stem(word)
        assert once
        assert stem(once) == once


class TestNormalizeNumber:
    @pytest.mark.parametrize(
        "token, expected",
        [
            ("16.660", "16.66"),
            ("120", "120.00"),
            ("1.3.12.2.1107", "1.3.12.2.1107"),
            ("0", "0.00"),
            ("59.975", "59.98"),  # half away from zero
            ("-2.345", "-2.35"),
            ("rot00", "rot00"),
            ("cr-ca", "cr-ca"),
        ],
    )
    def test_examples(self, token, expected):
        assert normalize_number(token) == expected

    @given(st.decimals(allow_nan=False, allow_infinity=False, places=6))
    def test_canonical_form_is_fixed_point(self, value):
        normalized = normalize_number(str(value))
        assert is_canonical_number(normalized)
        assert normalize_number(normalized) == normalized


def uncached_preprocess(raw_tokens):
    return [normalize_number(t) if is_number(t) else stem(t) for t in raw_tokens if t not in DEFAULT_STOPWORDS]


class TestPreprocessTokens:
    @given(
        st.lists(
            st.one_of(
                st.sampled_from(sorted(DEFAULT_STOPWORDS)),
                st.from_regex(r"-?\d{1,8}(\.\d{1,4})?", fullmatch=True),
                st.text(alphabet="abcdeginorst.-0123456789", min_size=1, max_size=12),
            ),
            max_size=30,
        )
    )
    def test_matches_uncached_composition(self, raw):
        assert preprocess_tokens(raw) == uncached_preprocess(raw)


class TestPreprocessEvent:
    def test_golden_event(self):
        event = EventRecord("e1", "2018-12-01T00:00:00", "scan", RAW_EVENT)
        assert list(preprocess_event(event).tokens) == EXPECTED_TOKENS

    def test_golden_event_kpi_subsequence_in_order(self):
        event = EventRecord("e1", "2018-12-01T00:00:00", "scan", RAW_EVENT)
        tokens = list(preprocess_event(event).tokens)
        needle = ["ctdi", "16.66", "dlp", "59.98"]
        starts = [i for i in range(len(tokens)) if tokens[i : i + len(needle)] == needle]
        assert starts

    def test_golden_event_numbers_canonical(self):
        event = EventRecord("e1", "2018-12-01T00:00:00", "scan", RAW_EVENT)
        for token in preprocess_event(event).tokens:
            if is_number(token):
                assert is_canonical_number(token)

    def test_stopword_only_event_is_empty(self):
        event = EventRecord("e1", "t", "x", "the and or was")
        assert preprocess_event(event).tokens == ()

    def test_prefix_words(self):
        event = EventRecord("e1", "t", "x", "&Load scan protocol&")
        assert list(preprocess_event(event).tokens) == ["load", "scan", "protocol"]

    def test_single_letter_a_survives(self):
        event = EventRecord("e1", "t", "x", "@Anodespeed A@=#120#")
        assert list(preprocess_event(event).tokens) == ["anodesp", "a", "120.00"]

    def test_no_stopwords_in_output(self):
        event = EventRecord("e1", "t", "x", RAW_EVENT)
        assert not set(preprocess_event(event).tokens) & DEFAULT_STOPWORDS

    def test_idempotent_on_rejoined_output(self):
        tokens = preprocess_tokens(tokenize(RAW_EVENT))
        assert preprocess_tokens(tokenize(" ".join(tokens))) == tokens

    def test_deterministic(self):
        event = EventRecord("e1", "t", "x", RAW_EVENT)
        assert preprocess_event(event) == preprocess_event(event)

    @given(TOKENIZER_TEXT)
    def test_equals_preprocess_tokens_over_regex_split(self, text):
        event = EventRecord("e1", "t", "x", text)
        assert list(preprocess_event(event).tokens) == preprocess_tokens(reference_tokenize(text))
        assert preprocess_tokens(reference_tokenize(text)) == uncached_preprocess(reference_tokenize(text))
