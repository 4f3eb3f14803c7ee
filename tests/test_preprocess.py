import ast
import re
import sys
from decimal import ROUND_HALF_UP, Decimal, localcontext
from importlib.util import resolve_name
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import driftparse
from driftparse import preprocess
from driftparse.preprocess import (
    DEFAULT_STOPWORDS,
    EventRecord,
    is_canonical_number,
    is_number,
    may_yield,
    normalize_number,
    preprocess_event,
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

    @given(
        st.one_of(
            st.from_regex(r"-?[0-9]{1,45}\.[0-9]{1,3}\n?", fullmatch=True),
            st.text(alphabet="-.0123456789\n\u0663\u0665\u0660", max_size=12),
            st.decimals(allow_nan=False, allow_infinity=False, places=2).map(str),
        )
    )
    @example("007.50")
    @example("-0.00")
    @example("1.50\n")
    @example("\u0663.\u0665\u0660")
    @example("1" * 40 + ".50")
    def test_equals_the_decimal_path(self, token):
        # a canonical number skips Decimal; that must change no result
        assert normalize_number(token) == decimal_normalize(token)


def decimal_normalize(token):
    """normalize_number through Decimal alone, with no shortcut for canonical numbers."""
    if not is_number(token):
        return token
    value = Decimal(token)
    with localcontext() as ctx:
        ctx.prec = max(28, len(value.as_tuple().digits) + 2)
        return str(value.quantize(Decimal("0.01"), rounding=ROUND_HALF_UP))


def test_normalize_number_used_only_by_its_two_owners():
    """Preprocessing canonicalizes tokens and KpiTable.add stored values; no other code may."""

    class Uses(ast.NodeVisitor):
        def __init__(self, module):
            self.scope, self.found = [module], []

        def visit_scope(self, node):
            self.scope.append(node.name)
            self.generic_visit(node)
            self.scope.pop()

        visit_FunctionDef = visit_AsyncFunctionDef = visit_ClassDef = visit_scope

        def visit_Name(self, node):
            if node.id == "normalize_number":
                self.found.append(".".join(self.scope))

        def visit_Attribute(self, node):
            if node.attr == "normalize_number":
                self.found.append(".".join(self.scope))
            self.generic_visit(node)

    found = []
    for path in sorted(Path(driftparse.__file__).parent.glob("*.py")):
        uses = Uses(path.stem)
        uses.visit(ast.parse(path.read_text(encoding="utf-8")))
        found += uses.found
    assert sorted(found) == ["parsing.KpiTable.add", "preprocess._normalize_fragment"]


def test_lower_layers_import_only_preprocess():
    """preprocess imports nothing from the package; mining and hmm import only preprocess."""

    def package_imports(tree):
        """The package modules a module imports, relative or absolute; the package itself is __init__."""
        found = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                base = resolve_name("." * node.level + (node.module or ""), "driftparse")
                modules = [f"{base}.{alias.name}" for alias in node.names]
            else:
                continue
            for module in modules:
                top, _, rest = module.partition(".")
                if top == "driftparse":
                    found.add(rest.partition(".")[0] or "__init__")
        return found

    imports = {
        path.stem: package_imports(ast.parse(path.read_text(encoding="utf-8")))
        for path in Path(driftparse.__file__).parent.glob("*.py")
    }
    assert imports["preprocess"] == set()
    assert imports["mining"] | imports["hmm"] <= {"preprocess"}


def uncached_preprocess(raw_tokens):
    return [normalize_number(stem(t)) for t in raw_tokens if t not in DEFAULT_STOPWORDS]


def preprocess_text(text):
    return list(preprocess_event(EventRecord("e1", "t", "x", text)).tokens)


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
        # the drawn tokens hold no delimiter, so joining them with spaces
        # gives preprocess_event the same fragments
        assert preprocess_text(" ".join(raw)) == uncached_preprocess(raw)


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
        tokens = preprocess_text(RAW_EVENT)
        assert preprocess_text(" ".join(tokens)) == tokens

    def test_deterministic(self):
        event = EventRecord("e1", "t", "x", RAW_EVENT)
        assert preprocess_event(event) == preprocess_event(event)

    @given(TOKENIZER_TEXT)
    def test_equals_preprocess_tokens_over_regex_split(self, text):
        assert preprocess_text(text) == uncached_preprocess(reference_tokenize(text))

    @given(
        st.text(alphabet=st.sampled_from("@=#, .-0123456789sedingoaLS"), max_size=30)
        | st.lists(st.sampled_from(["16.6s", "100s", "7.5e", "2ing", "0.6", "-3", "ion", " "]), max_size=8).map(" ".join)
    )
    @example("@Scan time@=#16.6s#")
    def test_every_number_out_is_canonical(self, text):
        # the stemmer can leave a number behind ("16.6s" -> "16.6"), which
        # must come out canonical like any other
        for token in preprocess_text(text):
            if is_number(token):
                assert is_canonical_number(token), token


# delimiters and whitespace beside letters whose lowercase is longer (İ),
# lands in ASCII (\u212a, the Kelvin sign) or depends on context (Σ), and
# letters lowercasing leaves alone though they case-fold (ς, ſ, ß, ﬃ);
# arbitrary characters fill the rest
LOWERCASE_TEXT = st.text(
    alphabet=st.sampled_from("&@=#," + WHITESPACE + "Σςİ\u212aſßﬃ" + "aS.'") | st.characters(),
    max_size=40,
)


class TestMayYield:
    @settings(max_examples=1000)
    @given(LOWERCASE_TEXT)
    @example("ΟΔΟΣ,X")
    @example("AΣ'B")
    @example("A\u3000Σ")
    @example("\u212aELVIN ſS ﬃ İD")
    def test_every_non_numeric_token_is_in_the_lowercased_text(self, text):
        lowered = text.lower()
        for token in preprocess_text(text):
            if not is_number(token):
                assert token in lowered, token
                assert may_yield(text, token)

    def test_numeric_token_always_may_be_yielded(self):
        # "16.6" comes out as "16.60", which the text does not hold
        assert preprocess_text("@CTDI@=#16.6#")[-1] == "16.60"
        assert may_yield("@CTDI@=#16.6#", "16.60")
        assert may_yield("", "16.60")

    def test_text_without_the_token_cannot_yield_it(self):
        assert not may_yield("@DLP@=#59.98#", "ctdi")
        assert may_yield("@CTDI@=#16.66#", "ctdi")


class TestFragmentMemo:
    def test_lowercase_fragment_is_kept_as_the_same_object(self):
        fragment = "".join(["miadu", "lt"])  # built at run time, so not interned
        assert preprocess._normalize_fragment(fragment) is fragment

    def test_never_exceeds_its_size(self, monkeypatch):
        monkeypatch.setattr(preprocess, "_TOKEN_CACHE_SIZE", 4)
        monkeypatch.setattr(preprocess, "_memo", preprocess._FragmentMemo())
        raw = [f"Word{i} the {i}.5 Slices{i % 3}" for i in range(20)]
        for text in raw + raw:
            assert preprocess_text(text) == uncached_preprocess(reference_tokenize(text))
            assert len(preprocess._memo) <= 4
