"""Text normalization for machine-written event logs.

The CT log dialect wraps keys in ``@...@`` and values in ``#...#``, with
``=`` joining them and ``,`` separating fields.  Those five characters plus
whitespace are the structural delimiters; ``.`` and ``-`` are *not*, so
dotted identifiers ("1.3.12.2.1107") and hyphenated values ("cr-ca")
survive as single tokens.  Whitespace is every code point that
``str.split()`` splits on, the same code points that the
regular-expression whitespace class matches.

All numeric tokens are canonicalized to exactly two fraction digits so that
values parsed from event text line up with values in reference tables
regardless of how many digits the writer emitted.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from decimal import ROUND_HALF_UP, Decimal, localcontext
from functools import lru_cache

# maps each non-whitespace delimiter to a space, so str.split() splits on all of them
_DELIMITERS_TO_SPACE = str.maketrans("&@=#,", "     ")
_NUMBER = re.compile(r"-?\d+(?:\.\d+)?$")
_CANONICAL_NUMBER = re.compile(r"-?\d+\.\d{2}$")

# Ordered suffix table for the stemmer: longest match first, applied
# repeatedly until no suffix fits.  Stripping never leaves a stem shorter
# than three characters ("mas" stays "mas", "kv" is never touched).
_SUFFIXES = ("ion", "ing", "al", "ed", "es", "e", "s")
_MIN_STEM = 3

# A log repeats few distinct tokens many times (3,783 distinct among 43,818
# in a 1,500-event log), so the per-fragment transform is memoised up to this
# many distinct fragments.
_TOKEN_CACHE_SIZE = 1 << 16

# The one stopword list: a bundle does not record one, so training, parsing
# and adaptation must all drop the same words.  Deliberately small:
# machine-written logs reuse short words ("no", "of", "on", "off", "a") as
# field content, so those must survive preprocessing and are excluded here.
DEFAULT_STOPWORDS = frozenset(
    """
    the and or is are was were be been being am to in for with by at from
    as an it its this that these those not but if then than there here
    which who whom what when where while how such same so too very can
    will just should would could shall may might must
    """.split()
)


@dataclass(frozen=True)
class EventRecord:
    """One raw log event: a timestamped, typed, uniquely identified line."""

    event_id: str
    timestamp: str
    event_type: str
    text: str


@dataclass(frozen=True)
class TokenSequence:
    """Ordered, preprocessed tokens of a single event."""

    event_id: str
    tokens: tuple[str, ...] = field(default_factory=tuple)

    def token_set(self) -> frozenset[str]:
        return frozenset(self.tokens)


def _fragments(text: str) -> list[str]:
    """The non-empty runs of text between structural delimiters, case kept."""
    return text.translate(_DELIMITERS_TO_SPACE).split()


def tokenize(text: str) -> list[str]:
    """Split raw event text on structural delimiters and lowercase.

    Empty fragments are dropped; '.' and '-' stay inside tokens.
    """
    return [frag.lower() for frag in _fragments(text)]


def is_number(token: str) -> bool:
    """True if the token is a plain decimal number (at most one dot)."""
    return bool(_NUMBER.match(token))


def is_canonical_number(token: str) -> bool:
    """True if the token is a number in canonical two-decimal form."""
    return bool(_CANONICAL_NUMBER.match(token))


def normalize_number(token: str) -> str:
    """Rewrite a decimal number with exactly two fraction digits.

    Rounding is half-away-from-zero.  Tokens with two or more dots
    (dotted UIDs) or any non-digit character pass through unchanged.
    """
    if not is_number(token):
        return token
    value = Decimal(token)
    # quantize() overflows the default 28-digit context on very long
    # numbers, so give it room for every integer digit plus two
    with localcontext() as ctx:
        ctx.prec = max(28, len(value.as_tuple().digits) + 2)
        quantized = value.quantize(Decimal("0.01"), rounding=ROUND_HALF_UP)
    return str(quantized)


def stem(word: str) -> str:
    """Deterministic suffix-stripping stemmer.

    Repeatedly removes the longest matching suffix from the table while at
    least three characters remain, so the result is idempotent:
    stem(stem(w)) == stem(w).
    """
    current = word
    while True:
        for suffix in _SUFFIXES:
            if current.endswith(suffix) and len(current) - len(suffix) >= _MIN_STEM:
                current = current[: -len(suffix)]
                break
        else:
            return current


@lru_cache(maxsize=_TOKEN_CACHE_SIZE)
def _normalize_fragment(fragment: str) -> str | None:
    """Lowercase a fragment; None for a stopword, else canonicalize a number or stem a word."""
    token = fragment.lower()
    if token in DEFAULT_STOPWORDS:
        return None
    return normalize_number(token) if is_number(token) else stem(token)


def preprocess_tokens(raw_tokens: list[str]) -> list[str]:
    """Drop stopwords, stem words, canonicalize numbers; order preserved.

    The tokens are tokenize() output, already lowercase; lowercasing them
    again inside the shared per-fragment cache changes nothing.
    """
    return [token for token in map(_normalize_fragment, raw_tokens) if token is not None]


def preprocess_event(event: EventRecord) -> TokenSequence:
    """Turn a raw event into its normalized token sequence.

    Equal to preprocess_tokens(tokenize(event.text)), with one cached
    lookup per fragment: the fragment is lowercased inside the cache.
    """
    normalized = map(_normalize_fragment, _fragments(event.text))
    return TokenSequence(event.event_id, tuple(token for token in normalized if token is not None))
