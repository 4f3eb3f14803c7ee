"""Text normalization for machine-written event logs.

The CT log dialect wraps keys in ``@...@`` and values in ``#...#``, with
``=`` joining them and ``,`` separating fields.  Those five characters plus
whitespace are the structural delimiters; ``.`` and ``-`` are *not*, so
dotted identifiers ("1.3.12.2.1107") and hyphenated values ("cr-ca")
survive as single tokens.  Whitespace is every code point that
``str.split()`` splits on, the same code points that the
regular-expression whitespace class matches.

Every numeric token that preprocessing emits, including one left by the
stemmer ("100s" -> "100.00"), is canonicalized to exactly two fraction
digits, so values parsed from event text line up with values in reference
tables regardless of how many digits the writer emitted.

Each distinct fragment is normalized once and kept in a plain dict memo,
which is emptied whenever it reaches its size limit.  Because
normalization only lowercases, strips suffixes and rewrites numbers, a
non-numeric token can come only from text that contains it in lowercase;
``may_yield`` applies that to skip lines that cannot hold a token.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from decimal import ROUND_HALF_UP, Decimal, localcontext

_NUMBER = re.compile(r"-?\d+(?:\.\d+)?$")
# what normalize_number returns for a number, as Decimal writes it: ASCII
# digits, no leading zero, two fraction digits.  Used with fullmatch: $
# would also match before a trailing newline, and \d any Unicode digit.
_CANONICAL_NUMBER = re.compile(r"-?(?:0|[1-9][0-9]*)\.[0-9]{2}")

# Ordered suffix table for the stemmer: longest match first, applied
# repeatedly until no suffix fits.  Stripping never leaves a stem shorter
# than three characters ("mas" stays "mas", "kv" is never touched).
_SUFFIXES = ("ion", "ing", "al", "ed", "es", "e", "s")
_MIN_STEM = 3

# A log repeats few distinct tokens many times (3,783 distinct among 43,818
# in a 1,500-event log), so the per-fragment transform is memoised in a dict
# that is emptied when it holds this many distinct fragments.
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
    # each non-whitespace delimiter becomes a space, so str.split() splits on
    # all of them; five replace calls cost less than one str.translate
    return (
        text.replace("&", " ").replace("@", " ").replace("=", " ")
        .replace("#", " ").replace(",", " ").split()
    )


def tokenize(text: str) -> list[str]:
    """Split raw event text on structural delimiters and lowercase.

    Empty fragments are dropped; '.' and '-' stay inside tokens.
    """
    return [frag.lower() for frag in _fragments(text)]


def is_number(token: str) -> bool:
    """True if the token is a plain decimal number (at most one dot)."""
    return bool(_NUMBER.match(token))


def is_canonical_number(token: str) -> bool:
    """True if the token is a number in the form normalize_number returns for it."""
    return bool(_CANONICAL_NUMBER.fullmatch(token))


def normalize_number(token: str) -> str:
    """Rewrite a decimal number with exactly two fraction digits.

    Rounding is half-away-from-zero.  Tokens with two or more dots
    (dotted UIDs) or any non-digit character pass through unchanged, and
    so does a number already in the form this returns.
    """
    if not is_number(token) or is_canonical_number(token):
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


def _normalize_fragment(fragment: str) -> str | None:
    """Lowercase a fragment; None for a stopword, else stem it and canonicalize a number.

    No stemmer suffix can end a number, so a number passes the stemmer whole.
    A fragment already in lowercase is returned as the same object, so the
    memo does not hold a second copy of it.
    """
    token = fragment.lower()
    if token == fragment:
        token = fragment
    if token in DEFAULT_STOPWORDS:
        return None
    return normalize_number(stem(token))


class _FragmentMemo(dict):
    """fragment -> its token, or "" for a stopword; emptied when full."""

    def __missing__(self, fragment: str) -> str:
        if len(self) >= _TOKEN_CACHE_SIZE:
            self.clear()
        token = self[fragment] = _normalize_fragment(fragment) or ""
        return token


_memo = _FragmentMemo()


def preprocess_event(event: EventRecord) -> TokenSequence:
    """Turn a raw event into its normalized token sequence, one memo lookup per fragment.

    The fragments are tokenize()'s, lowercased inside the memo.  No token is
    empty, so dropping the empty strings drops exactly the stopwords.
    """
    return TokenSequence(event.event_id, tuple(filter(None, map(_memo.__getitem__, _fragments(event.text)))))


def may_yield(text: str, token: str) -> bool:
    """False only if preprocessing ``text`` cannot emit ``token``.

    A non-numeric token is a prefix of some lowercased fragment (stemming
    only strips suffixes, and normalize_number leaves a non-number alone),
    and no delimiter changes how its neighbours lowercase, so that fragment
    lies inside ``text.lower()``.  A number can be rewritten ("16.6" ->
    "16.60"), so for a numeric token every text may yield it.
    """
    return is_number(token) or token in text.lower()
