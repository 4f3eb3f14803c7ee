"""Executable parsing patterns: model states + trigger -> extracted values.

A pattern matches a line when the line's token set contains every required
token; the value is the numeric token immediately after the first
occurrence of any trigger alias.  A match without a numeric follower
yields nothing rather than scanning ahead, which would risk grabbing the
next field's value.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field

from .hmm import Hmm, state_followers
from .preprocess import TokenSequence, is_number, normalize_number

# the KPI a generated corpus plants and a trained pattern extracts by default
DEFAULT_KPI = "ctdi"


@dataclass(frozen=True)
class ParsingPattern:
    required_tokens: frozenset[str]
    trigger: str
    kpi_name: str
    trigger_aliases: tuple[str, ...]

    def __post_init__(self):
        if self.trigger not in self.required_tokens:
            raise ValueError("trigger must be one of the required tokens")
        if not self.trigger_aliases:
            raise ValueError("trigger_aliases must contain at least the trigger")


@dataclass
class KpiTable:
    """Extracted (event_id, kpi, value) rows; at most one row per key."""

    rows: list[tuple[str, str, str]] = field(default_factory=list)

    CSV_HEADER = ("event_id", "kpi", "value")

    def add(self, event_id: str, kpi: str, value: str) -> None:
        self.rows.append((event_id, kpi, value))

    def as_dict(self) -> dict[tuple[str, str], str]:
        return {(eid, kpi): value for eid, kpi, value in self.rows}

    def to_csv(self) -> str:
        """The table as CSV text; a repeated key, which from_csv refuses, raises ValueError."""
        seen = set()
        for eid, kpi, _ in self.rows:
            if (eid, kpi) in seen:
                raise ValueError(f"duplicate KPI row for ({eid}, {kpi})")
            seen.add((eid, kpi))
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        # the writer quotes a field holding its line terminator "\n" but not a
        # lone "\r", which a reader also ends a line at, so such rows are quoted
        quoting_writer = csv.writer(buf, lineterminator="\n", quoting=csv.QUOTE_ALL)
        writer.writerow(self.CSV_HEADER)
        for row in self.rows:
            (quoting_writer if "\r" in "".join(row) else writer).writerow(row)
        return buf.getvalue()

    def write_csv(self, path) -> None:
        text = self.to_csv()
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)

    @classmethod
    def from_csv(cls, text: str) -> "KpiTable":
        reader = csv.reader(io.StringIO(text))
        try:
            rows = list(reader)
        except csv.Error as exc:
            # a lone carriage return in an unquoted field, for one
            raise ValueError(f"bad KPI table line {reader.line_num}: {exc}") from None
        header = rows[0] if rows else None
        if header is None or tuple(header) != cls.CSV_HEADER:
            raise ValueError(f"bad KPI table header: {header!r}")
        table = cls()
        seen = set()
        for row in rows[1:]:
            if len(row) != 3:
                raise ValueError(f"bad KPI table row: {row!r}")
            eid, kpi, value = row
            if (eid, kpi) in seen:
                raise ValueError(f"duplicate KPI row for ({eid}, {kpi})")
            seen.add((eid, kpi))
            table.add(eid, kpi, normalize_number(value))
        return table


def normalize_aliases(trigger: str, aliases) -> tuple[str, ...]:
    """The aliases as a tuple, with the trigger put first when it is missing."""
    aliases = tuple(aliases or ())
    if trigger not in aliases:
        aliases = (trigger,) + aliases
    return aliases


def compile_pattern(
    model: Hmm,
    trigger: str,
    kpi_name: str,
    aliases: list[str] | None = None,
) -> ParsingPattern:
    """Combine model states with the trigger state token into a pattern."""
    return ParsingPattern(frozenset(model.states), trigger, kpi_name, normalize_aliases(trigger, aliases))


def parse_event(pattern: ParsingPattern, line: TokenSequence) -> str | None:
    """Extract the KPI value from one preprocessed line, if any.

    Requires full containment of the pattern tokens; the first trigger
    alias occurrence followed by a numeric token wins.
    """
    if not pattern.required_tokens <= line.token_set():
        return None
    for _, following in state_followers(line.tokens, frozenset(pattern.trigger_aliases)):
        if is_number(following):
            return normalize_number(following)
    return None


def parse_corpus(pattern: ParsingPattern, corpus: list[TokenSequence]) -> KpiTable:
    """One row per event with an extractable value, in corpus order."""
    table = KpiTable()
    for line in corpus:
        value = parse_event(pattern, line)
        if value is not None:
            table.add(line.event_id, pattern.kpi_name, value)
    return table
