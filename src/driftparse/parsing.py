"""Executable parsing patterns: model states + trigger -> extracted values.

A pattern matches a line when the line's token set contains every required
token; the value is the token immediately after the first occurrence of
any trigger alias that is followed by a number.  Only the token right
after an alias occurrence is read: a match in which no alias occurrence
is followed by a number yields nothing rather than scanning further
ahead, which would risk grabbing the next field's value.
"""

from __future__ import annotations

import csv
import io
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain

from .hmm import state_followers
from .preprocess import TokenSequence, is_number, normalize_number

# the KPI a generated corpus plants and a trained pattern extracts by default
DEFAULT_KPI = "ctdi"


@dataclass(frozen=True)
class ParsingPattern:
    """Required tokens and trigger aliases: two sets that each hold the trigger."""

    required_tokens: frozenset[str]
    trigger: str
    kpi_name: str
    trigger_aliases: frozenset[str]

    def __post_init__(self):
        if self.trigger not in self.required_tokens:
            raise ValueError("trigger must be one of the required tokens")
        if self.trigger not in self.trigger_aliases:
            raise ValueError("trigger must be one of the trigger aliases")


@dataclass
class KpiTable:
    """Extracted (event_id, kpi, value) rows: one per key, each value canonical.

    add() owns both rules, and the constructor's rows go through it, so a
    table in memory holds exactly the rows its CSV form loads back as.
    """

    rows: list[tuple[str, str, str]] = field(default_factory=list)
    _keys: set[tuple[str, str]] = field(init=False, repr=False, compare=False, default_factory=set)

    CSV_HEADER = ("event_id", "kpi", "value")

    def __post_init__(self):
        rows, self.rows = self.rows, []
        for row in rows:
            self.add(*row)

    def add(self, event_id: str, kpi: str, value: str) -> None:
        """Append a row with its value canonicalized; a repeated key raises ValueError."""
        key = (event_id, kpi)
        if key in self._keys:
            raise ValueError(f"duplicate KPI row for ({event_id}, {kpi})")
        self._keys.add(key)
        self.rows.append((event_id, kpi, normalize_number(value)))

    def as_dict(self) -> dict[tuple[str, str], str]:
        return {(eid, kpi): value for eid, kpi, value in self.rows}

    def to_csv(self) -> str:
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
        """Read CSV text; each refusal names the line it is on."""
        reader = csv.reader(io.StringIO(text))
        table = cls()
        try:
            header = next(reader, None)
            if header is None or tuple(header) != cls.CSV_HEADER:
                raise ValueError(f"bad KPI table header: {header!r}")
            for row in reader:
                if len(row) != 3:
                    raise ValueError(f"bad KPI table row: {row!r}")
                table.add(*row)
        except (ValueError, csv.Error) as exc:
            # lines end at "\n" only, so a new-line csv finds in an unquoted
            # field is a lone "\r"; csv's own message names a file mode instead
            unquoted_cr = isinstance(exc, csv.Error) and "new-line" in str(exc)
            reason = "unquoted carriage return in a field" if unquoted_cr else exc
            # empty text is line 1
            raise ValueError(f"line {max(reader.line_num, 1)}: {reason}") from None
        return table


def parse_event(pattern: ParsingPattern, line: TokenSequence) -> str | None:
    """Extract the KPI value from one preprocessed line, if any.

    Requires full containment of the pattern tokens; the first trigger
    alias occurrence followed by a numeric token, already canonical, wins.
    """
    if not pattern.required_tokens <= line.token_set():
        return None
    for _, following in state_followers(line.tokens, pattern.trigger_aliases):
        if is_number(following):
            return following
    return None


def parse_corpus(pattern: ParsingPattern, corpus: list[TokenSequence]) -> KpiTable:
    """One row per event with an extractable value, in corpus order."""
    table = KpiTable()
    for line in corpus:
        value = parse_event(pattern, line)
        if value is not None:
            table.add(line.event_id, pattern.kpi_name, value)
    return table


def trigger_lines(pattern: ParsingPattern, corpus: list[TokenSequence]) -> list[TokenSequence]:
    """The lines whose tokens hold the pattern's trigger, in corpus order.

    The one rule for which lines a pattern reads: the trigger is a required
    token, so no other line can match.  parse, missing_tokens and both adapt
    strategies read only these lines; one holding only an alias is not one
    of them.  pipeline.preprocess_candidates is the rule's text half.
    """
    return [line for line in corpus if pattern.trigger in line.tokens]


def missing_tokens(pattern: ParsingPattern, corpus: list[TokenSequence]) -> tuple[int, Counter[str]]:
    """The trigger lines that do not match, and per required token how many of them lack it.

    A trigger line that does not match lacks at least one required token,
    so the counts name what drift took out of the lines the pattern no
    longer reads.  Lines that match count nothing.
    """
    lacked = [pattern.required_tokens - line.token_set() for line in trigger_lines(pattern, corpus)]
    return sum(map(bool, lacked)), Counter(chain.from_iterable(lacked))
