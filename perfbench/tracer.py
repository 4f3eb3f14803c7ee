"""Per-layer trace taken from outside the program.

The tracer replaces public driftparse functions, at the module attribute
that their caller looks up, with wrappers that record one span per call:
layer, start, end and the id of the enclosing span.  Spans are kept in
memory and only recorded inside a root span that the benchmark opens
around one operation, so set-up and output checks never show up.

A layer's time is the summed self time of its spans: each span's duration
minus the durations of its direct children.  Counts (lines, tokens,
states, ...), each under its metric name, are taken from a call's
arguments and result after the call has returned; that bookkeeping is
recorded as a span of the ``trace`` layer so it is not charged to the
caller's self time.
"""

from __future__ import annotations

import functools
import importlib
import os
from collections import defaultdict
from dataclasses import dataclass, field
from time import perf_counter

ROOT_LAYER = "op"
BOOKKEEPING_LAYER = "trace"

# layers whose span encloses other layers' work; they report self time
GLUE_LAYERS = ("op", "pipeline.train", "pipeline.parse_records", "adapt.viterbi", "adapt.refit")


def _preprocess_counts(result, corpus_records, *args, **kwargs):
    tokens = [token for line in result for token in line.tokens]
    return {"preprocess.tokens": len(tokens), "preprocess.distinct_tokens": len(set(tokens))}


def _load_log_counts(result, *args, **kwargs):
    return {
        "corpus.load_log.lines": len(result.records) + len(result.rejects),
        "corpus.load_log.rejects": len(result.rejects),
    }


# (module, attribute path, layer, count function or None)
WRAPS = (
    ("driftparse.corpus", "load_log", "corpus.load_log", _load_log_counts),
    ("driftparse.pipeline", "train", "pipeline.train", None),
    ("driftparse.pipeline", "parse_records", "pipeline.parse_records", None),
    ("driftparse.pipeline", "preprocess_corpus", "preprocess", _preprocess_counts),
    ("driftparse.pipeline", "mine_clusters", "mining",
     lambda r, *a, **k: {"mining.top_support": r.clusters[0].support if r.clusters else 0}),
    ("driftparse.mining", "find_frequent_tokens", "mining",
     lambda r, *a, **k: {"mining.frequent_tokens": len(r)}),
    ("driftparse.mining", "build_cluster_candidates", "mining",
     lambda r, *a, **k: {"mining.candidates": len(r)}),
    ("driftparse.pipeline", "build_hmm", "hmm.build",
     lambda r, *a, **k: {"hmm.states": len(r.states), "hmm.alphabet": len(r.emissions)}),
    ("driftparse.pipeline", "parse_corpus", "parsing",
     lambda r, pattern, corpus, *a, **k: {"parsing.lines": len(corpus), "parsing.rows": len(r.rows)}),
    ("driftparse.bundle", "save_bundle", "bundle.save",
     lambda r, model_bundle, path, *a, **k: {"bundle.bytes": os.path.getsize(path)}),
    ("driftparse.bundle", "load_bundle", "bundle.load", None),
    ("driftparse.adapt", "adapt_viterbi", "adapt.viterbi", None),
    ("driftparse.adapt", "adapt_baum_welch", "adapt.refit", None),
    ("driftparse.adapt", "viterbi_decode", "hmm.viterbi",
     lambda r, model, observations, *a, **k: {"hmm.viterbi.symbols": len(observations)}),
    ("driftparse.adapt", "baum_welch_fit", "hmm.fit",
     lambda r, *a, **k: {"hmm.fit.iterations": len(r[1]), "hmm.fit.alphabet": len(r[0].emissions)}),
    ("driftparse.hmm", "Hmm.encode", "hmm.encode", None),
    ("driftparse.evaluate", "confusion", "evaluate", None),
)


@dataclass
class Span:
    id: int
    parent: int | None
    root: int
    layer: str
    start: float
    end: float = 0.0
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans of wrapped calls made inside a root span."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._restore: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    def _open(self, layer: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(
            id=len(self.spans),
            parent=parent.id if parent else None,
            root=parent.root if parent else len(self.spans),
            layer=layer,
            start=perf_counter(),
        )
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = perf_counter()
        self._stack.pop()

    def run_root(self, fn, *args, **kwargs):
        """Call fn inside a root span; every wrapped call it makes is recorded."""
        if self._stack:
            raise RuntimeError("root spans do not nest")
        span = self._open(ROOT_LAYER)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(span)

    def call(self, layer: str, count, fn, args, kwargs):
        if not self._stack:
            return fn(*args, **kwargs)
        span = self._open(layer)
        try:
            result = fn(*args, **kwargs)
        finally:
            self._close(span)
        if count is not None:
            # a sibling of the span just closed, so the caller's self time excludes it
            bookkeeping = self._open(BOOKKEEPING_LAYER)
            span.counts = count(result, *args, **kwargs)
            self._close(bookkeeping)
        return result

    def install(self) -> None:
        """Wrap every name in WRAPS; a name that no longer exists is listed in missing."""
        if self._restore:
            raise RuntimeError("already installed")
        self.missing = []
        for module_name, path, layer, count in WRAPS:
            try:
                owner = importlib.import_module(module_name)
                *parents, attr = path.split(".")
                for name in parents:
                    owner = getattr(owner, name)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.missing.append(f"{module_name}.{path}")
                continue
            setattr(owner, attr, self._wrapper(layer, count, original))
            self._restore.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore = []

    def _wrapper(self, layer, count, original):
        @functools.wraps(original)
        def wrapped(*args, **kwargs):
            return self.call(layer, count, original, args, kwargs)

        return wrapped


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the summed durations of its direct children."""
    children = defaultdict(float)
    for span in spans:
        if span.parent is not None:
            children[span.parent] += span.duration
    return {span.id: span.duration - children[span.id] for span in spans}


def per_root(spans: list[Span]) -> list[dict[str, float]]:
    """Per root span: layer times, span counts and summed counts, by metric name.

    Layer times are self times, named ``<layer>.s`` or, for a glue layer
    that encloses other layers, ``<layer>.self_s``; ``op.total_s`` is the
    root span's whole duration.  ``<layer>.calls`` counts spans, and
    ``adapt.viterbi.voting_lines`` counts the lines ``adapt_viterbi``
    decoded, one ``viterbi_decode`` call each.
    """
    own = self_times(spans)
    by_id = {span.id: span for span in spans}
    roots: dict[int, dict[str, float]] = {}
    for span in spans:
        row = roots.setdefault(span.root, defaultdict(float))
        if span.id == span.root:
            row["op.total_s"] += span.duration
        suffix = "self_s" if span.layer in GLUE_LAYERS else "s"
        row[f"{span.layer}.{suffix}"] += own[span.id]
        row[f"{span.layer}.calls"] += 1
        for name, value in span.counts.items():
            row[name] += value
        parent = by_id.get(span.parent)
        if span.layer == "hmm.viterbi" and parent is not None and parent.layer == "adapt.viterbi":
            row["adapt.viterbi.voting_lines"] += 1
    return [dict(row) for row in roots.values()]


def mean_per_root(rows: list[dict[str, float]]) -> dict[str, float]:
    """Mean of each metric over roots; a metric absent from a root counts as 0."""
    if not rows:
        return {}
    names = {name for row in rows for name in row}
    return {name: sum(row.get(name, 0.0) for row in rows) / len(rows) for name in names}
