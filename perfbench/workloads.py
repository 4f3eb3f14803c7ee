"""The four workloads: seeded inputs, one CLI-equivalent operation and its output check.

Every operation goes through driftparse's public functions by module
attribute (``pipeline.train``, ``bundle.save_bundle``, ...), so the
tracer's wrappers see the calls.  Sizes are counted in scan events, the
lines that carry a KPI value; every generated log holds a fixed number of
scan and other events, so the work an operation does varies little from
seed to seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

import driftparse.adapt as adapt
import driftparse.bundle as bundle
import driftparse.corpus as corpus
import driftparse.evaluate as evaluate
import driftparse.parsing as parsing
import driftparse.pipeline as pipeline
from driftparse.hmm import FitConfig

DEFAULT_SEED = 0

# Pinned rather than taken from a default, so that unifying the CLI and
# library defaults does not change the work this benchmark measures.
FIT_CONFIG = FitConfig(max_iterations=10, loglik_tolerance=1e-3)

# Training logs are KPI-dense.  At the generator's default fraction of
# 0.35, warmup and recon lines (which share the token "status") outnumber
# scan lines on about one seed in seven, training then mines the "status"
# cluster and raises TriggerNotFoundError.  At 0.45 scan lines win on
# every seed.  Logs that are only parsed or adapted keep the default.
TRAIN_KPI_FRACTION = 0.45


@dataclass
class LogFile:
    log: Path
    truth_path: Path
    records: list
    truth: parsing.KpiTable
    lines: list | None = None  # the preprocessed records, made by the first check that needs them


@dataclass
class Inputs:
    logs: list[LogFile]  # the pool the operation cycles through
    bundle: Path | None  # the starting bundle, if the workload reads one
    out: Path  # directory the operation writes into


def scan_log(seed: int, n_scans: int, drift: str, kpi_fraction: float = 0.35, noise: dict | None = None):
    """Generate a log of exactly n_scans scan events and its truth table.

    The generator draws every line on its own, so the first n_scans scan
    events and the first n_scans * (1 - kpi_fraction) / kpi_fraction other
    events, in log order, make a log whose size and mix of lines are the
    same for every seed.
    """
    n_other = round(n_scans * (1 - kpi_fraction) / kpi_fraction)
    n_events = int((n_scans + n_other) * 1.3) + 40
    while True:
        records, truth = corpus.generate_corpus(
            corpus.GeneratorConfig(
                seed=seed,
                n_events=n_events,
                kpi_line_fraction=kpi_fraction,
                drift_profile=drift,
                noise_profile=noise or {},
            )
        )
        if len(truth.rows) >= n_scans and len(records) - len(truth.rows) >= n_other:
            break
        n_events *= 2
    rows = truth.rows[:n_scans]
    scans, all_scans = {row[0] for row in rows}, {row[0] for row in truth.rows}
    kept, others = [], 0
    for record in records:
        if record.event_id in scans:
            kept.append(record)
        elif record.event_id not in all_scans and others < n_other:
            kept.append(record)
            others += 1
    return kept, parsing.KpiTable(rows)


def write_log_file(directory: Path, seed: int, n_scans: int, drift: str, kpi_fraction=0.35, noise=None) -> LogFile:
    directory.mkdir(parents=True, exist_ok=True)
    records, truth = scan_log(seed, n_scans, drift, kpi_fraction, noise)
    log, truth_path = directory / "log.tsv", directory / "truth.csv"
    corpus.write_log(records, log)
    truth.write_csv(truth_path)
    return LogFile(log, truth_path, records, truth)


def train_starting_bundle(directory: Path, seed: int, n_scans: int) -> Path:
    """Train on a clean KPI-dense log and save the bundle, as set-up for later operations."""
    source = write_log_file(directory / "train", seed, n_scans, corpus.DRIFT_NONE, TRAIN_KPI_FRACTION)
    path = directory / "start.bundle.json"
    bundle.save_bundle(pipeline.train(source.records, source.truth), path)
    return path


def _scaled(n: int, scale: int) -> int:
    return max(1, n // scale)


def _hit_and_fp(pattern, lines, source: LogFile) -> tuple[int, int, int]:
    table = parsing.parse_corpus(pattern, lines)
    cm = evaluate.confusion(table, source.truth, len(source.records))
    return cm.tp, cm.fp, cm.fn


def _reload_problems(path: Path, expected: bundle.ModelBundle) -> list[str]:
    loaded = bundle.load_bundle(path)
    same = (
        loaded.hmm.states == expected.hmm.states
        and loaded.hmm.emissions == expected.hmm.emissions
        and all(np.array_equal(getattr(loaded.hmm, m), getattr(expected.hmm, m)) for m in ("ps", "pt", "pe"))
        and loaded.pattern == expected.pattern
        and loaded.mining_config == expected.mining_config
    )
    return [] if same else [f"{path.name} does not reload to the saved model and pattern"]


def _adapted_bundle(start: bundle.ModelBundle, model, pattern) -> bundle.ModelBundle:
    return bundle.ModelBundle(model, pattern, start.mining_config, start.provenance)


class Workload:
    """One workload: set-up makes the inputs, op runs one operation, check verifies it.

    op returns a dict with at least ``events`` (events the operation
    processed) and ``bundle_path`` (the bundle it wrote, or read if it
    writes none).  check returns the problems found and a summary that
    must equal the recorded one when the seed is DEFAULT_SEED.
    """

    name = ""

    def setup(self, workdir: Path, seed: int, scale: int = 1) -> Inputs:
        raise NotImplementedError

    def op(self, inputs: Inputs, i: int) -> dict:
        raise NotImplementedError

    def check(self, inputs: Inputs, i: int, outcome: dict) -> tuple[list[str], dict]:
        raise NotImplementedError


class TrainLarge(Workload):
    name = "train-large"
    TRAIN_SCANS = 1000  # about 2,200 events

    def setup(self, workdir, seed, scale=1):
        log = write_log_file(
            workdir / "train", seed, _scaled(self.TRAIN_SCANS, scale), corpus.DRIFT_NONE, TRAIN_KPI_FRACTION
        )
        return Inputs([log], None, workdir / "out")

    def op(self, inputs, i):
        source = inputs.logs[0]
        records = corpus.load_log(source.log).records
        truth = corpus.load_kpi_table(source.truth_path)
        trained = pipeline.train(records, truth)
        inputs.out.mkdir(exist_ok=True)
        path = inputs.out / "bundle.json"
        bundle.save_bundle(trained, path)
        return {"events": len(records), "bundle_path": path, "bundle": trained}

    def check(self, inputs, i, outcome):
        source, trained = inputs.logs[0], outcome["bundle"]
        problems = _reload_problems(outcome["bundle_path"], trained)
        if source.lines is None:
            source.lines = pipeline.preprocess_corpus(source.records)
        tp, fp, fn = _hit_and_fp(trained.pattern, source.lines, source)
        if fn or fp:
            problems.append(f"own training log: {fn} missed, {fp} false positives")
        summary = {
            "required_tokens": sorted(trained.pattern.required_tokens),
            "trigger": trained.pattern.trigger,
            "states": len(trained.hmm.states),
            "alphabet": len(trained.hmm.emissions),
            "tp": tp,
            "fp": fp,
        }
        return problems, summary


class ParseFiles(Workload):
    name = "parse-files"
    BUNDLE_SCANS = 600  # about 1,300 events
    FILE_SCANS = (175, 260, 350)  # about 500, 750 and 1,000 events

    def setup(self, workdir, seed, scale=1):
        start = train_starting_bundle(workdir, seed, _scaled(self.BUNDLE_SCANS, scale))
        logs = [
            write_log_file(
                workdir / f"file{j}",
                seed * 100 + 1 + j,
                _scaled(self.FILE_SCANS[j // 2], scale),
                corpus.DRIFT_SYSTEM_B if j % 2 else corpus.DRIFT_NONE,
            )
            for j in range(2 * len(self.FILE_SCANS))
        ]
        return Inputs(logs, start, workdir / "out")

    def op(self, inputs, i):
        j = i % len(inputs.logs)
        start = bundle.load_bundle(inputs.bundle)
        records = corpus.load_log(inputs.logs[j].log).records
        table = pipeline.parse_records(start.pattern, records)
        inputs.out.mkdir(exist_ok=True)
        path = inputs.out / f"file{j}.kpi.csv"
        table.write_csv(path)
        return {"events": len(records), "bundle_path": inputs.bundle, "csv": path, "table": table}

    def check(self, inputs, i, outcome):
        j = i % len(inputs.logs)
        source = inputs.logs[j]
        parsed = parsing.KpiTable.from_csv(outcome["csv"].read_text(encoding="utf-8"))
        cm = evaluate.confusion(parsed, source.truth, len(source.records))
        problems = []
        if parsed.rows != outcome["table"].rows:
            problems.append(f"file{j}: the CSV does not load back to the parsed rows")
        if j % 2 == 0 and (cm.fn or cm.fp):
            problems.append(f"clean file{j}: {cm.fn} missed, {cm.fp} false positives")
        return problems, {"rows": len(parsed.rows), "tp": cm.tp, "fp": cm.fp}


class AdaptViterbi(Workload):
    name = "adapt-viterbi"
    BUNDLE_SCANS = 700  # about 1,550 events
    DRIFT_SCANS = 525  # about 1,450 events

    def setup(self, workdir, seed, scale=1):
        start = train_starting_bundle(workdir, seed, _scaled(self.BUNDLE_SCANS, scale))
        drift = write_log_file(
            workdir / "drift", seed * 100 + 1, _scaled(self.DRIFT_SCANS, scale), corpus.DRIFT_SYSTEM_B
        )
        return Inputs([drift], start, workdir / "out")

    def op(self, inputs, i):
        start = bundle.load_bundle(inputs.bundle)
        records = corpus.load_log(inputs.logs[0].log).records
        lines = pipeline.preprocess_corpus(records)
        model, pattern, _ = adapt.adapt_viterbi(start.hmm, start.pattern, lines)
        adapted = _adapted_bundle(start, model, pattern)
        inputs.out.mkdir(exist_ok=True)
        path = inputs.out / "adapted.bundle.json"
        bundle.save_bundle(adapted, path)
        return {"events": len(records), "bundle_path": path, "before": start.pattern,
                "bundle": adapted, "lines": lines}

    def check(self, inputs, i, outcome):
        before, after = outcome["before"], outcome["bundle"].pattern
        problems = _reload_problems(outcome["bundle_path"], outcome["bundle"])
        if not before.required_tokens <= after.required_tokens or (
            (after.trigger, after.trigger_aliases) != (before.trigger, before.trigger_aliases)
        ):
            problems.append("Viterbi adaptation did more than add required tokens")
        tp, fp, _ = _hit_and_fp(after, outcome["lines"], inputs.logs[0])
        if fp:
            problems.append(f"adapted pattern: {fp} false positives on the drift log")
        added = sorted(after.required_tokens - before.required_tokens)
        return problems, {"added_tokens": added, "tp": tp, "fp": fp}


class AdaptRefit(Workload):
    name = "adapt-refit"
    BUNDLE_SCANS = 450  # about 1,000 events
    DRIFT_SCANS = 20  # about 55 events per log
    DRIFT_LOGS = 10
    # Every scan line drifted.  With the generator's default of 5% of scan
    # lines left in system A's format, a log this small keeps system-A
    # states above the refit's relative usage floor on about one log in
    # four, and the refit's hit rate drops below 1.
    NOISE = {"drift_fraction": 1.0}

    def setup(self, workdir, seed, scale=1):
        start = train_starting_bundle(workdir, seed, _scaled(self.BUNDLE_SCANS, scale))
        logs = [
            write_log_file(
                workdir / f"drift{j}",
                seed * 100 + 1 + j,
                _scaled(self.DRIFT_SCANS, scale),
                corpus.DRIFT_SYSTEM_B,
                noise=self.NOISE,
            )
            for j in range(self.DRIFT_LOGS)
        ]
        return Inputs(logs, start, workdir / "out")

    def op(self, inputs, i):
        j = i % len(inputs.logs)
        start = bundle.load_bundle(inputs.bundle)
        records = corpus.load_log(inputs.logs[j].log).records
        lines = pipeline.preprocess_corpus(records)
        model, pattern, report = adapt.adapt_baum_welch(start.hmm, start.pattern, lines, FIT_CONFIG)
        adapted = _adapted_bundle(start, model, pattern)
        inputs.out.mkdir(exist_ok=True)
        path = inputs.out / f"refit{j}.bundle.json"
        bundle.save_bundle(adapted, path)
        return {"events": len(records), "bundle_path": path, "bundle": adapted,
                "lines": lines, "trace": report.loglik_trace}

    def check(self, inputs, i, outcome):
        j = i % len(inputs.logs)
        pattern, trace = outcome["bundle"].pattern, outcome["trace"]
        problems = _reload_problems(outcome["bundle_path"], outcome["bundle"])
        tp, fp, fn = _hit_and_fp(pattern, outcome["lines"], inputs.logs[j])
        if fn or not tp:
            problems.append(f"drift{j}: refit hit rate {tp}/{tp + fn}, not 1")
        # EM never lowers the likelihood; allow only float rounding
        if any(b < a - 1e-9 * abs(a) for a, b in zip(trace, trace[1:])):
            problems.append(f"drift{j}: log-likelihood trace decreases: {list(trace)}")
        summary = {
            "required_tokens": sorted(pattern.required_tokens),
            "trigger": pattern.trigger,
            "tp": tp,
            "fp": fp,
            "iterations": len(trace),
        }
        return problems, summary


WORKLOADS = {w.name: w for w in (TrainLarge(), ParseFiles(), AdaptViterbi(), AdaptRefit())}
