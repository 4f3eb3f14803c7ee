"""Command-line entry point orchestrating the pipeline end to end."""

from __future__ import annotations

import argparse
import errno
import json
import os
import sys
import tempfile
from pathlib import Path

from .adapt import adapt_baum_welch, adapt_viterbi
from .bundle import FORMAT_VERSION, ModelBundle, bundle_to_document, load_bundle, save_bundle
from .corpus import (
    DRIFT_NONE,
    DRIFT_SYSTEM_B,
    GeneratorConfig,
    file_digest,
    generate_corpus,
    load_kpi_table,
    load_log,
    write_log,
    write_manifest,
)
from .evaluate import confusion, format_confusion
from .hmm import FitConfig
from .parsing import DEFAULT_KPI, missing_tokens, parse_corpus
from .pipeline import preprocess_candidates, preprocess_corpus, train


def _atomic_write(path: Path, writer) -> None:
    """Write one file via temp file + rename so readers never see partial output."""
    _atomic_write_all([(path, writer)])


def _atomic_write_all(outputs) -> None:
    """Write each (path, writer) pair to a temp file beside its path, then rename each into place.

    A path that is a directory, which no rename can replace, is refused
    before any writer runs, and the writers run in order before the first
    rename, so a failure here leaves none of the outputs written and no temp
    file.  An output may name an input of the run, so nothing else is
    deleted.  Each output gets the mode a plain open() gives a new file,
    0o666 less the umask, not mkstemp's 0o600.
    """
    for path, _ in outputs:
        if path.is_dir():
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(path))
    umask = os.umask(0)
    os.umask(umask)
    tmps = []
    try:
        for path, writer in outputs:
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".")
            os.close(fd)
            tmps.append(tmp)
            os.chmod(tmp, 0o666 & ~umask)
            writer(tmp)
        for (path, _), tmp in zip(outputs, tmps):
            os.replace(tmp, path)
    except BaseException:
        for tmp in tmps:
            if os.path.exists(tmp):
                os.unlink(tmp)
        raise


def _refuse_overwrite(flag, output, *others) -> None:
    """Raise ValueError when the output path names another file of the run.

    others are (name, path) pairs; paths are compared after Path.resolve(),
    so two spellings of one file match.  Commands call it before they read
    anything, so a refused run writes nothing.
    """
    target = Path(output).resolve()
    for name, path in others:
        if Path(path).resolve() == target:
            raise ValueError(f"{flag} and {name} name the same file {path}: refusing to overwrite it")


def _load_records(path):
    result = load_log(path)
    for lineno, reason, _ in result.rejects:
        print(f"warning: {path}:{lineno}: {reason}", file=sys.stderr)
    if not result.records:
        raise ValueError(f"no usable events in {path}")
    return result.records


def cmd_gen(args) -> int:
    config = GeneratorConfig(
        seed=args.seed,
        n_events=args.events,
        kpi_line_fraction=args.kpi_fraction,
        drift_profile=args.drift,
    )
    records, truth = generate_corpus(config)
    out = Path(args.output)
    # one step for all three, so a file that cannot be written leaves none
    # written; the writers run in order, and the manifest digests the log
    # and truth temp files that the first two recorded in tmps
    tmps = {}
    _atomic_write_all([
        (out / "log.tsv", lambda tmp: write_log(records, tmps.setdefault("log.tsv", tmp))),
        (out / "truth.csv", lambda tmp: truth.write_csv(tmps.setdefault("truth.csv", tmp))),
        (out / "manifest.json", lambda tmp: write_manifest(tmp, config, tmps)),
    ])
    print(f"wrote {len(records)} events ({len(truth.rows)} KPI rows) to {out}")
    return 0


def cmd_train(args) -> int:
    _refuse_overwrite("-o", args.output, ("the log", args.log), ("the truth table", args.truth))
    records = _load_records(args.log)
    truth = load_kpi_table(args.truth)
    bundle = train(
        records,
        truth,
        kpi_name=args.kpi,
        threshold=args.threshold,
        aliases=args.alias,
        provenance=f"sha256:{file_digest(args.log)}",
    )
    _atomic_write(Path(args.output), lambda tmp: save_bundle(bundle, tmp))
    print(f"cluster ({len(bundle.pattern.required_tokens)} tokens): "
          + " ".join(sorted(bundle.pattern.required_tokens)))
    print(f"trigger: {bundle.pattern.trigger}")
    print(f"states: {len(bundle.hmm.states)}, emissions: {len(bundle.hmm.emissions)}")
    return 0


def cmd_parse(args) -> int:
    _refuse_overwrite("-o", args.output, ("the bundle", args.bundle), ("the log", args.log))
    bundle = load_bundle(args.bundle)
    pattern = bundle.pattern
    records = _load_records(args.log)
    corpus = preprocess_candidates(pattern, records)
    table = parse_corpus(pattern, corpus)
    _atomic_write(Path(args.output), lambda tmp: table.write_csv(tmp))
    print(f"parsed {len(table.rows)} rows from {len(records)} lines")
    # what drift took out of the lines the pattern no longer reads: the five
    # required tokens most often missing, ties in token order
    unmatched, missing = missing_tokens(pattern, corpus)
    top = sorted(missing.items(), key=lambda item: (-item[1], item[0]))[:5]
    lack = "; they lack " + ", ".join(f"{token} ({count})" for token, count in top) if top else ""
    print(f"{unmatched} lines hold the trigger {pattern.trigger} but do not match{lack}")
    return 0


def cmd_adapt(args) -> int:
    # built for either strategy, so a bad --max-iterations is refused before anything is read
    config = FitConfig(max_iterations=args.max_iterations)
    report_path = Path(args.report or (str(args.output) + ".report.json"))
    # -o may name the input bundle: the output is a bundle too
    _refuse_overwrite("-o", args.output, ("the log", args.log))
    _refuse_overwrite(
        "--report", report_path, ("the bundle", args.bundle), ("the log", args.log), ("-o", args.output)
    )
    bundle = load_bundle(args.bundle)
    records = _load_records(args.log)
    if args.strategy == "baum-welch":
        # the refit fits every line's observations, not only the trigger lines'
        corpus = preprocess_corpus(records)
        model, pattern, report = adapt_baum_welch(bundle.hmm, bundle.pattern, corpus, config)
    else:
        # only trigger lines vote, and each is a candidate
        corpus = preprocess_candidates(bundle.pattern, records)
        model, pattern, report = adapt_viterbi(bundle.hmm, bundle.pattern, corpus)
    adapted = ModelBundle(model, pattern, bundle.mining_config, bundle.provenance)
    report_doc = {
        "strategy": args.strategy,
        "required_tokens_before": sorted(bundle.pattern.required_tokens),
        "required_tokens_after": sorted(pattern.required_tokens),
        "loglik_trace": list(report.loglik_trace),
        "voting_lines": report.voting_lines,
        "distinct_decodes": report.distinct_decodes,
        "consensus": dict(report.consensus),
    }

    def write_report(tmp):
        with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
            json.dump(report_doc, fh, indent=2, sort_keys=True)
            fh.write("\n")

    # one step for both, so a report that cannot be written leaves -o as it was
    _atomic_write_all([(Path(args.output), lambda tmp: save_bundle(adapted, tmp)), (report_path, write_report)])
    print(f"strategy: {args.strategy}")
    print(f"required tokens: {len(bundle.pattern.required_tokens)} -> {len(pattern.required_tokens)}")
    print(f"trigger: {bundle.pattern.trigger} -> {pattern.trigger}")
    if report.loglik_trace:
        print(f"log-likelihood: {report.loglik_trace[0]:.3f} -> {report.loglik_trace[-1]:.3f} "
              f"in {len(report.loglik_trace)} iterations")
    return 0


def cmd_eval(args) -> int:
    if args.csv:
        _refuse_overwrite("--csv", args.csv, ("the parsed table", args.parsed), ("the truth table", args.truth))
    parsed = load_kpi_table(args.parsed)
    truth = load_kpi_table(args.truth)
    cm = confusion(parsed, truth, args.universe)
    print(format_confusion(cm))
    if args.csv:
        _atomic_write(
            Path(args.csv),
            lambda tmp: Path(tmp).write_text(
                "tp,fp,fn,tn\n" + f"{cm.tp},{cm.fp},{cm.fn},{cm.tn}\n", encoding="utf-8"
            ),
        )
    return 0


def cmd_inspect(args) -> int:
    bundle = load_bundle(args.bundle)
    if args.json:
        print(json.dumps(bundle_to_document(bundle), indent=2, sort_keys=True))
        return 0
    print(f"format version: {FORMAT_VERSION}")
    print(f"provenance: {bundle.provenance}")
    print(f"kpi: {bundle.pattern.kpi_name}")
    print(f"trigger: {bundle.pattern.trigger} (aliases: {', '.join(sorted(bundle.pattern.trigger_aliases))})")
    print(f"mining threshold: {bundle.mining_config.threshold}")
    print(f"required tokens ({len(bundle.pattern.required_tokens)}):")
    for token in sorted(bundle.pattern.required_tokens):
        print(f"  {token}")
    print(f"states: {len(bundle.hmm.states)}, emission alphabet: {len(bundle.hmm.emissions)}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="driftparse", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a synthetic corpus plus ground truth")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--events", type=int, required=True)
    p.add_argument("--drift", choices=(DRIFT_NONE, DRIFT_SYSTEM_B),
                   default=GeneratorConfig.drift_profile)
    p.add_argument("--kpi-fraction", type=float, default=GeneratorConfig.kpi_line_fraction)
    p.add_argument("-o", "--output", required=True, help="output directory")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("train", help="learn a parsing pattern from logs plus truth")
    p.add_argument("log")
    p.add_argument("truth")
    p.add_argument("--kpi", default=DEFAULT_KPI)
    p.add_argument("--threshold", type=int, default=None,
                   help="mining threshold (default: number of truth rows of the KPI)")
    p.add_argument("--alias", action="append", help="additional trigger alias token")
    p.add_argument("-o", "--output", required=True, help="bundle output path")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("parse", help="extract KPI values with a trained bundle")
    p.add_argument("bundle")
    p.add_argument("log")
    p.add_argument("-o", "--output", required=True, help="KPI CSV output path")
    p.set_defaults(func=cmd_parse)

    p = sub.add_parser("adapt", help="adapt a bundle to a drifted corpus")
    p.add_argument("bundle")
    p.add_argument("log")
    p.add_argument("--strategy", choices=("baum-welch", "viterbi"), required=True)
    p.add_argument("--max-iterations", type=int, default=FitConfig().max_iterations)
    p.add_argument("--report", help="report path (default: <output>.report.json)")
    p.add_argument("-o", "--output", required=True, help="adapted bundle output path")
    p.set_defaults(func=cmd_adapt)

    p = sub.add_parser("eval", help="score a parsed table against ground truth")
    p.add_argument("parsed")
    p.add_argument("truth")
    p.add_argument("--universe", type=int, required=True,
                   help="total number of candidate extraction slots")
    p.add_argument("--csv", help="also write counts to this CSV path")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("inspect", help="print a bundle in human-readable form")
    p.add_argument("bundle")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_inspect)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
