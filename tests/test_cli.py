import inspect
import json
import re
from collections import Counter
from pathlib import Path

import pytest

from driftparse import pipeline
from driftparse.adapt import CONSENSUS_FRACTION, adapt_baum_welch, adapt_viterbi
from driftparse.bundle import load_bundle
from driftparse.cli import _atomic_write, build_parser, main
from driftparse.corpus import DRIFT_NONE, DRIFT_SYSTEM_B, GeneratorConfig, file_digest, load_log
from driftparse.hmm import FitConfig
from driftparse.parsing import DEFAULT_KPI, KpiTable, missing_tokens
from driftparse.pipeline import preprocess_corpus, train

from .conftest import A_SEED, B_SEED


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """A generated corpus pair plus a trained bundle, shared per module."""
    root = tmp_path_factory.mktemp("cli")
    assert main(["gen", "--seed", str(A_SEED), "--events", "400", "-o", str(root / "a")]) == 0
    assert main([
        "gen", "--seed", str(B_SEED), "--events", "400",
        "--drift", "system_b", "-o", str(root / "b"),
    ]) == 0
    assert main([
        "train", str(root / "a/log.tsv"), str(root / "a/truth.csv"),
        "-o", str(root / "model.json"),
    ]) == 0
    return root


class TestGen:
    def test_writes_log_truth_manifest(self, workdir):
        for name in ("log.tsv", "truth.csv", "manifest.json"):
            assert (workdir / "a" / name).exists()

    def test_manifest_digests_match_files(self, workdir):
        manifest = json.loads((workdir / "a/manifest.json").read_text())
        assert manifest["seed"] == A_SEED
        for name, digest in manifest["files"].items():
            assert digest == file_digest(workdir / "a" / name)

    def test_same_seed_same_bytes(self, tmp_path, capsys):
        for sub in ("x", "y"):
            code, _, _ = run(capsys, "gen", "--seed", "3", "--events", "100",
                             "-o", str(tmp_path / sub))
            assert code == 0
        assert (tmp_path / "x/log.tsv").read_bytes() == (tmp_path / "y/log.tsv").read_bytes()
        assert (tmp_path / "x/truth.csv").read_bytes() == (tmp_path / "y/truth.csv").read_bytes()


class TestTrain:
    def test_reports_cluster_and_trigger(self, workdir, tmp_path, capsys):
        code, out, _ = run(
            capsys, "train", str(workdir / "a/log.tsv"), str(workdir / "a/truth.csv"),
            "-o", str(tmp_path / "model.json"),
        )
        assert code == 0
        assert "trigger: ctdi" in out
        assert "cluster" in out

    def test_provenance_records_input_digest(self, workdir):
        doc = json.loads((workdir / "model.json").read_text())
        assert doc["provenance"] == f"sha256:{file_digest(workdir / 'a/log.tsv')}"

    def test_missing_input_errors(self, tmp_path, capsys):
        code, _, err = run(capsys, "train", str(tmp_path / "nope.tsv"),
                           str(tmp_path / "nope.csv"), "-o", str(tmp_path / "m.json"))
        assert code == 1
        assert err.startswith("error:")

    @pytest.mark.parametrize("threshold", ["0", "-5"])
    def test_explicit_threshold_below_one_errors(self, workdir, tmp_path, capsys, threshold):
        code, _, err = run(capsys, "train", str(workdir / "a/log.tsv"), str(workdir / "a/truth.csv"),
                           "--threshold", threshold, "-o", str(tmp_path / "m.json"))
        assert code == 1
        assert err == "error: threshold must be >= 1\n"
        assert not (tmp_path / "m.json").exists()

    def test_empty_truth_table_errors(self, workdir, tmp_path, capsys):
        truth = tmp_path / "truth.csv"
        truth.write_text("event_id,kpi,value\n")
        code, _, err = run(capsys, "train", str(workdir / "a/log.tsv"), str(truth), "-o", str(tmp_path / "m.json"))
        assert code == 1
        assert err == "error: threshold would be zero: the truth table has no ctdi rows\n"

    def test_status_cluster_on_top_is_passed_over(self, tmp_path, capsys):
        # at seed 6 the status lines outnumber the scan lines, but their
        # events have no truth value for a state to precede; the scan
        # cluster below them carries the trigger
        code, _, _ = run(capsys, "gen", "--seed", "6", "--events", "1000", "-o", str(tmp_path / "d"))
        assert code == 0
        log, truth = str(tmp_path / "d/log.tsv"), str(tmp_path / "d/truth.csv")
        code, out, _ = run(capsys, "train", log, truth, "-o", str(tmp_path / "m.json"))
        assert code == 0
        assert "trigger: ctdi" in out
        code, _, _ = run(capsys, "parse", str(tmp_path / "m.json"), log, "-o", str(tmp_path / "p.csv"))
        assert code == 0
        code, out, _ = run(capsys, "eval", str(tmp_path / "p.csv"), truth, "--universe", "4000")
        assert code == 0
        assert "sensitivity 100.0%" in out

    def test_alias_not_in_token_form_errors_and_writes_nothing(self, workdir, tmp_path, capsys):
        code, _, err = run(
            capsys, "train", str(workdir / "a/log.tsv"), str(workdir / "a/truth.csv"),
            "--alias", "CTDIvol", "-o", str(tmp_path / "model.json"),
        )
        assert code == 1
        assert err == "error: alias 'CTDIvol' preprocesses to 'ctdivol', not to itself\n"
        assert list(tmp_path.iterdir()) == []

    def test_alias_survives_inspect_and_both_adapts(self, workdir, tmp_path, capsys):
        model, refit, decoded = (tmp_path / name for name in ("model.json", "refit.json", "decoded.json"))
        code, _, _ = run(
            capsys, "train", str(workdir / "a/log.tsv"), str(workdir / "a/truth.csv"),
            "--alias", "ctdivol", "-o", str(model),
        )
        assert code == 0
        code, out, _ = run(capsys, "inspect", str(model))
        assert code == 0
        assert "trigger: ctdi (aliases: ctdi, ctdivol)\n" in out
        for strategy, source, target in (("baum-welch", model, refit), ("viterbi", refit, decoded)):
            code, _, _ = run(
                capsys, "adapt", str(source), str(workdir / "b/log.tsv"),
                "--strategy", strategy, "-o", str(target),
            )
            assert code == 0
            assert json.loads(target.read_text())["pattern"]["trigger_aliases"] == ["ctdi", "ctdivol"]


class TestParseEval:
    def test_parse_recovers_truth(self, workdir, tmp_path, capsys):
        out_csv = tmp_path / "parsed.csv"
        code, out, _ = run(capsys, "parse", str(workdir / "model.json"),
                           str(workdir / "a/log.tsv"), "-o", str(out_csv))
        assert code == 0
        parsed = KpiTable.from_csv(out_csv.read_text())
        truth = KpiTable.from_csv((workdir / "a/truth.csv").read_text())
        assert parsed.as_dict() == truth.as_dict()

    def test_duplicate_event_line_parses_to_valid_eval_input(self, workdir, tmp_path, capsys):
        log_text = (workdir / "a/log.tsv").read_text()
        scan_line = next(line for line in log_text.splitlines() if "\tscan\t" in line)
        log = tmp_path / "log.tsv"
        log.write_text(log_text + scan_line + "\n")
        out_csv = tmp_path / "parsed.csv"
        code, _, err = run(capsys, "parse", str(workdir / "model.json"), str(log), "-o", str(out_csv))
        assert code == 0
        assert "duplicate event id" in err
        parsed = KpiTable.from_csv(out_csv.read_text())
        truth = KpiTable.from_csv((workdir / "a/truth.csv").read_text())
        assert parsed.as_dict() == truth.as_dict()
        code, _, _ = run(capsys, "eval", str(out_csv), str(workdir / "a/truth.csv"),
                         "--universe", "4000")
        assert code == 0

    def test_repeated_event_id_is_a_reject_as_the_readme_says(self, tmp_path, capsys):
        # the README's KPI-table paragraph quotes this run: gen --seed 0
        # --events 300 with its first scan line appended again
        warning = "log.tsv:301: duplicate event id evt-000005, first on line 6"
        summary = "parsed 100 rows from 300 lines"
        assert main(["gen", "--seed", "0", "--events", "300", "-o", str(tmp_path)]) == 0
        log, model = tmp_path / "log.tsv", tmp_path / "model.json"
        assert main(["train", str(log), str(tmp_path / "truth.csv"), "-o", str(model)]) == 0
        text = log.read_text()
        log.write_text(text + next(line for line in text.splitlines() if "\tscan\t" in line) + "\n")
        capsys.readouterr()
        code, out, err = run(capsys, "parse", str(model), str(log), "-o", str(tmp_path / "parsed.csv"))
        assert code == 0
        assert err == f"warning: {tmp_path}/{warning}\n"
        assert out == summary + "\n" + "0 lines hold the trigger ctdi but do not match\n"
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        assert warning in readme and summary in readme

    def test_parse_names_what_the_drifted_lines_lack(self, tmp_path, capsys):
        # system_b renames five of the trained cluster's tokens in every scan line
        assert main(["gen", "--seed", "0", "--events", "1500", "-o", str(tmp_path / "a")]) == 0
        assert main(["gen", "--seed", "1000", "--events", "1000", "--drift", "system_b", "-o", str(tmp_path / "b")]) == 0
        model = tmp_path / "model.json"
        assert main(["train", str(tmp_path / "a/log.tsv"), str(tmp_path / "a/truth.csv"), "-o", str(model)]) == 0
        capsys.readouterr()
        out_csv = tmp_path / "parsed.csv"
        code, out, _ = run(capsys, "parse", str(model), str(tmp_path / "b/log.tsv"), "-o", str(out_csv))
        assert code == 0
        lacked = ("mas", "miorgcharabdomen", "mirangestartauto", "mirot", "scanuid")
        summary, missing = out.splitlines()
        assert summary == f"parsed {len(KpiTable.from_csv(out_csv.read_text()).rows)} rows from 1000 lines"
        assert missing == (
            "353 lines hold the trigger ctdi but do not match; they lack "
            + ", ".join(f"{token} (353)" for token in lacked)
        )
        bundle = load_bundle(model)
        lines = preprocess_corpus(load_log(tmp_path / "b/log.tsv").records)
        assert missing_tokens(bundle.pattern, lines) == Counter(dict.fromkeys(lacked, 353))

    def test_log_of_only_malformed_lines_errors_and_writes_nothing(self, workdir, tmp_path, capsys):
        log = tmp_path / "log.tsv"
        log.write_text("no tabs here\n2020-01-01\tscan\te1\t\n")
        out_csv = tmp_path / "parsed.csv"
        code, out, err = run(capsys, "parse", str(workdir / "model.json"), str(log), "-o", str(out_csv))
        assert code == 1
        assert out == ""
        assert err == (
            f"warning: {log}:1: expected 4 fields, got 1\n"
            f"warning: {log}:2: empty event text\n"
            f"error: no usable events in {log}\n"
        )
        assert not out_csv.exists()

    def test_invalid_utf8_line_is_one_reject(self, workdir, tmp_path, capsys):
        lines = (workdir / "a/log.tsv").read_bytes().splitlines(keepends=True)
        lines[49] = lines[49].rstrip(b"\n") + b"\xff\n"
        log = tmp_path / "log.tsv"
        log.write_bytes(b"".join(lines))
        out_csv = tmp_path / "parsed.csv"
        code, out, err = run(capsys, "parse", str(workdir / "model.json"), str(log), "-o", str(out_csv))
        assert code == 0
        assert f"{log}:50: invalid UTF-8" in err
        assert f"from {len(lines) - 1} lines" in out
        truth = KpiTable.from_csv((workdir / "a/truth.csv").read_text()).as_dict()
        parsed = KpiTable.from_csv(out_csv.read_text()).as_dict()
        assert len(parsed) >= len(truth) - 1
        assert all(truth[key] == value for key, value in parsed.items())

    def test_eval_prints_matrix_and_writes_csv(self, workdir, tmp_path, capsys):
        counts_csv = tmp_path / "counts.csv"
        code, out, _ = run(
            capsys, "eval", str(workdir / "a/truth.csv"), str(workdir / "a/truth.csv"),
            "--universe", "4000", "--csv", str(counts_csv),
        )
        assert code == 0
        assert "accuracy    100.0%" in out
        assert "sensitivity 100.0%" in out
        header, row = counts_csv.read_text().splitlines()
        assert header == "tp,fp,fn,tn"
        tp, fp, fn, tn = map(int, row.split(","))
        assert fp == fn == 0 and tp + tn == 4000

    def test_eval_replays_reference_matrix(self, tmp_path, capsys):
        # 3293 hits, 2972 misses, no false alarms over a 862658-slot
        # universe must print 99.7% accuracy and 52.6% sensitivity
        truth = KpiTable([(f"e{i}", "ctdi", "1.00") for i in range(3293 + 2972)])
        parsed = KpiTable(truth.rows[:3293])
        truth.write_csv(tmp_path / "truth.csv")
        parsed.write_csv(tmp_path / "parsed.csv")
        code, out, _ = run(
            capsys, "eval", str(tmp_path / "parsed.csv"), str(tmp_path / "truth.csv"),
            "--universe", "862658",
        )
        assert code == 0
        assert "3293" in out and "2972" in out and "856393" in out
        assert "accuracy    99.7%" in out
        assert "sensitivity 52.6%" in out

    def test_eval_unquoted_lone_carriage_return_errors(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_bytes(b"event_id,kpi,value\ne1\rx,ctdi,1.0\n")
        code, _, err = run(capsys, "eval", str(bad), str(bad), "--universe", "10")
        assert code == 1
        assert err == f"error: {bad}: line 2: unquoted carriage return in a field\n"

    def test_eval_universe_too_small_errors(self, workdir, capsys):
        code, _, err = run(capsys, "eval", str(workdir / "a/truth.csv"),
                           str(workdir / "a/truth.csv"), "--universe", "1")
        assert code == 1
        assert err.startswith("error:")


class TestAdapt:
    def test_baum_welch_shrinks_pattern(self, workdir, tmp_path, capsys):
        out_bundle = tmp_path / "adapted.json"
        code, out, _ = run(
            capsys, "adapt", str(workdir / "model.json"), str(workdir / "b/log.tsv"),
            "--strategy", "baum-welch", "--max-iterations", "3", "-o", str(out_bundle),
        )
        assert code == 0
        assert "strategy: baum-welch" in out
        report = json.loads((tmp_path / "adapted.json.report.json").read_text())
        assert len(report["required_tokens_after"]) < len(report["required_tokens_before"])
        assert report["loglik_trace"]
        assert report["voting_lines"] == 0 and report["consensus"] == {}
        doc = json.loads(out_bundle.read_text())
        assert doc["pattern"]["required_tokens"] == report["required_tokens_after"]

    def test_viterbi_grows_pattern(self, workdir, tmp_path, capsys):
        out_bundle = tmp_path / "adapted.json"
        report_path = tmp_path / "custom-report.json"
        code, out, _ = run(
            capsys, "adapt", str(workdir / "model.json"), str(workdir / "b/log.tsv"),
            "--strategy", "viterbi", "--report", str(report_path), "-o", str(out_bundle),
        )
        assert code == 0
        assert "strategy: viterbi" in out
        report = json.loads(report_path.read_text())
        assert len(report["required_tokens_after"]) > len(report["required_tokens_before"])

    def test_viterbi_report_holds_voting_lines_and_consensus(self, workdir, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        code, _, _ = run(
            capsys, "adapt", str(workdir / "model.json"), str(workdir / "b/log.tsv"),
            "--strategy", "viterbi", "--report", str(report_path), "-o", str(tmp_path / "adapted.json"),
        )
        assert code == 0
        report = json.loads(report_path.read_text())
        bundle = load_bundle(workdir / "model.json")
        lines = preprocess_corpus(load_log(workdir / "b/log.tsv").records)
        _, _, expected = adapt_viterbi(bundle.hmm, bundle.pattern, lines)
        assert report["voting_lines"] == expected.voting_lines > 0
        assert report["consensus"] == dict(expected.consensus)
        added = set(report["required_tokens_after"]) - set(report["required_tokens_before"])
        assert set(report["consensus"]) == added
        assert all(CONSENSUS_FRACTION <= share <= 1 for share in report["consensus"].values())

    @pytest.mark.parametrize("strategy", ["baum-welch", "viterbi"])
    def test_max_iterations_below_one_is_refused_before_anything_is_read(self, workdir, tmp_path, capsys, strategy):
        # the log does not exist: reading it first would report that instead
        code, _, err = run(
            capsys, "adapt", str(workdir / "model.json"), str(tmp_path / "missing.tsv"),
            "--strategy", strategy, "--max-iterations", "0", "-o", str(tmp_path / "adapted.json"),
        )
        assert code == 1
        assert err == "error: max_iterations must be >= 1\n"
        assert list(tmp_path.iterdir()) == []

    def test_refit_that_drops_the_trigger_writes_nothing(self, tmp_path, capsys):
        # drift renames the KPI key in every scan line, so the refit starves ctdi
        assert main(["gen", "--seed", "0", "--events", "600", "-o", str(tmp_path / "a")]) == 0
        assert main(["gen", "--seed", "1000", "--events", "400", "-o", str(tmp_path / "b")]) == 0
        log = tmp_path / "b/log.tsv"
        log.write_text(log.read_text().replace("@CTDI@=", "@CTDIvol@="))
        model = tmp_path / "model.json"
        assert main(["train", str(tmp_path / "a/log.tsv"), str(tmp_path / "a/truth.csv"), "-o", str(model)]) == 0
        capsys.readouterr()
        out_bundle = tmp_path / "out/adapted.json"
        code, out, err = run(
            capsys, "adapt", str(model), str(log), "--strategy", "baum-welch", "-o", str(out_bundle),
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error: refit would drop the trigger 'ctdi':")
        assert not out_bundle.exists()
        assert not (tmp_path / "out/adapted.json.report.json").exists()

    def test_viterbi_without_a_trigger_line_is_refused_and_writes_nothing(self, workdir, tmp_path, capsys):
        log = tmp_path / "renamed.tsv"
        log.write_text((workdir / "b/log.tsv").read_text().replace("@CTDI@=", "@CTDIvol@="))
        out_bundle = tmp_path / "adapted.json"
        code, out, err = run(
            capsys, "adapt", str(workdir / "model.json"), str(log), "--strategy", "viterbi", "-o", str(out_bundle),
        )
        assert code == 1
        assert out == ""
        assert err == "error: no decodable lines in new corpus\n"
        assert not out_bundle.exists()
        assert not (tmp_path / "adapted.json.report.json").exists()

    @pytest.mark.parametrize("strategy", ["baum-welch", "viterbi"])
    def test_viterbi_preprocesses_the_trigger_candidates_and_the_refit_every_line(
        self, workdir, tmp_path, capsys, monkeypatch, strategy
    ):
        seen, real = [], pipeline.preprocess_event

        def spy(event):
            seen.append(event)
            return real(event)

        monkeypatch.setattr(pipeline, "preprocess_event", spy)
        code, _, _ = run(
            capsys, "adapt", str(workdir / "model.json"), str(workdir / "b/log.tsv"),
            "--strategy", strategy, "--max-iterations", "1", "-o", str(tmp_path / "adapted.json"),
        )
        assert code == 0
        records = load_log(workdir / "b/log.tsv").records
        if strategy == "viterbi":
            assert seen == [r for r in records if "ctdi" in r.text.lower()]
            assert len(seen) < len(records)
        else:
            # the refit fits every line's observations
            assert seen == records

    def test_report_path_equal_to_the_bundle_path_is_refused(self, workdir, tmp_path, capsys):
        out_bundle = tmp_path / "adapted.json"
        code, out, err = run(
            capsys, "adapt", str(workdir / "model.json"), str(workdir / "b/log.tsv"),
            "--strategy", "viterbi", "-o", str(out_bundle), "--report", str(tmp_path / "." / "adapted.json"),
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error: --report and -o name the same file") and str(out_bundle) in err
        assert list(tmp_path.iterdir()) == []


class TestNoOutputOverwritesAnInput:
    # (command line, the two arguments the error names, the file they share);
    # each file name is a file of the test's own directory, and the output
    # is spelled with a "." so only the resolved paths are equal
    CASES = {
        "train -o log": (["train", "log.tsv", "truth.csv", "-o", "./log.tsv"], "-o and the log", "log.tsv"),
        "train -o truth": (
            ["train", "log.tsv", "truth.csv", "-o", "./truth.csv"], "-o and the truth table", "truth.csv"
        ),
        "parse -o bundle": (
            ["parse", "model.json", "log.tsv", "-o", "./model.json"], "-o and the bundle", "model.json"
        ),
        "parse -o log": (["parse", "model.json", "log.tsv", "-o", "./log.tsv"], "-o and the log", "log.tsv"),
        "adapt --report bundle": (
            ["adapt", "model.json", "log.tsv", "--strategy", "viterbi", "-o", "out.json", "--report", "./model.json"],
            "--report and the bundle", "model.json",
        ),
        "adapt --report log": (
            ["adapt", "model.json", "log.tsv", "--strategy", "viterbi", "-o", "out.json", "--report", "./log.tsv"],
            "--report and the log", "log.tsv",
        ),
        "adapt -o log": (
            ["adapt", "model.json", "log.tsv", "--strategy", "baum-welch", "-o", "./log.tsv"],
            "-o and the log", "log.tsv",
        ),
        "eval --csv parsed": (
            ["eval", "parsed.csv", "truth.csv", "--universe", "4000", "--csv", "./parsed.csv"],
            "--csv and the parsed table", "parsed.csv",
        ),
        "eval --csv truth": (
            ["eval", "parsed.csv", "truth.csv", "--universe", "4000", "--csv", "./truth.csv"],
            "--csv and the truth table", "truth.csv",
        ),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_refused_before_anything_is_written(self, workdir, tmp_path, case, capsys):
        argv, names, named = self.CASES[case]
        for name, source in (("model.json", "model.json"), ("log.tsv", "b/log.tsv"),
                             ("truth.csv", "a/truth.csv"), ("parsed.csv", "a/truth.csv")):
            (tmp_path / name).write_bytes((workdir / source).read_bytes())
        before = {path.name: path.read_bytes() for path in tmp_path.iterdir()}
        command = [argv[0]] + [str(tmp_path / arg) if arg.endswith((".json", ".tsv", ".csv")) else arg
                               for arg in argv[1:]]
        code, out, err = run(capsys, *command)
        assert code == 1
        assert out == ""
        assert err == f"error: {names} name the same file {tmp_path / named}: refusing to overwrite it\n"
        assert {path.name: path.read_bytes() for path in tmp_path.iterdir()} == before

    def test_adapt_may_write_over_its_input_bundle(self, workdir, tmp_path, capsys):
        model = tmp_path / "model.json"
        model.write_bytes((workdir / "model.json").read_bytes())
        code, _, _ = run(capsys, "adapt", str(model), str(workdir / "b/log.tsv"),
                         "--strategy", "viterbi", "-o", str(model))
        assert code == 0
        before = load_bundle(workdir / "model.json").pattern.required_tokens
        assert load_bundle(model).pattern.required_tokens > before
        assert json.loads((tmp_path / "model.json.report.json").read_text())["strategy"] == "viterbi"


def test_atomic_write_that_fails_keeps_the_target_and_leaves_no_temp_file(tmp_path):
    target = tmp_path / "out.csv"
    target.write_text("old\n")

    def failing_writer(tmp):
        Path(tmp).write_text("partial")
        raise RuntimeError("the writer failed")

    with pytest.raises(RuntimeError, match="^the writer failed$"):
        _atomic_write(target, failing_writer)
    assert list(tmp_path.iterdir()) == [target]
    assert target.read_text() == "old\n"


class TestDefaults:
    def test_adapt_defaults_match_library(self):
        args = build_parser().parse_args(
            ["adapt", "model.json", "log.tsv", "--strategy", "baum-welch", "-o", "out.json"]
        )
        assert args.max_iterations == FitConfig().max_iterations
        assert inspect.signature(adapt_baum_welch).parameters["config"].default == FitConfig()

    def test_gen_defaults_match_library(self):
        parser = build_parser()
        gen = ["gen", "--seed", "1", "--events", "10", "-o", "out"]
        args = parser.parse_args(gen)
        config = GeneratorConfig(seed=1, n_events=10)
        assert args.kpi_fraction == config.kpi_line_fraction
        assert args.drift == config.drift_profile
        for drift in (DRIFT_NONE, DRIFT_SYSTEM_B):
            assert parser.parse_args(gen + ["--drift", drift]).drift == drift
        with pytest.raises(SystemExit):
            parser.parse_args(gen + ["--drift", "system_c"])

    def test_train_kpi_matches_library(self):
        args = build_parser().parse_args(["train", "log.tsv", "truth.csv", "-o", "model.json"])
        assert args.kpi == inspect.signature(train).parameters["kpi_name"].default
        assert args.kpi == DEFAULT_KPI


class TestInspect:
    def test_human_readable(self, workdir, capsys):
        code, out, _ = run(capsys, "inspect", str(workdir / "model.json"))
        assert code == 0
        assert "trigger: ctdi" in out
        assert "required tokens" in out

    def test_json_output_matches_bundle_file(self, workdir, capsys):
        code, out, _ = run(capsys, "inspect", str(workdir / "model.json"), "--json")
        assert code == 0
        doc = json.loads((workdir / "model.json").read_text())
        assert json.loads(out) == doc
        # the saved file is one compact line; inspect prints the indented view
        assert out == json.dumps(doc, indent=2, sort_keys=True) + "\n"

    @pytest.mark.parametrize(
        "where, value, message",
        [
            (("hmm", "pe", 0, "fill"), "nan", "finite"),
            (("hmm", "emissions", 0), ["x"], r"\$\.hmm\.emissions\[0\]"),
            (("hmm", "emissions", -1), "zzz", "<oov>"),
            (("pattern", "trigger_aliases"), ["dlp"], r"invalid pattern in \$\.pattern: trigger"),
        ],
        ids=["nan", "non-string", "no-oov", "aliases-without-trigger"],
    )
    @pytest.mark.parametrize("command", ["inspect", "adapt", "parse"])
    def test_damaged_bundle_is_an_error_not_a_crash(self, workdir, tmp_path, capsys, where, value, message, command):
        doc = json.loads((workdir / "model.json").read_text())
        node = doc
        for key in where[:-1]:
            node = node[key]
        node[where[-1]] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        argv = [command, str(bad)]
        if command == "adapt":
            argv += [str(workdir / "b/log.tsv"), "--strategy", "viterbi", "-o", str(tmp_path / "out.json")]
        if command == "parse":
            argv += [str(workdir / "a/log.tsv"), "-o", str(tmp_path / "out.csv")]
        code, _, err = run(capsys, *argv)
        assert code == 1
        assert err.startswith("error:")
        assert re.search(message, err)

    def test_corrupt_bundle_errors(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        code, _, err = run(capsys, "inspect", str(bad))
        assert code == 1
        assert err.startswith("error:")
