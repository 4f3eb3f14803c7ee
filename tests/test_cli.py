import inspect
import json
import re

import pytest

from driftparse.adapt import (
    DEFAULT_CONSENSUS_FRACTION,
    DEFAULT_OCCUPANCY_FLOOR,
    adapt_baum_welch,
    adapt_viterbi,
)
from driftparse.bundle import load_bundle
from driftparse.cli import build_parser, main
from driftparse.corpus import DRIFT_NONE, DRIFT_SYSTEM_B, GeneratorConfig, file_digest, load_log
from driftparse.hmm import FitConfig
from driftparse.parsing import DEFAULT_KPI, KpiTable
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
        assert all(DEFAULT_CONSENSUS_FRACTION <= share <= 1 for share in report["consensus"].values())


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

    @pytest.mark.parametrize("floor", ["-1", "nan"])
    def test_bad_occupancy_floor_writes_nothing(self, workdir, tmp_path, capsys, floor):
        out_bundle = tmp_path / "adapted.json"
        code, _, err = run(
            capsys, "adapt", str(workdir / "model.json"), str(workdir / "b/log.tsv"),
            "--strategy", "baum-welch", f"--occupancy-floor={floor}", "-o", str(out_bundle),
        )
        assert code == 1
        assert err.startswith("error:") and "occupancy_floor" in err
        assert list(tmp_path.iterdir()) == []


class TestDefaults:
    def test_adapt_defaults_match_library(self):
        args = build_parser().parse_args(
            ["adapt", "model.json", "log.tsv", "--strategy", "baum-welch", "-o", "out.json"]
        )
        assert args.max_iterations == FitConfig().max_iterations
        assert args.occupancy_floor == DEFAULT_OCCUPANCY_FLOOR
        assert args.consensus == DEFAULT_CONSENSUS_FRACTION
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
