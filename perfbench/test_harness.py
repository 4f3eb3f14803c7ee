"""Self-tests of the benchmark harness: python3 -m pytest perfbench"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from stats import TAIL_SAMPLES_BEYOND, median, quartiles, tail  # noqa: E402
from tracer import Span, Tracer, mean_per_root, per_root, self_times  # noqa: E402


class TestTail:
    def test_highest_rank_with_ten_samples_beyond(self):
        values = [float(v) for v in range(1, 101)]  # 1..100, shuffled order must not matter
        value, pct = tail(values[::-1])
        assert value == 90.0
        assert sum(v > value for v in values) == TAIL_SAMPLES_BEYOND
        assert pct == pytest.approx(100 * 89 / 99)

    def test_exactly_enough_samples_for_the_median(self):
        values = [float(v) for v in range(21)]
        assert tail(values) == (10.0, 50.0)

    def test_too_few_samples_fall_back_to_the_median(self):
        values = [5.0, 1.0, 3.0, 4.0]
        assert tail(values) == (median(values), 50.0)

    def test_empty(self):
        with pytest.raises(ValueError):
            tail([])


class TestQuartiles:
    def test_quartiles_of_a_run(self):
        assert quartiles([4.0, 1.0, 3.0, 2.0, 5.0]) == (1.5, 4.5)

    def test_one_sample_is_both_quartiles(self):
        assert quartiles([7.0]) == (7.0, 7.0)

    def test_empty(self):
        with pytest.raises(ValueError):
            quartiles([])


def _span(id, parent, layer, start, end, root=0, **counts):
    return Span(id, parent, root, layer, start, end, counts)


class TestSelfTime:
    def test_children_are_subtracted_from_their_direct_parent_only(self):
        spans = [
            _span(0, None, "op", 0.0, 10.0),
            _span(1, 0, "adapt.viterbi", 1.0, 9.0),
            _span(2, 1, "hmm.viterbi", 2.0, 6.0),
            _span(3, 2, "hmm.encode", 2.5, 3.5),
            _span(4, 1, "hmm.viterbi", 6.0, 8.0),
        ]
        assert self_times(spans) == {0: 2.0, 1: 2.0, 2: 3.0, 3: 1.0, 4: 2.0}

    def test_layer_times_add_up_to_the_root(self):
        spans = [
            _span(0, None, "op", 0.0, 10.0),
            _span(1, 0, "adapt.viterbi", 1.0, 9.0),
            _span(2, 1, "hmm.viterbi", 2.0, 6.0, **{"hmm.viterbi.symbols": 7}),
            _span(3, 2, "hmm.encode", 2.5, 3.5),
            _span(4, 1, "hmm.viterbi", 6.0, 8.0, **{"hmm.viterbi.symbols": 3}),
            _span(5, None, "op", 20.0, 24.0, root=5),
        ]
        first, second = per_root(spans)
        assert first["op.total_s"] == 10.0
        assert first["op.self_s"] + first["adapt.viterbi.self_s"] + first["hmm.viterbi.s"] + first[
            "hmm.encode.s"
        ] == pytest.approx(10.0)
        assert first["hmm.viterbi.s"] == 5.0
        assert first["hmm.viterbi.calls"] == 2
        assert first["hmm.viterbi.symbols"] == 10
        assert first["adapt.viterbi.voting_lines"] == 2
        mean = mean_per_root([first, second])
        assert mean["op.total_s"] == 7.0
        assert mean["hmm.viterbi.calls"] == 1  # absent from the second root: counted as 0


class TestTracer:
    def test_records_only_inside_a_root_and_restores_the_names(self):
        import driftparse.pipeline as pipeline
        from driftparse.hmm import Hmm

        original_train, original_encode = pipeline.train, Hmm.encode
        tracer = Tracer()
        tracer.install()
        try:
            assert tracer.missing == []
            assert pipeline.train is not original_train
            pipeline.preprocess_corpus([])  # outside a root: not recorded
            assert tracer.spans == []
            tracer.run_root(lambda: pipeline.preprocess_corpus([]))
        finally:
            tracer.uninstall()
        assert pipeline.train is original_train and Hmm.encode is original_encode
        layers = [span.layer for span in tracer.spans]
        assert layers == ["op", "preprocess", "trace"]
        assert tracer.spans[1].counts == {"preprocess.tokens": 0, "preprocess.distinct_tokens": 0}

    def test_a_missing_name_is_reported_not_raised(self, monkeypatch):
        import tracer as tracer_module

        monkeypatch.setattr(
            tracer_module, "WRAPS", tracer_module.WRAPS + (("driftparse.pipeline", "no_such_stage", "x", None),)
        )
        tracer = Tracer()
        tracer.install()
        tracer.uninstall()
        assert tracer.missing == ["driftparse.pipeline.no_such_stage"]


@pytest.mark.parametrize("name", ["train-large", "parse-files", "adapt-viterbi", "adapt-refit"])
def test_same_seed_same_inputs(tmp_path, name):
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    workload.setup(tmp_path / "a", 5, scale=8)
    workload.setup(tmp_path / "b", 5, scale=8)
    workload.setup(tmp_path / "c", 6, scale=8)

    def files(root):
        return {p.relative_to(root): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}

    a, b, c = files(tmp_path / "a"), files(tmp_path / "b"), files(tmp_path / "c")
    assert a and a == b
    assert a != c


def test_every_seed_gives_a_log_of_the_same_size_and_mix():
    from driftparse import corpus
    from workloads import scan_log

    for drift in (corpus.DRIFT_NONE, corpus.DRIFT_SYSTEM_B):
        for seed in range(5):
            records, truth = scan_log(seed, 40, drift)
            ids = [record.event_id for record in records]
            assert (len(records), len(truth.rows)) == (40 + round(40 * 0.65 / 0.35), 40)
            assert ids == sorted(ids)  # log order is kept
            assert {row[0] for row in truth.rows} <= set(ids)
