import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "tools" / "bench_snapshot.py"
spec = importlib.util.spec_from_file_location("bench_snapshot", SCRIPT)
bench_snapshot = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_snapshot)

TRAIN_OUTPUT = """\
conditions {"seed": 0, "trace": 1, "workload": "train-large"}
traced operations: 40; mean traced operation 0.2810 s; layer self time:
  preprocess.s                       0.0900 s   32.0%
{"attempted": 41, "correct": true, "failed": 0, "metrics": {"preprocess.s": {"unit": "s", "value": 0.09}}}
"""

ADAPT_OUTPUT = """\
conditions {"seed": 0, "trace": 1, "workload": "adapt-viterbi"}
  hmm.viterbi.calls                              204 count
{"attempted": 90, "correct": true, "failed": 0, "metrics": {"hmm.viterbi.calls": {"unit": "count", "value": 204}}}
"""


def test_keeps_each_runs_conditions_and_final_result():
    doc = bench_snapshot.assemble({"train-large": TRAIN_OUTPUT, "adapt-viterbi": ADAPT_OUTPUT})
    assert list(doc) == ["train-large", "adapt-viterbi"]
    assert doc["train-large"]["conditions"] == {"seed": 0, "trace": 1, "workload": "train-large"}
    assert doc["train-large"]["result"]["metrics"]["preprocess.s"]["value"] == 0.09
    assert doc["adapt-viterbi"]["result"]["attempted"] == 90
    assert doc["adapt-viterbi"]["result"]["metrics"]["hmm.viterbi.calls"] == {"unit": "count", "value": 204}


@pytest.mark.parametrize(
    "output",
    [TRAIN_OUTPUT.replace("conditions ", "condition "), "".join(TRAIN_OUTPUT.splitlines(keepends=True)[:-1]), TRAIN_OUTPUT + ADAPT_OUTPUT],
    ids=["no-conditions", "no-result", "two-runs"],
)
def test_malformed_output_refused(output):
    with pytest.raises(ValueError):
        bench_snapshot.assemble({"train-large": output})


@pytest.mark.parametrize(
    "old, new",
    [
        ('"correct": true', '"correct": false'),
        ('"failed": 0', '"failed": 2'),
        ('"metrics": {', '"metrics": {"trace.missing": {"unit": "count", "value": 1}, '),
    ],
    ids=["incorrect", "failed-operations", "untraced-calls"],
)
def test_failed_run_refused(old, new):
    assert old in TRAIN_OUTPUT
    with pytest.raises(ValueError, match="did not pass"):
        bench_snapshot.assemble({"train-large": TRAIN_OUTPUT.replace(old, new)})

