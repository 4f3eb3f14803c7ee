"""driftparse benchmark: one workload per process, end-to-end or traced.

Run from the repository root:

    python3 perfbench/run.py --workload adapt-viterbi --seed 3 --seconds 27 --trace 0

With ``--trace 0`` it times the import of driftparse here and in two
fresh interpreters run one after another, sets up the workload's inputs
three times, runs one warm-up operation, then runs operations back to back
(a closed loop, one client) for ``--seconds``, cycling through the
workload's inputs, and prints every end-to-end metric named in
BENCHMARK.json. With ``--trace 1`` it alternates untraced and traced
operations for ``--seconds``, runs the operation again at a quarter of its
input size, makes one pass through the command line, and prints every
per-layer metric. Each operation's output is checked; a failed check or an
exception counts as a failed operation and the run goes on. The last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.

``--record-golden`` instead runs each input of the workload once at the
default seed and records the checked summaries in golden.json.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import traceback
from dataclasses import asdict
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
GOLDEN = HERE / "golden.json"
SETUP_REPEATS = 3
IMPORT_REPEATS = 2  # fresh interpreters that time the import again, one after another
QUARTER = 4

# per-layer times compared between full and quarter-size inputs
SCALED_METRICS = (
    "op.total_s", "preprocess.s", "mining.s", "hmm.build.s", "bundle.save.s", "bundle.load.s",
    "corpus.load_log.s", "parsing.s", "hmm.encode.s", "hmm.viterbi.s", "hmm.fit.s",
)


def import_program() -> float:
    """Import driftparse from this checkout's src/ and return the seconds it took."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    start = perf_counter()
    import driftparse

    elapsed = perf_counter() - start
    if Path(driftparse.__file__).resolve().parent != src / "driftparse":
        raise ImportError(f"driftparse was imported from {driftparse.__file__}, not from {src}")
    return elapsed


def import_seconds_in_child() -> float:
    """Time the import of driftparse in a fresh interpreter, which has ended on return."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); start = time.perf_counter(); "
            "import driftparse; print(time.perf_counter() - start)")
    done = subprocess.run([sys.executable, "-c", code, str(ROOT / "src")],
                          capture_output=True, text=True, check=True, timeout=120)
    return float(done.stdout)


class Ledger:
    """Runs operations, checks their output and counts attempts and failures."""

    def __init__(self, workload, golden: list | None):
        self.workload = workload
        self.golden = golden
        self.attempted = 0
        self.failed = 0

    def fail(self, i: int, message: str) -> None:
        self.failed += 1
        print(f"operation {i} failed: {message}", file=sys.stderr)

    def run(self, inputs, i: int, call=None, check: bool = True):
        """Run operation i; return its outcome (None if it failed) and its wall time."""
        self.attempted += 1
        start = perf_counter()
        try:
            outcome = call(self.workload.op, inputs, i) if call else self.workload.op(inputs, i)
        except Exception:
            elapsed = perf_counter() - start
            self.fail(i, traceback.format_exc())
            return None, elapsed
        elapsed = perf_counter() - start
        if not check:
            return outcome, elapsed
        try:
            problems, summary = self.workload.check(inputs, i, outcome)
        except Exception:
            problems, summary = [traceback.format_exc()], None
        if self.golden is not None:
            expected = self.golden[i % len(self.golden)] if self.golden else "nothing"
            if summary != expected:
                problems.append(f"summary {summary} differs from the recorded {expected}")
        if problems:
            self.fail(i, "; ".join(problems))
            return None, elapsed
        return outcome, elapsed

    def result(self) -> dict:
        return {"correct": self.failed == 0, "attempted": self.attempted, "failed": self.failed}


def measure(workload, ledger: Ledger, seed: int, seconds: float, workdir: Path, import_s: float) -> dict:
    from stats import median, quartiles, tail

    imports = [import_s] + [import_seconds_in_child() for _ in range(IMPORT_REPEATS)]
    setups = []
    for r in range(SETUP_REPEATS):
        start = perf_counter()
        inputs = workload.setup(workdir / f"setup{r}", seed)
        setups.append(perf_counter() - start)
    ledger.run(inputs, 0)  # warm-up: lazy imports, first-call costs, page cache
    pool = len(inputs.logs)
    times, rates, last = [], [], None
    i, deadline = 1, perf_counter() + seconds
    while i <= pool or perf_counter() < deadline:  # every input of the pool at least once
        outcome, elapsed = ledger.run(inputs, i)
        i += 1
        if outcome is not None:
            times.append(elapsed)
            rates.append(outcome["events"] / elapsed)
            last = outcome
    if not times:
        raise RuntimeError("no operation succeeded")
    tail_s, tail_pct = tail(times)
    metrics = {
        "setup_s": median(imports) + median(setups),
        "op_p75_ms": 1000 * quartiles(times)[1],
        "events_per_s": quartiles(rates)[0],
        "bundle_bytes": os.path.getsize(last["bundle_path"]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "op_ok_rate": (ledger.attempted - ledger.failed) / ledger.attempted,
    }
    print("setup: median of imports " + ", ".join(f"{s:.3f}" for s in imports)
          + " s + median of set-ups " + ", ".join(f"{s:.3f}" for s in setups) + " s")
    print(f"operations timed: {len(times)} over {pool} input(s); median {1000 * median(times):.1f} ms, "
          f"mean {1000 * sum(times) / len(times):.1f} ms, p{tail_pct:.0f} {1000 * tail_s:.1f} ms "
          f"({'too few samples for a tail' if tail_pct == 50 else 'ten samples beyond it'})")
    print(f"op_error_rate {ledger.failed}/{ledger.attempted} = {ledger.failed / ledger.attempted:.3f}")
    return metrics


def traced_run(workload, ledger: Ledger, seed: int, seconds: float, workdir: Path) -> dict:
    from tracer import Tracer, mean_per_root, per_root

    inputs = workload.setup(workdir / "full", seed)
    ledger.run(inputs, 0)  # warm-up
    tracer = Tracer()
    untraced, traced = [], []
    i, deadline = 1, perf_counter() + seconds
    while i == 1 or perf_counter() < deadline:
        # the same input untraced, then traced, so the overhead compares like with like
        untraced.append(ledger.run(inputs, i)[1])
        tracer.install()
        try:
            traced.append(ledger.run(inputs, i, call=tracer.run_root)[1])
        finally:
            tracer.uninstall()
        i += 1
    full = mean_per_root(per_root(tracer.spans))

    quarter_inputs = workload.setup(workdir / "quarter", seed, scale=QUARTER)
    quarter_tracer = Tracer()
    quarter_tracer.install()
    try:
        # at a quarter size some output checks (a full hit rate) need not hold
        for q in range(max(2, len(quarter_inputs.logs))):
            ledger.run(quarter_inputs, q, call=quarter_tracer.run_root, check=False)
    finally:
        quarter_tracer.uninstall()
    quarter = mean_per_root(per_root(quarter_tracer.spans))

    metrics = dict(full)
    for name in SCALED_METRICS:
        layer = name.rsplit(".", 1)[0]
        if full.get(name) and quarter.get(name):
            metrics[f"{layer}.scale_x4"] = full[name] / quarter[name]
    metrics["op.traced_s"] = sum(traced) / len(traced)
    metrics["op.untraced_s"] = sum(untraced) / len(untraced)
    metrics["trace.overhead_s"] = metrics["op.traced_s"] - metrics["op.untraced_s"]
    metrics["trace.missing"] = len(tracer.missing)
    metrics.update(cli_pass(ledger, seed, workdir / "cli"))
    if tracer.missing:
        print("wrapped names no longer found: " + ", ".join(tracer.missing))
    total = full.get("op.total_s", 0.0)
    print(f"traced operations: {len(traced)}; mean traced operation {total:.4f} s; layer self time:")
    for name, value in sorted(full.items(), key=lambda kv: -kv[1]):
        if name.split(".")[-1] in ("s", "self_s") and total:
            print(f"  {name:34s} {value:10.4f} s {100 * value / total:6.1f}%")
    return metrics


def cli_pass(ledger: Ledger, seed: int, workdir: Path) -> dict:
    """gen -> train -> parse -> eval -> adapt (both strategies) through driftparse.cli.main."""
    from driftparse.cli import main as cli_main
    from workloads import TRAIN_KPI_FRACTION

    d = str(workdir)
    steps = [
        ("gen", ["gen", "--seed", str(seed), "--events", "400", "--kpi-fraction", str(TRAIN_KPI_FRACTION),
                 "-o", f"{d}/train"]),
        ("train", ["train", f"{d}/train/log.tsv", f"{d}/train/truth.csv", "-o", f"{d}/model.json"]),
        ("parse", ["parse", f"{d}/model.json", f"{d}/train/log.tsv", "-o", f"{d}/parsed.csv"]),
        ("eval", ["eval", f"{d}/parsed.csv", f"{d}/train/truth.csv", "--universe", "400"]),
        ("gen", ["gen", "--seed", str(seed + 1), "--events", "60", "--drift", "system_b", "-o", f"{d}/drift"]),
        ("adapt_viterbi", ["adapt", f"{d}/model.json", f"{d}/drift/log.tsv", "--strategy", "viterbi",
                           "-o", f"{d}/viterbi.json"]),
        ("adapt_baum_welch", ["adapt", f"{d}/model.json", f"{d}/drift/log.tsv", "--strategy", "baum-welch",
                              "--max-iterations", "2", "-o", f"{d}/refit.json"]),
    ]
    times: dict[str, float] = {}
    for n, (command, argv) in enumerate(steps):
        ledger.attempted += 1
        out = io.StringIO()
        start = perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
                code = cli_main(argv)
        except Exception:
            code, out = None, io.StringIO(traceback.format_exc())
        key = f"cli.{command}.s"
        times[key] = times.get(key, 0.0) + perf_counter() - start
        if code != 0:
            ledger.fail(-1 - n, f"driftparse {' '.join(argv)} exited {code}: {out.getvalue()}")
    return times


def blas_threads() -> int | None:
    """Threads OpenBLAS will use, read from the library numpy ships; None if not found."""
    import numpy

    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def git_commit() -> str | None:
    """HEAD's commit read from .git without running git; None outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def conditions(workload, seed: int, seconds: float, trace: int) -> dict:
    import numpy
    import scipy
    from workloads import FIT_CONFIG, TRAIN_KPI_FRACTION

    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "driftparse").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": blas_threads(),
        "git_commit": git_commit(),
        "src_sha256": digest.hexdigest(),
        "fit_config": asdict(FIT_CONFIG),
        "train_kpi_fraction": TRAIN_KPI_FRACTION,
        "sizes": {k: v for k, v in vars(type(workload)).items() if k.isupper()},
    }


def record_golden(workload, workdir: Path) -> int:
    from workloads import DEFAULT_SEED

    ledger = Ledger(workload, None)
    inputs = workload.setup(workdir / "golden", DEFAULT_SEED)
    summaries = []
    for i in range(len(inputs.logs)):
        outcome, _ = ledger.run(inputs, i)
        if outcome is None:
            return 1
        summaries.append(workload.check(inputs, i, outcome)[1])
    golden = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    golden[workload.name] = summaries
    GOLDEN.write_text(
        "{\n"
        + ",\n".join(
            f" {json.dumps(name)}: [\n" + ",\n".join("  " + json.dumps(s, sort_keys=True) for s in golden[name]) + "\n ]"
            for name in sorted(golden)
        )
        + "\n}\n"
    )
    print(f"recorded {len(summaries)} summaries for {workload.name} in {GOLDEN.name}")
    return 0


def report(spec: list, metrics: dict, missing_is_zero: bool) -> dict:
    out = {}
    for entry in spec:
        name = entry["name"]
        if name not in metrics and not missing_is_zero:
            raise KeyError(f"metric {name} was not measured")
        out[name] = {"value": metrics.get(name, 0.0), "unit": entry["unit"]}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None, help="input seed (default: the recorded one)")
    parser.add_argument("--seconds", type=float, default=10.0, help="how long to measure")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-golden", action="store_true")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    try:
        import_s = import_program()
    except ImportError as exc:
        print(f"error: cannot import driftparse from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    from workloads import DEFAULT_SEED, WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    seed = DEFAULT_SEED if args.seed is None else args.seed
    workdir = ROOT / ".perfbench_work" / f"{workload.name}-{os.getpid()}"
    try:
        if args.record_golden:
            return record_golden(workload, workdir)
        golden = None
        if seed == DEFAULT_SEED:
            golden = json.loads(GOLDEN.read_text()).get(workload.name, [])
        ledger = Ledger(workload, golden)
        print("conditions " + json.dumps(conditions(workload, seed, args.seconds, args.trace), sort_keys=True))
        if args.trace:
            metrics = report(spec["per_layer"], traced_run(workload, ledger, seed, args.seconds, workdir), True)
        else:
            metrics = report(spec["end_to_end"], measure(workload, ledger, seed, args.seconds, workdir, import_s),
                             False)
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()
    for name, m in metrics.items():
        print(f"  {name:34s} {m['value']:>16.6g} {m['unit']}")
    print(json.dumps({**ledger.result(), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
