"""Benchmark of the specialperiods command line, run in-process.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload search-box-g3 --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seconds 30 --trace 1 --out result.json

Each workload is a closed loop with one client: ``specialperiods.cli.main``
is called on the seeded input, its stdout is captured and checked, and the
next call starts when the previous one has returned.  No ``--threads`` flag
is passed and ``THREADS`` is removed from the environment, so the default
worker pool is what gets measured.

``--trace 0`` measures the end-to-end metrics with no tracing installed.
``--trace 1`` gives the per-module metrics: it splits the run into an
untraced loop, a traced loop and a traced loop with ``THREADS=1``, and makes
one more traced invocation under tracemalloc.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics`` (with ``--workload all``, one such
object per workload name); the lines before it print the same numbers as a
table, with the run environment and the workload's input size.
The program is imported from ``src/`` of the checkout; without it the script
exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import workloads
from tracing import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build"

METRICS = json.loads((HERE / "metrics.json").read_text())

# Fresh imports timed before and again after the loop, so that setup_s
# samples the machine at two moments of the run rather than one.
SETUP_PROCESSES_EACH_SIDE = 4
CHILD_TIMEOUT_S = 120

_IMPORT_CODE = """
import time
start = time.perf_counter()
import specialperiods.cli
print(time.perf_counter() - start)
"""

# The peak is read as VmHWM, the high-water mark of the process's own memory
# map.  ru_maxrss would also count the peak of this benchmark process, which
# Linux carries into a child across fork and exec.
_RSS_CODE = """
import contextlib, io, json, sys
from specialperiods import cli
out, err = io.StringIO(), io.StringIO()
try:
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(sys.argv[1:])
except Exception as exc:
    code = "raised %r" % exc
with open("/proc/self/status") as status:
    peak = next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))
print(json.dumps({"code": code, "stdout": out.getvalue(), "stderr": err.getvalue(), "peak_kib": peak}))
"""


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "THREADS"}
    env["PYTHONPATH"] = str(SRC)
    return env


def run_child(code: str, args=()) -> str:
    """Run ``python -c code`` in a fresh process; returns its stdout."""
    proc = subprocess.run(
        [sys.executable, "-c", code, *args],
        cwd=ROOT,
        env=child_env(),
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError("child process failed: %s" % proc.stderr.strip()[-500:])
    return proc.stdout


def import_seconds() -> list:
    """Times to import the CLI module, each in a fresh process."""
    return [float(run_child(_IMPORT_CODE)) for _ in range(SETUP_PROCESSES_EACH_SIDE)]


def invoke(cli, argv) -> tuple:
    """One in-process CLI call: (exit code, seconds, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except Exception as exc:  # a crash is a failed operation, not a crashed benchmark
        code = "raised %r" % exc
    return code, time.perf_counter() - start, out.getvalue(), err.getvalue()


class Tally:
    """Attempted and failed operations, with the first few failure reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons = []
        self.first_stdout = None

    def record(self, case, code, stdout, stderr="") -> bool:
        self.attempted += 1
        reason = case.check(code, stdout) if isinstance(code, int) else code
        if reason is None and self.first_stdout is not None and stdout != self.first_stdout:
            reason = "output differs from the first invocation of this run"
        if reason is None:
            if self.first_stdout is None:
                self.first_stdout = stdout
            return True
        self.failed += 1
        if len(self.reasons) < 5:
            self.reasons.append("%s %s" % (reason, stderr.strip()[-200:]))
        return False


def checked_invoke(cli, case, tally: Tally, tracer=None) -> tuple:
    """Invoke once and check the output; returns (seconds, correct)."""
    if tracer is not None:
        tracer.begin()
    code, elapsed, stdout, stderr = invoke(cli, case.argv)
    return elapsed, tally.record(case, code, stdout, stderr)


def closed_loop(cli, case, seconds: float, tally: Tally, tracer=None) -> tuple:
    """Invoke back to back for ``seconds``.

    Returns the time of every invocation, failed ones included, the number
    that completed correctly, and the traces of those.
    """
    times, traces = [], []
    completed = 0
    deadline = time.perf_counter() + seconds
    while True:
        elapsed, ok = checked_invoke(cli, case, tally, tracer)
        times.append(elapsed)
        if ok:
            completed += 1
            if tracer is not None:
                traces.append(tracer.current)
        if time.perf_counter() >= deadline:
            return times, completed, traces


def tail(times) -> tuple:
    """(value, percentile) of the highest percentile with 10 samples beyond it."""
    ordered = sorted(times)
    if len(ordered) <= 10:
        return ordered[-1], 100.0
    k = len(ordered) - 11
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def peak_rss_mib(case, tally: Tally) -> float:
    """Peak resident memory of a fresh process that makes one invocation."""
    result = json.loads(run_child(_RSS_CODE, case.argv).splitlines()[-1])
    tally.record(case, result["code"], result["stdout"], result["stderr"])
    return result["peak_kib"] / 1024.0


def end_to_end(cli, case, seconds: float, tally: Tally) -> tuple:
    imports = import_seconds()
    rss = peak_rss_mib(case, tally)
    checked_invoke(cli, case, tally)  # warm-up, untimed
    times, completed, _ = closed_loop(cli, case, seconds, tally)
    imports += import_seconds()
    value, percentile = tail(times)
    metrics = {
        "op_s_p50": statistics.median(times),
        "op_s_tail": value,
        "ops_per_s": completed / sum(times),
        "peak_rss_mb": rss,
        "setup_s": statistics.median(imports),
    }
    notes = {
        "op_s_p50": "n=%d" % len(times),
        "op_s_tail": "p%.1f, n=%d" % (percentile, len(times)),
        "ops_per_s": "%d completed in %.1f s of invocations" % (completed, sum(times)),
        "peak_rss_mb": "one fresh process",
        "setup_s": "median of %d fresh imports" % len(imports),
    }
    return metrics, notes


def _median(traces, fn) -> float:
    return statistics.median(fn(t) for t in traces) if traces else 0.0


def per_layer(cli, case, seconds: float, tally: Tally) -> tuple:
    third = seconds / 3.0
    checked_invoke(cli, case, tally)  # warm-up, untimed
    plain, _, _ = closed_loop(cli, case, third, tally)
    tracer = Tracer()
    with tracer:
        traced_times, _, traces = closed_loop(cli, case, third, tally, tracer)
        os.environ["THREADS"] = "1"
        try:
            _, _, single = closed_loop(cli, case, third, tally, tracer)
        finally:
            del os.environ["THREADS"]
    memory = Tracer(measure_memory=True)
    with memory:
        checked_invoke(cli, case, tally, memory)
    t = traces
    records = _median(t, lambda i: i.records)
    area_calls = _median(t, lambda i: i.calls("pairings.area"))
    metrics = {
        "cli.run_s": _median(t, lambda i: i.total("cli.run")),
        "cli.self_s": _median(t, lambda i: i.self_time("cli.run")),
        "matrixio.load_period_matrix_s": _median(t, lambda i: i.total("matrixio.load_period_matrix")),
        "special.search_solutions_s": _median(t, lambda i: i.total("special.search_solutions")),
        "special.search_self_s": _median(t, lambda i: i.self_time("special.search_solutions")),
        "special.search_solutions_1thread_s": _median(
            single, lambda i: i.total("special.search_solutions")
        ),
        "special.box_points": _median(t, lambda i: i.box_points),
        "special.records": records,
        "special.accept_ratio": _median(
            t, lambda i: i.records / i.box_points if i.box_points else 0.0
        ),
        "special.box_bytes_computed": _median(t, lambda i: i.box_bytes),
        "special.search_peak_mb": memory.current.search_peak_bytes / 2.0**20,
        "special.cover_degree_calls": _median(t, lambda i: i.calls("special.cover_degree")),
        "special.cover_degree_s": _median(t, lambda i: i.total("special.cover_degree")),
        "pairings.area_calls": area_calls,
        "pairings.area_s": _median(t, lambda i: i.total("pairings.area")),
        "pairings.area_calls_per_record": area_calls / records if records else 0.0,
        "pairings.herm_product_calls": _median(t, lambda i: i.calls("pairings.herm_product")),
        "pairings.herm_product_s": _median(t, lambda i: i.total("pairings.herm_product")),
        "differentials.primitive_coeffs_calls": _median(
            t, lambda i: i.calls("differentials.primitive_coeffs")
        ),
        "differentials.primitive_coeffs_s": _median(
            t, lambda i: i.total("differentials.primitive_coeffs")
        ),
        "report.run_identity_suite_s": _median(t, lambda i: i.total("report.run_identity_suite")),
        "report.positivity_sweep_s": _median(t, lambda i: i.total("report.positivity_sweep")),
        "trace.overhead_s": _median(traced_times, float) - _median(plain, float),
    }
    notes = {
        "cli.run_s": "median of %d traced invocations" % len(t),
        "special.search_solutions_1thread_s": "median of %d invocations" % len(single),
        "trace.overhead_s": "untraced n=%d, traced n=%d" % (len(plain), len(traced_times)),
    }
    return metrics, notes


def git_commit():
    """HEAD of the checkout, or None when the checkout is not a git repository."""
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except OSError:
        return None
    return proc.stdout.strip() or None


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "specialperiods").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def environment(cli, inherited_threads) -> dict:
    import numpy

    return {
        "commit": git_commit(),
        "src_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "default_threads": cli.RunConfig("search", None).resolved_threads(),
        "THREADS": os.environ.get("THREADS", "unset"),
        "THREADS_inherited": inherited_threads,
    }


def measure(cli, workload, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload: its contract result plus notes, failures and input size."""
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="perfbench-", dir=WORK))
    try:
        case = workloads.prepare(workload, seed, workdir)
        tally = Tally()
        if trace:
            values, notes = per_layer(cli, case, seconds, tally)
        else:
            values, notes = end_to_end(cli, case, seconds, tally)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    group = METRICS["per_layer" if trace else "end_to_end"]
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": values[name], "unit": spec["unit"]} for name, spec in group.items()
        },
        "notes": notes,
        "failures": tally.reasons,
        "input": dict(
            workload.input_size(),
            seed=seed,
            input_seed=case.seed,
            golden_table=case.golden_sha256 is not None,
        ),
    }


def print_table(name: str, result: dict, out) -> None:
    out.write("# workload %s input %s\n" % (name, json.dumps(result["input"])))
    for metric, entry in result["metrics"].items():
        note = result["notes"].get(metric, "")
        out.write(
            "%-40s %-16.9g %-6s %s\n" % (metric, entry["value"], entry["unit"], note)
        )
    error_rate = result["failed"] / result["attempted"]
    out.write(
        "%-40s %-16.9g %-6s %d of %d invocations failed or were wrong\n"
        % ("error_rate", error_rate, "ratio", result["failed"], result["attempted"])
    )
    for reason in result["failures"]:
        out.write("# failure: %s\n" % reason)


def contract_result(result: dict) -> dict:
    return {key: result[key] for key in ("correct", "attempted", "failed", "metrics")}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny input sizes, for tests")
    parser.add_argument("--out", type=Path, help="also write the results to this JSON file")
    args = parser.parse_args(argv)

    if not (SRC / "specialperiods" / "cli.py").is_file():
        sys.stderr.write("error: no program source at %s\n" % (SRC / "specialperiods"))
        return 2
    inherited_threads = os.environ.pop("THREADS", None)
    sys.path.insert(0, str(SRC))
    from specialperiods import cli

    env = environment(cli, inherited_threads)
    print("# env %s" % json.dumps(env))
    sizes = workloads.SMOKE if args.smoke else workloads.WORKLOADS
    names = list(sizes) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        result = measure(cli, sizes[name], args.seed, args.seconds, bool(args.trace))
        print_table(name, result, sys.stdout)
        results[name] = result
    if args.out is not None:
        record = {"env": env, "seed": args.seed, "seconds": args.seconds, "trace": args.trace}
        args.out.write_text(json.dumps(dict(record, results=results), indent=2) + "\n")
    if args.workload == "all":
        print(json.dumps({name: contract_result(r) for name, r in results.items()}))
    else:
        print(json.dumps(contract_result(results[args.workload])))
    return 0


if __name__ == "__main__":
    sys.exit(main())
