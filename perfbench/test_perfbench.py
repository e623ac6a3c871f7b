"""Tests of the benchmark itself.  Run with: python -m pytest -q perfbench"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time

import numpy as np
import pytest

import run
import tracing
import workloads

sys.path.insert(0, str(run.SRC))
import specialperiods  # noqa: E402
from specialperiods import cli, pairings, special  # noqa: E402
from specialperiods.matrixio import load_period_matrix  # noqa: E402
from specialperiods.siegel import random_siegel_point  # noqa: E402


def _traced_counts(case) -> tuple:
    """box points, records, area, cover_degree and herm_product calls."""
    with tracing.Tracer() as tracer:
        tracer.begin()
        code, _, stdout, _ = run.invoke(cli, case.argv)
    inv = tracer.current
    assert case.check(code, stdout) is None
    return (
        inv.box_points,
        inv.records,
        inv.calls("pairings.area"),
        inv.calls("special.cover_degree"),
        inv.calls("pairings.herm_product"),
    )


def test_wrappers_exist_only_while_tracing():
    originals = {
        (module, name): getattr(getattr(specialperiods, module), name)
        for module, name in tracing.TRACED
    }
    with tracing.Tracer():
        assert special.area is pairings.area is specialperiods.area
        assert special.area is not originals["pairings", "area"]
        assert special.area.__wrapped__ is originals["pairings", "area"]
        assert cli.load_period_matrix is not originals["matrixio", "load_period_matrix"]
    assert special.area is pairings.area is specialperiods.area
    for (module, name), original in originals.items():
        assert getattr(getattr(specialperiods, module), name) is original


@pytest.mark.parametrize("name", list(workloads.SMOKE))
def test_traced_and_untraced_stdout_identical(name, tmp_path):
    case = workloads.prepare(workloads.SMOKE[name], 0, tmp_path)
    code, _, plain, _ = run.invoke(cli, case.argv)
    with tracing.Tracer() as tracer:
        tracer.begin()
        traced_code, _, traced, _ = run.invoke(cli, case.argv)
    assert code == traced_code == 0
    assert traced == plain
    assert case.check(code, plain) is None


@pytest.mark.parametrize("name", list(workloads.SMOKE))
def test_counts_repeat_exactly(name, tmp_path):
    case = workloads.prepare(workloads.SMOKE[name], 1, tmp_path)
    first = _traced_counts(case)
    assert _traced_counts(case) == first
    box_points, records, area_calls, _, herm_calls = first
    if case.workload.subcommand == "search":
        assert box_points == case.workload.box_points
        assert area_calls == 2 * records
    else:
        assert box_points == records == 0
        assert herm_calls > 0


@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_finishes_quickly(trace):
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--workload", "all", "--smoke"]
        + ["--seconds", "0.3", "--trace", str(trace)],
        cwd=run.ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert time.perf_counter() - start < 60
    results = json.loads(proc.stdout.splitlines()[-1])
    group = run.METRICS["per_layer" if trace else "end_to_end"]
    assert list(results) == list(workloads.SMOKE)
    for result in results.values():
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert list(result["metrics"]) == list(group)


def test_without_program_source_exits_nonzero_without_result(tmp_path):
    shutil.copytree(
        run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__")
    )
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "search-box-g3"]
        + ["--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_metric_map_matches_benchmark_json():
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    for group in ("end_to_end", "per_layer"):
        assert [(m["name"], m["unit"], m["better"]) for m in bench[group]] == [
            (name, spec["unit"], spec["better"]) for name, spec in run.METRICS[group].items()
        ]
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert list(run.METRICS["workloads"]) == list(workloads.WORKLOADS)


def test_generated_matrix_is_random_siegel_point(tmp_path):
    case = workloads.prepare(workloads.WORKLOADS["search-box-g3"], 5, tmp_path)
    loaded = load_period_matrix(case.argv[1])
    assert np.array_equal(loaded.entries, random_siegel_point(3, 5).entries)


@pytest.mark.parametrize("name", ["search-box-g3", "search-records-g1"])
def test_search_check_requires_the_golden_bytes(name, tmp_path):
    case = workloads.prepare(workloads.WORKLOADS[name], 0, tmp_path)
    table = (workloads.GOLDEN_DIR / ("%s.seed0.txt" % name)).read_text()
    assert case.check(0, table) is None
    # Same records, last digit of the first scale factor changed.
    lines = table.splitlines(keepends=True)
    cols = lines[1].split(" ")
    cols[2] = cols[2][:-1] + ("1" if cols[2][-1] != "1" else "2")
    changed = "".join([lines[0], " ".join(cols)] + lines[2:])
    assert case.check(0, changed) is not None
    assert case.check(0, "".join(lines[:-1])) is not None
    assert case.check(1, table) is not None


def test_report_check_requires_every_identity_to_pass(tmp_path):
    case = workloads.prepare(workloads.SMOKE["report-identities"], 0, tmp_path)
    code, _, stdout, _ = run.invoke(cli, case.argv)
    assert case.check(code, stdout) is None
    assert case.check(code, stdout.replace("PASS", "FAIL", 1)) is not None
    dropped = "".join(stdout.splitlines(keepends=True)[:-1])
    assert case.check(code, dropped) is not None
