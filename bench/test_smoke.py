"""Smoke test of the benchmark itself, on one operation per workload.

    python3 -m pytest bench/test_smoke.py -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import reference
import run
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def results():
    """--workload all, untraced and traced side by side, one op per workload."""
    procs = {trace: subprocess.Popen(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", "all",
         "--seed", "3", "--seconds", "0", "--trace", str(trace)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, cwd=ROOT)
        for trace in (0, 1)}
    out = {}
    try:
        for trace, proc in procs.items():
            stdout, stderr = proc.communicate(timeout=170)
            assert proc.returncode == 0, stderr
            out[trace] = json.loads(stdout.strip().splitlines()[-1])
    finally:
        for proc in procs.values():
            proc.kill()
            proc.wait()
    return out


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_workload_reports_its_metrics(results, trace, section):
    wanted = {m["name"]: m["unit"] for m in SPEC[section]}
    assert sorted(results[trace]) == sorted(w["name"] for w in SPEC["workloads"])
    for name, result in results[trace].items():
        assert set(result) == {"correct", "attempted", "failed", "metrics"}, name
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, name
        assert {k: v["unit"] for k, v in result["metrics"].items()} == wanted, name


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(SPEC["command"] + ["--workload", "short-pairs", "--seed", "1",
                                             "--seconds", "1", "--trace", "0"],
                          capture_output=True, text=True, cwd=tmp_path, timeout=170)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


@pytest.fixture(scope="module")
def qr():
    return run.load_program()


def test_pair_checks_reject_wrong_outputs(qr):
    short = workloads.ShortPairs(qr)
    golden = ("golden", "HARRY", "BOVIK")
    grid, report = qr.mirror.construct_double_sided("HARRY", "BOVIK")
    assert short.check(golden, (grid, report)) == (True, True)

    other = qr.mirror.construct_double_sided("HARRY", "BOVIN")
    assert short.check(golden, other) == (False, True)

    flipped = qr.grid.data_placement_order()[-1]
    grid.cells[flipped] ^= 1  # still decodes, but no longer the golden bitmap
    assert short.check(golden, (grid, report)) == (False, True)

    infeasible = qr.mirror.ConstructionError("system infeasible", "none")
    budget = qr.mirror.ConstructionError("RS budget", "none")
    capacity = workloads.CapacityPairs(qr)
    assert capacity.check(golden, infeasible) == (True, False)
    assert capacity.check(golden, budget) == (False, False)
    assert short.check(golden, infeasible) == (False, False)


def test_scan_checks_reject_wrong_outputs(qr):
    scans = workloads.DecodeScans(qr)
    scans.prepare(5)
    for item in scans.pool[:4]:
        outcome = scans.op(item)
        assert scans.check(item, outcome) == (True, False)
        pbm, (kind, first, second, damage) = item
        if kind == "single":
            wrong = (pbm, (kind, first + "X", second, damage))
        else:
            wrong = (pbm, (kind, first, second, (damage[0] + 1, damage[1])))
        assert scans.check(wrong, outcome) == (False, False)


def test_speedometer_runs_its_share_after_every_operation():
    speedometer = reference.Speedometer(share=0.5)
    busy = (0.004, 0.0001, 0.0001, 0.02)
    for seconds in busy:
        speedometer.after(seconds)
    assert len(speedometer.slowdowns) == len(busy)
    assert all(slowdown > 0 for slowdown in speedometer.slowdowns)
    assert sum(speedometer.samples) >= 0.5 * sum(busy)
