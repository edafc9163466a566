"""The benchmark's own tests: python3 -m pytest bench/test_bench.py"""

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

import oracle
import run
import tracing
import workloads
from reference import Reference
from tracing import Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# the issue's six end-to-end metrics, the reference-scaled ones of the result
# line, and the reference's own time
REPORTED = {"setup_s": "s", "analysis_p50_s": "s", "analysis_tail_s": "s", "analyses_per_s": "1/s",
            "peak_rss_mb": "MB", "failed_frac": "ratio", "analysis_p50_ref": "ref",
            "analyses_per_ref": "1/ref", "reference_s": "s"}

cli = run.import_package(ROOT)


def _benchmark_json() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _run(cwd: str, workload: str, trace: int) -> subprocess.CompletedProcess:
    argv = [sys.executable, os.path.join(cwd, "bench", "run.py"), "--workload", workload,
            "--seed", "1", "--seconds", "0.2", "--trace", str(trace), "--smoke"]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_smoke_run_prints_every_end_to_end_metric(workload):
    proc = _run(ROOT, workload, 0)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    report = {line.split()[0]: line.split() for line in lines[:-1] if line.strip()}
    for name, unit in REPORTED.items():
        assert report[name][2] == unit, report[name]
    assert float(report["failed_frac"][1]) == 0.0
    declared = {m["name"]: m["unit"] for m in _benchmark_json()["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared


def test_traced_smoke_run_prints_every_per_layer_metric():
    proc = _run(ROOT, "bands_small", 1)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    declared = {m["name"]: m["unit"] for m in _benchmark_json()["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared


def test_benchmark_json_names_the_workloads():
    names = [w["name"] for w in _benchmark_json()["workloads"]]
    assert sorted(names) == sorted(workloads.WORKLOADS)


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(str(tmp_path), "bands_small", 0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def _analyse(kind) -> str:
    for argv in kind.calls:
        assert cli.main(list(argv)) == 0
    with open(kind.output, encoding="utf-8") as fh:
        return fh.read()


@pytest.mark.parametrize("index", [0, 1])  # univariate and return-time families
def test_corrupted_estimate_fails_the_check(tmp_path, index):
    kind = workloads.bands_small(1, str(tmp_path), workloads.SMOKE)[index]
    text = _analyse(kind)
    expected = oracle.expected_rows(kind)
    oracle.check_document(text, expected)

    lines = text.splitlines()
    cells = lines[2].split(",")
    cells[1] = repr(float(cells[1]) + 1.0 / expected[2])
    lines[2] = ",".join(cells)
    with pytest.raises(oracle.CheckFailed):
        oracle.check_document("\n".join(lines) + "\n", expected)


def test_every_family_matches_the_pair_counts(tmp_path):
    for kind in workloads.families_perm(2, str(tmp_path), workloads.SMOKE):
        oracle.check_document(_analyse(kind), oracle.expected_rows(kind))


def _package_state() -> dict:
    state = {}
    for name, module in sys.modules.items():
        if name == "extremogram" or name.startswith("extremogram."):
            for key, value in vars(module).items():
                state[name, key] = value
                if isinstance(value, type) and value.__module__.startswith("extremogram"):
                    for attr, member in vars(value).items():
                        state[name, key, attr] = member
    return state


def test_tracer_restores_every_patched_attribute():
    before = _package_state()
    tracer = Tracer()
    tracer.install()
    try:
        assert cli.bootstrap_bands is not before["extremogram.cli", "bootstrap_bands"]
        assert not tracer.absent
    finally:
        tracer.uninstall()
    after = _package_state()
    assert before.keys() == after.keys()
    assert all(after[key] is value for key, value in before.items())


def test_a_missing_target_is_listed_once(monkeypatch):
    gone = ("gone", "extremogram.cli", "no_such_function", None)
    monkeypatch.setattr(tracing, "TARGETS", tracing.TARGETS + (gone,))
    tracer = Tracer()
    for _ in range(2):
        tracer.install()
        tracer.uninstall()
    assert tracer.absent == ["extremogram.cli.no_such_function"]


def test_volatility_warms_up_on_one_path_whatever_the_seed(tmp_path):
    calls = {
        workloads.warmup("volatility", workloads.volatility(seed, str(tmp_path), workloads.SMOKE),
                         str(tmp_path), workloads.SMOKE).calls
        for seed in (1, 2)
    }
    assert len(calls) == 1


def test_self_times_stay_within_each_analysis_wall_time(tmp_path):
    kinds = workloads.volatility(1, str(tmp_path), workloads.SMOKE)
    kinds += workloads.bands_small(1, str(tmp_path), workloads.SMOKE)[:2]
    tracer = Tracer()
    walls = {}
    tracer.install()
    try:
        for i, kind in enumerate(kinds):
            tracer.analysis = i
            start = time.perf_counter()
            _analyse(kind)
            walls[i] = time.perf_counter() - start
    finally:
        tracer.uninstall()
    per_analysis = {}
    for (name, analysis), seconds in tracer.self_times().items():
        assert seconds >= -1e-9, name
        per_analysis[analysis] = per_analysis.get(analysis, 0.0) + seconds
    assert per_analysis.keys() == walls.keys()
    for analysis, total in per_analysis.items():
        assert total <= walls[analysis]


def test_every_workload_has_a_reference_that_repeats_its_result():
    assert sorted(workloads.REFERENCE_MIX) == sorted(workloads.WORKLOADS)
    for mix in set(workloads.REFERENCE_MIX.values()):
        reference = Reference(mix)
        assert reference.run() > 0 and reference.run() > 0
        assert reference.expected is not None
