"""Smoke tests of the benchmark itself: python3 -m pytest -q perfbench"""

import json
import os
import shutil
import subprocess
import sys

import pytest

import child
import workloads as wl

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


@pytest.fixture
def work():
    path = os.path.join(ROOT, ".bench_work", "tests")
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    yield path
    shutil.rmtree(path, ignore_errors=True)


def run_bench(*argv, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *argv],
        cwd=cwd, capture_output=True, text=True, timeout=600)


def test_benchmark_json_names_every_workload_and_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(wl.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == wl.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == wl.PER_LAYER


@pytest.mark.parametrize("trace,units", [(0, wl.END_TO_END),
                                         (1, wl.PER_LAYER)])
def test_every_workload_prints_every_metric_with_its_unit(trace, units):
    proc = run_bench("--workload", "all", "--tiny", "--seconds", "1",
                     "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    results = json.loads(proc.stdout.splitlines()[-1])
    assert set(results) == set(wl.WORKLOADS)
    for result in results.values():
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] >= 1
        assert {name: m["unit"] for name, m in result["metrics"].items()} == units
        assert all(isinstance(m["value"], float | int)
                   for m in result["metrics"].values())
    for name in units:
        assert name in proc.stdout  # the table of --workload all


def measure(work, *argv):
    result = os.path.join(work, "result.json")
    assert child.main(["measure", "--tiny", "--seconds", "0.5", "--workdir",
                       work, "--result", result, *argv]) == 0
    with open(result) as fh:
        return json.load(fh)


def test_wrong_reference_hash_counts_as_failure(work, monkeypatch):
    rng_seed, budget = wl.CAMPAIGN_WORKLOADS["straight3-default"].campaign(True)
    monkeypatch.setitem(wl.REFERENCE_LEDGER_SHA256,
                        ("straight3-default", rng_seed, budget), "0" * 64)
    raw = measure(work, "--workload", "straight3-default")
    assert raw["attempted"] >= 1
    assert raw["failed"] >= 1
    assert "ledger" in raw["problems"][0]


def test_corrupt_or_divergent_archive_entries_count_as_failures(work):
    prog = child.Program(spawned_at=0.0)
    config = os.path.join(work, "gen.yaml")
    child.write_config(
        config, wl.CAMPAIGN_WORKLOADS["straight3-default"].config(60))
    out = os.path.join(work, "gen")
    assert prog.run(config, out)[0] == 0
    entries = child.archive_entries(out)
    assert len(entries) >= 3
    with open(entries[0], "w") as fh:
        fh.write("{not json")
    with open(entries[1]) as fh:
        entry = json.load(fh)
    entry["collision"]["step"] += 1
    with open(entries[1], "w") as fh:
        json.dump(entry, fh)
    listing = os.path.join(work, "entries.json")
    with open(listing, "w") as fh:
        json.dump(entries[:3], fh)
    raw = measure(work, "--workload", wl.REPLAY_WORKLOAD, "--entries", listing)
    assert 0 < raw["failed"] < raw["attempted"]
    problems = " ".join(raw["problems"])
    assert "exit None" in problems  # the corrupt entry raised
    assert "exit 4" in problems  # the edited one diverged


def test_without_the_program_exits_nonzero_and_prints_no_result(work):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), work)
    shutil.copytree(HERE, os.path.join(work, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", "straight3-default", "--seed", "1",
                     "--seconds", "1", "--trace", "0", cwd=work)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_a_failed_operation_prints_the_result_and_exits_1(monkeypatch, capsys):
    import run
    failed = {"correct": False, "attempted": 5, "failed": 1, "metrics": {}}
    monkeypatch.setattr(run, "run_workload", lambda *args: failed)
    assert run.main(["--workload", "merge-dense"]) == 1
    assert json.loads(capsys.readouterr().out.splitlines()[-1]) == failed
