"""conflictfuzz benchmark.

    python3 perfbench/run.py --workload straight3-default --seed 1 \
        --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15

Runs one workload (or `all` of them, one after another) in fresh
single-threaded child processes with CONFLICT_FUZZ_WORKERS unset, checks
the program's outputs and prints, as its last line, one JSON object:
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics
are the end-to-end ones; with --trace 1 they are the per-layer split from a
traced run. See perfbench/README.md for the workloads and metrics.

Exits 0 when every operation succeeded, 1 when some operation failed (a
non-zero exit, a ledger hash mismatch or a replay divergence; the result is
still printed) and 2 when the benchmark itself could not run (no result).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import workloads as wl

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".bench_work")
# Each workload must end within this many seconds.
TIME_LIMIT = 170.0


class BenchError(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("CONFLICT_FUZZ_WORKERS", None)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_children(mode: str, argvs: list, deadline: float, work: str) -> list:
    """Run one child per argv, all at once; their JSON results in order."""
    procs = []
    try:
        for i, argv in enumerate(argvs):
            result_path = os.path.join(work, f"{mode}-{i}-result.json")
            cmd = [sys.executable, os.path.join(HERE, "child.py"), mode, *argv,
                   "--workdir", work, "--spawned-at", repr(time.monotonic()),
                   "--deadline", repr(deadline - 5.0), "--result", result_path]
            # the program's own prints must not reach our stdout
            procs.append((subprocess.Popen(cmd, env=child_env(),
                                           stdout=sys.stderr), result_path))
        results = []
        for proc, result_path in procs:
            try:
                code = proc.wait(timeout=max(deadline - time.monotonic(), 1.0))
            except subprocess.TimeoutExpired:
                raise BenchError(f"{mode} child timed out")
            if code != 0:
                raise BenchError(f"{mode} child exited {code}")
            with open(result_path) as fh:
                results.append(json.load(fh))
            # the next child writes a new file rather than rewriting this
            # one, which would make the file system flush it
            os.remove(result_path)
        return results
    finally:
        for proc, _ in procs:
            if proc.poll() is None:
                proc.kill()
                proc.wait()


def run_child(mode: str, argv: list, deadline: float, work: str) -> dict:
    return run_children(mode, [argv], deadline, work)[0]


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def quantile(values, q: int) -> float:
    """The q-th percentile, 0 without samples."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(workload: str, raw: dict, setups: list) -> dict:
    # Replays cycle through the archive, so each complete pass is the same
    # work; the median pass rate is moved less by a slow spell of the host
    # than the rate over all replays at once.
    latencies, n = raw["replay_latencies"], raw["replay_entries"]
    # with no replays at all (the campaign failed, so nothing was
    # archived) the replay figures read 0
    passes = ([latencies[i:i + n] for i in range(0, len(latencies) - n + 1, n)]
              or [latencies]) if latencies else []
    replays_per_s = median(len(p) / sum(p) for p in passes)
    if workload == wl.REPLAY_WORKLOAD:
        # each replay is one evaluation and reproduces one collision
        evals_per_s = replays_per_s
        collisions_per_min = 60.0 * replays_per_s
    else:
        campaign = raw["campaign"]
        seconds = campaign["seconds"]  # None unless the campaign was correct
        evals_per_s = campaign["evaluations"] / seconds if seconds else 0.0
        collisions_per_min = (60.0 * campaign["at_fault"] / seconds
                              if seconds else 0.0)
    return {
        "evals_per_s": evals_per_s,
        "collisions_per_min": collisions_per_min,
        "replay_ms_p50": 1e3 * quantile(latencies, 50),
        # Over entries, each at the median of its replays: a hiccup of the
        # host slows one replay, not an entry's median. Over single replays,
        # ten runs of merge-dense on a shared 2-core VM gave a p99 of
        # 17.5-31.4 ms while their evals/s moved 12 %. That p99 is kept in
        # the result record as replay_ms_p99_single.
        "replay_ms_p99": 1e3 * quantile(
            [statistics.median(latencies[i::n])
             for i in range(min(n, len(latencies)))], 99),
        "replays_per_s": replays_per_s,
        "peak_rss_mb": raw["peak_rss_kb"] / 1024.0,
        "setup_s": statistics.median(setups),
    }


def run_workload(workload: str, seed: int, seconds: float, trace: int,
                 tiny: bool, deadline: float) -> dict:
    os.makedirs(WORK, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK)
    common = ["--workload", workload, "--seed", str(seed)]
    if tiny:
        common.append("--tiny")
    try:
        # half the probes run before the measurement and half after it, so
        # that a slow spell of the host reaches only some of them
        probes = 1 if tiny else wl.SETUP_PROBES // 2
        setups = [run_child("probe", common, deadline, work)["setup_s"]
                  for _ in range(probes)]
        argv = common + ["--seconds", repr(seconds), "--trace", str(trace)]
        if workload == wl.REPLAY_WORKLOAD:
            # untimed, so both campaigns run at once
            parts = run_children(
                "generate", [common + ["--campaign", name]
                             for name in wl.CAMPAIGN_WORKLOADS], deadline, work)
            entries = os.path.join(work, "entries.json")
            with open(entries, "w") as fh:
                json.dump([p for part in parts for p in part["entries"]], fh)
            argv += ["--entries", entries]
        results = os.path.join(WORK, "results")
        os.makedirs(results, exist_ok=True)
        stem = os.path.join(results, f"{workload}-seed{seed}-trace{trace}")
        if trace:
            argv += ["--spans", stem + ".spans.jsonl"]
        raw = run_child("measure", argv, deadline, work)
        setups += [run_child("probe", common, deadline, work)["setup_s"]
                   for _ in range(probes)]
    finally:
        shutil.rmtree(work, ignore_errors=True)
    setups.append(raw["setup_s"])
    if trace:
        metrics = raw["layers"]
        units = wl.PER_LAYER
    else:
        metrics = end_to_end(workload, raw, setups)
        units = wl.END_TO_END
    result = {
        "correct": raw["failed"] == 0,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "environment": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": raw["numpy"],
            "CONFLICT_FUZZ_WORKERS": raw["conflict_fuzz_workers"] or "unset",
        },
        "replay_samples": len(raw["replay_latencies"]),
        "replay_entries": raw["replay_entries"],
        "replay_ms_p99_single": 1e3 * quantile(raw["replay_latencies"], 99),
        "setup_samples": setups,
        "ledger": {k: raw["campaign"][k] for k in
                   ("rng_seed", "budget", "sha256")} if "campaign" in raw else None,
        "problems": raw["problems"],
        "result": result,
    }
    with open(stem + ".json", "w") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps({k: record[k] for k in
                      ("workload", "environment", "replay_samples",
                       "replay_entries", "replay_ms_p99_single",
                       "problems")}))
    return result


def print_table(workload: str, result: dict):
    print(f"{workload}: attempted {result['attempted']}, failed "
          f"{result['failed']}, failed_ratio "
          f"{result['failed'] / result['attempted']:.4f}")
    for name, metric in result["metrics"].items():
        print(f"  {name:40s} {metric['value']:14.6g} {metric['unit']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True,
                        choices=wl.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="a few seconds per workload, for smoke tests")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "conflictfuzz", "cli.py")):
        print(f"error: no conflictfuzz sources under {ROOT}/src",
              file=sys.stderr)
        return 2
    names = wl.WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds,
                                         args.trace, args.tiny,
                                         time.monotonic() + TIME_LIMIT)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.workload == "all":
        for name, result in results.items():
            print_table(name, result)
        print(json.dumps(results))
    else:
        print(json.dumps(results[args.workload]))
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
