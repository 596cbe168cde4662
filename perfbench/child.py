"""One benchmark process: runs a workload's operations in-process through the
conflictfuzz CLI and writes its raw measurements as JSON.

run.py starts this file in a fresh single-threaded process for every
set-up probe, archive generation and measurement. `python3
perfbench/child.py references` prints the reference ledger hashes of the
workloads' campaigns.
"""

from __future__ import annotations

import argparse
import contextlib
import glob
import hashlib
import json
import os
import resource
import shutil
import sys
import time
import traceback

import workloads as wl
from tracer import Tracer

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


class _SetupDone(Exception):
    """Raised by a set-up probe at its first evaluation."""


def import_cli():
    """The conflictfuzz CLI module of this checkout, never an installed one."""
    sys.path.insert(0, SRC)
    try:
        from conflictfuzz import cli
    except ImportError as exc:
        raise SystemExit(f"cannot import conflictfuzz from {SRC}: {exc}")
    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"conflictfuzz was imported from {cli.__file__}, "
                         f"not from {SRC}")
    return cli


class Program:
    """The CLI of the code under test, with one hook at the end of set-up.

    `road.build_template` is the last set-up step before a campaign's first
    evaluation; its return time starts a campaign's clock.
    """

    def __init__(self, spawned_at: float, probe: bool = False):
        self.cli = import_cli()
        from conflictfuzz import road
        self.spawned_at = spawned_at
        self.ready_at = None  # time.monotonic() at the first evaluation
        self.setup_end = 0.0  # time.perf_counter() after the last set-up
        build_template = road.build_template

        def build_template_marked(*args, **kwargs):
            graph = build_template(*args, **kwargs)
            self.setup_end = time.perf_counter()
            if self.ready_at is None:
                self.ready_at = time.monotonic()
            if probe:
                raise _SetupDone
            return graph
        road.build_template = build_template_marked
        self._devnull = open(os.devnull, "w")

    def mark_ready(self):
        if self.ready_at is None:
            self.ready_at = time.monotonic()

    def setup_s(self) -> float:
        return self.ready_at - self.spawned_at

    def _call(self, fn, argv):
        """Exit code of a CLI command; None if it raised."""
        args = self.cli.build_parser().parse_args(argv)
        try:
            with contextlib.redirect_stdout(self._devnull):
                return fn(args)
        except _SetupDone:
            raise
        except Exception:
            traceback.print_exc()
            return None

    def run(self, config_path: str, out_dir: str):
        """(exit code, host seconds after set-up) of `conflictfuzz run`."""
        code = self._call(self.cli.cmd_run,
                          ["run", "--config", config_path, "--out", out_dir])
        return code, time.perf_counter() - self.setup_end

    def replay(self, entry_path: str):
        """(exit code, host seconds) of `conflictfuzz replay`."""
        start = time.perf_counter()
        code = self._call(self.cli.cmd_replay, ["replay", "--entry", entry_path])
        return code, time.perf_counter() - start


def write_config(path: str, config: dict):
    # JSON is YAML, so the config needs no YAML writer here
    with open(path, "w") as fh:
        json.dump(config, fh, indent=1)


def ledger_summary(out_dir: str) -> dict:
    with open(os.path.join(out_dir, "ledger.jsonl"), "rb") as fh:
        data = fh.read()
    events = [json.loads(line) for line in data.splitlines() if line.strip()]
    evals = [e for e in events if e["stage"] != "handoff"]
    collided = [e["collision"] for e in evals if e["collision"] is not None]
    return {"sha256": hashlib.sha256(data).hexdigest(),
            "evaluations": len(evals), "collisions": len(collided),
            "at_fault": sum(1 for c in collided if c["ev_fault"])}


def output_bytes(out_dir: str) -> int:
    return sum(os.path.getsize(os.path.join(d, f))
               for d, _dirs, files in os.walk(out_dir) for f in files)


def archive_entries(out_dir: str) -> list:
    return sorted(glob.glob(os.path.join(out_dir, "archive", "step_*.json")))


def drop_traces(out_dir: str):
    """Delete the archived traces, which replay does not read. Deleting them
    while they are still in the page cache is cheap; later it can stall on
    writeback for a minute."""
    for path in glob.glob(os.path.join(out_dir, "archive", "*.trace.jsonl")):
        os.remove(path)


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def record(self, ok: bool, problem: str):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(problem)


class Replayer:
    """Replays archive entries one after another, in a seeded order, cycling
    through them. With a tracer each replay runs twice, untraced then traced.
    """

    def __init__(self, prog, entries, seed, tally, tracer=None):
        self.prog, self.tally, self.tracer = prog, tally, tracer
        self.order = wl.shuffled(entries, seed, "replay")
        self.latencies = []
        self.seconds = 0.0  # sum of the untraced latencies
        self.traced_s = 0.0
        self.traced_n = 0

    def _replay(self, path, traced):
        with self.tracer.tracing() if traced else contextlib.nullcontext():
            code, latency = self.prog.replay(path)
        self.tally.record(code == 0, f"{'traced ' * traced}replay "
                          f"{os.path.basename(path)} exit {code}")
        return latency

    def run(self, seconds, deadline, min_samples=0):
        """Replay until the untraced replays add up to `seconds` and number
        at least `min_samples`, or until the deadline."""
        while (self.order and time.perf_counter() < deadline
               and (self.seconds < seconds
                    or len(self.latencies) < min_samples)):
            path = self.order[len(self.latencies) % len(self.order)]
            self.prog.mark_ready()
            latency = self._replay(path, traced=False)
            self.latencies.append(latency)
            self.seconds += latency
            if self.tracer is not None:
                self.traced_s += self._replay(path, traced=True)
                self.traced_n += 1


def min_replays(args, n_entries: int) -> int:
    if args.tiny:
        return wl.TINY_MIN_REPLAYS
    return max(wl.MIN_REPLAYS, wl.MIN_PASSES * n_entries)


def measure_campaigns(prog, args, work, deadline, tally, tracer):
    """Run the workload's campaign once (with a tracer twice, untraced and
    then traced), then replay some of the collisions the untraced run
    archived for the rest of --seconds. The replays check the archive and
    give the workload its replay latencies."""
    spec = wl.CAMPAIGN_WORKLOADS[args.workload]
    rng_seed, budget = spec.campaign(args.tiny)
    config = os.path.join(work, "config.yaml")
    write_config(config, spec.config(budget))
    # without a reference, every run in the invocation must give one hash
    want = wl.REFERENCE_LEDGER_SHA256.get((args.workload, rng_seed, budget))
    label = f"campaign seed {rng_seed} budget {budget}"
    campaign = {"rng_seed": rng_seed, "budget": budget, "sha256": None,
                "seconds": None, "evaluations": 0, "at_fault": 0}
    entries = []
    traced_s = 0.0
    start = time.perf_counter()
    for traced in ([False, True] if tracer is not None else [False]):
        out = os.path.join(work, "traced" if traced else "run")
        with tracer.tracing() if traced else contextlib.nullcontext():
            code, seconds = prog.run(config, out)
        if code != 0:
            tally.record(False, f"{label}: exit {code}")
            continue
        summary = ledger_summary(out)
        ok = want is None or summary["sha256"] == want
        tally.record(ok, f"{label}: ledger {summary['sha256']} != {want}")
        want = want or summary["sha256"]
        if traced:
            traced_s = seconds if ok else 0.0
            for key in ("evaluations", "collisions", "at_fault"):
                tracer.counts[f"campaign.{key}"] += summary[key]
            tracer.counts["cli.output_bytes"] += output_bytes(out)
            shutil.rmtree(out)
            continue
        campaign.update({k: summary[k] for k in
                         ("sha256", "evaluations", "at_fault")})
        if ok:
            campaign["seconds"] = seconds
        drop_traces(out)
        entries = archive_entries(out)
        entries = entries[::max(1, -(-len(entries)
                                     // wl.CAMPAIGN_REPLAY_ENTRIES))]
    replayer = Replayer(prog, entries, args.seed, tally)
    replayer.run(args.seconds - (time.perf_counter() - start), deadline,
                 min_replays(args, len(entries)))
    result = {"campaign": campaign,
              "replay_latencies": replayer.latencies,
              "replay_entries": len(replayer.order)}
    if tracer is not None:
        result["overhead_ratio"] = (campaign["seconds"] / traced_s
                                    if campaign["seconds"] and traced_s
                                    else 0.0)
        result["traced_ops"] = 1
    return result


def measure_replays(prog, args, work, deadline, tally, tracer):
    with open(args.entries) as fh:
        entries = json.load(fh)
    replayer = Replayer(prog, entries, args.seed, tally, tracer)
    replayer.run(args.seconds, deadline, min_replays(args, len(entries)))
    result = {"replay_latencies": replayer.latencies,
              "replay_entries": len(replayer.order)}
    if tracer is not None:
        # every untraced replay has a traced twin
        result["overhead_ratio"] = (replayer.seconds / replayer.traced_s
                                    if replayer.traced_s else 0.0)
        result["traced_ops"] = replayer.traced_n
    return result


def cmd_measure(args) -> dict:
    deadline = time.perf_counter() + (args.deadline - time.monotonic())
    prog = Program(args.spawned_at)
    tracer = Tracer() if args.trace else None
    tally = Tally()
    measure = (measure_replays if args.workload == wl.REPLAY_WORKLOAD
               else measure_campaigns)
    result = measure(prog, args, args.workdir, deadline, tally, tracer)
    import numpy
    result.update({
        "attempted": tally.attempted, "failed": tally.failed,
        "problems": tally.problems, "setup_s": prog.setup_s(),
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "numpy": numpy.__version__,
        "conflict_fuzz_workers": os.environ.get("CONFLICT_FUZZ_WORKERS"),
    })
    if tracer is not None:
        result["layers"] = tracer.layer_metrics(result["traced_ops"],
                                                result["overhead_ratio"])
        if args.spans:
            tracer.dump(args.spans)
    return result


def cmd_probe(args) -> dict:
    prog = Program(args.spawned_at, probe=True)
    if args.workload == wl.REPLAY_WORKLOAD:
        prog.mark_ready()  # a replay's own set-up is part of its latency
    else:
        spec = wl.CAMPAIGN_WORKLOADS[args.workload]
        # A new file each time: rewriting an existing one makes the file
        # system flush it on close, which took 30-80 ms on a 2-core VM.
        probe = os.path.join(args.workdir, f"probe-{os.getpid()}")
        write_config(probe + ".yaml", spec.config(spec.campaign(args.tiny)[1]))
        try:
            prog.run(probe + ".yaml", probe)
        except _SetupDone:
            pass
    if prog.ready_at is None:
        raise SystemExit("set-up probe never reached its first evaluation")
    return {"setup_s": prog.setup_s()}


def cmd_generate(args) -> dict:
    """Part of replay-archive's archive: the distinct collisions that one
    campaign workload's campaign writes."""
    prog = Program(time.monotonic())
    spec = wl.CAMPAIGN_WORKLOADS[args.campaign]
    config = os.path.join(args.workdir, f"gen-{args.campaign}.yaml")
    write_config(config, spec.config(spec.campaign(args.tiny)[1]))
    out = os.path.join(args.workdir, f"gen-{args.campaign}")
    code, _ = prog.run(config, out)
    if code != 0:
        raise SystemExit(f"archive campaign {config} exited {code}")
    seen, picked = set(), []
    for path in archive_entries(out):
        with open(path) as fh:
            genome = json.load(fh)["genome"]
        # scenario and parent ids differ even between equal scenarios
        key = json.dumps({name: value for name, value in genome.items()
                          if name not in ("scenario_id", "parent_ids")},
                         sort_keys=True)
        if key in seen:
            os.remove(path)
        else:
            seen.add(key)
            picked.append(path)
    drop_traces(out)
    return {"entries": picked}


def cmd_references(args) -> dict:
    """Ledger SHA-256 of every workload's campaign, printed as a Python dict."""
    prog = Program(time.monotonic())
    work = os.path.join(ROOT, ".bench_work", "references")
    os.makedirs(work, exist_ok=True)
    try:
        for name, spec in wl.CAMPAIGN_WORKLOADS.items():
            rng_seed, budget = spec.campaign(tiny=False)
            config = os.path.join(work, "config.yaml")
            write_config(config, spec.config(budget))
            out = os.path.join(work, name)
            code, _ = prog.run(config, out)
            if code != 0:
                raise SystemExit(f"{name} seed {rng_seed} exited {code}")
            summary = ledger_summary(out)
            print(f"    ({name!r}, {rng_seed}, {budget}):\n"
                  f"        {summary['sha256']!r},  # {summary['at_fault']}"
                  f" at-fault collisions", flush=True)
    finally:
        shutil.rmtree(work)
    return {}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("mode", choices=("probe", "generate", "measure",
                                         "references"))
    parser.add_argument("--workload", choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--workdir")
    parser.add_argument("--campaign", choices=tuple(wl.CAMPAIGN_WORKLOADS),
                        help="campaign workload whose archive to generate")
    parser.add_argument("--entries", help="JSON list of archive entries")
    parser.add_argument("--spawned-at", type=float, default=time.monotonic(),
                        help="time.monotonic() when the parent started us")
    parser.add_argument("--deadline", type=float, default=float("inf"),
                        help="time.monotonic() by which to stop measuring")
    parser.add_argument("--spans", help="file to write the trace spans to")
    parser.add_argument("--result", help="file to write the JSON result to")
    args = parser.parse_args(argv)
    result = {"probe": cmd_probe, "generate": cmd_generate,
              "measure": cmd_measure, "references": cmd_references}[args.mode](args)
    if args.result:
        with open(args.result, "w") as fh:
            json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
