"""Spans and counters recorded around conflictfuzz's module functions.

The tracer wraps public functions from outside, by replacing the module
attribute the callers look up, so nothing in src/ changes. A span records
name, start, end, parent span and the operation it belongs to; spans stay in
memory until the run ends. The hottest inner functions are only counted.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import Counter

GENOME_OPS = ("random_genome", "crossover", "mutate_long_acceleration",
              "mutate_long_deceleration", "mutate_speed_random",
              "mutate_action_random", "mutate_deceleration", "mutate_brake",
              "mutate_acceleration")

# Spans whose busy time is reported for the group, not per name.
GROUPS = {f"genome.{op}": "genome.ops" for op in GENOME_OPS}
GROUPS.update({"rng.child_rng": "rng", "rng.child_seed": "rng"})

SEARCH_SPANS = ("search.conflict_search_generation",
                "search.collision_search_iteration", "search.restart_check",
                "search.fitness_conflict", "search.fitness_collision")
CAMPAIGN_SPANS = ("campaign.run_campaign", "campaign.evaluate")


def _after_simulate(counts, trace, *args):
    counts["sim.vehicle_steps"] += len(trace.steps) * len(trace.steps[0])


def _after_rasterize(counts, grid, trace, *args):
    counts["conflicts.rasterized_vehicle_steps"] += (
        len(trace.steps) * len(trace.steps[0]))
    counts["conflicts.occupancy_intervals"] += sum(
        len(ivs) for cells in grid.intervals.values() for ivs in cells.values())


def _after_find_conflicts(counts, cset, grid, *args):
    ev_cells = grid.intervals["ego"].keys()
    counts["conflicts.shared_cells"] += sum(
        len(ev_cells & cells.keys())
        for vid, cells in grid.intervals.items() if vid != "ego")
    counts["conflicts.records"] += len(cset.conflicts) + len(cset.spatial)


def _after_classify_all(counts, cset, *args):
    counts["conflicts.unclassifiable"] += sum(
        1 for rec in cset.conflicts + cset.spatial if rec.diagnostic)


def _after_generation(counts, result, *args):
    _population, events = result
    counts["search.members"] += len(events)
    counts["search.carried_forward"] += sum(
        1 for e in events if not e["simulated"])


def _after_collision_iteration(counts, result, *args):
    events = result[2]
    if events and events[0].get("skipped"):
        counts["search.skipped_iterations"] += 1
        return
    counts["search.mutants"] += len(events)
    counts["search.unmutated_mutants"] += sum(
        1 for e in events if not e["mutated"])


def _after_restart_check(counts, restart, *args):
    counts["search.restarts"] += bool(restart)


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1, op]
        self.counts = Counter()
        self.op = 0
        self._stack = []
        self._saved = []

    def _span(self, name, fn, after):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if after is not None:
                after(self.counts, result, *args)
            return result
        return wrapper

    def _count(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _patch(self, owner, attr, wrapper):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def install(self):
        from conflictfuzz import (campaign, cli, conflicts, genome, report,
                                  rng, road, search, sim)
        span = [
            (sim, "simulate", "sim.simulate", _after_simulate),
            (sim, "trace_to_jsonl", "sim.trace_to_jsonl", None),
            (road, "build_template", "road.build_template", None),
            (conflicts, "rasterize", "conflicts.rasterize", _after_rasterize),
            (conflicts, "find_conflicts", "conflicts.find_conflicts",
             _after_find_conflicts),
            (conflicts, "classify_all", "conflicts.classify_all",
             _after_classify_all),
            (search, "conflict_search_generation",
             "search.conflict_search_generation", _after_generation),
            (search, "collision_search_iteration",
             "search.collision_search_iteration", _after_collision_iteration),
            (search, "restart_check", "search.restart_check",
             _after_restart_check),
            (search, "fitness_conflict", "search.fitness_conflict", None),
            (search, "fitness_collision", "search.fitness_collision", None),
            (genome, "genome_from_json", "genome.genome_from_json", None),
            (rng, "child_rng", "rng.child_rng", None),
            (rng, "child_seed", "rng.child_seed", None),
            (campaign, "run_campaign", "campaign.run_campaign", None),
            # the per-evaluation ledger and archive bookkeeping
            (campaign._Runner, "evaluate", "campaign.evaluate", None),
            (campaign, "classify_collision", "campaign.classify_collision",
             None),
            (cli, "cmd_run", "cli.cmd_run", None),
            (cli, "cmd_replay", "cli.cmd_replay", None),
            (cli, "load_config", "cli.load_config", None),
            (report, "write_all", "report.write_all", None),
        ]
        span += [(genome, op, f"genome.{op}", None) for op in GENOME_OPS]
        for owner, attr, name, after in span:
            self._patch(owner, attr,
                        self._span(name, getattr(owner, attr), after))
        for owner, attr, name in (
                (sim, "detect_collision", "sim.detect_collision.calls"),
                (road, "to_world", "road.to_world.calls"),
                (road, "project_to_lane", "road.project_to_lane.calls")):
            self._patch(owner, attr, self._count(name, getattr(owner, attr)))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def tracing(self):
        """Trace the operation run inside the block."""
        self.op += 1
        self.install()
        try:
            yield
        finally:
            self.uninstall()

    def dump(self, path: str):
        with open(path, "w") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")

    def layer_metrics(self, n_ops: int, overhead_ratio: float) -> dict:
        """Per-layer metrics, per traced operation (campaign or replay)."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        output_s = 0.0
        for name, start, end, parent, _op in spans:
            if parent >= 0:
                child_time[parent] += end - start
                if name == "campaign.run_campaign":
                    output_s += spans[parent][2] - end
        busy, self_s, calls = Counter(), Counter(), Counter()
        for i, (name, start, end, parent, _op) in enumerate(spans):
            self_s[name] += end - start - child_time[i]
            group = GROUPS.get(name, name)
            calls[name] += 1
            if group != name:
                calls[group] += 1
            # a span nested in one of its own group is already in the busy time
            if parent < 0 or GROUPS.get(spans[parent][0]) != group:
                busy[group] += end - start
        c = self.counts
        per_op = max(n_ops, 1)

        def ratio(num, den):
            return num / den if den else 0.0

        values = {
            "sim.simulate.busy_s": busy["sim.simulate"],
            "sim.simulate.calls": calls["sim.simulate"],
            "sim.vehicle_steps": c["sim.vehicle_steps"],
            "sim.detect_collision.calls": c["sim.detect_collision.calls"],
            "sim.trace_to_jsonl.busy_s": busy["sim.trace_to_jsonl"],
            "road.to_world.calls": c["road.to_world.calls"],
            "road.project_to_lane.calls": c["road.project_to_lane.calls"],
            "road.build_template.busy_s": busy["road.build_template"],
            "conflicts.rasterize.busy_s": busy["conflicts.rasterize"],
            "conflicts.occupancy_intervals": c["conflicts.occupancy_intervals"],
            "conflicts.find_conflicts.busy_s": busy["conflicts.find_conflicts"],
            "conflicts.shared_cells": c["conflicts.shared_cells"],
            "conflicts.records": c["conflicts.records"],
            "conflicts.classify_all.busy_s": busy["conflicts.classify_all"],
            "conflicts.unclassifiable": c["conflicts.unclassifiable"],
            "search.self_s": sum(self_s[n] for n in SEARCH_SPANS),
            "search.restart_check.busy_s": busy["search.restart_check"],
            "search.skipped_iterations": c["search.skipped_iterations"],
            "search.restarts": c["search.restarts"],
            "genome.ops.calls": calls["genome.ops"],
            "genome.ops.busy_s": busy["genome.ops"],
            "genome.genome_from_json.busy_s": busy["genome.genome_from_json"],
            "rng.child_rng.calls": calls["rng.child_rng"],
            "rng.busy_s": busy["rng"],
            "campaign.self_s": sum(self_s[n] for n in CAMPAIGN_SPANS),
            "campaign.classify_collision.busy_s":
                busy["campaign.classify_collision"],
            "cli.load_config.busy_s": busy["cli.load_config"],
            "cli.output_s": output_s,
            "cli.output_bytes": c["cli.output_bytes"],
            "report.write_all.busy_s": busy["report.write_all"],
            "cli.replay.self_s": self_s["cli.cmd_replay"],
        }
        values = {k: v / per_op for k, v in values.items()}
        values.update({
            "sim.simulate.us_per_vehicle_step":
                1e6 * ratio(busy["sim.simulate"], c["sim.vehicle_steps"]),
            "conflicts.rasterize.us_per_vehicle_step":
                1e6 * ratio(busy["conflicts.rasterize"],
                            c["conflicts.rasterized_vehicle_steps"]),
            "search.carried_forward_ratio":
                ratio(c["search.carried_forward"], c["search.members"]),
            "search.unmutated_mutant_ratio":
                ratio(c["search.unmutated_mutants"], c["search.mutants"]),
            "campaign.collision_ratio":
                ratio(c["campaign.collisions"], c["campaign.evaluations"]),
            "campaign.at_fault_ratio":
                ratio(c["campaign.at_fault"], c["campaign.evaluations"]),
            "trace.overhead_ratio": overhead_ratio,
        })
        return values
