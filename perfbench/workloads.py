"""Workload definitions, metric names and reference ledger hashes.

Every input the benchmark feeds to conflictfuzz is built here from the
workload name and the benchmark seed; the program only sees the generated
config files and the archive entries its own `run` wrote.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

# The shape of configs/example.yaml, copied so that an edit to the example
# does not silently change the benchmark.
EXAMPLE_CONFIG = {
    "schema_version": 1,
    "rng_seed": 42,
    "template": "straight3",
    "length": 800,
    "speed_limit": 20,
    "n_npcs": 2,
    "T": 30,
    "t_c": 3.0,
    "t_s": 15.0,
    "budget_steps": 1600,
    "variant": "full",
    "placement_policy": "fixed",
    "dt": 0.1,
    "ego": {"name": "baseline", "parameters": {}},
    "ga": {
        "population_size": 4,
        "threshold_m": 0.4,
        "threshold_c": 0.4,
        "m_generations_per_handoff": 5,
        "collision_threshold_m": 0.8,
        "collision_iterations": 5,
        "collision_batch": 4,
        "restart_stagnation_R": 4,
        "restart_similarity_eps": 0.05,
        "invert_thresholds": False,
    },
}


# Each campaign workload runs one fixed, full-length campaign, and
# replay-archive replays the distinct collisions both campaigns write;
# --seed sets the order in which replays run. The campaign is not drawn
# from --seed because its cost and yield depend on its rng seed far more
# than on the code: across rng seeds 0-9 at budget 800 on straight3, on a
# 2-core VM, evals/s ranged 93-121 and at-fault collisions 116-359.
#
# The budget matters too: `run` keeps every archived trace in memory and
# the restart path needs many handoffs. Budget 200 instead of 1600 on
# straight3 read 52 MB peak RSS instead of 148 MB, and budget 100 on merge
# ran about three handoffs, too few for a stagnation restart (budget 400
# ran 6, budget 800 ran 14).


@dataclass(frozen=True)
class CampaignWorkload:
    template: str
    length: float
    n_npcs: int
    rng_seed: int
    budget: int

    def config(self, budget: int) -> dict:
        return dict(EXAMPLE_CONFIG, template=self.template, length=self.length,
                    n_npcs=self.n_npcs, rng_seed=self.rng_seed,
                    budget_steps=budget)

    def campaign(self, tiny: bool) -> tuple:
        """(rng_seed, budget) of the workload's campaign."""
        return self.rng_seed, TINY_BUDGET if tiny else self.budget


CAMPAIGN_WORKLOADS = {
    # configs/example.yaml as it is
    "straight3-default": CampaignWorkload("straight3", 800, 2, rng_seed=42,
                                          budget=1600),
    # 300 m, not 800 m: at 800 m the non-straight templates produce no
    # collisions. Budget 800, not 1600: at 1600 one campaign takes about a
    # minute on a 2-core VM.
    "merge-dense": CampaignWorkload("merge", 300, 4, rng_seed=42, budget=800),
}
REPLAY_WORKLOAD = "replay-archive"
WORKLOADS = tuple(CAMPAIGN_WORKLOADS) + (REPLAY_WORKLOAD,)

# Replays run for at least --seconds (after the campaign on a campaign
# workload), at least MIN_REPLAYS of them, so that the p99 has ten samples
# beyond it, and at least MIN_PASSES complete passes through the archive,
# so that every entry has a median latency.
MIN_REPLAYS = 1000
MIN_PASSES = 3
# A campaign workload replays at most this many of its archive's entries,
# evenly spaced, so that its replays pass through each of them six or more
# times. With every entry (403 on merge-dense) and three passes, the p99 of
# five runs spread 21 % of its median.
CAMPAIGN_REPLAY_ENTRIES = 150
# Set-up probes, each a fresh process, besides the measuring process.
SETUP_PROBES = 12

# --tiny: a few seconds per workload, for the smoke tests.
TINY_BUDGET = 24
TINY_MIN_REPLAYS = 10

END_TO_END = {
    "evals_per_s": "1/s",
    "collisions_per_min": "1/min",
    "replay_ms_p50": "ms",
    "replay_ms_p99": "ms",
    "replays_per_s": "1/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

PER_LAYER = {
    "sim.simulate.busy_s": "s",
    "sim.simulate.calls": "count",
    "sim.vehicle_steps": "count",
    "sim.simulate.us_per_vehicle_step": "us",
    "sim.detect_collision.calls": "count",
    "sim.trace_to_jsonl.busy_s": "s",
    "road.to_world.calls": "count",
    "road.project_to_lane.calls": "count",
    "road.build_template.busy_s": "s",
    "conflicts.rasterize.busy_s": "s",
    "conflicts.rasterize.us_per_vehicle_step": "us",
    "conflicts.occupancy_intervals": "count",
    "conflicts.find_conflicts.busy_s": "s",
    "conflicts.shared_cells": "count",
    "conflicts.records": "count",
    "conflicts.classify_all.busy_s": "s",
    "conflicts.unclassifiable": "count",
    "search.self_s": "s",
    "search.restart_check.busy_s": "s",
    "search.carried_forward_ratio": "ratio",
    "search.unmutated_mutant_ratio": "ratio",
    "search.skipped_iterations": "count",
    "search.restarts": "count",
    "genome.ops.calls": "count",
    "genome.ops.busy_s": "s",
    "genome.genome_from_json.busy_s": "s",
    "rng.child_rng.calls": "count",
    "rng.busy_s": "s",
    "campaign.self_s": "s",
    "campaign.classify_collision.busy_s": "s",
    "campaign.collision_ratio": "ratio",
    "campaign.at_fault_ratio": "ratio",
    "cli.load_config.busy_s": "s",
    "cli.output_s": "s",
    "cli.output_bytes": "bytes",
    "report.write_all.busy_s": "s",
    "cli.replay.self_s": "s",
    "trace.overhead_ratio": "ratio",
}

# SHA-256 of ledger.jsonl for each workload's campaign:
# (workload, rng_seed, budget) -> hex digest. Recompute with
# `python3 perfbench/child.py references` after a change that is meant to
# alter ledgers.
REFERENCE_LEDGER_SHA256 = {
    ("straight3-default", 42, 1600):
        "72a58ba959fa450cc1495410005a1a5ffb179c756fe233dcf7878a737ee7885b",
    ("merge-dense", 42, 800):
        "38d60878575618c7f671b900bd2ff6f169a2a8fbd88bb73e08d71b2168daf7da",
}


def shuffled(items, seed: int, salt: str) -> list:
    out = list(items)
    random.Random(f"{salt}:{seed}").shuffle(out)
    return out
