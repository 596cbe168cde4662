"""Command-line surface: run campaigns, replay archived collisions,
regenerate reports from ledgers and run the brute-force conflict oracle.

Exit codes: 0 success, 2 invalid config, 3 output dir not writable,
4 replay divergence, 5 malformed ledger.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import sys

import yaml

from . import campaign as cp
from . import genome as gn
from . import oracle, report, road, search, sim

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_OUTDIR = 3
EXIT_DIVERGENCE = 4
EXIT_LEDGER = 5

SCHEMA_VERSION = 1

_GA_KEYS = {
    "population_size": int,
    "threshold_m": float,
    "threshold_c": float,
    "m_generations_per_handoff": int,
    "collision_threshold_m": float,
    "collision_iterations": int,
    "collision_batch": int,
    "restart_stagnation_R": int,
    "restart_similarity_eps": float,
    "invert_thresholds": bool,
    "rng_seed": int,
}

_TOP_KEYS = {
    "schema_version": int,
    "rng_seed": int,
    "template": str,
    "length": float,
    "speed_limit": float,
    "n_npcs": int,
    "T": int,
    "t_c": float,
    "t_s": float,
    "budget_steps": int,
    "variant": str,
    "placement_policy": str,
    "dt": float,
    "ego": dict,
    "ga": dict,
}


class ConfigError(ValueError):
    def __init__(self, key, message):
        self.key = key
        super().__init__(f"config key {key!r}: {message}")


def load_config(path: str, seed_override=None,
                variant_override=None) -> cp.CampaignConfig:
    with open(path) as fh:
        doc = yaml.safe_load(fh)
    if not isinstance(doc, dict):
        raise ConfigError("schema_version", "config must be a mapping")
    for key in doc:
        if key not in _TOP_KEYS:
            raise ConfigError(key, "unknown key")
    if doc.get("schema_version") != SCHEMA_VERSION:
        raise ConfigError("schema_version",
                          f"must be {SCHEMA_VERSION}")
    if "rng_seed" not in doc:
        raise ConfigError("rng_seed", "required")
    ga_doc = doc.get("ga", {}) or {}
    for key in ga_doc:
        if key not in _GA_KEYS:
            raise ConfigError(f"ga.{key}", "unknown key")
    ga_kwargs = {k: _GA_KEYS[k](v) for k, v in ga_doc.items()}
    ga_kwargs["rng_seed"] = int(
        seed_override if seed_override is not None else doc["rng_seed"])
    ego_doc = doc.get("ego", {}) or {}
    for key in ego_doc:
        if key not in ("name", "parameters"):
            raise ConfigError(f"ego.{key}", "unknown key")
    try:
        ga = search.GaConfig(**ga_kwargs)
        cfg = cp.CampaignConfig(
            ga=ga,
            template_id=doc.get("template", "straight3"),
            length=float(doc.get("length", 800.0)),
            speed_limit=float(doc.get("speed_limit", 20.0)),
            ego=sim.EgoControllerSpec(
                name=ego_doc.get("name", "baseline"),
                parameters=ego_doc.get("parameters", {}) or {}),
            n_npcs=int(doc.get("n_npcs", 2)),
            T=int(doc.get("T", 30)),
            t_c=float(doc.get("t_c", 3.0)),
            t_s=float(doc.get("t_s", 15.0)),
            budget_steps=int(doc.get("budget_steps", 1600)),
            variant=(variant_override or doc.get("variant", "full")),
            placement_policy=doc.get("placement_policy", "fixed"),
            dt=float(doc.get("dt", 0.1)),
            workers=int(os.environ.get("CONFLICT_FUZZ_WORKERS", "1")),
        )
    except (search.SearchError, cp.CampaignError, ValueError) as exc:
        key = "t_c" if "t_c" in str(exc) else "config"
        raise ConfigError(key, str(exc)) from exc
    if cfg.template_id not in road.TEMPLATE_IDS:
        raise ConfigError("template", f"unknown template {cfg.template_id!r}")
    return cfg


def _config_snapshot(cfg: cp.CampaignConfig) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "template": cfg.template_id,
        "length": cfg.length,
        "speed_limit": cfg.speed_limit,
        "n_npcs": cfg.n_npcs,
        "T": cfg.T,
        "t_c": cfg.t_c,
        "t_s": cfg.t_s,
        "dt": cfg.dt,
        "ego": {"name": cfg.ego.name, "parameters": cfg.ego.parameters},
    }


def cmd_run(args) -> int:
    try:
        cfg = load_config(args.config, seed_override=args.seed,
                          variant_override=args.variant)
    except (ConfigError, OSError, yaml.YAMLError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    out = args.out
    try:
        os.makedirs(out, exist_ok=True)
        os.makedirs(os.path.join(out, "archive"), exist_ok=True)
        probe = os.path.join(out, ".write_probe")
        with open(probe, "w") as fh:
            fh.write("")
        os.remove(probe)
    except OSError as exc:
        print(f"error: output dir not writable: {exc}", file=sys.stderr)
        return EXIT_OUTDIR

    result = cp.run_campaign(cfg)

    ledger_path = os.path.join(out, "ledger.jsonl")
    tmp = ledger_path + ".tmp"
    with open(tmp, "w") as fh:
        for event in result.ledger:
            fh.write(json.dumps(event) + "\n")
    os.replace(tmp, ledger_path)

    snapshot = _config_snapshot(cfg)
    # entries that repeat a genome share its Trace; serialise it once
    trace_files = {}  # id(trace) -> its first .trace.jsonl
    for record in result.archive:
        base = os.path.join(out, "archive", f"step_{record.campaign_step:06d}")
        entry = {
            "config": snapshot,
            "campaign_step": record.campaign_step,
            "collision": {
                "step": record.trace.collision["step"],
                "contact_point": list(record.contact_point),
                "npc_id": record.npc_id,
                "type_key": str(record.type_key),
                "ev_fault": record.ev_fault,
            },
            "genome": json.loads(gn.genome_to_json(record.genome)),
        }
        with open(base + ".json.tmp", "w") as fh:
            json.dump(entry, fh, indent=1)
        os.replace(base + ".json.tmp", base + ".json")
        trace_path = base + ".trace.jsonl"
        first = trace_files.get(id(record.trace))
        if first is None:
            trace_files[id(record.trace)] = trace_path
            with open(trace_path + ".tmp", "w") as fh:
                fh.write(sim.trace_to_jsonl(record.trace))
        else:
            shutil.copyfile(first, trace_path + ".tmp")
        os.replace(trace_path + ".tmp", trace_path)

    report.write_all(result.metrics, out)
    _print_summary(result.metrics)
    return EXIT_OK


def _print_summary(metrics: cp.CampaignMetrics):
    def fmt(v):
        return "-" if v is None else str(v)

    print("Campaign summary")
    print(f"  Executed search steps:            {metrics.executed_steps}")
    print(f"  Total collisions:                 {metrics.total_collisions}")
    print(f"  Collision types:                  {metrics.distinct_types}")
    print(f"  Search steps for first collision: "
          f"{fmt(metrics.steps_to_first_collision)}")
    print(f"  Average search steps per collision: "
          f"{fmt(metrics.avg_steps_per_collision)}")
    print(f"  Search steps for all types:       "
          f"{fmt(metrics.steps_to_all_types)}")


def cmd_replay(args) -> int:
    with open(args.entry) as fh:
        entry = json.load(fh)
    conf = entry["config"]
    graph = road.build_template(conf["template"], conf["length"],
                                conf["speed_limit"])
    ego = sim.EgoControllerSpec(name=conf["ego"]["name"],
                                parameters=conf["ego"]["parameters"])
    genome = gn.genome_from_json(json.dumps(entry["genome"]))
    trace = sim.simulate(genome, graph, ego, dt=conf["dt"])
    expected = entry["collision"]
    if trace.collision is None:
        print("replay divergence: no collision reproduced", file=sys.stderr)
        return EXIT_DIVERGENCE
    if trace.collision["step"] != expected["step"]:
        print(f"replay divergence: collision at step "
              f"{trace.collision['step']}, expected {expected['step']}",
              file=sys.stderr)
        return EXIT_DIVERGENCE
    got = trace.collision["ev_contact_point"]
    want = expected["contact_point"]
    if math.dist(got, want) > 1e-6:
        print(f"replay divergence: contact point {got} vs {want}",
              file=sys.stderr)
        return EXIT_DIVERGENCE
    if args.svg_frames:
        os.makedirs(args.svg_frames, exist_ok=True)
        report.write_frame_svgs(trace, graph, args.svg_frames)
    print(f"replay verified: collision at step {expected['step']} "
          f"({expected['type_key']})")
    return EXIT_OK


def cmd_report(args) -> int:
    ledger = []
    try:
        with open(args.ledger) as fh:
            for lineno, line in enumerate(fh, start=1):
                if not line.strip():
                    continue
                try:
                    ledger.append(json.loads(line))
                except json.JSONDecodeError:
                    print(f"error: malformed ledger line {lineno}",
                          file=sys.stderr)
                    return EXIT_LEDGER
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_LEDGER
    metrics = cp.compute_metrics(ledger)
    os.makedirs(args.out, exist_ok=True)
    report.write_all(metrics, args.out)
    _print_summary(metrics)
    return EXIT_OK


def cmd_oracle(args) -> int:
    with open(args.trace) as fh:
        trace = sim.trace_from_jsonl(fh.read())
    events = oracle.oracle_conflicts(trace, t_c=args.tc, t_s=args.ts)
    for e in events:
        print(json.dumps(e))
    print(f"# {len(events)} events", file=sys.stderr)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="conflictfuzz",
        description="Two-stage conflict/collision scenario fuzzing")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a campaign from a config file")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--out", required=True)
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--variant", choices=cp.VARIANTS, default=None)
    p_run.set_defaults(func=cmd_run)

    p_replay = sub.add_parser("replay", help="re-simulate an archived collision")
    p_replay.add_argument("--entry", required=True)
    p_replay.add_argument("--svg-frames", default=None)
    p_replay.set_defaults(func=cmd_replay)

    p_report = sub.add_parser("report", help="regenerate reports from a ledger")
    p_report.add_argument("--ledger", required=True)
    p_report.add_argument("--out", required=True)
    p_report.set_defaults(func=cmd_report)

    p_oracle = sub.add_parser("oracle",
                              help="brute-force conflict oracle on a trace")
    p_oracle.add_argument("--trace", required=True)
    p_oracle.add_argument("--tc", type=float, default=3.0)
    p_oracle.add_argument("--ts", type=float, default=15.0)
    p_oracle.set_defaults(func=cmd_oracle)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
