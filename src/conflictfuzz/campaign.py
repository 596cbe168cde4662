"""Campaign orchestration: population -> conflict search -> handoff ->
collision search -> restart, until the simulation budget is spent.

Owns the step-accounted JSONL ledger, the collision archive and metric
computation. Ablation variants bypass Stage 1 (collision_only) or
additionally replace targeted mutations with random ones
(collision_only_random).
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

from . import conflicts as ca
from . import genome as gn
from . import road, rng as rngmod, search, sim

VARIANTS = ("full", "collision_only", "collision_only_random")

FRONT, REAR, LEFT, RIGHT = "front", "rear", "left", "right"
SAME_DIR, OPPOSITE, CROSSING_DIR = "same", "opposite", "crossing"


class CampaignError(ValueError):
    pass


@dataclass
class CampaignConfig:
    ga: search.GaConfig = field(default_factory=search.GaConfig)
    template_id: str = "straight3"
    length: float = 800.0
    speed_limit: float = 20.0
    ego: sim.EgoControllerSpec = field(default_factory=sim.EgoControllerSpec)
    n_npcs: int = 2
    T: int = 30
    t_c: float = ca.DEFAULT_TC
    t_s: float = ca.DEFAULT_TS
    budget_steps: int = 1600
    variant: str = "full"
    placement_policy: str = "fixed"
    dt: float = 0.1
    workers: int = 1

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise CampaignError(f"unknown variant {self.variant!r}")
        if self.budget_steps < self.ga.population_size:
            raise CampaignError("budget_steps must cover one population")
        if self.t_c > self.t_s:
            raise CampaignError("t_c must not exceed t_s")


@dataclass(frozen=True)
class CollisionTypeKey:
    impact_zone_ev: str
    npc_rel_heading: str
    ev_maneuver: str
    npc_maneuver: str
    lane_relation_prior: str

    def __str__(self):
        return "|".join((self.impact_zone_ev, self.npc_rel_heading,
                         self.ev_maneuver, self.npc_maneuver,
                         self.lane_relation_prior))


@dataclass
class CollisionRecord:
    campaign_step: int
    genome: gn.ScenarioGenome
    trace: sim.Trace
    npc_id: str
    type_key: CollisionTypeKey
    ev_fault: bool
    contact_point: tuple


@dataclass
class CampaignMetrics:
    executed_steps: int
    total_collisions: int
    distinct_types: int
    steps_to_first_collision: int | None
    avg_steps_per_collision: int | None
    steps_to_all_types: int | None
    type_growth_curve: list  # (step, cumulative distinct types)
    heat_strip: list  # per step: type-key string or ""
    conflicts_per_generation: list  # (step, conflicts in selected scenario)


@dataclass
class CampaignResult:
    metrics: CampaignMetrics
    archive: list  # CollisionRecord
    ledger: list  # event dicts


def classify_collision(trace: sim.Trace, graph: road.LaneGraph) -> CollisionTypeKey:
    """Deterministic categorical tuple standing in for qualitative typing."""
    col = trace.collision
    if col is None:
        raise CampaignError("trace has no collision")
    step = col["step"]
    ev = trace.steps[step][0]
    npc = next(s for s in trace.steps[step] if s.vehicle_id == col["npc_id"])
    px, py = col["ev_contact_point"]
    c, s_ = math.cos(ev.heading), math.sin(ev.heading)
    lx = (px - ev.xy[0]) * c + (py - ev.xy[1]) * s_
    ly = -(px - ev.xy[0]) * s_ + (py - ev.xy[1]) * c
    ang = math.degrees(math.atan2(ly, lx))
    if abs(ang) <= 45:
        zone = FRONT
    elif abs(ang) >= 135:
        zone = REAR
    else:
        zone = LEFT if ang > 0 else RIGHT
    rel = abs(math.degrees(ca._wrap(npc.heading - ev.heading)))
    if rel <= 30:
        heading_bucket = SAME_DIR
    elif rel >= 150:
        heading_bucket = OPPOSITE
    else:
        heading_bucket = CROSSING_DIR
    prior = max(step - round(1.0 / trace.dt), 0)
    ev_prior = trace.steps[prior][0]
    npc_prior = next(s for s in trace.steps[prior]
                     if s.vehicle_id == col["npc_id"])
    relation = road.lane_relation(graph, ev_prior.lane, npc_prior.lane)
    return CollisionTypeKey(zone, heading_bucket, ev.maneuver, npc.maneuver,
                            relation)


def compute_metrics(ledger: list) -> CampaignMetrics:
    """Derive all campaign metrics from the ledger alone."""
    sim_events = [e for e in ledger if e["stage"] != "handoff"]
    executed = len(sim_events)
    heat = []
    growth = []
    seen_types = set()
    total = 0
    first_step = None
    all_types_step = None
    for e in sim_events:
        col = e.get("collision")
        key = ""
        if col is not None and col["ev_fault"]:
            total += 1
            key = col["type_key"]
            if first_step is None:
                first_step = e["step"]
            if key not in seen_types:
                seen_types.add(key)
                all_types_step = e["step"]
        heat.append(key)
        growth.append((e["step"], len(seen_types)))
    conflicts_series = [(e["step"], e["fitness_conflict"]) for e in ledger
                        if e["stage"] == "handoff"]
    avg = round(executed / total) if total else None
    return CampaignMetrics(
        executed_steps=executed,
        total_collisions=total,
        distinct_types=len(seen_types),
        steps_to_first_collision=first_step,
        avg_steps_per_collision=avg,
        steps_to_all_types=all_types_step if seen_types else None,
        type_growth_curve=growth,
        heat_strip=heat,
        conflicts_per_generation=conflicts_series,
    )


class _BudgetExhausted(Exception):
    pass


class _Runner:
    """Owns the ledger, archive and step counter for one campaign."""

    def __init__(self, cfg: CampaignConfig):
        self.cfg = cfg
        self.graph = road.build_template(cfg.template_id, cfg.length,
                                         cfg.speed_limit)
        self.ledger = []
        self.archive = []
        self.step = 0
        self.stage = "restart"
        self.scenario_counter = 0
        # genome_key -> EvaluatedScenario of the first evaluation; the
        # simulator is deterministic, so a repeat reuses it
        self.memo = {}
        self.pool = (ThreadPoolExecutor(max_workers=cfg.workers)
                     if cfg.workers > 1 else None)

    def next_id(self) -> str:
        self.scenario_counter += 1
        return f"s{self.scenario_counter:06d}"

    def evaluate(self, genome: gn.ScenarioGenome) -> search.EvaluatedScenario:
        if self.step >= self.cfg.budget_steps:
            raise _BudgetExhausted
        key = gn.genome_key(genome)
        hit = self.memo.get(key)
        if hit is not None:
            evaluated = replace(hit, genome=genome)
        else:
            if self.pool is not None:
                evaluated = self.pool.submit(self._evaluate, genome).result()
            else:
                evaluated = self._evaluate(genome)
            self.memo[key] = evaluated
        self.step += 1
        col = None
        if evaluated.collided:
            record = self._archive_collision(evaluated)
            col = {"npc_id": record.npc_id, "type_key": str(record.type_key),
                   "ev_fault": record.ev_fault}
        self.ledger.append({
            "step": self.step,
            "stage": self.stage,
            "scenario_id": genome.scenario_id,
            "parent_ids": list(genome.parent_ids),
            "n_conflicts": len(evaluated.conflict_set.conflicts),
            "n_spatial": len(evaluated.conflict_set.spatial),
            "fitness_conflict": evaluated.fitness_conflict,
            "fitness_collision": round(evaluated.fitness_collision, 6),
            "collision": col,
            "rng_child_seed": rngmod.child_seed(self.cfg.ga.rng_seed, "sim",
                                                self.step),
        })
        return evaluated

    def _evaluate(self, genome):
        trace = sim.simulate(genome, self.graph, self.cfg.ego, dt=self.cfg.dt)
        grid = ca.rasterize(trace)
        cset = ca.find_conflicts(grid, t_c=self.cfg.t_c, t_s=self.cfg.t_s)
        ca.classify_all(cset, trace, self.graph)
        collided = trace.collision is not None
        # only _archive_collision reads the trace, and only of a collision
        return search.EvaluatedScenario(
            genome=genome, trace=trace if collided else None,
            conflict_set=cset,
            fitness_conflict=search.fitness_conflict(cset),
            fitness_collision=search.fitness_collision(cset, self.cfg.t_c),
            collided=collided)

    def _archive_collision(self, evaluated) -> CollisionRecord:
        trace = evaluated.trace
        key = classify_collision(trace, self.graph)
        record = CollisionRecord(
            campaign_step=self.step,
            genome=evaluated.genome,
            trace=trace,
            npc_id=trace.collision["npc_id"],
            type_key=key,
            ev_fault=sim.ev_fault(trace),
            contact_point=trace.collision["ev_contact_point"],
        )
        self.archive.append(record)
        return record

    def log_handoff(self, evaluated):
        self.ledger.append({
            "step": self.step,
            "stage": "handoff",
            "scenario_id": evaluated.genome.scenario_id,
            "fitness_conflict": evaluated.fitness_conflict,
        })

    def new_population(self, restart_round: int):
        self.stage = "restart"
        population = []
        for i in range(self.cfg.ga.population_size):
            rng = rngmod.child_rng(self.cfg.ga.rng_seed, "init",
                                   restart_round, i)
            genome = gn.random_genome(rng, self.graph, self.cfg.n_npcs,
                                      self.cfg.T, self.cfg.placement_policy,
                                      scenario_id=self.next_id())
            population.append(self.evaluate(genome))
        return population

    def close(self):
        if self.pool is not None:
            self.pool.shutdown()


def run_campaign(cfg: CampaignConfig) -> CampaignResult:
    runner = _Runner(cfg)
    try:
        if cfg.variant == "full":
            _run_full(runner)
        else:
            _run_collision_only(
                runner, random_ops=(cfg.variant == "collision_only_random"))
    except _BudgetExhausted:
        pass
    finally:
        runner.close()
    return CampaignResult(metrics=compute_metrics(runner.ledger),
                          archive=runner.archive, ledger=runner.ledger)


def _run_full(runner: _Runner):
    cfg = runner.cfg
    seed = cfg.ga.rng_seed
    restart_round = 0
    population = runner.new_population(restart_round)
    # generation 0 checkpoint: mean conflicts over the initial population
    runner.ledger.append({
        "step": 0, "stage": "handoff", "scenario_id": "initial",
        "fitness_conflict":
            sum(m.fitness_conflict for m in population) / len(population),
    })
    best_history = []
    gen_counter = 0
    handoff_counter = 0
    while True:
        candidates = []
        runner.stage = "conflict"
        for _g in range(cfg.ga.m_generations_per_handoff):
            rng = rngmod.child_rng(seed, "gen", gen_counter)
            gen_counter += 1
            population, _events = search.conflict_search_generation(
                population, cfg.ga, rng, runner.evaluate,
                cfg.speed_limit, runner.next_id)
            candidates.extend(population)
        best = max(candidates, key=lambda m: m.fitness_conflict)
        best_history.append(best.fitness_conflict)
        runner.log_handoff(best)
        runner.stage = "collision"
        target = best
        for it in range(cfg.ga.collision_iterations):
            rng = rngmod.child_rng(seed, "fuzz", handoff_counter, it)
            target, _cols, events = search.collision_search_iteration(
                target, cfg.ga, rng, runner.evaluate, cfg.speed_limit,
                runner.next_id)
            if events and events[0].get("skipped"):
                break
        handoff_counter += 1
        if search.restart_check(best_history, population, cfg.ga,
                                cfg.speed_limit):
            restart_round += 1
            best_history.clear()
            population = runner.new_population(restart_round)


def _run_collision_only(runner: _Runner, random_ops: bool):
    cfg = runner.cfg
    seed = cfg.ga.rng_seed
    round_idx = 0
    while True:
        runner.stage = "restart"
        rng = rngmod.child_rng(seed, "seed-genome", round_idx)
        genome = gn.random_genome(rng, runner.graph, cfg.n_npcs, cfg.T,
                                  cfg.placement_policy,
                                  scenario_id=runner.next_id())
        target = runner.evaluate(genome)
        runner.log_handoff(target)
        runner.stage = "collision"
        for it in range(cfg.ga.collision_iterations):
            rng = rngmod.child_rng(seed, "fuzz", round_idx, it)
            target, _cols, events = search.collision_search_iteration(
                target, cfg.ga, rng, runner.evaluate, cfg.speed_limit,
                runner.next_id, use_random_mutations=random_ops)
            if events and events[0].get("skipped"):
                break
        round_idx += 1
