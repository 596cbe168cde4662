"""Scenario chromosomes and their edit operators.

A scenario is a set of per-NPC chromosomes, each holding a per-second speed
series (SP) and action series (AC). Stage-1 operators (long acceleration /
deceleration, random speed / action edits) and Stage-2 operators
(deceleration, brake, acceleration) all return new genomes; chromosomes are
immutable values.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, replace

from . import road
from .road import LaneGraph

STRAIGHT = "Straight"
LANE_LEFT = "LaneLeft"
LANE_RIGHT = "LaneRight"
ACTIONS = (STRAIGHT, LANE_LEFT, LANE_RIGHT)

MIN_START_SEPARATION = 6.0


class GenomeError(ValueError):
    pass


@dataclass(frozen=True)
class SpeedRange:
    min: float
    max: float

    def __post_init__(self):
        if not self.min < self.max:
            raise GenomeError("speed range must have min < max")


@dataclass(frozen=True)
class NpcChromosome:
    npc_id: str
    start: tuple  # (lane_id, s)
    SP: tuple  # one speed per second, length T
    AC: tuple  # one action per second, length T

    def __post_init__(self):
        if len(self.SP) != len(self.AC):
            raise GenomeError("SP and AC must have equal length")
        for v in self.SP:
            if v < 0:
                raise GenomeError("negative speed gene")
        for a in self.AC:
            if a not in ACTIONS:
                raise GenomeError(f"unknown action {a!r}")

    @property
    def T(self) -> int:
        return len(self.SP)


@dataclass(frozen=True)
class ScenarioGenome:
    scenario_id: str
    template_id: str
    T: int
    ego_start: tuple  # (lane_id, s)
    ego_route: tuple  # ordered lane ids
    npcs: tuple  # NpcChromosome list
    parent_ids: tuple = ()
    rng_seed: int | None = None

    def __post_init__(self):
        if not self.npcs:
            raise GenomeError("at least one NPC required")
        for npc in self.npcs:
            if npc.T != self.T:
                raise GenomeError("all chromosomes must share T")


def genome_key(genome: ScenarioGenome) -> tuple:
    """What the simulator reads of a genome: equal keys, equal traces.

    Bookkeeping (`scenario_id`, `parent_ids`, `rng_seed`) is left out.
    """
    return (genome.template_id, genome.T, genome.ego_start, genome.ego_route,
            genome.npcs)


def _quantize(v: float, step: float = 0.5) -> float:
    return round(v / step) * step


def _starts_valid(graph: LaneGraph, starts) -> bool:
    pts = []
    for lane_id, s in starts:
        lane = graph.lane(lane_id)
        if not (0 <= s <= lane.length):
            return False
        (xy, _h) = road.to_world(graph, lane_id, s, 0.0)
        pts.append(xy)
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            if math.dist(pts[i], pts[j]) < MIN_START_SEPARATION:
                return False
    return True


def _fixed_starts(graph: LaneGraph, n_npcs: int):
    """Predefined ego + NPC placements that guarantee potential interaction."""
    t = graph.template_id
    if t == "straight3":
        ego = ("L1", 10.0)
        slots = [("L1", 45.0), ("L0", 25.0), ("L2", 25.0), ("L1", 80.0),
                 ("L0", 60.0), ("L2", 60.0)]
    elif t == "twoway2":
        ego = ("E", 10.0)
        slots = [("W", graph.length - 10.0), ("E", 45.0),
                 ("W", graph.length - 50.0), ("E", 80.0)]
    elif t == "merge":
        ego = ("M", 10.0)
        slots = [("R", 10.0), ("M", 45.0), ("R", 40.0), ("M", 80.0)]
    else:  # cross
        ego = ("A", 10.0)
        slots = [("B", 10.0), ("A", 45.0), ("B", 40.0), ("A", 80.0)]
    if n_npcs > len(slots):
        raise GenomeError(f"template {t}: no fixed slots for {n_npcs} NPCs")
    return ego, slots[:n_npcs]


def _ego_route(graph: LaneGraph, ego_lane: str):
    route = [ego_lane]
    cur = graph.lane(ego_lane)
    while cur.successors:
        nxt = cur.successors[0]
        route.append(nxt)
        cur = graph.lane(nxt)
    return tuple(route)


def random_chromosome(rng: random.Random, npc_id: str, start, T: int,
                      speed_range: SpeedRange) -> NpcChromosome:
    sp = tuple(_quantize(rng.uniform(speed_range.min, speed_range.max))
               for _ in range(T))
    ac = []
    for _ in range(T):
        r = rng.random()
        if r < 0.8:
            ac.append(STRAIGHT)
        elif r < 0.9:
            ac.append(LANE_LEFT)
        else:
            ac.append(LANE_RIGHT)
    return NpcChromosome(npc_id=npc_id, start=start, SP=sp, AC=tuple(ac))


def random_genome(rng: random.Random, graph: LaneGraph, n_npcs: int, T: int,
                  placement_policy: str = "fixed",
                  scenario_id: str = "s0") -> ScenarioGenome:
    """Randomly initialized scenario.

    placement_policy "fixed" uses the template's predefined slots; "random"
    samples NPC starts within 80 m of the ego (rejection sampling on the
    minimum-separation constraint).
    """
    if n_npcs < 1:
        raise GenomeError("n_npcs must be >= 1")
    if T < 10:
        raise GenomeError("T must be >= 10")
    speed_range = SpeedRange(0.0, graph.speed_limit)
    ego, fixed = _fixed_starts(graph, n_npcs if placement_policy == "fixed" else 1)
    if placement_policy == "fixed":
        starts = fixed
    elif placement_policy == "random":
        ego_xy = road.to_world(graph, ego[0], ego[1], 0.0)[0]
        lane_ids = sorted(graph.lanes)
        starts = []
        for _ in range(n_npcs):
            for _attempt in range(100):
                lane_id = lane_ids[rng.randrange(len(lane_ids))]
                lane = graph.lane(lane_id)
                s = rng.uniform(0.0, lane.length)
                xy = road.to_world(graph, lane_id, s, 0.0)[0]
                if math.dist(xy, ego_xy) > 80.0:
                    continue
                if _starts_valid(graph, [ego] + starts + [(lane_id, s)]):
                    starts.append((lane_id, s))
                    break
            else:
                raise GenomeError("placement collision after 100 attempts")
    else:
        raise GenomeError(f"unknown placement policy {placement_policy!r}")
    npcs = tuple(random_chromosome(rng, f"npc{i}", start, T, speed_range)
                 for i, start in enumerate(starts))
    return ScenarioGenome(scenario_id=scenario_id, template_id=graph.template_id,
                          T=T, ego_start=ego, ego_route=_ego_route(graph, ego[0]),
                          npcs=npcs)


def crossover(rng: random.Random, a: ScenarioGenome, b: ScenarioGenome):
    """Swap a non-empty proper subset of NPC chromosomes between two genomes."""
    if (a.template_id != b.template_id or a.T != b.T
            or len(a.npcs) != len(b.npcs)):
        raise GenomeError("crossover parents have mismatched shapes")
    n = len(a.npcs)
    if n == 1:
        swap = {0}  # the only non-empty subset; children exchange the NPC
    else:
        size = rng.randrange(1, n)  # proper subset
        swap = set(rng.sample(range(n), size))
    child_a = list(a.npcs)
    child_b = list(b.npcs)
    for i in swap:
        child_a[i], child_b[i] = child_b[i], child_a[i]
    parents = (a.scenario_id, b.scenario_id)
    return (replace(a, npcs=tuple(child_a), parent_ids=parents),
            replace(b, npcs=tuple(child_b), parent_ids=parents))


def _clamped(sp, lo, hi, idx, delta):
    # genes are kept at 3-decimal precision so the serialized form is lossless
    out = list(sp)
    for i in idx:
        out[i] = round(min(max(out[i] + delta, lo), hi), 3)
    return tuple(out)


def mutate_long_acceleration(chrom: NpcChromosome, t_arrive: int,
                             speed_limit: float) -> NpcChromosome:
    """Raise SP by 1 m/s from scenario start up to (excluding) arrival second."""
    if not 0 < t_arrive <= chrom.T:
        raise GenomeError("t_arrive outside (0, T]")
    return replace(chrom, SP=_clamped(chrom.SP, 0.0, speed_limit,
                                      range(0, t_arrive), 1.0))


def mutate_long_deceleration(chrom: NpcChromosome, t_arrive: int) -> NpcChromosome:
    """Lower SP by 1 m/s from scenario start up to (excluding) arrival second."""
    if not 0 < t_arrive <= chrom.T:
        raise GenomeError("t_arrive outside (0, T]")
    return replace(chrom, SP=_clamped(chrom.SP, 0.0, math.inf,
                                      range(0, t_arrive), -1.0))


def mutate_speed_random(rng: random.Random, chrom: NpcChromosome,
                        speed_range: SpeedRange) -> NpcChromosome:
    """Replace one speed gene with a different quantized value in range."""
    t = rng.randrange(chrom.T)
    old = chrom.SP[t]
    candidates = []
    v = speed_range.min
    while v <= speed_range.max + 1e-9:
        q = _quantize(v)
        if abs(q - old) > 1e-9:
            candidates.append(q)
        v += 0.5
    new = candidates[rng.randrange(len(candidates))]
    sp = list(chrom.SP)
    sp[t] = new
    return replace(chrom, SP=tuple(sp))


def mutate_action_random(rng: random.Random, chrom: NpcChromosome) -> NpcChromosome:
    """Replace one action gene with one of the other two maneuvers."""
    t = rng.randrange(chrom.T)
    others = [a for a in ACTIONS if a != chrom.AC[t]]
    ac = list(chrom.AC)
    ac[t] = others[rng.randrange(2)]
    return replace(chrom, AC=tuple(ac))


def _window(t: int, dt_conflict: float, T: int):
    lo = max(0, t - math.ceil(dt_conflict))
    hi = min(t, T - 1)
    return range(lo, hi + 1)  # inclusive of the arrival second


def mutate_deceleration(rng: random.Random, chrom: NpcChromosome, t: int,
                        dt_conflict: float) -> NpcChromosome:
    """Subtract a uniform 0..2 m/s over the approach window [t - ceil(dt), t]."""
    u = rng.uniform(0.0, 2.0)
    return replace(chrom, SP=_clamped(chrom.SP, 0.0, math.inf,
                                      _window(t, dt_conflict, chrom.T), -u))


def mutate_brake(rng: random.Random, chrom: NpcChromosome, t: int) -> NpcChromosome:
    """Subtract a uniform 2..6 m/s over seconds [t-1, t]."""
    if t < 1:
        raise GenomeError("brake needs t >= 1")
    u = rng.uniform(2.0, 6.0)
    return replace(chrom, SP=_clamped(chrom.SP, 0.0, math.inf,
                                      _window(t, 1.0, chrom.T), -u))


def mutate_acceleration(rng: random.Random, chrom: NpcChromosome, t: int,
                        dt_conflict: float, speed_limit: float) -> NpcChromosome:
    """Add a uniform 0..3 m/s over the approach window [t - ceil(dt), t]."""
    u = rng.uniform(0.0, 3.0)
    return replace(chrom, SP=_clamped(chrom.SP, 0.0, speed_limit,
                                      _window(t, dt_conflict, chrom.T), u))


def replace_npc(genome: ScenarioGenome, index: int,
                chrom: NpcChromosome) -> ScenarioGenome:
    npcs = list(genome.npcs)
    npcs[index] = chrom
    return replace(genome, npcs=tuple(npcs))


# -- serialization -----------------------------------------------------------

def genome_to_json(genome: ScenarioGenome) -> str:
    """Canonical JSON document; round-trips bit-exactly.

    Starts are written at full precision (random placement draws them from
    `rng.uniform`); speed genes are written with 3 decimals, the precision
    every operator keeps them at.
    """
    doc = {
        "scenario_id": genome.scenario_id,
        "template_id": genome.template_id,
        "T": genome.T,
        "ego_start": list(genome.ego_start),
        "ego_route": list(genome.ego_route),
        "npcs": [
            {
                "npc_id": npc.npc_id,
                "start": list(npc.start),
                "SP": [f"{v:.3f}" for v in npc.SP],
                "AC": list(npc.AC),
            }
            for npc in genome.npcs
        ],
        "parent_ids": list(genome.parent_ids),
        "rng_seed": genome.rng_seed,
    }
    return json.dumps(doc, indent=1)


def genome_from_json(text: str) -> ScenarioGenome:
    doc = json.loads(text)
    npcs = tuple(
        NpcChromosome(
            npc_id=n["npc_id"],
            start=(n["start"][0], float(n["start"][1])),
            SP=tuple(float(v) for v in n["SP"]),
            AC=tuple(n["AC"]),
        )
        for n in doc["npcs"]
    )
    return ScenarioGenome(
        scenario_id=doc["scenario_id"],
        template_id=doc["template_id"],
        T=int(doc["T"]),
        ego_start=(doc["ego_start"][0], float(doc["ego_start"][1])),
        ego_route=tuple(doc["ego_route"]),
        npcs=npcs,
        parent_ids=tuple(doc["parent_ids"]),
        rng_seed=doc["rng_seed"],
    )
