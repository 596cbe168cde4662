"""Campaign orchestration, collision typing and ledger-derived metrics."""

import math

import pytest

from conflictfuzz import campaign as cp
from conflictfuzz import genome as gn
from conflictfuzz import road, search, sim
from conflictfuzz.sim import VehicleState


def small_campaign(variant="full", seed=1, budget=60, workers=1):
    cfg = cp.CampaignConfig(ga=search.GaConfig(rng_seed=seed),
                            budget_steps=budget, variant=variant,
                            workers=workers)
    return cp.run_campaign(cfg)


def sim_event(step, stage="collision", collision=None, n_conflicts=0,
              fitness_conflict=0.0):
    return {"step": step, "stage": stage, "scenario_id": f"s{step}",
            "parent_ids": [], "n_conflicts": n_conflicts, "n_spatial": 0,
            "fitness_conflict": fitness_conflict, "fitness_collision": 0.0,
            "collision": collision, "rng_child_seed": 0}


def collision_payload(type_key="front|same|KeepLane|KeepLane|same",
                      ev_fault=True):
    return {"npc_id": "npc0", "type_key": type_key, "ev_fault": ev_fault}


class TestConfig:
    def test_variant_validation(self):
        with pytest.raises(cp.CampaignError):
            cp.CampaignConfig(variant="two_stage")

    def test_budget_validation(self):
        with pytest.raises(cp.CampaignError):
            cp.CampaignConfig(budget_steps=2)

    def test_horizon_validation(self):
        with pytest.raises(cp.CampaignError):
            cp.CampaignConfig(t_c=20.0, t_s=15.0)


class TestCollisionTypeKey:
    def test_string_form(self):
        key = cp.CollisionTypeKey("front", "same", "KeepLane",
                                  "ChangingLeft", "adjacent_same_dir")
        assert str(key) == "front|same|KeepLane|ChangingLeft|adjacent_same_dir"

    def test_hashable_and_comparable(self):
        a = cp.CollisionTypeKey("front", "same", "KeepLane", "KeepLane", "same")
        b = cp.CollisionTypeKey("front", "same", "KeepLane", "KeepLane", "same")
        assert a == b and len({a, b}) == 1


class TestClassifyCollision:
    def make_trace(self, graph, contact, npc_heading, npc_lane="L1",
                   ev_lane="L1"):
        def row():
            return [
                VehicleState(vehicle_id="ego", lane=ev_lane, s=50.0,
                             xy=(50.0, 3.5), heading=0.0, speed=5.0),
                VehicleState(vehicle_id="npc0", lane=npc_lane, s=55.0,
                             xy=(55.0, 3.5), heading=npc_heading, speed=3.0),
            ]
        steps = [row() for _ in range(15)]
        collision = {"step": 14, "ev_contact_point": contact,
                     "npc_id": "npc0", "relative_heading": npc_heading}
        return sim.Trace(dt=0.1, steps=steps, collision=collision,
                         terminated_reason="collision")

    def test_front_same_direction(self, straight_graph):
        trace = self.make_trace(straight_graph, (52.3, 3.5), 0.0)
        key = cp.classify_collision(trace, straight_graph)
        assert key.impact_zone_ev == "front"
        assert key.npc_rel_heading == "same"
        assert key.lane_relation_prior == road.SAME

    def test_rear_zone(self, straight_graph):
        trace = self.make_trace(straight_graph, (47.7, 3.5), 0.0)
        key = cp.classify_collision(trace, straight_graph)
        assert key.impact_zone_ev == "rear"

    def test_side_zone_and_crossing_heading(self, straight_graph):
        trace = self.make_trace(straight_graph, (50.0, 4.4), math.pi / 2,
                                npc_lane="L2")
        key = cp.classify_collision(trace, straight_graph)
        assert key.impact_zone_ev == "left"
        assert key.npc_rel_heading == "crossing"

    def test_requires_collision(self, straight_graph):
        trace = sim.Trace(dt=0.1, steps=[[]], collision=None,
                          terminated_reason="duration_expired")
        with pytest.raises(cp.CampaignError):
            cp.classify_collision(trace, straight_graph)


class TestComputeMetrics:
    def test_counts_only_ev_fault(self):
        ledger = [sim_event(1), sim_event(2, collision=collision_payload()),
                  sim_event(3, collision=collision_payload(ev_fault=False))]
        m = cp.compute_metrics(ledger)
        assert m.total_collisions == 1
        assert m.distinct_types == 1
        assert m.steps_to_first_collision == 2

    def test_handoff_events_not_steps(self):
        ledger = [sim_event(1),
                  {"step": 1, "stage": "handoff", "scenario_id": "s1",
                   "fitness_conflict": 2.0},
                  sim_event(2)]
        m = cp.compute_metrics(ledger)
        assert m.executed_steps == 2
        assert m.conflicts_per_generation == [(1, 2.0)]

    def test_growth_curve_monotone(self):
        ledger = [sim_event(i) for i in range(1, 10)]
        ledger[3]["collision"] = collision_payload("a|b|c|d|e")
        ledger[7]["collision"] = collision_payload("f|g|h|i|j")
        m = cp.compute_metrics(ledger)
        counts = [n for _s, n in m.type_growth_curve]
        assert counts == sorted(counts)
        assert counts[-1] == 2
        assert m.steps_to_all_types == 8

    def test_heat_strip_length(self):
        ledger = [sim_event(i) for i in range(1, 6)]
        m = cp.compute_metrics(ledger)
        assert len(m.heat_strip) == m.executed_steps


class TestRunCampaign:
    def test_full_variant_structure(self):
        result = small_campaign("full", budget=60)
        sim_events = [e for e in result.ledger if e["stage"] != "handoff"]
        assert len(sim_events) == 60
        assert [e["step"] for e in sim_events] == list(range(1, 61))
        stages = {e["stage"] for e in result.ledger}
        assert {"restart", "conflict", "collision", "handoff"} <= stages
        assert result.metrics.executed_steps == 60

    def test_budget_respected(self):
        for variant in cp.VARIANTS:
            result = small_campaign(variant, budget=24)
            assert result.metrics.executed_steps == 24

    def test_archive_matches_ledger(self):
        result = small_campaign("full", budget=60)
        ledger_cols = [e for e in result.ledger
                       if e["stage"] != "handoff" and e["collision"]]
        assert len(result.archive) == len(ledger_cols)
        for rec, event in zip(result.archive, ledger_cols):
            assert rec.campaign_step == event["step"]
            assert str(rec.type_key) == event["collision"]["type_key"]
            assert rec.trace.collision is not None

    def test_collision_only_logs_handoffs(self):
        result = small_campaign("collision_only", budget=24)
        handoffs = [e for e in result.ledger if e["stage"] == "handoff"]
        assert handoffs
        assert all("fitness_conflict" in e for e in handoffs)

    def test_deterministic_ledger(self):
        a = small_campaign("full", seed=5, budget=40)
        b = small_campaign("full", seed=5, budget=40)
        assert a.ledger == b.ledger

    def test_workers_do_not_change_results(self):
        a = small_campaign("full", seed=5, budget=40, workers=1)
        b = small_campaign("full", seed=5, budget=40, workers=4)
        assert a.ledger == b.ledger

    def test_seed_changes_results(self):
        a = small_campaign("full", seed=5, budget=40)
        b = small_campaign("full", seed=6, budget=40)
        assert a.ledger != b.ledger


class TestEvaluationMemo:
    @pytest.mark.parametrize("variant", ["full", "collision_only"])
    def test_simulates_each_distinct_genome_once(self, variant, monkeypatch):
        simulated = []
        evaluated = []
        simulate, evaluate = cp.sim.simulate, cp._Runner.evaluate

        def counting_simulate(genome, *args, **kwargs):
            simulated.append(gn.genome_key(genome))
            return simulate(genome, *args, **kwargs)

        def recording_evaluate(runner, genome):
            result = evaluate(runner, genome)
            evaluated.append((gn.genome_key(genome), result))
            return result

        monkeypatch.setattr(cp.sim, "simulate", counting_simulate)
        monkeypatch.setattr(cp._Runner, "evaluate", recording_evaluate)
        result = small_campaign(variant, budget=60)
        sim_events = [e for e in result.ledger if e["stage"] != "handoff"]
        assert len(sim_events) == len(evaluated) == 60
        keys = [key for key, _ in evaluated]
        assert len(simulated) == len(set(simulated)) == len(set(keys))
        assert set(simulated) == set(keys)
        assert len(simulated) < len(keys)  # the memo was hit
        for _key, e in evaluated:
            assert (e.trace is None) == (not e.collided)
