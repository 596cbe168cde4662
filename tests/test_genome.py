"""Chromosome construction, edit operators and serialization."""

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from conflictfuzz import genome as gn
from conflictfuzz import road


def flat_chromosome(value=10.0, T=30, action=gn.STRAIGHT):
    return gn.NpcChromosome(npc_id="npc0", start=("L1", 40.0),
                            SP=(value,) * T, AC=(action,) * T)


class TestTypes:
    def test_speed_range_validation(self):
        with pytest.raises(gn.GenomeError):
            gn.SpeedRange(5.0, 5.0)

    def test_chromosome_validation(self):
        with pytest.raises(gn.GenomeError):
            gn.NpcChromosome("n", ("L1", 0.0), (1.0, 2.0), (gn.STRAIGHT,))
        with pytest.raises(gn.GenomeError):
            gn.NpcChromosome("n", ("L1", 0.0), (-1.0,), (gn.STRAIGHT,))
        with pytest.raises(gn.GenomeError):
            gn.NpcChromosome("n", ("L1", 0.0), (1.0,), ("Reverse",))

    def test_genome_validation(self, small_genome):
        with pytest.raises(gn.GenomeError):
            gn.ScenarioGenome(scenario_id="x", template_id="straight3", T=30,
                              ego_start=("L1", 10.0), ego_route=("L1",),
                              npcs=())
        short = flat_chromosome(T=10)
        with pytest.raises(gn.GenomeError):
            gn.ScenarioGenome(scenario_id="x", template_id="straight3", T=30,
                              ego_start=("L1", 10.0), ego_route=("L1",),
                              npcs=(short,))


class TestRandomGenome:
    def test_fixed_placement(self, straight_graph):
        g = gn.random_genome(random.Random(0), straight_graph, 2, 30)
        assert g.ego_start == ("L1", 10.0)
        assert [n.start for n in g.npcs] == [("L1", 45.0), ("L0", 25.0)]
        assert g.T == 30 and len(g.npcs) == 2

    def test_initial_speeds_quantized(self, straight_graph):
        g = gn.random_genome(random.Random(1), straight_graph, 2, 30)
        for npc in g.npcs:
            for v in npc.SP:
                assert 0.0 <= v <= straight_graph.speed_limit
                assert v % 0.5 == pytest.approx(0.0)

    def test_action_distribution(self, straight_graph):
        rng = random.Random(2)
        counts = {a: 0 for a in gn.ACTIONS}
        for _ in range(200):
            g = gn.random_genome(rng, straight_graph, 2, 30)
            for npc in g.npcs:
                for a in npc.AC:
                    counts[a] += 1
        total = sum(counts.values())
        assert counts[gn.STRAIGHT] / total == pytest.approx(0.8, abs=0.03)
        assert counts[gn.LANE_LEFT] / total == pytest.approx(0.1, abs=0.03)

    def test_random_placement_separation(self, straight_graph):
        g = gn.random_genome(random.Random(3), straight_graph, 3, 30,
                             placement_policy="random")
        pts = [road.to_world(straight_graph, lid, s, 0.0)[0]
               for lid, s in [g.ego_start] + [n.start for n in g.npcs]]
        for i in range(len(pts)):
            for j in range(i + 1, len(pts)):
                assert math.dist(pts[i], pts[j]) >= gn.MIN_START_SEPARATION

    def test_bad_arguments(self, straight_graph):
        with pytest.raises(gn.GenomeError):
            gn.random_genome(random.Random(0), straight_graph, 0, 30)
        with pytest.raises(gn.GenomeError):
            gn.random_genome(random.Random(0), straight_graph, 2, 5)
        with pytest.raises(gn.GenomeError):
            gn.random_genome(random.Random(0), straight_graph, 2, 30,
                             placement_policy="grid")


class TestCrossover:
    def test_conserves_chromosomes(self, straight_graph):
        rng = random.Random(4)
        a = gn.random_genome(rng, straight_graph, 3, 30, scenario_id="a")
        b = gn.random_genome(rng, straight_graph, 3, 30, scenario_id="b")
        ca, cb = gn.crossover(rng, a, b)
        before = sorted([*a.npcs, *b.npcs], key=lambda c: id(c))
        after = sorted([*ca.npcs, *cb.npcs], key=lambda c: id(c))
        assert before == after
        assert ca.npcs != a.npcs  # a non-empty subset was swapped
        assert ca.parent_ids == ("a", "b")

    def test_single_npc_swaps_it(self, straight_graph):
        rng = random.Random(5)
        a = gn.random_genome(rng, straight_graph, 1, 30)
        b = gn.random_genome(rng, straight_graph, 1, 30)
        ca, cb = gn.crossover(rng, a, b)
        assert ca.npcs == b.npcs and cb.npcs == a.npcs

    def test_identical_parents(self, small_genome):
        ca, cb = gn.crossover(random.Random(6), small_genome, small_genome)
        assert ca.npcs == small_genome.npcs
        assert cb.npcs == small_genome.npcs

    def test_shape_mismatch(self, straight_graph):
        rng = random.Random(7)
        a = gn.random_genome(rng, straight_graph, 2, 30)
        b = gn.random_genome(rng, straight_graph, 3, 30)
        with pytest.raises(gn.GenomeError):
            gn.crossover(rng, a, b)


class TestLongOperators:
    def test_long_acceleration_window(self):
        out = gn.mutate_long_acceleration(flat_chromosome(10.0), 5, 20.0)
        assert out.SP[:5] == (11.0,) * 5
        assert out.SP[5:] == (10.0,) * 25
        assert out.AC == flat_chromosome().AC

    def test_long_acceleration_clamps(self):
        out = gn.mutate_long_acceleration(flat_chromosome(20.0), 5, 20.0)
        assert out.SP == (20.0,) * 30

    def test_long_deceleration_window(self):
        out = gn.mutate_long_deceleration(flat_chromosome(10.0), 5)
        assert out.SP[:5] == (9.0,) * 5
        assert out.SP[5:] == (10.0,) * 25

    def test_long_deceleration_floors(self):
        out = gn.mutate_long_deceleration(flat_chromosome(0.0), 5)
        assert out.SP == (0.0,) * 30

    def test_arrival_bounds(self):
        with pytest.raises(gn.GenomeError):
            gn.mutate_long_acceleration(flat_chromosome(), 0, 20.0)
        with pytest.raises(gn.GenomeError):
            gn.mutate_long_deceleration(flat_chromosome(), 31)


class TestRandomOperators:
    def test_speed_random_changes_one_gene(self):
        rng = random.Random(8)
        for _ in range(100):
            out = gn.mutate_speed_random(rng, flat_chromosome(),
                                         gn.SpeedRange(0.0, 20.0))
            diff = [i for i in range(30) if out.SP[i] != 10.0]
            assert len(diff) == 1
            assert out.SP[diff[0]] % 0.5 == pytest.approx(0.0)
            assert 0.0 <= out.SP[diff[0]] <= 20.0
            assert out.AC == flat_chromosome().AC

    def test_action_random_changes_one_gene(self):
        rng = random.Random(9)
        for _ in range(100):
            out = gn.mutate_action_random(rng, flat_chromosome())
            diff = [i for i in range(30) if out.AC[i] != gn.STRAIGHT]
            assert len(diff) == 1
            assert out.AC[diff[0]] in (gn.LANE_LEFT, gn.LANE_RIGHT)
            assert out.SP == flat_chromosome().SP


class TestWindowOperators:
    def test_deceleration_window(self):
        rng = random.Random(10)
        out = gn.mutate_deceleration(rng, flat_chromosome(10.0), 8, 2.0)
        changed = {i for i in range(30) if out.SP[i] != 10.0}
        assert changed <= {6, 7, 8}
        assert len({out.SP[i] for i in (6, 7, 8)}) == 1
        assert 8.0 <= out.SP[6] <= 10.0

    def test_deceleration_clamps_at_start(self):
        rng = random.Random(11)
        out = gn.mutate_deceleration(rng, flat_chromosome(10.0), 1, 3.0)
        changed = {i for i in range(30) if out.SP[i] != 10.0}
        assert changed <= {0, 1}

    def test_brake_window_and_magnitude(self):
        rng = random.Random(12)
        out = gn.mutate_brake(rng, flat_chromosome(10.0), 5)
        changed = {i for i in range(30) if out.SP[i] != 10.0}
        assert changed == {4, 5}
        assert 4.0 <= out.SP[4] <= 8.0  # reduction between 2 and 6

    def test_brake_floors_at_zero(self):
        rng = random.Random(13)
        out = gn.mutate_brake(rng, flat_chromosome(1.0), 5)
        assert out.SP[4] == 0.0 and out.SP[5] == 0.0
        with pytest.raises(gn.GenomeError):
            gn.mutate_brake(rng, flat_chromosome(), 0)

    def test_acceleration_window(self):
        rng = random.Random(14)
        out = gn.mutate_acceleration(rng, flat_chromosome(10.0), 8, 2.5, 20.0)
        changed = {i for i in range(30) if out.SP[i] != 10.0}
        assert changed <= {5, 6, 7, 8}
        assert 10.0 <= out.SP[5] <= 13.0

    def test_acceleration_clamps_to_limit(self):
        rng = random.Random(15)
        out = gn.mutate_acceleration(rng, flat_chromosome(19.5), 8, 2.0, 20.0)
        assert max(out.SP) <= 20.0


class TestSerialization:
    def test_roundtrip(self, small_genome):
        text = gn.genome_to_json(small_genome)
        back = gn.genome_from_json(text)
        assert back == small_genome
        assert gn.genome_to_json(back) == text

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10_000), ops=st.lists(st.integers(0, 6),
                                                     max_size=6),
           placement=st.sampled_from(("fixed", "random")))
    def test_roundtrip_after_mutations(self, seed, ops, placement):
        graph = road.build_template("straight3", 200.0, 20.0)
        rng = random.Random(seed)
        g = gn.random_genome(rng, graph, 2, 30, placement)
        rng_ops = random.Random(seed + 1)
        for op in ops:
            chrom = g.npcs[0]
            if op == 0:
                chrom = gn.mutate_long_acceleration(chrom, 5, 20.0)
            elif op == 1:
                chrom = gn.mutate_long_deceleration(chrom, 5)
            elif op == 2:
                chrom = gn.mutate_speed_random(rng_ops, chrom,
                                               gn.SpeedRange(0.0, 20.0))
            elif op == 3:
                chrom = gn.mutate_action_random(rng_ops, chrom)
            elif op == 4:
                chrom = gn.mutate_deceleration(rng_ops, chrom, 8, 2.0)
            elif op == 5:
                chrom = gn.mutate_brake(rng_ops, chrom, 8)
            else:
                chrom = gn.mutate_acceleration(rng_ops, chrom, 8, 2.0, 20.0)
            g = gn.replace_npc(g, 0, chrom)
        assert gn.genome_from_json(gn.genome_to_json(g)) == g
