import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphsample.generators import GeneratorConfig, generate
from graphsample.graph import build_graph
from graphsample.samplers import (
    METHODS,
    Sample,
    SamplerConfig,
    Telemetry,
    _walker_draw,
    expansion_sample,
    finalize,
    frontier_sample,
    hybrid_jump_sample,
    list_sample,
    node_budget,
    rank_degree_sample,
    replay_check,
    sample,
    sample_subgraph,
)

from oracles import (
    barbell_two_k5,
    check_against_oracle,
    complete_graph,
    cycle,
    expansion_order_oracle,
    frontier_oracle,
    hybrid_jump_oracle,
    list_oracle,
    random_graph,
    rank_degree_oracle,
    star,
    three_k10_chain,
)


class FixedUniform(np.random.Generator):
    """A Generator whose ``random()`` returns u, so ``choice`` can be probed at chosen uniforms."""

    def __init__(self, u):
        super().__init__(np.random.PCG64(0))
        self.u = u

    def random(self, size=None, dtype=np.float64, out=None):
        return self.u if size is None else np.full(size, self.u)


# sparse graphs leave isolated nodes and small components, so samplers
# restart; listed fractions put phi * n within float noise of an integer
ORACLE_GRAPHS = st.builds(random_graph, st.integers(4, 40), st.sampled_from([0.04, 0.1, 0.2, 0.4]),
                          st.integers(0, 10**6))
PHIS = st.sampled_from([0.1, 0.3, 0.7, 1.0]) | st.floats(0.05, 1.0)
MODES = st.sampled_from(["induced", "collected"])

DEGREES = st.lists(st.integers(1, 10**6) | st.integers(2**40 - 100, 2**40 + 100), min_size=1, max_size=64)


def run_with_first_node(fn, g, make_cfg, first, tries=400):
    """Find an rng seed whose first sampled node is ``first``."""
    for s in range(tries):
        smp = fn(g, make_cfg(s))
        if smp.telemetry.visit_order[0] == first:
            return smp
    raise AssertionError(f"no seed found starting at node {first}")


class TestNodeBudget:
    def test_examples(self):
        assert node_budget(0.1, 20000) == 2000       # float noise must not bump to 2001
        assert node_budget(0.02, 23166) == 464       # genuine ceil
        assert node_budget(1.0, 7) == 7
        assert node_budget(0.5, 9) == 5

    def test_errors(self):
        with pytest.raises(ValueError):
            node_budget(0.0, 10)
        with pytest.raises(ValueError):
            node_budget(1.5, 10)
        with pytest.raises(ValueError):
            node_budget(0.001, 10)  # phi * n < 1


class TestFrontierSampling:
    def test_k4_full_budget(self):
        smp = frontier_sample(complete_graph(4), SamplerConfig("fs", phi=1.0, seed=0, fs_walkers=2))
        assert smp.nodes.tolist() == [0, 1, 2, 3]
        assert smp.n_edges <= 6

    def test_star_hub_always_sampled(self):
        g = star(100)
        smp = frontier_sample(g, SamplerConfig("fs", phi=0.1, seed=5, fs_walkers=1))
        assert smp.n_nodes == 10
        assert 0 in smp.nodes  # every edge step touches the hub

    def test_walker_count_capped_by_n(self):
        with pytest.raises(ValueError):
            frontier_sample(complete_graph(4), SamplerConfig("fs", phi=0.5, fs_walkers=10))

    @settings(max_examples=300, deadline=None)
    @given(ORACLE_GRAPHS, st.integers(0, 2**32), PHIS, MODES, st.integers(1, 12),
           st.sampled_from([1, 2, 5, 1000]))
    def test_matches_definition_oracle(self, g, seed, phi, mode, walkers, stall):
        cfg = SamplerConfig("fs", phi=max(phi, 1 / g.n), seed=seed, finalize_mode=mode,
                            fs_walkers=min(walkers, int((g.degrees() > 0).sum())), fs_stall_limit=stall)
        check_against_oracle(frontier_sample, frontier_oracle, g, cfg)

    @settings(max_examples=400, deadline=None)
    @given(DEGREES, st.integers(0, 2**63 - 1))
    def test_walker_draw_matches_generator_choice(self, degrees, seed):
        wdeg = np.array(degrees, dtype=np.float64)
        ref, ours = np.random.default_rng(seed), np.random.default_rng(seed)
        want = int(ref.choice(len(wdeg), p=wdeg / wdeg.sum()))
        assert _walker_draw(wdeg.tolist(), ours) == want
        assert ours.bit_generator.state == ref.bit_generator.state

    @settings(max_examples=200, deadline=None)
    @given(DEGREES)
    def test_walker_draw_matches_generator_choice_at_boundaries(self, degrees):
        # a uniform on, or one ulp either side of, a cumulative boundary is where rounding decides
        wdeg = np.array(degrees, dtype=np.float64)
        cdf = np.cumsum(wdeg / wdeg.sum())
        probes = {float(x) for c in cdf for x in (np.nextafter(c, 0), c, c / cdf[-1], np.nextafter(c, 2))}
        for u in sorted(x for x in probes if 0 <= x < 1):
            fixed = FixedUniform(u)
            assert _walker_draw(wdeg.tolist(), fixed) == int(fixed.choice(len(wdeg), p=wdeg / wdeg.sum())), u


class TestExpansionSampling:
    def test_k4_budget_two(self):
        smp = expansion_sample(complete_graph(4), SamplerConfig("xs", phi=0.5, seed=1))
        assert smp.n_nodes == 2
        u, v = smp.nodes.tolist()
        assert complete_graph(4).has_edge(u, v)

    def test_barbell_heads_for_the_bridge(self):
        g = barbell_two_k5()
        smp = run_with_first_node(
            expansion_sample, g, lambda s: SamplerConfig("xs", phi=0.4, seed=s),
            first=0)  # interior of clique A
        order = smp.telemetry.visit_order
        assert order[1] == 4  # bridge endpoint offers the only unexplored neighbors
        assert 4 in smp.nodes

    def test_planted_communities_stratified(self):
        g = three_k10_chain()
        smp = expansion_sample(g, SamplerConfig("xs", phi=0.3, seed=3))
        assert smp.n_nodes == 9
        touched = {int(v) // 10 for v in smp.nodes}
        assert len(touched) >= 2

    def test_max_degree_seed_rule(self):
        g = star(10)
        smp = expansion_sample(g, SamplerConfig("xs", phi=0.2, seed=0, xs_seed_rule="max_degree"))
        assert smp.telemetry.visit_order[0] == 0

    @pytest.mark.parametrize("rule", ["uniform", "max_degree"])
    def test_visit_order_vs_definition_oracle(self, rule):
        # sparse cases leave isolated nodes and small components, so XS restarts
        graphs = [random_graph(40 + 5 * case, (0.02, 0.05, 0.15)[case % 3], seed=case)
                  for case in range(12)]
        # XS keeps its scores in rows of isqrt(n) + 1 nodes: n = 12 and 56 fill
        # whole rows, and n = 2 and 3 are the smallest graphs phi = 0.9 allows
        graphs += [random_graph(12, 0.25, seed=1), random_graph(56, 0.06, seed=2),
                   random_graph(2, 1.0, seed=0), build_graph([0], [1], n=3),
                   random_graph(3, 1.0, seed=0)]
        # hub 0 with six pendants and two equal five-leaf stars; the centres 2
        # and 9 lie in rows 0 and 1 of width 5, and tie once the hub is sampled
        leaves = iter([1, 3, 4, 5, 6, 7, 8] + list(range(10, 19)))
        edges = [(0, 2), (0, 9)] + [(0, next(leaves)) for _ in range(6)]
        edges += [(c, next(leaves)) for c in (2, 9) for _ in range(5)]
        graphs.append(build_graph(*zip(*edges)))
        restarts = 0
        for case, g in enumerate(graphs):
            for seed in range(3):
                cfg = SamplerConfig("xs", phi=0.9, seed=seed, xs_seed_rule=rule)
                smp = expansion_sample(g, cfg)
                expected = expansion_order_oracle(g, node_budget(0.9, g.n), seed, rule)
                assert smp.telemetry.visit_order == expected, (case, seed)
                restarts += smp.telemetry.restarts
        assert restarts > 0


class TestRankDegree:
    def test_star_single_step_from_leaf(self):
        g = star(10)
        smp = run_with_first_node(
            rank_degree_sample, g,
            lambda s: SamplerConfig("rd", phi=0.2, seed=s, rd_seeds=1, rd_rho=0.1,
                                    finalize_mode="collected"),
            first=3)
        assert smp.telemetry.visit_order[:2] == [3, 0]   # k = max(1, ceil(0.1 * 1)) = 1
        assert [0, 3] in smp.edges.tolist()

    def test_k4_rho_one_takes_all(self):
        smp = rank_degree_sample(
            complete_graph(4), SamplerConfig("rd", phi=1.0, seed=2, rd_seeds=1, rd_rho=1.0))
        assert smp.nodes.tolist() == [0, 1, 2, 3]
        assert smp.telemetry.steps == 1

    def test_degree_ranking_tie_break(self):
        # node 0 adjacent to nodes of degree 9, 5, 5, 1; rho=0.5 takes top-2
        us = [0, 0, 0, 0]
        vs = [1, 2, 3, 4]
        pendant = 5
        for hub, extra in ((1, 8), (2, 4), (3, 4)):
            for _ in range(extra):
                us.append(hub)
                vs.append(pendant)
                pendant += 1
        g = build_graph(us, vs)
        assert [g.degree(v) for v in (1, 2, 3, 4)] == [9, 5, 5, 1]
        smp = run_with_first_node(
            rank_degree_sample, g,
            lambda s: SamplerConfig("rd", phi=3 / g.n, seed=s, rd_seeds=1, rd_rho=0.5),
            first=0)
        assert smp.telemetry.visit_order == [0, 1, 2]

    def test_overshoot_trimmed_to_budget(self):
        g = star(10)
        smp = rank_degree_sample(g, SamplerConfig("rd", phi=0.5, seed=4, rd_seeds=1, rd_rho=1.0))
        assert smp.n_nodes == 5
        assert smp.telemetry.trims == 5

    # seed sets empty on sparse graphs, so RD restarts; listed fractions
    # put rho * count within float noise of an integer
    @settings(max_examples=300, deadline=None)
    @given(ORACLE_GRAPHS, st.integers(0, 2**32), PHIS,
           st.sampled_from([0.1, 0.2, 0.3, 0.7, 1.0]) | st.floats(0.01, 1.0), st.integers(1, 12), MODES)
    def test_matches_definition_oracle(self, g, seed, phi, rho, seeds, mode):
        cfg = SamplerConfig("rd", phi=max(phi, 1 / g.n), seed=seed, finalize_mode=mode,
                            rd_rho=rho, rd_seeds=min(seeds, g.n))
        check_against_oracle(rank_degree_sample, rank_degree_oracle, g, cfg)


class TestListSampling:
    def test_max_degree_rule_star_tie_break(self):
        g = star(10)
        smp = run_with_first_node(
            list_sample, g,
            lambda s: SamplerConfig("ls", phi=0.2, seed=s, ls_rule="max_degree"), first=0)
        assert smp.telemetry.visit_order[:2] == [0, 1]  # all leaves tie; smallest id

    def test_max_degree_rule_barbell_bridge_before_far_interior(self):
        g = barbell_two_k5()
        for s in range(25):
            smp = list_sample(g, SamplerConfig("ls", phi=0.6, seed=s, ls_rule="max_degree"))
            order = smp.telemetry.visit_order
            if order[0] not in range(5):
                continue
            far_interior = [order.index(b) for b in (6, 7, 8, 9) if b in order]
            assert order.index(4) < min(far_interior, default=len(order))

    def test_uniform_rule_stays_in_discovered_neighborhood(self):
        g = barbell_two_k5()
        smp = list_sample(g, SamplerConfig("ls", phi=0.3, seed=7))
        order = smp.telemetry.visit_order
        # every non-seed node was a neighbor of an earlier node
        for i, v in enumerate(order[1:], start=1):
            assert any(g.has_edge(v, u) for u in order[:i])

    def test_rule_validation(self):
        with pytest.raises(ValueError):
            list_sample(star(10), SamplerConfig("ls", phi=0.5, ls_rule="zzz"))

    def test_full_budget_induces_everything(self):
        g = random_graph(30, 0.15, seed=2)
        smp = list_sample(g, SamplerConfig("ls", phi=1.0, seed=0))
        assert smp.n_edges == g.m

    def test_collected_mode_keeps_traversal_edges(self):
        g = random_graph(30, 0.15, seed=2)
        a = list_sample(g, SamplerConfig("ls", phi=0.4, seed=1, finalize_mode="collected"))
        b = list_sample(g, SamplerConfig("ls", phi=0.4, seed=1))   # the induction step is the default
        assert b.mode == "induced" and np.array_equal(a.nodes, b.nodes)
        # one edge per node reached from a sampled neighbour: a spanning forest of the induced edges
        assert set(map(tuple, a.edges.tolist())) < set(map(tuple, b.edges.tolist()))
        assert a.n_edges == a.n_nodes - 1 - a.telemetry.restarts
        replay_check(g, a)

    @settings(max_examples=300, deadline=None)
    @given(ORACLE_GRAPHS, st.integers(0, 2**32), PHIS, MODES, st.sampled_from(["uniform", "max_degree"]))
    def test_matches_definition_oracle(self, g, seed, phi, mode, rule):
        cfg = SamplerConfig("ls", phi=max(phi, 1 / g.n), seed=seed, finalize_mode=mode, ls_rule=rule)
        check_against_oracle(list_sample, list_oracle, g, cfg)


class TestHybridJump:
    def test_regular_ring_accepts_everything(self):
        # each step is one proposal, and an accepted one logs an edge
        t = hybrid_jump_sample(cycle(20), SamplerConfig("hj", phi=0.5, seed=1)).telemetry
        assert t.steps > 0
        assert t.steps == sum(ev[0] == "edge" for ev in t.events)

    def test_jump_targets_within_depth(self):
        g = random_graph(60, 0.08, seed=4)
        smp = hybrid_jump_sample(g, SamplerConfig("hj", phi=0.5, seed=2, hj_alpha=0.5))
        assert smp.telemetry.jumps > 0
        replay_check(g, smp)  # includes the BFS-depth check on jumps

    def test_alpha_zero_never_jumps(self):
        smp = hybrid_jump_sample(cycle(30), SamplerConfig("hj", phi=0.5, seed=3, hj_alpha=0.0))
        assert smp.telemetry.jumps == 0

    @settings(max_examples=300, deadline=None)
    @given(ORACLE_GRAPHS, st.integers(0, 2**32), PHIS, MODES,
           st.sampled_from([None, 0.0, 0.3, 1.0]) | st.floats(0.0, 1.0), st.integers(1, 3),
           st.integers(1, 50), st.sampled_from([1, 2, 5, 1000]))
    def test_matches_definition_oracle(self, g, seed, phi, mode, alpha, depth, probes, stall):
        cfg = SamplerConfig("hj", phi=max(phi, 1 / g.n), seed=seed, finalize_mode=mode, hj_alpha=alpha,
                            hj_bfs_depth=depth, hj_probes=probes, hj_stall_limit=stall)
        check_against_oracle(hybrid_jump_sample, hybrid_jump_oracle, g, cfg)


class TestFinalize:
    def triangle_raw(self, edges):
        tel = Telemetry()
        tel.visit_order = [0, 1, 2]
        return Sample(nodes=np.array([0, 1, 2]), edges=np.array(edges),
                      method="xs", phi=1.0, seed=0, mode="raw", telemetry=tel)

    def test_induced_completes_triangle(self):
        g = complete_graph(3)
        out = finalize(g, self.triangle_raw([[0, 1], [1, 2]]), "induced")
        assert out.n_edges == 3

    def test_collected_keeps_collected(self):
        g = complete_graph(3)
        out = finalize(g, self.triangle_raw([[0, 1], [1, 2]]), "collected")
        assert out.edges.tolist() == [[0, 1], [1, 2]]

    def test_collected_orders_dedupes_and_trims_raw_pairs(self):
        tel = Telemetry()
        tel.visit_order = [2, 0, 1, 3]   # phi 0.75 of 4 nodes: node 3 is overshoot
        pairs = [[2, 0], [0, 1], [1, 0], [2, 1], [1, 3], [0, 2]]
        raw = Sample(nodes=np.array([2, 0, 1, 3]), edges=np.array(pairs),
                     method="fs", phi=0.75, seed=0, mode="raw", telemetry=tel)
        out = finalize(complete_graph(4), raw, "collected")
        assert out.nodes.tolist() == [0, 1, 2]
        assert out.edges.tolist() == [[0, 1], [0, 2], [1, 2]]
        assert tel.trims == 1

    def test_induced_matches_filter_oracle(self):
        g = random_graph(40, 0.2, seed=9)
        smp = sample(g, SamplerConfig("xs", phi=0.3, seed=1, finalize_mode="induced"))
        chosen = set(smp.nodes.tolist())
        expected = sorted((int(u), int(v)) for u, v in g.edge_array()
                          if int(u) in chosen and int(v) in chosen)
        assert [tuple(e) for e in smp.edges.tolist()] == expected

    def test_bad_mode(self):
        with pytest.raises(ValueError):
            finalize(complete_graph(3), self.triangle_raw([[0, 1]]), "bogus")


def two_component_graph():
    from graphsample.graph import induced_subgraph, largest_connected_component
    base = random_graph(20, 0.25, seed=1)
    blob = induced_subgraph(base, largest_connected_component(base))
    off = blob.n
    us, vs = [], []
    for u, v in blob.edge_array():
        us += [int(u), int(u) + off]
        vs += [int(v), int(v) + off]
    return build_graph(us, vs, n=2 * off)


BATTERY_GRAPHS = {
    "random": lambda: random_graph(60, 0.08, seed=13),
    "two_components": two_component_graph,
    "sw": lambda: generate(GeneratorConfig(model="sw", nodes=200, seed=4)),
}


class TestUniversalContracts:
    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("gname", sorted(BATTERY_GRAPHS))
    @pytest.mark.parametrize("phi", [0.1, 0.5, 1.0])
    def test_budget_subsets_determinism_replay(self, method, gname, phi):
        g = BATTERY_GRAPHS[gname]()
        for seed in (0, 1):
            cfg = SamplerConfig(method, phi=phi, seed=seed)
            smp = sample(g, cfg)
            budget = node_budget(phi, g.n)
            assert smp.n_nodes == budget
            assert len(set(smp.nodes.tolist())) == budget
            assert smp.nodes.min() >= 0 and smp.nodes.max() < g.n
            chosen = set(smp.nodes.tolist())
            for u, v in smp.edges.tolist():
                assert u in chosen and v in chosen
                assert g.has_edge(u, v)
            again = sample(g, cfg)
            assert np.array_equal(smp.nodes, again.nodes)
            assert np.array_equal(smp.edges, again.edges)
            assert smp.telemetry.events == again.telemetry.events
            replay_check(g, smp)

    @pytest.mark.parametrize("method", METHODS)
    def test_params_are_the_method_config(self, method):
        g = cycle(30)   # every degree is 2, so HJ's probe estimates exactly 2
        cfg = SamplerConfig(method, phi=0.2, seed=1, fs_walkers=3, fs_stall_limit=50,
                            xs_seed_rule="max_degree", ls_rule="max_degree", rd_seeds=4,
                            rd_rho=0.3, hj_probes=20, hj_bfs_depth=1, hj_stall_limit=70)
        expected = {
            "fs": {"fs_walkers": 3, "fs_stall_limit": 50},
            "xs": {"xs_seed_rule": "max_degree"},
            "rd": {"rd_seeds": 4, "rd_rho": 0.3},
            "ls": {"ls_rule": "max_degree"},
            "hj": {"hj_alpha": 0.5, "hj_probes": 20, "hj_bfs_depth": 1, "hj_stall_limit": 70,
                   "hj_avg_degree_estimate": 2.0},
        }[method]
        assert sample(g, cfg).telemetry.params == expected
        if method == "hj":   # a configured alpha is reported as given
            cfg = SamplerConfig("hj", phi=0.2, seed=1, hj_alpha=0.25)
            assert sample(g, cfg).telemetry.params["hj_alpha"] == 0.25

    @pytest.mark.parametrize("method, rule", [(m, {}) for m in METHODS] + [("ls", {"ls_rule": "max_degree"})],
                             ids=[*METHODS, "ls-max_degree"])
    def test_full_budget_exhausts_disconnected_graph(self, method, rule):
        g = two_component_graph()
        smp = sample(g, SamplerConfig(method, phi=1.0, seed=2, fs_stall_limit=200, **rule))
        assert smp.nodes.tolist() == list(range(g.n))
        # a K4 plus nodes 4 and 5, which no walk reaches; 0.9 * 6 rounds up to all six
        g = build_graph([0, 0, 0, 1, 1, 2], [1, 2, 3, 2, 3, 3], n=6)
        for phi in (1.0, 0.9):
            smp = sample(g, SamplerConfig(method, phi=phi, seed=2, fs_walkers=2, rd_seeds=2, **rule))
            assert smp.nodes.tolist() == list(range(g.n))
            replay_check(g, smp)

    @pytest.mark.parametrize("method", METHODS)
    def test_collected_mode_edges_subset(self, method):
        g = BATTERY_GRAPHS["random"]()
        smp = sample(g, SamplerConfig(method, phi=0.4, seed=5, finalize_mode="collected"))
        chosen = set(smp.nodes.tolist())
        for u, v in smp.edges.tolist():
            assert u in chosen and v in chosen
        replay_check(g, smp)

    def test_sample_subgraph_roundtrip(self):
        g = random_graph(50, 0.1, seed=6)
        smp = sample(g, SamplerConfig("ls", phi=0.5, seed=1))
        sg = sample_subgraph(g, smp)
        assert sg.n == smp.n_nodes
        assert sg.m == smp.n_edges
        assert sg.orig_ids.tolist() == smp.nodes.tolist()

    def test_record_steps_off_blocks_replay(self):
        g = random_graph(30, 0.2, seed=1)
        smp = sample(g, SamplerConfig("ls", phi=0.5, seed=1, record_steps=False))
        with pytest.raises(ValueError):
            replay_check(g, smp)

    @pytest.mark.parametrize("violation, message", [
        ("edge not in g", r"logged edge \(\d+, \d+\) not in graph"),
        ("unknown edge source", r"edge source \d+ unknown at its step"),
        ("unknown jump source", r"jump source \d+ unknown at its step"),
        ("jump beyond depth", r"jump target \d+ beyond depth 1 of \d+"),
        ("unknown kind", "unknown event kind 'teleport'"),
        ("node never visited", "sample contains nodes never visited"),
        ("edge never logged", "collected edges not covered by the step log"),
    ])
    def test_replay_check_rejects_a_bad_log(self, violation, message):
        g = random_graph(30, 0.2, seed=1)
        smp = sample(g, SamplerConfig("hj", phi=0.5, seed=1, hj_alpha=0.5, hj_bfs_depth=1))
        replay_check(g, smp)   # the recorded log is valid; each case breaks it in one way
        events = list(smp.telemetry.events)
        first = {kind: next(i for i, ev in enumerate(events) if ev[0] == kind) for kind in ("edge", "jump")}

        def far_from(u):   # neither u nor a neighbour of it
            return next(x for x in range(g.n) if x != u and not g.has_edge(u, x))

        if violation == "edge not in g":
            _, u, _ = events[first["edge"]]
            events[first["edge"]] = ("edge", u, far_from(u))
        elif violation in ("unknown edge source", "unknown jump source"):
            events.insert(0, events[first[violation.split()[1]]])   # before anything is known
        elif violation == "jump beyond depth":
            _, u, _ = events[first["jump"]]
            events[first["jump"]] = ("jump", u, far_from(u))
        elif violation == "unknown kind":
            events.append(("teleport", 0))
        elif violation == "node never visited":
            del events[1:]   # only the start node is left
        else:   # the first collected edge is still reached, by visits instead of its edge steps
            pair = sorted(events[first["edge"]][1:])
            events = [("visit", ev[2]) if ev[0] == "edge" and sorted(ev[1:]) == pair else ev
                      for ev in events]
        bad = dataclasses.replace(smp, telemetry=dataclasses.replace(smp.telemetry, events=events))
        with pytest.raises(ValueError, match=message):
            replay_check(g, bad)

    @pytest.mark.parametrize("kwargs", [
        dict(method="zz"),
        dict(method="fs", phi=0.0),
        dict(method="fs", phi=1.2),
        dict(method="fs", phi=0.001),   # phi * n < 1 on the battery graphs
        dict(method="fs", fs_stall_limit=0),     # a walk that teleports after every step
        dict(method="fs", fs_stall_limit=-5),
        dict(method="rd", rd_rho=0.0),
        dict(method="rd", rd_seeds=0),
        dict(method="hj", hj_alpha=1.5),
        dict(method="hj", hj_stall_limit=0),
        dict(method="xs", xs_seed_rule="weird"),
        dict(method="ls", finalize_mode="nope"),
        dict(method="fs", fs_walkers=2.5),       # integer fields take Python or numpy ints only
        dict(method="fs", fs_stall_limit=2.5),
        dict(method="rd", rd_seeds="3"),
        dict(method="hj", hj_probes=10.5),
        dict(method="hj", hj_bfs_depth=1.5),
        dict(method="fs", fs_walkers=True),      # a bool is not a count, nor a fraction
        dict(method="rd", rd_rho="0.5"),
    ])
    def test_config_validation(self, kwargs):
        g = random_graph(30, 0.2, seed=1)
        cfg = SamplerConfig(**{"phi": 0.2, "seed": 0, **kwargs})
        with pytest.raises(ValueError):
            sample(g, cfg)

    def test_integer_fields_name_the_field(self):
        with pytest.raises(ValueError, match="hj_bfs_depth must be an integer"):
            SamplerConfig("hj", hj_bfs_depth=1.5).validate()
        g = random_graph(30, 0.2, seed=1)
        smp = sample(g, SamplerConfig("fs", phi=0.2, seed=np.int64(4), fs_walkers=np.int32(3)))
        assert smp.n_nodes == 6

    def test_sample_validates_the_config_once(self, monkeypatch):
        calls = []
        real_validate = SamplerConfig.validate
        monkeypatch.setattr(SamplerConfig, "validate",
                            lambda cfg: calls.append(cfg) or real_validate(cfg))
        g = generate(GeneratorConfig("sw", 200, seed=1))
        sample(g, SamplerConfig("ls"))
        assert len(calls) == 1
        with pytest.raises(ValueError, match="unknown method 'zz'"):
            sample(g, SamplerConfig("zz"))

    @pytest.mark.parametrize("method", METHODS)
    def test_omitted_mode_is_the_method_rule(self, method):
        mode = "induced" if method in ("xs", "ls") else "collected"
        assert SamplerConfig(method).finalize_mode == mode
        assert SamplerConfig(method, finalize_mode=None) == SamplerConfig(method, finalize_mode=mode)
