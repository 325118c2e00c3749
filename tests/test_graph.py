import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphsample.graph import (
    DUMP_CHUNK,
    EdgeListParseError,
    Graph,
    build_graph,
    dump_edge_list,
    induced_subgraph,
    largest_connected_component,
    load_edge_list,
    validate,
)

from oracles import (
    complete_graph,
    edge_set_oracle,
    random_graph,
    star,
    union_find_components,
)


WHITESPACE = st.lists(st.sampled_from([" ", "\t", "\x0b", "\x0c", "\r", "\x1c", "\x85", "\u3000"]),
                      max_size=3).map("".join)


def load_text(text):
    return load_edge_list(io.StringIO(text))


class TestLoader:
    def test_dedup_and_loops(self):
        g = load_text("1 2\n2 1\n2 2\n1 3\n")
        assert g.n == 3
        assert g.m == 2
        s = g.load_stats
        assert s.self_loops_dropped == 1
        assert s.duplicates_dropped == 1
        # ids remapped densely, original ids retained
        assert g.orig_ids.tolist() == [1, 2, 3]
        r = {orig: new for new, orig in enumerate(g.orig_ids)}
        assert g.has_edge(r[1], r[2]) and g.has_edge(r[1], r[3])
        assert not g.has_edge(r[2], r[3])

    def test_comment_prefixes_and_extra_columns(self):
        g = load_text("# snap header\n% konect header\n5 7 1.0 1234\n7 9\n")
        assert g.n == 3 and g.m == 2
        assert g.load_stats.lines_skipped == 2

    def test_tabs_crlf_and_indented_comments_from_path_and_stream(self, tmp_path):
        data = (b"1\t2\r\n  # indented comment\r\n \t \r\n% konect header\r\n"
                b"2 3 1.0 1234\r\n3\t4\t0.5\r\n")
        p = tmp_path / "edges.txt"
        p.write_bytes(data)
        g = load_edge_list(p)
        assert (g.n, g.m) == (4, 3)
        assert (g.load_stats.lines_total, g.load_stats.lines_skipped) == (6, 3)
        s = load_edge_list(io.StringIO(data.decode("utf-8")))
        assert np.array_equal(s.indptr, g.indptr)
        assert np.array_equal(s.indices, g.indices)
        assert np.array_equal(s.orig_ids, g.orig_ids)
        assert s.load_stats == g.load_stats

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.tuples(WHITESPACE, st.sampled_from(["", "#", "# 1 2", "%x", "1 2", "3\t-4 x"]),
                              WHITESPACE).map("".join), max_size=30))
    def test_skip_rule_is_strip_then_prefix(self, lines):
        # a line is skipped when it is blank or its stripped text starts
        # with a comment prefix, for every kind of whitespace str.strip knows
        kept = [line for line in lines if line.strip() and not line.strip().startswith(("#", "%"))]
        g = load_text("\n".join(["1 2"] + lines) + "\n")
        s = g.load_stats
        assert (s.lines_total, s.lines_skipped, s.edges_raw) == (len(lines) + 1,
                                                                len(lines) - len(kept),
                                                                len(kept) + 1)

    def test_malformed_line_number(self):
        with pytest.raises(EdgeListParseError, match="line 2"):
            load_text("1 2\nfoo bar\n")
        with pytest.raises(EdgeListParseError, match="line 3"):
            load_text("1 2\n2 3\n4\n")

    @pytest.mark.parametrize("line", [f"{2**63} 1", f"1 {2**63}", f"{-2**63 - 1} 1",
                                      f"1 {-2**63 - 1}", f"{10**30} {10**30}"])
    def test_id_outside_int64_names_its_line(self, line):
        with pytest.raises(EdgeListParseError, match=r"^line 3: node id outside int64"):
            load_text(f"1 2\n# comment\n{line}\n")

    def test_int64_extremes_load(self):
        g = load_text(f"{-2**63} {2**63 - 1}\n0 {2**63 - 1}\n")
        assert g.orig_ids.tolist() == [-2**63, 0, 2**63 - 1]
        assert (g.n, g.m) == (3, 2)

    def test_empty_input_error(self):
        with pytest.raises(ValueError):
            load_text("# only comments\n")
        with pytest.raises(ValueError):
            load_text("3 3\n")  # all self-loops

    def test_isolated_only_in_loops_dropped(self):
        g = load_text("1 1\n2 3\n")
        assert g.n == 2
        assert g.load_stats.isolated_dropped == 1

    def test_random_input_vs_set_oracle(self):
        rng = np.random.default_rng(42)
        lines = []
        for _ in range(100):
            u, v = rng.integers(0, 30, size=2)
            lines.append(f"{u} {v}")
        lines += lines[:10]  # guaranteed duplicates
        text = "\n".join(lines) + "\n"
        expected = edge_set_oracle(lines)
        g = load_text(text)
        assert g.m == len(expected)
        got = {frozenset((int(g.orig_ids[u]), int(g.orig_ids[v]))) for u, v in g.edge_array()}
        assert got == expected

    def test_reserialization_idempotent(self, tmp_path):
        g = load_text("4 1\n1 2\n2 3\n9 4\n1 9\n")
        p, p2 = tmp_path / "dump.txt", tmp_path / "dump2.txt"
        dump_edge_list(g, p)
        # ids 1, 2, 3, 4, 9 remap to 0..4
        assert p.read_text() == "# n=5 m=5\n0 1\n0 3\n0 4\n1 2\n3 4\n"
        g2 = load_edge_list(p)
        assert g2.n == g.n and g2.m == g.m
        assert np.array_equal(g2.indptr, g.indptr)
        assert np.array_equal(g2.indices, g.indices)
        assert g2.orig_ids.tolist() == list(range(g.n))  # identity remap
        dump_edge_list(g2, p2)
        assert p2.read_bytes() == p.read_bytes()


def dump_oracle(g):
    """The per-edge f-string writer that dump_edge_list replaced."""
    return f"# n={g.n} m={g.m}\n" + "".join(f"{u} {v}\n" for u, v in g.edge_array().tolist())


class TestDump:
    @pytest.mark.parametrize("m", [0, 1, DUMP_CHUNK - 1, DUMP_CHUNK, DUMP_CHUNK + 1,
                                   3 * DUMP_CHUNK + 17])
    def test_bytes_match_per_edge_writer_and_round_trip(self, m, tmp_path):
        # m edges of a path on m + 1 nodes plus a far isolated node; ids
        # cross several digit widths, and m = 0 leaves the header alone
        n = m + 1 + 10**6
        g = build_graph(np.arange(m), np.arange(1, m + 1), n=n)
        assert g.m == m
        p = tmp_path / "dump.txt"
        dump_edge_list(g, p)
        assert p.read_bytes() == dump_oracle(g).encode()
        if m == 0:
            return  # the loader rejects an edge list with no edges
        back = load_edge_list(p)
        assert np.array_equal(back.orig_ids, np.arange(m + 1))
        assert np.array_equal(back.indices, g.indices[:len(back.indices)])
        assert np.array_equal(back.indptr, g.indptr[:m + 2])

    def test_random_graph_spanning_chunks(self, tmp_path):
        g = random_graph(400, 0.6, seed=3)
        assert g.m > 2 * DUMP_CHUNK
        p = tmp_path / "dump.txt"
        dump_edge_list(g, p)
        assert p.read_bytes() == dump_oracle(g).encode()
        back = load_edge_list(p)
        assert np.array_equal(back.indptr, g.indptr)
        assert np.array_equal(back.indices, g.indices)


class TestBuildGraph:
    def test_handshake(self):
        g = random_graph(60, 0.1, seed=1)
        assert int(g.degrees().sum()) == 2 * g.m

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            build_graph([0, 5], [1, 1], n=3)

    def test_endpoint_lengths_differ(self):
        with pytest.raises(ValueError, match="endpoint arrays differ in length"):
            build_graph([0, 1], [1], n=3)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 25), st.integers(0, 25)), min_size=1, max_size=120))
    def test_normalizer_invariants(self, pairs):
        us = [a for a, _ in pairs]
        vs = [b for _, b in pairs]
        g = build_graph(us, vs, n=26)
        validate(g)
        expected = {frozenset((a, b)) for a, b in pairs if a != b}
        assert g.m == len(expected)
        # symmetry spot check via has_edge
        for a, b in list(expected)[:20]:
            e = sorted((a, b))
            assert g.has_edge(e[0], e[1]) and g.has_edge(e[1], e[0])


class TestDegreeNeighbors:
    def test_k4(self):
        g = complete_graph(4)
        assert all(g.degree(v) == 3 for v in range(4))

    def test_star(self):
        g = star(10)
        assert g.degree(0) == 9
        assert g.degree(3) == 1
        assert g.neighbors(0).tolist() == list(range(1, 10))

    def test_out_of_range(self):
        g = complete_graph(3)
        with pytest.raises(ValueError):
            g.degree(3)
        with pytest.raises(ValueError):
            g.neighbors(-1)
        for u, v in ((3, 0), (0, 3), (-1, 1), (1, -1)):
            bad = u if not 0 <= u < 3 else v
            with pytest.raises(ValueError, match=rf"^node id {bad} out of range \[0, 3\)$"):
                g.has_edge(u, v)

    def test_has_edge_all_pairs(self):
        g = star(6)   # hub 0 has the longer row, so both swap directions run
        edges = {(0, x) for x in range(1, 6)}
        for u in range(6):
            for v in range(6):
                assert g.has_edge(u, v) == ((u, v) in edges or (v, u) in edges)


class TestInducedSubgraph:
    def test_k4_minus_one(self):
        g = complete_graph(4)
        sub = induced_subgraph(g, [0, 1, 2])
        assert sub.n == 3 and sub.m == 3

    def test_star_leaves_empty(self):
        g = star(6)
        sub = induced_subgraph(g, [2, 3, 4])
        assert sub.n == 3 and sub.m == 0

    def test_full_node_set_identity(self):
        g = random_graph(25, 0.2, seed=3)
        sub = induced_subgraph(g, range(g.n))
        assert np.array_equal(sub.indptr, g.indptr)
        assert np.array_equal(sub.indices, g.indices)

    def test_random_subset_vs_filter_oracle(self):
        g = random_graph(20, 0.3, seed=7)
        rng = np.random.default_rng(0)
        nodes = np.sort(rng.choice(20, size=8, replace=False))
        sub = induced_subgraph(g, nodes)
        expected = {(int(np.searchsorted(nodes, u)), int(np.searchsorted(nodes, v)))
                    for u, v in g.edge_array()
                    if u in set(nodes.tolist()) and v in set(nodes.tolist())}
        got = {(int(u), int(v)) for u, v in sub.edge_array()}
        assert got == expected

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            induced_subgraph(complete_graph(3), [0, 5])


class TestLargestComponent:
    def test_tie_breaks_to_smaller_min_id(self):
        g = build_graph([0, 0, 1, 3, 3, 4], [1, 2, 2, 4, 5, 5])
        assert largest_connected_component(g).tolist() == [0, 1, 2]

    def test_path_connected(self):
        g = build_graph(range(4), range(1, 5))
        assert largest_connected_component(g).tolist() == [0, 1, 2, 3, 4]

    def test_planted_component_vs_union_find(self):
        rng = np.random.default_rng(5)
        us, vs = [], []
        # planted 30-node connected blob
        for i in range(29):
            us.append(i)
            vs.append(i + 1)
        for _ in range(40):
            a, b = rng.integers(0, 30, size=2)
            if a != b:
                us.append(a)
                vs.append(b)
        # sparse leftovers on nodes 30..49
        for i in range(30, 49, 2):
            us.append(i)
            vs.append(i + 1)
        g = build_graph(us, vs, n=50)
        got = set(largest_connected_component(g).tolist())
        comp = union_find_components(g)
        by_comp = {}
        for i, c in enumerate(comp):
            by_comp.setdefault(c, set()).add(i)
        best = max(by_comp.values(), key=lambda s: (len(s), -min(s)))
        assert got == best

    @pytest.mark.parametrize("shape", ["path", "caterpillar"])
    def test_long_trees_with_shuffled_ids(self, shape):
        # long chains between far-apart ids take the most hooking rounds;
        # one extra isolated node must stay out
        n = 100_000
        perm = np.random.default_rng(3).permutation(n)
        if shape == "path":
            u, v = perm[:-1], perm[1:]
        else:   # spine perm[:n/2], one leg from each spine node
            half = n // 2
            u = np.concatenate([perm[:half - 1], perm[:half]])
            v = np.concatenate([perm[1:half], perm[half:]])
        g = build_graph(u, v, n=n + 1)
        assert np.array_equal(largest_connected_component(g), np.arange(n))

    def test_lcc_is_connected_and_maximal(self):
        g = random_graph(80, 0.02, seed=11)
        lcc = largest_connected_component(g)
        comp = union_find_components(g)
        labels = {comp[int(v)] for v in lcc}
        assert len(labels) == 1
        sizes = {}
        for c in comp:
            sizes[c] = sizes.get(c, 0) + 1
        assert len(lcc) == max(sizes.values())


class TestRowsAndValidate:
    def test_rows_match_neighbors(self):
        g = random_graph(40, 0.15, seed=3)
        nodes = np.array([5, 0, 39, 5, 17])
        src, dst = g.rows(nodes)
        assert src.tolist() == [int(v) for v in nodes for _ in g.neighbors(int(v))]
        assert dst.tolist() == np.concatenate([g.neighbors(int(v)) for v in nodes]).tolist()

    @pytest.mark.parametrize("indptr, indices, message", [
        ([0, 2, 4, 6], [2, 1, 0, 2, 0, 1], "adjacency of 0 not strictly sorted"),
        ([0, 2, 4, 6], [0, 1, 0, 2, 0, 1], "self-loop at 0"),
        ([0, 1, 3, 4], [1, 0, 2, 0], "not symmetric"),
    ])
    def test_validate_rejects_broken_rows(self, indptr, indices, message):
        g = Graph(indptr=np.array(indptr, dtype=np.int64), indices=np.array(indices, dtype=np.int32))
        with pytest.raises(AssertionError, match=message):
            validate(g)
