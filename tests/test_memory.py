"""Peak-memory guards for the edge-list, small-world, mixed-model and kernel paths.

Each test takes the tracemalloc peak (numpy buffers included) of one call
and divides it by the number of lines or edges. The bounds sit between
the cost when every edge held Python objects (lists of ints, a set of
tuples, one list per dumped edge: about 200 B per line, 246 and 159 B per
edge) and the cost without them (about 144, 82 and 66), so a return to
one Python object per edge fails them. The triangle bound sits between
scipy's sparse product, which builds every 2-path (356 B per edge on FF
at n=20,000), and the chunked wedge check (62); the edge-array bound
between int64 copies of both columns (66) and one int64 result (30).
The exact path bound on FF n=2,000 sits between one level's unpadded
CSR gather and ``reduceat`` (660 B per edge; SW and MM 654-655) and
padded buckets gathered in chunks of BFS_BUDGET words (203; SW and MM
217-276). The sampled path bound on SW n=20,000 plus 2,000 five-node
paths (the LCC is two thirds of the nodes) sits between rebuilding the
LCC as a graph of its own (72 B per edge; FF and MM the same) and
walking it inside the graph (47; FF and MM 39-43). The mixed-model bound
on MM n=20,000 sits between keeping the edge list three times, as two
endpoint lists beside the degree-proportional draw pool (111 B per edge),
and keeping it once, as that pool (95).

The tighter load bound and the ``build_graph`` bound (SW n=20,000) sit
between holding a second copy of the edges (143 B per line: two endpoint
buffers and their concatenation; 41 B per edge: row ids and column ids
each computed from the keys) and holding one (134: one interleaved
buffer that the id sort flattens; 34: row offsets by a search of the
keys, column ids written into them).
"""

import io
import tracemalloc

import numpy as np
import pytest

from graphsample.generators import GeneratorConfig, generate
from graphsample.graph import build_graph, dump_edge_list, load_edge_list
from graphsample.properties import path_length_stats, triangle_edge_counts

LOAD_BYTES_PER_LINE = 172
LOAD_ONE_COPY_BYTES_PER_LINE = 139
BUILD_BYTES_PER_EDGE = 38
SW_BYTES_PER_EDGE = 160
MM_BYTES_PER_EDGE = 102
DUMP_BYTES_PER_EDGE = 110
TRIANGLE_BYTES_PER_EDGE = 215
EDGE_ARRAY_BYTES_PER_EDGE = 48
PATH_BYTES_PER_EDGE = 450
FRAGMENTED_PATH_BYTES_PER_EDGE = 60


def traced_peak(fn):
    """(fn(), bytes allocated at the peak of the call beyond what was live before it)."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = fn()
        return out, tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def sw_graph():
    return generate(GeneratorConfig(model="sw", nodes=20000))


def test_load_edge_list_peak_per_line():
    lines = 100_000
    ids = np.random.default_rng(0).integers(0, 50_000, size=(lines, 2))
    text = "".join(f"{a} {b}\n" for a, b in ids.tolist())
    g, peak = traced_peak(lambda: load_edge_list(io.StringIO(text)))
    assert g.load_stats.edges_raw == lines
    assert peak / lines < LOAD_BYTES_PER_LINE
    assert peak / lines < LOAD_ONE_COPY_BYTES_PER_LINE


def test_build_graph_peak_per_edge(sw_graph):
    ea = sw_graph.edge_array()
    g, peak = traced_peak(lambda: build_graph(ea[:, 0], ea[:, 1], n=sw_graph.n))
    assert np.array_equal(g.indices, sw_graph.indices)
    assert peak / sw_graph.m < BUILD_BYTES_PER_EDGE


def test_small_world_peak_per_edge():
    g, peak = traced_peak(lambda: generate(GeneratorConfig(model="sw", nodes=20000)))
    assert g.m == 160_000
    assert peak / g.m < SW_BYTES_PER_EDGE


def test_mixed_model_peak_per_edge():
    g, peak = traced_peak(lambda: generate(GeneratorConfig(model="mm", nodes=20000)))
    assert g.m > 0.99 * 8 * 20000
    assert peak / g.m < MM_BYTES_PER_EDGE


def test_dump_edge_list_peak_per_edge(sw_graph, tmp_path):
    _, peak = traced_peak(lambda: dump_edge_list(sw_graph, tmp_path / "sw.txt"))
    assert peak / sw_graph.m < DUMP_BYTES_PER_EDGE


def test_triangle_edge_counts_peak_per_edge():
    g = generate(GeneratorConfig(model="ff", nodes=20000))
    _, peak = traced_peak(lambda: triangle_edge_counts(g))
    assert peak / g.m < TRIANGLE_BYTES_PER_EDGE


def test_edge_array_peak_per_edge(sw_graph):
    edges, peak = traced_peak(sw_graph.edge_array)
    assert edges.shape == (sw_graph.m, 2)
    assert peak / sw_graph.m < EDGE_ARRAY_BYTES_PER_EDGE


def test_exact_path_peak_per_edge():
    g = generate(GeneratorConfig(model="ff", nodes=2000))
    (_, _, flags), peak = traced_peak(lambda: path_length_stats(g, mode="exact"))
    assert flags["path_sources"] == g.n
    assert peak / g.m < PATH_BYTES_PER_EDGE


def test_fragmented_sampled_path_peak_per_edge(sw_graph):
    ea = sw_graph.edge_array()
    first = sw_graph.n + 5 * np.arange(2000, dtype=np.int64)[:, None]
    g = build_graph(np.concatenate([ea[:, 0], (first + np.arange(4)).ravel()]),
                    np.concatenate([ea[:, 1], (first + np.arange(1, 5)).ravel()]), n=sw_graph.n + 10_000)
    (_, _, flags), peak = traced_peak(lambda: path_length_stats(g, mode="sampled"))
    assert flags["lcc_fraction"] == 2 / 3
    assert peak / g.m < FRAGMENTED_PATH_BYTES_PER_EDGE
