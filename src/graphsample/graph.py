"""Undirected simple graphs in CSR form, plus edge-list I/O.

Node ids are dense integers in [0, n). The adjacency of every node is a
sorted array of distinct neighbor ids, stored in a shared ``indices``
buffer addressed through ``indptr`` (CSR layout). Graphs are immutable
after construction and safe to share across workers. ``Graph.rows`` is
the one vectorised gather of the adjacency of a node set; induced edges,
validation and the samplers' jump ball all go through it.
``build_graph`` is the one CSR construction: every load, generator,
sample subgraph and component subgraph is built by it.
"""

from __future__ import annotations

import numbers
from array import array
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Iterable, Sequence, TextIO

import numpy as np

__all__ = [
    "EdgeListParseError",
    "Graph",
    "LoadStats",
    "build_graph",
    "dump_edge_list",
    "induced_edges",
    "induced_subgraph",
    "largest_connected_component",
    "load_edge_list",
    "subgraph",
    "validate",
]

COMMENT_PREFIXES = ("#", "%")
DUMP_CHUNK = 1 << 14    # edges per write in dump_edge_list; only these become Python ints
LOAD_FIRST_BLOCK = 1 << 8   # characters in load_edge_list's first read; each next read doubles
LOAD_BLOCK = 1 << 16        # ... up to this many

# byte -> kind for _plain_ids: 0 digit, 1 space or tab, 2 line end, 3 any other
_BYTE_KIND = np.full(256, 3, dtype=np.uint8)
_BYTE_KIND[ord("0"):ord("9") + 1] = 0
_BYTE_KIND[[ord(" "), ord("\t")]] = 1
_BYTE_KIND[ord("\n")] = 2
_PLAIN_LINE = np.array([0, 1, 0, 2], dtype=np.uint8)   # the kinds of one plain line's runs


class EdgeListParseError(ValueError):
    """Raised for malformed edge-list input; carries the 1-based line number."""

    def __init__(self, lineno: int, message: str):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


@dataclass(frozen=True)
class LoadStats:
    """Bookkeeping from one edge-list load."""

    lines_total: int = 0
    lines_skipped: int = 0          # comments and blanks
    edges_raw: int = 0              # parsed endpoint pairs
    self_loops_dropped: int = 0
    duplicates_dropped: int = 0     # repeated unordered pairs (incl. reversed)
    isolated_dropped: int = 0       # ids that appeared only in self-loops


@dataclass(frozen=True, eq=False)
class Graph:
    """Immutable undirected simple graph.

    ``orig_ids[i]`` is the external id node ``i`` carried in its source
    file (identity for generated graphs). ``load_stats`` is attached by
    the loader and ignored everywhere else.
    """

    indptr: np.ndarray
    indices: np.ndarray
    orig_ids: np.ndarray | None = None
    load_stats: LoadStats | None = field(default=None, compare=False)

    def __post_init__(self):
        self.indptr.flags.writeable = False
        self.indices.flags.writeable = False
        if self.orig_ids is not None:
            self.orig_ids.flags.writeable = False

    @property
    def n(self) -> int:
        return len(self.indptr) - 1

    @property
    def m(self) -> int:
        return len(self.indices) // 2

    def degree(self, v: int) -> int:
        self._check_node(v)
        return int(self.indptr[v + 1] - self.indptr[v])

    def degrees(self) -> np.ndarray:
        return np.diff(self.indptr)

    def neighbors(self, v: int) -> np.ndarray:
        """Sorted neighbor ids of ``v`` (a read-only view)."""
        self._check_node(v)
        return self.indices[self.indptr[v]:self.indptr[v + 1]]

    def rows(self, nodes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Adjacency rows of ``nodes`` as (src, dst) arrays, in the order given."""
        nodes = np.asarray(nodes, dtype=np.int64)
        start = self.indptr[nodes]
        counts = self.indptr[nodes + 1] - start
        src = np.repeat(nodes, counts)
        pos = np.arange(len(src)) + np.repeat(start - (np.cumsum(counts) - counts), counts)
        return src, self.indices[pos].astype(np.int64)

    def has_edge(self, u: int, v: int) -> bool:
        self._check_node(u)
        self._check_node(v)
        if self.indptr[u + 1] - self.indptr[u] > self.indptr[v + 1] - self.indptr[v]:
            u, v = v, u
        row = self.indices[self.indptr[u]:self.indptr[u + 1]]
        i = np.searchsorted(row, v)
        return bool(i < len(row) and row[i] == v)

    def edge_array(self) -> np.ndarray:
        """All edges as an (m, 2) array with u < v, lexicographically sorted."""
        # int32 row ids compare with the int32 indices without an int64 copy of either
        src = np.repeat(np.arange(self.n, dtype=self.indices.dtype), self.degrees())
        keep = src < self.indices
        out = np.empty((int(np.count_nonzero(keep)), 2), dtype=np.int64)
        out[:, 0] = src[keep]
        out[:, 1] = self.indices[keep]
        return out

    def _check_node(self, v: int) -> None:
        if not 0 <= v < self.n:
            raise ValueError(f"node id {v} out of range [0, {self.n})")


def _sorted_unique(a: np.ndarray) -> np.ndarray:
    """``np.unique(a)`` by one sort and an adjacent compare.

    The plain ``np.unique`` call is many times slower on int64 keys.
    """
    a = np.sort(a, axis=None)
    keep = np.ones(len(a), dtype=bool)
    keep[1:] = a[1:] != a[:-1]
    return a[keep]


def _is_real(value) -> bool:
    """A Python or numpy real number; a bool is not one."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _check_field_types(cfg) -> None:
    """Reject a wrong kind of value in any field of dataclass ``cfg``, naming the field.

    An ``int`` field takes an int, a ``float`` field a real number and a
    ``str`` field a string; numpy scalars pass, a bool is no number. The
    ``| None`` forms also take None. A ``tuple[...]`` field takes a list or
    a tuple, whose entries must be real numbers for ``tuple[float, ...]``.
    """
    for f in fields(cfg):   # annotations are strings here
        value = getattr(cfg, f.name)
        kind = f.type.removesuffix(" | None")
        if value is None and kind != f.type:
            continue
        if kind == "int" and (isinstance(value, bool) or not hasattr(value, "__index__")):
            raise ValueError(f"{f.name} must be an integer, not {value!r}")
        if kind == "float" and not _is_real(value):
            raise ValueError(f"{f.name} must be a number, not {value!r}")
        if kind == "str" and not isinstance(value, str):
            raise ValueError(f"{f.name} must be a string, not {value!r}")
        if kind.startswith("tuple[") and not isinstance(value, (list, tuple)):
            raise ValueError(f"{f.name} must be a list, not {value!r}")
        if kind == "tuple[float, ...]":
            for x in value:
                if not _is_real(x):
                    raise ValueError(f"{f.name} must hold numbers, not {x!r}")


def build_graph(
    u: Sequence[int] | np.ndarray,
    v: Sequence[int] | np.ndarray,
    n: int | None = None,
    orig_ids: np.ndarray | None = None,
) -> Graph:
    """Build a normalized Graph from endpoint arrays.

    Self-loops are dropped and duplicate unordered pairs collapsed. When
    ``n`` is given, nodes without edges are kept as isolated nodes;
    otherwise ``n`` is the max id + 1.
    """
    u = np.asarray(u, dtype=np.int64)
    v = np.asarray(v, dtype=np.int64)
    if u.shape != v.shape:
        raise ValueError("endpoint arrays differ in length")
    keep = u != v
    if not keep.all():   # the loader and the generators pass no self-loops
        u, v = u[keep], v[keep]
    del keep
    if n is None:
        n = int(max(u.max(initial=-1), v.max(initial=-1))) + 1
    if len(u) and (u.min() < 0 or v.min() < 0 or u.max() >= n or v.max() >= n):
        raise ValueError(f"node id out of range [0, {n})")

    # both directions of every edge as src * n + dst: one sort dedups the
    # pairs and orders them by (src, dst), which is the CSR layout
    key = _sorted_unique(np.concatenate([u * n + v, v * n + u]))
    # row s is the keys in [s * n, (s + 1) * n); key is a fresh copy to overwrite
    indptr = np.searchsorted(key, np.arange(n + 1) * n)
    indices = np.remainder(key, n, out=key).astype(np.int32)
    return Graph(indptr=indptr, indices=indices, orig_ids=orig_ids)


def _parse_lines(text: str, lineno: int) -> tuple[np.ndarray, int, int]:
    """(ids, last line number, lines skipped) of ``text`` by one Python pass per line.

    The only parse that raises ``EdgeListParseError``; ``lineno`` is the
    number of the line before ``text``.
    """
    ids = array("q")    # both endpoints of each line; no Python object per edge
    lines = text.split("\n")
    if not lines[-1]:   # text ends at a line end; only the stream's last line may not
        lines.pop()
    skipped = 0
    for lineno, line in enumerate(lines, start=lineno + 1):
        # split() and strip() share one whitespace rule, so an empty split
        # is a blank line and the first field starts the stripped line
        parts = line.split()
        if not parts or parts[0].startswith(COMMENT_PREFIXES):
            skipped += 1
            continue
        if len(parts) < 2:
            raise EdgeListParseError(lineno, f"expected 'u v', got {line.strip()!r}")
        try:
            ids.append(int(parts[0]))
            ids.append(int(parts[1]))
        except ValueError:
            raise EdgeListParseError(lineno, f"non-integer node id in {line.strip()!r}") from None
        except OverflowError:
            raise EdgeListParseError(lineno, f"node id outside int64 in {line.strip()!r}") from None
    return np.frombuffer(ids, dtype=np.int64), lineno, skipped


def _plain_ids(text: str) -> np.ndarray | None:
    """Both ids of every line of ``text`` when each line is plain, else None.

    A plain line is ``digits blanks digits\\n``: ASCII decimal ids of at
    most 18 digits (below 2**63, where ``np.fromstring`` would saturate)
    separated by spaces and tabs. On such text ``np.fromstring`` equals
    ``int()`` per field, so it never sees any other text.
    """
    if not text.isascii():
        return None
    kind = _BYTE_KIND[np.frombuffer(text.encode("ascii"), dtype=np.uint8)]
    start = np.flatnonzero(kind[1:] != kind[:-1]) + 1
    start = np.concatenate(([0], start))    # where each run of one kind begins
    # one run group per line end; since newline runs are never empty, that
    # makes each of them a single "\n", so no line is blank
    if len(start) != 4 * text.count("\n"):
        return None
    if not (kind[start].reshape(-1, 4) == _PLAIN_LINE).all():
        return None
    width = np.diff(start, append=len(kind)).reshape(-1, 4)
    if width[:, [0, 2]].max() > 18:
        return None
    return np.fromstring(text, dtype=np.int64, sep=" ")


def load_edge_list(source: str | Path | TextIO) -> Graph:
    """Load and normalize an undirected simple graph from an edge list.

    ``source`` is a file path or an open text stream; a path is opened
    and closed here, a stream is read to its end and left open. Lines end
    at ``\\n`` as the stream's ``read()`` returns them (a path is opened
    with universal newlines, so ``\\r\\n`` and ``\\r`` end lines there too).
    One edge per line, two integer ids separated by whitespace (extra
    columns such as weights or timestamps are ignored); blank lines and
    lines starting with ``#`` or ``%`` are skipped. Both rules are fixed,
    and cover SNAP and KONECT files. Direction is discarded, self-loops
    and duplicates dropped, and ids remapped to a dense [0, n) range; the
    remap is kept in ``Graph.orig_ids`` and the drop counts in
    ``Graph.load_stats``. Ids must lie in the int64 range
    [-2**63, 2**63 - 1]; any other id raises ``EdgeListParseError``
    naming its line.

    The text is read in blocks of whole lines. A block of plain lines
    (see ``_plain_ids``) is parsed by one numpy call, any other by a
    Python pass per line; both give the same ids.
    """
    if isinstance(source, (str, Path)):
        with open(source, encoding="utf-8") as fh:
            return load_edge_list(fh)

    blocks = []
    lineno = lines_skipped = 0
    size = LOAD_FIRST_BLOCK     # small at first, so a header sends few lines down the slow pass
    while text := source.read(size):
        if not text.endswith("\n"):
            text += source.readline()
        size = min(2 * size, LOAD_BLOCK)
        ids = _plain_ids(text)
        if ids is None:
            ids, lineno, skipped = _parse_lines(text, lineno)
            lines_skipped += skipped
        else:
            lineno += len(ids) // 2
        blocks.append(ids)

    if not any(len(ids) for ids in blocks):
        raise ValueError("empty edge list: no edges found")
    pairs = np.concatenate(blocks).reshape(-1, 2)
    del blocks      # one copy of the ids from here on
    loops = pairs[:, 0] == pairs[:, 1]
    self_loops = int(np.count_nonzero(loops))
    edges = pairs[~loops] if self_loops else pairs
    if len(edges) == 0:
        raise ValueError("empty edge list: all edges were self-loops")
    orig_ids = _sorted_unique(edges)
    n = len(orig_ids)
    if not (orig_ids[0] == 0 and orig_ids[-1] == n - 1):
        # else the ids are 0..n-1 and remap to themselves, as in every dumped file
        edges = np.searchsorted(orig_ids, edges)
    g = build_graph(edges[:, 0], edges[:, 1], n=n)
    stats = LoadStats(
        lines_total=lineno,
        lines_skipped=lines_skipped,
        edges_raw=len(pairs),
        self_loops_dropped=self_loops,
        duplicates_dropped=len(edges) - g.m,
        # setdiff1d hashes all of orig_ids even when it has nothing to remove
        isolated_dropped=len(np.setdiff1d(pairs[loops, 0], orig_ids)) if self_loops else 0,
    )
    return Graph(g.indptr, g.indices, orig_ids, load_stats=stats)


def dump_edge_list(g: Graph, path: str | Path) -> None:
    """Write the normalized edge list: header comment, then 'u v' with u < v."""
    edges = g.edge_array()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# n={g.n} m={g.m}\n")
        for start in range(0, len(edges), DUMP_CHUNK):
            chunk = edges[start:start + DUMP_CHUNK]
            fh.write("%d %d\n" * len(chunk) % tuple(chunk.ravel().tolist()))


def induced_edges(g: Graph, nodes: np.ndarray) -> np.ndarray:
    """Edges of g with both endpoints in sorted ``nodes``: (k, 2) rows, u < v, lexsorted."""
    mask = np.zeros(g.n, dtype=bool)
    mask[nodes] = True
    src, dst = g.rows(nodes)
    keep = (dst > src) & mask[dst]
    return np.column_stack([src[keep], dst[keep]])


def subgraph(g: Graph, nodes: np.ndarray, edges: np.ndarray) -> Graph:
    """Graph on sorted ``nodes`` with ``edges`` (g's ids), re-indexed densely by ascending id."""
    u, v = np.searchsorted(nodes, np.reshape(edges, (-1, 2)).T)
    orig = g.orig_ids[nodes] if g.orig_ids is not None else nodes.copy()
    return build_graph(u, v, n=len(nodes), orig_ids=orig)


def induced_subgraph(g: Graph, nodes: Iterable[int] | np.ndarray) -> Graph:
    """Subgraph over ``nodes`` (re-indexed densely by ascending id).

    Keeps exactly the edges of ``g`` with both endpoints in ``nodes``;
    nodes that lose all edges stay as isolated nodes.
    """
    nodes = _sorted_unique(np.asarray(list(nodes) if not isinstance(nodes, np.ndarray) else nodes, dtype=np.int64))
    if len(nodes) and (nodes[0] < 0 or nodes[-1] >= g.n):
        raise ValueError(f"node id out of range [0, {g.n})")
    return subgraph(g, nodes, induced_edges(g, nodes))


def largest_connected_component(g: Graph) -> np.ndarray:
    """Sorted node ids of a maximum component; ties go to the smallest min id.

    Components by hooking and pointer jumping (Shiloach & Vishkin 1982):
    each round hooks every node, and the root it points to, under the
    smallest parent among its neighbours, then jumps pointers until each
    node points to a root. Parents only decrease, so at the fixpoint
    every node is labelled with its component's smallest id.
    """
    if g.n == 0:
        return np.zeros(0, dtype=np.int64)
    parent = np.arange(g.n)
    busy = np.flatnonzero(g.degrees())    # reduceat needs non-empty rows
    starts = g.indptr[busy]
    changed = len(busy) > 0
    while changed:
        low = np.minimum.reduceat(parent[g.indices], starts)
        before = parent.copy()
        np.minimum.at(parent, parent[busy], low)
        np.minimum.at(parent, busy, low)
        while not np.array_equal(jumped := parent[parent], parent):
            parent = jumped
        changed = not np.array_equal(parent, before)
    # argmax takes the first largest label, which is the smallest min id
    return np.flatnonzero(parent == np.argmax(np.bincount(parent)))


def validate(g: Graph) -> None:
    """Assert the structural invariants; used by tests."""
    assert g.indptr[0] == 0 and g.indptr[-1] == len(g.indices)
    assert np.all(np.diff(g.indptr) >= 0)
    degs = g.degrees()
    assert int(degs.sum()) == 2 * g.m, "handshake violated"
    src, dst = g.rows(np.arange(g.n))
    unsorted = (src[1:] == src[:-1]) & (dst[1:] <= dst[:-1])
    assert not unsorted.any(), f"adjacency of {src[1:][unsorted][0]} not strictly sorted"
    loops = src == dst
    assert not loops.any(), f"self-loop at {src[loops][0]}"
    # symmetry: the reversed pairs, sorted, are exactly the stored pairs
    assert np.array_equal(np.sort(dst * g.n + src), src * g.n + dst), "adjacency not symmetric"
