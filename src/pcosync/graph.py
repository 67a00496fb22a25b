"""Directed interaction graphs and an exhaustive robustness certifier.

An edge (i, j) means node i listens to node j: j's pulses are delivered to
i. Robustness here is the subset-pair property that underpins trimmed-mean
consensus: a graph is r-robust when for every pair of disjoint nonempty node
subsets, at least one node in their union has r or more in-neighbors outside
its own subset. The certifier below enumerates all subset pairs, so it is
exact but exponential; it refuses graphs beyond a configurable node guard.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

from . import rng
from .errors import GraphTooLargeError

MAX_EXHAUSTIVE_NODES = 14
# Nodes a graph text or a named scenario graph may declare: a few bytes
# must not ask for an arbitrarily large allocation.
MAX_DECLARED_NODES = 1024


@dataclass(frozen=True)
class DirectedGraph:
    """Immutable digraph stored as per-node in-neighbor tuples."""

    in_neighbors: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        n = len(self.in_neighbors)
        for i, nbrs in enumerate(self.in_neighbors):
            seen = set()
            for j in nbrs:
                if not 0 <= j < n:
                    raise ValueError(f"node {i} lists out-of-range in-neighbor {j}")
                if j == i:
                    raise ValueError(f"node {i} lists itself as an in-neighbor")
                if j in seen:
                    raise ValueError(f"node {i} lists in-neighbor {j} twice")
                seen.add(j)

    @classmethod
    def from_lists(cls, rows) -> "DirectedGraph":
        return cls(tuple(tuple(int(j) for j in row) for row in rows))

    @property
    def node_count(self) -> int:
        return len(self.in_neighbors)

    @cached_property
    def in_degrees(self) -> tuple[int, ...]:
        return tuple(map(len, self.in_neighbors))

    @cached_property
    def out_slots(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """Per node j, one (i, k) pair for each out-neighbor i, in ascending
        order of i, where k is j's position in i's in-neighbor list."""
        outs: list[list[tuple[int, int]]] = [[] for _ in range(self.node_count)]
        for i, nbrs in enumerate(self.in_neighbors):
            for k, j in enumerate(nbrs):
                outs[j].append((i, k))
        return tuple(map(tuple, outs))

    @cached_property
    def in_masks(self) -> tuple[int, ...]:
        """In-neighbor sets as bitmasks, for the exhaustive subset scans."""
        return tuple(sum(1 << j for j in nbrs) for nbrs in self.in_neighbors)


def is_r_robust(graph: DirectedGraph, r: int, max_nodes: int = MAX_EXHAUSTIVE_NODES) -> bool:
    """Exact r-robustness check by exhaustive subset-pair enumeration.

    Every node is assigned to subset one, subset two, or neither (3^N
    assignments); the pair fails only if no node in either subset has at
    least ``r`` in-neighbors outside its own subset. By symmetry only
    assignments whose lowest-indexed assigned node sits in subset one are
    examined.

    Args:
        graph: digraph to certify.
        r: robustness level, at least 1.
        max_nodes: refuse graphs larger than this (exponential blowup guard).

    Raises:
        GraphTooLargeError: graph exceeds ``max_nodes``.
    """
    if r < 1:
        raise ValueError(f"robustness level must be >= 1, got {r}")
    n = graph.node_count
    if n < 2:
        raise ValueError("robustness needs at least two nodes")
    if n > max_nodes:
        raise GraphTooLargeError(
            f"{n} nodes exceeds the exhaustive enumeration guard of {max_nodes}"
        )
    masks = graph.in_masks
    full = (1 << n) - 1
    for assign in itertools.product((0, 1, 2), repeat=n):
        m1 = 0
        m2 = 0
        first = 0
        for i, side in enumerate(assign):
            if side == 1:
                m1 |= 1 << i
            elif side == 2:
                m2 |= 1 << i
            if first == 0 and side != 0:
                first = side
        if first == 2:
            continue  # mirror image of an assignment already checked
        if m1 == 0 or m2 == 0:
            continue
        found = False
        for i, side in enumerate(assign):
            if side == 0:
                continue
            own = m1 if side == 1 else m2
            if (masks[i] & (full ^ own)).bit_count() >= r:
                found = True
                break
        if not found:
            return False
    return True


def max_robustness(graph: DirectedGraph, max_nodes: int = MAX_EXHAUSTIVE_NODES) -> int:
    """Largest r for which the graph is r-robust (0 when not even 1-robust).

    Robustness levels are downward closed, so a single upward scan suffices.
    """
    r = 0
    while is_r_robust(graph, r + 1, max_nodes=max_nodes):
        r += 1
    return r


def random_digraph(n: int, p: float, seed: int) -> DirectedGraph:
    """Erdos-Renyi style digraph: each ordered pair (i, j), i != j, becomes
    an edge independently with probability ``p``, deterministically in
    ``seed``."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"edge probability must be in [0, 1], got {p}")
    # One unit per ordered pair, in row order.
    units = iter(rng.random(seed, n * (n - 1)))
    return DirectedGraph(
        tuple(tuple(j for j in range(n) if j != i and next(units) < p) for i in range(n))
    )


def complete_digraph(n: int) -> DirectedGraph:
    return DirectedGraph(
        tuple(tuple(j for j in range(n) if j != i) for i in range(n))
    )


def directed_ring(n: int) -> DirectedGraph:
    """Each node listens to its predecessor only."""
    return DirectedGraph(tuple(((i - 1) % n,) for i in range(n)))


def demo_graph_8() -> DirectedGraph:
    """The 8-node demonstration graph used by the shipped scenarios.

    Six core nodes {0, 2, 3, 5, 6, 7} listen to every other core node;
    node 1 pairs bidirectionally with {0, 2, 3} and node 4 with {5, 6, 7}.
    The split keeps the out-neighborhoods of nodes 1 and 4 disjoint, so
    designating those two as misbehaving leaves every other node with at
    most one misbehaving in-neighbor. Verified 3-robust by the exhaustive
    checker in the test suite.
    """
    core = (0, 2, 3, 5, 6, 7)
    ins: dict[int, tuple[int, ...]] = {}
    for i in core:
        extra = (1,) if i in (0, 2, 3) else (4,)
        ins[i] = tuple(sorted([j for j in core if j != i] + list(extra)))
    ins[1] = (0, 2, 3)
    ins[4] = (5, 6, 7)
    return DirectedGraph(tuple(ins[i] for i in range(8)))


# ---------------------------------------------------------------------------
# Text format: first non-comment line is the node count, then one line per
# node of the form "i <- j1 j2 ...". Nodes with no in-neighbors may be
# written as "i <-" or omitted entirely. '#' starts a comment.
# ---------------------------------------------------------------------------


def parse_graph_text(text: str) -> DirectedGraph:
    lines = []
    for raw in text.splitlines():
        stripped = raw.split("#", 1)[0].strip()
        if stripped:
            lines.append(stripped)
    if not lines:
        raise ValueError("graph text is empty")
    try:
        n = int(lines[0])
    except ValueError as exc:
        raise ValueError(f"first line must be the node count, got {lines[0]!r}") from exc
    if not 1 <= n <= MAX_DECLARED_NODES:
        raise ValueError(f"node count must lie in 1..{MAX_DECLARED_NODES}, got {n}")
    ins: list[tuple[int, ...] | None] = [None] * n
    for line in lines[1:]:
        head, sep, tail = line.partition("<-")
        if not sep:
            raise ValueError(f"expected 'i <- j1 j2 ...', got {line!r}")
        try:
            i = int(head)
            nbrs = tuple(int(tok) for tok in tail.split())
        except ValueError as exc:
            raise ValueError(f"bad node id in line {line!r}") from exc
        if not 0 <= i < n:
            raise ValueError(f"node id {i} out of range for {n} nodes")
        if ins[i] is not None:
            raise ValueError(f"node {i} defined twice")
        ins[i] = nbrs
    return DirectedGraph(tuple(row if row is not None else () for row in ins))


def format_graph_text(graph: DirectedGraph, comment: str = "") -> str:
    out = []
    if comment:
        out.extend(f"# {line}" for line in comment.splitlines())
    out.append(str(graph.node_count))
    for i, nbrs in enumerate(graph.in_neighbors):
        out.append(f"{i} <- " + " ".join(str(j) for j in nbrs) if nbrs else f"{i} <-")
    return "\n".join(out) + "\n"


def load_graph(path: str | Path) -> DirectedGraph:
    return parse_graph_text(Path(path).read_text())
