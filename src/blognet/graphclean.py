"""Node pruning and component analysis on the collapsed simple digraph:
isolated-node removal, strongly connected components, size-based component
filtering, and the summary metrics (degree average, density, clustering
coefficient, SCC count).
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from itertools import compress, count
from typing import Iterable, NamedTuple, Sequence


@dataclass(frozen=True)
class SimpleDigraph:
    """Weighted directed graph without parallel arcs or self-loops.

    Nodes are dense integer indices into ``labels``; adjacency lists are
    sorted tuples so traversal order (and thus every downstream artifact)
    is deterministic. ``weights[u][i]`` is the weight of arc
    ``u -> adj[u][i]``, kept in the type it arrived in.
    """

    labels: tuple[str, ...]
    adj: tuple[tuple[int, ...], ...]
    weights: tuple[tuple[float, ...], ...]

    @property
    def n(self) -> int:
        return len(self.labels)

    @property
    def arc_count(self) -> int:
        return sum(len(out) for out in self.adj)

    def arcs(self) -> Iterable[tuple[int, int]]:
        for u, out in enumerate(self.adj):
            for v in out:
                yield u, v

    def in_degrees(self) -> list[int]:
        deg = Counter(v for out in self.adj for v in out)
        return [deg[v] for v in range(self.n)]

    @classmethod
    def from_arcs(
        cls, labels: Sequence[str], arcs: Iterable[tuple[str, str] | tuple[str, str, float]]
    ) -> "SimpleDigraph":
        """Build from labeled arcs: ``(src, dst)`` pairs weigh 1 and
        ``(src, dst, weight)`` triples carry a finite weight > 0. Parallel
        arcs collapse to one whose weight is their sum; self-loops are
        rejected (run the self-loop drop first)."""
        ordered = tuple(labels)
        index = {label: i for i, label in enumerate(ordered)}
        if len(index) != len(ordered):
            raise ValueError("node labels must be unique")
        out_maps: list[dict[int, float]] = [{} for _ in ordered]
        for arc in arcs:
            if len(arc) == 2:
                src, dst = arc
                weight = 1
            else:
                src, dst, weight = arc
                if not (isinstance(weight, (int, float)) and 0 < weight < math.inf):
                    raise ValueError(f"arc {src!r} -> {dst!r} has weight {weight!r}, "
                                     "not a finite number > 0")
            try:
                u, v = index[src], index[dst]
            except KeyError as err:
                raise ValueError(f"arc endpoint {err.args[0]!r} is not a node") from None
            if u == v:
                raise ValueError(f"self-loop on {src!r}; drop self-loops before building")
            out = out_maps[u]
            out[v] = out.get(v, 0) + weight
        adj, weights = [], []
        for out in out_maps:
            targets, arc_weights = zip(*sorted(out.items())) if out else ((), ())
            adj.append(targets)
            weights.append(arc_weights)
        return cls(labels=ordered, adj=tuple(adj), weights=tuple(weights))

    def subgraph(self, keep: Iterable[int]) -> "SimpleDigraph":
        """Induced subgraph on ``keep``, nodes reindexed in ascending order;
        surviving arcs keep their weights."""
        kept = sorted(set(keep))
        remap = {old: new for new, old in enumerate(kept)}
        adj, weights = [], []
        for old in kept:
            out = self.adj[old]
            survives = [v in remap for v in out]
            adj.append(tuple([remap[v] for v in compress(out, survives)]))
            weights.append(tuple(compress(self.weights[old], survives)))
        return SimpleDigraph(
            labels=tuple(self.labels[i] for i in kept), adj=tuple(adj), weights=tuple(weights)
        )


@dataclass(frozen=True)
class ComponentLabeling:
    """node -> SCC id, plus the size of each component.

    Component ids are canonical: components are numbered in ascending order
    of their smallest contained node index.
    """

    comp_id: tuple[int, ...]
    sizes: tuple[int, ...]

    @property
    def count(self) -> int:
        return len(self.sizes)

    def size_of(self, node: int) -> int:
        return self.sizes[self.comp_id[node]]


class GraphMetrics(NamedTuple):
    nodes: int
    edges: int
    degree_avg: float
    density: float
    clustering_coefficient: float
    scc_count: int


def remove_isolated(
    g: SimpleDigraph, strict: bool = False
) -> tuple[SimpleDigraph, tuple[str, ...]]:
    """Remove isolated nodes in a single pass; returns (graph, removed labels).

    Default mode treats any node with no outgoing arc as isolated. Strict
    mode additionally requires no incoming arc. The pass is not iterated:
    nodes that lose their last out-neighbor to a removal stay.
    """
    in_deg = g.in_degrees() if strict else [0] * g.n
    isolated = [not out and not in_deg[v] for v, out in enumerate(g.adj)]
    kept = (v for v, gone in enumerate(isolated) if not gone)
    return g.subgraph(kept), tuple(compress(g.labels, isolated))


def strongly_connected_components(g: SimpleDigraph) -> ComponentLabeling:
    """Tarjan's one-pass SCC algorithm with an explicit stack.

    Iterative on purpose: input graphs reach 10^5 nodes and recursion would
    blow the interpreter stack.
    """
    n = g.n
    index = [-1] * n
    low = [0] * n
    on_stack = bytearray(n)
    stack: list[int] = []
    components: list[list[int]] = []
    preorder = count()
    adj = g.adj

    for root in range(n):
        if index[root] != -1:
            continue
        index[root] = low[root] = next(preorder)
        stack.append(root)
        on_stack[root] = 1
        # work frames: (node, iterator over its out-neighbors); a descent
        # breaks out of the scan, and the iterator resumes it on return
        work = [(root, iter(adj[root]))]
        while work:
            v, out = work[-1]
            for w in out:
                if index[w] == -1:
                    index[w] = low[w] = next(preorder)
                    stack.append(w)
                    on_stack[w] = 1
                    work.append((w, iter(adj[w])))
                    break
                if on_stack[w] and index[w] < low[v]:
                    low[v] = index[w]
            else:
                work.pop()
                if work:
                    parent = work[-1][0]
                    if low[v] < low[parent]:
                        low[parent] = low[v]
                if low[v] == index[v]:
                    component = []
                    while True:
                        w = stack.pop()
                        on_stack[w] = 0
                        component.append(w)
                        if w == v:
                            break
                    components.append(component)

    components.sort(key=min)
    comp_id = [0] * n
    sizes = []
    for cid, component in enumerate(components):
        for v in component:
            comp_id[v] = cid
        sizes.append(len(component))
    return ComponentLabeling(comp_id=tuple(comp_id), sizes=tuple(sizes))


def filter_components(
    g: SimpleDigraph, labeling: ComponentLabeling, min_size: int
) -> SimpleDigraph:
    """Keep nodes whose component has >= min_size members, with every arc
    among kept nodes (arcs between different kept components included)."""
    if min_size < 1:
        raise ValueError("min_size must be >= 1")
    keep = [v for v in range(g.n) if labeling.size_of(v) >= min_size]
    return g.subgraph(keep)


def scc_size_distribution(labeling: ComponentLabeling) -> Counter[int]:
    """Histogram component size -> number of components of that size."""
    return Counter(labeling.sizes)


def degree_and_density(nodes: int, arcs: int) -> tuple[float, float]:
    """degree_avg = 2E/N and density = E/(N(N-1)); zero below two nodes.

    Degree counts both arc endpoints (in plus out); density is over ordered
    node pairs, so a complete digraph has density 1.
    """
    if nodes < 2:
        return 0.0, 0.0
    return 2 * arcs / nodes, arcs / (nodes * (nodes - 1))


def clustering_coefficient(g: SimpleDigraph, variant: str = "mean_local") -> float:
    """Clustering of the undirected projection.

    ``mean_local``: average over all nodes of the local neighbor
    interconnection ratio; nodes with fewer than two neighbors contribute 0.
    ``transitivity``: global ratio of closed triplets to all triplets.
    """
    if variant not in ("mean_local", "transitivity"):
        raise ValueError(f"unknown clustering variant {variant!r}")
    if g.n == 0:
        return 0.0
    nbrs = [set(out) for out in g.adj]  # the undirected neighbors
    for u, out in enumerate(g.adj):
        for v in out:
            nbrs[v].add(u)
    # links_twice[v] counts each edge among v's neighbors from both of its
    # endpoints; an edge v-u shares its common neighbors with v and with u,
    # so each edge's intersection is taken once
    links_twice = [0] * g.n
    for v, around_v in enumerate(nbrs):
        for u in around_v:
            if u > v:
                shared = len(around_v & nbrs[u])
                links_twice[v] += shared
                links_twice[u] += shared
    closed = 0.0
    triplets = 0.0
    local_sum = 0.0
    for v, links in enumerate(links_twice):
        k = len(nbrs[v])
        if k < 2:
            continue
        local_sum += links / (k * (k - 1))
        closed += links
        triplets += k * (k - 1)
    if variant == "mean_local":
        return local_sum / g.n
    return closed / triplets if triplets else 0.0


def graph_metrics(
    g: SimpleDigraph,
    clustering_variant: str = "mean_local",
    labeling: ComponentLabeling | None = None,
) -> GraphMetrics:
    """Summary metrics for one graph; pass a precomputed labeling to avoid
    rerunning the SCC pass."""
    if labeling is None:
        labeling = strongly_connected_components(g)
    degree_avg, density = degree_and_density(g.n, g.arc_count)
    return GraphMetrics(
        nodes=g.n,
        edges=g.arc_count,
        degree_avg=degree_avg,
        density=density,
        clustering_coefficient=clustering_coefficient(g, clustering_variant),
        scc_count=labeling.count,
    )
