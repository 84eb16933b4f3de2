"""Popularity measures on the collapsed digraph: in-degree ranking, HITS
hubs/authorities, and PageRank.

The iterative methods update every node from the previous iteration's
frozen vector (Jacobi-style), so results do not depend on node order
beyond floating-point associativity.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

import numpy as np

from .graphclean import SimpleDigraph


class GraphHasNoArcsError(ValueError):
    """HITS is undefined on an arcless graph."""


class RankScores(NamedTuple):
    kind: str                    # indegree | hub | authority | pagerank
    scores: dict[int, float]     # node index -> score
    iterations_used: int
    converged: bool


def _weighted_arcs(g: SimpleDigraph) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``g``'s source, target and weight columns as arrays."""
    return (np.array(g.sources, dtype=np.int64), np.array(g.targets, dtype=np.int64),
            np.array(g.weights, dtype=np.float64))


def _to_scores(kind: str, vec: np.ndarray, iterations: int, converged: bool) -> RankScores:
    return RankScores(
        kind=kind,
        scores=dict(enumerate(vec.tolist())),
        iterations_used=iterations,
        converged=converged,
    )


def _norm(vec: np.ndarray, order: int) -> float:
    """The l1 or l2 norm of ``vec``, summed by ``math.fsum``: correctly
    rounded, so its bits depend on neither summation order nor the host's
    BLAS kernel (``np.linalg.norm`` calls BLAS)."""
    if order == 1:
        return math.fsum(np.abs(vec).tolist())
    return math.sqrt(math.fsum((vec * vec).tolist()))


def indegree_rank(g: SimpleDigraph) -> RankScores:
    """score(v) = total weight of the arcs into v (their count if each weighs 1)."""
    _, dst, w = _weighted_arcs(g)
    return _to_scores("indegree", np.bincount(dst, weights=w, minlength=g.n), 0, True)


def hits(
    g: SimpleDigraph,
    max_iter: int = 200,
    tol: float = 1e-9,
    norm: str = "l2",
) -> tuple[RankScores, RankScores]:
    """Hub/authority scores, initialized at 1 everywhere.

    Per iteration: authority(v) = sum over in-arcs u -> v of w(u, v) * hub(u),
    then hub(u) = sum over out-arcs u -> v of w(u, v) * authority(v), each
    vector normalized after its update. Stops when the largest component
    change of either vector drops below ``tol``.
    """
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    if tol <= 0:
        raise ValueError("tol must be positive")
    if norm not in ("l2", "l1"):
        raise ValueError(f"unknown norm {norm!r}")
    if g.arc_count == 0:
        raise GraphHasNoArcsError("HITS needs at least one arc")

    src, dst, w = _weighted_arcs(g)
    n = g.n
    order = 2 if norm == "l2" else 1
    hub = np.ones(n)
    auth = np.ones(n)
    converged = False
    for iterations in range(1, max_iter + 1):
        new_auth = np.bincount(dst, weights=hub[src] * w, minlength=n)
        new_auth /= _norm(new_auth, order)
        new_hub = np.bincount(src, weights=new_auth[dst] * w, minlength=n)
        new_hub /= _norm(new_hub, order)
        delta = max(
            np.max(np.abs(new_hub - hub)), np.max(np.abs(new_auth - auth))
        )
        hub, auth = new_hub, new_auth
        if delta < tol:
            converged = True
            break
    return (
        _to_scores("hub", hub, iterations, converged),
        _to_scores("authority", auth, iterations, converged),
    )


def pagerank(
    g: SimpleDigraph,
    damping: float = 0.85,
    tol: float = 1e-9,
    max_iter: int = 200,
    dangling: str = "uniform",
) -> RankScores:
    """PR(v) = (1-d)/N + d * sum over in-arcs u -> v of PR(u) * w(u, v) / W(u),
    where W(u) is u's total out-arc weight (so w = 1 gives PR(u)/outdeg(u)),
    iterated from the uniform vector until the L1 change drops below ``tol``.

    Dangling nodes (no outgoing arcs) hand their mass back each iteration:
    ``uniform`` spreads it over all nodes, ``self`` lets each dangling node
    keep its own. Scores always sum to 1.
    """
    if not 0 < damping < 1:
        raise ValueError("damping must be in (0, 1)")
    if dangling not in ("uniform", "self"):
        raise ValueError(f"unknown dangling policy {dangling!r}")
    n = g.n
    if n == 0:
        return RankScores(kind="pagerank", scores={}, iterations_used=0, converged=True)

    src, dst, w = _weighted_arcs(g)
    out_weight = np.bincount(src, weights=w, minlength=n)
    dangling_mask = out_weight == 0
    share = w / np.where(dangling_mask, 1.0, out_weight)[src]

    pr = np.full(n, 1.0 / n)
    converged = False
    iterations = 0
    for iterations in range(1, max_iter + 1):
        flow = np.bincount(dst, weights=pr[src] * share, minlength=n)
        new_pr = (1.0 - damping) / n + damping * flow
        dangling_mass = float(pr[dangling_mask].sum())
        if dangling == "uniform":
            new_pr += damping * dangling_mass / n
        else:
            new_pr[dangling_mask] += damping * pr[dangling_mask]
        delta = float(np.abs(new_pr - pr).sum())
        pr = new_pr
        if delta < tol:
            converged = True
            break
    return _to_scores("pagerank", pr, iterations, converged)


def ranked_rows(
    scores: RankScores, labels: Sequence[str], top_k: int | None = None
) -> list[tuple[str, float, int]]:
    """(blog_id, score, rank) rows sorted by descending score; ties break on
    blog id so listings are reproducible."""
    ordered = sorted(
        ((labels[node], value) for node, value in scores.scores.items()),
        key=lambda item: (-item[1], item[0]),
    )
    if top_k is not None:
        ordered = ordered[:top_k]
    return [(blog_id, value, rank) for rank, (blog_id, value) in enumerate(ordered, 1)]
