import math
import random

import numpy as np
import pytest

from blognet.graphclean import SimpleDigraph
from blognet.ranking import (
    GraphHasNoArcsError,
    hits,
    indegree_rank,
    pagerank,
    ranked_rows,
)
from oracles import dense_hits, dense_pagerank, random_arcs


def graph(n, arcs):
    labels = [f"n{i:03d}" for i in range(n)]
    return SimpleDigraph.from_arcs(labels, [(labels[u], labels[v]) for u, v in arcs])


class TestIndegree:
    def test_star_into_center(self):
        k = 5
        g = graph(k + 1, [(i, k) for i in range(k)])
        scores = indegree_rank(g).scores
        assert scores[k] == k
        assert all(scores[i] == 0 for i in range(k))

    def test_empty_graph(self):
        assert indegree_rank(graph(0, [])).scores == {}

    def test_cycle_all_ones(self):
        g = graph(4, [(i, (i + 1) % 4) for i in range(4)])
        assert all(v == 1 for v in indegree_rank(g).scores.values())

    def test_scores_are_integral_and_non_negative(self):
        rng = random.Random(3)
        g = graph(8, random_arcs(rng, 8, 0.4))
        for v in indegree_rank(g).scores.values():
            assert v >= 0 and v == int(v)

    def test_adding_arc_never_decreases_target_score(self):
        rng = random.Random(4)
        for _ in range(20):
            n = rng.randint(2, 8)
            arcs = set(random_arcs(rng, n, 0.3))
            candidates = [(u, v) for u in range(n) for v in range(n)
                          if u != v and (u, v) not in arcs]
            if not candidates:
                continue
            u, v = rng.choice(candidates)
            before = indegree_rank(graph(n, sorted(arcs))).scores[v]
            after = indegree_rank(graph(n, sorted(arcs | {(u, v)}))).scores[v]
            assert after >= before


class TestHits:
    def test_rejects_arcless_graph(self):
        with pytest.raises(GraphHasNoArcsError):
            hits(graph(3, []))

    def test_star_out_of_center_closed_form(self):
        # center -> k leaves: one iteration reaches the fixed point
        # hub = (1, 0, ..., 0); authority = (0, 1/sqrt(k), ..., 1/sqrt(k))
        k = 4
        g = graph(k + 1, [(0, i + 1) for i in range(k)])
        hub, auth = hits(g)
        assert hub.scores[0] == pytest.approx(1.0, abs=1e-12)
        for leaf in range(1, k + 1):
            assert hub.scores[leaf] == pytest.approx(0.0, abs=1e-12)
            assert auth.scores[leaf] == pytest.approx(1 / math.sqrt(k), abs=1e-12)
        assert auth.scores[0] == pytest.approx(0.0, abs=1e-12)
        assert hub.converged and auth.converged

    def test_two_cycle_symmetric(self):
        g = graph(2, [(0, 1), (1, 0)])
        hub, auth = hits(g)
        expected = 1 / math.sqrt(2)
        for v in (0, 1):
            assert hub.scores[v] == pytest.approx(expected, abs=1e-12)
            assert auth.scores[v] == pytest.approx(expected, abs=1e-12)

    def test_matches_dense_oracle_randomized(self):
        rng = random.Random(19)
        done = 0
        while done < 60:
            n = rng.randint(2, 8)
            arcs = random_arcs(rng, n, rng.choice([0.2, 0.4, 0.6]))
            if not arcs:
                continue
            done += 1
            hub, auth = hits(graph(n, arcs), max_iter=5000, tol=1e-12)
            oracle_hub, oracle_auth = dense_hits(n, arcs)
            for v in range(n):
                assert hub.scores[v] == pytest.approx(oracle_hub[v], abs=1e-8)
                assert auth.scores[v] == pytest.approx(oracle_auth[v], abs=1e-8)

    def test_unit_norm_invariant(self):
        rng = random.Random(23)
        for _ in range(20):
            n = rng.randint(2, 8)
            arcs = random_arcs(rng, n, 0.4)
            if not arcs:
                continue
            hub, auth = hits(graph(n, arcs))
            for scores in (hub.scores, auth.scores):
                norm = math.sqrt(sum(x * x for x in scores.values()))
                assert norm == pytest.approx(1.0, abs=1e-9)

    def test_rank_order_invariant_to_initialization_scale(self):
        # normalized iterates are scale-free, so the documented unit start
        # and a 1/sqrt(n) start give the same vectors; spot-check against a
        # manual run started at 1/sqrt(n)
        rng = random.Random(29)
        for _ in range(10):
            n = rng.randint(2, 7)
            arcs = random_arcs(rng, n, 0.5)
            if not arcs:
                continue
            hub, auth = hits(graph(n, arcs), max_iter=2000, tol=1e-12)
            h = np.full(n, 1 / math.sqrt(n))
            a = np.full(n, 1 / math.sqrt(n))
            A = np.zeros((n, n))
            for u, v in arcs:
                A[u, v] = 1.0
            for _ in range(2000):
                a_new = A.T @ h
                a_new /= np.linalg.norm(a_new)
                h_new = A @ a_new
                h_new /= np.linalg.norm(h_new)
                if max(np.abs(h_new - h).max(), np.abs(a_new - a).max()) < 1e-12:
                    h, a = h_new, a_new
                    break
                h, a = h_new, a_new
            for v in range(n):
                assert hub.scores[v] == pytest.approx(h[v], abs=1e-8)
                assert auth.scores[v] == pytest.approx(a[v], abs=1e-8)

    def test_iterations_reported(self):
        g = graph(2, [(0, 1), (1, 0)])
        hub, auth = hits(g)
        assert hub.iterations_used >= 1
        assert hub.iterations_used == auth.iterations_used

    def test_l1_norm_variant(self):
        g = graph(3, [(0, 1), (0, 2)])
        hub, auth = hits(g, norm="l1")
        assert sum(auth.scores.values()) == pytest.approx(1.0, abs=1e-9)


class TestPagerank:
    def test_two_cycle_half_half(self):
        g = graph(2, [(0, 1), (1, 0)])
        pr = pagerank(g)
        assert pr.scores[0] == pytest.approx(0.5, abs=1e-12)
        assert pr.scores[1] == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    def test_cycle_uniform(self, n):
        g = graph(n, [(i, (i + 1) % n) for i in range(n)])
        pr = pagerank(g)
        for v in range(n):
            assert pr.scores[v] == pytest.approx(1 / n, abs=1e-12)

    def test_chain_matches_dense_oracle(self):
        g = graph(3, [(0, 1), (1, 2)])  # node 2 dangling
        pr = pagerank(g, tol=1e-12, max_iter=10000)
        oracle = dense_pagerank(3, [(0, 1), (1, 2)])
        for v in range(3):
            assert pr.scores[v] == pytest.approx(oracle[v], abs=1e-9)

    def test_matches_dense_oracle_randomized(self):
        rng = random.Random(31)
        for _ in range(60):
            n = rng.randint(1, 8)
            arcs = random_arcs(rng, n, rng.choice([0.2, 0.4, 0.6]))
            pr = pagerank(graph(n, arcs), tol=1e-12, max_iter=10000)
            oracle = dense_pagerank(n, arcs)
            for v in range(n):
                assert pr.scores[v] == pytest.approx(oracle[v], abs=1e-8)

    def test_sum_one_and_lower_bound(self):
        rng = random.Random(37)
        for _ in range(30):
            n = rng.randint(1, 8)
            g = graph(n, random_arcs(rng, n, 0.3))
            pr = pagerank(g)
            assert sum(pr.scores.values()) == pytest.approx(1.0, abs=1e-9)
            floor = (1 - 0.85) / n
            assert all(v >= floor - 1e-12 for v in pr.scores.values())

    def test_self_absorbing_dangling_policy(self):
        g = graph(2, [(0, 1)])  # node 1 dangling
        pr = pagerank(g, dangling="self", tol=1e-13, max_iter=100000)
        oracle = dense_pagerank(2, [(0, 1)], dangling="self")
        assert sum(pr.scores.values()) == pytest.approx(1.0, abs=1e-9)
        for v in range(2):
            assert pr.scores[v] == pytest.approx(oracle[v], abs=1e-8)

    def test_empty_graph(self):
        pr = pagerank(graph(0, []))
        assert pr.scores == {} and pr.converged

    def test_permutation_equivariance(self):
        rng = random.Random(41)
        n = 7
        arcs = random_arcs(rng, n, 0.4)
        labels = [f"n{i:03d}" for i in range(n)]
        perm = list(range(n))
        rng.shuffle(perm)
        g1 = graph(n, arcs)
        g2 = SimpleDigraph.from_arcs(
            labels, [(labels[perm[u]], labels[perm[v]]) for u, v in arcs]
        )
        pr1 = pagerank(g1, tol=1e-12)
        pr2 = pagerank(g2, tol=1e-12)
        for v in range(n):
            assert pr1.scores[v] == pytest.approx(pr2.scores[perm[v]], abs=1e-10)

    def test_bad_damping(self):
        with pytest.raises(ValueError):
            pagerank(graph(1, []), damping=1.0)


def weighted_graph(n, arcs):
    labels = [f"n{i:03d}" for i in range(n)]
    return SimpleDigraph.from_arcs(labels, [(labels[u], labels[v], w) for u, v, w in arcs])


class TestWeightedVariants:
    def test_weighted_indegree(self):
        g = weighted_graph(3, [(0, 2, 3.0), (1, 2, 1.0)])
        assert indegree_rank(g).scores[2] == 4.0

    def test_weighted_pagerank_prefers_heavy_arc(self):
        g = weighted_graph(3, [(0, 1, 9.0), (0, 2, 1.0), (1, 0, 1.0), (2, 0, 1.0)])
        pr = pagerank(g, tol=1e-12)
        assert pr.scores[1] > pr.scores[2]
        assert sum(pr.scores.values()) == pytest.approx(1.0, abs=1e-9)


class TestRankedRows:
    def test_sorted_with_blog_id_tiebreak(self):
        g = graph(3, [(0, 2), (1, 2)])
        rows = ranked_rows(indegree_rank(g), g.labels)
        assert rows == [("n002", 2.0, 1), ("n000", 0.0, 2), ("n001", 0.0, 3)]

    def test_top_k(self):
        g = graph(4, [(0, 1), (2, 1), (3, 1)])
        rows = ranked_rows(indegree_rank(g), g.labels, top_k=2)
        assert len(rows) == 2
        assert rows[0][0] == "n001"


@pytest.mark.parametrize("rank, kwargs, message", [
    (hits, {"max_iter": 0}, "max_iter must be >= 1"),
    (hits, {"tol": 0}, "tol must be positive"),
    (hits, {"norm": "l3"}, "unknown norm 'l3'"),
    (pagerank, {"dangling": "drop"}, "unknown dangling policy 'drop'"),
])
def test_bad_argument_is_value_error(rank, kwargs, message):
    with pytest.raises(ValueError) as err:
        rank(graph(2, [(0, 1)]), **kwargs)
    assert str(err.value) == message
