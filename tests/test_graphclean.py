import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blognet.graphclean import (
    ComponentLabeling,
    SimpleDigraph,
    clustering_coefficient,
    degree_and_density,
    filter_components,
    graph_metrics,
    remove_isolated,
    scc_size_distribution,
    strongly_connected_components,
)
from oracles import (
    brute_mean_local_clustering,
    clustering_by_neighbour_sets,
    random_arcs,
    scc_by_reachability,
)


def graph(n, arcs):
    labels = [f"n{i:03d}" for i in range(n)]
    return SimpleDigraph.from_arcs(labels, [(labels[u], labels[v]) for u, v in arcs])


@st.composite
def digraphs(draw) -> SimpleDigraph:
    """Graphs of 0-12 nodes: random arcs, some mirrored into reciprocal
    pairs, or a clique in one or both directions."""
    n = draw(st.integers(0, 12))
    if n >= 2 and draw(st.booleans()):
        both = draw(st.booleans())
        return graph(n, [(u, v) for u in range(n) for v in range(n) if u < v or both and u != v])
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    arcs = draw(st.lists(st.sampled_from(pairs), max_size=40)) if pairs else []
    if draw(st.booleans()):
        arcs += [(v, u) for u, v in arcs[::2]]
    return graph(n, arcs)


class TestSimpleDigraph:
    def test_from_arcs_basics(self):
        g = graph(3, [(0, 1), (1, 2), (0, 1)])  # duplicate arc collapses
        assert g.n == 3
        assert g.arc_count == 2
        assert list(g.arcs()) == [(0, 1), (1, 2)]

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError, match="self-loop"):
            graph(2, [(0, 0)])

    def test_unknown_label_rejected(self):
        with pytest.raises(ValueError):
            SimpleDigraph.from_arcs(["a"], [("a", "zzz")])

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ValueError):
            SimpleDigraph.from_arcs(["a", "a"], [])

    def test_subgraph_reindexes(self):
        g = graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        sub = g.subgraph([1, 2])
        assert sub.labels == ("n001", "n002")
        assert list(sub.arcs()) == [(0, 1)]

    def test_degrees(self):
        g = graph(3, [(0, 1), (0, 2), (1, 2)])
        assert g.in_degrees() == [0, 1, 2]


class TestArcWeights:
    def test_pairs_weigh_one_and_parallel_weights_sum(self):
        g = SimpleDigraph.from_arcs(
            ["a", "b", "c"],
            [("a", "c", 2), ("a", "b"), ("a", "c", 3), ("b", "c", 0.5), ("b", "c", 0.25)],
        )
        assert g.adj == ((1, 2), (2,), ())
        assert g.weights == ((1, 5), (0.75,), ())
        assert type(g.weights[0][1]) is int  # integer weights stay integers

    @pytest.mark.parametrize("weight", [0, -3, float("nan"), float("inf"), "3", None])
    def test_weight_must_be_finite_and_positive(self, weight):
        with pytest.raises(ValueError, match=r"arc 'a' -> 'b' has weight"):
            SimpleDigraph.from_arcs(["a", "b"], [("a", "b", weight)])

    def test_pruning_keeps_surviving_weights(self):
        # a <-> b and c <-> d are 2-cycles; e only receives, f only sends
        g = SimpleDigraph.from_arcs(
            list("abcdef"),
            [("a", "b", 4), ("b", "a", 2), ("c", "d", 7), ("d", "c", 1),
             ("b", "c", 3), ("d", "e", 5), ("f", "a", 6)],
        )
        pruned, removed = remove_isolated(g)
        assert removed == ("e",)
        assert pruned.labels == tuple("abcdf")
        assert pruned.adj == ((1,), (0, 2), (3,), (2,), (0,))
        assert pruned.weights == ((4,), (2, 3), (7,), (1,), (6,))
        kept = filter_components(pruned, strongly_connected_components(pruned), min_size=2)
        assert kept.labels == tuple("abcd")
        assert kept.adj == ((1,), (0, 2), (3,), (2,))
        assert kept.weights == ((4,), (2, 3), (7,), (1,))


class TestRemoveIsolated:
    def test_no_outlink_removed_even_with_inlink(self):
        g = graph(2, [(0, 1)])  # node 1: out 0, in 1
        cleaned, removed = remove_isolated(g)
        assert removed == ("n001",)
        assert cleaned.labels == ("n000",)
        assert cleaned.arc_count == 0

    def test_strict_mode_keeps_sink_with_inlink(self):
        g = graph(3, [(0, 1)])  # node 2 fully isolated, node 1 sink
        cleaned, removed = remove_isolated(g, strict=True)
        assert removed == ("n002",)
        assert cleaned.n == 2

    def test_two_cycle_unchanged(self):
        g = graph(2, [(0, 1), (1, 0)])
        cleaned, removed = remove_isolated(g)
        assert removed == ()
        assert cleaned.arc_count == 2

    def test_empty_graph(self):
        g = graph(0, [])
        cleaned, removed = remove_isolated(g)
        assert cleaned.n == 0 and removed == ()

    def test_single_pass_not_iterated(self):
        # removing the sink leaves its predecessor with out-degree 0; it stays
        g = graph(3, [(0, 1), (2, 0), (0, 2)])
        cleaned, removed = remove_isolated(g)
        assert removed == ("n001",)
        assert cleaned.n == 2


class TestSCC:
    def test_three_cycle_single_component(self):
        g = graph(3, [(0, 1), (1, 2), (2, 0)])
        lab = strongly_connected_components(g)
        assert lab.count == 1
        assert lab.sizes == (3,)

    def test_path_gives_singletons(self):
        g = graph(3, [(0, 1), (1, 2)])
        lab = strongly_connected_components(g)
        assert lab.count == 3
        assert lab.sizes == (1, 1, 1)

    def test_canonical_ids_by_smallest_node(self):
        g = graph(4, [(2, 3), (3, 2)])  # component {2,3} and singletons 0, 1
        lab = strongly_connected_components(g)
        assert lab.comp_id[0] == 0
        assert lab.comp_id[1] == 1
        assert lab.comp_id[2] == lab.comp_id[3] == 2

    def test_matches_reachability_oracle_randomized(self):
        rng = random.Random(20100401)
        for _ in range(150):
            n = rng.randint(1, 12)
            arcs = random_arcs(rng, n, rng.choice([0.1, 0.3, 0.5]))
            g = graph(n, arcs)
            lab = strongly_connected_components(g)
            comp_id, sizes = scc_by_reachability(n, arcs)
            assert list(lab.comp_id) == comp_id
            assert list(lab.sizes) == sizes

    def test_partition_is_valid(self):
        rng = random.Random(9)
        arcs = random_arcs(rng, 30, 0.1)
        g = graph(30, arcs)
        lab = strongly_connected_components(g)
        assert sum(lab.sizes) == 30
        assert set(lab.comp_id) == set(range(lab.count))

    def test_deep_chain_no_recursion_limit(self):
        n = 50_000
        labels = [str(i) for i in range(n)]
        arcs = [(str(i), str(i + 1)) for i in range(n - 1)]
        g = SimpleDigraph.from_arcs(labels, arcs)
        lab = strongly_connected_components(g)
        assert lab.count == n


class TestFilterComponents:
    def test_min_size_keeps_qualifying_components(self):
        g = graph(5, [(0, 1), (1, 0), (2, 3), (3, 2)])  # two 2-cycles + isolate
        lab = strongly_connected_components(g)
        kept = filter_components(g, lab, min_size=2)
        assert kept.n == 4
        assert kept.arc_count == 4

    def test_min_size_one_is_identity(self):
        g = graph(4, [(0, 1), (2, 3)])
        lab = strongly_connected_components(g)
        kept = filter_components(g, lab, min_size=1)
        assert kept.labels == g.labels
        assert list(kept.arcs()) == list(g.arcs())

    def test_min_size_above_n_empties_graph(self):
        g = graph(3, [(0, 1)])
        lab = strongly_connected_components(g)
        assert filter_components(g, lab, min_size=4).n == 0

    def test_arcs_between_kept_components_retained(self):
        arcs = [(0, 1), (1, 0), (2, 3), (3, 2), (0, 2)]  # bridge between cycles
        g = graph(4, arcs)
        lab = strongly_connected_components(g)
        kept = filter_components(g, lab, min_size=2)
        assert kept.arc_count == 5

    def test_never_keeps_small_component_nodes(self):
        rng = random.Random(77)
        for _ in range(50):
            n = rng.randint(2, 12)
            g = graph(n, random_arcs(rng, n, 0.3))
            lab = strongly_connected_components(g)
            k = rng.randint(1, 4)
            kept = filter_components(g, lab, k)
            kept_labels = set(kept.labels)
            for v in range(n):
                if lab.size_of(v) < k:
                    assert g.labels[v] not in kept_labels

    def test_bad_min_size(self):
        g = graph(1, [])
        with pytest.raises(ValueError):
            filter_components(g, strongly_connected_components(g), 0)


class TestSizeDistribution:
    def test_all_singletons(self):
        g = graph(4, [])
        hist = scc_size_distribution(strongly_connected_components(g))
        assert hist == {1: 4}

    def test_mixed(self):
        g = graph(5, [(0, 1), (1, 2), (2, 0)])
        hist = scc_size_distribution(strongly_connected_components(g))
        assert hist == {3: 1, 1: 2}

    def test_sums_to_component_count(self):
        rng = random.Random(5)
        for _ in range(30):
            n = rng.randint(1, 12)
            g = graph(n, random_arcs(rng, n, 0.3))
            lab = strongly_connected_components(g)
            hist = scc_size_distribution(lab)
            assert sum(hist.values()) == lab.count
            assert max(hist) == max(lab.sizes)


class TestMetrics:
    # reference rows: (#nodes, #arcs, printed degree avg, printed density)
    TABLE_ROWS = [
        (21305, 257316, "24.1554", "0.000567"),
        (21305, 257316, "24.15", "0.000567"),
        (11187, 92703, "16.57", "0.000741"),
        (4664, 10528, "4.51", "0.000484"),
        (9065, 222216, "49.027248", "0.002704"),
    ]

    @pytest.mark.parametrize("n,e,deg_str,dens_str", TABLE_ROWS)
    def test_degree_and_density_reproduce_reference_tables(self, n, e, deg_str, dens_str):
        # tolerance: one unit in the last printed digit (the reference
        # figures are truncated, not rounded)
        degree_avg, density = degree_and_density(n, e)
        assert abs(degree_avg - float(deg_str)) < 10 ** -len(deg_str.split(".")[1])
        assert abs(density - float(dens_str)) < 10 ** -len(dens_str.split(".")[1])

    def test_small_graph_conventions(self):
        assert degree_and_density(0, 0) == (0.0, 0.0)
        assert degree_and_density(1, 0) == (0.0, 0.0)

    def test_reciprocal_triangle_clustering_is_one(self):
        arcs = [(u, v) for u in range(3) for v in range(3) if u != v]
        g = graph(3, arcs)
        assert clustering_coefficient(g) == 1.0
        assert clustering_coefficient(g, "transitivity") == 1.0

    def test_clustering_matches_brute_force(self):
        rng = random.Random(41)
        for _ in range(40):
            n = rng.randint(1, 10)
            arcs = random_arcs(rng, n, 0.4)
            g = graph(n, arcs)
            expected = brute_mean_local_clustering(n, arcs)
            assert clustering_coefficient(g) == pytest.approx(expected, abs=1e-12)

    @settings(max_examples=300, deadline=None)
    @given(digraphs(), st.sampled_from(["mean_local", "transitivity"]))
    def test_clustering_matches_neighbour_set_oracle(self, g, variant):
        assert clustering_coefficient(g, variant) == clustering_by_neighbour_sets(g, variant)

    def test_degree_lt_two_contributes_zero(self):
        g = graph(3, [(0, 1)])  # path: all projected degrees < 2
        assert clustering_coefficient(g) == 0.0

    def test_graph_metrics_bundle(self):
        g = graph(3, [(0, 1), (1, 0), (1, 2)])
        m = graph_metrics(g)
        assert m.nodes == 3
        assert m.edges == 3
        assert m.degree_avg == pytest.approx(2.0)
        assert m.density == pytest.approx(0.5)
        assert m.scc_count == 2

    def test_metrics_invariant_under_relabeling(self):
        rng = random.Random(17)
        n = 10
        arcs = random_arcs(rng, n, 0.3)
        g1 = graph(n, arcs)
        perm = list(range(n))
        rng.shuffle(perm)
        labels = [f"n{i:03d}" for i in range(n)]
        g2 = SimpleDigraph.from_arcs(
            sorted(labels), [(labels[perm[u]], labels[perm[v]]) for u, v in arcs]
        )
        m1, m2 = graph_metrics(g1), graph_metrics(g2)
        assert m1.nodes == m2.nodes and m1.edges == m2.edges
        assert m1.degree_avg == pytest.approx(m2.degree_avg)
        assert m1.density == pytest.approx(m2.density)
        assert m1.clustering_coefficient == pytest.approx(m2.clustering_coefficient)
        assert m1.scc_count == m2.scc_count

    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError):
            clustering_coefficient(graph(1, []), "directed-magic")
