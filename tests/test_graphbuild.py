from datetime import datetime, timezone

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blognet import graphbuild
from blognet.graphbuild import (
    Edge,
    UrlResolver,
    blog_universe,
    drop_external_links,
    drop_self_loops,
    extract_blogroll_edges,
    extract_citation_edges,
    extract_comment_edges,
    merge_layers,
)
from blognet.ingest import BlogrollRecord, RawComment, RawPost
from oracles import (
    blogroll_edges_resolving_each_record,
    candidate_links_by_rebuild,
    merge_layers_by_counter,
)

UTC = timezone.utc
PATTERNS = ["{blog}.parsiblog.com"]


def post(post_id, blog_id, body="", title=""):
    return RawPost(post_id, blog_id, title, body, datetime(2010, 4, 1, tzinfo=UTC))


def comment(comment_id, post_id, commenter):
    return RawComment(comment_id, post_id, commenter, "x", datetime(2010, 4, 2, tzinfo=UTC))


class TestUrlResolution:
    def test_subdomain_with_post_path(self):
        assert UrlResolver(PATTERNS).resolve(
            "http://alishariaty.parsiblog.com/post/12"
        ) == "alishariaty"

    def test_external_host(self):
        assert UrlResolver(PATTERNS).resolve("http://news.example.org/x") is None

    def test_case_folded(self):
        assert UrlResolver(PATTERNS).resolve("HTTP://AliShariaty.ParsiBlog.com") == "alishariaty"

    def test_www_prefix_tolerated(self):
        assert UrlResolver(PATTERNS).resolve("http://www.alishariaty.parsiblog.com") == "alishariaty"

    def test_platform_root_is_external(self):
        assert UrlResolver(PATTERNS).resolve("http://parsiblog.com/") is None
        assert UrlResolver(PATTERNS).resolve("http://www.parsiblog.com/") is None

    def test_nested_subdomain_rejected(self):
        assert UrlResolver(PATTERNS).resolve("http://a.b.parsiblog.com/") is None

    def test_path_pattern(self):
        patterns = ["example.com/{blog}"]
        assert UrlResolver(patterns).resolve("https://example.com/myblog/post/3") == "myblog"
        assert UrlResolver(patterns).resolve("https://example.com/") is None

    def test_both_pattern_kinds_together(self):
        patterns = ["{blog}.parsiblog.com", "parsiblog.com/{blog}"]
        assert UrlResolver(patterns).resolve("http://x.parsiblog.com") == "x"
        assert UrlResolver(patterns).resolve("http://parsiblog.com/y") == "y"

    def test_malformed_url_is_external(self):
        assert UrlResolver(PATTERNS).resolve("http://[broken") is None
        assert UrlResolver(PATTERNS).resolve("") is None
        assert UrlResolver(PATTERNS).resolve("mailto:x@y.com") is None

    def test_bad_pattern_rejected(self):
        with pytest.raises(ValueError):
            UrlResolver(["no-placeholder.example.com"])
        with pytest.raises(ValueError):
            UrlResolver([])


class TestBlogrollExtraction:
    def test_internal_target_becomes_edge(self):
        records = [BlogrollRecord("a", "http://b.parsiblog.com/")]
        edges, counters = extract_blogroll_edges(records, UrlResolver(PATTERNS))
        assert edges == [Edge("a", "b", "blogroll", 1)]
        assert counters["external_urls"] == 0

    def test_external_target_counted_and_dropped(self):
        records = [BlogrollRecord("a", "http://cdn.images.example/x.png")]
        edges, counters = extract_blogroll_edges(records, UrlResolver(PATTERNS))
        assert edges == []
        assert counters["external_urls"] == 1

    def test_duplicates_fold_into_weight(self):
        records = [
            BlogrollRecord("a", "http://b.parsiblog.com/"),
            BlogrollRecord("a", "http://B.parsiblog.com"),
        ]
        edges, _ = extract_blogroll_edges(records, UrlResolver(PATTERNS))
        assert len(edges) == 1
        assert edges[0].weight == 2


class TestCommentExtraction:
    def test_commenter_to_author_direction(self):
        posts = [post("p1", "y")]
        edges, counters = extract_comment_edges(
            [comment("c1", "p1", "x")], {p.post_id: p.blog_id for p in posts})
        assert edges == [Edge("x", "y", "comment", 1)]
        assert counters == {"comments": 1, "anonymous": 0, "unmatched": 0}

    def test_direction_flag_flips(self):
        posts = [post("p1", "y")]
        edges, counters = extract_comment_edges(
            [comment("c1", "p1", "x")], {p.post_id: p.blog_id for p in posts},
            toward_author=False
        )
        assert edges == [Edge("y", "x", "comment", 1)]
        assert counters == {"comments": 1, "anonymous": 0, "unmatched": 0}

    def test_anonymous_skipped_and_counted(self):
        posts = [post("p1", "y")]
        edges, counters = extract_comment_edges(
            [comment("c1", "p1", None)], {p.post_id: p.blog_id for p in posts})
        assert edges == []
        assert counters == {"comments": 1, "anonymous": 1, "unmatched": 0}

    def test_multiplicity_folds(self):
        posts = [post("p1", "y"), post("p2", "y")]
        comments = [
            comment("c1", "p1", "x"),
            comment("c2", "p1", "x"),
            comment("c3", "p2", "x"),
        ]
        edges, counters = extract_comment_edges(comments, {p.post_id: p.blog_id for p in posts})
        assert edges == [Edge("x", "y", "comment", 3)]
        assert counters == {"comments": 3, "anonymous": 0, "unmatched": 0}


class TestCitationExtraction:
    def test_href_to_other_blog(self):
        p = post("p1", "a", body='see <a href="http://b.parsiblog.com/post/7">this</a>')
        edges, counters = extract_citation_edges([p], UrlResolver(PATTERNS))
        assert edges == [Edge("a", "b", "citation", 1)]
        assert counters["links_found"] == 1

    def test_bare_url_detected(self):
        p = post("p1", "a", body="متن http://b.parsiblog.com/post/7 ادامه")
        edges, _ = extract_citation_edges([p], UrlResolver(PATTERNS))
        assert len(edges) == 1 and edges[0].dst == "b"

    def test_href_not_double_counted_as_bare_url(self):
        p = post("p1", "a", body='<a href="http://b.parsiblog.com/x">t</a>')
        edges, counters = extract_citation_edges([p], UrlResolver(PATTERNS))
        assert counters["links_found"] == 1
        assert edges[0].weight == 1

    def test_own_post_link_gives_no_edge(self):
        p = post("p1", "a", body='<a href="http://a.parsiblog.com/post/5">me</a>')
        edges, counters = extract_citation_edges([p], UrlResolver(PATTERNS))
        assert edges == []
        assert counters["self_links"] == 1

    def test_relative_url_resolves_to_own_blog(self):
        p = post("p1", "a", body='<a href="/post/99">older</a>')
        edges, counters = extract_citation_edges([p], UrlResolver(PATTERNS))
        assert edges == []
        assert counters["self_links"] == 1

    def test_image_cdn_dropped_as_external(self):
        p = post("p1", "a", body='<img href="https://cdn.host.example/i.png">')
        edges, counters = extract_citation_edges([p], UrlResolver(PATTERNS))
        assert edges == []
        assert counters["external_urls"] == 1

    def test_fragment_href_ignored(self):
        p = post("p1", "a", body='<a href="#section">jump</a>')
        edges, counters = extract_citation_edges([p], UrlResolver(PATTERNS))
        assert counters["links_found"] == 0


# Markup pieces that exercise every href quoting form, fragments, relative
# and protocol-relative links, bare URLs, and unterminated attributes.
MARKUP_PIECES = (
    '<a href="http://b.parsiblog.com/post/7">', "<a href='/post/3'>",
    "<a HREF = http://c.parsiblog.com/x>", '<a href="#top">', '<a href="">',
    '<a href="//d.parsiblog.com/">', '<a href="mailto:x@y.example">',
    "http://e.parsiblog.com/p/1", "https://news.example.org/a?b=c",
    '<a href="http://f.parsiblog.com/', "href=", "</a>", " متن ", "\n", "(", ")",
    '"', "'", "<", ">",
)


class TestHrefMasking:
    """_candidate_links against the rebuild-per-href oracle."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.sampled_from(MARKUP_PIECES), max_size=40))
    def test_random_markup(self, pieces):
        html = "".join(pieces)
        assert graphbuild._candidate_links(html) == candidate_links_by_rebuild(html)

    def test_post_with_8000_links(self):
        html = " ".join(
            f'<p><a href="http://b{i % 97}.parsiblog.com/post/{i}">link {i}</a> '
            f"see http://news.example.org/{i}</p>"
            for i in range(8000)
        )
        links = graphbuild._candidate_links(html)
        assert len(links) == 16000
        assert links == candidate_links_by_rebuild(html)


class TestCleaningOps:
    def edges(self, pairs, layer="blogroll"):
        return [Edge(s, d, layer, 1) for s, d in pairs]

    def test_drop_external_mixed(self):
        edges = self.edges([("a", "b"), ("a", "ghost"), ("b", "phantom")])
        kept, removed = drop_external_links(edges, {"a", "b"})
        assert [e.dst for e in kept] == ["b"]
        assert removed == 2

    def test_drop_external_empty_and_identity(self):
        assert drop_external_links([], {"a"}) == ([], 0)
        edges = self.edges([("a", "b")])
        assert drop_external_links(edges, {"a", "b"}) == (edges, 0)

    def test_drop_self_loops(self):
        edges = self.edges([("a", "a"), ("a", "b")])
        kept, removed = drop_self_loops(edges)
        assert [(e.src, e.dst) for e in kept] == [("a", "b")]
        assert removed == 1
        assert drop_self_loops([]) == ([], 0)


class TestMergeLayers:
    def test_parallel_edges_across_layers(self):
        blogroll = [Edge("a", "b", "blogroll", 1)]
        comments = [Edge("a", "b", "comment", 1)]
        g = merge_layers([blogroll, comments])
        assert len(g.edges) == 2
        assert g.arcs == [("a", "b")]

    def test_disjoint_layers_sum(self):
        blogroll = [Edge("a", "b", "blogroll")]
        citations = [Edge("b", "c", "citation")]
        g = merge_layers([blogroll, citations])
        assert len(g.edges) == 2
        assert len(g.arcs) == 2

    def test_empty_layers(self):
        g = merge_layers([[], []])
        assert g.nodes == () and g.edges == ()

    def test_extra_nodes_without_edges_are_nodes(self):
        g = merge_layers([[Edge("a", "b", "blogroll")]], extra_nodes=["lonely"])
        assert g.nodes == ("a", "b", "lonely")

    def test_provenance_preserved(self):
        g = merge_layers([
            [Edge("a", "b", "blogroll", 2)],
            [Edge("a", "b", "blogroll", 1)],
        ])
        assert g.edges[0].weight == 3


LAYER_EDGES = st.builds(Edge, st.sampled_from("abcd"), st.sampled_from("abcd"),
                        st.sampled_from(["blogroll", "comment", "citation"]),
                        st.integers(1, 5))


@st.composite
def edge_layers(draw) -> list[list[Edge]]:
    """Layers as the extractors give them (each one layer's edges, unique
    and sorted by (src, dst)) or any lists of edges, repeats included."""
    if draw(st.booleans()):
        return [sorted({(e.src, e.dst): e._replace(layer=layer) for e in edges}.values())
                for layer, edges in zip(["blogroll", "comment", "citation"],
                                        draw(st.lists(st.lists(LAYER_EDGES), max_size=3)))]
    return draw(st.lists(st.lists(LAYER_EDGES, max_size=12), max_size=4))


@settings(max_examples=300, deadline=None)
@given(edge_layers(), st.lists(st.sampled_from(["a", "E", " f ", "b"]), max_size=3))
def test_merge_matches_counter_oracle(layers, extra_nodes):
    merged = merge_layers(layers, extra_nodes)
    assert merged == merge_layers_by_counter(layers, extra_nodes)
    assert all(type(edge) is Edge for edge in merged.edges)


class TestUniverse:
    def test_all_record_owners_included(self):
        posts = [post("p1", "writer")]
        comments = [comment("c1", "p1", "talker"), comment("c2", "p1", None)]
        blogroll = [BlogrollRecord("lister", "http://x.parsiblog.com/")]

        class P:
            blog_id = "profiled"

        universe = blog_universe(posts, comments, blogroll, [P()])
        assert universe == {"writer", "talker", "lister", "profiled"}


def test_cleaning_scan_property():
    # after external-drop then self-loop-drop, every edge has src != dst and
    # both endpoints inside the dataset universe
    rng = __import__("random").Random(12)
    universe = {f"b{i}" for i in range(8)}
    outsiders = ["ghost", "phantom", "void"]
    edges = []
    for i in range(300):
        src = f"b{rng.randrange(8)}"
        dst = rng.choice([f"b{rng.randrange(8)}", src, rng.choice(outsiders)])
        edges.append(Edge(src, dst, "blogroll", 1))
    kept, dropped_external = drop_external_links(edges, universe)
    kept, dropped_self = drop_self_loops(kept)
    assert len(kept) + dropped_external + dropped_self == len(edges)
    for e in kept:
        assert e.src != e.dst
        assert e.src in universe and e.dst in universe


def test_extraction_deterministic():
    records = [
        BlogrollRecord("b", "http://a.parsiblog.com/"),
        BlogrollRecord("a", "http://b.parsiblog.com/"),
        BlogrollRecord("a", "http://c.parsiblog.com/"),
    ]
    resolver = UrlResolver(PATTERNS)
    first, _ = extract_blogroll_edges(records, resolver)
    second, _ = extract_blogroll_edges(records, resolver)
    assert first == second
    assert [(e.src, e.dst) for e in first] == [("a", "b"), ("a", "c"), ("b", "a")]


def test_dot_export():
    g = merge_layers([[Edge("a", "b", "blogroll")]], extra_nodes=["c"])
    dot = "\n".join(graphbuild.to_dot(g))
    assert dot.startswith("digraph")
    assert '"a" -> "b";' in dot
    assert '"c";' in dot


def test_dot_escapes_quotes_in_blog_ids():
    g = merge_layers([[Edge('q"x', "b01", "citation")]])
    dot = "\n".join(graphbuild.to_dot(g))
    assert dot.splitlines()[1:-1] == ['  "b01";', '  "q\\"x";', '  "q\\"x" -> "b01";']


RESOLVER_PATTERNS = [
    ["{blog}.parsiblog.com"],
    ["parsiblog.com/{blog}"],
    ["{blog}.parsiblog.com", "blogfa.com/{blog}"],
]


@st.composite
def platform_urls(draw) -> str:
    scheme = draw(st.sampled_from(["http://", "https://", "HTTP://", "ftp://", "//", "", "http:"]))
    host = draw(st.sampled_from([
        "b01.parsiblog.com", "www.B02.parsiblog.com", "parsiblog.com", "a.b.parsiblog.com",
        "blogfa.com", "www.blogfa.com", "evil.com", "[::1]", "[bad", "h:99", "",
        "user\ufe6bhost.com",
    ]))
    path = draw(st.sampled_from(["", "/", "/B03/post/1", "//x", "?q=1", "#f", "/%zz"]))
    pad = draw(st.sampled_from(["", " ", "\t"]))
    return pad + scheme + host + path + pad


class TestBlogrollResolvedOncePerUrl:
    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(RESOLVER_PATTERNS),
           st.lists(platform_urls(), min_size=1, max_size=4).flatmap(
               lambda pool: st.lists(st.tuples(st.sampled_from(["a", "b01", "C"]),
                                               st.sampled_from(pool)), max_size=12)))
    def test_matches_per_record_oracle(self, patterns, rows):
        records = [BlogrollRecord(owner, url) for owner, url in rows]
        resolver = UrlResolver(patterns)
        assert extract_blogroll_edges(records, resolver) == (
            blogroll_edges_resolving_each_record(records, resolver)
        )

    def test_resolvers_share_no_targets(self):
        records = [BlogrollRecord("a", "http://parsiblog.com/b07/post")] * 2
        subdomain = UrlResolver(["{blog}.parsiblog.com"])
        path = UrlResolver(["parsiblog.com/{blog}"])
        for _ in range(2):
            assert extract_blogroll_edges(records, subdomain) == (
                [], {"records": 2, "external_urls": 2}
            )
            assert extract_blogroll_edges(records, path) == (
                [Edge("a", "b07", "blogroll", weight=2)], {"records": 2, "external_urls": 0}
            )


def test_comment_on_a_post_outside_posts_is_unmatched():
    posts = [post("p1", "y")]
    edges, counters = extract_comment_edges(
        [comment("c1", "p1", "x"), comment("c2", "p9", "x")],
        {p.post_id: p.blog_id for p in posts})
    assert edges == [Edge("x", "y", "comment", 1)]
    assert counters == {"comments": 2, "anonymous": 0, "unmatched": 1}
