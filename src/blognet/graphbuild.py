"""Link-graph construction: extract blogroll, comment, and citation edge
layers, resolve platform URLs to blog ids, drop external targets and
self-loops, and merge the layers into one directed multigraph.

Every layer folds repeated (src, dst) pairs into one edge whose weight
counts the records behind it; which records those were is not kept.
"""

from __future__ import annotations

import functools
import re
from collections import Counter
from typing import Iterable, NamedTuple, Sequence
from urllib.parse import urlsplit

from .config import parse_host_pattern
from .ingest import BlogrollRecord, RawComment, RawPost, canonical_slug


class Edge(NamedTuple):
    """One edge, in the column order of build's ``edges_*.csv`` rows."""

    src: str
    dst: str
    layer: str                           # "blogroll", "comment" or "citation"
    weight: int = 1                      # multiplicity within the layer


# For str patterns ``\s`` matches exactly the characters ``str.isspace`` accepts.
_NOT_BARE_RE = re.compile(r"[/:\\\s]")


def canonical_blog_id(raw: str) -> str:
    """Canonical node id: lowercase slug, no scheme, no slashes."""
    slug = canonical_slug(raw)
    if not slug:
        raise ValueError("blog id is empty")
    if _NOT_BARE_RE.search(slug):
        raise ValueError(f"not a bare blog slug: {raw!r}")
    return slug


class UrlResolver:
    """Maps URLs on the blogging platform to canonical blog ids.

    Two pattern shapes are supported, configurable together (read by
    ``config.parse_host_pattern``): ``{blog}.example.com`` (subdomain form;
    the path is ignored) and ``example.com/{blog}`` (path form; the first
    path segment names the blog). Patterns and hosts compare
    case-insensitively, and a host may carry a leading ``www.`` label.
    Anything else, including malformed URLs, resolves to None and is
    treated as external.
    """

    def __init__(self, patterns: Sequence[str]):
        self._subdomain_suffixes: list[str] = []
        self._path_hosts: list[str] = []
        for pattern in patterns:
            subdomain, rest = parse_host_pattern(pattern)
            (self._subdomain_suffixes if subdomain else self._path_hosts).append(rest)
        if not self._subdomain_suffixes and not self._path_hosts:
            raise ValueError("at least one host pattern is required")

    def resolve(self, url: str) -> str | None:
        try:
            parts = urlsplit(url.strip())
            host = parts.hostname
        except ValueError:
            return None
        if not host:
            return None
        host = host.removeprefix("www.")
        for suffix in self._subdomain_suffixes:
            if host.endswith(suffix):
                label = host[: -len(suffix)]
                if label and "." not in label:
                    return label
        for pattern_host in self._path_hosts:
            if host == pattern_host:
                segment = parts.path.lstrip("/").split("/", 1)[0]
                if segment:
                    return segment.lower()
        return None


# --- edge extraction ---------------------------------------------------------

def _folded_edges(acc: Counter, layer: str) -> list[Edge]:
    return [Edge(src, dst, layer, weight=n) for (src, dst), n in sorted(acc.items())]


def extract_blogroll_edges(
    records: Sequence[BlogrollRecord], resolver: UrlResolver
) -> tuple[list[Edge], dict[str, int]]:
    """One owner->target edge per internal blogroll entry; duplicates fold
    into the weight. External targets are dropped and counted."""
    acc: Counter = Counter()
    counters = {"records": len(records), "external_urls": 0}
    # many blogs list the same blogs, so each distinct URL is resolved once;
    # citation URLs carry post paths and rarely repeat, so they are not cached
    resolve = functools.cache(resolver.resolve)
    for rec in records:
        target = resolve(rec.target_url)
        if target is None:
            counters["external_urls"] += 1
            continue
        acc[canonical_blog_id(rec.owner_blog_id), target] += 1
    return _folded_edges(acc, "blogroll"), counters


def extract_comment_edges(
    comments: Sequence[RawComment],
    posts: Sequence[RawPost],
    toward_author: bool = True,
) -> tuple[list[Edge], dict[str, int]]:
    """Edge commenter -> post author (direction flips with toward_author=False),
    weight = number of such comments. Anonymous comments are skipped and
    counted."""
    owner = {p.post_id: canonical_blog_id(p.blog_id) for p in posts}
    acc: Counter = Counter()
    counters = {"comments": len(comments), "anonymous": 0, "unmatched": 0}
    for c in comments:
        if not c.commenter_blog_id:
            counters["anonymous"] += 1
            continue
        author = owner.get(c.post_id)
        if author is None:
            counters["unmatched"] += 1
            continue
        commenter = canonical_blog_id(c.commenter_blog_id)
        src, dst = (commenter, author) if toward_author else (author, commenter)
        acc[src, dst] += 1
    return _folded_edges(acc, "comment"), counters


_HREF_RE = re.compile(r"""href\s*=\s*(?:"([^"]*)"|'([^']*)'|([^\s>]+))""", re.IGNORECASE)
_BARE_URL_RE = re.compile(r"""https?://[^\s"'<>()\[\]]+""", re.IGNORECASE)
_SCHEME_RE = re.compile(r"^[a-zA-Z][a-zA-Z0-9+.\-]*:")


def _candidate_links(html: str) -> list[tuple[str, bool]]:
    """(url, is_relative) pairs from href attributes plus bare URLs in text.

    href'd URLs are masked before the bare-URL scan so one markup occurrence
    is not counted twice.
    """
    out: list[tuple[str, bool]] = []

    def mask(m: re.Match) -> str:
        value = (m.group(1) or m.group(2) or m.group(3) or "").strip()
        if value and not value.startswith("#"):
            absolute = bool(_SCHEME_RE.match(value)) or value.startswith("//")
            out.append((value, not absolute))
        return " " * (m.end() - m.start())

    for m in _BARE_URL_RE.finditer(_HREF_RE.sub(mask, html)):
        out.append((m.group(), False))
    return out


def extract_citation_edges(
    posts: Sequence[RawPost], resolver: UrlResolver
) -> tuple[list[Edge], dict[str, int]]:
    """Scan raw post bodies (before HTML stripping) for hyperlinks into the
    platform; emit author -> target for every target other than the author's
    own blog. Relative URLs resolve to the author's blog and therefore never
    produce an edge."""
    acc: Counter = Counter()
    counters = {"posts": len(posts), "links_found": 0, "external_urls": 0, "self_links": 0}
    for p in posts:
        author = canonical_blog_id(p.blog_id)
        for url, is_relative in _candidate_links(p.body):
            counters["links_found"] += 1
            target = author if is_relative else resolver.resolve(url)
            if target is None:
                counters["external_urls"] += 1
            elif target == author:
                counters["self_links"] += 1
            else:
                acc[author, target] += 1
    return _folded_edges(acc, "citation"), counters


# --- cleaning and merging ----------------------------------------------------

def drop_external_links(
    edges: Sequence[Edge], node_universe: set[str]
) -> tuple[list[Edge], int]:
    """Remove edges whose destination is not a dataset blog; returns the
    removal count. Sources are dataset blogs by construction."""
    kept = [e for e in edges if e.dst in node_universe]
    return kept, len(edges) - len(kept)


def drop_self_loops(edges: Sequence[Edge]) -> tuple[list[Edge], int]:
    kept = [e for e in edges if e.src != e.dst]
    return kept, len(edges) - len(kept)


def blog_universe(
    posts: Sequence[RawPost] = (),
    comments: Sequence[RawComment] = (),
    blogroll: Sequence[BlogrollRecord] = (),
    profiles: Sequence = (),
) -> set[str]:
    """Every blog seen as a record owner or commenter in the dataset. Edges
    pointing outside this set are external."""
    universe = {canonical_blog_id(p.blog_id) for p in posts}
    universe.update(
        canonical_blog_id(c.commenter_blog_id)
        for c in comments
        if c.commenter_blog_id
    )
    universe.update(canonical_blog_id(r.owner_blog_id) for r in blogroll)
    universe.update(canonical_blog_id(p.blog_id) for p in profiles)
    return universe


class LayeredGraph(NamedTuple):
    """Directed multigraph over blog ids with per-edge layer tags.

    ``nodes`` covers every edge endpoint plus every blog seen in any input
    record, so blogs that are only linked (or only link out) are still
    nodes. (src, dst, layer) is unique; multiplicity lives in the weight.
    """

    nodes: tuple[str, ...]   # sorted
    edges: tuple[Edge, ...]  # sorted by (layer, src, dst)
    # simple-digraph view, sorted: parallel edges across layers fold to one arc
    arcs: list[tuple[str, str]]


def merge_layers(
    layers: Iterable[Sequence[Edge]], extra_nodes: Iterable[str] = ()
) -> LayeredGraph:
    """Union of the per-layer edge lists; duplicate (src, dst, layer) entries
    fold into one edge with the summed weight."""
    folded: Counter = Counter()
    for per_layer in layers:
        for src, dst, layer, weight in per_layer:
            folded[layer, src, dst] += weight
    edges = tuple(Edge(src, dst, layer, n) for (layer, src, dst), n in sorted(folded.items()))
    arcs = sorted({(src, dst) for src, dst, _layer, _weight in edges})
    nodes = {v for arc in arcs for v in arc}
    nodes.update(canonical_blog_id(n) for n in extra_nodes)
    return LayeredGraph(nodes=tuple(sorted(nodes)), edges=edges, arcs=arcs)


def to_dot(graph: LayeredGraph) -> str:
    """Collapsed view as DOT for visualization tools. Each id is a quoted DOT
    string, with ``"`` escaped (blog ids hold no ``\\``)."""
    quoted = {node: '"' + node.replace('"', '\\"') + '"' for node in graph.nodes}
    lines = ["digraph blognet {"]
    for node in graph.nodes:
        lines.append(f"  {quoted[node]};")
    for src, dst in graph.arcs:
        lines.append(f"  {quoted[src]} -> {quoted[dst]};")
    lines.append("}")
    return "\n".join(lines) + "\n"
