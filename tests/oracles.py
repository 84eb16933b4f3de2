"""Independent brute-force oracles used to validate the library.

These deliberately take different routes from the implementations under
test: SCCs via Floyd-Warshall transitive closure instead of Tarjan,
PageRank/HITS via dense matrix power iteration instead of sparse scatter
sums, clustering via triple enumeration. The similarity matrix, character
unification, tokenization, per-blog documents, href masking, blog-id checks,
blogroll URL resolution and validation, HTML stripping, URL resolution,
timestamp parsing and formatting, the validating dump loaders, artifact CSV
reading, JSONL writing, layer merging, per-node clustering and the per-node
digraph keep the slow, direct versions that the faster library code replaced.
"""

from __future__ import annotations

import csv
import json
import re
import unicodedata
from collections import Counter, defaultdict
from datetime import datetime, timedelta, timezone
from html.parser import HTMLParser
from itertools import compress, count
from operator import itemgetter
from pathlib import Path
from urllib.parse import urlsplit

import numpy as np

from blognet import cli, graphbuild, graphclean, ingest, textprep


def random_arcs(rng, n: int, p: float) -> list[tuple[int, int]]:
    """Erdos-Renyi style arc set without self-loops, deterministic per rng."""
    return [
        (u, v)
        for u in range(n)
        for v in range(n)
        if u != v and rng.random() < p
    ]


def scc_by_reachability(n: int, arcs: list[tuple[int, int]]) -> tuple[list[int], list[int]]:
    """Mutual-reachability SCCs via Floyd-Warshall transitive closure.

    Returns (comp_id per node, sizes per component) with the same canonical
    numbering the library promises: components ordered by smallest node.
    """
    reach = np.eye(n, dtype=bool)
    for u, v in arcs:
        reach[u, v] = True
    for k in range(n):
        reach |= np.outer(reach[:, k], reach[k, :])
    mutual = reach & reach.T
    comp_of: dict[int, int] = {}
    components: list[list[int]] = []
    for v in range(n):
        if v in comp_of:
            continue
        members = [w for w in range(n) if mutual[v, w]]
        for w in members:
            comp_of[w] = len(components)
        components.append(members)
    components.sort(key=min)
    comp_id = [0] * n
    sizes = []
    for cid, members in enumerate(components):
        for w in members:
            comp_id[w] = cid
        sizes.append(len(members))
    return comp_id, sizes


def dense_pagerank(
    n: int,
    arcs: list[tuple[int, int]],
    damping: float = 0.85,
    tol: float = 1e-13,
    max_iter: int = 100000,
    dangling: str = "uniform",
) -> np.ndarray:
    """Power iteration on the explicitly built dense transition matrix."""
    M = np.zeros((n, n))
    out_deg = np.zeros(n)
    for u, _ in arcs:
        out_deg[u] += 1
    for u, v in arcs:
        M[u, v] = 1.0 / out_deg[u]
    for u in range(n):
        if out_deg[u] == 0:
            if dangling == "uniform":
                M[u, :] = 1.0 / n
            else:  # self-absorbing dangling node
                M[u, u] = 1.0
    G = damping * M + (1.0 - damping) / n
    x = np.full(n, 1.0 / n)
    for _ in range(max_iter):
        x_new = x @ G
        if np.abs(x_new - x).sum() < tol:
            return x_new
        x = x_new
    return x


def dense_hits(
    n: int,
    arcs: list[tuple[int, int]],
    tol: float = 1e-13,
    max_iter: int = 100000,
) -> tuple[np.ndarray, np.ndarray]:
    """Dense-matrix HITS from all-ones vectors, L2-normalized per update."""
    A = np.zeros((n, n))
    for u, v in arcs:
        A[u, v] = 1.0
    hub = np.ones(n)
    auth = np.ones(n)
    for _ in range(max_iter):
        new_auth = A.T @ hub
        new_auth /= np.linalg.norm(new_auth)
        new_hub = A @ new_auth
        new_hub /= np.linalg.norm(new_hub)
        delta = max(np.abs(new_hub - hub).max(), np.abs(new_auth - auth).max())
        hub, auth = new_hub, new_auth
        if delta < tol:
            break
    return hub, auth


def brute_mean_local_clustering(n: int, arcs: list[tuple[int, int]]) -> float:
    """Mean local clustering of the undirected projection, by enumeration."""
    adj = np.zeros((n, n), dtype=bool)
    for u, v in arcs:
        if u != v:
            adj[u, v] = adj[v, u] = True
    total = 0.0
    for v in range(n):
        nbrs = [w for w in range(n) if adj[v, w]]
        k = len(nbrs)
        if k < 2:
            continue
        links = sum(
            1
            for i in range(k)
            for j in range(i + 1, k)
            if adj[nbrs[i], nbrs[j]]
        )
        total += 2.0 * links / (k * (k - 1))
    return total / n if n else 0.0


def pairwise_similarity_matrix(vectors) -> textprep.SimilarityMatrix:
    """Cosine matrix by calling ``cosine_similarity`` on every pair i <= j."""
    n = len(vectors)
    rows = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            s = textprep.cosine_similarity(vectors[i], vectors[j])
            rows[i][j] = s
            rows[j][i] = s
    return textprep.SimilarityMatrix(
        blog_ids=tuple(v.blog_id for v in vectors),
        values=tuple(tuple(row) for row in rows),
    )


def translate_unify_chars(text: str, table: dict) -> str:
    """Character unification to an NFC fixpoint with one ``str.translate``
    pass per round."""
    prev = None
    while text != prev:
        prev = text
        text = unicodedata.normalize("NFC", text).translate(table)
    return text


def tokenize_by_finditer(text: str) -> list[str]:
    """Tokens one regex match at a time: ZWNJ stripped at the edges, empty
    and all-digit tokens skipped."""
    tokens = []
    for match in textprep._TOKEN_RE.finditer(text):
        token = match.group().strip(textprep.ZWNJ)
        if not token:
            continue
        if token.replace(textprep.ZWNJ, "").isdigit():
            continue
        tokens.append(token)
    return tokens


_RUN_RE = re.compile(r"[\w\u200c]+")


def tokenize_by_strip(text: str) -> list[str]:
    """Tokens as runs of word characters and ZWNJs with the ZWNJs at their
    edges stripped, empty and all-digit ones skipped: the pattern here is not
    ``textprep._TOKEN_RE``, so edge ZWNJs are this function's own rule."""
    return [
        token for run in _RUN_RE.findall(text)
        if (token := run.strip(textprep.ZWNJ)) and not token.replace(textprep.ZWNJ, "").isdigit()
    ]


def blog_documents_by_tokens(posts, stopwords, equivalences=None, unify_alef=True):
    """``textprep.blog_documents`` keeping every token: each blog's kept
    tokens in text order, one ``str`` each, in a tuple."""
    by_blog = defaultdict(list)
    for post in posts:
        by_blog[post.blog_id].append(post)
    docs = []
    for blog_id in sorted(by_blog):
        blog_posts = sorted(by_blog[blog_id], key=lambda p: (p.published_at, p.post_id))
        text = " ".join(
            f"{textprep.strip_html(p.title)} {textprep.strip_html(p.body)}" for p in blog_posts
        )
        tokens = textprep.remove_stopwords(
            textprep.tokenize(textprep.normalize(text, equivalences, unify_alef)), stopwords
        )
        docs.append(textprep.NormalizedDocument(blog_id, tuple(tokens)))
    return docs


def candidate_links_by_rebuild(html: str) -> list[tuple[str, bool]]:
    """Link candidates with each href match masked by rebuilding the whole
    string, one match at a time (quadratic in links per post)."""
    out: list[tuple[str, bool]] = []
    spans: list[tuple[int, int]] = []
    for m in graphbuild._HREF_RE.finditer(html):
        spans.append(m.span())
        value = (m.group(1) or m.group(2) or m.group(3) or "").strip()
        if not value or value.startswith("#"):
            continue
        absolute = bool(graphbuild._SCHEME_RE.match(value)) or value.startswith("//")
        out.append((value, not absolute))
    masked = html
    for start, end in reversed(spans):
        masked = masked[:start] + " " * (end - start) + masked[end:]
    for m in graphbuild._BARE_URL_RE.finditer(masked):
        out.append((m.group(), False))
    return out


class _TextExtractor(HTMLParser):
    def __init__(self) -> None:
        super().__init__(convert_charrefs=True)
        self.parts: list[str] = []
        self._skip_depth = 0

    def handle_starttag(self, tag, attrs):
        if tag in textprep._SKIPPED_ELEMENTS:
            self._skip_depth += 1
        elif tag in textprep._BLOCK_ELEMENTS:
            self.parts.append(" ")

    def handle_endtag(self, tag):
        if tag in textprep._SKIPPED_ELEMENTS:
            if self._skip_depth:
                self._skip_depth -= 1
        elif tag in textprep._BLOCK_ELEMENTS:
            self.parts.append(" ")

    def handle_data(self, data):
        if not self._skip_depth:
            self.parts.append(data)

    def parse_marked_section(self, i, report=1):
        # a "<![" with no keyword HTMLParser knows raises AssertionError
        # there; its "<" is text, as it is before any other unknown markup
        try:
            return super().parse_marked_section(i, report)
        except AssertionError:
            self.handle_data("<")
            return i + 1


def strip_html_by_parser(raw: str) -> str:
    """HTML stripping with all of ``raw`` fed to ``HTMLParser`` as it is
    (quadratic in the markup left open)."""
    parser = _TextExtractor()
    parser.feed(raw)
    parser.close()
    return " ".join("".join(parser.parts).split())


def split_by_urlsplit(url: str) -> tuple[str, str | None, str]:
    """``ingest._split_url(url)`` as ``urlsplit`` gives it; its rules are
    those of the interpreter that runs it."""
    parts = urlsplit(url)
    return parts.scheme, parts.hostname, parts.path


def resolve_by_urlsplit(resolver: graphbuild.UrlResolver, url: str) -> str | None:
    """``resolver.resolve(url)`` with every URL split by ``urlsplit``."""
    try:
        _scheme, host, path = split_by_urlsplit(url.strip())
    except ValueError:
        return None
    if not host:
        return None
    host = host.removeprefix("www.")
    for suffix in resolver._subdomain_suffixes:
        if host.endswith(suffix):
            label = host[: -len(suffix)]
            if label and "." not in label:
                return label
    for pattern_host in resolver._path_hosts:
        if host == pattern_host:
            segment = path.lstrip("/").split("/", 1)[0]
            if segment:
                return segment.lower()
    return None


def canonical_blog_id_by_scan(raw: str) -> str:
    """``ingest.canonical_slug`` with each rule checked by a character scan;
    an empty slug is returned, as there."""
    if any(unicodedata.category(ch) == "Cc" and not ch.isspace() for ch in raw):
        what = "a NUL" if "\0" in raw else "a control character"
        raise ValueError(f"blog id holds {what}: {raw!r}")
    slug = raw.strip().lower()
    if any(ch in "/:\\" or ch.isspace() for ch in slug):
        raise ValueError(f"not a bare blog slug: {raw!r}")
    return slug


def blogroll_edges_resolving_each_record(records, resolver):
    """Blogroll extraction that resolves the target URL of every record, a
    repeated URL as often as it occurs."""
    acc: Counter = Counter()
    counters = {"records": len(records), "external_urls": 0}
    for rec in records:
        target = resolver.resolve(rec.target_url)
        if target is None:
            counters["external_urls"] += 1
            continue
        acc[rec.owner_blog_id, target] += 1
    return graphbuild._folded_edges(acc, "blogroll"), counters


def blogroll_url_error(url: str) -> str | None:
    """The quarantine reason ``load_blogroll`` gives a stripped target URL,
    splitting it on every call; None when it is accepted."""
    try:
        scheme, host, _path = split_by_urlsplit(url)
    except ValueError:
        return f"invalid URL {url!r}"
    if scheme not in ("http", "https") or not host:
        return f"invalid URL {url!r}"
    return None


def parse_timestamp_uncached(value: str, assume_offset: timedelta = timedelta(0)) -> datetime:
    """RFC 3339 parsing with a new timezone per call and a conversion to UTC
    even from ``Z``. A UTC reading outside years 1-9999, or with no second
    after it, raises OverflowError; a reading at ``assume_offset`` outside
    those years raises ``parse_timestamp``'s ValueError."""
    if not isinstance(value, str):
        raise ValueError("timestamp must be a string")
    m = ingest._TS_RE.match(value.strip())
    if not m:
        raise ValueError(f"unparseable timestamp: {value!r}")
    date_part, time_part, offset = m.group(1), m.group(2), m.group(3)
    naive = datetime.fromisoformat(f"{date_part}T{time_part}")
    if offset is None:
        tz = timezone(assume_offset)
    elif offset in ("Z", "z"):
        tz = timezone.utc
    else:
        sign = 1 if offset[0] == "+" else -1
        hours, minutes = int(offset[1:3]), int(offset[4:6])
        tz = timezone(sign * timedelta(hours=hours, minutes=minutes))
    utc = naive.replace(tzinfo=tz).astimezone(timezone.utc)
    utc + timedelta(seconds=1)
    try:
        utc + assume_offset
    except OverflowError:
        raise ValueError(f"timestamp out of range at the dump offset: {value!r}") from None
    return utc


def _string_field(obj: dict, key: str, *, allow_empty: bool = False) -> str:
    value = obj.get(key)
    if not isinstance(value, str):
        raise ValueError(f"field {key!r} missing or not a string")
    if not allow_empty and not value.strip():
        raise ValueError(f"field {key!r} is empty")
    try:
        # a JSON escape such as "\ud800" decodes to a lone surrogate, which
        # no artifact could be written with
        value.encode("utf-8")
    except UnicodeEncodeError:
        raise ValueError(f"field {key!r} holds a lone surrogate") from None
    return value


def _enum_field(obj: dict, key: str, allowed: tuple[str, ...]) -> str:
    value = obj.get(key)
    if value is None:
        return "unspecified"
    if not isinstance(value, str) or value not in allowed:
        raise ValueError(f"field {key!r} must be one of {allowed}")
    return value


def _timestamp(value, assume_offset: timedelta) -> datetime:
    try:
        return parse_timestamp_uncached(value, assume_offset)
    except OverflowError:
        raise ValueError(f"timestamp out of range in UTC: {value!r}") from None


def _load_jsonl_by_loads(path, parse_record, *, id_of=None) -> ingest.LoadResult:
    """The loader loop with a ``json.loads`` per line and every string
    field checked for a lone surrogate."""
    path = Path(path)
    records: list = []
    quarantined: list[ingest.QuarantinedLine] = []
    seen_ids: set[str] = set()
    for line_no, raw in enumerate(ingest.read_lines(path, "utf-8-sig"), start=1):
        raw = raw.rstrip("\n")
        try:
            if not raw.strip():
                raise ValueError("empty line")
            obj = ingest.decode_json(raw)
            if not isinstance(obj, dict):
                raise ValueError("line is not a JSON object")
            record = parse_record(obj)
        except ValueError as err:
            reason = f"invalid JSON: {err.msg}" if type(err) is json.JSONDecodeError else str(err)
            quarantined.append(ingest.QuarantinedLine(path.name, line_no, reason))
            continue
        if id_of is not None:
            rid = id_of(record)
            if rid in seen_ids:
                raise ingest.DuplicateIdError(f"{path.name}:{line_no}: duplicate id {rid!r}")
            seen_ids.add(rid)
        records.append(record)
    return ingest.LoadResult(records, quarantined)


def load_posts_by_loads(path, utc_offset: timedelta = timedelta(0)) -> ingest.LoadResult:
    def parse(obj: dict) -> ingest.RawPost:
        return ingest.RawPost(
            post_id=_string_field(obj, "post_id").strip(),
            blog_id=ingest.canonical_slug(_string_field(obj, "blog_id")),
            title=_string_field(obj, "title", allow_empty=True),
            body=_string_field(obj, "body", allow_empty=True),
            published_at=_timestamp(obj.get("published_at"), utc_offset),
        )

    return _load_jsonl_by_loads(path, parse, id_of=lambda p: p.post_id)


def load_comments_by_loads(path, known_post_ids: set[str],
                           utc_offset: timedelta = timedelta(0)) -> ingest.LoadResult:
    def parse(obj: dict) -> ingest.RawComment:
        post_id = _string_field(obj, "post_id").strip()
        if post_id not in known_post_ids:
            raise ValueError(f"unknown post_id {post_id!r}")
        commenter = obj.get("commenter_blog_id")
        if commenter is not None:
            commenter = ingest.canonical_slug(
                _string_field(obj, "commenter_blog_id", allow_empty=True)
            ) or None
        return ingest.RawComment(
            comment_id=_string_field(obj, "comment_id").strip(),
            post_id=post_id,
            commenter_blog_id=commenter,
            body=_string_field(obj, "body", allow_empty=True),
            created_at=_timestamp(obj.get("created_at"), utc_offset),
        )

    return _load_jsonl_by_loads(path, parse, id_of=lambda c: c.comment_id)


def load_blogroll_by_loads(path) -> ingest.LoadResult:
    def parse(obj: dict) -> ingest.BlogrollRecord:
        url = _string_field(obj, "target_url").strip()
        reason = blogroll_url_error(url)
        if reason is not None:
            raise ValueError(reason)
        return ingest.BlogrollRecord(
            owner_blog_id=ingest.canonical_slug(_string_field(obj, "owner_blog_id")),
            target_url=url,
        )

    return _load_jsonl_by_loads(path, parse)


def load_profiles_by_loads(path) -> ingest.LoadResult:
    def parse(obj: dict) -> ingest.ProfileRecord:
        age = obj.get("age")
        if age is not None and (isinstance(age, bool) or not isinstance(age, int)):
            raise ValueError("field 'age' must be an integer or null")
        if age is not None and not ingest.AGE_MIN <= age <= ingest.AGE_MAX:
            raise ValueError(f"age {age} outside [{ingest.AGE_MIN}, {ingest.AGE_MAX}]")
        return ingest.ProfileRecord(
            blog_id=ingest.canonical_slug(_string_field(obj, "blog_id")),
            age=age,
            gender=_enum_field(obj, "gender", ingest.GENDERS),
            education=_enum_field(obj, "education", ingest.EDUCATION_LEVELS),
            marital_status=_enum_field(obj, "marital_status", ingest.MARITAL_STATUSES),
        )

    return _load_jsonl_by_loads(path, parse, id_of=lambda p: p.blog_id)


class RowNumbers:
    """The converter of a ``rank`` column whose n-th row must hold rank n. It
    counts the rows it reads, so it runs once per row, in order."""

    def __init__(self) -> None:
        self._rows = count(1)

    def __call__(self, value: str) -> int:
        if (rank := cli._read_int(value)) != next(self._rows):
            raise ValueError(f"{value!r} is not its row's number")
        return rank


def read_artifact_csv_by_row(path, columns: dict, key_columns: int):
    """``cli._read_artifact_csv`` with each row read, converted and checked
    in turn, and a ``cli._row_number`` column read through a fresh
    ``RowNumbers``."""
    columns = {name: RowNumbers() if convert is cli._row_number else convert
               for name, convert in columns.items()}
    width = len(columns)
    converted = [(i, convert) for i, convert in enumerate(columns.values()) if convert is not str]
    key_converted = [(i, convert) for i, convert in converted if i < key_columns]
    value_converted = [(i, convert) for i, convert in converted if i >= key_columns]
    key_of = itemgetter(*range(key_columns))
    keys: set = set()
    csv.field_size_limit(2**31 - 1)
    reader = csv.reader(ingest.read_lines(path, newline=""))
    try:
        header = next(reader, None)
        if header != list(columns):
            raise cli.ArtifactError(f"unexpected CSV header in {path}: {header}")
        for row in reader:
            try:
                if len(row) != width:
                    raise ValueError(f"expected {width} columns, got {len(row)}")
                for i, convert in key_converted:
                    row[i] = convert(row[i])
                key = key_of(row)
                if key in keys:
                    raise ValueError(f"repeats an earlier row's {tuple(row[:key_columns])}")
                keys.add(key)
                for i, convert in value_converted:
                    row[i] = convert(row[i])
            except ValueError as err:
                raise cli.ArtifactError(f"{path}:{reader.line_num}: malformed row: {err}") from None
            yield row
    except csv.Error as err:
        raise cli.ArtifactError(f"{path}:{reader.line_num}: malformed row: {err}") from None


def format_timestamp_strftime(dt: datetime) -> str:
    """UTC, seconds precision, Z suffix through ``strftime``, which does not
    zero-pad years below 1000 on every platform."""
    return dt.astimezone(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


def write_jsonl_by_dumps(path: Path, rows) -> int:
    """JSONL with one ``json.dumps`` call (and encoder) per row."""
    n = 0
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for row in rows:
            fh.write(json.dumps(row, ensure_ascii=False, sort_keys=True))
            fh.write("\n")
            n += 1
    return n


def merge_layers_by_counter(layers, extra_nodes=()) -> graphbuild.LayeredGraph:
    """Layer merging through a Counter over (layer, src, dst), then sorted,
    with the arcs sorted from a set."""
    folded: Counter = Counter()
    for per_layer in layers:
        for src, dst, layer, weight in per_layer:
            folded[layer, src, dst] += weight
    edges = tuple(graphbuild.Edge(src, dst, layer, n)
                  for (layer, src, dst), n in sorted(folded.items()))
    arcs = sorted({(src, dst) for src, dst, _layer, _weight in edges})
    nodes = {v for arc in arcs for v in arc}
    nodes.update(extra_nodes)
    return graphbuild.LayeredGraph(nodes=tuple(sorted(nodes)), edges=edges, arcs=arcs)


def clustering_by_neighbour_sets(g: graphclean.SimpleDigraph, variant: str = "mean_local") -> float:
    """``graphclean.clustering_coefficient`` with each node's neighbour
    intersections taken from that node, so each edge's twice."""
    if g.n == 0:
        return 0.0
    nbrs = [set(out) for out in g.adj]
    for u, out in enumerate(g.adj):
        for v in out:
            nbrs[v].add(u)
    closed = 0.0
    triplets = 0.0
    local_sum = 0.0
    for v in range(g.n):
        k = len(nbrs[v])
        if k < 2:
            continue
        links_twice = sum(len(nbrs[v] & nbrs[u]) for u in nbrs[v])
        local_sum += links_twice / (k * (k - 1))
        closed += links_twice
        triplets += k * (k - 1)
    if variant == "mean_local":
        return local_sum / g.n
    return closed / triplets if triplets else 0.0


def adjacency_by_out_maps(labels, arcs) -> tuple[tuple[tuple[int, ...], ...], tuple[tuple, ...]]:
    """``graphclean.SimpleDigraph.from_arcs`` as per-node tuples: each node's
    out-neighbours in ascending order and their weights, summed in one dict
    per node. The labels and arcs must be valid."""
    index = {label: i for i, label in enumerate(labels)}
    out_maps: list[dict] = [{} for _ in labels]
    for src, dst, *weight in arcs:
        out, v = out_maps[index[src]], index[dst]
        out[v] = out.get(v, 0) + (weight[0] if weight else 1)
    adj, weights = [], []
    for out in out_maps:
        targets, arc_weights = zip(*sorted(out.items())) if out else ((), ())
        adj.append(targets)
        weights.append(arc_weights)
    return tuple(adj), tuple(weights)


def subgraph_by_out_lists(adj, weights, keep) -> tuple[tuple[tuple[int, ...], ...], tuple[tuple, ...]]:
    """``graphclean.SimpleDigraph.subgraph`` over the per-node tuples of
    ``adjacency_by_out_maps``: nodes reindexed in ascending order, and each
    kept node's surviving out-neighbours filtered with their weights."""
    kept = sorted(set(keep))
    remap = {old: new for new, old in enumerate(kept)}
    sub_adj, sub_weights = [], []
    for old in kept:
        out = adj[old]
        survives = [v in remap for v in out]
        sub_adj.append(tuple([remap[v] for v in compress(out, survives)]))
        sub_weights.append(tuple(compress(weights[old], survives)))
    return tuple(sub_adj), tuple(sub_weights)
