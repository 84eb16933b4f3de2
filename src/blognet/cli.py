"""blognet command line: run the pipeline stage by stage.

Each stage reads the previous stage's artifacts from the output directory,
writes its own artifacts plus a manifest.json (input hashes, effective
config, drop/quarantine counters), and nothing else. Two runs over the
same inputs and config produce byte-identical output trees; manifests
deliberately carry no timestamps.

Exit codes: 0 success, 1 configuration/stage-order problems, 2 data errors.

Every stage runs in its own process, so each ``cmd_<stage>`` imports its
track module when it runs: only ``prep`` and ``rank`` load numpy.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import sys
from dataclasses import asdict, replace
from itertools import islice
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Iterator

from . import __version__
from . import ingest as ingest_mod
from .config import (
    FLAG_TYPES, SECTIONS, ConfigError, PipelineConfig, config_snapshot, load_config,
)
from .ingest import DuplicateIdError, EmptyCorpusError, InputFileError

if TYPE_CHECKING:
    from .graphclean import SimpleDigraph
    from .profilestats import ActivityWindow

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_DATA = 2

REPORT_TOP_K = 10
LAYERS = ("blogroll", "comment", "citation")


class StageDependencyError(Exception):
    """A required upstream artifact is missing."""


class ArtifactError(ValueError):
    """An on-disk artifact is malformed."""


# --- small deterministic writers ---------------------------------------------

def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _write_json(path: Path, payload) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, ensure_ascii=False, sort_keys=True, indent=2)
        fh.write("\n")


def _write_csv(path: Path, header: list[str], rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _write_lines(path: Path, lines) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for line in lines:
            fh.write(f"{line}\n")


def _stage_dir(cfg: PipelineConfig, stage: str) -> Path:
    path = Path(cfg.out_dir) / stage
    path.mkdir(parents=True, exist_ok=True)
    return path


def _write_manifest(
    stage_dir: Path,
    stage: str,
    cfg: PipelineConfig,
    inputs: dict[str, Path],
    counts: dict,
    outputs: list[str],
) -> None:
    snapshot = config_snapshot(cfg)
    # the output location is where the tree lives, not part of what was
    # computed; omitting it keeps runs byte-comparable across directories
    snapshot.pop("output", None)
    manifest = {
        "stage": stage,
        "tool_version": __version__,
        "config": snapshot,
        "inputs": {name: _sha256(path) for name, path in sorted(inputs.items())},
        "counts": counts,
        "outputs": sorted(outputs),
    }
    _write_json(stage_dir / "manifest.json", manifest)


def _require_artifact(cfg: PipelineConfig, stage: str, name: str) -> Path:
    path = Path(cfg.out_dir) / stage / name
    if not path.exists():
        raise StageDependencyError(
            f"missing upstream artifact {path} (run 'blognet {stage}' first)"
        )
    return path


def _require_inputs(cfg: PipelineConfig, names: list[str]) -> dict[str, Path]:
    problems = [
        f"inputs.{name} is required for this stage" for name in names
        if getattr(cfg, name) is None
    ]
    if problems:
        raise ConfigError(problems)
    return {name: Path(getattr(cfg, name)) for name in names}


# --- stages -------------------------------------------------------------------

def cmd_ingest(cfg: PipelineConfig) -> dict:
    """Validate the four dump files into canonical, re-loadable artifacts."""
    inputs = _require_inputs(cfg, ["posts", "comments", "blogroll", "profiles"])
    offset = cfg.utc_offset

    posts = ingest_mod.load_posts(inputs["posts"], offset)
    loaded = {  # file name -> (load result, record serializer)
        "posts": (posts, ingest_mod.post_to_dict),
        "comments": (ingest_mod.load_comments(
            inputs["comments"], {p.post_id for p in posts.records}, offset
        ), ingest_mod.comment_to_dict),
        "blogroll": (ingest_mod.load_blogroll(inputs["blogroll"]), ingest_mod.blogroll_to_dict),
        "profiles": (ingest_mod.load_profiles(inputs["profiles"]), ingest_mod.profile_to_dict),
    }

    stage_dir = _stage_dir(cfg, "ingest")
    counts = {}
    quarantined = []
    for name, (result, to_dict) in loaded.items():
        ingest_mod.write_jsonl(stage_dir / f"{name}.jsonl", [to_dict(r) for r in result.records])
        counts[name] = {"accepted": len(result.records), "quarantined": len(result.quarantined)}
        quarantined += result.quarantined
    ingest_mod.write_jsonl(
        stage_dir / "quarantine.jsonl",
        [ingest_mod.quarantine_to_dict(q) for q in quarantined],
    )
    outputs = [f"{name}.jsonl" for name in (*loaded, "quarantine")]
    _write_manifest(stage_dir, "ingest", cfg, inputs, counts, outputs)
    return counts


def _load_ingested(cfg: PipelineConfig, names: list[str]) -> tuple[dict[str, Path], dict]:
    """Reload ingest artifacts through the ingest loaders. Ingest writes only
    lines its loaders accept, so a line they quarantine now was changed after
    ingest: it raises ArtifactError naming ``file:line``."""
    paths = {name: _require_artifact(cfg, "ingest", f"{name}.jsonl") for name in names}

    loaders = {"posts": ingest_mod.load_posts, "blogroll": ingest_mod.load_blogroll,
               "profiles": ingest_mod.load_profiles}
    loaded: dict[str, list] = {}
    for name, path in paths.items():
        if name == "comments":  # posts, when reloaded too, come first
            known = {p.post_id for p in loaded.get("posts", [])}
            result = ingest_mod.load_comments(path, known)
        else:
            result = loaders[name](path)
        if result.quarantined:
            first = result.quarantined[0]
            raise ArtifactError(f"{path}:{first.line}: {first.reason}")
        loaded[name] = result.records
    return paths, loaded


def cmd_prep(cfg: PipelineConfig) -> dict:
    """Text track: per-blog documents, vocabulary, TF-IDF vectors, similarity."""
    from . import textprep

    paths, loaded = _load_ingested(cfg, ["posts"])
    stopwords = (
        textprep.load_stopwords(cfg.stopwords) if cfg.stopwords
        else textprep.default_stopwords()
    )
    equivalences = (
        textprep.load_equivalences(cfg.equivalences) if cfg.equivalences else None
    )
    docs = textprep.blog_documents(
        loaded["posts"], stopwords, equivalences, cfg.unify_alef
    )
    vocab = textprep.build_vocabulary(
        docs, cfg.min_df, cfg.max_df_ratio, cfg.vocab_top_k
    )
    documents = len(docs)
    vectors = [
        textprep.vectorize_tfidf(d, vocab, documents, cfg.tfidf_variant) for d in docs
    ]
    # the token tuples and raw posts are the bulk of memory; free them
    # before the N x N similarity accumulator is allocated
    del docs, loaded
    matrix = textprep.similarity_matrix(vectors)

    stage_dir = _stage_dir(cfg, "prep")
    _write_csv(
        stage_dir / "vocabulary.csv",
        ["term", "df"],
        [(t, vocab.df[t]) for t in vocab.terms],
    )
    ingest_mod.write_jsonl(
        stage_dir / "vectors.jsonl",
        [
            {"blog_id": v.blog_id,
             "terms": [[i, v.weights[i]] for i in sorted(v.weights)]}
            for v in vectors
        ],
    )
    _write_csv(
        stage_dir / "similarity.csv",
        ["blog_id", *matrix.blog_ids],
        [
            [matrix.blog_ids[i], *(repr(x) for x in matrix.values[i])]
            for i in range(len(matrix.blog_ids))
        ],
    )

    counts = {
        "documents": documents,
        "vocabulary_terms": len(vocab.terms),
        "stopwords": len(stopwords),
    }
    outputs = ["vocabulary.csv", "vectors.jsonl", "similarity.csv"]
    _write_manifest(stage_dir, "prep", cfg, paths, counts, outputs)
    return counts


# the columns of build's edges_*.csv, with the converter each is read through
EDGE_COLUMNS = {"src": str, "dst": str, "layer": str, "weight": int}


def _edges_to_rows(edges) -> list[tuple[str, str, str, int]]:
    from .graphbuild import Layer

    value = {layer: layer.value for layer in Layer}  # ``.value`` is a descriptor call
    return [(e.src, e.dst, value[e.layer], e.weight) for e in edges]


def cmd_build(cfg: PipelineConfig) -> dict:
    """Structure track: extract the three edge layers, clean, and merge."""
    from . import graphbuild

    if not cfg.host_patterns:
        raise ConfigError(["graphbuild.host_patterns is required for the build stage"])
    paths, loaded = _load_ingested(cfg, ["posts", "comments", "blogroll", "profiles"])
    resolver = graphbuild.UrlResolver(cfg.host_patterns)
    try:
        # every blog id the extractors canonicalize is checked here first
        universe = graphbuild.blog_universe(
            loaded["posts"], loaded["comments"], loaded["blogroll"], loaded["profiles"]
        )
    except ValueError as err:
        raise ArtifactError(f"ingest artifacts in {paths['posts'].parent}: {err}") from None

    layers = {}
    counts: dict = {"universe_blogs": len(universe)}
    extracted = {
        "blogroll": graphbuild.extract_blogroll_edges(loaded["blogroll"], resolver),
        "comment": graphbuild.extract_comment_edges(
            loaded["comments"], loaded["posts"],
            toward_author=cfg.comment_direction == "commenter_to_author",
        ),
        "citation": graphbuild.extract_citation_edges(loaded["posts"], resolver),
    }
    # the records are the bulk of memory; free them before the merged graph
    # and its output rows are built
    del loaded
    for name, (edges, extract_counts) in extracted.items():
        extracted_weight = sum(e.weight for e in edges)
        edges, external_dropped = graphbuild.drop_external_links(edges, universe)
        after_external_weight = sum(e.weight for e in edges)
        edges, self_dropped = graphbuild.drop_self_loops(edges)
        kept_weight = sum(e.weight for e in edges)
        layers[name] = edges
        # edge counts track folded arcs; the *_weight_dropped counters keep
        # the record-level balance exact (records in = weight out + drops)
        counts[name] = {
            **extract_counts,
            "external_edges_dropped": external_dropped,
            "external_weight_dropped": extracted_weight - after_external_weight,
            "self_loops_dropped": self_dropped,
            "self_loop_weight_dropped": after_external_weight - kept_weight,
            "arcs": len(edges),
            "weight": kept_weight,
        }

    merged = graphbuild.merge_layers(list(layers.values()), extra_nodes=universe)
    collapsed = merged.collapsed_arcs()
    counts["merged"] = {
        "nodes": len(merged.nodes),
        "multigraph_edges": len(merged.edges),
        "collapsed_arcs": len(collapsed),
    }

    stage_dir = _stage_dir(cfg, "build")
    for name, edges in (*layers.items(), ("merged", merged.edges)):
        _write_csv(stage_dir / f"edges_{name}.csv", list(EDGE_COLUMNS), _edges_to_rows(edges))
    _write_lines(stage_dir / "nodes.txt", merged.nodes)
    (stage_dir / "graph.dot").write_text(graphbuild.to_dot(merged, collapsed), encoding="utf-8")

    outputs = [*(f"edges_{name}.csv" for name in (*layers, "merged")), "nodes.txt", "graph.dot"]
    _write_manifest(stage_dir, "build", cfg, paths, counts, outputs)
    return counts


def _read_artifact_text(path: Path) -> str:
    try:
        return path.read_text(encoding="utf-8")
    except UnicodeDecodeError as err:
        raise ingest_mod.not_utf8_error(path, err) from None


def _read_artifact_json(path: Path, shape: dict) -> dict:
    """A JSON artifact that must have ``shape`` (see ``_check_shape``);
    invalid JSON or another shape raises ArtifactError naming the file."""
    text = _read_artifact_text(path)
    try:
        payload = json.loads(text)
        _check_shape(payload, shape)
    except json.JSONDecodeError as err:
        raise ArtifactError(f"{path}: invalid JSON: {err}") from None
    except ValueError as err:
        raise ArtifactError(f"{path}: unexpected shape: {err}") from None
    return payload


def _check_shape(value: Any, shape: Any, where: str = "") -> None:
    """Raise ValueError unless ``value`` has ``shape``. A dict shape maps
    each required key to the shape of its value; any other shape is the type
    (or tuple of types) the value must be."""
    if isinstance(shape, dict):
        if not isinstance(value, dict):
            raise ValueError(f"{where[:-1] or 'top level'} is not an object")
        for key, sub in shape.items():
            if key not in value:
                raise ValueError(f"missing key {where}{key}")
            _check_shape(value[key], sub, f"{where}{key}.")
    elif not isinstance(value, shape):
        raise ValueError(f"{where[:-1]} is of the wrong type ({type(value).__name__})")


_NUMBER = (int, float)
_GRAPH_METRICS_SHAPE = {
    "nodes": int, "edges": int, "degree_avg": _NUMBER, "density": _NUMBER,
    "clustering_coefficient": _NUMBER, "scc_count": int,
}
# what the report reads of clean/metrics.json and stats/report.json
_METRICS_SHAPE = {
    "before": _GRAPH_METRICS_SHAPE, "after": _GRAPH_METRICS_SHAPE,
    "layers": dict.fromkeys(LAYERS, _GRAPH_METRICS_SHAPE),
    "isolated_removed": int, "isolated_mode": str, "min_component_size": int,
}
_STATS_SHAPE = {
    "blogger_count": int, "active_count": int, "post_count": int, "comment_count": int,
    "comments_per_post": {"mean": _NUMBER},
    "demographics": {"age_mean": (*_NUMBER, type(None))},
}


def _read_artifact_csv(
    path: Path, columns: dict[str, Callable[[str], Any]], key_columns: int = 0
) -> Iterator[list]:
    """Yield the rows of an artifact CSV whose header is ``columns``, each
    value passed through its column's converter (``str`` columns are left as
    read). A wrong header raises ArtifactError naming the file, and a byte
    that is not UTF-8 InputFileError; a wrong column count, a value its
    converter rejects with ValueError, or a row whose first ``key_columns``
    values repeat an earlier row's raises ArtifactError naming
    ``file:line``."""
    width = len(columns)
    converted = [(i, convert) for i, convert in enumerate(columns.values()) if convert is not str]
    keys: set[tuple] = set()
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header != list(columns):
                raise ArtifactError(f"unexpected CSV header in {path}: {header}")
            for row in reader:
                try:
                    if len(row) != width:
                        raise ValueError(f"expected {width} columns, got {len(row)}")
                    for i, convert in converted:
                        row[i] = convert(row[i])
                    if key_columns:
                        key = tuple(row[:key_columns])
                        if key in keys:
                            raise ValueError(f"repeats an earlier row's {key}")
                        keys.add(key)
                except ValueError as err:
                    raise ArtifactError(
                        f"{path}:{reader.line_num}: malformed row: {err}"
                    ) from None
                yield row
        except UnicodeDecodeError as err:
            raise ingest_mod.not_utf8_error(path, err) from None


def _digraph(labels: list[str], arcs: list[tuple], source: str) -> SimpleDigraph:
    """``SimpleDigraph.from_arcs`` over artifact data: a repeated label, a
    self-loop, an unknown endpoint or a weight that is not a finite number
    > 0 raises ArtifactError naming ``source``."""
    from . import graphclean

    try:
        return graphclean.SimpleDigraph.from_arcs(labels, arcs)
    except ValueError as err:
        raise ArtifactError(f"{source}: {err}") from None


def _read_merged_graph(nodes_path: Path, edges_path: Path) -> SimpleDigraph:
    labels = _read_artifact_text(nodes_path).splitlines()
    arcs = [(src, dst, weight) for src, dst, _layer, weight
            in _read_artifact_csv(edges_path, EDGE_COLUMNS)]
    return _digraph(labels, arcs, f"{edges_path} (nodes from {nodes_path.name})")


def _layer_metrics(path: Path, clustering_variant: str) -> dict:
    """Metrics for one edge layer viewed as its own graph over the blogs it
    touches (nodes = the layer's endpoints)."""
    from . import graphclean

    arcs = [(src, dst, weight) for src, dst, _layer, weight
            in _read_artifact_csv(path, EDGE_COLUMNS)]
    labels = sorted({v for src, dst, _weight in arcs for v in (src, dst)})
    graph = _digraph(labels, arcs, str(path))
    return asdict(graphclean.graph_metrics(graph, clustering_variant))


def cmd_clean(cfg: PipelineConfig) -> dict:
    """Prune the merged graph and compute before/after metrics."""
    from . import graphclean

    nodes_path = _require_artifact(cfg, "build", "nodes.txt")
    edges_path = _require_artifact(cfg, "build", "edges_merged.csv")
    layer_paths = {layer: _require_artifact(cfg, "build", f"edges_{layer}.csv")
                   for layer in LAYERS}
    graph = _read_merged_graph(nodes_path, edges_path)

    metrics_before = graphclean.graph_metrics(graph, cfg.clustering_variant)
    pruned, removed_labels = graphclean.remove_isolated(graph, cfg.isolated_strict)
    labeling = graphclean.strongly_connected_components(pruned)
    histogram = graphclean.scc_size_distribution(labeling)
    cleaned = graphclean.filter_components(pruned, labeling, cfg.min_component_size)
    metrics_after = graphclean.graph_metrics(cleaned, cfg.clustering_variant)

    labels = cleaned.labels
    cleaned_rows = [
        (labels[u], labels[v], weight)
        for u, (out, weights) in enumerate(zip(cleaned.adj, cleaned.weights))
        for v, weight in zip(out, weights)
    ]

    stage_dir = _stage_dir(cfg, "clean")
    _write_csv(stage_dir / "graph_cleaned.csv", ["src", "dst", "weight"], cleaned_rows)
    _write_lines(stage_dir / "nodes_kept.txt", cleaned.labels)
    _write_csv(
        stage_dir / "scc_histogram.csv",
        ["size", "count"],
        sorted(histogram.items()),
    )
    payload = {
        "before": asdict(metrics_before),
        "after": asdict(metrics_after),
        # each layer as its own network, so the merged and per-layer
        # readings can both be compared against outside figures
        "layers": {
            layer: _layer_metrics(path, cfg.clustering_variant)
            for layer, path in layer_paths.items()
        },
        "isolated_removed": len(removed_labels),
        "isolated_mode": "strict" if cfg.isolated_strict else "no_outlink",
        "min_component_size": cfg.min_component_size,
        "scc_count_after_isolated_removal": labeling.count,
        "clustering_variant": cfg.clustering_variant,
    }
    _write_json(stage_dir / "metrics.json", payload)

    counts = {
        "nodes_before": graph.n,
        "arcs_before": graph.arc_count,
        "isolated_removed": len(removed_labels),
        "nodes_after_isolated": pruned.n,
        "arcs_after_isolated": pruned.arc_count,
        "arcs_removed_with_isolated": graph.arc_count - pruned.arc_count,
        "scc_count": labeling.count,
        "nodes_dropped_by_filter": pruned.n - cleaned.n,
        "arcs_dropped_by_filter": pruned.arc_count - cleaned.arc_count,
        "nodes_after": cleaned.n,
        "arcs_after": cleaned.arc_count,
    }
    outputs = ["graph_cleaned.csv", "nodes_kept.txt", "scc_histogram.csv", "metrics.json"]
    inputs = {"nodes": nodes_path, "edges": edges_path,
              **{f"edges_{layer}": path for layer, path in layer_paths.items()}}
    _write_manifest(stage_dir, "clean", cfg, inputs, counts, outputs)
    return counts


def _read_cleaned_graph(cfg: PipelineConfig) -> tuple[SimpleDigraph, dict[str, Path]]:
    nodes_path = _require_artifact(cfg, "clean", "nodes_kept.txt")
    arcs_path = _require_artifact(cfg, "clean", "graph_cleaned.csv")
    labels = _read_artifact_text(nodes_path).splitlines()
    known = set(labels)

    def node(label: str) -> str:
        if label not in known:
            raise ValueError(f"node {label!r} is not in {nodes_path.name}")
        return label

    columns = {"src": node, "dst": node, "weight": float}
    # clean writes each arc once, so a repeat is tampering, not a parallel arc
    rows = _read_artifact_csv(arcs_path, columns, key_columns=2)
    graph = _digraph(labels, [tuple(row) for row in rows],
                     f"{arcs_path} (nodes from {nodes_path.name})")
    if not cfg.weighted_rank:  # the weights were checked all the same
        graph = replace(graph, weights=tuple((1,) * len(out) for out in graph.adj))
    return graph, {"nodes": nodes_path, "arcs": arcs_path}


def _write_ranking_csv(stage_dir: Path, name: str, scores, labels, top_k) -> None:
    """``scores`` as ``<name>.csv``; None writes the header alone."""
    from . import ranking

    rows = [] if scores is None else [
        (blog_id, repr(score), rank)
        for blog_id, score, rank in ranking.ranked_rows(scores, labels, top_k)
    ]
    _write_csv(stage_dir / f"{name}.csv", ["blog_id", "score", "rank"], rows)


def cmd_rank(cfg: PipelineConfig) -> dict:
    """Popularity measures on the cleaned graph."""
    from . import ranking

    graph, paths = _read_cleaned_graph(cfg)
    pr = ranking.pagerank(graph, cfg.damping, cfg.tol, cfg.max_iter, cfg.dangling_policy)
    counts = {
        "nodes": graph.n,
        "arcs": graph.arc_count,
        "weighted": cfg.weighted_rank,
        "pagerank": {"iterations": pr.iterations_used, "converged": pr.converged},
    }
    if graph.arc_count:
        hub, authority = ranking.hits(graph, cfg.max_iter, cfg.tol, cfg.hits_norm)
        counts["hits"] = {"iterations": hub.iterations_used, "converged": hub.converged}
    else:
        # HITS is undefined without arcs; keep the artifact set stable
        hub = authority = None
        counts["hits"] = {"skipped": "graph has no arcs"}

    stage_dir = _stage_dir(cfg, "rank")
    rankings = {"indegree": ranking.indegree_rank(graph), "pagerank": pr,
                "hub": hub, "authority": authority}
    for name, scores in rankings.items():
        _write_ranking_csv(stage_dir, name, scores, graph.labels, cfg.rank_top_k)
    _write_manifest(stage_dir, "rank", cfg, paths, counts, [f"{n}.csv" for n in rankings])
    return counts


def _stats_window(cfg: PipelineConfig, posts) -> ActivityWindow | None:
    from . import profilestats

    if (cfg.window_start is None) != (cfg.window_end is None):
        raise ConfigError(
            ["profilestats.window_start and window_end must be set together"]
        )
    if cfg.window_start is not None:
        # windows without an explicit offset use the dump's local convention
        return profilestats.ActivityWindow(
            start=ingest_mod.parse_timestamp(cfg.window_start, cfg.utc_offset),
            end=ingest_mod.parse_timestamp(cfg.window_end, cfg.utc_offset),
            min_posts=cfg.min_posts,
            require_monthly=cfg.require_monthly,
        )
    if not posts:
        return None
    return profilestats.dataset_window(posts, cfg.min_posts, cfg.require_monthly)


def cmd_stats(cfg: PipelineConfig) -> dict:
    """Profile track: activity, temporal, demographic, and comment statistics."""
    from . import profilestats

    paths, loaded = _load_ingested(cfg, ["posts", "comments", "profiles"])
    window = _stats_window(cfg, loaded["posts"])
    report = profilestats.build_stats_report(
        loaded["posts"], loaded["comments"], loaded["profiles"],
        window, cfg.utc_offset, cfg.comment_threshold,
    )

    demo = report.demographics
    payload = {
        "blogger_count": report.blogger_count,
        "active_count": report.active_count,
        "post_count": report.post_count,
        "comment_count": report.comment_count,
        "window": None if window is None else {
            "start": ingest_mod.format_timestamp(window.start),
            "end": ingest_mod.format_timestamp(window.end),
            "min_posts": window.min_posts,
            "require_monthly": window.require_monthly,
        },
        "demographics": {
            **vars(demo), "age_histogram": {str(k): v for k, v in demo.age_histogram.items()},
        },
        "posts_by_hour": list(report.posts_by_hour),
        "posts_by_month": report.posts_by_month,
        # raw percentages; no baseline convention is imposed on month peaks
        "posts_by_month_pct": {
            month: 100.0 * count / report.post_count
            for month, count in report.posts_by_month.items()
        } if report.post_count else {},
        "comments_per_post": {
            "mean": report.comments.mean,
            "matched_comments": report.comments.matched_comments,
            "threshold": report.comments.threshold,
            "over_threshold_posts": report.comments.over_threshold,
            "histogram": {str(k): v for k, v in report.comments.histogram.items()},
        },
    }

    stage_dir = _stage_dir(cfg, "stats")
    _write_json(stage_dir / "report.json", payload)
    _write_csv(stage_dir / "posts_by_hour.csv", ["hour", "count"],
               list(enumerate(report.posts_by_hour)))
    _write_csv(stage_dir / "posts_by_month.csv", ["month", "count"],
               sorted(report.posts_by_month.items()))
    _write_csv(stage_dir / "comments_per_post.csv", ["comments", "posts"],
               sorted(report.comments.histogram.items()))
    _write_csv(stage_dir / "age_histogram.csv", ["age_bin_start", "count"],
               sorted(demo.age_histogram.items()))

    counts = {
        "posts": report.post_count,
        "comments": report.comment_count,
        "profiles": demo.profile_count,
        "active_bloggers": report.active_count,
    }
    outputs = ["report.json", "posts_by_hour.csv", "posts_by_month.csv",
               "comments_per_post.csv", "age_histogram.csv"]
    _write_manifest(stage_dir, "stats", cfg, paths, counts, outputs)
    return counts


def _read_ranking_csv(path: Path, top_k: int) -> list[dict]:
    columns = {"blog_id": str, "score": float, "rank": int}
    rows = _read_artifact_csv(path, columns)
    return [dict(zip(columns, row)) for row in islice(rows, top_k)]


def cmd_report(cfg: PipelineConfig) -> dict:
    """Combine metrics, rankings, and statistics into the final report."""
    metrics_path = _require_artifact(cfg, "clean", "metrics.json")
    histogram_path = _require_artifact(cfg, "clean", "scc_histogram.csv")
    stats_path = _require_artifact(cfg, "stats", "report.json")
    rank_paths = {
        kind: _require_artifact(cfg, "rank", f"{kind}.csv")
        for kind in ("indegree", "pagerank", "hub", "authority")
    }

    metrics = _read_artifact_json(metrics_path, _METRICS_SHAPE)
    stats = _read_artifact_json(stats_path, _STATS_SHAPE)
    histogram = dict(_read_artifact_csv(histogram_path, {"size": int, "count": int},
                                        key_columns=1))
    rankings = {
        kind: _read_ranking_csv(path, REPORT_TOP_K)
        for kind, path in sorted(rank_paths.items())
    }

    payload = {
        "network": metrics,
        "scc_histogram": {str(k): v for k, v in sorted(histogram.items())},
        "rankings": rankings,
        "statistics": stats,
    }
    stage_dir = _stage_dir(cfg, "report")
    _write_json(stage_dir / "report.json", payload)
    (stage_dir / "report.txt").write_text(
        _render_report_text(metrics, histogram, rankings, stats), encoding="utf-8"
    )

    counts = {"ranking_rows": {k: len(v) for k, v in rankings.items()}}
    inputs = {"metrics": metrics_path, "scc_histogram": histogram_path,
              "stats": stats_path, **rank_paths}
    _write_manifest(stage_dir, "report", cfg, inputs, counts,
                    ["report.json", "report.txt"])
    return counts


def _render_report_text(metrics, histogram, rankings, stats) -> str:
    lines = []
    lines.append("blog network report")
    lines.append("=" * 66)
    lines.append("")
    lines.append("network (before vs after preprocessing)")
    header = f"{'':22s}{'nodes':>8s}{'arcs':>9s}{'deg avg':>10s}{'density':>11s}{'clustering':>12s}{'sccs':>7s}"
    lines.append(header)
    def metric_row(label: str, m: dict) -> str:
        return (
            f"{label:22s}{m['nodes']:>8d}{m['edges']:>9d}"
            f"{m['degree_avg']:>10.4f}{m['density']:>11.6f}"
            f"{m['clustering_coefficient']:>12.6f}{m['scc_count']:>7d}"
        )

    lines.append(metric_row("primary", metrics["before"]))
    lines.append(metric_row("preprocessed", metrics["after"]))
    for layer in sorted(LAYERS):
        lines.append(metric_row(f"{layer} layer", metrics["layers"][layer]))
    lines.append("")
    lines.append(f"isolated nodes removed: {metrics['isolated_removed']} "
                 f"(mode: {metrics['isolated_mode']})")
    lines.append(f"component size filter: >= {metrics['min_component_size']} nodes")
    lines.append("")
    lines.append("component size distribution (size: count)")
    lines.append("  " + ", ".join(f"{k}: {v}" for k, v in sorted(histogram.items())))
    lines.append("")
    for kind in ("indegree", "pagerank", "hub", "authority"):
        lines.append(f"top blogs by {kind}")
        rows = rankings.get(kind, [])
        if not rows:
            lines.append("  (none)")
        for row in rows:
            lines.append(f"  {row['rank']:>3d}. {row['blog_id']:<28s} {row['score']:.8f}")
        lines.append("")
    lines.append("statistics")
    lines.append(f"  bloggers: {stats['blogger_count']} (active: {stats['active_count']})")
    lines.append(f"  posts: {stats['post_count']}, comments: {stats['comment_count']}")
    mean = stats["comments_per_post"]["mean"]
    lines.append(f"  comments per post: {mean:.4f}")
    age_mean = stats["demographics"]["age_mean"]
    if age_mean is not None:
        lines.append(f"  mean blogger age: {age_mean:.1f}")
    lines.append("")
    return "\n".join(lines)


# --- argument parsing ----------------------------------------------------------

STAGE_FUNCS = {
    "ingest": cmd_ingest,
    "prep": cmd_prep,
    "build": cmd_build,
    "clean": cmd_clean,
    "rank": cmd_rank,
    "stats": cmd_stats,
    "report": cmd_report,
}

_STAGE_HELP = {
    "ingest": "validate raw dumps into canonical records",
    "prep": "text track: vocabulary, TF-IDF vectors, similarity matrix",
    "build": "structure track: extract and merge link layers",
    "clean": "prune graph, components, before/after metrics",
    "rank": "in-degree, PageRank, and HITS rankings",
    "stats": "profile track: activity, temporal, demographic statistics",
    "report": "combine everything into the final report",
}


def _add_override_flags(parser: argparse.ArgumentParser) -> list[str]:
    field_names = []
    for section, keys in SECTIONS.items():
        for key, field_name in keys.items():
            parser.add_argument(
                f"--{key.replace('_', '-')}",
                dest=field_name,
                type=FLAG_TYPES[field_name],
                default=None,
                help=f"override {section}.{key}",
            )
            field_names.append(field_name)
    return field_names


def build_parser() -> tuple[argparse.ArgumentParser, list[str]]:
    parser = argparse.ArgumentParser(
        prog="blognet",
        description="Blog-network preprocessing pipeline: content similarity, "
                    "link-graph cleaning, rankings, and profile statistics.",
    )
    parser.add_argument("--version", action="version", version=f"blognet {__version__}")
    subparsers = parser.add_subparsers(dest="command", required=True)
    field_names: list[str] = []
    for stage, help_text in _STAGE_HELP.items():
        sub = subparsers.add_parser(stage, help=help_text)
        sub.add_argument("--config", default=None, help="path to the JSON config file")
        field_names = _add_override_flags(sub)
    return parser, field_names


def main(argv=None) -> int:
    parser, field_names = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exit_err:
        # argparse exits with 2 on usage errors; fold that into the
        # validation exit code and keep 0 for --help/--version
        return EXIT_OK if exit_err.code == 0 else EXIT_VALIDATION

    try:
        cfg = load_config(args.config, {name: getattr(args, name) for name in field_names})
        counts = STAGE_FUNCS[args.command](cfg)
    except ConfigError as err:
        for problem in err.problems:
            print(f"config error: {problem}", file=sys.stderr)
        return EXIT_VALIDATION
    except StageDependencyError as err:
        print(f"stage error: {err}", file=sys.stderr)
        return EXIT_VALIDATION
    except (DuplicateIdError, FileNotFoundError, EmptyCorpusError, InputFileError,
            ArtifactError) as err:
        print(f"data error: {err}", file=sys.stderr)
        return EXIT_DATA

    print(f"stage {args.command} complete -> {Path(cfg.out_dir) / args.command}")
    for key, value in counts.items():
        print(f"  {key}: {value}")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
