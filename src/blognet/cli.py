"""blognet command line: run the pipeline stage by stage.

Each stage reads the previous stage's artifacts from the output directory,
writes its own artifacts plus a manifest.json (input hashes, effective
config, drop/quarantine counters, output names and hashes), and nothing
else. A stage names each dump file or upstream artifact it reads, and each
file it writes, through its ``Stage`` record, so the manifest lists exactly
those.
Two runs over the same inputs and config produce byte-identical output
trees; manifests deliberately carry no timestamps.

Exit codes: 0 success, 1 configuration/stage-order problems, 2 data errors.

Every stage runs in its own process, so each ``cmd_<stage>`` imports its
track module when it runs: only ``prep`` and ``rank`` load numpy.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import sys
from dataclasses import dataclass, field, replace
from itertools import count, zip_longest
from operator import itemgetter
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Iterator

from . import __version__
from . import ingest as ingest_mod
from .config import (
    FLAG_TYPES, SECTIONS, ConfigError, PipelineConfig, config_snapshot, load_config,
)
from .ingest import ArtifactError, DuplicateIdError, EmptyCorpusError, InputFileError

if TYPE_CHECKING:
    from .graphclean import SimpleDigraph
    from .profilestats import ActivityWindow

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_DATA = 2

REPORT_TOP_K = 10
LAYERS = ("blogroll", "comment", "citation")
RANKINGS = ("indegree", "pagerank", "hub", "authority")


def _checked(convert: Callable[[str], Any], holds: Callable[[Any], bool],
             rule: str) -> Callable[[str], Any]:
    """A column converter: ``convert``, then a ValueError saying the value is
    not ``rule`` unless ``holds`` is true of what it converted to."""
    def read(value: str):
        if not holds(converted := convert(value)):
            raise ValueError(f"{value!r} is not {rule}")
        return converted
    return read


# the columns of build's edges_*.csv, in ``graphbuild.Edge`` field order (build
# writes its edges as rows), with the converter each is read through
EDGE_COLUMNS = {"src": str, "dst": str, "layer": str, "weight": int}
# ``report`` reads each ``rank`` as its row's number (see ``_row_numbers``)
RANKING_COLUMNS = {"blog_id": str, "score": _checked(float, math.isfinite, "finite"),
                   "rank": int}
_AT_LEAST_1 = _checked(int, lambda n: n >= 1, "at least 1")
# Each CSV artifact a later stage reads back: (stage, file name) -> (its
# columns in order, each with the converter it is read through; how many
# leading columns key a row). Each stage writes a key once, so a repeated
# key is a data error. ``Stage.write_csv`` writes the header and
# ``Stage.read_csv`` reads the rows from this one declaration.
CSV_ARTIFACTS: dict[tuple[str, str], tuple[dict[str, Callable[[str], Any]], int]] = {
    **{("build", f"edges_{name}.csv"): (EDGE_COLUMNS, 3) for name in (*LAYERS, "merged")},
    ("clean", "graph_cleaned.csv"): ({"src": str, "dst": str, "weight": float}, 2),
    ("clean", "scc_histogram.csv"): ({"size": _AT_LEAST_1, "count": _AT_LEAST_1}, 1),
    **{("rank", f"{kind}.csv"): (RANKING_COLUMNS, 1) for kind in RANKINGS},
}


class StageDependencyError(Exception):
    """A required upstream artifact is missing."""


# --- small deterministic writers ---------------------------------------------

def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _write_json(path: Path, payload) -> None:
    text = json.dumps(payload, ensure_ascii=False, sort_keys=True, indent=2)
    ingest_mod.write_lines(path, [text])


@dataclass
class Stage:
    """One run of stage ``name``. The stage names each file it reads through
    ``require_inputs``, ``require`` or ``read_csv`` and each file it writes
    through ``output`` or ``write_csv``; its manifest lists what was recorded."""

    cfg: PipelineConfig
    name: str
    inputs: dict[str, Path] = field(default_factory=dict)  # manifest key -> file read
    outputs: list[str] = field(default_factory=list)  # file names written
    digests: dict[Path, str] = field(default_factory=dict)  # file read -> its sha256

    @property
    def dir(self) -> Path:
        return Path(self.cfg.out_dir) / self.name

    def require_inputs(self, names: list[str]) -> dict[str, Path]:
        """The input files the settings ``names`` name; every unset one is a
        ConfigError."""
        problems = [
            f"inputs.{name} is required for this stage" for name in names
            if getattr(self.cfg, name) is None
        ]
        if problems:
            raise ConfigError(problems)
        paths = {name: Path(getattr(self.cfg, name)) for name in names}
        self.inputs.update(paths)
        return paths

    def require(self, stage: str, name: str, key: str | None = None) -> Path:
        """Upstream artifact ``name`` of ``stage``, recorded under ``key``
        (default: the file's stem); a missing one raises
        StageDependencyError."""
        path = Path(self.cfg.out_dir) / stage / name
        if not path.exists():
            raise StageDependencyError(
                f"missing upstream artifact {path} (run 'blognet {stage}' first)"
            )
        self.inputs[key or path.stem] = path
        return path

    def sha256(self, path: Path) -> str:
        """The digest of ``path``, a file the stage reads; hashed once."""
        if path not in self.digests:
            self.digests[path] = _sha256(path)
        return self.digests[path]

    def output(self, name: str) -> Path:
        """Where to write artifact ``name``; the stage directory is made on
        first use, so a stage that fails before writing leaves none."""
        try:
            self.dir.mkdir(parents=True, exist_ok=True)
        except OSError as err:  # such as a file where a directory must be
            raise ConfigError([f"output.out_dir {self.cfg.out_dir}: {err.strerror}"]) from None
        self.outputs.append(name)
        return self.dir / name

    def write_csv(self, name: str, rows, header: list[str] | None = None) -> None:
        """Write CSV artifact ``name``: its header, which is the
        ``CSV_ARTIFACTS`` columns for a file a later stage reads back, then
        ``rows``."""
        with open(self.output(name), "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(header or CSV_ARTIFACTS[self.name, name][0])
            writer.writerows(rows)

    def read_csv(self, stage: str, name: str, key: str | None = None,
                 **overrides: Callable[[str], Any]) -> Iterator[list]:
        """The rows of upstream CSV artifact ``name`` of ``stage`` (see
        ``_read_artifact_csv``), read through its ``CSV_ARTIFACTS`` columns
        with ``overrides`` replacing the converters of the columns they name.
        The file is required now, as by ``require``, and read as the rows are
        iterated, so a stage requires every input before it reads any."""
        columns, key_columns = CSV_ARTIFACTS[stage, name]
        path = self.require(stage, name, key)
        return _read_artifact_csv(path, {**columns, **overrides}, key_columns)

    def write_manifest(self, counts: dict) -> None:
        snapshot = config_snapshot(self.cfg)
        # the output location is where the tree lives, not part of what was
        # computed; omitting it keeps runs byte-comparable across directories
        snapshot.pop("output", None)
        manifest = {
            "stage": self.name,
            "tool_version": __version__,
            "config": snapshot,
            "inputs": {key: self.sha256(path) for key, path in self.inputs.items()},
            "counts": counts,
            "outputs": sorted(self.outputs),
            "output_sha256": {name: _sha256(self.dir / name) for name in self.outputs},
        }
        _write_json(self.dir / "manifest.json", manifest)


# --- stages -------------------------------------------------------------------

def cmd_ingest(stage: Stage) -> dict:
    """Validate the four dump files into canonical, re-loadable artifacts."""
    inputs = stage.require_inputs(["posts", "comments", "blogroll", "profiles"])
    offset = stage.cfg.utc_offset

    posts = ingest_mod.load_posts(inputs["posts"], offset)
    loaded = {  # file name -> (load result, record serializer)
        "posts": (posts, ingest_mod.post_to_dict),
        "comments": (ingest_mod.load_comments(
            inputs["comments"], {p.post_id for p in posts.records}, offset
        ), ingest_mod.comment_to_dict),
        "blogroll": (ingest_mod.load_blogroll(inputs["blogroll"]), ingest_mod.blogroll_to_dict),
        "profiles": (ingest_mod.load_profiles(inputs["profiles"]), ingest_mod.profile_to_dict),
    }

    counts = {}
    quarantined = []
    for name, (result, to_dict) in loaded.items():
        ingest_mod.write_jsonl(stage.output(f"{name}.jsonl"), [to_dict(r) for r in result.records])
        counts[name] = {"accepted": len(result.records), "quarantined": len(result.quarantined)}
        quarantined += result.quarantined
    ingest_mod.write_jsonl(
        stage.output("quarantine.jsonl"),
        [ingest_mod.quarantine_to_dict(q) for q in quarantined],
    )
    return counts


def _ingest_digests(stage: Stage) -> dict:
    """File name -> sha256 of each file ingest wrote, from its manifest; empty
    when the manifest is missing, malformed or holds no ``output_sha256``."""
    try:
        manifest = ingest_mod.decode_json(
            ingest_mod.read_text(Path(stage.cfg.out_dir) / "ingest/manifest.json", "utf-8"))
        digests = manifest["output_sha256"]
    except (OSError, ValueError, KeyError, TypeError):
        return {}
    return digests if isinstance(digests, dict) else {}


def _load_ingested(stage: Stage, names: list[str]) -> dict[str, list]:
    """Reload ingest artifacts through the ingest loaders. An artifact whose
    digest is the one ingest recorded is read on the loaders' trusted path.
    Any other is validated again: ingest writes only lines its loaders
    accept, so a line they quarantine now was changed after ingest. Either
    way a bad line raises ArtifactError naming ``file:line``."""
    paths = {name: stage.require("ingest", f"{name}.jsonl") for name in names}
    written = _ingest_digests(stage)

    loaded: dict[str, list] = {}
    for name, path in paths.items():
        trusted = written.get(path.name) == stage.sha256(path)
        # comments also take the post ids; posts, when reloaded too, come first
        known = [{p.post_id for p in loaded.get("posts", [])}] if name == "comments" else []
        result = getattr(ingest_mod, f"load_{name}")(path, *known, trusted=trusted)
        if result.quarantined:
            first = result.quarantined[0]
            raise ArtifactError(f"{path}:{first.line}: {first.reason}")
        loaded[name] = result.records
    return loaded


def cmd_prep(stage: Stage) -> dict:
    """Text track: per-blog documents, vocabulary, TF-IDF vectors, similarity."""
    from . import textprep

    cfg = stage.cfg
    loaded = _load_ingested(stage, ["posts"])
    files = stage.require_inputs(
        [n for n in ("stopwords", "equivalences") if getattr(cfg, n) is not None]
    )
    equivalences = (
        textprep.load_equivalences(files["equivalences"], cfg.unify_alef)
        if "equivalences" in files else None
    )
    stopwords = (
        textprep.load_stopwords(files["stopwords"], equivalences, cfg.unify_alef)
        if "stopwords" in files else textprep.default_stopwords(equivalences, cfg.unify_alef)
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

    stage.write_csv("vocabulary.csv", ((t, vocab.df[t]) for t in vocab.terms), ["term", "df"])
    ingest_mod.write_jsonl(
        stage.output("vectors.jsonl"),
        [{"blog_id": v.blog_id, "terms": sorted(v.weights.items())} for v in vectors],
    )
    stage.write_csv(
        "similarity.csv",
        ([blog_id, *row] for blog_id, row in zip(matrix.blog_ids, matrix.values)),
        ["blog_id", *matrix.blog_ids],
    )

    return {
        "documents": documents,
        "vocabulary_terms": len(vocab.terms),
        "stopwords": len(stopwords),
    }


def cmd_build(stage: Stage) -> dict:
    """Structure track: extract the three edge layers, clean, and merge."""
    from . import graphbuild

    cfg = stage.cfg
    if not cfg.host_patterns:
        raise ConfigError(["graphbuild.host_patterns is required for the build stage"])
    loaded = _load_ingested(stage, ["posts", "comments", "blogroll", "profiles"])
    resolver = graphbuild.UrlResolver(cfg.host_patterns)
    try:
        # every blog id the extractors canonicalize is checked here first
        universe = graphbuild.blog_universe(
            loaded["posts"], loaded["comments"], loaded["blogroll"], loaded["profiles"]
        )
    except ValueError as err:
        raise ArtifactError(f"ingest artifacts in {stage.inputs['posts'].parent}: {err}") from None

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
    counts["merged"] = {
        "nodes": len(merged.nodes),
        "multigraph_edges": len(merged.edges),
        "collapsed_arcs": len(merged.arcs),
    }

    for name, edges in (*layers.items(), ("merged", merged.edges)):
        stage.write_csv(f"edges_{name}.csv", edges)
    ingest_mod.write_lines(stage.output("nodes.txt"), merged.nodes)
    ingest_mod.write_lines(stage.output("graph.dot"),
                           [graphbuild.to_dot(merged).removesuffix("\n")])
    return counts


def _read_artifact_json(path: Path, shape: dict) -> dict:
    """A JSON artifact that must have ``shape`` (see ``_check_shape``);
    invalid JSON or another shape raises ArtifactError naming the file."""
    text = ingest_mod.read_text(path, "utf-8")
    try:
        payload = ingest_mod.decode_json(text)
        _check_shape(payload, shape)
    except json.JSONDecodeError as err:
        raise ArtifactError(f"{path}: invalid JSON: {err}") from None
    except ValueError as err:
        raise ArtifactError(f"{path}: unexpected shape: {err}") from None
    return payload


def _check_shape(value: Any, shape: Any, where: str = "") -> None:
    """Raise ValueError unless ``value`` has ``shape``. A dict shape maps
    each required key to the shape of its value; any other shape is a
    converter (see ``_checked``) that rejects a wrong value with ValueError."""
    if isinstance(shape, dict):
        if not isinstance(value, dict):
            raise ValueError(f"{where[:-1] or 'top level'} is not an object")
        for key, sub in shape.items():
            if key not in value:
                raise ValueError(f"missing key {where}{key}")
            _check_shape(value[key], sub, f"{where}{key}.")
    else:
        try:
            shape(value)
        except ValueError as err:
            raise ValueError(f"{where[:-1]}: {err}") from None


def _json_value(holds: Callable[[Any], bool], rule: str) -> Callable[[Any], Any]:
    """The converter of a JSON value of which ``holds`` must be true."""
    return _checked(lambda value: value, holds, rule)


# a JSON true or false is no number, and a number past the float range is
# not finite (comparisons keep a huge integer from overflowing)
_COUNT = _json_value(lambda n: type(n) is int and n >= 0, "an integer >= 0")
_REAL = _json_value(lambda x: type(x) in (int, float) and 0 <= x <= sys.float_info.max,
                    "a finite number >= 0")
_GRAPH_METRICS_SHAPE = {
    "nodes": _COUNT, "edges": _COUNT, "degree_avg": _REAL, "density": _REAL,
    "clustering_coefficient": _REAL, "scc_count": _COUNT,
}
# what the report reads of clean/metrics.json and stats/report.json
_METRICS_SHAPE = {
    "before": _GRAPH_METRICS_SHAPE, "after": _GRAPH_METRICS_SHAPE,
    "layers": dict.fromkeys(LAYERS, _GRAPH_METRICS_SHAPE), "isolated_removed": _COUNT,
    "isolated_mode": _json_value(("strict", "no_outlink").__contains__, "strict or no_outlink"),
    "min_component_size": _json_value(lambda n: type(n) is int and n >= 1, "an integer >= 1"),
}
_STATS_SHAPE = {
    **dict.fromkeys(("blogger_count", "active_count", "post_count", "comment_count"), _COUNT),
    "comments_per_post": {"mean": _REAL},
    "demographics": {"age_mean": _json_value(
        lambda x: x is None or type(x) in (int, float) and abs(x) <= sys.float_info.max,
        "null or a finite number")},
}


def _read_artifact_csv(
    path: Path, columns: dict[str, Callable[[str], Any]], key_columns: int
) -> Iterator[list]:
    """Yield the rows of an artifact CSV whose header is ``columns``, each
    value passed through its column's converter (``str`` columns are left as
    read). A wrong header raises ArtifactError naming the file, and a byte
    that is not UTF-8 InputFileError; a wrong column count, a value its
    converter rejects with ValueError, or a row whose first ``key_columns``
    (at least one) values repeat an earlier row's raises ArtifactError naming
    ``file:line``. The key is checked before the other values are converted,
    so a repeated row is named as one."""
    width = len(columns)
    converted = [(i, convert) for i, convert in enumerate(columns.values()) if convert is not str]
    key_converted = [(i, convert) for i, convert in converted if i < key_columns]
    value_converted = [(i, convert) for i, convert in converted if i >= key_columns]
    key_of = itemgetter(*range(key_columns))
    keys: set = set()
    reader = csv.reader(ingest_mod.read_lines(path, newline=""))
    header = next(reader, None)
    if header != list(columns):
        raise ArtifactError(f"unexpected CSV header in {path}: {header}")
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
            raise ArtifactError(f"{path}:{reader.line_num}: malformed row: {err}") from None
        yield row


def _digraph(labels: list[str], arcs: list[tuple], source: str) -> SimpleDigraph:
    """``SimpleDigraph.from_arcs`` over artifact data: a repeated label, a
    self-loop, an unknown endpoint or a weight that is not a finite number
    > 0 raises ArtifactError naming ``source``."""
    from . import graphclean

    try:
        return graphclean.SimpleDigraph.from_arcs(labels, arcs)
    except ValueError as err:
        raise ArtifactError(f"{source}: {err}") from None


def _read_edges(stage: Stage, name: str, layers: tuple[str, ...],
                key: str | None = None) -> Iterator[list]:
    """The (src, dst, layer, weight) rows of build's ``name``, which may
    carry only ``layers``; another layer raises ArtifactError naming
    ``file:line``. Required now, read as iterated (see ``Stage.read_csv``)."""
    return stage.read_csv("build", name, key,
                          layer=_checked(str, layers.__contains__, f"one of: {', '.join(layers)}"))


def _layer_metrics(rows, merged_arcs: list, source: str, clustering_variant: str) -> dict:
    """Metrics for one edge layer viewed as its own graph over the blogs it
    touches (nodes = the layer's endpoints). Its file must hold the layer's
    rows of the merged file, whose arcs are ``merged_arcs``, in their order;
    the first difference raises ArtifactError naming ``file:line``."""
    from . import graphclean

    arcs = [(src, dst, weight) for src, dst, _layer, weight in rows]
    labels = sorted({v for src, dst, _weight in arcs for v in (src, dst)})
    graph = _digraph(labels, arcs, source)
    # Each row's layer is this file's (checked as read), so equal arcs are
    # equal rows. A merged row holds no line break (its endpoints are lines
    # of nodes.txt), so each row before the first difference is one line.
    first = next((i for i, (arc, merged) in enumerate(zip_longest(arcs, merged_arcs))
                  if arc != merged), None)
    if first is not None:
        raise ArtifactError(f"{source}:{first + 2}: differs from this layer's rows "
                            "in edges_merged.csv")
    return graphclean.graph_metrics(graph, clustering_variant)._asdict()


def cmd_clean(stage: Stage) -> dict:
    """Prune the merged graph and compute before/after metrics."""
    from . import graphclean

    cfg = stage.cfg
    nodes_path = stage.require("build", "nodes.txt")
    merged_rows = _read_edges(stage, "edges_merged.csv", LAYERS, "edges")
    layer_rows = {layer: _read_edges(stage, f"edges_{layer}.csv", (layer,)) for layer in LAYERS}
    nodes = ingest_mod.read_text(nodes_path, "utf-8").splitlines()
    arcs, merged_arcs = [], {layer: [] for layer in LAYERS}
    for src, dst, layer, weight in merged_rows:  # in file order, and by layer
        arcs.append((src, dst, weight))
        merged_arcs[layer].append(arcs[-1])
    graph = _digraph(nodes, arcs, f"{stage.inputs['edges']} (nodes from {nodes_path.name})")
    # each layer as its own network, so the merged and per-layer readings
    # can both be compared against outside figures
    layer_metrics = {
        layer: _layer_metrics(rows, merged_arcs[layer], str(stage.inputs[f"edges_{layer}"]),
                              cfg.clustering_variant)
        for layer, rows in layer_rows.items()
    }
    del arcs, merged_arcs  # checked; free them before the merged graph's metrics

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

    stage.write_csv("graph_cleaned.csv", cleaned_rows)
    ingest_mod.write_lines(stage.output("nodes_kept.txt"), cleaned.labels)
    stage.write_csv("scc_histogram.csv", sorted(histogram.items()))
    payload = {
        "before": metrics_before._asdict(),
        "after": metrics_after._asdict(),
        "layers": layer_metrics,
        "isolated_removed": len(removed_labels),
        "isolated_mode": "strict" if cfg.isolated_strict else "no_outlink",
        "min_component_size": cfg.min_component_size,
        "scc_count_after_isolated_removal": labeling.count,
        "clustering_variant": cfg.clustering_variant,
    }
    _write_json(stage.output("metrics.json"), payload)

    return {
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


def _read_cleaned_graph(stage: Stage) -> SimpleDigraph:
    nodes_path = stage.require("clean", "nodes_kept.txt", "nodes")
    node = _checked(str, lambda label: label in known, f"a node in {nodes_path.name}")
    rows = stage.read_csv("clean", "graph_cleaned.csv", "arcs", src=node, dst=node)
    labels = ingest_mod.read_text(nodes_path, "utf-8").splitlines()
    known = set(labels)  # ``node`` runs only as the rows are read, below
    graph = _digraph(labels, [tuple(row) for row in rows],
                     f"{stage.inputs['arcs']} (nodes from {nodes_path.name})")
    if not stage.cfg.weighted_rank:  # the weights were checked all the same
        graph = replace(graph, weights=tuple((1,) * len(out) for out in graph.adj))
    return graph


def cmd_rank(stage: Stage) -> dict:
    """Popularity measures on the cleaned graph."""
    from . import ranking

    cfg = stage.cfg
    graph = _read_cleaned_graph(stage)
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

    rankings = {"indegree": ranking.indegree_rank(graph), "pagerank": pr,
                "hub": hub, "authority": authority}
    for name, scores in rankings.items():  # None writes the header alone
        stage.write_csv(f"{name}.csv", [] if scores is None else
                        ranking.ranked_rows(scores, graph.labels, cfg.rank_top_k))
    return counts


def _stats_window(stage: Stage, posts) -> ActivityWindow | None:
    from . import profilestats

    cfg = stage.cfg
    # ingest checked each post at the offset it ran with; stats may run at another
    for line, post in enumerate(posts, start=1):
        try:
            post.published_at + cfg.utc_offset
        except OverflowError:
            raise ArtifactError(
                f"{stage.inputs['posts']}:{line}: timestamp out of range at "
                f"ingest.utc_offset_minutes {cfg.utc_offset_minutes}: "
                f"{ingest_mod.format_timestamp(post.published_at)!r}") from None
    if cfg.window_start is not None:  # the config admits both bounds or neither
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


def cmd_stats(stage: Stage) -> dict:
    """Profile track: activity, temporal, demographic, and comment statistics."""
    from . import profilestats

    cfg = stage.cfg
    loaded = _load_ingested(stage, ["posts", "comments", "profiles"])
    window = _stats_window(stage, loaded["posts"])
    report = profilestats.build_stats_report(
        loaded["posts"], loaded["comments"], loaded["profiles"],
        window, cfg.utc_offset, cfg.comment_threshold,
    )

    demo = report.demographics
    payload = {
        **report._asdict(),
        "window": None if window is None else {
            "start": ingest_mod.format_timestamp(window.start),
            "end": ingest_mod.format_timestamp(window.end),
            "min_posts": window.min_posts,
            "require_monthly": window.require_monthly,
        },
        "demographics": {
            **demo._asdict(), "age_histogram": {str(k): v for k, v in demo.age_histogram.items()},
        },
        # raw percentages; no baseline convention is imposed on month peaks
        "posts_by_month_pct": {
            month: 100.0 * count / report.post_count
            for month, count in report.posts_by_month.items()
        },
        "comments_per_post": {
            "mean": report.comments.mean,
            "matched_comments": report.comments.matched_comments,
            "threshold": report.comments.threshold,
            "over_threshold_posts": report.comments.over_threshold,
            "histogram": {str(k): v for k, v in report.comments.histogram.items()},
        },
    }
    del payload["comments"]  # written as comments_per_post

    _write_json(stage.output("report.json"), payload)
    stage.write_csv("posts_by_hour.csv", enumerate(report.posts_by_hour), ["hour", "count"])
    stage.write_csv("posts_by_month.csv", sorted(report.posts_by_month.items()),
                    ["month", "count"])
    stage.write_csv("comments_per_post.csv", sorted(report.comments.histogram.items()),
                    ["comments", "posts"])
    stage.write_csv("age_histogram.csv", sorted(demo.age_histogram.items()),
                    ["age_bin_start", "count"])

    return {
        "posts": report.post_count,
        "comments": report.comment_count,
        "profiles": demo.profile_count,
        "active_bloggers": report.active_count,
    }


def _row_numbers() -> Callable[[str], int]:
    """The converter of a ``rank`` column whose n-th row must hold rank n."""
    rows = count(1)
    return _checked(int, lambda rank: rank == next(rows), "its row's number")


def cmd_report(stage: Stage) -> dict:
    """Combine metrics, rankings, and statistics into the final report."""
    metrics_path = stage.require("clean", "metrics.json")
    histogram_rows = stage.read_csv("clean", "scc_histogram.csv")
    stats_path = stage.require("stats", "report.json", "stats")
    ranking_rows = {kind: stage.read_csv("rank", f"{kind}.csv", rank=_row_numbers())
                    for kind in RANKINGS}

    metrics = _read_artifact_json(metrics_path, _METRICS_SHAPE)
    stats = _read_artifact_json(stats_path, _STATS_SHAPE)
    histogram = dict(histogram_rows)
    rankings = {  # every row is read, so every row is checked
        kind: [dict(zip(RANKING_COLUMNS, row)) for row in list(rows)[:REPORT_TOP_K]]
        for kind, rows in sorted(ranking_rows.items())
    }

    payload = {
        "network": metrics,
        "scc_histogram": {str(k): v for k, v in histogram.items()},
        "rankings": rankings,
        "statistics": stats,
    }
    _write_json(stage.output("report.json"), payload)
    ingest_mod.write_lines(stage.output("report.txt"),
                           _render_report_text(metrics, histogram, rankings, stats))
    return {"ranking_rows": {k: len(v) for k, v in rankings.items()}}


def _render_report_text(metrics, histogram, rankings, stats) -> list[str]:
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
    for kind in RANKINGS:
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
    return lines


# --- argument parsing ----------------------------------------------------------

# stage -> (its function, its --help line), in pipeline order
STAGE_FUNCS: dict[str, tuple[Callable[[Stage], dict], str]] = {
    "ingest": (cmd_ingest, "validate raw dumps into canonical records"),
    "prep": (cmd_prep, "text track: vocabulary, TF-IDF vectors, similarity matrix"),
    "build": (cmd_build, "structure track: extract and merge link layers"),
    "clean": (cmd_clean, "prune graph, components, before/after metrics"),
    "rank": (cmd_rank, "in-degree, PageRank, and HITS rankings"),
    "stats": (cmd_stats, "profile track: activity, temporal, demographic statistics"),
    "report": (cmd_report, "combine everything into the final report"),
}


def build_parser() -> tuple[argparse.ArgumentParser, list[str]]:
    parser = argparse.ArgumentParser(
        prog="blognet",
        description="Blog-network preprocessing pipeline: content similarity, "
                    "link-graph cleaning, rankings, and profile statistics.",
    )
    parser.add_argument("--version", action="version", version=f"blognet {__version__}")
    flags = argparse.ArgumentParser(add_help=False)  # every stage's, as a parent
    flags.add_argument("--config", default=None, help="path to the JSON config file")
    field_names = []
    for section, keys in SECTIONS.items():
        for key, field_name in keys.items():
            flags.add_argument(
                f"--{key.replace('_', '-')}",
                dest=field_name,
                type=FLAG_TYPES[field_name],
                default=None,
                help=f"override {section}.{key}",
            )
            field_names.append(field_name)
    subparsers = parser.add_subparsers(dest="command", required=True)
    for stage, (_func, help_text) in STAGE_FUNCS.items():
        subparsers.add_parser(stage, help=help_text, parents=[flags])
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
        stage = Stage(cfg, args.command)
        counts = STAGE_FUNCS[args.command][0](stage)
        stage.write_manifest(counts)
    except ConfigError as err:
        for problem in err.problems:
            print(f"config error: {problem}", file=sys.stderr)
        return EXIT_VALIDATION
    except StageDependencyError as err:
        print(f"stage error: {err}", file=sys.stderr)
        return EXIT_VALIDATION
    except (DuplicateIdError, OSError, EmptyCorpusError, InputFileError, ArtifactError) as err:
        print(f"data error: {err}", file=sys.stderr)
        return EXIT_DATA

    print(f"stage {args.command} complete -> {stage.dir}")
    for key, value in counts.items():
        print(f"  {key}: {value}")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
