import csv
import filecmp
import gc
import hashlib
import importlib
import json
import math
import os
import shutil
import subprocess
import sys
from itertools import islice
from pathlib import Path

import pytest

import blognet
from blognet import cli, graphbuild
from blognet.cli import CSV_ARTIFACTS, EDGE_COLUMNS, EXIT_DATA, EXIT_OK, EXIT_VALIDATION, main
from conftest import FIXTURES

SMALLBLOG = FIXTURES / "smallblog"
GROUND_TRUTH = json.loads((SMALLBLOG / "ground_truth.json").read_text(encoding="utf-8"))

ALL_STAGES = ("ingest", "prep", "build", "clean", "rank", "stats", "report")


def fixture_flags(out_dir):
    return [
        "--posts", str(SMALLBLOG / "posts.jsonl"),
        "--comments", str(SMALLBLOG / "comments.jsonl"),
        "--blogroll", str(SMALLBLOG / "blogroll.jsonl"),
        "--profiles", str(SMALLBLOG / "profiles.jsonl"),
        "--host-patterns", "{blog}.blogville.example",
        "--min-df", "1", "--max-df-ratio", "1.0",
        "--out-dir", str(out_dir),
    ]


def run_pipeline(out_dir, stages=ALL_STAGES):
    for stage in stages:
        code = main([stage, *fixture_flags(out_dir)])
        assert code == EXIT_OK, f"stage {stage} exited {code}"


def manifest(out_dir, stage):
    return json.loads((Path(out_dir) / stage / "manifest.json").read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def out_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    run_pipeline(out)
    return out


class TestFullRun:
    def test_ingest_counts_match_ground_truth(self, out_dir):
        counts = manifest(out_dir, "ingest")["counts"]
        assert counts == GROUND_TRUTH["ingest"]

    def test_quarantine_report_contents(self, out_dir):
        rows = [
            json.loads(line)
            for line in (out_dir / "ingest/quarantine.jsonl").read_text("utf-8").splitlines()
        ]
        assert len(rows) == 4
        assert {row["file"] for row in rows} == {
            "posts.jsonl", "comments.jsonl", "blogroll.jsonl", "profiles.jsonl"
        }
        assert all({"file", "line", "reason"} <= row.keys() for row in rows)

    def test_build_counts_match_ground_truth(self, out_dir):
        counts = manifest(out_dir, "build")["counts"]
        expected = GROUND_TRUTH["build"]
        assert counts["universe_blogs"] == expected["universe_blogs"]
        for layer in ("blogroll", "comment", "citation"):
            for key, value in expected[layer].items():
                assert counts[layer][key] == value, (layer, key)
        assert counts["merged"] == expected["merged"]

    def test_clean_metrics_match_ground_truth(self, out_dir):
        metrics = json.loads((out_dir / "clean/metrics.json").read_text("utf-8"))
        expected = GROUND_TRUTH["clean"]
        for phase in ("before", "after"):
            for key, value in expected[phase].items():
                if isinstance(value, float):
                    assert metrics[phase][key] == pytest.approx(value, abs=1e-12), (phase, key)
                else:
                    assert metrics[phase][key] == value, (phase, key)
        assert metrics["isolated_removed"] == expected["isolated_removed"]
        assert metrics["scc_count_after_isolated_removal"] == expected["scc_count_after_isolated_removal"]

    def test_per_layer_metrics_match_ground_truth(self, out_dir):
        metrics = json.loads((out_dir / "clean/metrics.json").read_text("utf-8"))
        for layer, expected in GROUND_TRUTH["layer_metrics"].items():
            for key, value in expected.items():
                assert metrics["layers"][layer][key] == value, (layer, key)

    def test_scc_histogram_matches(self, out_dir):
        with open(out_dir / "clean/scc_histogram.csv", newline="") as fh:
            reader = csv.reader(fh)
            next(reader)
            hist = {size: int(count) for size, count in reader}
        assert hist == GROUND_TRUTH["clean"]["scc_histogram"]

    def test_cleaned_nodes_exclude_isolated(self, out_dir):
        kept = set((out_dir / "clean/nodes_kept.txt").read_text("utf-8").splitlines())
        assert kept == {f"b{i:02d}" for i in range(1, 13)}
        for label in GROUND_TRUTH["clean"]["isolated_labels"]:
            assert label not in kept

    def test_indegree_ranking_top(self, out_dir):
        with open(out_dir / "rank/indegree.csv", newline="") as fh:
            reader = csv.reader(fh)
            next(reader)
            rows = list(reader)
        top = GROUND_TRUTH["rank"]["indegree_top"]
        scores = GROUND_TRUTH["rank"]["indegree_top_scores"]
        assert [r[0] for r in rows[:3]] == top
        assert [float(r[1]) for r in rows[:3]] == scores
        assert [int(r[2]) for r in rows[:3]] == [1, 2, 3]

    def test_pagerank_scores_sum_to_one(self, out_dir):
        with open(out_dir / "rank/pagerank.csv", newline="") as fh:
            reader = csv.reader(fh)
            next(reader)
            total = sum(float(score) for _, score, _ in reader)
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_stats_match_ground_truth(self, out_dir):
        stats = json.loads((out_dir / "stats/report.json").read_text("utf-8"))
        expected = GROUND_TRUTH["stats"]
        assert stats["blogger_count"] == expected["blogger_count"]
        assert stats["post_count"] == expected["post_count"]
        assert stats["comment_count"] == expected["comment_count"]
        assert stats["comments_per_post"]["matched_comments"] == expected["matched_comments"]
        assert stats["comments_per_post"]["mean"] == pytest.approx(expected["comment_mean"], abs=1e-12)
        assert stats["posts_by_month"] == expected["posts_by_month"]
        assert stats["demographics"]["profile_count"] == expected["profile_count"]
        assert stats["demographics"]["ages_present"] == expected["ages_present"]
        assert sum(stats["posts_by_hour"]) == expected["post_count"]

    def test_histograms_sum_to_record_counts(self, out_dir):
        stats = json.loads((out_dir / "stats/report.json").read_text("utf-8"))
        assert sum(stats["posts_by_month"].values()) == stats["post_count"]
        assert sum(stats["posts_by_month_pct"].values()) == pytest.approx(100.0)
        assert sum(stats["comments_per_post"]["histogram"].values()) == stats["post_count"]
        demo = stats["demographics"]
        assert sum(demo["age_histogram"].values()) == demo["ages_present"]
        assert sum(demo["gender_counts"].values()) == demo["profile_count"]

    def test_report_combines_everything(self, out_dir):
        report = json.loads((out_dir / "report/report.json").read_text("utf-8"))
        assert report["network"]["before"]["nodes"] == 20
        assert report["network"]["after"]["nodes"] == 12
        assert report["scc_histogram"] == GROUND_TRUTH["clean"]["scc_histogram"]
        assert len(report["rankings"]["pagerank"]) == 10
        text = (out_dir / "report/report.txt").read_text("utf-8")
        assert "before" not in text or True  # human-readable; just ensure nonempty
        assert "preprocessed" in text

    def test_manifests_echo_defaults(self, out_dir):
        config = manifest(out_dir, "clean")["config"]
        assert config["ranking"]["damping"] == 0.85
        assert config["ranking"]["tol"] == 1e-9
        assert config["graphclean"]["min_component_size"] == 10
        assert config["profilestats"]["min_posts"] == 6

    def test_manifest_counter_balance(self, out_dir):
        counts = manifest(out_dir, "ingest")["counts"]
        lines = {
            "posts": 15, "comments": 10, "blogroll": 22, "profiles": 21,
        }
        for name, total in lines.items():
            assert counts[name]["accepted"] + counts[name]["quarantined"] == total
        build = manifest(out_dir, "build")["counts"]
        blogroll = build["blogroll"]
        assert blogroll["records"] == (
            blogroll["weight"] + blogroll["external_urls"]
            + blogroll["external_weight_dropped"] + blogroll["self_loop_weight_dropped"]
        )
        comment = build["comment"]
        assert comment["comments"] == (
            comment["weight"] + comment["anonymous"] + comment["unmatched"]
            + comment["external_weight_dropped"] + comment["self_loop_weight_dropped"]
        )
        citation = build["citation"]
        assert citation["links_found"] == (
            citation["weight"] + citation["external_urls"] + citation["self_links"]
            + citation["external_weight_dropped"] + citation["self_loop_weight_dropped"]
        )
        clean = manifest(out_dir, "clean")["counts"]
        assert clean["nodes_before"] == clean["nodes_after_isolated"] + clean["isolated_removed"]
        assert clean["arcs_before"] == clean["arcs_after_isolated"] + clean["arcs_removed_with_isolated"]
        assert clean["nodes_after_isolated"] == clean["nodes_after"] + clean["nodes_dropped_by_filter"]
        assert clean["arcs_after_isolated"] == clean["arcs_after"] + clean["arcs_dropped_by_filter"]

    def test_round_trip_ingest_artifacts_reload_clean(self, out_dir):
        from blognet import ingest as ingest_mod

        reloaded = ingest_mod.load_posts(out_dir / "ingest/posts.jsonl")
        assert len(reloaded.records) == 14
        assert not reloaded.quarantined


class TestDeterminism:
    def test_two_runs_byte_identical(self, tmp_path):
        run_a = tmp_path / "a"
        run_b = tmp_path / "b"
        run_pipeline(run_a)
        run_pipeline(run_b)
        mismatches = []
        for path_a in sorted(run_a.rglob("*")):
            if path_a.is_dir():
                continue
            rel = path_a.relative_to(run_a)
            path_b = run_b / rel
            if not path_b.exists():
                mismatches.append(f"missing {rel}")
            elif path_a.read_bytes() != path_b.read_bytes():
                mismatches.append(f"differs {rel}")
        files_a = {p.relative_to(run_a) for p in run_a.rglob("*") if p.is_file()}
        files_b = {p.relative_to(run_b) for p in run_b.rglob("*") if p.is_file()}
        assert files_a == files_b
        assert not mismatches


# Runs one stage through cli.main and prints, as its last line, the exit
# code and every module the process has loaded.
_STAGE_PROBE = """
import json, sys
from blognet.cli import main
code = main(sys.argv[1:])
print(json.dumps({"exit": code, "modules": sorted(sys.modules)}))
"""


class TestImportBoundary:
    """Each stage runs in its own process and loads only its track module;
    only prep and rank load numpy."""

    TRACKS = {
        "ingest": set(),
        "prep": {"blognet.textprep"},
        "build": {"blognet.graphbuild"},
        "clean": {"blognet.graphclean"},
        "rank": {"blognet.graphclean", "blognet.ranking"},
        "stats": {"blognet.profilestats"},
        "report": set(),
    }
    ALL_TRACKS = set().union(*TRACKS.values())

    def run_stage(self, stage, out_dir) -> set[str]:
        src = str(Path(blognet.__file__).resolve().parent.parent)
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run(
            [sys.executable, "-c", _STAGE_PROBE, stage, *fixture_flags(out_dir)],
            capture_output=True, text=True, env=env, check=True, timeout=120,
        )
        result = json.loads(proc.stdout.splitlines()[-1])
        assert result["exit"] == EXIT_OK, (stage, proc.stderr)
        return set(result["modules"])

    def test_each_stage_loads_only_its_track(self, tmp_path):
        out = tmp_path / "out"
        for stage in ALL_STAGES:
            modules = self.run_stage(stage, out)
            assert modules & self.ALL_TRACKS == self.TRACKS[stage], stage
            if stage not in ("prep", "rank"):
                assert "numpy" not in modules, stage
        for artifact in ("prep/similarity.csv", "prep/vectors.jsonl",
                         "rank/pagerank.csv", "rank/authority.csv"):
            assert (out / artifact).stat().st_size > 0, artifact


class TestStageOrderAndErrors:
    def test_rank_before_clean_is_stage_error(self, tmp_path, capsys):
        code = main(["rank", *fixture_flags(tmp_path)])
        assert code == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert "nodes_kept.txt" in err
        assert "blognet clean" in err

    def test_report_names_missing_artifact(self, tmp_path, capsys):
        code = main(["report", *fixture_flags(tmp_path)])
        assert code == EXIT_VALIDATION
        assert "metrics.json" in capsys.readouterr().err

    def test_config_violations_list_every_field(self, tmp_path, capsys):
        code = main([
            "clean", "--out-dir", str(tmp_path),
            "--damping", "7", "--min-component-size", "-2",
        ])
        assert code == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert "damping" in err and "min_component_size" in err

    def test_missing_input_file_is_data_error(self, tmp_path, capsys):
        flags = fixture_flags(tmp_path)
        flags[1] = str(tmp_path / "nowhere.jsonl")  # --posts value
        code = main(["ingest", *flags])
        assert code == EXIT_DATA

    def test_duplicate_id_is_data_error(self, tmp_path):
        posts = tmp_path / "posts.jsonl"
        row = {"post_id": "p1", "blog_id": "a", "title": "t", "body": "b",
               "published_at": "2010-04-01T00:00:00Z"}
        posts.write_text("\n".join([json.dumps(row)] * 2) + "\n")
        flags = fixture_flags(tmp_path / "out")
        flags[1] = str(posts)
        assert main(["ingest", *flags]) == EXIT_DATA

    def test_build_requires_host_patterns(self, tmp_path, capsys):
        out = tmp_path / "out"
        flags = fixture_flags(out)
        idx = flags.index("--host-patterns")
        del flags[idx:idx + 2]
        assert main(["ingest", *flags]) == EXIT_OK
        assert main(["build", *flags]) == EXIT_VALIDATION
        assert "host_patterns" in capsys.readouterr().err

    def test_usage_error_maps_to_validation_exit(self):
        assert main(["no-such-command"]) == EXIT_VALIDATION

    def test_help_exits_zero(self):
        assert main(["--help"]) == EXIT_OK

    def test_explicit_window_flags_respect_dump_offset(self, tmp_path):
        out = tmp_path / "out"
        flags = fixture_flags(out)
        assert main(["ingest", *flags]) == EXIT_OK
        # naive window bounds are local (+03:30, the default dump offset);
        # this window covers exactly the two April posts
        assert main([
            "stats", *flags,
            "--window-start", "2010-04-01T00:00:00",
            "--window-end", "2010-05-01T00:00:00",
            "--min-posts", "1",
        ]) == EXIT_OK
        stats = json.loads((out / "stats/report.json").read_text("utf-8"))
        assert stats["window"]["start"] == "2010-03-31T20:30:00Z"
        assert stats["active_count"] == 2  # b01 and b02 posted in April

    def test_rank_top_k_flag_truncates_listings(self, tmp_path):
        out = tmp_path / "out"
        flags = fixture_flags(out)
        for stage in ("ingest", "build", "clean"):
            assert main([stage, *flags]) == EXIT_OK
        assert main(["rank", *flags, "--top-k", "3"]) == EXIT_OK
        for name in ("indegree", "pagerank", "hub", "authority"):
            rows = (out / f"rank/{name}.csv").read_text("utf-8").splitlines()
            assert len(rows) == 4  # header + 3

    def test_short_merged_edge_row_is_data_error(self, tmp_path, capsys):
        out = tmp_path / "out"
        flags = fixture_flags(out)
        for stage in ("ingest", "build"):
            assert main([stage, *flags]) == EXIT_OK
        edges = out / "build/edges_merged.csv"
        lines = edges.read_text("utf-8").splitlines()
        with open(edges, "a", encoding="utf-8") as fh:
            fh.write("b01,b02,blogroll\n")
        capsys.readouterr()
        assert main(["clean", *flags]) == EXIT_DATA
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert f"edges_merged.csv:{len(lines) + 1}:" in err

    def test_unknown_cleaned_node_is_data_error(self, tmp_path, capsys):
        out = tmp_path / "out"
        flags = fixture_flags(out)
        for stage in ("ingest", "build", "clean"):
            assert main([stage, *flags]) == EXIT_OK
        arcs = out / "clean/graph_cleaned.csv"
        lines = arcs.read_text("utf-8").splitlines()
        src = lines[1].split(",")[0]
        with open(arcs, "a", encoding="utf-8") as fh:
            fh.write(f"{src},nobody,1\n")
        capsys.readouterr()
        assert main(["rank", *flags]) == EXIT_DATA
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert f"graph_cleaned.csv:{len(lines) + 1}:" in err and "'nobody'" in err

    def test_short_layer_edge_row_is_data_error(self, tmp_path, capsys):
        out = tmp_path / "out"
        flags = fixture_flags(out)
        for stage in ("ingest", "build"):
            assert main([stage, *flags]) == EXIT_OK
        edges = out / "build/edges_citation.csv"
        lines = edges.read_text("utf-8").splitlines()
        with open(edges, "a", encoding="utf-8") as fh:
            fh.write("b01,b02,citation\n")
        capsys.readouterr()
        assert main(["clean", *flags]) == EXIT_DATA
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert f"edges_citation.csv:{len(lines) + 1}:" in err

    def test_unknown_merged_endpoint_is_data_error(self, tmp_path, capsys):
        out = tmp_path / "out"
        flags = fixture_flags(out)
        for stage in ("ingest", "build"):
            assert main([stage, *flags]) == EXIT_OK
        with open(out / "build/edges_merged.csv", "a", encoding="utf-8") as fh:
            fh.write("b01,ghost,blogroll,1\n")
        capsys.readouterr()
        assert main(["clean", *flags]) == EXIT_DATA
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "edges_merged.csv" in err and "'ghost'" in err and "nodes.txt" in err

    def test_config_file_via_flag(self, tmp_path):
        config = {
            "inputs": {
                "posts": str(SMALLBLOG / "posts.jsonl"),
                "comments": str(SMALLBLOG / "comments.jsonl"),
                "blogroll": str(SMALLBLOG / "blogroll.jsonl"),
                "profiles": str(SMALLBLOG / "profiles.jsonl"),
            },
            "graphbuild": {"host_patterns": ["{blog}.blogville.example"]},
            "output": {"out_dir": str(tmp_path / "out")},
        }
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config))
        assert main(["ingest", "--config", str(config_path)]) == EXIT_OK
        assert (tmp_path / "out/ingest/posts.jsonl").exists()


def edit_json(settings):
    """An edit of a JSON artifact that sets the value at each key path in
    ``settings``."""
    def edit(lines):
        payload = json.loads("\n".join(lines))
        for (*parents, key), value in settings.items():
            target = payload
            for parent in parents:
                target = target[parent]
            target[key] = value
        return json.dumps(payload, indent=2).splitlines()
    return edit


# Each case edits one artifact of a finished fixture run: (the stage that
# reads it, with any extra flags, the file, the edit on its lines, what the
# one-line message must name). "{last}" is the number of lines after the edit.
TAMPERED_ARTIFACTS = {
    "histogram-short-row": (
        "report", "clean/scc_histogram.csv", lambda lines: [*lines, "5"],
        ["scc_histogram.csv:{last}:"]),
    "histogram-header": (
        "report", "clean/scc_histogram.csv", lambda lines: ["size,n", *lines[1:]],
        ["scc_histogram.csv"]),
    "ranking-short-row": (
        "report", "rank/pagerank.csv", lambda lines: [lines[0], "b01,0.5", *lines[2:]],
        ["pagerank.csv:2:"]),
    "ranking-header": (
        "report", "rank/hub.csv", lambda lines: ["blog,score,rank", *lines[1:]],
        ["hub.csv"]),
    "layer-self-loop": (
        "clean", "build/edges_citation.csv", lambda lines: [*lines, "b01,b01,citation,1"],
        ["edges_citation.csv", "'b01'"]),
    "layer-header": (
        "clean", "build/edges_citation.csv", lambda lines: ["from,to,layer,weight", *lines[1:]],
        ["edges_citation.csv"]),
    "cleaned-self-loop": (
        "rank", "clean/graph_cleaned.csv", lambda lines: [*lines, "b02,b02,1"],
        ["graph_cleaned.csv", "'b02'"]),
    "repeated-kept-node": (
        "rank", "clean/nodes_kept.txt", lambda lines: [*lines, lines[0]],
        ["nodes_kept.txt", "unique"]),
    "ingest-post-missing-field": (
        "build", "ingest/posts.jsonl", lambda lines: [*lines, '{"post_id": "p9999"}'],
        ["posts.jsonl:{last}:", "'blog_id'"]),
    "ingest-comment-not-json": (
        "stats", "ingest/comments.jsonl", lambda lines: [*lines, "{broken"],
        ["comments.jsonl:{last}:", "invalid JSON"]),
    "ingest-blogroll-bad-url": (
        "build", "ingest/blogroll.jsonl",
        lambda lines: [*lines, '{"owner_blog_id": "b01", "target_url": "ftp://x.example/"}'],
        ["blogroll.jsonl:{last}:", "invalid URL"]),
    "ingest-profile-bad-age": (
        "stats", "ingest/profiles.jsonl", lambda lines: [*lines, '{"blog_id": "b98", "age": 3}'],
        ["profiles.jsonl:{last}:", "age 3"]),
    "truncated-metrics": (
        "report", "clean/metrics.json", lambda lines: lines[:-1],
        ["clean/metrics.json", "invalid JSON"]),
    "stats-report-open-brace": (
        "report", "stats/report.json", lambda lines: ["{"],
        ["stats/report.json", "invalid JSON"]),
    "merged-negative-weight": (
        "clean", "build/edges_merged.csv",
        lambda lines: [lines[0], lines[1].rsplit(",", 1)[0] + ",-3", *lines[2:]],
        ["edges_merged.csv", "weight -3"]),
    "cleaned-nan-weight": (
        "rank --weighted-rank yes", "clean/graph_cleaned.csv",
        lambda lines: [lines[0], lines[1].rsplit(",", 1)[0] + ",nan", *lines[2:]],
        ["graph_cleaned.csv", "weight nan"]),
    "cleaned-repeated-arc": (
        "rank", "clean/graph_cleaned.csv", lambda lines: [*lines, lines[1]],
        ["graph_cleaned.csv:{last}:", "repeats"]),
    "metrics-empty-object": (
        "report", "clean/metrics.json", lambda lines: ["{}"],
        ["clean/metrics.json", "before"]),
    "metrics-array": (
        "report", "clean/metrics.json", lambda lines: ["[]"],
        ["clean/metrics.json", "not an object"]),
    "stats-report-empty-object": (
        "report", "stats/report.json", lambda lines: ["{}"],
        ["stats/report.json", "blogger_count"]),
    "histogram-repeated-size": (
        "report", "clean/scc_histogram.csv",
        lambda lines: [*lines, lines[1].split(",")[0] + ",99"],
        ["scc_histogram.csv:{last}:", "repeats"]),
    "layer-weight-not-int": (
        "clean", "build/edges_citation.csv", lambda lines: [*lines, "b01,b03,citation,abc"],
        ["edges_citation.csv:{last}:", "'abc'"]),
    "layer-negative-weight": (
        "clean", "build/edges_comment.csv",
        lambda lines: [lines[0], lines[1].rsplit(",", 1)[0] + ",-3", *lines[2:]],
        ["edges_comment.csv", "weight -3"]),
    "cleaned-nan-weight-unweighted": (
        "rank", "clean/graph_cleaned.csv",
        lambda lines: [lines[0], lines[1].rsplit(",", 1)[0] + ",nan", *lines[2:]],
        ["graph_cleaned.csv", "weight nan"]),
    "cleaned-negative-weight-unweighted": (
        "rank", "clean/graph_cleaned.csv",
        lambda lines: [lines[0], lines[1].rsplit(",", 1)[0] + ",-3", *lines[2:]],
        ["graph_cleaned.csv", "weight -3"]),
    "merged-unknown-layer": (
        "clean", "build/edges_merged.csv", lambda lines: [*lines, "b01,b03,bogus,1"],
        ["edges_merged.csv:{last}:", "'bogus'"]),
    "layer-row-of-another-layer": (
        "clean", "build/edges_citation.csv", lambda lines: [*lines, "b01,b03,comment,1"],
        ["edges_citation.csv:{last}:", "'comment'"]),
    # build writes each (src, dst, layer) once, and each layer file holds the
    # rows of that layer in edges_merged.csv, in their order
    "merged-repeated-edge": (
        "clean", "build/edges_merged.csv", lambda lines: [*lines, lines[1]],
        ["edges_merged.csv:{last}:", "repeats"]),
    "layer-ghost-row": (
        "clean", "build/edges_blogroll.csv", lambda lines: [*lines, "ghost,b01,blogroll,1"],
        ["edges_blogroll.csv:{last}:", "edges_merged.csv"]),
    "layer-rows-reordered": (
        "clean", "build/edges_comment.csv",
        lambda lines: [lines[0], lines[2], lines[1], *lines[3:]],
        ["edges_comment.csv:2:", "edges_merged.csv"]),
    # report reads every ranking row, past the ten it prints too
    "ranking-nan-score-negative-rank": (
        "report", "rank/hub.csv",
        lambda lines: [lines[0], lines[1].split(",")[0] + ",nan,-1", *lines[2:]],
        ["hub.csv:2:", "'nan'"]),
    "ranking-zero-rank": (
        "report", "rank/authority.csv",
        lambda lines: [lines[0], lines[1].rsplit(",", 1)[0] + ",0", *lines[2:]],
        ["authority.csv:2:", "'0'"]),
    "ranking-inf-score-in-row-12": (
        "report", "rank/pagerank.csv",
        lambda lines: [*lines[:12], "{0},inf,{2}".format(*lines[12].split(",")), *lines[13:]],
        ["pagerank.csv:13:", "'inf'"]),
    "ranking-repeated-blog": (
        "report", "rank/indegree.csv", lambda lines: [*lines, lines[1]],
        ["indegree.csv:{last}:", "repeats"]),
    # report checks the values it reads, not only their types
    "metrics-negative-nodes-nan-density": (
        "report", "clean/metrics.json", edit_json({("after", "nodes"): -4,
                                                   ("after", "density"): math.nan}),
        ["clean/metrics.json", "after.nodes", "-4"]),
    "metrics-nan-density": (
        "report", "clean/metrics.json", edit_json({("after", "density"): math.nan}),
        ["clean/metrics.json", "after.density", "nan"]),
    "metrics-true-edges": (
        "report", "clean/metrics.json", edit_json({("layers", "comment", "edges"): True}),
        ["clean/metrics.json", "layers.comment.edges", "True"]),
    "metrics-unknown-isolated-mode": (
        "report", "clean/metrics.json", edit_json({("isolated_mode",): "loose"}),
        ["clean/metrics.json", "isolated_mode", "'loose'"]),
    "stats-report-infinite-mean": (
        "report", "stats/report.json", edit_json({("comments_per_post", "mean"): math.inf}),
        ["stats/report.json", "comments_per_post.mean", "inf"]),
    "stats-report-huge-age-mean": (
        "report", "stats/report.json", edit_json({("demographics", "age_mean"): 10 ** 400}),
        ["stats/report.json", "demographics.age_mean"]),
    "histogram-negative-count": (
        "report", "clean/scc_histogram.csv",
        lambda lines: [lines[0], lines[1].split(",")[0] + ",-5", *lines[2:]],
        ["scc_histogram.csv:2:", "'-5'"]),
    # the n-th row of a ranking holds rank n
    "ranking-swapped-ranks": (
        "report", "rank/hub.csv",
        lambda lines: [lines[0], lines[1][:-1] + "2", lines[2][:-1] + "1", *lines[3:]],
        ["hub.csv:2:", "'2'"]),
}


@pytest.mark.parametrize("case", sorted(TAMPERED_ARTIFACTS))
def test_tampered_artifact_is_data_error(case, out_dir, tmp_path, capsys):
    command, artifact, edit, named = TAMPERED_ARTIFACTS[case]
    stage, *flags = command.split()
    out = tmp_path / "out"
    shutil.copytree(out_dir, out)
    path = out / artifact
    lines = edit(path.read_text("utf-8").splitlines())
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    capsys.readouterr()
    assert main([stage, *fixture_flags(out), *flags]) == EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and err.count("\n") == 1
    for text in named:
        assert text.format(last=len(lines)) in err


# Each case hands one stage an input file it cannot read: (stage, flag,
# file name, file bytes).
UNREADABLE_INPUTS = {
    "one-column-equivalence": ("prep", "--equivalences", "eq.tsv", b"a\tb\nc\n"),
    "equivalence-cycle": ("prep", "--equivalences", "eq.tsv", b"a\tb\nb\ta\n"),
    "two-token-equivalence": ("prep", "--equivalences", "eq.tsv", b"x\ta b\na\tc\n"),
    "two-token-stopword": ("prep", "--stopwords", "stop.txt", "و\na b\n".encode()),
    "non-utf8-stopwords": ("prep", "--stopwords", "stop.txt", "و\n".encode() + b"\xff\n"),
    "non-utf8-posts": ("ingest", "--posts", "posts.jsonl",
                       (SMALLBLOG / "posts.jsonl").read_bytes() + b"\xff\n"),
}


@pytest.mark.parametrize("case", sorted(UNREADABLE_INPUTS))
def test_unreadable_input_is_data_error(case, out_dir, tmp_path, capsys):
    stage, flag, name, content = UNREADABLE_INPUTS[case]
    out = tmp_path / "out"
    shutil.copytree(out_dir, out)
    path = tmp_path / name
    path.write_bytes(content)
    capsys.readouterr()
    assert main([stage, *fixture_flags(out), flag, str(path)]) == EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and err.count("\n") == 1
    assert str(path) in err


def test_equivalence_cycle_reached_through_a_chain_is_one_data_error(out_dir, tmp_path, capsys):
    out = tmp_path / "out"
    shutil.copytree(out_dir, out)
    path = tmp_path / "eq.tsv"
    path.write_text("x\ta\na\tb\nb\ta\n", encoding="utf-8")
    capsys.readouterr()
    assert main(["prep", *fixture_flags(out), "--equivalences", str(path)]) == EXIT_DATA
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith(f"data error: {path}: equivalence cycle involving ")
    assert err.rstrip().endswith(("'a'", "'b'"))  # a term on the cycle, not 'x'


def test_stop_word_line_is_split_only_at_line_breaks(out_dir, tmp_path, capsys):
    # U+2028 LINE SEPARATOR is a ``str.splitlines`` break, not a line break
    # in a text file
    out = tmp_path / "out"
    shutil.copytree(out_dir, out)
    path = tmp_path / "stop.txt"
    path.write_text("و\u2028که\n", encoding="utf-8")
    capsys.readouterr()
    assert main(["prep", *fixture_flags(out), "--stopwords", str(path)]) == EXIT_DATA
    assert capsys.readouterr().err == f"data error: {path}:1: stop word is not one token\n"


def test_all_digit_equivalence_variant_is_one_data_error(out_dir, tmp_path, capsys):
    out = tmp_path / "out"
    shutil.copytree(out_dir, out)
    path = tmp_path / "eq.tsv"
    path.write_text("123\tx\n", encoding="utf-8")
    capsys.readouterr()
    assert main(["prep", *fixture_flags(out), "--equivalences", str(path)]) == EXIT_DATA
    err = capsys.readouterr().err
    assert err == f"data error: {path}:1: variant or canonical form is not one token\n"


# Each input flag, with the stage that reads it. A path ``open`` refuses is
# one line with the OS's reason: a data error, or a config error (exit 1) for
# the config file.
OPENED_INPUTS = {"posts": "ingest", "stopwords": "prep", "equivalences": "prep",
                 "config": "ingest"}
UNOPENABLE = {"not-a-directory": "Not a directory",
              "symlink-loop": "Too many levels of symbolic links"}


@pytest.mark.parametrize("kind", sorted(UNOPENABLE))
@pytest.mark.parametrize("flag", sorted(OPENED_INPUTS))
def test_input_that_cannot_be_opened_is_one_line_with_the_reason(flag, kind, out_dir,
                                                                  tmp_path, capsys):
    out = tmp_path / "out"
    shutil.copytree(out_dir, out)
    if kind == "not-a-directory":
        (tmp_path / "file").write_text("", encoding="utf-8")
        path = tmp_path / "file" / "x"
    else:
        path = tmp_path / "loop1"
        os.symlink(tmp_path / "loop2", path)
        os.symlink(path, tmp_path / "loop2")
    capsys.readouterr()
    code = main([OPENED_INPUTS[flag], *fixture_flags(out), f"--{flag}", str(path)])
    err = capsys.readouterr().err
    if flag == "config":
        assert code == EXIT_VALIDATION
        assert err == f"config error: config file {path}: {UNOPENABLE[kind]}\n"
    else:
        assert code == EXIT_DATA
        assert err.startswith("data error: ") and err.count("\n") == 1
        assert str(path) in err and UNOPENABLE[kind] in err


# Each case appends a byte that is not UTF-8 to one artifact of a finished
# fixture run: (the stage that reads it, the file).
NON_UTF8_ARTIFACTS = {
    "nodes": ("clean", "build/nodes.txt"),
    "merged-edges": ("clean", "build/edges_merged.csv"),
    "layer-edges": ("clean", "build/edges_comment.csv"),
    "kept-nodes": ("rank", "clean/nodes_kept.txt"),
    "cleaned-arcs": ("rank", "clean/graph_cleaned.csv"),
    "ranking": ("report", "rank/authority.csv"),
    "histogram": ("report", "clean/scc_histogram.csv"),
    "metrics": ("report", "clean/metrics.json"),
    "ingest-posts": ("build", "ingest/posts.jsonl"),
}


@pytest.mark.parametrize("case", sorted(NON_UTF8_ARTIFACTS))
def test_non_utf8_artifact_is_data_error(case, out_dir, tmp_path, capsys):
    stage, artifact = NON_UTF8_ARTIFACTS[case]
    out = tmp_path / "out"
    shutil.copytree(out_dir, out)
    with open(out / artifact, "ab") as fh:
        fh.write(b"\xff\n")
    capsys.readouterr()
    assert main([stage, *fixture_flags(out)]) == EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and err.count("\n") == 1
    assert str(out / artifact) in err and "UTF-8" in err


def flags_with_extra_post(tmp_path, **fields):
    """Fixture flags whose posts file has one more post, by blog b99."""
    row = {"post_id": "p9901", "blog_id": "b99", "title": "t", "body": "b",
           "published_at": "2010-04-05T10:00:00Z", **fields}
    posts = tmp_path / "posts.jsonl"
    posts.write_bytes((SMALLBLOG / "posts.jsonl").read_bytes()
                      + (json.dumps(row) + "\n").encode("utf-8"))
    flags = fixture_flags(tmp_path / "out")
    flags[flags.index("--posts") + 1] = str(posts)
    return flags


@pytest.mark.parametrize("stamp", ["0999-05-01T10:00:00Z", "0001-01-01T05:00:00+03:30"])
def test_year_below_1000_survives_ingest_and_build(stamp, tmp_path):
    flags = flags_with_extra_post(tmp_path, published_at=stamp)
    for stage in ("ingest", "build"):
        assert main([stage, *flags]) == EXIT_OK, stage
    out = tmp_path / "out"
    assert manifest(out, "ingest")["counts"]["posts"]["accepted"] == 15
    assert manifest(out, "build")["counts"]["universe_blogs"] == (
        GROUND_TRUTH["build"]["universe_blogs"] + 1
    )
    assert "b99" in (out / "build/nodes.txt").read_text("utf-8").splitlines()


def test_timestamp_outside_utc_years_is_quarantined(tmp_path):
    stamp = "0001-01-01T00:00:00+03:30"
    flags = flags_with_extra_post(tmp_path, published_at=stamp)
    assert main(["ingest", *flags]) == EXIT_OK
    rows = [json.loads(line) for line in
            (tmp_path / "out/ingest/quarantine.jsonl").read_text("utf-8").splitlines()]
    assert {"file": "posts.jsonl", "line": 16,
            "reason": f"timestamp out of range in UTC: {stamp!r}"} in rows


def test_timestamp_offset_in_non_ascii_digits_is_quarantined(tmp_path):
    stamp = "2010-04-05T10:00:00+\u0660\u0663:\u0663\u0660"
    flags = flags_with_extra_post(tmp_path, published_at=stamp)
    assert main(["ingest", *flags]) == EXIT_OK
    rows = [json.loads(line) for line in
            (tmp_path / "out/ingest/quarantine.jsonl").read_text("utf-8").splitlines()]
    assert {"file": "posts.jsonl", "line": 16,
            "reason": f"unparseable timestamp: {stamp!r}"} in rows


def test_window_bound_in_non_ascii_digits_is_config_error(tmp_path, capsys):
    start = "2010-04-01T00:00:00+\u0660\u0663:\u0663\u0660"
    out = tmp_path / "out"
    capsys.readouterr()
    code = main(["ingest", *fixture_flags(out), "--window-start", start,
                 "--window-end", "2010-05-01T00:00:00Z"])
    assert code == EXIT_VALIDATION
    assert capsys.readouterr().err == (
        f"config error: profilestats.window_start is not an RFC 3339 timestamp: {start!r}\n")


def test_lone_surrogate_in_a_string_field_is_quarantined(tmp_path):
    flags = flags_with_extra_post(tmp_path, title="\ud800")
    assert main(["ingest", *flags]) == EXIT_OK
    out = tmp_path / "out"
    assert manifest(out, "ingest")["counts"]["posts"] == {"accepted": 14, "quarantined": 2}
    rows = [json.loads(line) for line in
            (out / "ingest/quarantine.jsonl").read_text("utf-8").splitlines()]
    assert {"file": "posts.jsonl", "line": 16,
            "reason": "field 'title' holds a lone surrogate"} in rows


@pytest.mark.parametrize("flags, warned", [
    ([], []),
    (["--max-iter", "1"], ["PageRank", "HITS"]),
])
def test_rank_warns_of_each_method_that_stops_unconverged(flags, warned, out_dir, tmp_path,
                                                          capsys):
    out = tmp_path / "out"
    shutil.copytree(out_dir, out)
    capsys.readouterr()
    assert main(["rank", *fixture_flags(out), *flags]) == EXIT_OK
    assert capsys.readouterr().err.splitlines() == [
        f"warning: {method} stopped unconverged after 1 iterations (ranking.max_iter 1)"
        for method in warned]
    counts = manifest(out, "rank")["counts"]
    assert [counts[key]["converged"] for key in ("pagerank", "hits")] == [not warned] * 2


def test_weighted_rank_reads_cleaned_weights(out_dir, tmp_path):
    out = tmp_path / "out"
    shutil.copytree(out_dir, out)
    assert main(["rank", *fixture_flags(out), "--weighted-rank", "yes"]) == EXIT_OK
    assert manifest(out, "rank")["counts"]["weighted"] is True
    expected = {}
    with open(out / "clean/graph_cleaned.csv", newline="") as fh:
        for _src, dst, weight in islice(csv.reader(fh), 1, None):
            expected[dst] = expected.get(dst, 0.0) + float(weight)
    assert max(expected.values()) > 1  # the fixture has heavier-than-1 arcs
    with open(out / "rank/indegree.csv", newline="") as fh:
        scores = {blog: float(score) for blog, score, _ in islice(csv.reader(fh), 1, None)}
    assert scores == {blog: expected.get(blog, 0.0) for blog in scores}
    with open(out / "rank/pagerank.csv", newline="") as fh:
        total = sum(float(score) for _, score, _ in islice(csv.reader(fh), 1, None))
    assert total == pytest.approx(1.0, abs=1e-9)


def test_blog_id_that_is_not_a_bare_slug_is_quarantined_at_ingest(tmp_path):
    flags = flags_with_extra_post(tmp_path, blog_id="b01/x")
    assert main(["ingest", *flags]) == EXIT_OK
    rows = [json.loads(line) for line in
            (tmp_path / "out/ingest/quarantine.jsonl").read_text("utf-8").splitlines()]
    assert {"file": "posts.jsonl", "line": 16,
            "reason": "not a bare blog slug: 'b01/x'"} in rows
    assert main(["build", *flags]) == EXIT_OK


@pytest.mark.parametrize("layer", ["blogroll", "comment", "citation"])
def test_clean_requires_and_records_each_layer_file(layer, out_dir, tmp_path, capsys):
    out = tmp_path / "out"
    shutil.copytree(out_dir, out)
    assert set(manifest(out, "clean")["inputs"]) == {
        "nodes", "edges", "edges_blogroll", "edges_comment", "edges_citation"}
    (out / f"build/edges_{layer}.csv").unlink()
    capsys.readouterr()
    assert main(["clean", *fixture_flags(out)]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith("stage error: ") and err.count("\n") == 1
    assert f"edges_{layer}.csv" in err


# Each case is a config-file value of a type its setting does not admit:
# (the stage run on a finished fixture tree, section, key, value).
WRONG_TYPED_CONFIG = {
    "min-component-size-true": ("clean", "graphclean", "min_component_size", True),
    "max-iter-true": ("rank", "ranking", "max_iter", True),
    "posts-number": ("ingest", "inputs", "posts", 5),
    "out-dir-number": ("report", "output", "out_dir", 5),
}


@pytest.mark.parametrize("case", sorted(WRONG_TYPED_CONFIG))
def test_wrong_typed_config_value_is_config_error(case, out_dir, tmp_path, capsys):
    stage, section, key, value = WRONG_TYPED_CONFIG[case]
    out = tmp_path / "out"
    shutil.copytree(out_dir, out)
    config = json.loads((SMALLBLOG / "config.json").read_text("utf-8"))
    config["inputs"] = {name: str(SMALLBLOG / path) for name, path in config["inputs"].items()}
    config["output"]["out_dir"] = str(out)
    config.setdefault(section, {})[key] = value
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    capsys.readouterr()
    assert main([stage, "--config", str(config_path)]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {section}.{key} must be ") and err.count("\n") == 1


@pytest.mark.parametrize("extra", [None, 5, {}])
def test_report_prints_only_the_three_layers(extra, out_dir, tmp_path):
    out = tmp_path / "out"
    shutil.copytree(out_dir, out)
    metrics_path = out / "clean/metrics.json"
    metrics = json.loads(metrics_path.read_text("utf-8"))
    metrics["layers"]["x"] = extra
    metrics_path.write_text(json.dumps(metrics), encoding="utf-8")
    assert main(["report", *fixture_flags(out)]) == EXIT_OK
    assert (out / "report/report.txt").read_bytes() == (out_dir / "report/report.txt").read_bytes()


def test_half_set_window_is_config_error_at_ingest(tmp_path, capsys):
    out = tmp_path / "out"
    capsys.readouterr()
    code = main(["ingest", *fixture_flags(out), "--window-start", "2013-01-01T00:00:00"])
    assert code == EXIT_VALIDATION
    assert capsys.readouterr().err == (
        "config error: profilestats.window_start and window_end must be set together\n")
    assert not out.exists()


# stage -> (its manifest's input keys, its manifest's outputs) on a fixture run
MANIFEST_FILES = {
    "ingest": ({"posts", "comments", "blogroll", "profiles"},
               ["blogroll.jsonl", "comments.jsonl", "posts.jsonl", "profiles.jsonl",
                "quarantine.jsonl"]),
    "prep": ({"posts"}, ["similarity.csv", "vectors.jsonl", "vocabulary.csv"]),
    "build": ({"posts", "comments", "blogroll", "profiles"},
              ["edges_blogroll.csv", "edges_citation.csv", "edges_comment.csv",
               "edges_merged.csv", "graph.dot", "nodes.txt"]),
    "clean": ({"nodes", "edges", "edges_blogroll", "edges_comment", "edges_citation"},
              ["graph_cleaned.csv", "metrics.json", "nodes_kept.txt", "scc_histogram.csv"]),
    "rank": ({"nodes", "arcs"}, ["authority.csv", "hub.csv", "indegree.csv", "pagerank.csv"]),
    "stats": ({"posts", "comments", "profiles"},
              ["age_histogram.csv", "comments_per_post.csv", "posts_by_hour.csv",
               "posts_by_month.csv", "report.json"]),
    "report": ({"metrics", "scc_histogram", "stats", "indegree", "pagerank", "hub",
                "authority"}, ["report.json", "report.txt"]),
}


@pytest.mark.parametrize("stage", ALL_STAGES)
def test_manifest_lists_what_the_stage_read_and_wrote(stage, out_dir):
    inputs, outputs = MANIFEST_FILES[stage]
    recorded = manifest(out_dir, stage)
    assert set(recorded["inputs"]) == inputs
    assert recorded["outputs"] == outputs
    written = sorted(p.name for p in (out_dir / stage).iterdir() if p.name != "manifest.json")
    assert written == outputs


def test_edge_columns_are_the_edge_fields():
    # build writes each graphbuild.Edge as one row under the EDGE_COLUMNS header
    assert tuple(EDGE_COLUMNS) == graphbuild.Edge._fields


# Each plain record is a named tuple, so it unpacks and compares as a tuple
# and turns into a dict through ``_asdict``: "module.Record" -> its fields.
RECORD_FIELDS = {
    "ingest.RawPost": "post_id blog_id title body published_at",
    "ingest.RawComment": "comment_id post_id commenter_blog_id body created_at",
    "ingest.BlogrollRecord": "owner_blog_id target_url",
    "ingest.ProfileRecord": "blog_id age gender education marital_status",
    "ingest.QuarantinedLine": "file line reason",
    "ingest.LoadResult": "records quarantined",
    "textprep.NormalizedDocument": "blog_id tokens",
    "textprep.Vocabulary": "terms df index",
    "textprep.DocumentVector": "blog_id weights",
    "textprep.SimilarityMatrix": "blog_ids values",
    "graphclean.GraphMetrics":
        "nodes edges degree_avg density clustering_coefficient scc_count",
    "ranking.RankScores": "kind scores iterations_used converged",
    "profilestats.CommentStats": "mean histogram over_threshold threshold matched_comments",
    "profilestats.Demographics":
        "profile_count age_mean age_median ages_present age_histogram gender_counts "
        "male_female_ratio education_counts marital_counts",
    "profilestats.StatsReport":
        "blogger_count active_count post_count comment_count demographics posts_by_hour "
        "posts_by_month comments",
    "graphbuild.LayeredGraph": "nodes edges arcs",
}


@pytest.mark.parametrize("name", sorted(RECORD_FIELDS))
def test_record_is_a_named_tuple_of_its_fields(name):
    module, record = name.split(".")
    cls = getattr(importlib.import_module(f"blognet.{module}"), record)
    assert issubclass(cls, tuple)
    assert cls._fields == tuple(RECORD_FIELDS[name].split())


# Each case runs ingest and prep on the fixture plus one post by b99 with a
# body: (extra flags, {file name: content} of the files the flags name, the
# body, terms the vocabulary must list, terms it must not). Stop words and
# equivalences are normalized as the documents are.
PREP_NORMALIZATION = {
    "packaged-stopwords-without-alef-unification": (
        ["--unify-alef", "no"], {}, "آنها آنجا آمد دریاچه",
        {"دریاچه"}, {"آن", "آنها", "آنجا", "آمد"}),
    "equivalence-without-alef-unification": (
        ["--unify-alef", "no", "--equivalences", "eq.tsv"], {"eq.tsv": "آسمان\tفلک\n"},
        "آسمان", {"فلک"}, {"آسمان"}),
    "stopword-file-through-equivalences": (
        ["--stopwords", "stop.txt", "--equivalences", "eq.tsv"],
        {"stop.txt": "میشه\n", "eq.tsv": "میشه\tمیشود\n"},
        "میشه میشود باران", {"باران"}, {"میشه", "میشود"}),
    "packaged-stopwords-through-equivalences": (
        ["--equivalences", "eq.tsv"], {"eq.tsv": "خیلی\tفراوان\n"},
        "خیلی فراوان باران", {"باران"}, {"خیلی", "فراوان"}),
}


@pytest.mark.parametrize("case", sorted(PREP_NORMALIZATION))
def test_stopwords_and_equivalences_normalized_as_documents(case, tmp_path):
    flags, files, body, listed, unlisted = PREP_NORMALIZATION[case]
    for name, content in files.items():
        (tmp_path / name).write_text(content, encoding="utf-8")
    flags = [*flags_with_extra_post(tmp_path, body=body),
             *(str(tmp_path / f) if f in files else f for f in flags)]
    for stage in ("ingest", "prep"):
        assert main([stage, *flags]) == EXIT_OK, stage
    with open(tmp_path / "out/prep/vocabulary.csv", encoding="utf-8", newline="") as fh:
        terms = {row[0] for row in islice(csv.reader(fh), 1, None)}
    assert listed <= terms
    assert not unlisted & terms


@pytest.mark.parametrize("names", [["stopwords"], ["equivalences"], ["stopwords", "equivalences"]])
def test_prep_manifest_hashes_stopword_and_equivalence_files(names, out_dir, tmp_path):
    out = tmp_path / "out"
    shutil.copytree(out_dir, out)
    contents = {"stopwords": "و\n", "equivalences": "میشه\tمیشود\n"}
    flags = []
    for name in names:
        path = tmp_path / f"{name}.txt"
        path.write_text(contents[name], encoding="utf-8")
        flags += [f"--{name}", str(path)]
    assert main(["prep", *fixture_flags(out), *flags]) == EXIT_OK
    inputs = manifest(out, "prep")["inputs"]
    assert inputs == {
        "posts": manifest(out_dir, "prep")["inputs"]["posts"],
        **{name: hashlib.sha256(contents[name].encode()).hexdigest() for name in names},
    }


@pytest.mark.parametrize("flag", ["--stopwords", "--equivalences"])
def test_missing_stopword_or_equivalence_file_is_data_error(flag, out_dir, tmp_path, capsys):
    out = tmp_path / "out"
    shutil.copytree(out_dir, out)
    missing = tmp_path / "nowhere.txt"
    capsys.readouterr()
    assert main(["prep", *fixture_flags(out), flag, str(missing)]) == EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and err.count("\n") == 1
    assert str(missing) in err


def rewrite_ingest_artifact(out, name, edit):
    """Apply ``edit`` to the lines of ingest artifact ``name`` and record the
    new bytes' digest in ingest's manifest, as if ingest had written them."""
    path = out / "ingest" / name
    lines = edit(path.read_text("utf-8").splitlines())
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    manifest_path = out / "ingest/manifest.json"
    recorded = json.loads(manifest_path.read_text("utf-8"))
    recorded["output_sha256"][name] = hashlib.sha256(path.read_bytes()).hexdigest()
    manifest_path.write_text(json.dumps(recorded), encoding="utf-8")


def edit_first_row(**fields):
    """An edit that sets ``fields`` on the first row; ``...`` drops a field."""
    def edit(lines):
        row = json.loads(lines[0])
        row.update(fields)
        return [json.dumps({k: v for k, v in row.items() if v is not ...}), *lines[1:]]
    return edit


def tamper_ingest_artifact(out, name, edit, manifest):
    """Apply ``edit`` to ingest artifact ``name``, then record the new bytes'
    digest in ingest's manifest ("re-recorded") or remove the manifest."""
    rewrite_ingest_artifact(out, name, edit)
    if manifest == "removed":
        (out / "ingest/manifest.json").unlink()


# what becomes of ingest's manifest once an artifact is tampered with; each
# tampering case runs with both and must say the same
MANIFESTS = ["re-recorded", "removed"]

# Each case rewrites one ingest artifact: (stage, artifact, edit, what the
# one-line message must name besides ``file:line``).
TAMPERED_INGEST_LINES = {
    "post-missing-field": ("build", "posts.jsonl", edit_first_row(title=...), "'title'"),
    "profile-string-age": ("stats", "profiles.jsonl", edit_first_row(age="21"), "'age'"),
    "comment-offsetless-timestamp": (
        "stats", "comments.jsonl", edit_first_row(created_at="2010-04-06T09:00:00"),
        "'created_at'"),
    "blogroll-not-json": ("build", "blogroll.jsonl", lambda lines: ["{broken", *lines[1:]],
                          "invalid JSON"),
    "post-not-an-object": ("stats", "posts.jsonl", lambda lines: ["[]", *lines[1:]],
                           "line is not a JSON object"),
    "post-lone-surrogate": ("prep", "posts.jsonl", edit_first_row(blog_id="\ud800"),
                            "'blog_id' holds a lone surrogate"),
    "profile-huge-age": ("stats", "profiles.jsonl", edit_first_row(age=10 ** 400), "age"),
    "comment-extra-field": ("stats", "comments.jsonl", edit_first_row(extra=1),
                            "unexpected field 'extra'"),
    "comment-lone-surrogate-in-timestamp": (
        "stats", "comments.jsonl", edit_first_row(created_at="2010-04-06T09:00:0\ud800Z"),
        "unparseable timestamp: '2010-04-06T09:00:0\\ud800Z'"),
    # values that ingest would have rejected or written otherwise
    "profile-gender-outside-its-enum": ("stats", "profiles.jsonl", edit_first_row(gender="robot"),
                                        "field 'gender' must be one of"),
    "blogroll-ftp-url": ("build", "blogroll.jsonl",
                         edit_first_row(target_url="ftp://b02.blogville.example/"),
                         "invalid URL 'ftp://b02.blogville.example/'"),
    "comment-id-with-spaces": ("stats", "comments.jsonl", edit_first_row(comment_id=" c01 "),
                               "field 'comment_id' is not a canonical id: ' c01 '"),
    "post-id-with-spaces": ("stats", "posts.jsonl", edit_first_row(post_id=" p0101 "),
                            "field 'post_id' is not a canonical id: ' p0101 '"),
    # a blog id field holding what ingest never writes: not folded, not bare
    # or empty
    **{f"{name}-{field}-{value!r}": ("build", f"{name}.jsonl", edit_first_row(**{field: value}),
                                     named.format(field=field, value=value))
       for name, field in [("posts", "blog_id"), ("comments", "commenter_blog_id"),
                           ("blogroll", "owner_blog_id"), ("profiles", "blog_id")]
       for value, named in [("B01", "{field!r} is not a canonical blog id: {value!r}"),
                            (" b01", "{field!r} is not a canonical blog id: {value!r}"),
                            ("b01/x", "not a bare blog slug: {value!r}"),
                            ("", "{field!r} is empty")]},
}


@pytest.mark.parametrize("case", sorted(TAMPERED_INGEST_LINES))
def test_tampered_ingest_artifact_is_one_line_data_error(case, out_dir, tmp_path, capsys):
    stage, name, edit, named = TAMPERED_INGEST_LINES[case]
    said = set()
    for manifest in MANIFESTS:
        out = tmp_path / manifest
        shutil.copytree(out_dir, out)
        tamper_ingest_artifact(out, name, edit, manifest)
        capsys.readouterr()
        assert main([stage, *fixture_flags(out)]) == EXIT_DATA, manifest
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and err.count("\n") == 1
        assert f"{out / 'ingest' / name}:1: " in err and named in err
        said.add(err.replace(str(out), "<out>"))
    assert len(said) == 1, said


# Each case repeats a key or breaks a reference in an ingest artifact:
# (stage, artifact, edit, the message after ``file:``, which names the
# faulty line).
TAMPERED_KEYS_AND_REFERENCES = {
    "repeated-post": ("stats", "posts.jsonl", lambda lines: [*lines, lines[0]],
                      "15: duplicate id 'p0101'"),
    "comment-on-an-unknown-post": (
        "build", "comments.jsonl",
        lambda lines: [*lines[:-1], json.dumps({**json.loads(lines[-1]), "post_id": "nope"})],
        "9: unknown post_id 'nope'"),
    "empty-comment-id": (
        "stats", "comments.jsonl",
        lambda lines: [*lines[:4], json.dumps({**json.loads(lines[4]), "comment_id": ""}),
                       *lines[5:]],
        "5: field 'comment_id' is empty"),
}


@pytest.mark.parametrize("case", sorted(TAMPERED_KEYS_AND_REFERENCES))
def test_reload_checks_keys_and_references(case, out_dir, tmp_path, capsys):
    stage, name, edit, message = TAMPERED_KEYS_AND_REFERENCES[case]
    for manifest in MANIFESTS:
        out = tmp_path / manifest
        shutil.copytree(out_dir, out)
        tamper_ingest_artifact(out, name, edit, manifest)
        capsys.readouterr()
        assert main([stage, *fixture_flags(out)]) == EXIT_DATA, manifest
        assert capsys.readouterr().err == f"data error: {out / 'ingest' / name}:{message}\n"


# Each case garbles ingest's manifest, which no later stage reads.
GARBLED_INGEST_MANIFESTS = {
    "truncated": lambda text: text[:-20],
    "no-output-digests": lambda text: json.dumps(
        {k: v for k, v in json.loads(text).items() if k != "output_sha256"}),
    "digests-not-an-object": lambda text: json.dumps({**json.loads(text), "output_sha256": []}),
    "array": lambda text: "[]",
    "missing": None,
}


@pytest.mark.parametrize("case", sorted(GARBLED_INGEST_MANIFESTS))
def test_garbled_ingest_manifest_falls_back_to_the_loaders(case, out_dir, tmp_path):
    out = tmp_path / "out"
    shutil.copytree(out_dir, out)
    manifest_path = out / "ingest/manifest.json"
    garble = GARBLED_INGEST_MANIFESTS[case]
    if garble is None:
        manifest_path.unlink()
    else:
        manifest_path.write_text(garble(manifest_path.read_text("utf-8")), encoding="utf-8")
    for stage in ("prep", "build", "stats"):
        assert main([stage, *fixture_flags(out)]) == EXIT_OK, stage
        for path in (out_dir / stage).iterdir():
            assert (out / stage / path.name).read_bytes() == path.read_bytes(), path


# Each case names a directory where a stage reads a file: (stage, flag,
# value); the empty path is the current directory.
DIRECTORY_INPUTS = {
    "posts-empty-path": ("ingest", "--posts", ""),
    "stopwords-directory": ("prep", "--stopwords", "{tmp}"),
    "stopwords-empty-path": ("prep", "--stopwords", ""),
    "equivalences-empty-path": ("prep", "--equivalences", ""),
}


@pytest.mark.parametrize("case", sorted(DIRECTORY_INPUTS))
def test_directory_as_input_path_is_data_error(case, out_dir, tmp_path, capsys):
    stage, flag, value = DIRECTORY_INPUTS[case]
    out = tmp_path / "out"
    shutil.copytree(out_dir, out)
    capsys.readouterr()
    assert main([stage, *fixture_flags(out), flag, value.format(tmp=tmp_path)]) == EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and err.count("\n") == 1
    assert "Is a directory" in err


def _numpy_blas_is_dynamic_arch_openblas() -> bool:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # a numpy that cannot report its build
        return False
    return ("openblas" in blas.get("name", "")
            and "DYNAMIC_ARCH" in blas.get("openblas configuration", ""))


@pytest.mark.skipif(not _numpy_blas_is_dynamic_arch_openblas(),
                    reason="needs numpy on a DYNAMIC_ARCH OpenBLAS, whose kernel "
                           "OPENBLAS_CORETYPE selects")
def test_rank_bytes_do_not_depend_on_the_blas_kernel(out_dir, tmp_path):
    src = str(Path(blognet.__file__).resolve().parent.parent)
    base = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
    base["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    trees = {}
    for name, env in (("default", base), ("prescott", {**base, "OPENBLAS_CORETYPE": "Prescott"})):
        out = tmp_path / name
        shutil.copytree(out_dir, out)
        subprocess.run([sys.executable, "-m", "blognet.cli", "rank", *fixture_flags(out)],
                       env=env, check=True, capture_output=True, timeout=120)
        trees[name] = {p.name: p.read_bytes() for p in (out / "rank").iterdir()}
    assert trees["prescott"] == trees["default"]


def _numpy_cpu_dispatch() -> list[str]:
    """The CPU features numpy's own SIMD kernels dispatch on at run time on
    this build (empty where the build has none or does not say)."""
    try:
        from numpy._core import _multiarray_umath
    except ImportError:  # numpy < 2
        return []
    return list(getattr(_multiarray_umath, "__cpu_dispatch__", []))


@pytest.mark.skipif(not _numpy_cpu_dispatch(),
                    reason="numpy was built without run-time SIMD dispatch")
def test_prep_and_rank_bytes_do_not_depend_on_numpy_simd_dispatch(out_dir, tmp_path):
    # NPY_DISABLE_CPU_FEATURES turns off every dispatched kernel, so numpy's
    # sums and products run on its baseline code path
    src = str(Path(blognet.__file__).resolve().parent.parent)
    base = {k: v for k, v in os.environ.items() if k != "NPY_DISABLE_CPU_FEATURES"}
    base["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    baseline = {**base, "NPY_DISABLE_CPU_FEATURES": " ".join(_numpy_cpu_dispatch())}
    trees = {}
    for name, env in (("default", base), ("baseline", baseline)):
        out = tmp_path / name
        shutil.copytree(out_dir, out)
        for stage in ("prep", "rank"):
            subprocess.run([sys.executable, "-m", "blognet.cli", stage, *fixture_flags(out)],
                           env=env, check=True, capture_output=True, timeout=120)
        trees[name] = {f"{stage}/{p.name}": p.read_bytes()
                       for stage in ("prep", "rank") for p in (out / stage).iterdir()}
    assert trees["baseline"] == trees["default"]


def tampered_reads(out_dir) -> list[tuple[str, str]]:
    """(artifact, the stage that reads it) for every upstream artifact a
    stage of the run in ``out_dir`` read: each input digest in a stage's
    manifest matched to the files whose digests the manifests record."""
    written: dict[str, list[str]] = {}
    for stage in ALL_STAGES:
        for name, digest in manifest(out_dir, stage)["output_sha256"].items():
            written.setdefault(digest, []).append(f"{stage}/{name}")
    return sorted({(artifact, stage) for stage in ALL_STAGES
                   for digest in manifest(out_dir, stage)["inputs"].values()
                   for artifact in written.get(digest, [])})


TAMPER_VALUES = {"nan": "NaN", "inf": "Infinity", "-1": "-1", "1e400": "1e400", "": '""'}


def tampered_bytes(artifact: str, data: bytes) -> dict[str, bytes]:
    """Name -> the bytes of one mutation of ``artifact``: byte and line edits
    for every file, the first field of the first record and the last field of
    the last set to each of ``TAMPER_VALUES`` (CSV text or JSON token) for a
    CSV or JSONL file, and each field of the first record set to a value of
    the wrong JSON type for a JSONL file."""
    lines = data.decode("utf-8").splitlines()
    first = 1 if artifact.endswith(".csv") else 0  # the first record's line

    def with_line(i: int, line: str) -> bytes:
        edited = list(lines)
        edited[i] = line
        return "".join(f"{x}\n" for x in edited).encode("utf-8")

    mutations = {
        "empty": b"",
        "truncated": data[:len(data) // 2],
        "duplicated-line": data + lines[-1].encode("utf-8") + b"\n",
        "dropped-header": data.split(b"\n", 1)[1],
        "crlf": data.replace(b"\n", b"\r\n"),
        "bom": "\ufeff".encode("utf-8") + data,
        "nul": with_line(first, lines[first][:1] + "\0" + lines[first][1:]),
    }
    for text, token in TAMPER_VALUES.items():
        for where, i, j in (("first", first, 0), ("last", -1, -1)):
            if artifact.endswith(".csv"):
                fields = lines[i].split(",")
                fields[j] = text
                mutations[f"{where}-field-{text or 'empty'}"] = with_line(i, ",".join(fields))
            elif artifact.endswith(".jsonl"):
                record = json.loads(lines[i])
                key = list(record)[j]
                items = (f"{json.dumps(k)}: {token if k == key else json.dumps(v)}"
                         for k, v in record.items())
                mutations[f"{where}-field-{text or 'empty'}"] = with_line(
                    i, "{" + ", ".join(items) + "}")
    if artifact.endswith(".jsonl"):
        for key, value in json.loads(lines[0]).items():
            wrong = 7 if isinstance(value, str) else "7"
            mutations[f"wrong-type-{key}"] = with_line(
                0, json.dumps({**json.loads(lines[0]), key: wrong}))
    return mutations


def test_tampered_artifact_is_exit_0_or_one_line_data_error(out_dir, tmp_path, capsys):
    # every (artifact, stage) read of the fixture run, each with every one
    # of its mutations; an ingest artifact's digest is either left as ingest
    # recorded it or set to the mutated bytes', which must not change what
    # the stage says
    reads = tampered_reads(out_dir)
    assert {f"{stage}/{name}" for stage, name in CSV_ARTIFACTS} <= {a for a, _ in reads}
    assert {f"ingest/{name}" for name in ("posts.jsonl", "comments.jsonl", "blogroll.jsonl",
                                          "profiles.jsonl")} <= {a for a, _ in reads}
    failures = []
    for artifact, stage in reads:
        mutations = tampered_bytes(artifact, (out_dir / artifact).read_bytes())
        digests = (False, True) if artifact.startswith("ingest/") else (False,)
        said = {}
        for name, record_digest in sorted((name, d) for name in mutations for d in digests):
            out = tmp_path / "out"
            shutil.rmtree(out, ignore_errors=True)
            shutil.copytree(out_dir, out)
            (out / artifact).write_bytes(mutations[name])
            if record_digest:
                ingest_manifest = out / "ingest/manifest.json"
                recorded = json.loads(ingest_manifest.read_text("utf-8"))
                recorded["output_sha256"][Path(artifact).name] = hashlib.sha256(
                    mutations[name]).hexdigest()
                ingest_manifest.write_text(json.dumps(recorded), encoding="utf-8")
            case = f"{stage} on {artifact} {name}{' (digest recorded)' * record_digest}"
            capsys.readouterr()
            try:
                code = main([stage, *fixture_flags(out)])
            except Exception as err:  # a traceback, which the CLI must never end in
                failures.append(f"{case}: {type(err).__name__}: {err}")
                continue
            err = capsys.readouterr().err
            if not (code == EXIT_OK or (code == EXIT_DATA and err.startswith("data error: ")
                                        and err.count("\n") == 1)):
                failures.append(f"{case}: exit {code}: {err!r}")
            if said.setdefault(name, (code, err)) != (code, err):
                failures.append(f"{case}: exit {code}: {err!r}, but {said[name]} "
                                "with the digest ingest recorded")
    assert not failures


@pytest.mark.parametrize("case", ["not-utf8", "directory"])
def test_unreadable_config_file_is_one_config_error(case, tmp_path, capsys):
    config = tmp_path / "config.json"
    if case == "not-utf8":
        config.write_bytes(b"{}\xff")
    else:
        config.mkdir()
    capsys.readouterr()
    assert main(["ingest", "--config", str(config)]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert str(config) in err


def test_host_patterns_are_case_insensitive_in_the_config(out_dir, tmp_path):
    out = tmp_path / "out"
    shutil.copytree(out_dir / "ingest", out / "ingest")
    flags = fixture_flags(out)
    flags[flags.index("--host-patterns") + 1] = "{BLOG}.Blogville.example"
    assert main(["build", *flags]) == EXIT_OK
    for name in ("edges_blogroll.csv", "edges_comment.csv", "edges_citation.csv",
                 "edges_merged.csv", "nodes.txt", "graph.dot"):
        assert (out / "build" / name).read_bytes() == (out_dir / "build" / name).read_bytes(), name


def test_rank_and_report_on_an_arcless_cleaned_graph(out_dir, tmp_path):
    out = tmp_path / "out"
    shutil.copytree(out_dir, out)
    flags = [*fixture_flags(out), "--min-component-size", "1000"]
    for stage in ("clean", "rank", "report"):
        assert main([stage, *flags]) == EXIT_OK, stage
    assert (out / "clean/nodes_kept.txt").read_bytes() == b""
    for kind in ("hub", "authority"):
        assert (out / f"rank/{kind}.csv").read_text("utf-8") == "blog_id,score,rank\n"
    assert manifest(out, "rank")["counts"]["hits"] == {"skipped": "graph has no arcs"}
    text = (out / "report/report.txt").read_text("utf-8")
    for kind in ("indegree", "pagerank", "hub", "authority"):
        assert f"top blogs by {kind}\n  (none)\n" in text


def test_ingest_without_inputs_names_each_missing_setting(tmp_path, capsys):
    capsys.readouterr()
    assert main(["ingest", "--out-dir", str(tmp_path / "out")]) == EXIT_VALIDATION
    assert capsys.readouterr().err.splitlines() == [
        f"config error: inputs.{name} is required for this stage"
        for name in ("posts", "comments", "blogroll", "profiles")
    ]
    assert not (tmp_path / "out").exists()


DEEP_ARRAY = "[" * 100_000 + "]" * 100_000
DEEP_OBJECT = '{"a": ' * 100_000 + "1" + "}" * 100_000
LONG_AGE = '{"blog_id": "b98", "age": ' + "9" * 5_000 + "}"

# Each case puts JSON that ``json`` rejects with other than a JSONDecodeError
# (nesting past the recursion limit, an integer literal past the digit limit)
# where a stage reads it: (stage, the file: a dump file, the config file or a
# file of the output tree; how the text goes in: "append" a line, "digest"
# (append it and record the new digest) or "write"
# the file; the text; the exit code; what the quarantine or stderr says).
UNDECODABLE_JSON = {
    "dump-line-deep": ("ingest", "posts.jsonl", "append", DEEP_ARRAY, EXIT_OK,
                       "invalid JSON: nested too deeply"),
    "dump-line-long-int": ("ingest", "profiles.jsonl", "append", LONG_AGE, EXIT_OK,
                           "invalid JSON: integer literal too long"),
    "config-deep": ("ingest", "config.json", "write", DEEP_ARRAY, EXIT_VALIDATION,
                    "config error: config file {path}: not valid JSON: nested too deeply"),
    "config-long-int": ("ingest", "config.json", "write",
                        '{"ranking": {"max_iter": ' + "9" * 5_000 + "}}", EXIT_VALIDATION,
                        "config error: config file {path}: not valid JSON: "
                        "integer literal too long"),
    "validating-reload-deep": ("build", "out/ingest/posts.jsonl", "append", DEEP_ARRAY,
                               EXIT_DATA, "invalid JSON: nested too deeply"),
    "validating-reload-long-int": ("stats", "out/ingest/profiles.jsonl", "append", LONG_AGE,
                                   EXIT_DATA, "invalid JSON: integer literal too long"),
    "validating-reload-deep-digest-recorded": (
        "build", "out/ingest/posts.jsonl", "digest", DEEP_ARRAY, EXIT_DATA,
        "invalid JSON: nested too deeply"),
    "report-metrics-deep": ("report", "out/clean/metrics.json", "write", DEEP_OBJECT,
                            EXIT_DATA, "invalid JSON: nested too deeply"),
    # no later stage reads ingest's manifest
    "ingest-manifest-deep": ("stats", "out/ingest/manifest.json", "write", DEEP_ARRAY,
                             EXIT_OK, ""),
}


@pytest.mark.parametrize("case", sorted(UNDECODABLE_JSON))
def test_json_that_json_cannot_decode_is_quarantined_or_one_line(case, out_dir, tmp_path,
                                                                 capsys):
    stage, name, how, text, code, said = UNDECODABLE_JSON[case]
    out = tmp_path / "out"
    shutil.copytree(out_dir, out)
    flags = fixture_flags(out)
    path = tmp_path / name
    if name == "config.json":
        flags += ["--config", str(path)]
    elif not name.startswith("out/"):  # a copy of the dump file
        shutil.copy(SMALLBLOG / name, path)
        flags[flags.index(f"--{path.stem}") + 1] = str(path)
    if how == "digest":
        rewrite_ingest_artifact(out, path.name, lambda lines: [*lines, text])
    elif how == "append":
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        path.write_text(text, encoding="utf-8")
    line = len(path.read_text("utf-8").splitlines())
    capsys.readouterr()
    assert main([stage, *flags]) == code
    err = capsys.readouterr().err
    if code == EXIT_VALIDATION:
        assert err == f"{said.format(path=path)}\n"
    elif code == EXIT_DATA:
        where = f"{path}:{line}" if path.suffix == ".jsonl" else f"{path}"
        assert err.startswith(f"data error: {where}: {said}") and err.count("\n") == 1
    elif stage == "ingest":
        rows = [json.loads(row) for row in
                (out / "ingest/quarantine.jsonl").read_text("utf-8").splitlines()]
        assert err == "" and {"file": name, "line": line, "reason": said} in rows
    else:  # the stage read the untouched artifacts and wrote the same files
        assert err == ""
        for done in (out_dir / stage).iterdir():
            assert (out / stage / done.name).read_bytes() == done.read_bytes(), done.name


@pytest.mark.parametrize("sub", ["", "sub"])
def test_out_dir_through_a_file_is_one_config_error(sub, tmp_path, capsys):
    file = tmp_path / "file"
    file.write_text("kept", encoding="utf-8")
    out = file / sub
    capsys.readouterr()
    assert main(["ingest", *fixture_flags(out)]) == EXIT_VALIDATION
    assert capsys.readouterr().err == f"config error: output.out_dir {out}: Not a directory\n"
    assert list(tmp_path.iterdir()) == [file] and file.read_text("utf-8") == "kept"


def tree(out: Path) -> dict[str, bytes | None]:
    """Each path under ``out``: a file's bytes, or None for a directory."""
    return {path.relative_to(out).as_posix(): path.read_bytes() if path.is_file() else None
            for path in (out.rglob("*") if out.exists() else ())}


# a fault ingest finds in a dump file it reads after the posts: (the file, a
# line that makes it faulty)
LATE_FAULTS = {
    "comments": ("comments.jsonl", (SMALLBLOG / "comments.jsonl").read_bytes().splitlines()[0]),
    "profiles": ("profiles.jsonl", b"\xff"),
}


@pytest.mark.parametrize("earlier_run", [False, True])
@pytest.mark.parametrize("case", sorted(LATE_FAULTS))
def test_an_ingest_that_fails_after_reading_the_posts_leaves_the_tree_as_it_was(
        case, earlier_run, tmp_path, capsys):
    """ingest writes the posts before it reads the comments, so it stages its
    files and puts them in place only when it succeeds: a fault in a later
    file leaves no ingest directory, or an earlier run's unchanged, not the
    posts of this run beside the other files of that one."""
    out = tmp_path / "out"
    if earlier_run:
        assert main(["ingest", *fixture_flags(out)]) == EXIT_OK
        assert (out / "ingest").is_dir()
    before = tree(out)
    flags = flags_with_extra_post(tmp_path)  # other posts than the earlier run's
    name, line = LATE_FAULTS[case]
    faulty = tmp_path / name
    faulty.write_bytes((SMALLBLOG / name).read_bytes() + line + b"\n")
    flags[flags.index(f"--{case}") + 1] = str(faulty)
    capsys.readouterr()
    assert main(["ingest", *flags]) == EXIT_DATA
    assert capsys.readouterr().err.startswith(f"data error: {name}:" if case == "comments"
                                              else f"data error: {faulty}")
    assert tree(out) == before
    assert (out / "ingest").exists() == earlier_run


@pytest.mark.parametrize("out_dir, existed", [("out", False), ("a/b/out", False), ("out", True)])
def test_a_failed_stage_removes_the_directories_it_made(out_dir, existed, tmp_path, capsys):
    """The out-dir and the parents that the stage made for its staging
    directory go with it; an out-dir that was there stays, empty."""
    run = tmp_path / "run"
    run.mkdir()
    if existed:
        (run / out_dir).mkdir()
    comments = tmp_path / "comments.jsonl"
    comments.write_bytes((SMALLBLOG / "comments.jsonl").read_bytes()
                         + LATE_FAULTS["comments"][1] + b"\n")
    flags = fixture_flags(run / out_dir)
    flags[flags.index("--comments") + 1] = str(comments)
    assert main(["ingest", *flags]) == EXIT_DATA
    assert capsys.readouterr().err.startswith("data error: comments.jsonl:")
    assert tree(run) == ({out_dir: None} if existed else {})


def test_a_stage_rerun_replaces_its_directory_and_clears_a_killed_runs_files(tmp_path):
    out = tmp_path / "out"
    run_pipeline(out, ["ingest"])
    written = tree(out)
    (out / "ingest/stray.txt").write_text("not ingest's", encoding="utf-8")
    (out / ".ingest.partial").mkdir()  # as a run killed while writing leaves it
    (out / ".ingest.partial/posts.jsonl").write_text("half", encoding="utf-8")
    run_pipeline(out, ["ingest"])
    assert tree(out) == written


# a post at the end of the datetime range: stats would read it one second on
# (the dataset window's end), or at the dump's +03:30
@pytest.mark.parametrize("stamp, reason", [
    ("9999-12-31T23:59:59Z", "timestamp out of range in UTC"),
    ("9999-12-31T22:00:00Z", "timestamp out of range at the dump offset"),
])
def test_timestamp_at_the_end_of_the_range_is_quarantined(stamp, reason, tmp_path):
    flags = flags_with_extra_post(tmp_path, published_at=stamp)
    for stage in ("ingest", "stats"):
        assert main([stage, *flags]) == EXIT_OK, stage
    out = tmp_path / "out"
    rows = [json.loads(line) for line in
            (out / "ingest/quarantine.jsonl").read_text("utf-8").splitlines()]
    assert {"file": "posts.jsonl", "line": 16, "reason": f"{reason}: {stamp!r}"} in rows
    assert manifest(out, "stats")["counts"]["posts"] == GROUND_TRUTH["stats"]["post_count"]


# ingest reads each post at +03:30; stats at another offset may not
@pytest.mark.parametrize("stamp, minutes", [
    ("9999-12-31T20:00:00Z", "960"),
    ("0001-01-01T10:00:00Z", "-960"),
])
def test_post_stats_cannot_read_at_its_offset_is_one_data_error(stamp, minutes, tmp_path,
                                                                 capsys):
    flags = flags_with_extra_post(tmp_path, published_at=stamp)
    assert main(["ingest", *flags]) == EXIT_OK
    capsys.readouterr()
    assert main(["stats", *flags, "--utc-offset-minutes", minutes]) == EXIT_DATA
    posts = tmp_path / "out/ingest/posts.jsonl"
    line = len(posts.read_text("utf-8").splitlines())
    assert capsys.readouterr().err == (
        f"data error: {posts}:{line}: timestamp out of range at the dump offset: {stamp!r}\n")
    assert not (tmp_path / "out/stats").exists()
    # only stats reads the posts in local time
    for stage in ("prep", "build"):
        assert main([stage, *flags, "--utc-offset-minutes", minutes]) == EXIT_OK, stage


@pytest.mark.parametrize("document, problem", [
    ([{"ranking": {}}], "config file must contain a JSON object"),
    ({"ranking": [1]}, "config section 'ranking' must be an object"),
])
def test_config_file_of_the_wrong_shape_is_one_config_error(document, problem, tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(document))
    capsys.readouterr()
    assert main(["ingest", "--config", str(path)]) == EXIT_VALIDATION
    assert capsys.readouterr().err == f"config error: {problem}\n"


def test_flag_that_is_not_a_boolean_exits_1(capsys):
    assert main(["rank", "--weighted-rank", "maybe"]) == EXIT_VALIDATION
    assert "expected a boolean, got 'maybe'" in capsys.readouterr().err


def _fixture_dump_with_blog(tmp_path, blog_id: str) -> Path:
    """A copy of the fixture dump with one more blog, ``blog_id``: a profile
    and a blogroll entry to b01, so the id reaches the edge files clean reads."""
    dump = tmp_path / "dump"
    shutil.copytree(SMALLBLOG, dump)
    with open(dump / "blogroll.jsonl", "a", encoding="utf-8") as fh:
        fh.write(json.dumps({"owner_blog_id": blog_id,
                             "target_url": "http://b01.blogville.example/"}) + "\n")
    with open(dump / "profiles.jsonl", "a", encoding="utf-8") as fh:
        fh.write(json.dumps({"blog_id": blog_id, "age": 30, "gender": "male",
                             "education": "bachelor", "marital_status": "single"}) + "\n")
    return dump


# the csv module reads no field longer than 131,072 characters by default
def test_a_blog_id_longer_than_the_csv_field_limit_runs_every_stage(tmp_path, monkeypatch):
    blog_id = "z" * 200_000
    monkeypatch.chdir(_fixture_dump_with_blog(tmp_path, blog_id))
    for stage in ALL_STAGES:
        assert main([stage, "--config", "config.json", "--out-dir", "out"]) == EXIT_OK, stage
    with open("out/build/edges_merged.csv", encoding="utf-8", newline="") as fh:
        assert [blog_id, "b01", "blogroll", "1"] in csv.reader(fh)


# Python 3.10's csv reader raises on a NUL anywhere in a line; 3.11 reads it
RUN_CLEAN = "import sys; from blognet.cli import main; sys.exit(main(sys.argv[1:]))"


def test_a_nul_in_a_csv_artifact_is_one_data_error_under_every_other_interpreter(tmp_path):
    from test_digests import other_interpreters

    interpreters = other_interpreters()
    if not interpreters:
        pytest.skip("no other CPython 3.10+ found")
    out = tmp_path / "out"
    for stage in ("ingest", "build"):
        assert main([stage, *fixture_flags(out)]) == EXIT_OK
    merged = out / "build/edges_merged.csv"
    merged.write_text(merged.read_text("utf-8").replace("b02,", "b0\0" "2,", 1), "utf-8")
    env = {**os.environ, "PYTHONPATH": str(Path(blognet.__file__).parents[1]),
           "PYTHONDONTWRITEBYTECODE": "1"}
    for python in interpreters:
        run = subprocess.run([python, "-c", RUN_CLEAN, "clean", *fixture_flags(out)],
                             env=env, capture_output=True, text=True, timeout=120)
        assert run.returncode == EXIT_DATA, f"{python}: {run.stderr}"
        assert run.stderr.startswith(f"data error: {merged}") and run.stderr.count("\n") == 1, \
            f"{python}: {run.stderr}"


# Python 3.10's csv writer cannot write a NUL without an escape character;
# 3.11 and later write it
WRITE_NUL = """import sys
from blognet.cli import ArtifactError, Stage
from blognet.config import PipelineConfig
try:
    Stage(PipelineConfig(out_dir=sys.argv[1]), "build").write_csv("x.csv", [["b\\0x"]], ["id"])
except ArtifactError as err:
    sys.exit(str(err))
"""


def test_a_nul_the_csv_module_cannot_write_is_one_artifact_error_under_python_3_10(tmp_path):
    from test_digests import other_interpreters

    interpreters = [python for python in other_interpreters() if subprocess.run(
        [python, "-c", "import sys; print(sys.version_info[:2] == (3, 10))"],
        capture_output=True, text=True, timeout=30).stdout == "True\n"]
    if not interpreters:
        pytest.skip("no other CPython 3.10 found")
    env = {**os.environ, "PYTHONPATH": str(Path(blognet.__file__).parents[1]),
           "PYTHONDONTWRITEBYTECODE": "1"}
    for python in interpreters:
        out = tmp_path / Path(python).name
        run = subprocess.run([python, "-c", WRITE_NUL, str(out)],
                             env=env, capture_output=True, text=True, timeout=120)
        assert (run.returncode, run.stderr) == (1, f"{out / 'build/x.csv'}: cannot write a row: "
                                                   "need to escape, but no escapechar set\n")


def test_a_blog_id_holding_a_control_character_is_quarantined_at_ingest(tmp_path, monkeypatch):
    dump = tmp_path / "dump"
    shutil.copytree(SMALLBLOG, dump)
    with open(dump / "posts.jsonl", "a", encoding="utf-8") as fh:
        fh.write(json.dumps({"post_id": "p9901", "blog_id": "b\x0199", "title": "x",
                             "body": "x", "published_at": "2010-04-05T08:30:00+03:30"}) + "\n")
    monkeypatch.chdir(dump)
    for stage in ALL_STAGES:
        assert main([stage, "--config", "config.json", "--out-dir", "out"]) == EXIT_OK, stage
    quarantined = [json.loads(line) for line in
                   Path("out/ingest/quarantine.jsonl").read_text(encoding="utf-8").splitlines()]
    assert {"file": "posts.jsonl", "line": 16,
            "reason": "blog id holds a control character: 'b\\x0199'"} in quarantined
    assert not [path for path in Path("out").rglob("*")
                if path.is_file() and b"\x01" in path.read_bytes()]


# the stage that reads each CSV artifact back
READ_BACK_BY = {
    **{("build", f"edges_{name}.csv"): "clean" for name in (*cli.LAYERS, "merged")},
    ("clean", "graph_cleaned.csv"): "rank",
    ("clean", "scc_histogram.csv"): "report",
    **{("rank", f"{kind}.csv"): "report" for kind in cli.RANKINGS},
}
# every number column a stage reads back, as (stage, file, column)
NUMBER_COLUMNS = [(*artifact, column) for artifact, (columns, _key) in CSV_ARTIFACTS.items()
                  for column, convert in columns.items() if convert is not str]


# int and float also read other digits, "_" between digits, padding, leading
# zeros and "-0"
@pytest.mark.parametrize("value", ["١", "1_0", " 1 ", "01", "-0"])
@pytest.mark.parametrize("column", NUMBER_COLUMNS, ids="/".join)
def test_a_number_not_as_written_is_data_error_at_its_line(column, value, out_dir, tmp_path,
                                                           capsys):
    stage, name, column = column
    out = tmp_path / "out"
    shutil.copytree(out_dir, out)
    path = out / stage / name
    lines = path.read_text("utf-8").splitlines()
    fields = lines[1].split(",")
    fields[lines[0].split(",").index(column)] = value
    path.write_text("\n".join([lines[0], ",".join(fields), *lines[2:]]) + "\n", "utf-8")
    capsys.readouterr()
    assert main([READ_BACK_BY[stage, name], *fixture_flags(out)]) == EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith(f"data error: {path}:2: ") and err.count("\n") == 1


def test_clean_names_an_unknown_endpoint_at_its_line(out_dir, tmp_path, capsys):
    out = tmp_path / "out"
    shutil.copytree(out_dir, out)
    merged = out / "build/edges_merged.csv"
    lines = merged.read_text("utf-8").splitlines()
    lines[1] = "zz-unknown," + lines[1].split(",", 1)[1]
    merged.write_text("\n".join(lines) + "\n", "utf-8")
    capsys.readouterr()
    assert main(["clean", *fixture_flags(out)]) == EXIT_DATA
    assert capsys.readouterr().err == (f"data error: {merged}:2: malformed row: "
                                       "'zz-unknown' is not a node in nodes.txt\n")


@pytest.mark.parametrize("collecting", [True, False])
def test_main_runs_the_stage_without_the_collector_and_restores_it(collecting, tmp_path,
                                                                   monkeypatch):
    runs = {
        EXIT_OK: ["ingest", *fixture_flags(tmp_path / "out")],
        EXIT_VALIDATION: ["rank", "--out-dir", str(tmp_path / "empty")],
        EXIT_DATA: ["ingest", *fixture_flags(tmp_path / "out"), "--posts", str(tmp_path)],
    }
    stage_func, help_text = cli.STAGE_FUNCS["ingest"]
    during = []

    def ingest(stage):
        during.append(gc.isenabled())
        return stage_func(stage)

    monkeypatch.setitem(cli.STAGE_FUNCS, "ingest", (ingest, help_text))
    was_collecting = gc.isenabled()
    (gc.enable if collecting else gc.disable)()
    try:
        after = {}
        for code, argv in runs.items():
            assert main(argv) == code
            after[code] = gc.isenabled()
    finally:
        (gc.enable if was_collecting else gc.disable)()
    assert after == dict.fromkeys(runs, collecting)
    assert during == [False, False]
