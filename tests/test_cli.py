import csv
import filecmp
import json
import os
import shutil
import subprocess
import sys
from itertools import islice
from pathlib import Path

import pytest

import blognet
from blognet.cli import EXIT_DATA, EXIT_OK, EXIT_VALIDATION, main
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


def test_lone_surrogate_in_a_string_field_is_quarantined(tmp_path):
    flags = flags_with_extra_post(tmp_path, title="\ud800")
    assert main(["ingest", *flags]) == EXIT_OK
    out = tmp_path / "out"
    assert manifest(out, "ingest")["counts"]["posts"] == {"accepted": 14, "quarantined": 2}
    rows = [json.loads(line) for line in
            (out / "ingest/quarantine.jsonl").read_text("utf-8").splitlines()]
    assert {"file": "posts.jsonl", "line": 16,
            "reason": "field 'title' holds a lone surrogate"} in rows


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


def test_blog_id_that_is_not_a_bare_slug_is_data_error(tmp_path, capsys):
    flags = flags_with_extra_post(tmp_path, blog_id="b01/x")
    assert main(["ingest", *flags]) == EXIT_OK
    capsys.readouterr()
    assert main(["build", *flags]) == EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and err.count("\n") == 1
    assert "not a bare blog slug: 'b01/x'" in err


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
