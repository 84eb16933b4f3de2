"""Tests of the benchmark's own code, on a dump small enough to run every
stage in seconds:

    python3 -m pytest perfbench
"""

import json
from pathlib import Path

import pytest

import gen
import run
from workloads import ALL_STAGES, WORKLOADS

TINY = gen.Params(
    blogs=40, posts=200, words_per_post=20, links_per_post=1.0, max_links=3,
    internal_link_share=0.5, comments=200, anonymous_share=0.2, blogroll=300,
    linkless_share=0.2, ring_share=0.1, target_zipf=0.8, heavy_posts=2,
    heavy_links=50, lexicon=500,
)
DUMP_FILES = ("posts.jsonl", "comments.jsonl", "blogroll.jsonl", "profiles.jsonl",
              "config.json")


def _dump_bytes(path: Path) -> dict[str, bytes]:
    return {name: (path / name).read_bytes() for name in DUMP_FILES}


def test_generator_is_a_function_of_the_seed(tmp_path):
    first = gen.generate(TINY, 7, tmp_path / "a" / "dump")
    again = gen.generate(TINY, 7, tmp_path / "b" / "dump")
    other = gen.generate(TINY, 8, tmp_path / "c" / "dump")
    assert _dump_bytes(tmp_path / "a" / "dump") == _dump_bytes(tmp_path / "b" / "dump")
    assert first == again
    differing = [name for name in DUMP_FILES[:4]
                 if (tmp_path / "a" / "dump" / name).read_bytes()
                 != (tmp_path / "c" / "dump" / name).read_bytes()]
    assert differing == list(DUMP_FILES[:4])
    assert other["seed"] == 8
    sidecar = json.loads((tmp_path / "a" / "planted.json").read_text(encoding="utf-8"))
    assert sidecar == first


def test_generator_plants_stated_quarantine_lines(tmp_path):
    planted = gen.generate(TINY, 1, tmp_path / "dump")
    assert planted["quarantine_reasons"] == {
        "bad_timestamp": gen.BAD_TIMESTAMP_POSTS + gen.BAD_TIMESTAMP_COMMENTS,
        "unknown_post_id": gen.UNKNOWN_POST_COMMENTS,
        "invalid_url": gen.INVALID_URLS,
        "age_out_of_range": gen.BAD_AGES,
    }
    for name, lines in planted["lines"].items():
        text = (tmp_path / "dump" / f"{name}.jsonl").read_text(encoding="utf-8")
        assert len(text.splitlines()) == lines
        assert planted["accepted"][name] + planted["quarantined"][name] == lines
    posts = (tmp_path / "dump" / "posts.jsonl").read_text(encoding="utf-8").splitlines()
    naive = [p for p in map(json.loads, posts)
             if p["published_at"].count(":") == 2 and p["published_at"][-1].isdigit()]
    assert len(naive) == planted["naive_timestamps"] > 0


def test_every_stage_runs_and_passes_the_check(tmp_path):
    planted = gen.generate(TINY, 3, tmp_path / "dump")
    plain = run.run_pass(ALL_STAGES, tmp_path, planted, trace=False)
    traced = run.run_pass(ALL_STAGES, tmp_path, planted, trace=True)
    for p in (plain, traced):
        assert list(p["stages"]) == list(ALL_STAGES)
        assert [r.get("error") for r in p["stages"].values()] == [None] * len(ALL_STAGES)
    for stage in ALL_STAGES:
        assert plain["stages"][stage]["digest"] == traced["stages"][stage]["digest"]

    e2e = run.end_to_end_metrics([plain])
    assert set(run.END_TO_END) <= set(e2e)
    assert all(e2e[name] > 0 for name in run.END_TO_END)

    layers = run.per_layer_metrics(plain, traced, tmp_path / "out")
    assert set(layers) == set(run.PER_LAYER)
    assert layers["textprep.similarity_cells"] == 40 * 40
    assert layers["graphclean.scc_calls"] == 6
    assert layers["ingest.records"] == sum(planted["accepted"].values())
    assert layers["ranking.unconverged"] == 0


def test_check_rejects_output_that_disagrees_with_the_plan(tmp_path):
    planted = gen.generate(TINY, 4, tmp_path / "dump")
    wrong = {**planted, "universe_blogs": planted["universe_blogs"] + 1}
    result = run.run_pass(("ingest", "build"), tmp_path, wrong, trace=False)
    assert "error" not in result["stages"]["ingest"]
    assert "universe_blogs" in result["stages"]["build"]["error"]


def test_benchmark_json_names_the_metrics_the_runner_prints():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: unit for name, (unit, _moves, _where) in run.PER_LAYER.items()}
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert all(w["why"] == WORKLOADS[w["name"]].why for w in spec["workloads"])


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_each_stage_is_run_or_skipped_with_a_reason(name):
    wl = WORKLOADS[name]
    assert sorted(wl.stages + tuple(wl.skipped)) == sorted(ALL_STAGES)
    assert all(wl.skipped.values())
