"""Dumps of shapes nobody chose: hypothesis draws small ``perfbench/gen.py``
parameters and a seed, and each generated dump runs through all seven stages
in-process. After ``ingest``, ``build`` and ``clean``, ``run.check_stage``
compares the artifacts with the counts the generator planted (accepted and
quarantined lines by reason, the blog universe, collapsed arcs, isolated
blogs). ``rank`` is only asked to record whether PageRank and HITS converged:
on some small graphs HITS needs more than the default ``max_iter`` of 200
iterations, and it is skipped when no arc survives.

The stages run from the dump's parent directory with the generated
``dump/config.json`` and ``--min-component-size 1``, so that small graphs
survive cleaning. A larger generated dump also shows that no stage leaves
cyclic garbage that grows with its data, which is why ``cli.main`` runs a
stage with the cyclic collector off. ``perfbench`` is imported read-only, as in
``test_workload_digests.py``.
"""

import json
import os
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

import blognet
from blognet import cli, ingest
from blognet.cli import EXIT_OK, main
from blognet.config import load_config
from conftest import FIXTURES

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from gen import _ANCHOR_WORDS, Params, generate  # noqa: E402
from run import check_stage  # noqa: E402
from workloads import ALL_STAGES  # noqa: E402

CHECKED = ("ingest", "build", "clean")
SHARE = st.floats(0.0, 1.0)


@st.composite
def small_params(draw) -> Params:
    blogs = draw(st.integers(5, 60))
    heavy_posts = draw(st.integers(0, 2))
    return Params(
        blogs=blogs,
        posts=blogs * draw(st.integers(1, 8)),
        words_per_post=draw(st.integers(1, 40)),
        links_per_post=draw(st.floats(0.05, 8.0)),
        max_links=draw(st.integers(1, 20)),
        internal_link_share=draw(SHARE),
        comments=draw(st.integers(0, 150)),
        anonymous_share=draw(SHARE),
        blogroll=draw(st.integers(0, 150)),
        linkless_share=draw(st.floats(0.0, 0.95)),
        ring_share=draw(st.floats(0.0, 0.6)),
        target_zipf=draw(st.floats(0.0, 1.5)),
        heavy_posts=heavy_posts,
        heavy_links=draw(st.integers(1, 300)) if heavy_posts else 0,
        # link text is drawn from the first _ANCHOR_WORDS words
        lexicon=draw(st.integers(_ANCHOR_WORDS, 600)),
    )


@settings(max_examples=40, deadline=None)
@given(small_params(), st.integers(0, 2**32 - 1))
def test_every_stage_agrees_with_what_the_generator_planted(params, seed):
    with tempfile.TemporaryDirectory() as scratch:
        work = Path(scratch)
        planted = generate(params, seed, work / "dump")
        cwd = os.getcwd()
        os.chdir(work)
        try:
            for stage in ALL_STAGES:
                code = main([stage, "--config", "dump/config.json", "--out-dir", "out",
                             "--min-component-size", "1"])
                assert code == EXIT_OK, f"stage {stage} exited {code}"
                if stage in CHECKED:
                    check_stage(stage, work / "out", planted)
        finally:
            os.chdir(cwd)
        counts = json.loads((work / "out/rank/manifest.json").read_text(encoding="utf-8"))["counts"]
    assert type(counts["pagerank"]["converged"]) is bool
    assert (type(counts["hits"].get("converged")) is bool
            or counts["hits"] == {"skipped": "graph has no arcs"})


# Runs the stages named after CONFIG and OUT in one process with the cyclic
# collector off, and prints what ``gc.collect()`` frees after each
COLLECT_AFTER_EACH_STAGE = """
import gc, json, sys
from blognet.cli import main
gc.disable()
freed = []
for stage in sys.argv[3:]:
    assert main([stage, "--config", sys.argv[1], "--out-dir", sys.argv[2]]) == 0, stage
    freed.append(gc.collect())
print(json.dumps(freed))
"""


def cyclic_garbage_per_stage(cwd: Path, config: str, out: Path) -> list[int]:
    """What ``gc.collect()`` frees after each stage, run from ``cwd``."""
    env = {**os.environ, "PYTHONPATH": str(Path(blognet.__file__).parents[1])}
    run = subprocess.run([sys.executable, "-c", COLLECT_AFTER_EACH_STAGE, config, str(out),
                          *ALL_STAGES], cwd=cwd, env=env, capture_output=True, text=True,
                         timeout=300)
    assert run.returncode == 0, run.stderr
    return json.loads(run.stdout.splitlines()[-1])


def test_no_stage_leaves_cyclic_garbage_that_grows_with_its_data(tmp_path):
    fixture = FIXTURES / "smallblog"
    records = sum(len(path.read_bytes().splitlines()) for path in fixture.glob("*.jsonl"))
    params = Params(
        blogs=200, posts=600, words_per_post=20, links_per_post=1.5, max_links=6,
        internal_link_share=0.6, comments=400, anonymous_share=0.2, blogroll=600,
        linkless_share=0.3, ring_share=0.05, target_zipf=0.8, lexicon=800,
    )
    planted = generate(params, 5, tmp_path / "dump")
    assert sum(planted["lines"].values()) >= 10 * records
    assert (cyclic_garbage_per_stage(tmp_path, "dump/config.json", tmp_path / "generated")
            == cyclic_garbage_per_stage(fixture, "config.json", tmp_path / "fixture"))


def traced(run) -> tuple[int, int]:
    """The memory ``tracemalloc`` traces once ``run()`` returns, its result
    still held, and the most it traced at once while ``run()`` ran."""
    tracemalloc.start()
    try:
        result = run()  # noqa: F841 (held while measured)
        return tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()


def generate_and_ingest(tmp_path: Path, monkeypatch) -> None:
    """Generate a dump in ``tmp_path``, the working directory from here on,
    and ingest it into ``out``. Blocks of 64 lines split each file into
    many, as blocks of 4,096 split a paper-scale dump's."""
    monkeypatch.setattr(ingest, "_BLOCK", 64)
    params = Params(
        blogs=200, posts=600, words_per_post=60, links_per_post=1.5, max_links=6,
        internal_link_share=0.6, comments=1800, anonymous_share=0.2, blogroll=600,
        linkless_share=0.3, ring_share=0.05, target_zipf=0.8, lexicon=800,
    )
    generate(params, 5, tmp_path / "dump")
    monkeypatch.chdir(tmp_path)
    assert main(["ingest", "--config", "dump/config.json", "--out-dir", "out"]) == EXIT_OK


def stage_peak(name: str) -> int:
    """The most ``tracemalloc`` traces at once while stage ``name`` runs
    over the dump and ``out``."""
    stage = cli.Stage(load_config("dump/config.json", {"out_dir": "out"}), name)
    return traced(lambda: getattr(cli, f"cmd_{name}")(stage))[1]


def dump_records() -> list[list]:
    """The records of the four dump files, as ``ingest`` reads them."""
    cfg = load_config("dump/config.json")
    posts = ingest.load_posts(cfg.posts, cfg.utc_offset).records
    return [posts,
            ingest.load_comments(cfg.comments, {p.post_id for p in posts}, cfg.utc_offset).records,
            ingest.load_blogroll(cfg.blogroll).records,
            ingest.load_profiles(cfg.profiles).records]


def ingested_posts_and_comments() -> list[list]:
    """The records of ``ingest``'s posts and comments, as later stages reload them."""
    posts = ingest.load_posts("out/ingest/posts.jsonl", reload=True).records
    return [posts, ingest.load_comments(
        "out/ingest/comments.jsonl", {p.post_id for p in posts}, reload=True).records]


def test_ingest_holds_the_records_of_one_dump_file_at_a_time(tmp_path, monkeypatch):
    """``ingest`` writes and drops each file's records before it reads the
    next, so its peak stays below the four files' records held together."""
    generate_and_ingest(tmp_path, monkeypatch)
    held, _ = traced(dump_records)
    assert stage_peak("ingest") < held


def test_build_holds_the_records_of_one_ingest_file_at_a_time(tmp_path, monkeypatch):
    """``build`` drops each ingest file's records once it has taken their
    edges and blog ids, so its peak stays below the posts and comments held
    together."""
    generate_and_ingest(tmp_path, monkeypatch)
    held, _ = traced(ingested_posts_and_comments)
    assert stage_peak("build") < held


def test_stats_holds_no_post_text_while_it_reads_the_comments(tmp_path, monkeypatch):
    """``stats`` keeps a post's id, blog and time only, so its peak stays
    below the posts and comments held together."""
    generate_and_ingest(tmp_path, monkeypatch)
    held, _ = traced(ingested_posts_and_comments)
    assert stage_peak("stats") < held
