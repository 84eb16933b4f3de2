"""The benchmark's workloads: why each exists, the stages it runs, and the
generator parameters that shape its dump.

Each workload loads a different part of the pipeline, because no single
size covers both tracks: ``prep`` is quadratic in blogs, so the text track
is measured on a small corpus while the graph and profile tracks run at half
the paper's scale (the paper has 21,305 blogs, 133,471 posts and 119,280
comments). At full scale one pass takes ~40 s and varied by a quarter
between runs on the reference host, too much for the benchmark's bounds.
"""

from __future__ import annotations

from dataclasses import dataclass

from gen import Params

ALL_STAGES = ("ingest", "prep", "build", "clean", "rank", "stats", "report")


@dataclass(frozen=True)
class Workload:
    why: str
    stages: tuple[str, ...]
    params: Params
    skipped: dict[str, str]          # stage -> reason it is not run


WORKLOADS = {
    "text": Workload(
        why="textprep does nearly all the work: 160 blogs of Persian prose, "
            "so similarity and normalization dominate and the graph is tiny",
        stages=ALL_STAGES,
        params=Params(
            blogs=160, posts=3200, words_per_post=150, links_per_post=0.8,
            max_links=2, internal_link_share=0.5, comments=1900,
            anonymous_share=0.2, blogroll=1300, linkless_share=0.2,
            ring_share=0.0, target_zipf=0.8,
        ),
        skipped={},
    ),
    "paper-graph": Workload(
        why="the paper's graph shape at half its scale for the structure and "
            "profile tracks: 10,653 blogs, 66,736 posts, 59,640 comments, ~128k arcs",
        stages=tuple(s for s in ALL_STAGES if s != "prep"),
        params=Params(
            blogs=10653, posts=66736, words_per_post=12, links_per_post=1.0,
            max_links=6, internal_link_share=0.6, comments=59640,
            anonymous_share=0.2, blogroll=75500, linkless_share=0.33,
            ring_share=0.02, target_zipf=0.8, lexicon=4000,
        ),
        skipped={"prep": "pairwise similarity over 10,653 blogs is 57M cosine "
                         "pairs and a 113M-cell similarity.csv"},
    ),
    "link-dense": Workload(
        why="70 blogs: 700 markup-heavy posts of ~165 links on average plus 4 "
            "posts of 8,000 links load HTML stripping, citation extraction and "
            "a dense small graph",
        stages=ALL_STAGES,
        params=Params(
            blogs=70, posts=700, words_per_post=30, links_per_post=169,
            max_links=600, internal_link_share=0.05, comments=560,
            anonymous_share=0.2, blogroll=1500, linkless_share=0.05,
            ring_share=0.0, target_zipf=0.0, heavy_posts=4, heavy_links=8000,
            lexicon=800,
        ),
        skipped={},
    ),
}
