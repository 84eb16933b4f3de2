import argparse
import json
from dataclasses import fields

import pytest

from blognet.cli import STAGE_FUNCS, build_parser
from blognet.config import ConfigError, PipelineConfig, config_snapshot, load_config


class TestDefaults:
    def test_reference_anchored_defaults(self):
        cfg = PipelineConfig()
        assert cfg.damping == 0.85
        assert cfg.min_component_size == 10
        assert cfg.min_posts == 6
        assert cfg.tol == 1e-9
        assert cfg.max_iter == 200
        assert cfg.utc_offset_minutes == 210
        assert cfg.comment_threshold == 10

    def test_load_without_file_gives_defaults(self):
        assert load_config(None) == PipelineConfig()


class TestFileLoading:
    def test_sections_map_to_fields(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({
            "inputs": {"posts": "p.jsonl"},
            "ranking": {"damping": 0.5},
            "graphbuild": {"host_patterns": ["{blog}.example.com"]},
        }))
        cfg = load_config(path)
        assert cfg.posts == "p.jsonl"
        assert cfg.damping == 0.5
        assert cfg.host_patterns == ("{blog}.example.com",)

    def test_overrides_beat_file(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"ranking": {"damping": 0.5}}))
        cfg = load_config(path, {"damping": 0.9})
        assert cfg.damping == 0.9

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "nope.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text("{oops")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_host_patterns_comma_string(self):
        cfg = load_config(None, {"host_patterns": "{blog}.a.com,b.com/{blog}"})
        assert cfg.host_patterns == ("{blog}.a.com", "b.com/{blog}")


class TestValidation:
    def test_all_problems_reported_at_once(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({
            "ranking": {"damping": 1.5, "max_iter": 0},
            "graphclean": {"min_component_size": -1},
            "mystery": {"x": 1},
        }))
        with pytest.raises(ConfigError) as err:
            load_config(path)
        problems = err.value.problems
        assert len(problems) == 4
        assert any("damping" in p for p in problems)
        assert any("max_iter" in p for p in problems)
        assert any("min_component_size" in p for p in problems)
        assert any("mystery" in p for p in problems)

    def test_unknown_key_in_known_section(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"ranking": {"dampening": 0.9}}))
        with pytest.raises(ConfigError, match="ranking.dampening"):
            load_config(path)

    def test_bad_window_timestamp(self):
        with pytest.raises(ConfigError, match="window_start"):
            load_config(None, {"window_start": "sometime", "window_end": "2010-10-01T00:00:00Z"})

    @pytest.mark.parametrize("start, end, problem", [
        # UTC reading before year 1, with an explicit offset and at the
        # dump's default +03:30
        ("0001-01-01T00:00:00+03:30", "2010-10-01T00:00:00Z", "window_start is not an RFC 3339"),
        ("0001-01-01T03:00:00", "2010-10-01T00:00:00Z", "window_start is not an RFC 3339"),
        ("2010-10-01T00:00:00Z", "9999-12-31T23:59:59-00:01", "window_end is not an RFC 3339"),
        ("2010-10-01T00:00:00Z", "2010-10-01T03:30:00", "window_start must precede window_end"),
    ])
    def test_window_bounds_read_at_dump_offset(self, start, end, problem):
        with pytest.raises(ConfigError) as err:
            load_config(None, {"window_start": start, "window_end": end})
        assert [p for p in err.value.problems if problem in p]

    def test_bad_host_pattern_shape(self):
        with pytest.raises(ConfigError, match="host_patterns"):
            load_config(None, {"host_patterns": "blogs.example.com"})


def test_snapshot_round_trips_through_loader(tmp_path):
    cfg = load_config(None, {"damping": 0.7, "host_patterns": "{blog}.x.ir"})
    path = tmp_path / "echo.json"
    path.write_text(json.dumps(config_snapshot(cfg)))
    assert load_config(path) == cfg


# The released settings: section -> file key -> the type its flag parses to.
# Each flag is --<file key with dashes>; only ranking.top_k is stored under
# another field name (rank_top_k).
SCHEMA = {
    "inputs": {"posts": str, "comments": str, "blogroll": str, "profiles": str},
    "ingest": {"utc_offset_minutes": int},
    "textprep": {"stopwords": str, "equivalences": str, "min_df": int, "max_df_ratio": float,
                 "vocab_top_k": int, "tfidf_variant": str, "unify_alef": bool},
    "graphbuild": {"host_patterns": str, "comment_direction": str},
    "graphclean": {"min_component_size": int, "isolated_strict": bool,
                   "clustering_variant": str},
    "ranking": {"damping": float, "tol": float, "max_iter": int, "hits_norm": str,
                "dangling_policy": str, "weighted_rank": bool, "top_k": int},
    "profilestats": {"window_start": str, "window_end": str, "min_posts": int,
                     "require_monthly": bool, "comment_threshold": int},
    "output": {"out_dir": str},
}
SAMPLES = {bool: ("yes", True), int: ("3", 3), float: ("0.5", 0.5), str: ("text", "text")}


@pytest.mark.parametrize("stage", STAGE_FUNCS)
def test_derived_schema_is_pinned(stage):
    parser, _ = build_parser()
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    actions = subparsers.choices[stage]._actions
    snapshot = config_snapshot(PipelineConfig())
    assert {s: list(keys) for s, keys in snapshot.items()} == {
        s: list(keys) for s, keys in SCHEMA.items()
    }
    assert len(fields(PipelineConfig)) == 30
    for f in fields(PipelineConfig):
        section = f.metadata["section"]
        key = f.metadata.get("key", f.name)
        assert key == ("top_k" if f.name == "rank_top_k" else f.name)
        flags = [a.option_strings for a in actions if a.dest == f.name]
        assert flags == [[f"--{key.replace('_', '-')}"]], f.name
        sample, value = SAMPLES[SCHEMA[section][key]]
        parsed = getattr(parser.parse_args([stage, flags[0][0], sample]), f.name)
        assert parsed == value and type(parsed) is type(value), f.name
        assert key in snapshot[section], f.name


# One row per check the loader makes: a config document and the one problem
# it must report, word for word.
REJECTIONS = [
    ({"ingest": {"utc_offset_minutes": 1000}},
     "ingest.utc_offset_minutes must be an integer number of minutes within +/-16h"),
    ({"textprep": {"min_df": 0}}, "textprep.min_df must be an integer >= 1"),
    ({"textprep": {"max_df_ratio": 0}}, "textprep.max_df_ratio must be in (0, 1]"),
    ({"textprep": {"vocab_top_k": 0}}, "textprep.vocab_top_k must be null or an integer >= 1"),
    ({"textprep": {"unify_alef": "yes"}}, "textprep.unify_alef must be a boolean"),
    ({"textprep": {"tfidf_variant": "bm25"}},
     "textprep.tfidf_variant must be one of raw_ln, log_tf, smooth_idf"),
    ({"graphbuild": {"comment_direction": "both"}},
     "graphbuild.comment_direction must be commenter_to_author or author_to_commenter"),
    ({"graphbuild": {"host_patterns": 5}}, "graphbuild.host_patterns must be a list of strings"),
    ({"graphbuild": {"host_patterns": ["blogs.example.com"]}},
     "graphbuild.host_patterns entry 'blogs.example.com' must look like "
     "'{blog}.host' or 'host/{blog}'"),
    ({"graphclean": {"min_component_size": 0}},
     "graphclean.min_component_size must be an integer >= 1"),
    ({"graphclean": {"isolated_strict": "no"}}, "graphclean.isolated_strict must be a boolean"),
    ({"graphclean": {"clustering_variant": "global"}},
     "graphclean.clustering_variant must be mean_local or transitivity"),
    ({"ranking": {"damping": 1}}, "ranking.damping must be in (0, 1)"),
    ({"ranking": {"tol": 0}}, "ranking.tol must be positive"),
    ({"ranking": {"max_iter": 0}}, "ranking.max_iter must be an integer >= 1"),
    ({"ranking": {"hits_norm": "l3"}}, "ranking.hits_norm must be l2 or l1"),
    ({"ranking": {"dangling_policy": "drop"}}, "ranking.dangling_policy must be uniform or self"),
    ({"ranking": {"weighted_rank": "yes"}}, "ranking.weighted_rank must be a boolean"),
    ({"ranking": {"top_k": 0}}, "ranking.top_k must be null or an integer >= 1"),
    ({"profilestats": {"min_posts": 0}}, "profilestats.min_posts must be an integer >= 1"),
    ({"profilestats": {"require_monthly": 1}}, "profilestats.require_monthly must be a boolean"),
    ({"profilestats": {"comment_threshold": -1}},
     "profilestats.comment_threshold must be an integer >= 0"),
    ({"output": {"out_dir": ""}}, "output.out_dir must be a non-empty path"),
    ({"profilestats": {"window_start": "sometime"}},
     "profilestats.window_start is not an RFC 3339 timestamp: 'sometime'"),
    ({"profilestats": {"window_end": 7}},
     "profilestats.window_end is not an RFC 3339 timestamp: 7"),
    ({"profilestats": {"window_start": "2010-02-01T00:00:00Z",
                       "window_end": "2010-01-01T00:00:00Z"}},
     "profilestats.window_start must precede window_end"),
]


@pytest.mark.parametrize("document, problem", REJECTIONS, ids=[p for _, p in REJECTIONS])
def test_rejection_message_is_pinned(document, problem, tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(document))
    with pytest.raises(ConfigError) as err:
        load_config(path)
    assert err.value.problems == [problem]


# Values of a type the annotation does not admit; a bool is never an int
# or a float, and a number is never a string.
WRONG_TYPED = {
    "bool": [1, 0.0, "true", None],
    "int": [True, 2.5, "3", [3], None],
    "float": [False, "0.5", {}, None],
    "str": [5, True, ["a"]],
    "tuple[str, ...]": [5, False, [1], ["a", None], {"a": "b"}],
}


@pytest.mark.parametrize("f", fields(PipelineConfig), ids=lambda f: f.name)
def test_wrong_typed_value_is_one_problem(f, tmp_path):
    section = f.metadata["section"]
    key = f.metadata.get("key", f.name)
    path = tmp_path / "config.json"
    for value in WRONG_TYPED[f.type.removesuffix(" | None")]:
        if value is None and f.type.endswith("| None"):
            continue
        path.write_text(json.dumps({section: {key: value}}))
        with pytest.raises(ConfigError) as err:
            load_config(path)
        problems = err.value.problems
        assert len(problems) == 1 and problems[0].startswith(f"{section}.{key} "), (value, problems)
