"""Pipeline configuration: one JSON document with a section per module,
every key overridable from the command line.

``PipelineConfig`` is the only place a setting is declared: its annotation
gives the flag's type, and its field metadata gives the file section (and
the file key, where that is not the field name). ``SECTIONS`` and the CLI
flags are derived from it.

Defaults: damping 0.85, minimum component size 10, six-post activity
threshold, 1e-9 convergence tolerances, UTC+03:30 dump offset.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields, replace
from datetime import timedelta
from pathlib import Path
from typing import Any

from .ingest import parse_timestamp

TFIDF_VARIANTS = ("raw_ln", "log_tf", "smooth_idf")


class ConfigError(ValueError):
    """Invalid configuration; ``problems`` lists every bad field at once."""

    def __init__(self, problems: list[str]):
        self.problems = problems
        super().__init__("; ".join(problems))


def _setting(section: str, default: Any = None, key: str | None = None) -> Any:
    """A config field filed under ``section``; ``key`` is its file key where
    that is not the field name."""
    metadata = {"section": section} if key is None else {"section": section, "key": key}
    return field(default=default, metadata=metadata)


@dataclass(frozen=True)
class PipelineConfig:
    posts: str | None = _setting("inputs")
    comments: str | None = _setting("inputs")
    blogroll: str | None = _setting("inputs")
    profiles: str | None = _setting("inputs")
    utc_offset_minutes: int = _setting("ingest", 210)
    stopwords: str | None = _setting("textprep")   # None -> packaged default list
    equivalences: str | None = _setting("textprep")
    min_df: int = _setting("textprep", 2)
    max_df_ratio: float = _setting("textprep", 0.5)
    vocab_top_k: int | None = _setting("textprep")
    tfidf_variant: str = _setting("textprep", "raw_ln")
    unify_alef: bool = _setting("textprep", True)
    host_patterns: tuple[str, ...] = _setting("graphbuild", ())
    comment_direction: str = _setting("graphbuild", "commenter_to_author")
    min_component_size: int = _setting("graphclean", 10)
    isolated_strict: bool = _setting("graphclean", False)
    clustering_variant: str = _setting("graphclean", "mean_local")
    damping: float = _setting("ranking", 0.85)
    tol: float = _setting("ranking", 1e-9)
    max_iter: int = _setting("ranking", 200)
    hits_norm: str = _setting("ranking", "l2")
    dangling_policy: str = _setting("ranking", "uniform")
    weighted_rank: bool = _setting("ranking", False)
    rank_top_k: int | None = _setting("ranking", key="top_k")   # None -> full ranked listings
    window_start: str | None = _setting("profilestats")   # RFC 3339; None -> dataset span
    window_end: str | None = _setting("profilestats")
    min_posts: int = _setting("profilestats", 6)
    require_monthly: bool = _setting("profilestats", False)
    comment_threshold: int = _setting("profilestats", 10)
    out_dir: str = _setting("output", "out")

    @property
    def utc_offset(self) -> timedelta:
        return timedelta(minutes=self.utc_offset_minutes)


def _sections() -> dict[str, dict[str, str]]:
    sections: dict[str, dict[str, str]] = {}
    for f in fields(PipelineConfig):
        sections.setdefault(f.metadata["section"], {})[f.metadata.get("key", f.name)] = f.name
    return sections


# config-file section -> {file key: dataclass field}, in field order
SECTIONS = _sections()
# dataclass field -> its annotation, as a string (``"int | None"``)
FIELD_TYPES = {f.name: f.type for f in fields(PipelineConfig)}


def _coerce(field_name: str, value: Any, problems: list[str]) -> Any:
    """Normalize JSON values into the dataclass field shapes."""
    if field_name == "host_patterns":
        if isinstance(value, str):
            value = [p for p in value.split(",") if p.strip()]
        if not isinstance(value, (list, tuple)) or not all(
            isinstance(p, str) for p in value
        ):
            problems.append("graphbuild.host_patterns must be a list of strings")
            return ()
        return tuple(p.strip() for p in value)
    return value


def _validate(cfg: PipelineConfig) -> list[str]:
    problems = []

    def check(ok: bool, message: str) -> None:
        if not ok:
            problems.append(message)

    offset_ok = (
        isinstance(cfg.utc_offset_minutes, int) and not isinstance(cfg.utc_offset_minutes, bool)
        and -16 * 60 <= cfg.utc_offset_minutes <= 16 * 60
    )
    check(offset_ok,
          "ingest.utc_offset_minutes must be an integer number of minutes within +/-16h")
    check(isinstance(cfg.min_df, int) and cfg.min_df >= 1,
          "textprep.min_df must be an integer >= 1")
    check(isinstance(cfg.max_df_ratio, (int, float)) and 0 < cfg.max_df_ratio <= 1,
          "textprep.max_df_ratio must be in (0, 1]")
    check(cfg.vocab_top_k is None or (isinstance(cfg.vocab_top_k, int) and cfg.vocab_top_k >= 1),
          "textprep.vocab_top_k must be null or an integer >= 1")
    check(isinstance(cfg.unify_alef, bool), "textprep.unify_alef must be a boolean")
    check(cfg.tfidf_variant in TFIDF_VARIANTS,
          f"textprep.tfidf_variant must be one of {', '.join(TFIDF_VARIANTS)}")
    check(cfg.comment_direction in ("commenter_to_author", "author_to_commenter"),
          "graphbuild.comment_direction must be commenter_to_author or author_to_commenter")
    for pattern in cfg.host_patterns:
        check(pattern.startswith("{blog}.") or pattern.endswith("/{blog}"),
              f"graphbuild.host_patterns entry {pattern!r} must look like "
              "'{blog}.host' or 'host/{blog}'")
    check(isinstance(cfg.min_component_size, int) and cfg.min_component_size >= 1,
          "graphclean.min_component_size must be an integer >= 1")
    check(isinstance(cfg.isolated_strict, bool), "graphclean.isolated_strict must be a boolean")
    check(cfg.clustering_variant in ("mean_local", "transitivity"),
          "graphclean.clustering_variant must be mean_local or transitivity")
    check(isinstance(cfg.damping, (int, float)) and 0 < cfg.damping < 1,
          "ranking.damping must be in (0, 1)")
    check(isinstance(cfg.tol, (int, float)) and cfg.tol > 0, "ranking.tol must be positive")
    check(isinstance(cfg.max_iter, int) and cfg.max_iter >= 1,
          "ranking.max_iter must be an integer >= 1")
    check(cfg.hits_norm in ("l2", "l1"), "ranking.hits_norm must be l2 or l1")
    check(cfg.dangling_policy in ("uniform", "self"),
          "ranking.dangling_policy must be uniform or self")
    check(isinstance(cfg.weighted_rank, bool), "ranking.weighted_rank must be a boolean")
    check(cfg.rank_top_k is None or (isinstance(cfg.rank_top_k, int) and cfg.rank_top_k >= 1),
          "ranking.top_k must be null or an integer >= 1")
    check(isinstance(cfg.min_posts, int) and cfg.min_posts >= 1,
          "profilestats.min_posts must be an integer >= 1")
    check(isinstance(cfg.require_monthly, bool),
          "profilestats.require_monthly must be a boolean")
    check(isinstance(cfg.comment_threshold, int) and cfg.comment_threshold >= 0,
          "profilestats.comment_threshold must be an integer >= 0")
    check(bool(cfg.out_dir), "output.out_dir must be a non-empty path")

    # bounds without an offset are read at the dump's offset, as stats reads them
    offset = cfg.utc_offset if offset_ok else timedelta(0)
    bounds = {}
    for key, value in (("window_start", cfg.window_start), ("window_end", cfg.window_end)):
        if value is not None:
            try:
                bounds[key] = parse_timestamp(value, offset)
            except ValueError:
                problems.append(f"profilestats.{key} is not an RFC 3339 timestamp: {value!r}")
    if len(bounds) == 2 and bounds["window_start"] >= bounds["window_end"]:
        problems.append("profilestats.window_start must precede window_end")
    return problems


def load_config(
    path: str | Path | None = None, overrides: dict[str, Any] | None = None
) -> PipelineConfig:
    """Build the config from defaults, then the JSON file, then overrides.

    All problems (unknown sections/keys, bad types, out-of-range values) are
    collected and raised together as one ConfigError.
    """
    problems: list[str] = []
    values: dict[str, Any] = {}
    if path is not None:
        path = Path(path)
        if not path.exists():
            raise ConfigError([f"config file not found: {path}"])
        try:
            document = json.loads(path.read_text(encoding="utf-8-sig"))
        except json.JSONDecodeError as err:
            raise ConfigError([f"config file is not valid JSON: {err.msg}"]) from None
        if not isinstance(document, dict):
            raise ConfigError(["config file must contain a JSON object"])
        for section, keys in document.items():
            if section not in SECTIONS:
                problems.append(f"unknown config section {section!r}")
                continue
            if not isinstance(keys, dict):
                problems.append(f"config section {section!r} must be an object")
                continue
            for key, value in keys.items():
                field_name = SECTIONS[section].get(key)
                if field_name is None:
                    problems.append(f"unknown config key {section}.{key}")
                    continue
                values[field_name] = _coerce(field_name, value, problems)
    if overrides:
        for field_name, value in overrides.items():
            if value is None:
                continue
            values[field_name] = _coerce(field_name, value, problems)

    unknown = set(values) - set(FIELD_TYPES)
    for name in sorted(unknown):
        problems.append(f"unknown config field {name!r}")
        values.pop(name)
    cfg = replace(PipelineConfig(), **values)
    problems.extend(_validate(cfg))
    if problems:
        raise ConfigError(problems)
    return cfg


def config_snapshot(cfg: PipelineConfig) -> dict[str, dict[str, Any]]:
    """Section-structured echo of the effective configuration (for manifests)."""
    snapshot: dict[str, dict[str, Any]] = {}
    for section, keys in SECTIONS.items():
        snapshot[section] = {}
        for key, field_name in keys.items():
            value = getattr(cfg, field_name)
            if isinstance(value, tuple):
                value = list(value)
            snapshot[section][key] = value
    return snapshot
