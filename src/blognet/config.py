"""Pipeline configuration: one JSON document with a section per module,
every key overridable from the command line.

``PipelineConfig`` is the only place a setting is declared: its annotation
gives the flag's converter and the type a value must have (``_TYPES``), and
its field metadata the file section, the file key where that is not the
field name, and the range or choices of the value. ``SECTIONS``, the CLI
flags and every check in ``_validate`` are derived from it.

Defaults: damping 0.85, minimum component size 10, six-post activity
threshold, 1e-9 convergence tolerances, UTC+03:30 dump offset.
"""

from __future__ import annotations

import argparse
import json
from dataclasses import Field, dataclass, field, fields, replace
from datetime import timedelta
from pathlib import Path
from typing import Any, Callable

from .ingest import InputFileError, decode_json, parse_timestamp, read_text

TFIDF_VARIANTS = ("raw_ln", "log_tf", "smooth_idf")


class ConfigError(ValueError):
    """Invalid configuration; ``problems`` lists every bad field at once."""

    def __init__(self, problems: list[str]):
        self.problems = problems
        super().__init__("; ".join(problems))


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise argparse.ArgumentTypeError(f"expected a boolean, got {text!r}")


def _is_int(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_str_list(value: Any) -> bool:
    return isinstance(value, (list, tuple)) and all(isinstance(p, str) for p in value)


# annotation without "| None" -> (flag converter, the test a value must pass,
# its name); a bool is never taken for an int or a float
_TYPES: dict[str, tuple[Callable[[str], Any], Callable[[Any], bool], str]] = {
    "bool": (_parse_bool, lambda v: isinstance(v, bool), "a boolean"),
    "int": (int, _is_int, "an integer"),
    "float": (float, lambda v: _is_int(v) or isinstance(v, float), "a number"),
    "str": (str, lambda v: isinstance(v, str), "a string"),
    "tuple[str, ...]": (str, _is_str_list, "a list of strings"),
}

_POSITIVE_INT = (lambda v: v >= 1, "an integer >= 1")


def _choice(*choices: str) -> tuple[Callable[[Any], bool], str]:
    text = " or ".join(choices) if len(choices) == 2 else f"one of {', '.join(choices)}"
    return (lambda v: v in choices, text)


def _setting(section: str, default: Any = None, key: str | None = None, check=None) -> Any:
    """A config field filed under ``section``; ``key`` is its file key where
    that is not the field name, and ``check`` a (test, text) pair for the
    range or choices of a value of the field's type."""
    metadata = {"section": section, "key": key, "check": check}
    return field(default=default, metadata={k: v for k, v in metadata.items() if v is not None})


@dataclass(frozen=True)
class PipelineConfig:
    posts: str | None = _setting("inputs")
    comments: str | None = _setting("inputs")
    blogroll: str | None = _setting("inputs")
    profiles: str | None = _setting("inputs")
    utc_offset_minutes: int = _setting("ingest", 210, check=(
        lambda v: -16 * 60 <= v <= 16 * 60, "an integer number of minutes within +/-16h"))
    stopwords: str | None = _setting("textprep")   # None -> packaged default list
    equivalences: str | None = _setting("textprep")
    min_df: int = _setting("textprep", 2, check=_POSITIVE_INT)
    max_df_ratio: float = _setting("textprep", 0.5, check=(lambda v: 0 < v <= 1, "in (0, 1]"))
    vocab_top_k: int | None = _setting("textprep", check=_POSITIVE_INT)
    tfidf_variant: str = _setting("textprep", "raw_ln", check=_choice(*TFIDF_VARIANTS))
    unify_alef: bool = _setting("textprep", True)
    host_patterns: tuple[str, ...] = _setting("graphbuild", ())
    comment_direction: str = _setting("graphbuild", "commenter_to_author", check=_choice(
        "commenter_to_author", "author_to_commenter"))
    min_component_size: int = _setting("graphclean", 10, check=_POSITIVE_INT)
    isolated_strict: bool = _setting("graphclean", False)
    clustering_variant: str = _setting("graphclean", "mean_local", check=_choice(
        "mean_local", "transitivity"))
    damping: float = _setting("ranking", 0.85, check=(lambda v: 0 < v < 1, "in (0, 1)"))
    tol: float = _setting("ranking", 1e-9, check=(lambda v: v > 0, "positive"))
    max_iter: int = _setting("ranking", 200, check=_POSITIVE_INT)
    hits_norm: str = _setting("ranking", "l2", check=_choice("l2", "l1"))
    dangling_policy: str = _setting("ranking", "uniform", check=_choice("uniform", "self"))
    weighted_rank: bool = _setting("ranking", False)
    # None -> full ranked listings
    rank_top_k: int | None = _setting("ranking", key="top_k", check=_POSITIVE_INT)
    window_start: str | None = _setting("profilestats")   # RFC 3339; None -> dataset span
    window_end: str | None = _setting("profilestats")
    min_posts: int = _setting("profilestats", 6, check=_POSITIVE_INT)
    require_monthly: bool = _setting("profilestats", False)
    comment_threshold: int = _setting("profilestats", 10, check=(
        lambda v: v >= 0, "an integer >= 0"))
    out_dir: str = _setting("output", "out", check=(bool, "a non-empty path"))

    @property
    def utc_offset(self) -> timedelta:
        return timedelta(minutes=self.utc_offset_minutes)


def _key(f: Field) -> str:
    return f.metadata.get("key", f.name)


def _sections() -> dict[str, dict[str, str]]:
    sections: dict[str, dict[str, str]] = {}
    for f in fields(PipelineConfig):
        sections.setdefault(f.metadata["section"], {})[_key(f)] = f.name
    return sections


# config-file section -> {file key: dataclass field}, in field order
SECTIONS = _sections()
_FIELDS = {f.name: f for f in fields(PipelineConfig)}
# dataclass field -> the converter of its command-line flag
FLAG_TYPES = {name: _TYPES[f.type.removesuffix(" | None")][0] for name, f in _FIELDS.items()}


def parse_host_pattern(pattern: str) -> tuple[bool, str]:
    """Read a ``{blog}.host`` or ``host/{blog}`` pattern, case-insensitively:
    whether the blog is the subdomain, and the rest of the pattern lowercased
    (the ``.host`` suffix or the host). Any other pattern raises ValueError."""
    lowered = pattern.strip().lower()
    if lowered.startswith("{blog}."):
        return True, lowered[len("{blog}"):]
    if lowered.endswith("/{blog}"):
        return False, lowered[:-len("/{blog}")]
    raise ValueError(f"{pattern!r} must look like '{{blog}}.host' or 'host/{{blog}}'")


def _coerce(annotation: str, value: Any) -> Any:
    """A ``tuple[str, ...]`` field takes a list of strings or a
    comma-separated string; any other value is kept as given, for
    ``_validate`` to check."""
    if annotation == "tuple[str, ...]":
        if isinstance(value, str):
            value = [p for p in value.split(",") if p.strip()]
        if _is_str_list(value):
            return tuple(p.strip() for p in value)
    return value


def _validate(cfg: PipelineConfig) -> list[str]:
    failed = {}  # field -> its problem, in field order
    for f in _FIELDS.values():
        base = f.type.removesuffix(" | None")
        _flag, is_type, type_name = _TYPES[base]
        in_range, text = f.metadata.get("check", (lambda v: True, type_name))
        value = getattr(cfg, f.name)
        nullable = base != f.type
        if not (value is None and nullable or is_type(value) and in_range(value)):
            null = "null or " if nullable else ""
            failed[f.name] = f"{f.metadata['section']}.{_key(f)} must be {null}{text}"

    problems = []
    if "host_patterns" not in failed:
        for pattern in cfg.host_patterns:
            try:
                parse_host_pattern(pattern)
            except ValueError as err:
                problems.append(f"graphbuild.host_patterns entry {err}")

    # bounds without an offset are read at the dump's offset, as stats reads them
    offset = timedelta(0) if "utc_offset_minutes" in failed else cfg.utc_offset
    bounds = {}
    for key in ("window_start", "window_end"):
        value = getattr(cfg, key)
        if value is not None:
            try:
                bounds[key] = parse_timestamp(value, offset)
            except ValueError:
                failed.pop(key, None)  # this problem names the value, so it replaces that one
                problems.append(f"profilestats.{key} is not an RFC 3339 timestamp: {value!r}")
    if len(bounds) == 2 and bounds["window_start"] >= bounds["window_end"]:
        problems.append("profilestats.window_start must precede window_end")
    if len(bounds) == 1 and None in (cfg.window_start, cfg.window_end):
        problems.append("profilestats.window_start and window_end must be set together")
    return [*failed.values(), *problems]


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
        try:
            document = decode_json(read_text(path))
        except json.JSONDecodeError as err:
            raise ConfigError([f"config file {path}: not valid JSON: {err.msg}"]) from None
        except InputFileError as err:  # it names the file
            raise ConfigError([f"config file {err}"]) from None
        except OSError as err:
            raise ConfigError([f"config file {path}: {err.strerror}"]) from None
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
                values[field_name] = value
    if overrides:
        values.update((name, value) for name, value in overrides.items() if value is not None)

    for name in sorted(set(values) - set(_FIELDS)):
        problems.append(f"unknown config field {name!r}")
        values.pop(name)
    cfg = replace(PipelineConfig(), **{
        name: _coerce(_FIELDS[name].type, value) for name, value in values.items()
    })
    problems.extend(_validate(cfg))
    if problems:
        raise ConfigError(problems)
    return cfg


def config_snapshot(cfg: PipelineConfig) -> dict[str, dict[str, Any]]:
    """Section-structured echo of the effective configuration (for manifests)."""
    return {
        section: {key: getattr(cfg, field_name) for key, field_name in keys.items()}
        for section, keys in SECTIONS.items()
    }
