"""Load, validate, and canonicalize raw dump files (line-delimited JSON).

Each loader is quarantine-not-crash: per-record problems are collected into
a quarantine list with the offending line number, structural corruption
(duplicate primary ids) is a hard error. Accepted + quarantined always adds
up to the number of input lines.

With ``trusted``, a loader reads an artifact that ingest wrote, and that no
one changed since, without validating each field again (see
``_load_trusted``); a line that is not as ingest writes it raises
ArtifactError.
"""

from __future__ import annotations

import functools
import json
import re
import sys
from datetime import datetime, timedelta, timezone
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, NamedTuple, get_type_hints

GENDERS = ("male", "female", "unspecified")
EDUCATION_LEVELS = ("below-diploma", "diploma", "bachelor", "master", "doctorate", "unspecified")
MARITAL_STATUSES = ("single", "married", "unspecified")

AGE_MIN = 5
AGE_MAX = 120


class DuplicateIdError(ValueError):
    """A primary id occurs twice in one dump file (structural corruption)."""


class InputFileError(ValueError):
    """An input file cannot be read: it is not UTF-8 text, or it breaks its
    format as a whole. The message names the file."""


class ArtifactError(ValueError):
    """An on-disk artifact is malformed. Declared here so a trusted reload
    can raise it; the CLI maps it to an exit code."""


class EmptyCorpusError(ValueError):
    """Vocabulary construction needs at least one document. Raised and
    re-exported by ``textprep``; declared here so the CLI maps it to an
    exit code without importing textprep."""


class RawPost(NamedTuple):
    post_id: str
    blog_id: str
    title: str
    body: str
    published_at: datetime  # timezone-aware, UTC


class RawComment(NamedTuple):
    comment_id: str
    post_id: str
    commenter_blog_id: str | None  # None = anonymous commenter
    body: str
    created_at: datetime


class BlogrollRecord(NamedTuple):
    owner_blog_id: str
    target_url: str


class ProfileRecord(NamedTuple):
    blog_id: str
    age: int | None
    gender: str
    education: str
    marital_status: str


class QuarantinedLine(NamedTuple):
    file: str
    line: int
    reason: str


class LoadResult(NamedTuple):
    """Accepted records plus the quarantine report for one file."""

    records: list
    quarantined: list[QuarantinedLine]


# RFC 3339 timestamp, seconds precision required, fraction tolerated and
# truncated. A missing offset is interpreted with ``assume_offset``.
_TS_RE = re.compile(
    r"^(\d{4}-\d{2}-\d{2})[Tt ](\d{2}:\d{2}:\d{2})(?:\.\d+)?([Zz]|[+-]\d{2}:\d{2})?$"
)


# cached per offset: bounded by what ``_TS_RE`` admits, not by the input size
@functools.cache
def _timezone(offset: str | None, assume_offset: timedelta) -> timezone:
    if offset is None:
        return timezone(assume_offset)
    sign = 1 if offset[0] == "+" else -1
    hours, minutes = int(offset[1:3]), int(offset[4:6])
    return timezone(sign * timedelta(hours=hours, minutes=minutes))


def parse_timestamp(value: str, assume_offset: timedelta = timedelta(0)) -> datetime:
    """Parse an RFC 3339 timestamp into an aware UTC datetime.

    Timestamps without an explicit offset are taken as local wall-clock at
    ``assume_offset`` (the dump's fixed UTC offset). Sub-second digits are
    dropped; the data model is seconds precision. A timestamp raises
    ValueError unless its UTC reading one second on (a dataset window's end)
    and its reading at ``assume_offset`` (``stats``' bins) are in years 1-9999.
    """
    if not isinstance(value, str):
        raise ValueError("timestamp must be a string")
    m = _TS_RE.match(value.strip())
    if not m:
        raise ValueError(f"unparseable timestamp: {value!r}")
    date_part, time_part, offset = m.group(1), m.group(2), m.group(3)
    naive = datetime.fromisoformat(f"{date_part}T{time_part}")  # validates ranges
    tz = timezone.utc if offset in ("Z", "z") else _timezone(offset, assume_offset)
    try:
        utc = naive.replace(tzinfo=tz).astimezone(timezone.utc)
        utc + timedelta(seconds=1)
    except OverflowError:
        raise ValueError(f"timestamp out of range in UTC: {value!r}") from None
    try:
        utc + assume_offset
    except OverflowError:
        raise ValueError(f"timestamp out of range at the dump offset: {value!r}") from None
    return utc


def format_timestamp(dt: datetime) -> str:
    """Serialize back to the dump schema: UTC, seconds precision, Z suffix,
    four-digit year."""
    # an aware UTC datetime's isoformat ends in "+00:00"
    return dt.astimezone(timezone.utc).isoformat(timespec="seconds")[:-6] + "Z"


def canonical_slug(value: str) -> str:
    """Blog ids are case-insensitive slugs; fold to stripped lowercase."""
    return value.strip().lower()


def read_lines(path: str | Path, encoding: str = "utf-8",
               newline: str | None = None) -> Iterator[str]:
    """Yield the lines of a text file as ``open`` reads them with
    ``encoding`` and ``newline``. A byte that does not decode raises
    InputFileError naming the file. Every text file the package reads is
    read here."""
    with open(path, encoding=encoding, newline=newline) as fh:
        try:
            yield from fh
        except UnicodeDecodeError as err:
            raise InputFileError(f"{path}: not UTF-8 text ({err.reason})") from None


def read_text(path: str | Path, encoding: str = "utf-8-sig") -> str:
    """A whole text file; the default encoding drops a leading BOM."""
    return "".join(read_lines(path, encoding))


def decode_json(text: str, decode: Callable[[str], Any] = json.loads) -> Any:
    """``decode(text)``; a text ``json`` rejects with another error, worded by
    the interpreter (too deep, too long an integer), raises a JSONDecodeError
    with a fixed message instead."""
    try:
        return decode(text)
    except RecursionError:
        raise json.JSONDecodeError("nested too deeply", text, 0) from None
    except json.JSONDecodeError:
        raise
    except ValueError:  # the only other ValueError decoding a ``str`` raises
        raise json.JSONDecodeError("integer literal too long", text, 0) from None


def _string_field(obj: dict, key: str, *, allow_empty: bool = False) -> str:
    value = obj.get(key)
    if not isinstance(value, str):
        raise ValueError(f"field {key!r} missing or not a string")
    if not allow_empty and not value.strip():
        raise ValueError(f"field {key!r} is empty")
    try:
        # a JSON escape such as "\ud800" decodes to a lone surrogate, which
        # no artifact could be written with
        value.encode("utf-8")
    except UnicodeEncodeError:
        raise ValueError(f"field {key!r} holds a lone surrogate") from None
    return value


def _enum_field(obj: dict, key: str, allowed: tuple[str, ...]) -> str:
    value = obj.get(key)
    if value is None:
        return "unspecified"
    if not isinstance(value, str) or value not in allowed:
        raise ValueError(f"field {key!r} must be one of {allowed}")
    return value


def _load_jsonl(
    path: str | Path,
    parse_record,
    *,
    id_of=None,
) -> LoadResult:
    """Shared loader loop: JSON-decode each line, validate via parse_record.

    parse_record raises ValueError to quarantine a line. id_of extracts the
    primary id from an accepted record for duplicate detection (hard error).
    """
    path = Path(path)
    records: list = []
    quarantined: list[QuarantinedLine] = []
    seen_ids: set[str] = set()
    for line_no, raw in enumerate(read_lines(path, "utf-8-sig"), start=1):
        raw = raw.rstrip("\n")  # else json finds a control character, not an open string
        try:
            if not raw.strip():
                raise ValueError("empty line")
            obj = decode_json(raw)
            if not isinstance(obj, dict):
                raise ValueError("line is not a JSON object")
            record = parse_record(obj)
        except ValueError as err:  # a JSONDecodeError's own text adds a position
            reason = f"invalid JSON: {err.msg}" if type(err) is json.JSONDecodeError else str(err)
            quarantined.append(QuarantinedLine(path.name, line_no, reason))
            continue
        if id_of is not None:
            rid = id_of(record)
            if rid in seen_ids:
                raise DuplicateIdError(f"{path.name}:{line_no}: duplicate id {rid!r}")
            seen_ids.add(rid)
        records.append(record)
    return LoadResult(records, quarantined)


# The JSON types an ingest artifact holds for each record field type;
# a datetime is written by ``format_timestamp``.
_ARTIFACT_TYPES = {
    str: (str,), str | None: (str, type(None)), int | None: (int, type(None)),
    datetime: (str,),
}
_CANONICAL_TS_RE = re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2}T[0-9]{2}:[0-9]{2}:[0-9]{2}Z")
# ``fromisoformat`` reads the ``Z`` suffix from Python 3.11 on
_from_canonical_ts = (
    datetime.fromisoformat if sys.version_info >= (3, 11)
    else lambda ts: datetime.fromisoformat(ts[:-1] + "+00:00")
)


def _load_trusted(path: str | Path, record_type: type, check=None) -> LoadResult:
    """Reload an artifact that ``write_jsonl`` wrote from ``record_type``
    records without validating each field again. Each line must still be
    exactly one JSON object of the record's fields, each of the JSON type
    ``_ARTIFACT_TYPES`` gives it, with every timestamp in the canonical UTC
    form and no lone surrogate, and ``check`` may reject a record with
    ValueError: so a changed artifact cannot fail a later step. Any miss
    raises ArtifactError naming ``file:line``."""
    path = Path(path)
    # a NamedTuple holds its annotations as ForwardRefs; this evaluates them
    hints = get_type_hints(record_type)
    # each field, in the order write_jsonl writes them: (name, its JSON types,
    # whether it is a timestamp)
    fields = [(name, _ARTIFACT_TYPES[hint], hint is datetime)
              for name, hint in sorted(hints.items())]
    raw_decode = json.JSONDecoder().raw_decode
    records: list = []
    for line_no, raw in enumerate(read_lines(path, newline="\n"), start=1):
        try:
            obj, end = decode_json(raw, raw_decode)
            # write_jsonl puts nothing after an object but its newline
            if raw[end:] not in ("\n", ""):
                raise ValueError("unexpected text after the object")
            if type(obj) is not dict:
                raise ValueError("line is not a JSON object")
            # only a \u escape can decode to a lone surrogate (one backslash
            # is searched for faster than two characters)
            escaped = "\\" in raw and "\\u" in raw
            for name, types, stamp in fields:
                value = obj[name]  # a KeyError names a missing field
                if type(value) not in types:
                    raise ValueError(f"field {name!r} is of the wrong type "
                                     f"({type(value).__name__})")
                if escaped and type(value) is str:
                    _string_field(obj, name, allow_empty=True)
                if stamp:
                    if not _CANONICAL_TS_RE.fullmatch(value):
                        raise ValueError(f"field {name!r} is not a canonical UTC timestamp")
                    obj[name] = _from_canonical_ts(value)
            if len(obj) != len(fields):
                raise ValueError(f"unexpected field {min(obj.keys() - hints)!r}")
            record = record_type(**obj)
            if check is not None:
                check(record)
        except json.JSONDecodeError as err:
            raise ArtifactError(f"{path}:{line_no}: invalid JSON: {err.msg}") from None
        except KeyError as err:
            raise ArtifactError(f"{path}:{line_no}: field {err} missing") from None
        except ValueError as err:
            raise ArtifactError(f"{path}:{line_no}: {err}") from None
        records.append(record)
    return LoadResult(records, [])


def load_posts(
    path: str | Path, utc_offset: timedelta = timedelta(0), *, trusted: bool = False
) -> LoadResult:
    """Load posts.jsonl; see RawPost for the record schema."""
    if trusted:
        return _load_trusted(path, RawPost)

    def parse(obj: dict) -> RawPost:
        return RawPost(
            post_id=_string_field(obj, "post_id").strip(),
            blog_id=canonical_slug(_string_field(obj, "blog_id")),
            title=_string_field(obj, "title", allow_empty=True),
            body=_string_field(obj, "body", allow_empty=True),
            published_at=parse_timestamp(obj.get("published_at"), utc_offset),
        )

    return _load_jsonl(path, parse, id_of=lambda p: p.post_id)


def load_comments(
    path: str | Path,
    known_post_ids: set[str],
    utc_offset: timedelta = timedelta(0),
    *,
    trusted: bool = False,
) -> LoadResult:
    """Load comments.jsonl; comments pointing at unknown posts are quarantined
    (an artifact ingest wrote points at none, so ``trusted`` does not look)."""
    if trusted:
        return _load_trusted(path, RawComment)

    def parse(obj: dict) -> RawComment:
        post_id = _string_field(obj, "post_id").strip()
        if post_id not in known_post_ids:
            raise ValueError(f"unknown post_id {post_id!r}")
        commenter = obj.get("commenter_blog_id")
        if commenter is not None:
            commenter = canonical_slug(
                _string_field(obj, "commenter_blog_id", allow_empty=True)
            ) or None
        return RawComment(
            comment_id=_string_field(obj, "comment_id").strip(),
            post_id=post_id,
            commenter_blog_id=commenter,
            body=_string_field(obj, "body", allow_empty=True),
            created_at=parse_timestamp(obj.get("created_at"), utc_offset),
        )

    return _load_jsonl(path, parse, id_of=lambda c: c.comment_id)


def load_blogroll(path: str | Path, *, trusted: bool = False) -> LoadResult:
    """Load blogroll.jsonl; target URLs must be syntactically valid http(s)."""
    if trusted:
        return _load_trusted(path, BlogrollRecord)
    from urllib.parse import urlsplit

    @functools.cache  # each distinct URL is split once per file
    def is_http_url(url: str) -> bool:
        try:
            parts = urlsplit(url)
            host = parts.hostname
        except ValueError:
            return False
        return parts.scheme in ("http", "https") and bool(host)

    def parse(obj: dict) -> BlogrollRecord:
        url = _string_field(obj, "target_url").strip()
        if not is_http_url(url):
            raise ValueError(f"invalid URL {url!r}")
        return BlogrollRecord(
            owner_blog_id=canonical_slug(_string_field(obj, "owner_blog_id")),
            target_url=url,
        )

    return _load_jsonl(path, parse)


def load_profiles(path: str | Path, *, trusted: bool = False) -> LoadResult:
    """Load profiles.jsonl; one profile per blog, age restricted to [5, 120]."""

    def check_age(age: int | None) -> None:
        if age is not None and not AGE_MIN <= age <= AGE_MAX:
            raise ValueError(f"age {age} outside [{AGE_MIN}, {AGE_MAX}]")

    if trusted:  # an age that is out of range may not even convert to a float
        return _load_trusted(path, ProfileRecord, lambda p: check_age(p.age))

    def parse(obj: dict) -> ProfileRecord:
        age = obj.get("age")
        if age is not None and (isinstance(age, bool) or not isinstance(age, int)):
            raise ValueError("field 'age' must be an integer or null")
        check_age(age)
        return ProfileRecord(
            blog_id=canonical_slug(_string_field(obj, "blog_id")),
            age=age,
            gender=_enum_field(obj, "gender", GENDERS),
            education=_enum_field(obj, "education", EDUCATION_LEVELS),
            marital_status=_enum_field(obj, "marital_status", MARITAL_STATUSES),
        )

    return _load_jsonl(path, parse, id_of=lambda p: p.blog_id)


# --- serialization back to the dump schema (round-trip safe) ---------------

def post_to_dict(p: RawPost) -> dict[str, Any]:
    return {**p._asdict(), "published_at": format_timestamp(p.published_at)}


def comment_to_dict(c: RawComment) -> dict[str, Any]:
    return {**c._asdict(), "created_at": format_timestamp(c.created_at)}


blogroll_to_dict = BlogrollRecord._asdict
profile_to_dict = ProfileRecord._asdict
quarantine_to_dict = QuarantinedLine._asdict


def write_lines(path: str | Path, lines: Iterable[str]) -> int:
    """Write each line and a ``\\n`` to a UTF-8 file; returns the line count.
    Every text artifact but a CSV is written here."""
    n = 0
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for n, line in enumerate(lines, start=1):
            fh.write(line)
            fh.write("\n")
    return n


def write_jsonl(path: str | Path, rows: Iterator[dict] | list[dict]) -> int:
    """Write dicts as one JSON object per line; returns the line count."""
    encode = json.JSONEncoder(ensure_ascii=False, sort_keys=True).encode
    return write_lines(path, map(encode, rows))
