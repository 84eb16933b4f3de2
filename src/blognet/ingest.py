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
from datetime import datetime, timedelta, timezone
from itertools import product
from json.encoder import encode_basestring
from operator import attrgetter, itemgetter
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, NamedTuple, get_type_hints
from urllib.parse import urlsplit

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


# RFC 3339 timestamp: ASCII digits, seconds precision required, fraction
# tolerated and truncated, offsets -23:59 to +23:59. A missing offset is
# interpreted with ``assume_offset``.
_TS_RE = re.compile(
    r"^([0-9]{4}-[0-9]{2}-[0-9]{2})[Tt ]([0-9]{2}:[0-9]{2}:[0-9]{2})(?:\.[0-9]+)?"
    r"([Zz]|[+-](?:[01][0-9]|2[0-3]):[0-5][0-9])?$"
)
_DAY = timedelta(days=1)


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
    date_part, time_part, offset = m.groups()
    if offset in ("Z", "z"):
        offset = "+00:00"  # 3.10 reads no Z
    parsed = datetime.fromisoformat(f"{date_part}T{time_part}{offset or ''}")  # validates ranges
    if offset is None:
        parsed = parsed.replace(tzinfo=timezone(assume_offset))
    if 1 < parsed.year < 9999 and -_DAY < assume_offset < _DAY:
        # UTC is less than a day from the local reading, and the reading at
        # assume_offset less than a day from UTC: neither leaves years 1-9999
        return parsed.astimezone(timezone.utc)
    try:
        utc = parsed.astimezone(timezone.utc)
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
    return dt.astimezone(timezone.utc).isoformat("T", "seconds")[:-6] + "Z"


# the control characters (category Cc) that ``str.isspace`` does not accept
_CONTROL_RE = re.compile(r"[\x00-\x08\x0e-\x1b\x7f-\x84\x86-\x9f]")
# For str patterns ``\s`` matches exactly the characters ``str.isspace`` accepts.
_NOT_BARE_RE = re.compile(r"[/:\\\s]")


@functools.cache  # a blog id recurs in many records; a rejected one raises each time
def canonical_slug(value: str) -> str:
    """The one blog id grammar: a case-insensitive bare slug, folded to
    stripped lowercase. A control character other than whitespace raises
    ValueError (not every interpreter's csv module writes a NUL, and a
    graph.dot node name or a nodes.txt line would carry the raw byte), as
    does a ``/``, ``:``, ``\\`` or whitespace left in the slug. Callers
    judge an empty slug."""
    if _CONTROL_RE.search(value):
        what = "a NUL" if "\0" in value else "a control character"
        raise ValueError(f"blog id holds {what}: {value!r}")
    slug = value.strip().lower()
    if _NOT_BARE_RE.search(slug):
        raise ValueError(f"not a bare blog slug: {value!r}")
    return slug


# A URL that ``urlsplit`` splits as this pattern reads it: scheme://host,
# then an optional path, query and fragment. The host is ASCII letters,
# digits, "." and "-", and nothing holds a tab or a line break, which
# ``urlsplit`` deletes before splitting.
_SIMPLE_URL_RE = re.compile(
    r"([A-Za-z][A-Za-z0-9+.-]*)://([A-Za-z0-9.-]*)(/[^?#\t\r\n]*)?(?:[?#][^\t\r\n]*)?")


def _split_url(url: str) -> tuple[str, str | None, str]:
    """``url``'s scheme, host and path as ``urlsplit(url)`` gives them in its
    ``scheme``, ``hostname`` and ``path``; raises ValueError where it does."""
    simple = _SIMPLE_URL_RE.fullmatch(url)
    if simple:
        scheme, host, path = simple.groups()
        return scheme.lower(), host.lower() or None, path or ""
    parts = urlsplit(url)
    return parts.scheme, parts.hostname, parts.path


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


def _string_field(obj: dict, key: str, escaped: bool, *, allow_empty: bool = False) -> str:
    """``obj[key]``, a string, non-blank unless ``allow_empty``. With
    ``escaped`` (the line holds a ``\\u`` escape) it is also checked for a
    lone surrogate, which no artifact could be written with: a strictly
    decoded UTF-8 line holds none any other way."""
    value = obj.get(key)
    if not isinstance(value, str):
        raise ValueError(f"field {key!r} missing or not a string")
    if not allow_empty and not value.strip():
        raise ValueError(f"field {key!r} is empty")
    if escaped:
        try:
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


# the scanner ``json.loads`` runs: one JSON value and where it ends
_scan_once = json.JSONDecoder().scan_once


def _decode_line(raw: str) -> Any:
    """The JSON value of one dump line (without its newline). A line that is
    one object and nothing else is read by one scan; any other line is an
    empty line or goes through ``decode_json``, which words every error."""
    if raw[:1] == "{":
        try:
            obj, end = _scan_once(raw, 0)
            if end == len(raw):
                return obj
        except (StopIteration, ValueError, RecursionError):
            pass  # decode_json words the error
    if not raw.strip():
        raise ValueError("empty line")
    return decode_json(raw)


def _load_jsonl(
    path: str | Path,
    parse_record,
    *,
    id_of=None,
) -> LoadResult:
    """Shared loader loop: JSON-decode each line, validate via parse_record.

    parse_record(obj, escaped) raises ValueError to quarantine a line;
    ``escaped`` says whether the line holds a ``\\u`` escape. id_of extracts
    the primary id from an accepted record for duplicate detection (hard
    error).
    """
    path = Path(path)
    records: list = []
    quarantined: list[QuarantinedLine] = []
    seen_ids: set[str] = set()
    for line_no, raw in enumerate(read_lines(path, "utf-8-sig"), start=1):
        raw = raw.rstrip("\n")  # else json finds a control character, not an open string
        try:
            obj = _decode_line(raw)
            if not isinstance(obj, dict):
                raise ValueError("line is not a JSON object")
            # one backslash is searched for faster than two characters
            record = parse_record(obj, "\\" in raw and "\\u" in raw)
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


class _FieldRule(NamedTuple):
    """How an ingest artifact holds a record field of one type."""

    json_types: tuple[type, ...]  # the JSON types it is read back as
    encode: Callable[[Any], str]  # its JSON text, as ``write_jsonl`` writes it


def _or_null(encode: Callable[[Any], str]) -> Callable[[Any], str]:
    return lambda value: "null" if value is None else encode(value)


# Each record field type's rule, read by ``_load_trusted`` and ``write_jsonl``;
# each JSON text is the one ``json.dumps(..., ensure_ascii=False)`` writes,
# and a datetime is written as ``format_timestamp`` gives it.
_ARTIFACT_TYPES = {
    str: _FieldRule((str,), encode_basestring),
    str | None: _FieldRule((str, type(None)), _or_null(encode_basestring)),
    int: _FieldRule((int,), int.__repr__),
    int | None: _FieldRule((int, type(None)), _or_null(int.__repr__)),
    datetime: _FieldRule((str,), lambda dt: f'"{format_timestamp(dt)}"'),
}
_CANONICAL_TS_RE = re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2}T[0-9]{2}:[0-9]{2}:[0-9]{2}Z")


def _load_trusted(path: str | Path, record_type: type, check=None) -> LoadResult:
    """Reload an artifact that ``write_jsonl`` wrote from ``record_type``
    records without validating each field again. Each line must still be
    exactly one JSON object of the record's fields, each of the JSON type
    ``_ARTIFACT_TYPES`` gives it, with every timestamp in the canonical UTC
    form and no lone surrogate, and ``check`` may reject a record with
    ValueError: so a changed artifact cannot fail a later step. Any miss
    raises ArtifactError naming ``file:line``.

    A line is checked as a whole: one scan, then its value's length, its
    fields' values and their types in one step each. A line that fails that
    check, or holds a ``\\u`` escape, is checked field by field, which names
    the fault."""
    path = Path(path)
    # a NamedTuple holds its annotations as ForwardRefs; this evaluates them
    hints = get_type_hints(record_type)
    # each field, in the order write_jsonl writes them: (name, its JSON types,
    # whether it is a timestamp)
    fields = [(name, _ARTIFACT_TYPES[hint].json_types, hint is datetime)
              for name, hint in sorted(hints.items())]
    raw_decode = json.JSONDecoder().raw_decode

    def by_field(raw: str):
        """The record of one line, each field checked in turn; a fault raises
        ValueError, or KeyError naming a missing field."""
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
                _string_field(obj, name, True, allow_empty=True)
            if stamp:
                if not _CANONICAL_TS_RE.fullmatch(value):
                    raise ValueError(f"field {name!r} is not a canonical UTC timestamp")
                obj[name] = datetime.fromisoformat(value[:-1] + "+00:00")  # 3.10 reads no Z
        if len(obj) != len(fields):
            raise ValueError(f"unexpected field {min(obj.keys() - hints)!r}")
        return record_type(**obj)

    # the line check: the record's values in field order, every tuple of
    # JSON types they may have, and where its timestamps are
    names = record_type._fields
    values_of = itemgetter(*names)
    allowed = set(product(*(_ARTIFACT_TYPES[hints[name]].json_types for name in names)))
    stamps = [i for i, name in enumerate(names) if hints[name] is datetime]
    canonical = _CANONICAL_TS_RE.fullmatch
    from_iso = datetime.fromisoformat
    records: list = []
    for line_no, raw in enumerate(read_lines(path, newline="\n"), start=1):
        try:
            try:
                obj, end = _scan_once(raw, 0)
                values = values_of(obj)
                whole = (type(obj) is dict and len(obj) == len(names)
                         and raw[end:] in ("\n", "") and tuple(map(type, values)) in allowed
                         and not ("\\" in raw and "\\u" in raw))
                if whole and stamps:
                    values = list(values)
                    for i in stamps:
                        if not canonical(values[i]):
                            raise ValueError  # by_field names it
                        values[i] = from_iso(values[i][:-1] + "+00:00")
            except (StopIteration, ValueError, RecursionError, KeyError, TypeError):
                whole = False
            # a record made of exactly its fields' values, as ``_make`` makes one
            record = tuple.__new__(record_type, values) if whole else by_field(raw)
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


def _check_columns(path: str | Path, result: LoadResult, key: str | None,
                   blog_ids: tuple[str, ...], post_ids: set[str] | None = None) -> LoadResult:
    """``result``, a trusted reload, once each ``post_id`` is one of
    ``post_ids`` when given, each ``blog_ids`` value null or a non-empty
    blog id that is its own ``canonical_slug``, and each ``key`` value
    non-empty and unique, each checked once per column or distinct value.
    A fault raises ArtifactError, or DuplicateIdError for a repeated key,
    naming the first record with it as ``file:line``."""
    records = result.records

    def fail(name: str, fault: Callable[[Any], Any], error: type = ArtifactError):
        i, why = next((i, why) for i, value in enumerate(map(attrgetter(name), records))
                      if (why := fault(value)))
        raise error(f"{path}:{i + 1}: {why}")

    def blog_id_fault(value: str) -> str | None:
        try:
            if value and canonical_slug(value) == value:
                return None
        except ValueError as err:
            return str(err)
        return f"field {name!r} is " + (f"not a canonical blog id: {value!r}" if value else "empty")

    if post_ids is not None and not post_ids.issuperset(map(attrgetter("post_id"), records)):
        fail("post_id", lambda value: value not in post_ids and f"unknown post_id {value!r}")
    for name in blog_ids:
        bad = {value: why for value in set(map(attrgetter(name), records)) - {None}
               if (why := blog_id_fault(value))}
        if bad:
            fail(name, bad.get)
    if key is not None:
        keys = set(map(attrgetter(key), records))
        if "" in keys:
            fail(key, lambda value: value == "" and f"field {key!r} is empty")
        if len(keys) != len(records):
            seen: set[str] = set()
            fail(key, lambda value: (value in seen or seen.add(value))
                 and f"duplicate id {value!r}", DuplicateIdError)
    return result


def load_posts(
    path: str | Path, utc_offset: timedelta = timedelta(0), *, trusted: bool = False
) -> LoadResult:
    """Load posts.jsonl; see RawPost for the record schema."""
    if trusted:
        return _check_columns(path, _load_trusted(path, RawPost), "post_id", ("blog_id",))

    def parse(obj: dict, escaped: bool) -> RawPost:
        return RawPost(  # post_id, blog_id, title, body, published_at
            _string_field(obj, "post_id", escaped).strip(),
            canonical_slug(_string_field(obj, "blog_id", escaped)),
            _string_field(obj, "title", escaped, allow_empty=True),
            _string_field(obj, "body", escaped, allow_empty=True),
            parse_timestamp(obj.get("published_at"), utc_offset),
        )

    return _load_jsonl(path, parse, id_of=lambda p: p.post_id)


def load_comments(
    path: str | Path,
    known_post_ids: set[str],
    utc_offset: timedelta = timedelta(0),
    *,
    trusted: bool = False,
) -> LoadResult:
    """Load comments.jsonl; comments pointing at unknown posts are quarantined."""
    if trusted:
        return _check_columns(path, _load_trusted(path, RawComment), "comment_id",
                              ("commenter_blog_id",), known_post_ids)

    def parse(obj: dict, escaped: bool) -> RawComment:
        post_id = _string_field(obj, "post_id", escaped).strip()
        if post_id not in known_post_ids:
            raise ValueError(f"unknown post_id {post_id!r}")
        commenter = obj.get("commenter_blog_id")
        if commenter is not None:
            commenter = canonical_slug(
                _string_field(obj, "commenter_blog_id", escaped, allow_empty=True)) or None
        return RawComment(  # comment_id, post_id, commenter_blog_id, body, created_at
            _string_field(obj, "comment_id", escaped).strip(),
            post_id,
            commenter,
            _string_field(obj, "body", escaped, allow_empty=True),
            parse_timestamp(obj.get("created_at"), utc_offset),
        )

    return _load_jsonl(path, parse, id_of=lambda c: c.comment_id)


def load_blogroll(path: str | Path, *, trusted: bool = False) -> LoadResult:
    """Load blogroll.jsonl; target URLs must be syntactically valid http(s)."""
    if trusted:
        return _check_columns(path, _load_trusted(path, BlogrollRecord), None, ("owner_blog_id",))

    @functools.cache  # each distinct URL is split once per file
    def is_http_url(url: str) -> bool:
        try:
            scheme, host, _path = _split_url(url)
        except ValueError:
            return False
        return scheme in ("http", "https") and bool(host)

    def parse(obj: dict, escaped: bool) -> BlogrollRecord:
        url = _string_field(obj, "target_url", escaped).strip()
        if not is_http_url(url):
            raise ValueError(f"invalid URL {url!r}")
        return BlogrollRecord(canonical_slug(_string_field(obj, "owner_blog_id", escaped)), url)

    return _load_jsonl(path, parse)


def load_profiles(path: str | Path, *, trusted: bool = False) -> LoadResult:
    """Load profiles.jsonl; one profile per blog, age restricted to [5, 120]."""

    def check_age(age: int | None) -> None:
        if age is not None and not AGE_MIN <= age <= AGE_MAX:
            raise ValueError(f"age {age} outside [{AGE_MIN}, {AGE_MAX}]")

    if trusted:  # an age that is out of range may not even convert to a float
        return _check_columns(path, _load_trusted(path, ProfileRecord, lambda p: check_age(p.age)),
                              "blog_id", ("blog_id",))

    def parse(obj: dict, escaped: bool) -> ProfileRecord:
        age = obj.get("age")
        if age is not None and (isinstance(age, bool) or not isinstance(age, int)):
            raise ValueError("field 'age' must be an integer or null")
        check_age(age)
        return ProfileRecord(  # blog_id, age, gender, education, marital_status
            canonical_slug(_string_field(obj, "blog_id", escaped)),
            age,
            _enum_field(obj, "gender", GENDERS),
            _enum_field(obj, "education", EDUCATION_LEVELS),
            _enum_field(obj, "marital_status", MARITAL_STATUSES),
        )

    return _load_jsonl(path, parse, id_of=lambda p: p.blog_id)


# --- serialization back to the dump schema (round-trip safe) ---------------

def write_lines(path: str | Path, lines: Iterable[str]) -> int:
    """Write each line and a ``\\n`` to a UTF-8 file; returns the line count.
    Every text artifact but a CSV is written here."""
    n = 0
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for n, line in enumerate(lines, start=1):
            fh.write(line)
            fh.write("\n")
    return n


_encode_json = json.JSONEncoder(
    ensure_ascii=False, sort_keys=True, default=format_timestamp).encode


@functools.cache
def _row_encoder(row_type: type) -> Callable[[Any], str]:
    """The line ``write_jsonl`` writes for a row of ``row_type``: a record
    (NamedTuple) is written field by field in name order, each by its
    type's ``_ARTIFACT_TYPES`` rule; anything else by ``_encode_json``."""
    if not hasattr(row_type, "_fields"):
        return _encode_json
    hints = get_type_hints(row_type)
    names = sorted(row_type._fields)
    template = "{" + ", ".join(f"{encode_basestring(name)}: %s" for name in names) + "}"
    fields = [(row_type._fields.index(name), _ARTIFACT_TYPES[hints[name]].encode)
              for name in names]
    return lambda row: template % tuple([encode(row[i]) for i, encode in fields])


def write_jsonl(path: str | Path, rows: Iterable) -> int:
    """Write records or dicts as one JSON object per line with sorted keys,
    each datetime as ``format_timestamp`` gives it; a record is written as
    its ``_asdict()`` would be. Returns the line count."""
    return write_lines(path, (_row_encoder(type(row))(row) for row in rows))
