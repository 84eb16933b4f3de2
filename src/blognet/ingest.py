"""Load, validate, and canonicalize raw dump files (line-delimited JSON).

Each loader is quarantine-not-crash: per-record problems are collected into
a quarantine list with the offending line number, structural corruption
(duplicate primary ids) is a hard error. Accepted + quarantined always adds
up to the number of input lines.

Every loader reads through one reader, ``_read_jsonl``. With ``reload``, a
loader reads an artifact that ingest wrote, through the same field rules:
each value must already be the one ingest writes, and the first line that is
not as ingest writes it raises ArtifactError naming ``file:line``.
"""

from __future__ import annotations

import functools
import ipaddress
import json
import re
import unicodedata
from datetime import datetime, timedelta, timezone
from itertools import compress, count, filterfalse, islice, repeat
from json.encoder import encode_basestring
from operator import attrgetter, itemgetter
from pathlib import Path
from typing import Any, Callable, Container, Iterable, Iterator, NamedTuple, get_type_hints

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
    """An on-disk artifact is malformed. Declared here so a loader's reload
    mode can raise it; the CLI maps it to an exit code."""


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


# [scheme:][//authority]path, then the query and fragment (RFC 3986
# appendix B), with a scheme only where one is valid
_URL_RE = re.compile(r"(?:([A-Za-z][A-Za-z0-9+.-]*):)?(?://([^/?#]*))?([^?#]*)")
_C0_OR_SPACE = "".join(map(chr, range(0x21)))


def _split_url(url: str) -> tuple[str, str | None, str]:
    """``url``'s scheme, host and path as CPython 3.11.7's ``urlsplit`` gives
    them (``scheme``, ``hostname``, ``path``), and a ValueError where it
    raises one, whatever the interpreter. The README states the rules."""
    url = url.lstrip(_C0_OR_SPACE).replace("\t", "").replace("\r", "").replace("\n", "")
    scheme, authority, path = _URL_RE.match(url).groups("")
    if ("[" in authority) != ("]" in authority):
        raise ValueError(f"unpaired bracket in {authority!r}")
    if "[" in authority:
        bracketed = authority.partition("[")[2].partition("]")[0]
        if not re.fullmatch(r"v[0-9A-Fa-f]+\..+", bracketed):
            ipaddress.IPv6Address(bracketed)  # a ValueError if it is not one
    if not authority.isascii():
        folded = unicodedata.normalize("NFKC", authority.replace("@", "").replace(":", ""))
        if any(c in folded for c in "/?#@:"):
            raise ValueError(f"{authority!r} holds URL delimiters under NFKC")
    host = authority.rpartition("@")[2]
    host = host.partition("[")[2].partition("]")[0] if "[" in host else host.partition(":")[0]
    host, percent, zone = host.partition("%")
    return scheme.lower(), host.lower() + percent + zone or None, path


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


def decode_json(text: str) -> Any:
    """``json.loads(text)``; a text ``json`` rejects with another error, worded
    by the interpreter (too deep, too long an integer), raises a
    JSONDecodeError with a fixed message instead."""
    try:
        return json.loads(text)
    except RecursionError:
        raise json.JSONDecodeError("nested too deeply", text, 0) from None
    except json.JSONDecodeError:
        raise
    except ValueError:  # the only other ValueError decoding a ``str`` raises
        raise json.JSONDecodeError("integer literal too long", text, 0) from None


# --- reading a field: its JSON value, then its rule --------------------------

def _string_field(obj: dict, key: str, *, allow_empty: bool = False) -> str:
    """``obj[key]``, a string, non-blank unless ``allow_empty``, with no lone
    surrogate: a ``\\u`` escape decodes to one, and no artifact could be
    written with it."""
    value = obj.get(key)
    if not isinstance(value, str):
        raise ValueError(f"field {key!r} missing or not a string")
    if not allow_empty and not value.strip():
        raise ValueError(f"field {key!r} is empty")
    try:
        value.encode("utf-8")
    except UnicodeEncodeError:
        raise ValueError(f"field {key!r} holds a lone surrogate") from None
    return value


def _text_or_null(obj: dict, key: str) -> str | None:
    return None if obj.get(key) is None else _string_field(obj, key, allow_empty=True)


# Each rule gives the value ingest writes for a field's JSON value, or raises
# ValueError giving the reason.

def _stripped_id(value: str) -> str:
    if not (stripped := value.strip()):
        raise ValueError("empty id")
    return stripped


def _blog_id(value: str) -> str:
    if not (slug := canonical_slug(value)):
        raise ValueError("empty blog id")
    return slug


def _blog_id_or_none(value: str | None) -> str | None:
    """A commenter's blog id; null or an empty one is an anonymous commenter."""
    return None if value is None else canonical_slug(value) or None


def _http_url(value: str) -> str:
    url = value.strip()
    try:
        scheme, host, _path = _split_url(url)
    except ValueError:
        scheme = host = None
    if scheme not in ("http", "https") or not host:
        raise ValueError(f"invalid URL {url!r}")
    return url


def _age(value: Any) -> int | None:
    if value is not None and (isinstance(value, bool) or not isinstance(value, int)):
        raise ValueError("field 'age' must be an integer or null")
    if value is not None and not AGE_MIN <= value <= AGE_MAX:
        raise ValueError(f"age {value} outside [{AGE_MIN}, {AGE_MAX}]")
    return value


def _enum(key: str, allowed: tuple[str, ...], value: Any) -> str:
    """One of ``allowed``; null is "unspecified"."""
    if value is None:
        return "unspecified"
    if value not in allowed:
        raise ValueError(f"field {key!r} must be one of {allowed}")
    return value


_CANONICAL_TS_RE = re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2}T[0-9]{2}:[0-9]{2}:[0-9]{2}Z")


def _utc_stamps(column: tuple[str, ...], rule: Callable[[str], datetime]) -> list[datetime] | None:
    """Each timestamp of ``column`` read at C speed, or None unless each is as
    ``format_timestamp`` writes it and ``rule`` takes the earliest and the
    latest: what ``parse_timestamp`` takes at any offset is one span of time."""
    try:
        if all(map(_CANONICAL_TS_RE.fullmatch, column)) and rule(min(column)) <= rule(max(column)):
            return list(map(datetime.fromisoformat,  # 3.10 reads no Z
                            map(str.replace, column, repeat("Z"), repeat("+00:00"))))
    except ValueError:  # a date that is not in the calendar, or a reading ``rule`` rejects
        pass
    return None


class _Field(NamedTuple):
    """How a loader reads a record field: ``take(obj, key)`` gives its JSON
    value (default ``obj.get(key)``), and ``rule`` what ingest writes for
    that, a canonical ``kind``; both raise ValueError."""

    take: Callable[[dict, str], Any] | None = None
    rule: Callable[[Any], Any] | None = None
    kind: str = "value"


_TEXT = _Field(functools.partial(_string_field, allow_empty=True))
_ID = _Field(_string_field, _stripped_id, "id")
_BLOG_ID = _Field(_string_field, _blog_id, "blog id")


def _timestamp(utc_offset: timedelta) -> _Field:
    return _Field(None, functools.partial(parse_timestamp, assume_offset=utc_offset),
                  "UTC timestamp")


# --- the one reader ----------------------------------------------------------

# the scanner ``json.loads`` runs: one JSON value and where it ends
_scan_once = json.JSONDecoder().scan_once


class _FieldRule(NamedTuple):
    """How an ingest artifact holds a record field of one type."""

    json_types: tuple[type, ...]  # the JSON types it is read back as
    encode: Callable[[Any], str]  # its JSON text, as ``write_jsonl`` writes it


def _or_null(encode: Callable[[Any], str]) -> Callable[[Any], str]:
    return lambda value: "null" if value is None else encode(value)


# Each record field type's rule, read by ``_read_jsonl`` and ``write_jsonl``;
# each JSON text is the one ``json.dumps(..., ensure_ascii=False)`` writes,
# and a datetime is written as ``format_timestamp`` gives it.
_ARTIFACT_TYPES = {
    str: _FieldRule((str,), encode_basestring),
    str | None: _FieldRule((str, type(None)), _or_null(encode_basestring)),
    int: _FieldRule((int,), int.__repr__),
    int | None: _FieldRule((int, type(None)), _or_null(int.__repr__)),
    datetime: _FieldRule((str,), lambda dt: f'"{format_timestamp(dt)}"'),
}


def _written(value: Any) -> Any:
    """The JSON value ingest writes for a record field's value."""
    return format_timestamp(value) if isinstance(value, datetime) else value


def _not_as_written(obj: dict, record: Any, raw: str | None,
                    fields: dict[str, _Field]) -> str | None:
    """Why a line read into ``record`` is not as ``write_jsonl`` writes it, or
    None. ``raw``, the line's text, must be the line ``write_jsonl`` writes;
    it is None for a row the line check took, and that check compares no
    spacing, no field order and no escape but ``\\u``."""
    if extra := obj.keys() - set(record._fields):
        return f"unexpected field {min(extra)!r}"
    for name in sorted(record._fields):
        if name not in obj:
            return f"field {name!r} missing"
        if obj[name] != _written(getattr(record, name)):
            return f"field {name!r} is " + (
                f"not a canonical {fields[name].kind}: {obj[name]!r}" if obj[name] != ""
                else "empty")
    if raw is not None and raw != _row_encoder(type(record))(record):
        return "line is not as ingest writes it"
    return None


_BLOCK = 1 << 12  # lines whose columns are checked together


def _read_jsonl(path: str | Path, record_type: type, fields: dict[str, _Field],
                key: str | None, reload: bool) -> LoadResult:
    """Read a dump file of ``record_type`` records, or with ``reload`` an
    artifact ingest wrote, each field as ``fields`` says, in its order;
    ``key`` names the field whose values are unique. A line of one object of
    exactly the record's fields with no ``\\u`` escape is read by one scan;
    each block of lines is then checked a column at a time, each value for
    its JSON type and each distinct value by its rule, and the rows of a
    block that hold one value share what the rule gives for it. Only a line
    the scan misses (it rejoins its block if taken) or a row a column check
    rejects is read field by field, which gives the reason. Dump mode reads
    ``utf-8-sig`` with universal newlines and quarantines a faulty line; a
    repeated key raises DuplicateIdError.
    Reload mode reads ``utf-8`` split at "\\n" only, and the first line or
    repeated key not as ingest writes it (``_not_as_written``) raises
    ArtifactError naming ``path:line``. A byte that does not decode raises
    InputFileError after the lines before it are checked."""
    path = Path(path)
    hints = get_type_hints(record_type)  # evaluates a NamedTuple's ForwardRefs
    names = record_type._fields
    values_of = itemgetter(*names)
    records: list = []  # the record of each line taken, in line order
    skipped: set[int] = set()  # the number of each line not taken
    quarantined: list[QuarantinedLine] = []

    def read_fields(line_no: int, obj: Any, raw: str | None) -> Any:
        """The record of line ``line_no`` read field by field from its object,
        or from its text; None, with the line quarantined, if it is faulty."""
        try:
            if raw is not None:
                if not raw.strip():
                    raise ValueError("empty line")
                if not isinstance(obj := decode_json(raw), dict):
                    raise ValueError("line is not a JSON object")
            record = record_type(**{
                name: field.rule(value) if field.rule else value
                for name, field in fields.items()
                for value in [field.take(obj, name) if field.take else obj.get(name)]})
            if reload and (fault := _not_as_written(obj, record, raw, fields)):
                raise ValueError(fault)
        except ValueError as err:  # a JSONDecodeError's own text adds a position
            reason = f"invalid JSON: {err.msg}" if type(err) is json.JSONDecodeError else str(err)
            quarantined.append(QuarantinedLine(path.name, line_no, reason))
            skipped.add(line_no)
            return None
        return record

    def read_columns(values: list, first: int, last: int) -> None:
        """Check the rows of lines ``first`` to ``last``, their ``values`` one
        row after another, a column at a time; take each row's record."""
        columns = [values[i::len(names)] for i in range(len(names))]
        values.clear()
        read = list(columns)  # each column as its rule reads it
        bad: set[int] = set()  # the index of each row with a value of a wrong type or rejected
        for i, name in enumerate(names):
            column = columns[i]
            json_types = _ARTIFACT_TYPES[hints[name]].json_types
            if wrong := set(map(type, column)).difference(json_types):
                bad.update(compress(count(), map(wrong.__contains__, map(type, column))))
                # such a row is read field by field; here its value gives way to
                # one of the right type ("" or 0), which each rule rejects
                column = [json_types[0]() if type(value) in wrong else value for value in column]
            stamp = hints[name] is datetime
            if reload and stamp and (stamps := _utc_stamps(column, fields[name].rule)):
                read[i] = stamps
                continue
            if (rule := fields[name].rule) is None:
                continue
            canonical = {}
            distinct = set(column)
            for value in distinct:
                try:
                    value_read = rule(value)
                except ValueError:
                    continue
                if not reload or (format_timestamp(value_read) if stamp else value_read) == value:
                    canonical[value] = value_read
            if rejected := distinct.difference(canonical):
                bad.update(compress(count(), map(rejected.__contains__, column)))
            read[i] = list(map(canonical.get, column))
        # a record of exactly its fields' values, as ``_make`` makes one
        made = list(map(functools.partial(tuple.__new__, record_type), zip(*read)))
        if bad:  # each such row is read field by field: None if it is faulty
            row_lines = list(filterfalse(skipped.__contains__, range(first, last + 1)))
            for j in sorted(bad):
                made[j] = read_fields(
                    row_lines[j], dict(zip(names, [column[j] for column in columns])), None)
        records.extend(filter(None, made))

    lines = enumerate(read_lines(path, newline="\n") if reload
                      else read_lines(path, "utf-8-sig"), start=1)
    line_no, undecodable = 0, None
    while not undecodable:
        first, values = line_no + 1, []  # each taken line's values, one line after another
        try:
            for line_no, raw in islice(lines, _BLOCK):
                try:
                    obj, end = _scan_once(raw, 0)
                    row = values_of(obj)
                    # one backslash is searched for faster than two characters
                    if (len(obj) == len(names) and raw[end:] in ("\n", "")
                            and not ("\\" in raw and "\\u" in raw)):
                        values.extend(row)
                        continue
                except (StopIteration, ValueError, RecursionError, KeyError, TypeError):
                    pass
                # without its newline, else json finds a control character, not an open string
                if record := read_fields(line_no, None, raw.rstrip("\n")):
                    values.extend(map(_written, record))
        except InputFileError as err:  # raised once the lines before it are checked
            undecodable = err
        if line_no < first:
            break
        if values:
            read_columns(values, first, line_no)

    quarantined.sort(key=attrgetter("line"))
    if key is not None and len(keys := list(map(attrgetter(key), records))) > len(set(keys)):
        seen: set = set()
        j = next(j for j, k in enumerate(keys) if k in seen or seen.add(k))
        line = next(islice(filterfalse(skipped.__contains__, count(1)), j, None))  # record j's
        if not reload:
            raise DuplicateIdError(f"{path.name}:{line}: duplicate id {keys[j]!r}")
        quarantined.append(QuarantinedLine(path.name, line, f"duplicate id {keys[j]!r}"))
    if reload and quarantined:
        earliest = min(quarantined, key=attrgetter("line"))
        raise ArtifactError(f"{path}:{earliest.line}: {earliest.reason}")
    if undecodable:
        raise undecodable
    return LoadResult(records, quarantined)


def load_posts(path: str | Path, utc_offset: timedelta = timedelta(0), *,
               reload: bool = False) -> LoadResult:
    """Load posts.jsonl; see RawPost for the record schema."""
    return _read_jsonl(path, RawPost, {
        "post_id": _ID, "blog_id": _BLOG_ID, "title": _TEXT, "body": _TEXT,
        "published_at": _timestamp(utc_offset)}, "post_id", reload)


def load_comments(path: str | Path, known_post_ids: Container[str],
                  utc_offset: timedelta = timedelta(0), *, reload: bool = False) -> LoadResult:
    """Load comments.jsonl; comments pointing at unknown posts are quarantined."""

    def known_post_id(value: str) -> str:
        if (post_id := _stripped_id(value)) not in known_post_ids:
            raise ValueError(f"unknown post_id {post_id!r}")
        return post_id

    return _read_jsonl(path, RawComment, {
        "post_id": _Field(_string_field, known_post_id, "id"),
        "commenter_blog_id": _Field(_text_or_null, _blog_id_or_none, "blog id"),
        "comment_id": _ID, "body": _TEXT, "created_at": _timestamp(utc_offset)},
        "comment_id", reload)


def load_blogroll(path: str | Path, *, reload: bool = False) -> LoadResult:
    """Load blogroll.jsonl; target URLs must be syntactically valid http(s)."""
    return _read_jsonl(path, BlogrollRecord, {
        "target_url": _Field(_string_field, _http_url, "URL"), "owner_blog_id": _BLOG_ID},
        None, reload)


def load_profiles(path: str | Path, *, reload: bool = False) -> LoadResult:
    """Load profiles.jsonl; one profile per blog, age restricted to [5, 120]."""
    return _read_jsonl(path, ProfileRecord, {
        "age": _Field(rule=_age), "blog_id": _BLOG_ID,
        **{key: _Field(rule=functools.partial(_enum, key, allowed)) for key, allowed in [
            ("gender", GENDERS), ("education", EDUCATION_LEVELS),
            ("marital_status", MARITAL_STATUSES)]}}, "blog_id", reload)


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
