"""The validating dump loaders and ``write_jsonl`` against the reference
copies in ``oracles``: a ``json.loads`` per line with every field checked on
every record, and a ``json.dumps`` per row (differential testing). Also the
timestamp range guard at the year edges, and that ``ingest`` writes each
artifact through ``write_jsonl``."""

import json
import tempfile
from datetime import date, datetime, time, timedelta, timezone
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from blognet import cli, ingest
from test_cli import fixture_flags
from test_ingest import outcome

# values that recur across lines, so slugs repeat and ids collide
IDS = st.sampled_from(["p1", "p2", " p3", "p4 ", "p5", "p6", "", " ", "p\ud800", "p\\u"])
SLUGS = st.sampled_from(["b01", " B01 ", "b02", "İx", "", " ", "b\x00", "b\x01",
                         "b\ud800", "b\\ud800", "b٣"])
TEXTS = st.one_of(st.text(max_size=6), st.sampled_from(
    ["\ud800", "a\udfff", "\\ud800", '"', "\\", "\u2028", "\U0001f600", "\x7f\x85"]))
STAMPS = st.sampled_from([
    "2010-04-05T10:00:00Z", "2010-04-05T10:00:00+03:30", "2010-04-05 10:00:00",
    " 2010-04-05T10:00:00.5z ", "0001-01-01T00:00:00+03:30", "9999-12-31T23:59:59Z",
    "0001-01-01T10:00:00", "2010-13-05T10:00:00Z", "2010-04-05", "", 5, None])
URLS = st.sampled_from(["http://b01.example.com/x", "https://B02.example.com", "ftp://x.com",
                        "http://", " http://a.com ", "http://[bad", "\ud800", ""])
AGES = st.one_of(st.none(), st.integers(0, 130), st.sampled_from([True, 21.0, "21"]))


def enums(allowed):
    return st.sampled_from([*allowed, None, "other", 1])


ROWS = {
    "posts": st.fixed_dictionaries({
        "post_id": IDS, "blog_id": SLUGS, "title": TEXTS, "body": TEXTS,
        "published_at": STAMPS}),
    "comments": st.fixed_dictionaries({
        "comment_id": IDS, "post_id": IDS, "commenter_blog_id": st.none() | SLUGS,
        "body": TEXTS, "created_at": STAMPS}),
    "blogroll": st.fixed_dictionaries({"owner_blog_id": SLUGS, "target_url": URLS}),
    "profiles": st.fixed_dictionaries({
        "blog_id": SLUGS, "age": AGES, "gender": enums(ingest.GENDERS),
        "education": enums(ingest.EDUCATION_LEVELS),
        "marital_status": enums(ingest.MARITAL_STATUSES)}),
}

DEEP = 5000  # nesting beyond the interpreter's recursion limit

# each takes a line's JSON text and gives the line as written; half the
# lines are left as they are
MUTATIONS = st.just(lambda text: text) | st.sampled_from([
    lambda text: " " + text,
    lambda text: text + " \t",
    lambda text: "\t" + text,
    lambda text: text + " x",
    lambda text: text + "}",
    lambda text: text + text,
    lambda text: "\ufeff" + text,
    lambda text: text[:-1],
    lambda text: text[:-1] + ', "extra": ' + "[" * DEEP + "]" * DEEP + "}",
    lambda text: text[:-1] + ', "extra": 1' + "0" * 5000 + "}",
    lambda text: "[" + text + "]",
    lambda text: "[" * DEEP + "]" * DEEP,
    lambda text: "1" + "0" * 5000,
    lambda text: '"a line"',
    lambda text: "null",
    lambda text: "{}",
    lambda text: "",
    lambda text: " \t",
])


def json_text(row: dict, ascii_only: bool) -> str:
    text = json.dumps(row, ensure_ascii=ascii_only)
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:  # a lone surrogate reaches a file only as a \u escape
        return json.dumps(row)
    return text


@st.composite
def dump_files(draw) -> dict[str, str]:
    """Each dump file's text: drawn rows, each written with or without
    ASCII escapes and then mutated."""
    files = {}
    for name, rows in ROWS.items():
        lines = [draw(MUTATIONS)(json_text(row, draw(st.booleans())))
                 for row in draw(st.lists(rows, max_size=8))]
        files[name] = "".join(line + "\n" for line in lines)
    return files


def load_outcome(load, *args):
    """A loader's result, or the message of the DuplicateIdError it raised."""
    try:
        result = load(*args)
    except ingest.DuplicateIdError as err:
        return "DuplicateIdError", str(err)
    return result, repr(result)


@settings(max_examples=300, deadline=None)
@given(dump_files(), st.integers(-16 * 60, 16 * 60))
def test_loaders_match_the_loaders_they_replaced(files, offset_minutes):
    offset = timedelta(minutes=offset_minutes)
    with tempfile.TemporaryDirectory() as tmp:
        paths = {}
        for name, text in files.items():
            paths[name] = Path(tmp) / f"{name}.jsonl"
            paths[name].write_text(text, encoding="utf-8", newline="")
        posts = load_outcome(ingest.load_posts, paths["posts"], offset)
        assert posts == load_outcome(oracles.load_posts_by_loads, paths["posts"], offset)
        known = {"p1", "p3"} if posts[0] == "DuplicateIdError" else {
            p.post_id for p in posts[0].records}
        assert load_outcome(ingest.load_comments, paths["comments"], known, offset) == (
            load_outcome(oracles.load_comments_by_loads, paths["comments"], known, offset))
        assert load_outcome(ingest.load_blogroll, paths["blogroll"]) == (
            load_outcome(oracles.load_blogroll_by_loads, paths["blogroll"]))
        assert load_outcome(ingest.load_profiles, paths["profiles"]) == (
            load_outcome(oracles.load_profiles_by_loads, paths["profiles"]))


def test_a_surrogate_in_the_body_loses_to_an_empty_post_id(tmp_path):
    path = tmp_path / "posts.jsonl"
    path.write_text(json.dumps({"post_id": " ", "blog_id": "b01", "title": "t",
                                "body": "\ud800", "published_at": "2010-04-05T10:00:00Z"}) + "\n")
    assert ingest.load_posts(path).quarantined == [
        ingest.QuarantinedLine("posts.jsonl", 1, "field 'post_id' is empty")]


# strings with what JSON escapes or leaves as it is: quotes, backslashes, C0
# and C1 controls, DEL, the line and paragraph separators, non-BMP characters
STRINGS = st.text(st.one_of(
    st.characters(blacklist_categories=("Cs",)),
    st.sampled_from(['"', "\\", "/", "\x00", "\x1f", "\x7f", "\x80", "\x85", "\x9f",
                     "\u2028", "\u2029", "\ufeff", "\U0001f600", "\U0010ffff"])), max_size=10)
DATETIMES = st.one_of(
    st.datetimes(min_value=datetime(1, 1, 1), max_value=datetime(9999, 12, 31, 23, 59, 59),
                 timezones=st.just(timezone.utc)),
    st.sampled_from([datetime(1, 1, 1, tzinfo=timezone.utc),
                     datetime(9999, 12, 31, 23, 59, 59, tzinfo=timezone.utc)]))
# each record type ingest writes
RECORDS = st.sampled_from([
    st.builds(ingest.RawPost, STRINGS, STRINGS, STRINGS, STRINGS, DATETIMES),
    st.builds(ingest.RawComment, STRINGS, STRINGS, st.none() | STRINGS, STRINGS, DATETIMES),
    st.builds(ingest.BlogrollRecord, STRINGS, STRINGS),
    st.builds(ingest.ProfileRecord, STRINGS, st.none() | st.integers(), STRINGS, STRINGS,
              STRINGS),
    st.builds(ingest.QuarantinedLine, STRINGS, st.integers(min_value=1), STRINGS),
])


@settings(max_examples=300, deadline=None)
@given(RECORDS.flatmap(lambda records: st.lists(records, max_size=6)))
def test_write_jsonl_writes_a_record_as_dumps_writes_its_dict(records):
    rows = [{k: ingest.format_timestamp(v) if isinstance(v, datetime) else v
             for k, v in r._asdict().items()} for r in records]
    with tempfile.TemporaryDirectory() as tmp:
        ours, theirs = Path(tmp) / "ours.jsonl", Path(tmp) / "theirs.jsonl"
        assert ingest.write_jsonl(ours, records) == oracles.write_jsonl_by_dumps(theirs, rows)
        assert ours.read_bytes() == theirs.read_bytes()


# the first and last two years, where the reading at an offset can leave
# years 1-9999
EDGE_DATES = st.one_of(
    st.dates(min_value=date(1, 1, 1), max_value=date(2, 12, 31)),
    st.dates(min_value=date(9998, 1, 1), max_value=date(9999, 12, 31)),
    st.sampled_from([date(1, 1, 1), date(1, 12, 31), date(2, 1, 1), date(2, 1, 2),
                     date(9998, 12, 30), date(9998, 12, 31), date(9999, 1, 1),
                     date(9999, 12, 31)]))
EDGE_TIMES = st.one_of(st.times(), st.sampled_from([time(0, 0, 0), time(23, 59, 59)]))
EDGE_OFFSETS = st.sampled_from(["", "Z", "+00:00", "+23:59", "-23:59", "+03:30", "-16:00"])
# on both sides of the guard's one-day bound, up to +/-47 h 59 min, and
# offsets of a year or more, which reach past years 1-9999 from years 2-9998
ASSUMED = st.one_of(
    st.integers(-(47 * 60 + 59), 47 * 60 + 59).map(lambda m: timedelta(minutes=m)),
    st.timedeltas(min_value=-timedelta(hours=47, minutes=59),
                  max_value=timedelta(hours=47, minutes=59)),
    st.sampled_from([timedelta(hours=h) + timedelta(seconds=s)
                     for h in (-24, -16, 16, 24) for s in (-1, 0, 1)]),
    st.integers(366, 800).map(lambda d: timedelta(days=d)) | st.sampled_from(
        [timedelta.min, timedelta.max]),
    st.integers(366, 800).map(lambda d: -timedelta(days=d)))


@settings(max_examples=600, deadline=None)
@given(EDGE_DATES, EDGE_TIMES, EDGE_OFFSETS, ASSUMED)
def test_parse_matches_uncached_oracle_at_the_year_edges(day, clock, offset, assume_offset):
    value = f"{day.isoformat()}T{clock.isoformat('seconds')}{offset}"
    expected = outcome(oracles.parse_timestamp_uncached, value, assume_offset)
    got = outcome(ingest.parse_timestamp, value, assume_offset)
    if expected[0] == "OverflowError":
        assert got == ("ValueError", f"timestamp out of range in UTC: {value!r}")
    elif expected[0] == "ok":
        assert got[0] == "ok" and repr(got[1]) == repr(expected[1])
    else:
        assert got == expected


def test_ingest_writes_each_artifact_through_write_jsonl(tmp_path, monkeypatch):
    written = []
    write_jsonl = ingest.write_jsonl

    def spy(path, rows):
        written.append(Path(path).name)
        return write_jsonl(path, rows)

    monkeypatch.setattr(ingest, "write_jsonl", spy)
    assert cli.main(["ingest", *fixture_flags(tmp_path / "out")]) == cli.EXIT_OK
    artifacts = ["posts.jsonl", "comments.jsonl", "blogroll.jsonl", "profiles.jsonl",
                 "quarantine.jsonl"]
    assert written == artifacts
    assert sorted(p.name for p in (tmp_path / "out/ingest").iterdir()) == sorted(
        [*artifacts, "manifest.json"])
