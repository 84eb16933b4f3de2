import json
import sys
import tempfile
import unicodedata
from datetime import datetime, timedelta, timezone
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from blognet import ingest


def write_lines(path, rows):
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row, ensure_ascii=False) + "\n")


def post_row(post_id="p1", blog_id="alpha", title="t", body="b",
             published_at="2010-04-05T10:00:00+03:30"):
    return {"post_id": post_id, "blog_id": blog_id, "title": title,
            "body": body, "published_at": published_at}


class TestTimestamps:
    def test_explicit_offset_converts_to_utc(self):
        dt = ingest.parse_timestamp("2010-04-05T10:00:00+03:30")
        assert dt == datetime(2010, 4, 5, 6, 30, tzinfo=timezone.utc)

    def test_z_suffix(self):
        dt = ingest.parse_timestamp("2010-04-05T10:00:00Z")
        assert dt == datetime(2010, 4, 5, 10, 0, tzinfo=timezone.utc)

    def test_naive_uses_assumed_offset(self):
        dt = ingest.parse_timestamp(
            "2010-04-05T10:00:00", assume_offset=timedelta(minutes=210)
        )
        assert dt == datetime(2010, 4, 5, 6, 30, tzinfo=timezone.utc)

    def test_fraction_truncated_to_seconds(self):
        dt = ingest.parse_timestamp("2010-04-05T10:00:00.987Z")
        assert dt.microsecond == 0

    @pytest.mark.parametrize("bad", ["", "not-a-date", "2010-13-01T00:00:00Z",
                                     "2010-04-05", "2010-04-05T25:00:00Z", None, 42])
    def test_rejects_unparseable(self, bad):
        with pytest.raises(ValueError):
            ingest.parse_timestamp(bad)

    # non-ASCII digits in the offset, the date or the time, and offsets
    # outside -23:59..+23:59, which RFC 3339's grammar does not admit
    @pytest.mark.parametrize("bad", [
        "2010-03-20T10:00:00+\u0660\u0663:\u0663\u0660",
        "\u0662\u0660\u0661\u0660-03-20T10:00:00Z",
        "2010-03-2\u06f0T10:00:00Z",
        "2010-03-20T10:00:00+03:60",
        "2010-03-20T10:00:00+24:00",
        "2010-13-01T00:00:00+24:00",
    ])
    def test_outside_the_rfc_3339_grammar_is_unparseable(self, bad):
        assert outcome(ingest.parse_timestamp, bad) == (
            "ValueError", f"unparseable timestamp: {bad!r}")

    @pytest.mark.parametrize("stamp, utc", [
        ("2010-03-20T10:00:00+23:59", datetime(2010, 3, 19, 10, 1, tzinfo=timezone.utc)),
        ("2010-03-20T10:00:00-00:00", datetime(2010, 3, 20, 10, 0, tzinfo=timezone.utc)),
    ])
    def test_offsets_at_the_grammar_bounds_parse(self, stamp, utc):
        assert ingest.parse_timestamp(stamp, timedelta(minutes=210)) == utc

    def test_format_round_trip(self):
        stamp = "2010-04-05T06:30:00Z"
        assert ingest.format_timestamp(ingest.parse_timestamp(stamp)) == stamp


class TestLoadPosts:
    def test_empty_file(self, tmp_path):
        path = tmp_path / "posts.jsonl"
        path.write_text("")
        result = ingest.load_posts(path)
        assert result.records == [] and result.quarantined == []

    def test_two_well_formed_lines(self, tmp_path):
        path = tmp_path / "posts.jsonl"
        write_lines(path, [post_row("p1"), post_row("p2")])
        result = ingest.load_posts(path)
        assert len(result.records) == 2
        assert not result.quarantined

    def test_bad_timestamp_quarantined_with_line_number(self, tmp_path):
        path = tmp_path / "posts.jsonl"
        write_lines(path, [
            post_row("p1"),
            post_row("p2", published_at="yesterday-ish"),
            post_row("p3"),
        ])
        result = ingest.load_posts(path)
        assert [p.post_id for p in result.records] == ["p1", "p3"]
        assert len(result.quarantined) == 1
        assert result.quarantined[0].line == 2

    def test_duplicate_post_id_is_hard_error(self, tmp_path):
        path = tmp_path / "posts.jsonl"
        write_lines(path, [post_row("p1"), post_row("p1")])
        with pytest.raises(ingest.DuplicateIdError):
            ingest.load_posts(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            ingest.load_posts(tmp_path / "nope.jsonl")

    def test_accepted_plus_quarantined_equals_lines(self, tmp_path):
        path = tmp_path / "posts.jsonl"
        rows = [post_row(f"p{i}") for i in range(5)]
        with open(path, "w", encoding="utf-8") as fh:
            for i, row in enumerate(rows):
                fh.write(json.dumps(row) + "\n")
                if i == 2:
                    fh.write("{broken json\n")
                    fh.write("\n")
        result = ingest.load_posts(path)
        assert len(result.records) + len(result.quarantined) == 7

    def test_blog_id_canonicalized(self, tmp_path):
        path = tmp_path / "posts.jsonl"
        write_lines(path, [post_row("p1", blog_id="  Alpha ")])
        result = ingest.load_posts(path)
        assert result.records[0].blog_id == "alpha"

    def test_round_trip_identical(self, tmp_path):
        path = tmp_path / "posts.jsonl"
        write_lines(path, [post_row("p1"), post_row("p2", title="سلام")])
        first = ingest.load_posts(path).records
        out = tmp_path / "redump.jsonl"
        ingest.write_jsonl(out, [ingest.RawPost._asdict(p) for p in first])
        second = ingest.load_posts(out).records
        assert first == second


class TestLoadComments:
    def comment_row(self, comment_id="c1", post_id="p1", commenter="beta",
                    created_at="2010-04-06T09:00:00+03:30"):
        return {"comment_id": comment_id, "post_id": post_id,
                "commenter_blog_id": commenter, "body": "x",
                "created_at": created_at}

    def test_known_post_accepted_unknown_quarantined(self, tmp_path):
        path = tmp_path / "comments.jsonl"
        write_lines(path, [
            self.comment_row("c1", post_id="p1"),
            self.comment_row("c2", post_id="ghost"),
        ])
        result = ingest.load_comments(path, known_post_ids={"p1"})
        assert [c.comment_id for c in result.records] == ["c1"]
        assert len(result.quarantined) == 1
        assert "ghost" in result.quarantined[0].reason

    def test_duplicate_comment_id_is_hard_error(self, tmp_path):
        path = tmp_path / "comments.jsonl"
        write_lines(path, [self.comment_row("c1"), self.comment_row("c1")])
        with pytest.raises(ingest.DuplicateIdError):
            ingest.load_comments(path, known_post_ids={"p1"})

    def test_anonymous_commenter_allowed(self, tmp_path):
        path = tmp_path / "comments.jsonl"
        row = self.comment_row("c1")
        row["commenter_blog_id"] = None
        write_lines(path, [row])
        result = ingest.load_comments(path, known_post_ids={"p1"})
        assert result.records[0].commenter_blog_id is None


class TestLoadBlogroll:
    def test_invalid_url_quarantined(self, tmp_path):
        path = tmp_path / "blogroll.jsonl"
        write_lines(path, [
            {"owner_blog_id": "a", "target_url": "http://b.example.com/"},
            {"owner_blog_id": "a", "target_url": "not a url"},
            {"owner_blog_id": "a", "target_url": "ftp://b.example.com/"},
        ])
        result = ingest.load_blogroll(path)
        assert len(result.records) == 1
        assert len(result.quarantined) == 2

    def test_well_formed_record_verbatim_url(self, tmp_path):
        path = tmp_path / "blogroll.jsonl"
        url = "http://Some.Example.com/Path?q=1"
        write_lines(path, [{"owner_blog_id": "A", "target_url": url}])
        result = ingest.load_blogroll(path)
        assert result.records[0] == ingest.BlogrollRecord("a", url)


class TestLoadProfiles:
    def profile_row(self, blog_id="alpha", **extra):
        return {"blog_id": blog_id, "age": 25, "gender": "male",
                "education": "bachelor", "marital_status": "single", **extra}

    def test_age_out_of_range_quarantined(self, tmp_path):
        path = tmp_path / "profiles.jsonl"
        write_lines(path, [
            self.profile_row("a", age=200),
            self.profile_row("b", age=4),
            self.profile_row("c", age=120),
        ])
        result = ingest.load_profiles(path)
        assert [p.blog_id for p in result.records] == ["c"]
        assert len(result.quarantined) == 2

    def test_missing_optionals_become_unspecified(self, tmp_path):
        path = tmp_path / "profiles.jsonl"
        write_lines(path, [{"blog_id": "a"}])
        p = ingest.load_profiles(path).records[0]
        assert p.age is None
        assert p.gender == p.education == p.marital_status == "unspecified"

    def test_bad_enum_quarantined(self, tmp_path):
        path = tmp_path / "profiles.jsonl"
        write_lines(path, [self.profile_row("a", gender="robot")])
        result = ingest.load_profiles(path)
        assert not result.records and len(result.quarantined) == 1

    def test_duplicate_blog_id_is_hard_error(self, tmp_path):
        path = tmp_path / "profiles.jsonl"
        write_lines(path, [self.profile_row("a"), self.profile_row("a")])
        with pytest.raises(ingest.DuplicateIdError):
            ingest.load_profiles(path)


def test_round_trip_all_record_types(tmp_path):
    comment = {"comment_id": "c1", "post_id": "p1", "commenter_blog_id": None,
               "body": "متن", "created_at": "2010-04-06T09:00:00+03:30"}
    roll = {"owner_blog_id": "a", "target_url": "http://b.example.com/"}
    profile = {"blog_id": "a", "age": 21, "gender": "female",
               "education": "master", "marital_status": "single"}
    cases = [
        ("comments.jsonl", [comment],
         lambda p: ingest.load_comments(p, known_post_ids={"p1"}),
         ingest.RawComment._asdict),
        ("blogroll.jsonl", [roll], ingest.load_blogroll, ingest.BlogrollRecord._asdict),
        ("profiles.jsonl", [profile], ingest.load_profiles, ingest.ProfileRecord._asdict),
    ]
    for name, rows, loader, to_dict in cases:
        path = tmp_path / name
        write_lines(path, rows)
        first = loader(path).records
        redumped = tmp_path / f"redump_{name}"
        ingest.write_jsonl(redumped, [to_dict(r) for r in first])
        assert loader(redumped).records == first, name


def test_loading_is_deterministic_and_order_preserving(tmp_path):
    path = tmp_path / "posts.jsonl"
    rows = [post_row(f"p{i}") for i in range(10)]
    write_lines(path, rows)
    a = ingest.load_posts(path).records
    b = ingest.load_posts(path).records
    assert a == b
    assert [p.post_id for p in a] == [f"p{i}" for i in range(10)]


def outcome(fn, *args):
    """("ok", result) or (exception type name, message)."""
    try:
        return "ok", fn(*args)
    except (ValueError, OverflowError) as err:
        return type(err).__name__, str(err)


# Every "+HH:MM"/"-HH:MM" with two-digit fields (including hours of 24 or
# more and minutes of 60 or more, which the pattern rejects), "Z", "z", and
# no offset.
OFFSETS = st.one_of(
    st.none(),
    st.sampled_from(["Z", "z"]),
    st.builds("{}{:02d}:{:02d}".format,
              st.sampled_from("+-"), st.integers(0, 99), st.integers(0, 99)),
)


@st.composite
def raw_timestamps(draw) -> str:
    """RFC 3339-shaped strings with in- and out-of-range fields."""
    year, month, day = draw(st.one_of(
        st.tuples(st.integers(0, 9999), st.integers(0, 13), st.integers(0, 32)),
        # the first and last days, where an offset can leave years 1-9999
        st.sampled_from([(1, 1, 1), (1, 1, 2), (999, 12, 31), (9999, 12, 31)]),
    ))
    hour, minute, second = draw(st.integers(0, 25)), draw(st.integers(0, 61)), draw(st.integers(0, 61))
    sep = draw(st.sampled_from("Tt "))
    fraction = draw(st.sampled_from(["", ".5", ".987654321"]))
    offset = draw(OFFSETS) or ""
    pad = draw(st.sampled_from(["", " ", "\t"]))
    return (f"{pad}{year:04d}-{month:02d}-{day:02d}{sep}"
            f"{hour:02d}:{minute:02d}:{second:02d}{fraction}{offset}{pad}")


NON_ASCII_DIGITS = [c for c in map(chr, range(128, sys.maxunicode + 1))
                    if unicodedata.category(c) == "Nd"]


@st.composite
def non_ascii_digit_timestamps(draw) -> str:
    """A ``raw_timestamps`` string with 1-3 of its digits replaced by
    non-ASCII decimal digits (Unicode category Nd)."""
    chars = list(draw(raw_timestamps()))
    digits = [i for i, c in enumerate(chars) if c in "0123456789"]
    for i in draw(st.lists(st.sampled_from(digits), min_size=1, max_size=3, unique=True)):
        chars[i] = draw(st.sampled_from(NON_ASCII_DIGITS))
    return "".join(chars)


class TestTimestampOracles:
    # checked against the grammar itself: the oracle below shares ``_TS_RE``
    @settings(max_examples=300, deadline=None)
    @given(non_ascii_digit_timestamps(), st.integers(-16 * 60, 16 * 60))
    def test_non_ascii_digits_are_unparseable(self, value, offset_minutes):
        assert outcome(ingest.parse_timestamp, value, timedelta(minutes=offset_minutes)) == (
            "ValueError", f"unparseable timestamp: {value!r}")

    @settings(max_examples=600, deadline=None)
    @given(raw_timestamps(), st.integers(-16 * 60, 16 * 60))
    def test_parse_matches_uncached_oracle(self, value, offset_minutes):
        assume_offset = timedelta(minutes=offset_minutes)
        expected = outcome(oracles.parse_timestamp_uncached, value, assume_offset)
        for _ in range(2):  # a second call gives the same outcome
            got = outcome(ingest.parse_timestamp, value, assume_offset)
            if expected[0] == "OverflowError":
                assert got == ("ValueError", f"timestamp out of range in UTC: {value!r}")
            elif expected[0] == "ok":
                assert got[0] == "ok" and repr(got[1]) == repr(expected[1])
            else:
                assert got == expected

    @pytest.mark.parametrize("value", ["0001-01-01T00:00:00+03:30",
                                       "9999-12-31T23:59:59-00:01",
                                       "0001-01-01T03:29:59"])
    def test_utc_reading_outside_years_1_to_9999_is_value_error(self, value):
        with pytest.raises(ValueError, match="out of range"):
            ingest.parse_timestamp(value, timedelta(minutes=210))

    def test_out_of_range_line_quarantined(self, tmp_path):
        path = tmp_path / "posts.jsonl"
        write_lines(path, [post_row("p1"),
                           post_row("p2", published_at="0001-01-01T00:00:00+03:30")])
        result = ingest.load_posts(path)
        assert [p.post_id for p in result.records] == ["p1"]
        assert [(q.line, q.reason) for q in result.quarantined] == [
            (2, "timestamp out of range in UTC: '0001-01-01T00:00:00+03:30'")
        ]

    @settings(max_examples=300, deadline=None)
    @given(st.datetimes(min_value=datetime(1000, 1, 2), max_value=datetime(9999, 12, 30),
                        timezones=st.sampled_from([
                            timezone.utc, timezone(timedelta(minutes=210)),
                            timezone(-timedelta(hours=11, minutes=59)),
                        ])))
    def test_format_matches_strftime_from_year_1000(self, dt):
        assert ingest.format_timestamp(dt) == oracles.format_timestamp_strftime(dt)

    @settings(max_examples=200, deadline=None)
    @given(st.datetimes(min_value=datetime(1, 1, 1), max_value=datetime(999, 12, 31),
                        timezones=st.just(timezone.utc)))
    def test_years_below_1000_zero_padded_and_round_trip(self, dt):
        stamp = ingest.format_timestamp(dt)
        assert stamp == f"{dt.year:04d}" + stamp[4:]
        assert ingest.parse_timestamp(stamp) == dt.replace(microsecond=0)


def json_rows():
    text = st.text(st.characters(blacklist_categories=("Cs",)), max_size=12)
    leaves = st.none() | st.booleans() | st.integers() | st.floats() | text
    values = st.recursive(
        leaves, lambda inner: st.lists(inner, max_size=4) | st.dictionaries(text, inner, max_size=4),
        max_leaves=8,
    )
    return st.lists(st.dictionaries(text, values, max_size=6), max_size=8)


@settings(max_examples=60, deadline=None)
@given(json_rows())
def test_write_jsonl_matches_per_row_dumps(rows):
    with tempfile.TemporaryDirectory() as tmp:
        ours, theirs = Path(tmp) / "ours.jsonl", Path(tmp) / "theirs.jsonl"
        assert ingest.write_jsonl(ours, rows) == oracles.write_jsonl_by_dumps(theirs, rows)
        assert ours.read_bytes() == theirs.read_bytes()


def test_write_jsonl_writes_an_aware_datetime_as_its_canonical_utc_string(tmp_path):
    tehran = timezone(timedelta(hours=3, minutes=30))
    path = tmp_path / "rows.jsonl"
    ingest.write_jsonl(path, [{"at": datetime(2010, 3, 21, 2, 0, 5, 999, tzinfo=tehran)}])
    assert path.read_text(encoding="utf-8") == '{"at": "2010-03-20T22:30:05Z"}\n'


@st.composite
def target_urls(draw) -> str:
    """Well-formed, foreign-scheme and malformed URLs (bad IPv6 brackets, a
    netloc character that NFKC folds into '@', bad ports, whitespace)."""
    scheme = draw(st.sampled_from(["http://", "https://", "HTTP://", "ftp://", "http:",
                                   "//", "", "javascript:", "http:///"]))
    host = draw(st.sampled_from(["b01.example.com", "www.B02.example.com", "example.com",
                                 "[::1]", "[bad", "a]b", "user\ufe6bhost.com", "h:99",
                                 "h:port", "", "ex ample.com", "\u00e4.example"]))
    path = draw(st.sampled_from(["", "/", "/b03/post/1", "?q=1", "#frag", "/%zz"]))
    pad = draw(st.sampled_from(["", " ", "\n"]))
    return pad + scheme + host + path + pad


@settings(max_examples=200, deadline=None)
@given(st.lists(target_urls(), min_size=1, max_size=5).flatmap(
    lambda pool: st.lists(st.sampled_from(pool), max_size=20)))
def test_blogroll_validation_matches_uncached_oracle(urls):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "blogroll.jsonl"
        write_lines(path, [{"owner_blog_id": "a", "target_url": url} for url in urls])
        result = ingest.load_blogroll(path)
    expected = []
    for url in urls:
        stripped = url.strip()
        if not stripped:
            expected.append("field 'target_url' is empty")
        else:
            expected.append(oracles.blogroll_url_error(stripped))
    assert [r.target_url for r in result.records] == [
        url.strip() for url, reason in zip(urls, expected) if reason is None
    ]
    assert [(q.line, q.reason) for q in result.quarantined] == [
        (line, reason) for line, reason in enumerate(expected, start=1) if reason is not None
    ]


SLUGS = st.sampled_from(["", " ", "\ud800", "a", "B01", " b02 ", "İx", "c\\ud800", "d\x00"])
TEXTS = st.one_of(st.text(max_size=8),
                  st.sampled_from(["\ud800", "\\ud800", "\x00 ", "\r\n", " "]))
AGES = st.one_of(st.none(), st.integers(0, 125), st.sampled_from([True, "21", 21.0]))
STAMPS = st.one_of(raw_timestamps(), st.sampled_from([
    "2010-04-05T10:00:00Z", "2010-04-05t10:00:00.5+03:30", "2010-04-05 10:00:00",
    "0999-01-01T00:00:00z", 5, None]))


def enum_values(allowed):
    return st.sampled_from([*allowed, None, "other"])


@st.composite
def raw_dumps(draw):
    """The four dump files as raw rows, some of which the loaders quarantine;
    ids are unique once stripped, so no file is a hard error."""
    posts = [{"post_id": draw(st.sampled_from(["", " "])) + f"P{i}", "blog_id": draw(SLUGS),
              "title": draw(TEXTS), "body": draw(TEXTS), "published_at": draw(STAMPS)}
             for i in range(draw(st.integers(0, 10)))]
    comments = [{"comment_id": f"c{i}", "post_id": f"P{draw(st.integers(0, len(posts)))}",
                 "commenter_blog_id": draw(st.none() | SLUGS), "body": draw(TEXTS),
                 "created_at": draw(STAMPS)}
                for i in range(draw(st.integers(0, 10)))]
    blogroll = [{"owner_blog_id": draw(SLUGS), "target_url": draw(target_urls())}
                for _ in range(draw(st.integers(0, 10)))]
    profiles = [{"blog_id": f"B{i}", "age": draw(AGES),
                 "gender": draw(enum_values(ingest.GENDERS)),
                 "education": draw(enum_values(ingest.EDUCATION_LEVELS)),
                 "marital_status": draw(enum_values(ingest.MARITAL_STATUSES))}
                for i in range(draw(st.integers(0, 10)))]
    return {"posts": posts, "comments": comments, "blogroll": blogroll, "profiles": profiles}


@settings(max_examples=150, deadline=None)
@given(raw_dumps())
def test_reload_mode_matches_dump_mode_on_ingest_artifacts(dumps):
    """Each kind of artifact, written from what the loaders accept as ingest
    writes it, reloads to the same records in reload mode."""
    to_dicts = {"posts": ingest.RawPost._asdict, "comments": ingest.RawComment._asdict,
                "blogroll": ingest.BlogrollRecord._asdict, "profiles": ingest.ProfileRecord._asdict}
    with tempfile.TemporaryDirectory() as tmp:
        known: set[str] = set()

        def load(name, path, **kwargs):
            if name == "comments":
                return ingest.load_comments(path, known, **kwargs)
            return getattr(ingest, f"load_{name}")(path, **kwargs)

        for name, rows in dumps.items():
            raw, artifact = Path(tmp) / f"raw_{name}.jsonl", Path(tmp) / f"{name}.jsonl"
            # ASCII escapes carry lone surrogates into the raw file
            raw.write_text("".join(json.dumps(row) + "\n" for row in rows), encoding="utf-8")
            accepted = load(name, raw)
            ingest.write_jsonl(artifact, [to_dicts[name](r) for r in accepted.records])
            validated = load(name, artifact)
            reloaded = load(name, artifact, reload=True)
            assert not validated.quarantined and not reloaded.quarantined
            assert reloaded.records == validated.records == accepted.records, name
            assert repr(reloaded.records) == repr(validated.records), name
            if name == "posts":
                known = {p.post_id for p in reloaded.records}


def test_read_lines_names_a_file_that_is_not_utf8(tmp_path):
    path = tmp_path / "words.txt"
    path.write_bytes(b"a\n\xffb\n")
    with pytest.raises(ingest.InputFileError, match=r"words\.txt: not UTF-8 text"):
        list(ingest.read_lines(path))


def test_write_lines_ends_each_line_in_a_newline(tmp_path):
    path = tmp_path / "lines.txt"
    assert ingest.write_lines(path, ["a", "", "ب"]) == 3
    assert ingest.write_lines(tmp_path / "empty.txt", []) == 0
    assert path.read_bytes() == "a\n\nب\n".encode("utf-8")
    assert list(ingest.read_lines(path)) == ["a\n", "\n", "ب\n"]
    assert (tmp_path / "empty.txt").read_bytes() == b""


def test_each_malformed_line_is_quarantined_with_its_reason(tmp_path):
    path = tmp_path / "posts.jsonl"
    lines = ['{"post_id": "p1', "[1, 2]", "", "  \t", '{"post_id": "p1",', '"a post"',
             json.dumps(post_row(title=5)), json.dumps(post_row("p2"))]
    path.write_text("".join(f"{line}\n" for line in lines), encoding="utf-8")
    result = ingest.load_posts(path)
    assert [p.post_id for p in result.records] == ["p2"]
    assert [(q.line, q.reason) for q in result.quarantined] == [
        (1, "invalid JSON: Unterminated string starting at"),
        (2, "line is not a JSON object"),
        (3, "empty line"),
        (4, "empty line"),
        (5, "invalid JSON: Expecting property name enclosed in double quotes"),
        (6, "line is not a JSON object"),
        (7, "field 'title' missing or not a string"),
    ]


def test_control_pattern_matches_exactly_the_control_characters_that_are_not_space():
    mismatches = [
        hex(cp) for cp in range(0x110000)
        if bool(ingest._CONTROL_RE.search(chr(cp)))
        != (unicodedata.category(chr(cp)) == "Cc" and not chr(cp).isspace())
    ]
    assert mismatches == []


@pytest.mark.parametrize("raw,reason", [
    ("b\x0199", "blog id holds a control character: 'b\\x0199'"),
    ("b\x7f", "blog id holds a control character: 'b\\x7f'"),
    ("\x01b\x00", "blog id holds a NUL: '\\x01b\\x00'"),
])
def test_a_blog_id_holding_a_control_character_is_rejected(raw, reason):
    with pytest.raises(ValueError) as err:
        ingest.canonical_slug(raw)
    assert str(err.value) == reason


def test_whitespace_control_characters_are_stripped_from_a_blog_id():
    assert ingest.canonical_slug("\t\x1c B01\x85\n") == "b01"


class TestBlogIdCheck:
    def test_pattern_rejects_exactly_what_the_scans_reject(self):
        mismatches = [
            hex(cp) for cp in range(0x110000)
            if bool(ingest._NOT_BARE_RE.search(chr(cp)))
            != (chr(cp) in "/:\\" or chr(cp).isspace())
        ]
        assert mismatches == []

    @settings(max_examples=300, deadline=None)
    @given(st.text(st.one_of(
        st.sampled_from(" \t\n\x0b\x0c\r\x1c\x1d\x1e\x1f\x85\xa0\u1680\u2000\u2028\u2029"
                        "\u202f\u3000\u200b\ufeff/:\\AbB\u0130\x00\x01\x7f"),
        st.characters(blacklist_categories=("Cs",)),
    ), max_size=12))
    def test_matches_scan_oracle(self, raw):
        assert outcome(ingest.canonical_slug, raw) == (
            outcome(oracles.canonical_blog_id_by_scan, raw))
