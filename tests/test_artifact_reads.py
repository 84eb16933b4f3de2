"""Artifact read-back checked a line or a column at a time, against the
per-field and per-row loops in ``oracles`` (differential testing): the same
records, or the same message naming the same first faulty line. Also the
message ``clean``, ``rank``, ``report`` and an ingest reload give when a file
holds two faults and a column check meets the later one first."""

import csv
import functools
import json
import shutil
import tempfile
from datetime import datetime, timedelta, timezone
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from blognet import cli, ingest
from test_cli import (  # noqa: F401 (a fixture)
    edit_first_row, fixture_flags, out_dir, rewrite_ingest_artifact)
from test_ingest import outcome, raw_dumps
from test_ingest_codec import dump_files, json_text, load_outcome

ORACLE_LOADERS = {"posts": oracles.load_posts_by_loads, "comments": oracles.load_comments_by_loads,
                  "blogroll": oracles.load_blogroll_by_loads,
                  "profiles": oracles.load_profiles_by_loads}
STAMP = datetime(2010, 4, 5, 10, tzinfo=timezone.utc)
# every enum value, each with a null and a non-null age, comments without
# a commenter, and posts and comments, so every example has timestamps
FIXED_RECORDS = {
    "profiles": [
        ingest.ProfileRecord(f"e{i}", age, *values)
        for i, values in enumerate(
            [(g, "unspecified", "unspecified") for g in ingest.GENDERS]
            + [("unspecified", e, "unspecified") for e in ingest.EDUCATION_LEVELS]
            + [("unspecified", "unspecified", m) for m in ingest.MARITAL_STATUSES])
        for age in (None, 30)],
    "comments": [ingest.RawComment(f"c-fixed{i}", "p-fixed0", commenter, "متن", STAMP)
                 for i, commenter in enumerate([None, "b01", None])],
    "posts": [ingest.RawPost(f"p-fixed{i}", "b01", "عنوان", "<p>متن</p>", STAMP)
              for i in range(3)],
}

# values a field of a line is set to: each JSON type, a lone surrogate and a
# backslash-u that is no escape, ages the check rejects
FIELD_VALUES = st.sampled_from([
    7, "7", True, 1.5, None, [], {}, "", "é", "\ud800", "x\\u", 3, 121, 10 ** 400])
# values a timestamp is set to: not canonical, though ``fromisoformat`` reads
# most of them, or canonical and rejected by ``fromisoformat`` or, in the
# last second of year 9999, by ``parse_timestamp``
STAMPS = st.sampled_from([
    "2010-04-05T10:00:00+00:00", "2010-04-05T10:00:00z", "2010-04-05 10:00:00Z",
    "2010-04-05T10:00:00.5Z", "2010-04-05T10:00:00", "٢٠١٠-04-05T10:00:00Z",
    "2010-13-05T10:00:00Z", "0000-01-01T00:00:00Z", "2010-04-05T10:00:00Z",
    "9999-12-31T23:59:59Z", "9999-12-31T23:59:58Z"])
# lines per block of the reader: each line its own block, blocks that end
# mid-file, and the default
BLOCKS = st.sampled_from([1, 2, 3, ingest._BLOCK])
# whole lines that replace a record's
LINES = st.sampled_from(["[]", "null", '"a line"', "{broken", "", " ", "{}",
                         "[" * 5000 + "]" * 5000, "1" + "0" * 5000])


@st.composite
def edited_line(draw, text: str) -> str:
    """``text``, a line as ingest writes it, as written (about half the
    time), with \\u escapes, or with one edit."""
    obj = json.loads(text)
    key = draw(st.sampled_from(sorted(obj)))
    stamps = [k for k in ("published_at", "created_at") if k in obj]
    edit = draw(st.sampled_from(["as written"] * 8 + ["stamp"] * 2 * bool(stamps) + [
        "escaped", "set", "set", "drop", "extra", "trailing", "replace"]))
    if edit == "escaped":
        return json.dumps(obj)
    if edit == "set":
        return json_text({**obj, key: draw(FIELD_VALUES)}, draw(st.booleans()))
    if edit == "stamp":
        return json_text({**obj, stamps[0]: draw(STAMPS)}, draw(st.booleans()))
    if edit == "drop":
        return json_text({k: v for k, v in obj.items() if k != key}, draw(st.booleans()))
    if edit == "extra":
        return json_text({**obj, "zz": 1}, draw(st.booleans()))
    if edit == "trailing":
        return text + draw(st.sampled_from([" ", "x", "}", text]))
    if edit == "replace":
        return draw(LINES)
    return text


def assert_same_outcome(read, reference, *args) -> None:
    """``read`` and ``reference`` give results with equal reprs, which tell
    apart every value these readers return (a NaN too, which equals no
    value), or raise the same error with the same message."""
    assert repr(outcome(read, *args)) == repr(outcome(reference, *args))


def lines_of(path: Path) -> list[str]:
    """The lines of ``path`` without their newlines, split at "\\n" only."""
    lines = path.read_bytes().decode("utf-8").split("\n")
    return lines[:-1] if lines[-1] == "" else lines


def load_by_oracles(path: Path, name: str, lines: list[str], *args) -> tuple:
    """The dump loader's oracle on a file of ``lines``: its result, and the
    line ``json.dumps`` writes for each record it accepts."""
    part = path.with_name(f"part_{path.name}")
    part.write_text("".join(f"{line}\n" for line in lines), encoding="utf-8")
    result = ORACLE_LOADERS[name](part, *args)
    oracles.write_jsonl_by_dumps(part, [
        {k: ingest.format_timestamp(v) if isinstance(v, datetime) else v
         for k, v in record._asdict().items()} for record in result.records])
    return result, lines_of(part)


def reload_by_oracles(path: Path, name: str, *args) -> tuple:
    """What reload mode must give for artifact ``path`` of kind ``name``:
    ``("ok", records)`` when the dump loader's oracle accepts every line,
    repeats no id and ``json.dumps`` writes each record back as its line;
    else the line where that first fails, with the oracle's reason where it
    quarantines the line or, on a line written back as it is, repeats an id."""
    lines = lines_of(path)
    try:
        result, written = load_by_oracles(path, name, lines, *args)
        repeated = None
    except ingest.DuplicateIdError as err:  # the oracle raises at the first repeated id
        _name, number, reason = str(err).split(":", 2)
        repeated = int(number)
        result, written = load_by_oracles(path, name, lines[:repeated - 1], *args)
        _, as_written = load_by_oracles(path, name, lines[repeated - 1:repeated], *args)
        repeated = (repeated, reason.removeprefix(" ") if as_written == [lines[repeated - 1]]
                    else None)
    reasons = {q.line: q.reason for q in result.quarantined}
    written = iter(written)
    for number, line in enumerate(lines[:repeated[0] - 1] if repeated else lines, start=1):
        if number in reasons:
            return number, reasons[number]
        if next(written) != line:
            return number, None
    return repeated or ("ok", result.records)


@settings(max_examples=300, deadline=None)
@given(raw_dumps(), st.data())
def test_reload_accepts_exactly_what_ingest_writes(dump, data):
    """On an ingest tree of a generated dump, with lines rewritten with \\u
    escapes or edited, reload mode gives the records when the loaders'
    oracle accepts every line and ``json.dumps`` writes each record back
    as its line, and otherwise names the first line where that fails, with
    the oracle's reason where it quarantines that line, in blocks of any size."""
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(
            ingest, "_BLOCK", data.draw(BLOCKS)):
        known: set[str] = set()
        for name, rows in dump.items():
            raw, artifact = Path(tmp) / f"raw_{name}.jsonl", Path(tmp) / f"{name}.jsonl"
            raw.write_text("".join(json.dumps(row) + "\n" for row in rows), encoding="utf-8")
            args = [known] if name == "comments" else []
            accepted = [*getattr(ingest, f"load_{name}")(raw, *args).records,
                        *FIXED_RECORDS.get(name, [])]
            ingest.write_jsonl(artifact, accepted)
            if name == "posts":
                known = {p.post_id for p in accepted}
            # a line may hold U+2028, which ``splitlines`` would split at
            lines = [data.draw(edited_line(line)) for line in lines_of(artifact)]
            ending = data.draw(st.sampled_from(["\n", ""]))
            artifact.write_text("\n".join(lines) + ending, encoding="utf-8")
            got = outcome(lambda: getattr(ingest, f"load_{name}")(artifact, *args, reload=True))
            want = reload_by_oracles(artifact, name, *args)
            if want[0] == "ok":
                assert got[0] == "ok" and got[1].quarantined == []
                assert (got[1].records, repr(got[1].records)) == (want[1], repr(want[1]))
            else:
                assert got[0] == "ArtifactError" and got[1].startswith(f"{artifact}:{want[0]}: ")
                if want[1] is not None:
                    assert got[1] == f"{artifact}:{want[0]}: {want[1]}"


# offsets a loader reads at: the config's range with both ends, a day and
# 400 days either way
LOADER_OFFSETS = st.one_of(st.integers(-960, 960), st.sampled_from(
    [-960, 960, -1440, 1440, -400 * 1440, 400 * 1440])).map(lambda m: timedelta(minutes=m))
# seconds within two days of the first second of years 1-9999, of year 9999
# and of its last second
EDGE_STAMPS = st.one_of(
    st.datetimes(datetime(1, 1, 1), datetime(1, 1, 3)),
    st.datetimes(datetime(9998, 12, 30), datetime(9999, 1, 2)),
    st.datetimes(datetime(9999, 12, 30), datetime.max),
).map(lambda dt: dt.replace(microsecond=0, tzinfo=timezone.utc))


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(["posts", "comments"]), LOADER_OFFSETS,
       st.lists(EDGE_STAMPS, min_size=1, max_size=4), BLOCKS)
@example("posts", timedelta(hours=-16), [datetime(1, 1, 1, 10, tzinfo=timezone.utc)], 1)
@example("comments", timedelta(days=400), [datetime(9998, 12, 31, tzinfo=timezone.utc)], 1)
def test_reload_reads_timestamps_at_its_offset_as_the_oracles(name, offset, stamps, block):
    """A loader in reload mode at ``offset`` takes an artifact of timestamps
    near either end of years 1-9999 exactly when the dump loader's oracle at
    that offset takes each line, and else names the first line it rejects,
    with the oracle's reason."""
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(ingest, "_BLOCK", block):
        path = Path(tmp) / f"{name}.jsonl"
        args = [{"p0"}, offset] if name == "comments" else [offset]
        ingest.write_jsonl(path, [
            ingest.RawPost(f"p{i}", "b01", "", "", stamp) if name == "posts"
            else ingest.RawComment(f"c{i}", "p0", None, "", stamp)
            for i, stamp in enumerate(stamps)])
        got = outcome(lambda: getattr(ingest, f"load_{name}")(path, *args, reload=True))
        line, want = reload_by_oracles(path, name, *args)
        assert repr(got) == repr(("ok", ingest.LoadResult(want, [])) if line == "ok"
                                 else ("ArtifactError", f"{path}:{line}: {want}"))


@pytest.mark.parametrize("reload", [False, True])
def test_records_that_hold_one_blog_id_share_one_string(tmp_path, reload):
    path = tmp_path / "posts.jsonl"
    posts = [ingest.RawPost(f"p{i}", "b01", "", "", STAMP) for i in range(2)]
    ingest.write_jsonl(path, posts)
    first, second = ingest.load_posts(path, reload=reload).records
    assert [first, second] == posts
    assert first.blog_id is second.blog_id


@settings(max_examples=200, deadline=None)
@given(dump_files(), BLOCKS)
def test_dump_mode_reads_blocks_of_any_size_as_the_oracles(files, block):
    """Each loader in dump mode gives the oracle's records and quarantine, or
    its DuplicateIdError, whatever the reader's block size."""
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(ingest, "_BLOCK", block):
        known = {"p1", "p3"}
        for name, text in files.items():
            path = Path(tmp) / f"{name}.jsonl"
            path.write_text(text, encoding="utf-8", newline="")
            args = [known] if name == "comments" else []
            assert load_outcome(getattr(ingest, f"load_{name}"), path, *args) == (
                load_outcome(ORACLE_LOADERS[name], path, *args))


@pytest.mark.parametrize("block", [3, ingest._BLOCK])
@pytest.mark.parametrize("reload", [False, True])
def test_a_fault_before_an_undecodable_byte_is_named(tmp_path, reload, block):
    """The lines before a byte that does not decode are checked first: a
    repeated id on line 2 is named, and only a file without it raises
    InputFileError. The byte is far enough on that the lines before it are
    read first."""
    path = tmp_path / "posts.jsonl"
    posts = [ingest.RawPost(f"p{i}", "b01", "", "", STAMP) for i in range(2000)]
    for lines, error, message in [
            ([posts[0], *posts], ingest.ArtifactError if reload else ingest.DuplicateIdError,
             f"{path if reload else path.name}:2: duplicate id 'p0'"),
            (posts, ingest.InputFileError, f"{path}: not UTF-8 text (invalid start byte)")]:
        ingest.write_jsonl(path, lines)
        with open(path, "ab") as fh:
            fh.write(b"\xff\n")
        with mock.patch.object(ingest, "_BLOCK", block), pytest.raises(error) as raised:
            ingest.load_posts(path, reload=reload)
        assert str(raised.value) == message

def read_back_columns(out: Path, stage: str, name: str) -> tuple[dict, int]:
    """The columns and key width the stage that reads ``stage/name`` back
    reads it with."""
    columns, key_columns = cli.CSV_ARTIFACTS[stage, name]
    overrides = {}
    if name.startswith("edges_"):
        layers = cli.LAYERS if name == "edges_merged.csv" else (name[len("edges_"):-4],)
        overrides["layer"] = cli._checked(str, layers.__contains__, "a layer")
    nodes = {"edges_merged.csv": "build/nodes.txt", "graph_cleaned.csv": "clean/nodes_kept.txt"}
    if name in nodes:
        known = set((out / nodes[name]).read_text("utf-8").splitlines())
        overrides["src"] = overrides["dst"] = cli._checked(str, known.__contains__, "a node")
    return {**columns, **overrides}, key_columns


# values a CSV field is set to: numbers not as written, not finite or not
# positive, known and unknown nodes and layers, quoted text, a NUL
CSV_VALUES = st.sampled_from([
    "", "x", "0", "1", "2", "3", "01", "-0", "-3", "١", "1_0", " 1 ", "1.5", "nan", "inf",
    "1e400", "b01", "b02", "zz-unknown", "comment", "citation", "blogroll", '"a,b"',
    '"a\nb"', "\0"])


@st.composite
def edited_csv(draw, lines: list[str]) -> str:
    """``lines`` with up to three edits: a field set, a line repeated,
    dropped, moved or padded with a column, or a blank line."""
    lines = list(lines)
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(lines) - 1))
        edit = draw(st.sampled_from(["set", "set", "set", "repeat", "drop", "move", "widen",
                                     "narrow", "blank"]))
        if edit == "set":
            fields = lines[i].split(",")
            fields[draw(st.integers(0, len(fields) - 1))] = draw(CSV_VALUES)
            lines[i] = ",".join(fields)
        elif edit == "repeat":
            lines.insert(draw(st.integers(1, len(lines))), lines[i])
        elif edit == "drop" and len(lines) > 1:
            del lines[i]
        elif edit == "move":
            lines.insert(draw(st.integers(1, len(lines))), lines.pop(i))
        elif edit == "widen":
            lines[i] += ",1"
        elif edit == "narrow":
            lines[i] = lines[i].rsplit(",", 1)[0]
        elif edit == "blank":
            lines.insert(i, "")
    return "".join(line + "\n" for line in lines)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(sorted(cli.CSV_ARTIFACTS)), st.data())
def test_csv_read_back_matches_the_row_loop(out_dir, artifact, data):  # noqa: F811
    """Each CSV artifact of a fixture run, edited, reads back to the rows, or
    the first fault, that reading and checking each row in turn gives."""
    stage, name = artifact
    text = data.draw(edited_csv((out_dir / stage / name).read_text("utf-8").splitlines()))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / name
        path.write_text(text, encoding="utf-8")
        assert_same_outcome(
            lambda: list(cli._read_artifact_csv(path, *read_back_columns(out_dir, stage, name))),
            lambda: list(map(tuple, oracles.read_artifact_csv_by_row(
                path, *read_back_columns(out_dir, stage, name)))))


EDGE_ROWS = [f"b{i},b{i + 1},blogroll,1" for i in range(2000)]
# Files read with their CSV_ARTIFACTS columns, each with what reading it
# gives: its rows, or its error and the message after the file's path. The
# undecodable byte comes after enough rows that the rows before it are read
# first.
CSV_CASES = {
    "fault-before-an-undecodable-byte": (
        "build", "edges_blogroll.csv", [EDGE_ROWS[0], *EDGE_ROWS], b"\xff\n",
        ("ArtifactError", ":3: malformed row: repeats an earlier row's ('b0', 'b1', 'blogroll')")),
    "undecodable-byte-after-clean-rows": (
        "build", "edges_blogroll.csv", EDGE_ROWS, b"\xff\n",
        ("InputFileError", ": not UTF-8 text (invalid start byte)")),
    "quoted-line-break-before-a-fault": (
        "build", "edges_blogroll.csv", ['"b\nx",b1,blogroll,1', EDGE_ROWS[1], "b2,b3,blogroll,x"],
        b"", ("ArtifactError", ":5: malformed row: 'x' is not a number as written")),
    # ``_digraph`` rejects a NaN weight later
    "nan-weight": ("clean", "graph_cleaned.csv", ["b01,b02,nan"], b"",
                   ("ok", [("b01", "b02", float("nan"))])),
}


def opened_paths(monkeypatch) -> list:
    """The paths ``ingest.read_lines`` opens from now on, in order."""
    opened = []
    read_lines = ingest.read_lines
    monkeypatch.setattr(ingest, "read_lines", lambda path, *args, **kwargs: (
        opened.append(path) or read_lines(path, *args, **kwargs)))
    return opened


@pytest.mark.parametrize("case", sorted(CSV_CASES))
def test_csv_faults_are_named_in_row_order(case, tmp_path, monkeypatch):
    """A fault is named at its row's line, before a byte that does not decode
    later in the file, as reading and checking each row in turn names it. A
    valid file is opened once, a faulty one at most twice."""
    stage, name, rows, tail, (error, want) = CSV_CASES[case]
    columns, key_columns = cli.CSV_ARTIFACTS[stage, name]
    path = tmp_path / name
    path.write_bytes("".join(f"{line}\n" for line in [",".join(columns), *rows]).encode() + tail)

    def read():
        return list(cli._read_artifact_csv(path, columns, key_columns))

    assert_same_outcome(read, lambda: list(map(tuple, oracles.read_artifact_csv_by_row(
        path, columns, key_columns))))
    opened = opened_paths(monkeypatch)
    assert repr(outcome(read)) == repr((error, want if error == "ok" else f"{path}{want}"))
    assert len(opened) == (2 if error == "ArtifactError" else 1)


# rows whose last holds a field of 17 characters, each with the message after
# the file's path when the readers' field size limit is 16
LONG_FIELD_CASES = {
    "long-field": ([EDGE_ROWS[0], "b" * 17 + ",b1,blogroll,1"],
                   ":3: malformed row: field larger than field limit (16)"),
    "repeated-key-then-long-field": (
        [EDGE_ROWS[0], EDGE_ROWS[0], "b" * 17 + ",b1,blogroll,1"],
        ":3: malformed row: repeats an earlier row's ('b0', 'b1', 'blogroll')"),
}


@pytest.mark.parametrize("case", sorted(LONG_FIELD_CASES))
def test_a_line_the_csv_module_rejects_is_named_after_earlier_faults(case, tmp_path, monkeypatch,
                                                                     request):
    """With the field size limit each reader sets patched to 16 characters, a
    longer field is a line the csv module rejects under every interpreter: it
    is named at its line, after a fault on an earlier row, as reading and
    checking each row in turn names it."""
    rows, want = LONG_FIELD_CASES[case]
    columns, key_columns = cli.CSV_ARTIFACTS["build", "edges_blogroll.csv"]
    path = tmp_path / "edges_blogroll.csv"
    path.write_text("".join(f"{line}\n" for line in [",".join(columns), *rows]), "utf-8")
    set_limit = csv.field_size_limit
    # the limit is the csv module's, for the whole process
    request.addfinalizer(functools.partial(set_limit, set_limit()))
    monkeypatch.setattr(csv, "field_size_limit", lambda limit: set_limit(16))

    def read():
        return list(cli._read_artifact_csv(path, columns, key_columns))

    assert_same_outcome(read, lambda: list(map(tuple, oracles.read_artifact_csv_by_row(
        path, columns, key_columns))))
    assert repr(outcome(read)) == repr(("ArtifactError", f"{path}{want}"))


def edit_lines(edits: dict[int, tuple[int, str]]):
    """An edit of a CSV artifact's lines: line number -> (field index,
    value)."""
    def edit(lines):
        lines = list(lines)
        for number, (index, value) in edits.items():
            fields = lines[number - 1].split(",")
            fields[index] = value
            lines[number - 1] = ",".join(fields)
        return lines
    return edit


def set_first_and_third_post(lines):
    first, third = json.loads(lines[0]), json.loads(lines[2])
    return [json.dumps({**first, "title": 7}), lines[1],
            json.dumps({**third, "published_at": "2010-04-05T10:00:00+00:00"}), *lines[3:]]


# Each case plants two faults, the later one in a column a column check
# reaches first (in a JSONL file, simply on a later line): (stage, artifact,
# edit, the message, which names the earlier).
TWO_FAULTS = {
    "trusted-posts": (
        "build", "ingest/posts.jsonl", set_first_and_third_post,
        "1: field 'title' missing or not a string"),
    "merged-weight-then-unknown-endpoint": (
        "clean", "build/edges_merged.csv", edit_lines({2: (3, "x"), 5: (0, "zz-unknown")}),
        "2: malformed row: 'x' is not a number as written"),
    "layer-weight-then-other-layer": (
        "clean", "build/edges_blogroll.csv", edit_lines({2: (3, "x"), 5: (2, "comment")}),
        "2: malformed row: 'x' is not a number as written"),
    "cleaned-weight-then-unknown-endpoint": (
        "rank", "clean/graph_cleaned.csv", edit_lines({2: (2, "x"), 5: (1, "zz-unknown")}),
        "2: malformed row: could not convert string to float: 'x'"),
    "ranking-rank-then-nan-score": (
        "report", "rank/hub.csv", edit_lines({2: (2, "3"), 5: (1, "nan")}),
        "2: malformed row: '3' is not its row's number"),
}


@pytest.mark.parametrize("case", sorted(TWO_FAULTS))
def test_the_earlier_of_two_faults_is_named(case, out_dir, tmp_path, capsys):  # noqa: F811
    stage, artifact, edit, message = TWO_FAULTS[case]
    out = tmp_path / "out"
    shutil.copytree(out_dir, out)
    path = out / artifact
    if artifact.startswith("ingest/"):
        rewrite_ingest_artifact(out, path.name, edit)
    else:
        path.write_text("".join(f"{line}\n" for line in edit(
            path.read_text("utf-8").splitlines())), encoding="utf-8")
    capsys.readouterr()
    assert cli.main([stage, *fixture_flags(out)]) == cli.EXIT_DATA
    assert capsys.readouterr().err == f"data error: {path}:{message}\n"


def test_build_names_a_comment_fault_before_a_blogroll_fault(out_dir, tmp_path,  # noqa: F811
                                                             capsys):
    """``build`` reads the ingest files in ingest's order, so of faults in two
    files the earlier file's is named."""
    out = tmp_path / "out"
    shutil.copytree(out_dir, out)
    rewrite_ingest_artifact(out, "comments.jsonl", edit_first_row(extra=1))
    rewrite_ingest_artifact(out, "blogroll.jsonl", lambda lines: ["{broken", *lines[1:]])
    capsys.readouterr()
    assert cli.main(["build", *fixture_flags(out)]) == cli.EXIT_DATA
    assert capsys.readouterr().err == (
        f"data error: {out / 'ingest/comments.jsonl'}:1: unexpected field 'extra'\n")


def test_build_requires_every_ingest_file_before_it_opens_any(out_dir, tmp_path,  # noqa: F811
                                                              monkeypatch, capsys):
    out = tmp_path / "out"
    shutil.copytree(out_dir, out)
    missing = out / "ingest/profiles.jsonl"
    missing.unlink()
    opened = opened_paths(monkeypatch)
    capsys.readouterr()
    assert cli.main(["build", *fixture_flags(out)]) == cli.EXIT_VALIDATION
    assert capsys.readouterr().err == (
        f"stage error: missing upstream artifact {missing} (run 'blognet ingest' first)\n")
    assert opened == []


def test_artifacts_as_written_pass_the_line_and_column_checks(out_dir, tmp_path,  # noqa: F811
                                                              monkeypatch):
    """Every line of the fixture run's ingest artifacts is read by the line
    check alone: the per-field read does not run. Each CSV artifact is
    opened once."""

    def per_field(*args):
        # a reload's per-field read of a line it does not reject asks this
        raise AssertionError("an ingest line went to the per-field read")

    monkeypatch.setattr(ingest, "_not_as_written", per_field)
    opened = opened_paths(monkeypatch)
    out = tmp_path / "out"
    shutil.copytree(out_dir, out)
    for stage in ("build", "clean", "rank", "stats", "report"):
        assert cli.main([stage, *fixture_flags(out)]) == cli.EXIT_OK, stage
    csv_files = [path for path in opened if str(path).endswith(".csv")]
    assert len(set(csv_files)) == len(csv_files) == len(cli.CSV_ARTIFACTS)
