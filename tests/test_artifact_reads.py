"""Artifact read-back checked a line or a column at a time, against the
per-field and per-row loops in ``oracles`` (differential testing): the same
records, or the same message naming the same first faulty line. Also the
message ``clean``, ``rank``, ``report`` and a trusted reload give when a file
holds two faults and a column check meets the later one first."""

import json
import shutil
import tempfile
from datetime import datetime, timezone
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from blognet import cli, ingest
from test_cli import fixture_flags, out_dir, rewrite_ingest_artifact  # noqa: F401 (a fixture)
from test_ingest import outcome, raw_dumps
from test_ingest_codec import json_text

RECORD_TYPES = {"posts": ingest.RawPost, "comments": ingest.RawComment,
                "blogroll": ingest.BlogrollRecord, "profiles": ingest.ProfileRecord}


def check_age(profile: ingest.ProfileRecord) -> None:
    """The check ``load_profiles`` makes on its trusted path."""
    if profile.age is not None and not ingest.AGE_MIN <= profile.age <= ingest.AGE_MAX:
        raise ValueError(f"age {profile.age} outside [{ingest.AGE_MIN}, {ingest.AGE_MAX}]")


CHECKS = {"profiles": check_age}
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
    "comments": [ingest.RawComment(f"c-fixed{i}", "p1", commenter, "متن", STAMP)
                 for i, commenter in enumerate([None, "b01", None])],
    "posts": [ingest.RawPost(f"p-fixed{i}", "b01", "عنوان", "<p>متن</p>", STAMP)
              for i in range(3)],
}

# values a field of a line is set to: each JSON type, a lone surrogate and a
# backslash-u that is no escape, ages the check rejects
FIELD_VALUES = st.sampled_from([
    7, "7", True, 1.5, None, [], {}, "", "é", "\ud800", "x\\u", 3, 121, 10 ** 400])
# values a timestamp is set to: not canonical, though ``fromisoformat`` reads
# most of them, or canonical and rejected by ``fromisoformat``
STAMPS = st.sampled_from([
    "2010-04-05T10:00:00+00:00", "2010-04-05T10:00:00z", "2010-04-05 10:00:00Z",
    "2010-04-05T10:00:00.5Z", "2010-04-05T10:00:00", "٢٠١٠-04-05T10:00:00Z",
    "2010-13-05T10:00:00Z", "0000-01-01T00:00:00Z", "2010-04-05T10:00:00Z"])
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
    """``read`` and ``reference`` give equal results with equal reprs, or
    raise the same error with the same message."""
    got, want = outcome(read, *args), outcome(reference, *args)
    assert (got, repr(got)) == (want, repr(want))


@settings(max_examples=300, deadline=None)
@given(raw_dumps(), st.data())
def test_trusted_reload_matches_the_per_field_loop(dump, data):
    """On an ingest tree of a generated dump, with lines rewritten with \\u
    escapes or edited, a trusted reload gives what checking every field of
    every line gives."""
    with tempfile.TemporaryDirectory() as tmp:
        known: set[str] = set()
        for name, rows in dump.items():
            raw, artifact = Path(tmp) / f"raw_{name}.jsonl", Path(tmp) / f"{name}.jsonl"
            raw.write_text("".join(json.dumps(row) + "\n" for row in rows), encoding="utf-8")
            args = [known] if name == "comments" else []
            accepted = getattr(ingest, f"load_{name}")(raw, *args).records
            ingest.write_jsonl(artifact, [*accepted, *FIXED_RECORDS.get(name, [])])
            if name == "posts":
                known = {p.post_id for p in accepted}
            # a line may hold U+2028, which ``splitlines`` would split at
            lines = [data.draw(edited_line(line))
                     for line in artifact.read_bytes().decode("utf-8").split("\n")[:-1]]
            ending = data.draw(st.sampled_from(["\n", ""]))
            artifact.write_text("\n".join(lines) + ending, encoding="utf-8")
            assert_same_outcome(ingest._load_trusted, oracles.load_trusted_by_field,
                                artifact, RECORD_TYPES[name], CHECKS.get(name))


def read_back_columns(out: Path, stage: str, name: str) -> tuple[dict, int]:
    """The columns and key width the stage that reads ``stage/name`` back
    reads it with (a fresh ``_RowNumbers`` for a ranking)."""
    columns, key_columns = cli.CSV_ARTIFACTS[stage, name]
    overrides = {}
    if name.startswith("edges_"):
        layers = cli.LAYERS if name == "edges_merged.csv" else (name[len("edges_"):-4],)
        overrides["layer"] = cli._checked(str, layers.__contains__, "a layer")
    nodes = {"edges_merged.csv": "build/nodes.txt", "graph_cleaned.csv": "clean/nodes_kept.txt"}
    if name in nodes:
        known = set((out / nodes[name]).read_text("utf-8").splitlines())
        overrides["src"] = overrides["dst"] = cli._checked(str, known.__contains__, "a node")
    if stage == "rank":
        overrides["rank"] = cli._RowNumbers()
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
        "1: field 'title' is of the wrong type (int)"),
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
        rewrite_ingest_artifact(out, path.name, edit)  # read on the trusted path
    else:
        path.write_text("".join(f"{line}\n" for line in edit(
            path.read_text("utf-8").splitlines())), encoding="utf-8")
    capsys.readouterr()
    assert cli.main([stage, *fixture_flags(out)]) == cli.EXIT_DATA
    assert capsys.readouterr().err == f"data error: {path}:{message}\n"


def test_artifacts_as_written_pass_the_line_and_column_checks(out_dir, tmp_path,  # noqa: F811
                                                              monkeypatch):
    """Every line of the fixture run's artifacts is read by the line or
    column check alone: neither the per-field nor the per-row loop runs."""
    decode_json = ingest.decode_json

    def whole_documents_only(text, decode=json.loads):
        # only the per-field loop hands decode_json a decoder of its own
        assert decode is json.loads, "a trusted line went to the per-field loop"
        return decode_json(text, decode)

    def row_loop(*args):
        raise AssertionError("a CSV artifact went to the row loop")

    monkeypatch.setattr(ingest, "decode_json", whole_documents_only)
    monkeypatch.setattr(cli, "_rows_by_row", row_loop)
    out = tmp_path / "out"
    shutil.copytree(out_dir, out)
    for stage in ("build", "clean", "rank", "stats", "report"):
        assert cli.main([stage, *fixture_flags(out)]) == cli.EXIT_OK, stage
