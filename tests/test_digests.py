"""Pinned output bytes: the fixture's seven stages run in five settings, and
the sha256 of every file they write, manifests included, must equal the
committed table ``fixtures/smallblog/digests.json`` (setting -> path in the
output tree -> digest).

The stages run from the fixture directory with its ``config.json``, whose
input paths are relative, so no absolute path reaches a manifest. A change
that alters artifact bytes on purpose regenerates the table in the same diff
(``PYTHONPATH=src python3 tests/test_digests.py`` from the checkout root)
and says why.

A copy of the fixture with a blog id that holds a NUL, which ingest
quarantines, must also write the same files under every interpreter.
"""

import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

import blognet
from blognet.cli import EXIT_OK, main
from conftest import FIXTURES

SMALLBLOG = FIXTURES / "smallblog"
TABLE = SMALLBLOG / "digests.json"
STAGES = ("ingest", "prep", "build", "clean", "rank", "stats", "report")
SETTINGS = {
    "defaults": [],
    "weighted-rank": ["--weighted-rank", "yes"],
    "isolated-strict": ["--isolated-strict", "yes"],
    "require-monthly": ["--require-monthly", "yes", "--min-posts", "1"],
    "variants": ["--clustering-variant", "transitivity", "--hits-norm", "l1",
                 "--dangling-policy", "self"],
}


def output_digests(flags: list[str], out_dir: Path) -> dict[str, str]:
    """Run every stage with ``flags`` into ``out_dir``; the sha256 of each
    file written, by its path in the output tree."""
    cwd = os.getcwd()
    os.chdir(SMALLBLOG)
    try:
        for stage in STAGES:
            code = main([stage, "--config", "config.json", *flags, "--out-dir", str(out_dir)])
            assert code == EXIT_OK, f"stage {stage} exited {code}"
    finally:
        os.chdir(cwd)
    return {path.relative_to(out_dir).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(out_dir.rglob("*")) if path.is_file()}


@pytest.mark.parametrize("setting", SETTINGS)
def test_output_bytes_match_the_digest_table(setting, tmp_path):
    expected = json.loads(TABLE.read_text(encoding="utf-8"))[setting]
    assert output_digests(SETTINGS[setting], tmp_path / "out") == expected


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as scratch:
        table = {name: output_digests(flags, Path(scratch) / name)
                 for name, flags in SETTINGS.items()}
    TABLE.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {TABLE}: {sum(map(len, table.values()))} digests", file=sys.stderr)


# the stages that import no numpy, so they run under any CPython 3.10+
NUMPY_FREE_STAGES = ("ingest", "build", "clean", "stats")
# run by another interpreter from the fixture directory: the numpy-free
# stages in each setting, into ``argv[1]/<setting>``
RUN_NUMPY_FREE_STAGES = f"""
import json, sys
from blognet.cli import main
for name, flags in json.loads(sys.argv[2]).items():
    for stage in {NUMPY_FREE_STAGES!r}:
        out = f"{{sys.argv[1]}}/{{name}}"
        if main([stage, "--config", "config.json", *flags, "--out-dir", out]):
            sys.exit(f"{{name}}: stage {{stage}} failed")
"""
# prints the interpreter's real path if it is CPython 3.10 or later, and
# nothing otherwise (in a form Python 2 reads too)
PROBE = ("import os, sys; print(os.path.realpath(sys.executable) if sys.version_info >= (3, 10)"
         " and sys.implementation.name == 'cpython' else '')")


def other_interpreters() -> list[str]:
    """Every CPython 3.10+ under ``~/.pyenv/versions`` or on PATH as
    ``python3.1x`` but the running one, by real path; one that fails to start
    is left out."""
    candidates = sorted(Path.home().glob(".pyenv/versions/*/bin/python3"))
    candidates += filter(None, (shutil.which(f"python3.{minor}") for minor in range(10, 20)))
    found = set()
    for candidate in candidates:
        try:
            probe = subprocess.run([str(candidate), "-c", PROBE], capture_output=True,
                                   text=True, timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            continue
        if probe.returncode == 0 and probe.stdout.strip():
            found.add(probe.stdout.strip())
    return sorted(found - {os.path.realpath(sys.executable)})


def test_numpy_free_stages_write_the_table_under_every_other_interpreter(tmp_path):
    interpreters = other_interpreters()
    if not interpreters:
        pytest.skip("no other CPython 3.10+ found")
    table = json.loads(TABLE.read_text(encoding="utf-8"))
    expected = {f"{name}/{path}": digest for name, digests in table.items()
                for path, digest in digests.items() if path.startswith(NUMPY_FREE_STAGES)}
    env = {**os.environ, "PYTHONPATH": str(Path(blognet.__file__).parents[1]),
           "PYTHONDONTWRITEBYTECODE": "1"}
    for python in interpreters:
        out = tmp_path / Path(python).name
        run = subprocess.run([python, "-c", RUN_NUMPY_FREE_STAGES, str(out), json.dumps(SETTINGS)],
                             cwd=SMALLBLOG, env=env, capture_output=True, text=True, timeout=300)
        assert run.returncode == 0, f"{python}: {run.stderr}"
        written = {path.relative_to(out).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
                   for path in sorted(out.rglob("*")) if path.is_file()}
        assert written == expected, python


# more profile lines and blogroll lines, for a blog id holding a NUL and
# for two that are not bare slugs
NUL_ID_LINES = {
    "profiles.jsonl": [f'{{"blog_id": "{blog}"}}\n' for blog in ("b\\u0000x", "b01/x", "b 01")],
    "blogroll.jsonl": [f'{{"owner_blog_id": "{blog}", '
                       '"target_url": "http://b01.blogville.example/"}\n'
                       for blog in ("b\\u0000x", "b01/x", "b 01")],
}


def nul_id_dump(tmp_path: Path) -> Path:
    """A copy of the fixture with the ``NUL_ID_LINES`` added."""
    dump = tmp_path / "dump"
    shutil.copytree(SMALLBLOG, dump)
    for name, lines in NUL_ID_LINES.items():
        with open(dump / name, "a", encoding="utf-8") as fh:
            fh.writelines(lines)
    return dump


def test_a_blog_id_holding_a_nul_is_quarantined_at_ingest(tmp_path):
    dump, out = nul_id_dump(tmp_path), tmp_path / "out"
    cwd = os.getcwd()
    os.chdir(dump)
    try:
        codes = [main([stage, "--config", "config.json", "--out-dir", str(out)])
                 for stage in STAGES]
    finally:
        os.chdir(cwd)
    assert codes == [EXIT_OK] * len(STAGES)
    quarantined = [json.loads(line) for line in
                   (out / "ingest/quarantine.jsonl").read_text(encoding="utf-8").splitlines()]
    assert [(q["file"], q["reason"]) for q in quarantined if "NUL" in q["reason"]] == [
        ("blogroll.jsonl", "blog id holds a NUL: 'b\\x00x'"),
        ("profiles.jsonl", "blog id holds a NUL: 'b\\x00x'"),
    ]
    assert [(q["file"], q["reason"]) for q in quarantined if "bare" in q["reason"]] == [
        (name, f"not a bare blog slug: {blog!r}")
        for name in ("blogroll.jsonl", "profiles.jsonl") for blog in ("b01/x", "b 01")
    ]
    assert not [path for path in out.rglob("*") if path.is_file() and b"\0" in path.read_bytes()]


def test_a_blog_id_holding_a_nul_gives_the_same_files_under_every_other_interpreter(tmp_path):
    interpreters = other_interpreters()
    if not interpreters:
        pytest.skip("no other CPython 3.10+ found")
    dump = nul_id_dump(tmp_path)
    env = {**os.environ, "PYTHONPATH": str(Path(blognet.__file__).parents[1]),
           "PYTHONDONTWRITEBYTECODE": "1"}
    trees = {}
    for python in [os.path.realpath(sys.executable), *interpreters]:
        out = tmp_path / Path(python).name
        run = subprocess.run([python, "-c", RUN_NUMPY_FREE_STAGES, str(out), '{"defaults": []}'],
                             cwd=dump, env=env, capture_output=True, text=True, timeout=300)
        assert run.returncode == 0, f"{python}: {run.stderr}"
        trees[python] = {path.relative_to(out).as_posix(): path.read_bytes()
                         for path in sorted(out.rglob("*")) if path.is_file()}
    first = trees.pop(os.path.realpath(sys.executable))
    assert all(tree == first for tree in trees.values()), sorted(trees)
