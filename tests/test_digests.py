"""Pinned output bytes: the fixture's seven stages run in five settings, and
the sha256 of every file they write, manifests included, must equal the
committed table ``fixtures/smallblog/digests.json`` (setting -> path in the
output tree -> digest).

The stages run from the fixture directory with its ``config.json``, whose
input paths are relative, so no absolute path reaches a manifest. A change
that alters artifact bytes on purpose regenerates the table in the same diff
(``PYTHONPATH=src python3 tests/test_digests.py`` from the checkout root)
and says why.
"""

import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path

import pytest

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
