"""Pinned output bytes at benchmark scale: the ``text`` and ``link-dense``
workloads' dumps, generated by ``perfbench/gen.py`` at one seed the
benchmark's summary never uses, run through all seven stages, and the sha256
of every file they write, manifests included, must equal the committed table
``fixtures/workload_digests.json`` (workload -> path in the output tree ->
digest).

The stages run from the dump's parent directory with the generated
``dump/config.json``, whose input paths are relative, so no absolute path
reaches a manifest. A change that alters artifact bytes on purpose
regenerates the table in the same diff
(``PYTHONPATH=src python3 tests/test_workload_digests.py`` from the checkout
root) and says why.
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

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from gen import generate  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

TABLE = FIXTURES / "workload_digests.json"
SEED = 77      # outside the summary's seeds 1-10
PINNED = ("text", "link-dense")


def workload_digests(workload: str, work_dir: Path) -> dict[str, str]:
    """Generate ``workload``'s dump at ``SEED`` under ``work_dir``, run its
    stages from there; the sha256 of each file written, by its path in the
    output tree."""
    spec = WORKLOADS[workload]
    generate(spec.params, SEED, work_dir / "dump")
    cwd = os.getcwd()
    os.chdir(work_dir)
    try:
        for stage in spec.stages:
            code = main([stage, "--config", "dump/config.json", "--out-dir", "out"])
            assert code == EXIT_OK, f"{workload}: stage {stage} exited {code}"
    finally:
        os.chdir(cwd)
    out = work_dir / "out"
    return {path.relative_to(out).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(out.rglob("*")) if path.is_file()}


@pytest.mark.parametrize("workload", PINNED)
def test_workload_output_bytes_match_the_digest_table(workload, tmp_path):
    expected = json.loads(TABLE.read_text(encoding="utf-8"))[workload]
    assert workload_digests(workload, tmp_path) == expected


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as scratch:
        table = {name: workload_digests(name, Path(scratch) / name) for name in PINNED}
    TABLE.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {TABLE}: {sum(map(len, table.values()))} digests", file=sys.stderr)
