"""blognet pipeline benchmark.

One run generates a seeded dump for one workload, then runs the
workload's stages one after another, each in a fresh worker process as a
user running ``blognet <stage>`` would (a closed loop: one client, one
stage process at a time). With ``--trace 0`` it repeats whole pipeline
passes while another one can end inside ``--seconds``; with ``--trace 1``
it makes one untraced and one traced pass. It checks every output, each
stage's tree byte-identical across the run's passes too, and prints one
JSON line: the end-to-end metrics with ``--trace 0``, or with ``--trace 1``
the per-layer metrics of the traced pass next to the untraced one.

    python3 perfbench/run.py --workload text --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all    # every workload, summary

The program is imported from the ``src/`` directory beside ``perfbench/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import asdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from gen import generate  # noqa: E402
from workloads import ALL_STAGES, WORKLOADS  # noqa: E402

RUN_LIMIT_S = 170          # a run ends, failed, rather than overrun this
SUMMARY_SEEDS = range(1, 11)   # untraced runs per workload in the summary

# name -> unit. End-to-end metrics come from untraced passes and are the
# ones every workload has; per-stage wall times (``cli.<stage>.wall_s``) are
# per-layer, because most stages do real work on only some workloads.
END_TO_END = {
    "pipeline_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "output_mb": "MB",
}

# name -> (unit, end-to-end metric it should move, workload where that shows).
# ``<stage>_s`` is the stage's wall time, which the summary prints per workload.
PER_LAYER = {
    **{name: spec for stage in ALL_STAGES for name, spec in (
        (f"cli.{stage}.self_s", ("s", f"{stage}_s", "all")),
        (f"cli.{stage}.wall_s", ("s", "pipeline_s", "all")),
        (f"cli.{stage}.rss_mb", ("MB", "peak_rss_mb", "all")),
        (f"cli.{stage}.output_bytes", ("bytes", "output_mb", "all")),
    )},
    "ingest.load_s": ("s", "ingest_s", "paper-graph"),
    "ingest.write_s": ("s", "ingest_s", "paper-graph"),
    "ingest.records": ("count", "ingest_s", "paper-graph"),
    "ingest.quarantine_ratio": ("ratio", "ingest_s", "all"),
    "ingest.reload_s": ("s", "build_s, stats_s", "paper-graph"),
    "textprep.similarity_s": ("s", "prep_s, peak_rss_mb, output_mb", "text, link-dense"),
    "textprep.similarity_cells": ("count", "prep_s, output_mb", "text, link-dense"),
    "textprep.documents_s": ("s", "prep_s", "text, link-dense"),
    "textprep.strip_s": ("s", "prep_s", "link-dense"),
    "textprep.strip_calls": ("count", "prep_s", "link-dense"),
    "textprep.normalize_s": ("s", "prep_s", "text"),
    "textprep.tokenize_s": ("s", "prep_s", "text"),
    "textprep.vocab_s": ("s", "prep_s", "text, link-dense"),
    "textprep.vectorize_s": ("s", "prep_s", "text, link-dense"),
    "textprep.vector_nnz": ("count", "prep_s", "text, link-dense"),
    "textprep.tokens": ("count", "prep_s", "text, link-dense"),
    "graphbuild.citation_s": ("s", "build_s", "link-dense"),
    "graphbuild.links_found": ("count", "build_s", "link-dense"),
    "graphbuild.arcs_kept_ratio": ("ratio", "build_s", "link-dense"),
    "graphbuild.blogroll_s": ("s", "build_s", "paper-graph"),
    "graphbuild.comment_s": ("s", "build_s", "paper-graph"),
    "graphbuild.universe_s": ("s", "build_s", "paper-graph"),
    "graphbuild.merge_s": ("s", "build_s", "paper-graph"),
    "graphbuild.dot_s": ("s", "build_s", "paper-graph"),
    "graphclean.from_arcs_s": ("s", "clean_s", "paper-graph"),
    "graphclean.from_arcs_calls": ("count", "clean_s", "paper-graph"),
    "graphclean.scc_s": ("s", "clean_s", "paper-graph"),
    "graphclean.scc_calls": ("count", "clean_s", "paper-graph"),
    "graphclean.clustering_s": ("s", "clean_s", "paper-graph, link-dense"),
    "graphclean.clustering_calls": ("count", "clean_s", "paper-graph, link-dense"),
    "graphclean.prune_s": ("s", "clean_s", "paper-graph"),
    "graphclean.nodes_removed_ratio": ("ratio", "clean_s", "paper-graph"),
    "ranking.pagerank_s": ("s", "rank_s", "paper-graph"),
    "ranking.pagerank_iters": ("count", "rank_s", "paper-graph"),
    "ranking.hits_s": ("s", "rank_s", "paper-graph"),
    "ranking.hits_iters": ("count", "rank_s", "paper-graph"),
    "ranking.indegree_s": ("s", "rank_s", "paper-graph"),
    "ranking.rows_s": ("s", "rank_s", "paper-graph"),
    "ranking.unconverged": ("count", "rank_s", "paper-graph"),
    "profilestats.report_s": ("s", "stats_s", "paper-graph"),
    "trace.overhead_s": ("s", "pipeline_s", "all"),
}

# per-layer time metric -> the traced functions whose self time it sums
_SELF_TIME = {
    "textprep.similarity_s": ("textprep.similarity_matrix", "textprep.cosine_similarity"),
    "textprep.documents_s": ("textprep.blog_documents",),
    "textprep.strip_s": ("textprep.strip_html",),
    "textprep.normalize_s": ("textprep.normalize",),
    "textprep.tokenize_s": ("textprep.tokenize", "textprep.remove_stopwords"),
    "textprep.vocab_s": ("textprep.build_vocabulary",),
    "textprep.vectorize_s": ("textprep.vectorize_tfidf",),
    "graphbuild.citation_s": ("graphbuild.extract_citation_edges",),
    "graphbuild.blogroll_s": ("graphbuild.extract_blogroll_edges",),
    "graphbuild.comment_s": ("graphbuild.extract_comment_edges",),
    "graphbuild.universe_s": ("graphbuild.blog_universe",),
    "graphbuild.merge_s": ("graphbuild.merge_layers",),
    "graphbuild.dot_s": ("graphbuild.to_dot",),
    "graphclean.from_arcs_s": ("graphclean.from_arcs",),
    "graphclean.scc_s": ("graphclean.strongly_connected_components",),
    "graphclean.clustering_s": ("graphclean.clustering_coefficient",),
    "graphclean.prune_s": ("graphclean.remove_isolated", "graphclean.filter_components",
                           "graphclean.subgraph"),
    "ranking.pagerank_s": ("ranking.pagerank",),
    "ranking.hits_s": ("ranking.hits",),
    "ranking.indegree_s": ("ranking.indegree_rank",),
    "ranking.rows_s": ("ranking.ranked_rows",),
    "profilestats.report_s": ("profilestats.build_stats_report",),
}
_CALLS = {
    "textprep.strip_calls": "textprep.strip_html",
    "graphclean.from_arcs_calls": "graphclean.from_arcs",
    "graphclean.scc_calls": "graphclean.strongly_connected_components",
    "graphclean.clustering_calls": "graphclean.clustering_coefficient",
}
_COUNTED = {
    "textprep.similarity_cells": "textprep.similarity_matrix",
    "textprep.vector_nnz": "textprep.vectorize_tfidf",
    "textprep.tokens": "textprep.blog_documents",
    "graphbuild.links_found": "graphbuild.extract_citation_edges",
}
_LOADS = ("ingest.load_posts", "ingest.load_comments", "ingest.load_blogroll",
          "ingest.load_profiles")


class CheckFailed(Exception):
    pass


def _monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _tree_digest(path: Path) -> str:
    digest = hashlib.sha256()
    for f in sorted(p for p in path.rglob("*") if p.is_file()):
        digest.update(str(f.relative_to(path)).encode())
        digest.update(f.read_bytes())
    return digest.hexdigest()


def _tree_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def _manifest(out: Path, stage: str) -> dict:
    return json.loads((out / stage / "manifest.json").read_text(encoding="utf-8"))


def _reason_class(reason: str) -> str:
    if reason.startswith("unknown post_id"):
        return "unknown_post_id"
    if reason.startswith("invalid URL"):
        return "invalid_url"
    if reason.startswith("age "):
        return "age_out_of_range"
    return "bad_timestamp"


def check_stage(stage: str, out: Path, planted: dict) -> None:
    """Raise CheckFailed when a stage's artifacts disagree with what the
    generator planted."""
    def expect(what: str, got, want) -> None:
        if got != want:
            raise CheckFailed(f"{stage}: {what} is {got!r}, planted {want!r}")

    if stage == "ingest":
        counts = _manifest(out, stage)["counts"]
        for name in ("posts", "comments", "blogroll", "profiles"):
            expect(f"{name} accepted", counts[name]["accepted"], planted["accepted"][name])
            expect(f"{name} quarantined", counts[name]["quarantined"],
                   planted["quarantined"][name])
        reasons: dict[str, int] = {}
        for line in (out / stage / "quarantine.jsonl").read_text(encoding="utf-8").splitlines():
            key = _reason_class(json.loads(line)["reason"])
            reasons[key] = reasons.get(key, 0) + 1
        expect("quarantine reasons", reasons, planted["quarantine_reasons"])
    elif stage == "build":
        counts = _manifest(out, stage)["counts"]
        expect("universe_blogs", counts["universe_blogs"], planted["universe_blogs"])
        expect("collapsed_arcs", counts["merged"]["collapsed_arcs"], planted["collapsed_arcs"])
    elif stage == "clean":
        expect("isolated_removed", _manifest(out, stage)["counts"]["isolated_removed"],
               planted["linkless_blogs"])
    elif stage == "rank":
        counts = _manifest(out, stage)["counts"]
        expect("pagerank converged", counts["pagerank"]["converged"], True)
        expect("hits converged", counts["hits"].get("converged"), True)


def run_pass(stage_list, workdir: Path, planted: dict, trace: bool,
             deadline: float | None = None) -> dict:
    """The given stages, one fresh process each, into a fresh output tree
    under ``workdir``. A stage that fails, or is still running at the
    CLOCK_MONOTONIC ``deadline``, stops the pass."""
    out = workdir / "out"
    shutil.rmtree(out, ignore_errors=True)
    stages: dict[str, dict] = {}
    for stage in stage_list:
        result_path = workdir / f"result-{stage}.json"
        result_path.unlink(missing_ok=True)
        cmd = [sys.executable, str(HERE / "worker.py"), stage, "dump/config.json",
               result_path.name]
        spawned = _monotonic()
        try:
            proc = subprocess.run(cmd + [repr(spawned)] + (["--trace"] if trace else []),
                                  cwd=workdir, stdout=subprocess.DEVNULL,
                                  stderr=subprocess.PIPE, text=True,
                                  timeout=deadline and max(1.0, deadline - spawned))
        except subprocess.TimeoutExpired:
            stages[stage] = {"error": "stopped at the run's time limit"}
            break
        process_s = _monotonic() - spawned
        if proc.returncode != 0 or not result_path.exists():
            stages[stage] = {"error": f"worker exited {proc.returncode}: {proc.stderr.strip()}"}
            break
        result = json.loads(result_path.read_text(encoding="utf-8"))
        result["process_s"] = process_s
        stages[stage] = result
        if result["exit"] != 0:
            result["error"] = f"blognet exited {result['exit']}: {proc.stderr.strip()}"
            break
        try:
            check_stage(stage, out, planted)
        except (CheckFailed, OSError, KeyError, ValueError) as err:
            result["error"] = f"output check failed: {err}"
        result["output_bytes"] = _tree_bytes(out / stage)
        result["digest"] = _tree_digest(out / stage)
    return {"stages": stages,
            "pipeline_s": sum(r.get("process_s", 0.0) for r in stages.values()),
            "output_bytes": _tree_bytes(out) if out.exists() else 0}


def per_layer_metrics(plain: dict, traced: dict, out: Path) -> dict:
    """Per-layer metrics from a traced pass, with stage wall times, memory and
    output sizes from the untraced pass next to it."""
    totals: dict[str, list[float]] = {}
    by_stage: dict[str, dict[str, list[float]]] = {}
    for stage, result in traced["stages"].items():
        by_stage[stage] = result["self_times"]
        for name, (self_s, calls, count) in by_stage[stage].items():
            entry = totals.setdefault(name, [0.0, 0, 0])
            entry[0] += self_s
            entry[1] += calls
            entry[2] += count

    def self_time(names, stages=None) -> float:
        pools = [by_stage.get(s, {}) for s in stages] if stages else [totals]
        return sum(pool.get(n, [0.0])[0] for pool in pools for n in names)

    m: dict[str, float] = {}
    for stage in ALL_STAGES:
        r = plain["stages"].get(stage)
        m[f"cli.{stage}.self_s"] = self_time([f"cli.{stage}"])
        m[f"cli.{stage}.wall_s"] = r["wall_s"] if r else 0.0
        m[f"cli.{stage}.rss_mb"] = r["rss_mb"] if r else 0.0
        m[f"cli.{stage}.output_bytes"] = r["output_bytes"] if r else 0
    m["ingest.load_s"] = self_time(_LOADS, ["ingest"])
    m["ingest.write_s"] = self_time(["ingest.write_jsonl"], ["ingest"])
    m["ingest.records"] = sum(by_stage["ingest"].get(n, [0, 0, 0])[2] for n in _LOADS)
    ingest_counts = _manifest(out, "ingest")["counts"].values()
    quarantined = sum(c["quarantined"] for c in ingest_counts)
    m["ingest.quarantine_ratio"] = quarantined / (
        quarantined + sum(c["accepted"] for c in ingest_counts))
    m["ingest.reload_s"] = self_time(_LOADS, ["prep", "build", "stats"])
    for name, sources in _SELF_TIME.items():
        m[name] = self_time(sources)
    for name, source in _CALLS.items():
        m[name] = totals.get(source, [0, 0])[1]
    for name, source in _COUNTED.items():
        m[name] = totals.get(source, [0, 0, 0])[2]
    build = _manifest(out, "build")["counts"]
    kept = sum(build[layer]["weight"] for layer in ("blogroll", "comment", "citation"))
    attempted = (build["blogroll"]["records"] + build["comment"]["comments"]
                 + build["citation"]["links_found"])
    m["graphbuild.arcs_kept_ratio"] = kept / attempted
    clean = _manifest(out, "clean")["counts"]
    m["graphclean.nodes_removed_ratio"] = (
        (clean["nodes_before"] - clean["nodes_after"]) / clean["nodes_before"])
    rank = _manifest(out, "rank")["counts"]
    m["ranking.pagerank_iters"] = rank["pagerank"]["iterations"]
    m["ranking.hits_iters"] = rank["hits"]["iterations"]
    m["ranking.unconverged"] = (int(not rank["pagerank"]["converged"])
                                + int(not rank["hits"]["converged"]))
    m["trace.overhead_s"] = traced["pipeline_s"] - plain["pipeline_s"]
    return m


def end_to_end_metrics(passes: list[dict]) -> dict:
    """Medians over the run's passes; set-up over every stage process."""
    med = statistics.median
    m = {
        "pipeline_s": med([p["pipeline_s"] for p in passes]),
        "setup_s": med([r["setup_s"] for p in passes for r in p["stages"].values()]),
        "peak_rss_mb": med([max(r["rss_mb"] for r in p["stages"].values()) for p in passes]),
        "output_mb": med([p["output_bytes"] / 1e6 for p in passes]),
    }
    for stage in ALL_STAGES:
        if stage in passes[0]["stages"]:
            m[f"{stage}_s"] = med([p["stages"][stage]["wall_s"] for p in passes])
    m["cpu_s"] = med([sum(r["cpu_s"] for r in p["stages"].values()) for p in passes])
    return m


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run; returns the result line as a dict, plus the raw
    metrics under ``all`` for the summary."""
    wl = WORKLOADS[workload]
    deadline = _monotonic() + RUN_LIMIT_S
    workdir = ROOT / ".perfbench_work" / f"{workload}-{seed}"
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        planted = generate(wl.params, seed, workdir / "dump")
        passes = []
        if trace:
            passes = [run_pass(wl.stages, workdir, planted, False, deadline),
                      run_pass(wl.stages, workdir, planted, True, deadline)]
        else:
            # start a pass only while it can end inside the measured time
            start = _monotonic()
            longest = 0.0
            while not passes or _monotonic() - start + longest <= seconds:
                passes.append(run_pass(wl.stages, workdir, planted, False, deadline))
                longest = max(longest, passes[-1]["pipeline_s"])
                if any("error" in r for r in passes[-1]["stages"].values()):
                    break
        first = passes[0]["stages"]
        for p in passes[1:]:
            for stage, r in p["stages"].items():
                ref = first.get(stage, {}).get("digest")
                if ref and "error" not in r and r["digest"] != ref:
                    r["error"] = "output differs from the run's first pass"
        failures = [f"{stage}: {r['error']}" for p in passes
                    for stage, r in p["stages"].items() if "error" in r]
        attempted = sum(len(p["stages"]) for p in passes)
        failed = len(failures)
        correct = not failures
        all_metrics = {}
        if correct:
            all_metrics = (per_layer_metrics(passes[0], passes[1], workdir / "out")
                           if trace else end_to_end_metrics(passes))
        units = ({n: spec[0] for n, spec in PER_LAYER.items()} if trace else END_TO_END)
        return {
            "correct": correct,
            "attempted": attempted,
            "failed": failed,
            "metrics": {n: {"value": all_metrics[n], "unit": unit}
                        for n, unit in units.items() if n in all_metrics},
            "failures": failures,
            "all": all_metrics,
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def summary(seconds: float, record: Path | None) -> int:
    """Every workload: untraced runs on ``SUMMARY_SEEDS`` and one traced run;
    print each metric with unit, median, quartiles and sample count."""
    report: dict = {}
    ok = True
    for workload, wl in WORKLOADS.items():
        samples: dict[str, list[float]] = {}
        attempted = failed = 0
        for seed in SUMMARY_SEEDS:
            r = run(workload, seed, seconds, trace=False)
            attempted += r["attempted"]
            failed += r["failed"]
            for f in r["failures"]:
                print(f"{workload} seed {seed}: {f}", file=sys.stderr)
            for name, value in r["all"].items():
                samples.setdefault(name, []).append(value)
        traced = run(workload, 1, seconds, trace=True)
        attempted += traced["attempted"]
        failed += traced["failed"]
        for f in traced["failures"]:
            print(f"{workload} traced: {f}", file=sys.stderr)
        ok = ok and failed == 0
        print(f"\n== {workload}: {wl.why}")
        print(f"   stages: {' '.join(wl.stages)}"
              + "".join(f"; {s} skipped ({why})" for s, why in wl.skipped.items()))
        print(f"   {'metric':<34}{'unit':>7}{'median':>12}{'q1':>12}{'q3':>12}{'n':>4}")
        rows = {}
        for name, values in samples.items():
            unit = END_TO_END.get(name, "s")
            q1, q2, q3 = _quartiles(values)
            rows[name] = {"unit": unit, "median": q2, "q1": q1, "q3": q3, "n": len(values)}
            print(f"   {name:<34}{unit:>7}{q2:>12.4f}{q1:>12.4f}{q3:>12.4f}{len(values):>4}")
        for stage, why in wl.skipped.items():
            rows[f"{stage}_s"] = "skipped: " + why
            print(f"   {stage + '_s':<34}{'s':>7}  skipped")
        fops = failed / attempted if attempted else 1.0
        rows["failed_ops"] = {"unit": "ratio", "value": fops, "failed": failed,
                              "attempted": attempted}
        print(f"   {'failed_ops':<34}{'ratio':>7}{fops:>12.4f}   ({failed}/{attempted})")
        print("   per-layer (traced run, seed 1):")
        for name, (unit, moves, where) in PER_LAYER.items():
            value = traced["all"].get(name)
            if value is not None:
                print(f"   {name:<34}{unit:>7}{value:>14.4f}   -> {moves} on {where}")
        report[workload] = {"why": wl.why, "stages": list(wl.stages),
                            "skipped": wl.skipped, "params": asdict(wl.params),
                            "end_to_end": rows, "per_layer": traced["all"]}
    report["per_layer_moves"] = {name: {"unit": unit, "moves": moves, "on": where}
                                 for name, (unit, moves, where) in PER_LAYER.items()}
    if record:
        record.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0 if ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(description="blognet pipeline benchmark")
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", type=Path, help="with 'all': write the summary as JSON")
    args = parser.parse_args()
    if not (ROOT / "src" / "blognet" / "cli.py").is_file():
        print("perfbench: run from the repository root (src/blognet not found)",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return summary(args.seconds, args.record)
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    for failure in result["failures"]:
        print(f"check failed: {failure}", file=sys.stderr)
    # a failed check is reported in the result line, not by the exit code
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
