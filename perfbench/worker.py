"""Run one blognet stage in a fresh process, as ``blognet <stage>`` does, and
write what it measured to a JSON file.

    python3 perfbench/worker.py STAGE CONFIG RESULT SPAWNED [--trace]

SPAWNED is the CLOCK_MONOTONIC reading the parent took just before starting
this process, so ``setup_s`` covers interpreter start, importing
``blognet.cli`` and loading the config. ``wall_s`` is the time inside
``cli.main``. With ``--trace``, the public functions of every module are
wrapped before the stage runs; each call records a span (name, parent =
innermost open span, start, end, count) in memory; when the stage ends the
spans and each function's self time are written out with the result.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import io
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Functions wrapped in traced runs, by module; None means every public
# function. Private helpers stay unwrapped, so their time lands in the
# public function that calls them.
_TRACED = {
    "ingest": ("load_posts", "load_comments", "load_blogroll", "load_profiles",
               "write_jsonl"),
    "textprep": None,
    "graphbuild": ("extract_blogroll_edges", "extract_comment_edges",
                   "extract_citation_edges", "blog_universe", "merge_layers", "to_dot"),
    "graphclean": None,
    "ranking": None,
    "profilestats": ("build_stats_report",),
}
_METHODS = {"graphclean": ("SimpleDigraph.from_arcs", "SimpleDigraph.subgraph")}

# Work counts taken from a call's result at the span boundary.
_COUNTS = {
    "ingest.load_posts": lambda r: len(r.records),
    "ingest.load_comments": lambda r: len(r.records),
    "ingest.load_blogroll": lambda r: len(r.records),
    "ingest.load_profiles": lambda r: len(r.records),
    "textprep.blog_documents": lambda r: sum(len(d.tokens) for d in r),
    "textprep.vectorize_tfidf": lambda r: len(r.weights),
    "textprep.similarity_matrix": lambda r: len(r.blog_ids) ** 2,
    "graphbuild.extract_citation_edges": lambda r: r[1]["links_found"],
}


class SpanRecorder:
    """In-memory spans: [name, parent index, start, end, count]."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._open: list[int] = []

    def wrap(self, name: str, fn):
        spans, open_stack, clock = self.spans, self._open, time.perf_counter
        count_of = _COUNTS.get(name)

        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, open_stack[-1] if open_stack else -1, clock(), 0.0, None]
            spans.append(span)
            open_stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                open_stack.pop()
            if count_of is not None:
                span[4] = count_of(result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self) -> None:
        """Wrap the functions named in ``_TRACED`` and ``_METHODS`` in place."""
        for mod_name, names in _TRACED.items():
            module = importlib.import_module(f"blognet.{mod_name}")
            if names is None:
                names = [n for n, obj in vars(module).items()
                         if inspect.isfunction(obj) and not n.startswith("_")
                         and obj.__module__ == module.__name__]
            for n in names:
                setattr(module, n, self.wrap(f"{mod_name}.{n}", getattr(module, n)))
            for qualified in _METHODS.get(mod_name, ()):
                cls_name, attr = qualified.split(".")
                cls = getattr(module, cls_name)
                raw = vars(cls)[attr]
                if isinstance(raw, classmethod):
                    setattr(cls, attr, classmethod(self.wrap(f"{mod_name}.{attr}", raw.__func__)))
                else:
                    setattr(cls, attr, self.wrap(f"{mod_name}.{attr}", raw))


def _peak_rss_kib() -> int:
    """This process's peak resident set size. ``ru_maxrss`` is not used: Linux
    carries the spawning process's high-water mark across fork and exec, so
    a small stage started by a large parent would report the parent's size."""
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("VmHWM missing from /proc/self/status")


def self_times(spans: list[list]) -> dict[str, list]:
    """name -> [self seconds, calls, counted work]. A span's self time is its
    duration minus the durations of its direct children."""
    child_time = [0.0] * len(spans)
    for _name, parent, start, end, _count in spans:
        if parent >= 0:
            child_time[parent] += end - start
    totals: dict[str, list] = {}
    for i, (name, _parent, start, end, count) in enumerate(spans):
        entry = totals.setdefault(name, [0.0, 0, 0])
        entry[0] += (end - start) - child_time[i]
        entry[1] += 1
        entry[2] += count or 0
    return totals


def main(argv: list[str]) -> int:
    stage, config_path, result_path, spawned = argv[:4]
    trace = "--trace" in argv[4:]
    sys.path.insert(0, str(ROOT / "src"))
    from blognet import cli
    from blognet.config import load_config

    load_config(config_path)
    setup_s = time.clock_gettime(time.CLOCK_MONOTONIC) - float(spawned)

    recorder = SpanRecorder()
    if trace:
        recorder.install()
    stage_main = recorder.wrap(f"cli.{stage}", cli.main)
    with contextlib.redirect_stdout(io.StringIO()):
        code = stage_main([stage, "--config", config_path])
    _name, _parent, start, end, _count = recorder.spans[0]
    usage = resource.getrusage(resource.RUSAGE_SELF)
    result = {
        "stage": stage,
        "exit": code,
        "setup_s": setup_s,
        "wall_s": end - start,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "rss_mb": _peak_rss_kib() / 1024.0,
        "spans": recorder.spans if trace else [],
        "self_times": self_times(recorder.spans) if trace else {},
    }
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
