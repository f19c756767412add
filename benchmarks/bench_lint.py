"""Lint-engine benchmark: program-phase graph build and cache speedup.

Times the whole-program lint over the real source tree twice against
the same content-hash cache: a cold run (parse + summarize + link +
evaluate every rule) and a warm run (every file sha-hits, so only the
link + rule-evaluation half of the program phase repeats).  The two
acceptance criteria of the analysis PR are gated here:

* the serial graph build (summaries + link) finishes under
  ``GRAPH_BUILD_CEILING_S`` on the full tree;
* the cache makes a clean re-run at least ``WARM_SPEEDUP_FLOOR``×
  faster than the cold run.

The measured numbers land in ``benchmarks/output/BENCH_lint.json``.
"""

import time
from pathlib import Path

from repro.analysis import lint_paths
from repro.analysis.program import link_program, summarize_source

REPO_ROOT = Path(__file__).resolve().parents[1]
TARGETS = [
    REPO_ROOT / "src",
    REPO_ROOT / "benchmarks",
    REPO_ROOT / "examples",
    REPO_ROOT / "perfbench",
]

#: Acceptance: full-tree graph build stays interactive.
GRAPH_BUILD_CEILING_S = 10.0

#: Acceptance: a clean cached re-run is at least this much faster.
WARM_SPEEDUP_FLOOR = 5.0


def _discover_sources():
    from repro.analysis.engine import discover_files

    return discover_files(TARGETS)


def test_lint_program_and_cache(bench_record, tmp_path):
    cache = tmp_path / "lint-cache.json"

    started = time.perf_counter()
    files = _discover_sources()
    summaries = [
        summarize_source(path.read_text(), path.as_posix()) for path in files
    ]
    program = link_program(summaries)
    graph_build_s = time.perf_counter() - started

    started = time.perf_counter()
    cold = lint_paths(TARGETS, program=True, cache=cache)
    cold_s = time.perf_counter() - started
    assert cold.clean, "benchmark expects a lint-clean tree"
    assert cold.n_cached == 0

    started = time.perf_counter()
    warm = lint_paths(TARGETS, program=True, cache=cache)
    warm_s = time.perf_counter() - started
    assert warm.clean
    assert warm.n_cached == warm.n_files

    speedup = cold_s / warm_s if warm_s > 0 else float("inf")
    record = {
        "files": cold.n_files,
        "functions": len(program.functions),
        "classes": len(program.classes),
        "graph_build_s": round(graph_build_s, 3),
        "cold_run_s": round(cold_s, 3),
        "warm_run_s": round(warm_s, 3),
        "warm_speedup": round(speedup, 1),
        "warm_cached_files": warm.n_cached,
    }
    bench_record("BENCH_lint.json", record)

    assert graph_build_s < GRAPH_BUILD_CEILING_S, (
        f"graph build took {graph_build_s:.1f}s on {cold.n_files} files "
        f"(ceiling {GRAPH_BUILD_CEILING_S}s)"
    )
    assert speedup >= WARM_SPEEDUP_FLOOR, (
        f"cached re-run only {speedup:.1f}x faster than cold "
        f"(floor {WARM_SPEEDUP_FLOOR}x)"
    )
