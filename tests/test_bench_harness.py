"""Benchmark harness: matrices, differential enforcement, tables."""

import pytest

from repro.bench import (
    RunMatrix, format_table, overhead_matrix, percent, run_workload,
)
from repro.bench.harness import BenchResult
from repro.bench.tables import format_series


def test_run_workload_full_pipeline():
    result = run_workload("numeric_sort", "P1", 40)
    assert result.status == "ok"
    assert result.steps > 0
    assert result.cycles > 0
    assert result.reports[0] == 1


def test_overhead_matrix_orders_settings():
    matrix = overhead_matrix("numeric_sort", 40)
    assert matrix["baseline"].overhead_pct == 0.0
    assert 0 < matrix["P1"].overhead_pct \
        <= matrix["P1-P5"].overhead_pct \
        <= matrix["P1-P6"].overhead_pct


def test_matrix_runs_p6_under_benign_aex():
    matrix = overhead_matrix("numeric_sort", 150,
                             aex_mean_interval=20_000)
    assert matrix["P1-P6"].aex_events > 0
    assert matrix["P1"].aex_events == 0


def test_workload_failure_is_loud():
    with pytest.raises(RuntimeError, match="self-check|violation|fault"):
        # absurd step cap forces a failure surface
        run_workload("numeric_sort", "P1", 40, max_steps=10)


def test_non_strict_records_failure_instead_of_raising():
    result = run_workload("numeric_sort", "P1", 40, max_steps=10,
                          strict=False)
    assert result.status != "ok"
    assert result.detail
    assert result.overhead_pct == 0.0


def test_overhead_vs_zero_cycle_baseline_is_zero():
    baseline = BenchResult("w", "baseline", 0, steps=0, cycles=0.0)
    cell = BenchResult("w", "P1", 0, steps=10, cycles=42.0)
    assert cell.overhead_vs(baseline) == 0.0


def test_non_strict_matrix_keeps_sweeping_past_a_bad_cell():
    matrix = RunMatrix.collect(
        ["numeric_sort"], settings=("baseline", "P1"), param=40,
        strict=False, max_steps=10)
    # every cell failed (step cap), the sweep still completed
    assert matrix.failures == ["numeric_sort/baseline",
                               "numeric_sort/P1"]
    doc = matrix.to_json()
    cell = doc["cells"][0]
    assert (cell["workload"], cell["setting"]) == ("numeric_sort",
                                                   "baseline")
    assert cell["status"] != "ok"
    assert cell["detail"]
    assert doc["totals"]["failed_cells"] == matrix.failures


def test_parallel_matrix_equals_serial():
    settings = ("baseline", "P1", "P1-P6")
    kwargs = dict(settings=settings, param=24,
                  aex_mean_interval=20_000)
    serial = RunMatrix.collect(["numeric_sort", "string_sort"],
                               jobs=1, **kwargs)
    parallel = RunMatrix.collect(["numeric_sort", "string_sort"],
                                 jobs=2, **kwargs)
    assert parallel.parallelism == 2
    assert serial.parallelism == 1
    for name in ("numeric_sort", "string_sort"):
        for setting in settings:
            a, b = serial[name][setting], parallel[name][setting]
            assert (a.steps, a.cycles, a.aex_events, a.overhead_pct) \
                == (b.steps, b.cycles, b.aex_events, b.overhead_pct), \
                f"{name}/{setting}"
    assert parallel.to_json()["parallelism"] == 2


def test_run_workload_reuses_provision_cache():
    from repro.core.bootstrap import PROVISION_CACHE
    PROVISION_CACHE.clear()
    first = run_workload("numeric_sort", "P1", 40)
    second = run_workload("numeric_sort", "P1", 40)
    assert first.provision_cache_hits == 0
    assert second.provision_cache_hits == 1
    assert PROVISION_CACHE.hits >= 1
    # the two cells are indistinguishable where it matters
    assert (first.steps, first.cycles, first.reports) == \
        (second.steps, second.cycles, second.reports)
    # opting out bypasses the cache entirely
    PROVISION_CACHE.clear()
    run_workload("numeric_sort", "P1", 40, provision_cache=False)
    assert PROVISION_CACHE.stats() == {"entries": 0, "hits": 0,
                                       "misses": 0}


def test_parallel_sweep_harvests_provision_cache():
    # Pool workers ship the images they provisioned back to the parent,
    # so a later sweep over the same binaries provisions from cache.
    from repro.core.bootstrap import PROVISION_CACHE
    PROVISION_CACHE.clear()
    kwargs = dict(settings=("baseline", "P1"), param=24,
                  aex_mean_interval=20_000, jobs=2)
    RunMatrix.collect(["numeric_sort"], **kwargs)
    assert PROVISION_CACHE.stats()["entries"] == 2
    again = RunMatrix.collect(["numeric_sort"], **kwargs)
    hits = sum(cell.provision_cache_hits
               for row in again.values() for cell in row.values())
    assert hits == 2
    PROVISION_CACHE.clear()


def test_compilation_cache_reused():
    from repro.bench.harness import _compile_cached
    _compile_cached.cache_clear()
    run_workload("numeric_sort", "P1", 40)
    run_workload("numeric_sort", "P1", 40)
    info = _compile_cached.cache_info()
    assert info.hits >= 1
    assert info.misses == 1


def test_parallel_collect_of_empty_cell_set_returns_empty_matrix():
    # Regression: Pool(processes=0) raised ValueError before the
    # empty-task early return; both empty axes must match serial.
    for kwargs in (dict(workloads=[]),
                   dict(workloads=["numeric_sort"], settings=())):
        serial = RunMatrix.collect(jobs=1, **kwargs)
        parallel = RunMatrix.collect(jobs=2, **kwargs)
        assert dict(parallel) == dict(serial)
    assert dict(RunMatrix.collect([], jobs=2)) == {}
    empty_row = RunMatrix.collect(["numeric_sort"], settings=(),
                                  jobs=2)
    assert dict(empty_row) == {"numeric_sort": {}}
    assert empty_row.failures == []
    assert empty_row.to_json()["totals"]["steps"] == 0


def _divergent_row():
    from repro.bench import attach_overheads
    row = {
        "baseline": BenchResult("w", "baseline", 0, steps=10,
                                cycles=100.0, reports=[1, 7]),
        "P1": BenchResult("w", "P1", 0, steps=10, cycles=120.0,
                          reports=[1, 7]),
        "P1+P2": BenchResult("w", "P1+P2", 0, steps=10, cycles=130.0,
                             reports=[1, 8]),
    }
    return attach_overheads, row


def test_attach_overheads_strict_raises_on_divergence():
    attach_overheads, row = _divergent_row()
    with pytest.raises(RuntimeError, match="diverge"):
        attach_overheads(row, strict=True)


def test_attach_overheads_zeroes_divergent_cells_non_strict():
    attach_overheads, row = _divergent_row()
    # First pass with matching reports attaches a real overhead...
    row["P1+P2"].reports = [1, 7]
    attach_overheads(row, strict=False)
    assert row["P1+P2"].overhead_pct == pytest.approx(30.0)
    # ...then the cell diverges and is re-attached: the downgrade must
    # drop the stale overhead, matching the docstring's contract.
    row["P1+P2"].reports = [1, 8]
    attach_overheads(row, strict=False)
    assert row["P1+P2"].status == "divergent"
    assert "diverge" in row["P1+P2"].detail
    assert row["P1+P2"].overhead_pct == 0.0
    # the well-behaved cells are untouched
    assert row["P1"].status == "ok"
    assert row["P1"].overhead_pct == pytest.approx(20.0)


def test_format_table_rule_matches_row_width():
    # Regression: the title rule was sized 2*len(widths), two wider
    # than the joined rows (gaps = columns - 1).
    table = format_table("T", ["aa", "bb"],
                         [["xxxx", "yyyyyy"], ["x", "y"]])
    title, rule, header, sep, *rows = table.splitlines()
    assert len(rule) == len(header)
    assert len(rule) == len(sep)
    assert all(len(row) <= len(rule) for row in rows)
    # a long title still wins the rule width
    wide = format_table("a very long title indeed", ["a"], [["b"]])
    assert len(wide.splitlines()[1]) == len("a very long title indeed")


def test_percent_and_table_formatting():
    assert percent(12.345) == "+12.3%"
    assert percent(-3.21) == "-3.2%"
    table = format_table("Title", ["a", "bb"], [[1, 2], [33, 4]])
    assert "Title" in table and "33" in table
    lines = table.splitlines()
    assert len(lines) == 6


def test_format_series():
    out = format_series("Fig", "x", [1, 2],
                        {"s1": ["a", "b"], "s2": ["c", "d"]})
    assert "s1" in out and "d" in out
