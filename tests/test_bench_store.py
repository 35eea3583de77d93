"""Continuous results store + regression gates."""

import functools
import json

import pytest

from repro.bench import gates
from repro.bench.store import (
    DOC_SCHEMA, KINDS, CellKey, Record, ResultsStore, StoreError, cell,
    records_from_doc,
)
from repro.cli import main


def _key(**kw):
    base = dict(kind="vm", executor="translate", tier=2,
                workload="numeric_sort", setting="P1", param=40)
    base.update(kw)
    return CellKey(**base)


def _record(metrics, status="ok", run_id="r1", wall=(), higher=(),
            **kw):
    return Record(key=_key(**kw), metrics=dict(metrics), wall=wall,
                  higher=higher, status=status, commit="abc",
                  run_id=run_id, ts=1.0)


# -- store round-trip -------------------------------------------------

def test_record_line_round_trip():
    rec = _record({"cycles": 2000.5, "identical": True,
                   "rate": 3.0, "wall_s": 0.1},
                  wall=("wall_s", "rate"), higher=("rate",))
    back = Record.from_line(rec.to_line())
    assert back.key == rec.key
    assert back.metrics == {"cycles": 2000.5, "identical": True,
                            "rate": 3.0, "wall_s": 0.1}
    assert back.metrics["identical"] is True
    assert back.wall == ("wall_s", "rate")
    assert back.higher == ("rate",)
    assert back.accepted


def test_store_append_load_preserves_order(tmp_path):
    store = ResultsStore(tmp_path / "h.jsonl")
    assert store.load() == []
    store.append([_record({"cycles": 1.0}, run_id="r1")])
    store.append([_record({"cycles": 2.0}, run_id="r2"),
                  _record({"cycles": 9.0}, run_id="r2",
                          setting="baseline")])
    records = store.load()
    assert [r.run_id for r in records] == ["r1", "r2", "r2"]
    assert store.runs() == ["r1", "r2"]
    # append-only: re-loading after another append keeps history intact
    store.append([_record({"cycles": 3.0}, run_id="r3")])
    assert [r.metrics["cycles"] for r in store.load()
            if r.key.setting == "P1"] == [1.0, 2.0, 3.0]


def test_store_rejects_garbage_lines(tmp_path):
    path = tmp_path / "h.jsonl"
    path.write_text("not json\n")
    with pytest.raises(StoreError, match="line 1"):
        ResultsStore(path).load()
    path.write_text(json.dumps({"schema": "wrong/1"}) + "\n")
    with pytest.raises(StoreError, match="schema"):
        ResultsStore(path).load()


def _line(drop=(), **changes):
    doc = json.loads(_record({"cycles": 1.0, "wall_s": 0.5},
                             wall=("wall_s",)).to_line())
    doc.update(changes)
    for name in drop:
        del doc[name]
    return json.dumps(doc)


@pytest.mark.parametrize("line, match", [
    (_line(schema="deflection-results/1"), "schema"),
    (_line(drop=("wall", "higher")), "missing"),
    (_line(wall=["wall_s", "p99_s"]), "p99_s"),
    (_line(higher=["gone"]), "gone"),
])
def test_store_rejects_old_schema_and_bad_tags(line, match):
    with pytest.raises(StoreError, match=match):
        Record.from_line(line, lineno=7)


def test_cell_rejects_dangling_or_boolean_higher_tags():
    with pytest.raises(StoreError, match="missing_s"):
        cell("vm", "w", "P1", 1, {"wall_s": 1.0}, wall=("missing_s",))
    with pytest.raises(StoreError, match="boolean"):
        cell("vm", "w", "P1", 1, {"ok": True}, higher=("ok",))


# -- producers: every kind emits tagged cells the store round-trips ----

@functools.lru_cache(maxsize=None)
def _producer_doc(kind):
    """A tiny or smoke run of each ``repro bench`` producer."""
    if kind == "vm":
        from repro.bench.harness import RunMatrix
        from repro.vm.costmodel import CostModel
        return RunMatrix.collect(
            ["numeric_sort"], settings=("baseline", "P1"), param=40,
            cost_model=CostModel(executor="translate")).to_json()
    if kind == "provision":
        from repro.bench.provision import ProvisionMatrix
        return ProvisionMatrix.collect(["numeric_sort"],
                                       settings=("P1",), param=40,
                                       repeats=1).to_json()
    if kind == "checkpoint":
        from repro.bench.checkpointing import CheckpointMatrix
        return CheckpointMatrix.collect(
            ["numeric_sort"], param=20,
            checkpoint_settings=(100,)).to_json()
    if kind == "fleet":
        from repro.bench.fleet import run_fleet_bench
        return run_fleet_bench(seed=3, drones=2, sessions=6, tenants=2,
                               long_every=3, kill_after_steps=500,
                               max_queue=8, max_ticks=120)
    if kind == "static":
        from repro.bench.static import StaticMatrix
        return StaticMatrix.collect(["numeric_sort"], settings=("P1",),
                                    param=40).to_json()
    from repro.bench.pipeline import run_pipeline_bench
    return run_pipeline_bench(
        seed=5, topologies=("filter-score-agg",), modes=("batch",),
        fault_settings=("clean",), data_len=32)


@pytest.mark.parametrize("kind", KINDS)
def test_producer_cells_round_trip(kind):
    doc = _producer_doc(kind)
    assert (doc["schema"], doc["kind"]) == (DOC_SCHEMA, kind)
    records = records_from_doc(doc, commit="c", run_id="r", ts=2.0)
    assert len(records) == len(doc["cells"]) >= 1
    for c, rec in zip(doc["cells"], records):
        assert c["kind"] == kind and c["status"] == "ok"
        assert set(c["wall"]) | set(c["higher"]) <= set(c["metrics"])
        assert not any(isinstance(c["metrics"][name], bool)
                       for name in c["higher"])
        back = Record.from_line(rec.to_line())
        assert back == rec
        assert back.metrics == c["metrics"]
        assert list(back.wall) == c["wall"]
        assert list(back.higher) == c["higher"]
    if kind == "vm":
        assert {(r.key.executor, r.key.tier) for r in records} == \
            {("translate", 2)}


def test_checkpoint_cell_with_resume_mismatch_is_divergent(monkeypatch):
    from repro.bench import checkpointing
    from repro.core.bootstrap import ProvisionCache
    fingerprints = iter(range(1000))
    monkeypatch.setattr(checkpointing, "outcome_fingerprint",
                        lambda outcome: next(fingerprints))
    result = checkpointing.measure_cell(
        "numeric_sort", "P1-P6", ProvisionCache(), param=20,
        checkpoint_settings=(100,))
    # The producer, not the store, refuses the cell a baseline.
    assert result.status == "divergent"
    assert not result.ok
    (rec,) = records_from_doc({"schema": DOC_SCHEMA,
                               "cells": [result.cell()]})
    assert rec.metrics["resume_identical"] is False
    assert not rec.accepted


def test_records_from_doc_dispatch_and_stamp():
    doc = {"schema": DOC_SCHEMA, "kind": "vm",
           "cells": [cell("vm", "numeric_sort", "P1", 40,
                          {"cycles": 2000.5, "wall_s": 0.25},
                          wall=("wall_s",), executor="translate",
                          tier=2)]}
    records = records_from_doc(doc, commit="deadbeef", ts=123.0)
    assert records[0].commit == "deadbeef"
    assert records[0].ts == 123.0
    assert records[0].run_id.startswith("vm-deadbeef-")
    assert records[0].key == _key()
    assert records[0].wall == ("wall_s",)
    with pytest.raises(StoreError, match="cannot ingest"):
        records_from_doc({"schema": "deflection-bench/1", "cells": []})
    with pytest.raises(StoreError, match="malformed"):
        records_from_doc({"schema": DOC_SCHEMA, "cells": [{}]})


# -- gate classification ----------------------------------------------

def test_rolling_baseline_is_median_of_window():
    assert gates.rolling_baseline([1.0, 100.0, 3.0]) == 3.0
    assert gates.rolling_baseline([5.0, 1.0, 2.0, 100.0]) == 3.5
    # window drops the oldest runs
    assert gates.rolling_baseline([1e9, 2.0, 2.0, 2.0, 2.0, 2.0],
                                  window=5) == 2.0


def _history(*cycle_values, metric="cycles", status="ok", wall=(),
             higher=()):
    return [_record({metric: v}, run_id=f"r{i}", wall=wall,
                    higher=higher,
                    status=status if i == len(cycle_values) - 1
                    else "ok")
            for i, v in enumerate(cycle_values)]


def test_flat_rerun_gates_clean():
    report = gates.evaluate(_history(100.0, 100.0, 100.0))
    assert report.counts()["flat"] == 1
    assert report.exit_code == 0


def test_deterministic_drift_has_zero_band():
    report = gates.evaluate(_history(100.0, 100.0, 100.1))
    (delta,) = report.deltas
    assert delta.classification == "regressed"
    assert delta.blocking
    assert report.exit_code == 1
    improved = gates.evaluate(_history(100.0, 100.0, 99.9))
    assert improved.deltas[0].classification == "improved"
    assert improved.exit_code == 0


def test_wall_clock_band_is_advisory():
    wall = ("wall_s",)
    within = gates.evaluate(_history(1.0, 1.0, 1.2, metric="wall_s",
                                     wall=wall))
    assert within.deltas[0].classification == "flat"
    beyond = gates.evaluate(_history(1.0, 1.0, 1.5, metric="wall_s",
                                     wall=wall))
    (delta,) = beyond.deltas
    assert delta.classification == "regressed"
    assert not delta.blocking           # wall metrics never block
    assert beyond.exit_code == 0
    assert beyond.advisories == [delta]
    # The tag, not the name, makes a metric wall clock.
    untagged = gates.evaluate(_history(1.0, 1.0, 1.2, metric="wall_s"))
    assert untagged.exit_code == 1


@pytest.mark.parametrize("wall, higher, baseline, current, expect", [
    # lower-is-better: a negative overhead that shrinks toward zero
    # is worse, one that grows more negative is better
    (True, False, -6.98, -1.69, "regressed"),
    (True, False, -1.69, -6.98, "improved"),
    (False, False, -2.0, -1.0, "regressed"),
    (False, False, -1.0, -2.0, "improved"),
    # higher-is-better flips the sense, also below zero
    (True, True, -2.0, -1.0, "improved"),
    (False, True, -2.0, -3.0, "regressed"),
])
def test_negative_baseline_keeps_direction(wall, higher, baseline,
                                           current, expect):
    delta = gates.classify("overhead_pct@1600", current, baseline,
                           wall=wall, higher=higher)
    assert delta.classification == expect
    assert (delta.delta_pct > 0) == (current > baseline)


def test_boolean_metrics_gate_on_truth():
    broken = gates.evaluate(
        [_record({"identical": True}, run_id="r0"),
         _record({"identical": False}, run_id="r1")])
    assert broken.deltas[0].classification == "regressed"
    assert broken.exit_code == 1
    fixed = gates.evaluate(
        [_record({"identical": False}, run_id="r0"),
         _record({"identical": True}, run_id="r1")])
    assert fixed.deltas[0].classification == "improved"


def test_unaccepted_latest_blocks_regardless_of_history():
    records = _history(100.0, 100.0)
    records.append(_record({"cycles": 100.0}, run_id="r9",
                           status="error"))
    report = gates.evaluate(records)
    (delta,) = report.deltas
    assert delta.metric == "status"
    assert delta.blocking


def test_new_cells_pass_and_seed_the_baseline():
    report = gates.evaluate(_history(100.0))
    assert report.counts()["new"] == 1
    assert report.exit_code == 0


def test_failed_runs_are_excluded_from_baseline():
    # error run in the middle must not drag the median
    records = [_record({"cycles": 100.0}, run_id="r0"),
               _record({"cycles": 5.0}, run_id="r1", status="error"),
               _record({"cycles": 100.0}, run_id="r2")]
    report = gates.evaluate(records)
    (delta,) = report.deltas
    assert delta.classification == "flat"
    assert delta.baseline == 100.0


def test_synthetic_regression_fires_the_gate():
    records = _history(100.0, 100.0)
    degraded = gates.inject_synthetic_regression(records, 50.0)
    assert len(degraded) == len(records) + 1
    report = gates.evaluate(degraded)
    assert report.exit_code == 1
    # the flat control: 0% injection stays clean
    flat = gates.evaluate(
        gates.inject_synthetic_regression(records, 0.0))
    assert flat.exit_code == 0


@pytest.mark.parametrize("kind", KINDS)
def test_synthetic_regression_regresses_every_metric(kind):
    (rec,) = records_from_doc(
        {"schema": DOC_SCHEMA, "cells": _producer_doc(kind)["cells"][:1]},
        commit="c", run_id="r", ts=1.0)
    report = gates.evaluate(gates.inject_synthetic_regression([rec], 50))
    numeric = {name for name, value in rec.metrics.items()
               if not isinstance(value, bool)}
    assert {d.metric for d in report.deltas
            if d.classification == "regressed"} >= numeric
    assert report.exit_code == 1


def test_kind_filter_restricts_evaluation():
    records = (_history(1.0, 2.0)
               + [_record({"warm_ms": 1.0}, kind="provision",
                          executor="", tier=-1, run_id="p0",
                          wall=("warm_ms",))])
    report = gates.evaluate(records, kinds=["provision"])
    assert len(report.deltas) == 1
    assert report.deltas[0].key.kind == "provision"


def test_report_render_lists_regressions():
    report = gates.evaluate(_history(100.0, 100.0, 150.0))
    text = report.render()
    assert "regressed" in text
    assert "cycles" in text
    assert "+50.00%" in text
    assert "1 regressed (blocking)" in text


# -- CLI: record + gate -----------------------------------------------

BENCH_ARGS = ["bench", "--workloads", "numeric_sort",
              "--settings", "baseline", "P1", "--param", "40",
              "--executor", "translate"]


def test_cli_record_then_flat_rerun_gates_zero(tmp_path, capsys):
    store = tmp_path / "history.jsonl"
    for commit in ("one", "two"):
        assert main(BENCH_ARGS + ["--record", "--store", str(store),
                                  "--commit", commit]) == 0
    out = capsys.readouterr().out
    assert "recorded 2 cells" in out
    assert main(["bench", "gate", "--store", str(store)]) == 0
    out = capsys.readouterr().out
    assert "gate passed" in out
    # the two runs are distinct generations of the same cells
    records = ResultsStore(store).load()
    assert len(records) == 4
    assert len({r.run_id for r in records}) == 2
    assert {r.commit for r in records} == {"one", "two"}


def test_cli_gate_synthetic_regression_is_nonzero(tmp_path, capsys):
    store = tmp_path / "history.jsonl"
    assert main(BENCH_ARGS + ["--record", "--store", str(store),
                              "--commit", "seed"]) == 0
    capsys.readouterr()
    assert main(["bench", "gate", "--store", str(store),
                 "--synthetic-regression", "50"]) == 1
    out = capsys.readouterr().out
    assert "REGRESSED cells" in out
    # ...and the store file itself was not modified by the self-test
    assert len(ResultsStore(store).load()) == 2
    assert main(["bench", "gate", "--store", str(store)]) == 0


def test_cli_baseline_report_without_record(tmp_path, capsys):
    store = tmp_path / "history.jsonl"
    assert main(BENCH_ARGS + ["--record", "--store", str(store)]) == 0
    capsys.readouterr()
    assert main(BENCH_ARGS + ["--baseline", "--store", str(store)]) == 0
    out = capsys.readouterr().out
    assert "flat" in out
    # --baseline alone never writes
    assert len(ResultsStore(store).load()) == 2


def test_cli_gate_missing_or_empty_store(tmp_path, capsys):
    assert main(["bench", "gate", "--store",
                 str(tmp_path / "absent.jsonl")]) == 1
    assert "no results store" in capsys.readouterr().err
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    assert main(["bench", "gate", "--store", str(empty)]) == 1
    assert "empty" in capsys.readouterr().err


def test_cli_smoke_records_both_tiers(tmp_path, capsys):
    store = tmp_path / "history.jsonl"
    assert main(["bench", "--smoke", "--workloads", "numeric_sort",
                 "--settings", "P1", "--param", "40",
                 "--record", "--store", str(store)]) == 0
    records = ResultsStore(store).load()
    assert sorted(r.key.executor for r in records) == \
        ["step", "translate"]
    assert sorted(r.key.tier for r in records) == [0, 2]
    assert main(["bench", "gate", "--store", str(store)]) == 0
