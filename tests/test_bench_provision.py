"""The provisioning-latency (delegation) benchmark."""

import json

from repro.bench.provision import (
    STAGES, ProvisionMatrix, ProvisionResult, measure_cell,
)
from repro.cli import main
from repro.core.bootstrap import BootstrapEnclave
from repro.bench.harness import compile_workload
from repro.policy import PolicySet


def test_measure_cell_times_both_pipelines():
    cell = measure_cell("numeric_sort", "P1+P2", repeats=1)
    assert cell.ok
    assert cell.identical
    assert set(cell.legacy_stages) == set(STAGES)
    assert set(cell.new_stages) == set(STAGES)
    assert cell.legacy_cold_s > 0
    assert cell.new_cold_s > 0
    assert cell.warm_s > 0
    assert cell.speedup > 0
    assert cell.instructions > 0
    assert cell.text_bytes > 0


def test_matrix_shape_and_document():
    matrix = ProvisionMatrix.collect(
        ["numeric_sort"], settings=("baseline", "P1"), repeats=1)
    doc = matrix.to_json()
    assert (doc["schema"], doc["kind"]) == ("deflection-bench/2",
                                            "provision")
    assert [(c["workload"], c["setting"]) for c in doc["cells"]] == \
        [("numeric_sort", "baseline"), ("numeric_sort", "P1")]
    totals = doc["totals"]
    assert totals["cells"] == 2
    assert totals["divergent_cells"] == []
    assert totals["failed_cells"] == []
    assert totals["cold_speedup"] > 0
    assert matrix.incomplete_cells == []
    assert set(totals["legacy_stages_ms"]) == set(STAGES)
    assert set(totals["new_stages_ms"]) == set(STAGES)
    # the sweep document must survive a JSON round trip
    assert json.loads(json.dumps(doc)) == doc


def test_non_strict_records_bad_cell():
    matrix = ProvisionMatrix.collect(
        ["no_such_workload"], settings=("baseline",), repeats=1,
        strict=False)
    cell = matrix["no_such_workload"]["baseline"]
    assert cell.status == "error"
    assert matrix.failures == ["no_such_workload/baseline"]


def test_incomplete_cells_flags_missing_stage():
    matrix = ProvisionMatrix()
    cell = ProvisionResult(workload="w", setting="P1",
                           legacy_stages={s: 1.0 for s in STAGES},
                           new_stages={"parse": 1.0})
    matrix["w"] = {"P1": cell}
    assert matrix.incomplete_cells == ["w/P1"]


def test_run_outcome_carries_provision_stages():
    policies = PolicySet.parse("P1+P2")
    boot = BootstrapEnclave(policies=policies)
    boot.receive_binary(compile_workload("numeric_sort", "P1+P2", None))
    assert set(boot.provision_stages) == set(STAGES)
    outcome = boot.run(max_steps=50_000_000)
    assert outcome.ok
    assert set(outcome.provision_stages) == set(STAGES)
    assert all(t >= 0 for t in outcome.provision_stages.values())


def test_cli_provision_smoke(tmp_path, capsys):
    out = tmp_path / "prov.json"
    assert main(["bench", "--provision", "--smoke", "--json",
                 "-o", str(out),
                 "--workloads", "numeric_sort",
                 "--settings", "baseline", "P1"]) == 0
    doc = json.loads(out.read_text())
    assert (doc["schema"], doc["kind"]) == ("deflection-bench/2",
                                            "provision")
    assert doc["totals"]["divergent_cells"] == []
    captured = capsys.readouterr().out
    assert "aggregate cold speedup" in captured
    assert "byte-identical" in captured
