"""Fault-tolerant multi-enclave pipelines: oracle equivalence,
resume-at-every-hop, streaming backpressure, chain fail-closed wiring,
quarantine migration, channel rekeying, stats aggregation, and the
bench / store / gate plumbing."""

from __future__ import annotations

import hashlib

import pytest

from repro.bench.gates import classify, evaluate
from repro.bench.pipeline import run_pipeline_bench
from repro.bench.store import (
    CellKey, ResultsStore, StoreError, records_from_doc,
)
from repro.core.bootstrap import ProvisionCache
from repro.crypto.channel import SecureChannel
from repro.errors import ProtocolError
from repro.service.faults import PipelineFaultPlan, pipeline_data
from repro.service.pipeline import (
    PipelineOrchestrator, serial_oracle, topology_stages,
)
from repro.service.resilient import SessionStats

#: Shared across every test in this module: stage re-verification is a
#: cache replay, which is exactly the production setup.
CACHE = ProvisionCache()

STAGES3 = topology_stages("filter-score-agg")
DATA = pipeline_data(3, length=48)


@pytest.fixture(scope="module")
def oracle3():
    output, reports = serial_oracle(STAGES3, DATA,
                                    provision_cache=CACHE)
    return output, reports


def _orch(**kwargs):
    kwargs.setdefault("provision_cache", CACHE)
    kwargs.setdefault("topology", "filter-score-agg")
    return PipelineOrchestrator(STAGES3, **kwargs)


def test_batch_matches_oracle(oracle3):
    orch = _orch(pipeline_id="t-batch")
    run = orch.run(DATA)
    assert run.ok and run.chain_verified, run.detail
    assert run.output == oracle3[0]
    assert run.reports == oracle3[1]
    assert run.counters["links"] == 3
    assert run.upstream_reruns == 0
    for record in run.hops:
        assert record.audit_runs == record.expected_runs == 1


# -- the resume-at-every-hop satellite -----------------------------------
#
# Interrupt a 3-stage pipeline at *each* hop boundary and mid-hop; the
# final output must stay byte-identical and upstream hops must not be
# re-executed (each hop's audit log shows exactly one run_completed).
# In a batch run stage k's enclave is untouched until hop k, so
# destroying it before the run is a teardown at that hop's boundary.

@pytest.mark.parametrize("hop", [0, 1, 2])
@pytest.mark.parametrize("kind", ["boundary", "midhop"])
def test_resume_at_every_hop(hop, kind, oracle3):
    orch = _orch(pipeline_id=f"t-resume-{kind}-{hop}",
                 checkpoint_every=10)
    stage = orch.runtimes[hop]
    if kind == "boundary":
        stage.boot.enclave.destroy()
    else:
        stage.host.arm_kill(40)
    run = orch.run(DATA)
    assert run.ok and run.chain_verified, run.detail
    assert run.output == oracle3[0]
    # Upstream hops ran exactly once: the interrupted hop resumed from
    # its sealed chain instead of restarting the pipeline.
    assert run.upstream_reruns == 0
    for record in run.hops:
        assert record.audit_runs == record.expected_runs == 1, \
            record.as_dict()
    # The recovery happened on the affected hop, and only there.
    for record in run.hops:
        recovered = record.stats.recoveries if kind == "boundary" \
            else record.stats.resumes
        assert (recovered >= 1) == (record.hop == hop), record.as_dict()


def test_streaming_window_and_per_chunk_chains():
    stages = topology_stages("stream-map4")
    data = pipeline_data(5, length=80)
    orch = PipelineOrchestrator(
        stages, pipeline_id="t-stream", topology="stream-map4",
        provision_cache=CACHE)
    run = orch.run_streaming(data, chunk_size=16, window=2)
    oracle, reports = serial_oracle(stages, data, chunk_size=16,
                                    provision_cache=CACHE)
    assert run.ok and run.chain_verified, run.detail
    assert run.output == oracle
    assert run.reports == reports
    assert run.chunks == 5
    assert 1 <= run.max_in_flight <= 2      # bounded in-flight window
    assert sorted(run.chains) == [0, 1, 2, 3, 4]
    assert run.counters["links"] == 5 * len(stages)
    assert len(run.chunk_latencies) == 5
    assert run.stats.chunks == 5 * len(stages)


def test_chunk_budget_violation_is_blamed():
    # A 4-byte per-chunk P0 output budget the filter stage must blow.
    orch = _orch(pipeline_id="t-budget", chunk_budget=4)
    run = orch.run(DATA)
    assert not run.ok
    assert run.status.startswith("blame@")
    assert "genomics-filter" in run.status


def test_stall_escalation_raises_typed_error():
    orch = _orch(pipeline_id="t-stall", watchdog_steps=10, max_stalls=0)
    run = orch.run(DATA)
    # Only a PipelineStalled is booked as "stalled@<stage>".
    assert run.status == "stalled@genomics-filter"
    assert "(hop 0) stalled 1 times" in run.detail
    assert not run.chain_verified


def test_quarantine_migrates_with_explicit_chain_link(oracle3):
    plan = PipelineFaultPlan(11, p_handoff=0.0, p_stall=0.0,
                             p_quarantine=1.0, max_faults=3,
                             hop_max_faults=0)
    orch = _orch(pipeline_id="t-quarantine", fault_plan=plan)
    run = orch.run(DATA)
    assert run.ok and run.chain_verified, run.detail
    assert run.output == oracle3[0]
    assert run.counters["migrations"] == 3
    migrated = [l for l in run.links if l.kind == "migrated"]
    assert len(migrated) == 3
    for link in migrated:
        assert " -> " in link.detail
    # Each migrated stage still ran exactly once, on the new platform.
    assert run.upstream_reruns == 0


def test_handoff_attacks_rejected_fail_closed(oracle3):
    plan = PipelineFaultPlan(29, p_handoff=1.0, p_stall=0.0,
                             p_quarantine=0.0, max_faults=8,
                             hop_max_faults=0)
    orch = _orch(pipeline_id="t-handoff", fault_plan=plan)
    run = orch.run(DATA)
    assert run.ok and run.chain_verified, run.detail
    assert run.output == oracle3[0]
    assert run.counters["attacks_accepted"] == 0
    rejected = run.counters["handoffs_rejected"] \
        + run.counters["chain_attacks_rejected"] \
        + run.counters["discard_reruns"]
    assert rejected >= 1
    assert run.upstream_reruns == 0


# -- SecureChannel rekeying (satellite) ----------------------------------

def test_explicit_rekey_old_key_no_longer_authenticates():
    a, b = SecureChannel.pair(b"shared", record_size=64)
    stale, _ = SecureChannel.pair(b"shared", record_size=64)
    assert b.open(a.seal(b"before")) == b"before"
    stale.seal(b"before")                   # keep seq in lockstep
    a.rekey()
    b.rekey()
    assert a.rekeys == b.rekeys == 1
    assert b.open(a.seal(b"after")) == b"after"
    with pytest.raises(ProtocolError):
        b.open(stale.seal(b"forged-under-old-key"))
    assert b.desynced                       # fails closed afterwards


def test_auto_ratchet_at_record_threshold():
    a, b = SecureChannel.pair(b"shared2", record_size=64)
    a.rekey_after = b.rekey_after = 4
    for i in range(12):
        msg = bytes([i]) * 16
        assert b.open(a.seal(msg)) == msg
    assert a.rekeys >= 2
    assert a.rekeys == b.rekeys
    # A desynced third party holding the original keys is locked out.
    stale, _ = SecureChannel.pair(b"shared2", record_size=64)
    for i in range(12):
        stale.seal(bytes([i]) * 16)
    with pytest.raises(ProtocolError):
        b.open(stale.seal(b"old-key-record"))


def test_rekey_refused_when_desynced():
    a, b = SecureChannel.pair(b"shared3", record_size=64)
    wire = bytearray(a.seal(b"x"))
    wire[-1] ^= 1
    with pytest.raises(ProtocolError):
        b.open(bytes(wire))
    with pytest.raises(ProtocolError):
        b.rekey()


# -- SessionStats aggregation (satellite) --------------------------------

def test_session_stats_merge_is_order_invariant():
    def sample(i):
        return SessionStats(
            attempts=i, retries=2 * i, reconnects=i % 2,
            recoveries=i, fatal_errors=0, resumes=3 - i,
            rollbacks_rejected=i, chunks=10 * i, slept_s=0.5 * i,
            retried_kinds={"ProtocolError": i, f"Kind{i}": 1},
            fatal_kinds={"DeadlineExceeded": i})
    forward = SessionStats()
    for i in (1, 2, 3):
        forward.merge(sample(i))
    backward = SessionStats()
    for i in (3, 2, 1):
        backward.merge(sample(i))
    assert forward.as_dict() == backward.as_dict()
    assert forward.chunks == 60
    assert forward.retried_kinds["ProtocolError"] == 6


def test_pipeline_stats_merge_over_hops(oracle3):
    orch = _orch(pipeline_id="t-stats")
    orch.runtimes[1].boot.enclave.destroy()
    run = orch.run(DATA)
    assert run.ok
    assert run.hops[1].stats.recoveries >= 1
    merged = run.stats
    assert merged.chunks == sum(r.stats.chunks for r in run.hops) == 3
    assert merged.recoveries == sum(r.stats.recoveries
                                    for r in run.hops)


# -- bench -> store -> gate plumbing -------------------------------------

def test_bench_doc_ingests_and_gates(tmp_path):
    doc = run_pipeline_bench(
        seed=5, topologies=("filter-score-agg",), modes=("batch",),
        fault_settings=("clean",), data_len=32)
    assert doc["status"] == "ok"
    assert doc["all_chain_verified"] and doc["all_output_identical"]
    records = records_from_doc(doc, commit="t", run_id="r1")
    assert records and all(r.key.kind == "pipeline" for r in records)
    cell = records[0]
    assert cell.metrics["chain_verified"] is True
    assert cell.metrics["attacks_accepted"] == 0
    assert "records_per_s" in cell.metrics
    store = ResultsStore(tmp_path / "history.jsonl")
    store.append(records)
    report = evaluate(store.load(), kinds=["pipeline"])
    assert report.exit_code == 0
    assert all(d.classification == "new" for d in report.deltas)


def test_gate_inverts_records_per_s():
    # Throughput: a 40% drop is the regression, a 40% gain improves.
    drop = classify("records_per_s", 60.0, 100.0, wall=True, higher=True)
    gain = classify("records_per_s", 140.0, 100.0, wall=True, higher=True)
    assert drop.classification == "regressed"
    assert gain.classification == "improved"
    assert drop.delta_pct == pytest.approx(-40.0)
    # Advisory, like every wall metric.
    assert drop.gating is False
    # Latency keeps the normal sense and stays advisory.
    slow = classify("chunk_p99_s", 1.4, 1.0, wall=True)
    assert slow.classification == "regressed"
    assert slow.gating is False
    # Deterministic pipeline counters gate hard at zero band.
    drift = classify("handoffs_rejected", 3, 2)
    assert drift.classification == "regressed" and drift.gating


def test_typod_kind_is_a_store_error():
    with pytest.raises(StoreError, match="unknown results-store kind"):
        CellKey(kind="pipelin", executor="", tier=-1,
                workload="w", setting="s", param=0)
