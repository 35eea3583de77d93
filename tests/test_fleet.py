"""Fleet scheduler: admission, supervision, failover, migration."""

import pytest

from repro.bench.fleet import run_fleet_bench
from repro.bench.store import records_from_doc
from repro.errors import AdmissionRejected
from repro.service import FleetScheduler, SessionJob, build_fleet
from repro.service.faults import (
    CAMPAIGN_SRC, FLEET_LONG_ROUNDS, FLEET_LONG_SRC,
)
from repro.service.fleet import QUARANTINED

_DATA = bytes(range(10))
_SUM = sum(_DATA)


def _short(job_id, tenant="t0", priority=5):
    return SessionJob(job_id, tenant, CAMPAIGN_SRC, _DATA,
                      priority=priority)


def _long(job_id, tenant="t0", checkpoint_every=200, quantum=None):
    return SessionJob(job_id, tenant, FLEET_LONG_SRC, _DATA,
                      priority=1, checkpoint_every=checkpoint_every,
                      quantum_steps=quantum)


def _assert_done(job, rounds=1):
    want = rounds * _SUM
    assert job.state == "done"
    assert job.outcome.ok
    assert job.outcome.reports == [want]
    assert job.plaintexts == [bytes([want % 256])]


# -- admission ----------------------------------------------------------------

def test_queue_full_sheds_typed():
    sched = FleetScheduler(build_fleet(1), max_queue=2)
    sched.submit(_short("a"))
    sched.submit(_short("b", tenant="t1"))
    with pytest.raises(AdmissionRejected) as err:
        sched.submit(_short("c", tenant="t2"))
    assert err.value.reason == "queue_full"
    assert err.value.tenant == "t2"
    assert sched.counters["shed"] == 1
    assert sched.shed == [{"job_id": "c", "tenant": "t2",
                           "reason": "queue_full"}]
    assert "c" not in sched.jobs   # shed, never admitted


def test_tenant_quota_sheds_only_the_noisy_tenant():
    sched = FleetScheduler(build_fleet(1), max_queue=8, tenant_quota=2)
    sched.submit(_short("a"))
    sched.submit(_short("b"))
    with pytest.raises(AdmissionRejected) as err:
        sched.submit(_short("c"))
    assert err.value.reason == "tenant_quota"
    sched.submit(_short("d", tenant="t1"))   # other tenants unaffected
    assert sched.counters["admitted"] == 3


def test_quantum_without_checkpoints_is_rejected_at_construction():
    with pytest.raises(ValueError):
        SessionJob("x", "t0", CAMPAIGN_SRC, _DATA, quantum_steps=100)


def test_priority_order_wins_over_fifo():
    sched = FleetScheduler(build_fleet(1))
    sched.submit(_short("late", priority=5))
    sched.submit(_short("urgent", priority=1))
    sched.tick()   # one drone => exactly one dispatch this tick
    assert sched.jobs["urgent"].state == "done"
    assert sched.jobs["late"].state == "queued"
    assert sched.run()
    _assert_done(sched.jobs["late"])


# -- supervision --------------------------------------------------------------

def test_quarantine_backoff_doubles_and_clamps():
    sched = FleetScheduler(build_fleet(1), quarantine_base_ticks=2,
                           quarantine_cap_ticks=32)
    assert sched.quarantine_backoff(0) == 2
    assert sched.quarantine_backoff(1) == 4
    assert sched.quarantine_backoff(2) == 8
    assert sched.quarantine_backoff(4) == 32      # saturates the cap
    assert sched.quarantine_backoff(10) == 32     # stays clamped
    assert sched.quarantine_backoff(10 ** 9) == 32   # no overflow
    assert sched.quarantine_backoff(-3) == 2      # defensive floor


def test_heartbeat_threshold_quarantines_then_readmits():
    fleet = build_fleet(1)
    drone = fleet[0]
    sched = FleetScheduler(fleet, heartbeat_threshold=2,
                           quarantine_base_ticks=2)
    drone.host.fail_pings(2)
    sched.tick()
    assert drone.consecutive_failures == 1
    assert drone.state != QUARANTINED
    sched.tick()
    assert drone.state == QUARANTINED
    assert sched.counters["quarantines"] == 1
    quarantined_at = sched.tick_now
    # Healthy again: the re-admission probe fires only after backoff.
    while drone.state == QUARANTINED:
        sched.tick()
        assert sched.tick_now <= quarantined_at + 10
    assert sched.tick_now - quarantined_at >= 2
    assert sched.counters["readmissions"] == 1
    assert drone.consecutive_failures == 0


def test_flapping_drone_backoff_doubles_per_failed_probe():
    fleet = build_fleet(1)
    drone = fleet[0]
    sched = FleetScheduler(fleet, heartbeat_threshold=1,
                           quarantine_base_ticks=2,
                           quarantine_cap_ticks=32)
    drone.host.fail_pings(50)   # stays unresponsive for the whole test
    sched.tick()
    assert drone.state == QUARANTINED
    backoffs = [e["backoff_ticks"] for e in sched.events
                if e["kind"] == "quarantined"]
    for _ in range(40):
        sched.tick()
    backoffs = [e["backoff_ticks"] for e in sched.events
                if e["kind"] == "quarantined"]
    assert backoffs[:4] == [2, 4, 8, 16]
    assert all(b <= 32 for b in backoffs)


def test_ping_carries_identity_and_is_not_audited():
    drone = build_fleet(1)[0]
    first = drone.host.ecall_ping()
    second = drone.host.ecall_ping()
    assert first["mrenclave"] == drone.bootstrap.enclave.mrenclave.hex()
    # Heartbeats must be cheap: no audit-chain growth per probe.
    assert first["audit_head"] == second["audit_head"]
    assert drone.heartbeat()


# -- failover and migration ---------------------------------------------------

def test_mid_run_kill_fails_over_to_new_einit_with_identical_output():
    fleet = build_fleet(1)
    drone = fleet[0]
    drone.host.arm_kill(600)
    sched = FleetScheduler(fleet)
    job = sched.submit(_long("victim"))
    assert sched.run(max_ticks=60)
    _assert_done(job, rounds=FLEET_LONG_ROUNDS)
    # The chain was sealed by generation 0 and resumed by generation 1
    # on the SAME platform: that is the checkpoint migration.
    assert job.migrated
    assert job.einits[0] == "drone-0#e0"
    assert job.einits[-1] == "drone-0#e1"
    assert job.outcome.resumed_at_step is not None
    assert sched.counters["migrations"] == 1
    assert sched.counters["replacements"] >= 1
    assert job.stats.rollbacks_rejected == 0


def test_preemption_parks_and_resumes_without_migration(monkeypatch):
    from repro.compiler.frontend import CodeGenerator
    compiles = []
    original = CodeGenerator.compile

    def counting(self, *args, **kwargs):
        compiles.append(1)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(CodeGenerator, "compile", counting)
    fleet = build_fleet(1)
    sched = FleetScheduler(fleet)
    job = sched.submit(_long("sliced", quantum=4000))
    assert sched.run(max_ticks=80)
    _assert_done(job, rounds=FLEET_LONG_ROUNDS)
    assert job.preemptions >= 2
    assert sched.counters["preemptions"] == job.preemptions
    # Same EINIT throughout: preemption alone is not a migration.
    assert set(job.einits) == {"drone-0#e0"}
    assert not job.migrated
    # Preemption is a scheduling outcome, counted by the scheduler; the
    # preempted-then-resumed session never failed.
    assert job.stats.resumes >= 1
    assert job.stats.fatal_errors == 0
    assert job.stats.fatal_kinds == {}
    assert sched.tenant_stats()["t0"].fatal_errors == 0
    # The job's program compiles once however often it is dispatched.
    assert job.dispatches >= 3
    assert len(compiles) == 1


def test_parked_chain_owner_resumes_before_higher_priority_work():
    fleet = build_fleet(1)
    sched = FleetScheduler(fleet)
    parked = sched.submit(_long("parked", quantum=4000))
    sched.tick()
    assert parked.state == "parked"
    assert parked.pinned_drone == "drone-0"
    rival = sched.submit(_short("rival", priority=0))
    assert sched.run(max_ticks=80)
    # The platform's counters were reserved for the parked chain: the
    # rival (better priority) only ran after the owner finished.
    order = [e["job"] for e in sched.events if e["kind"] == "finished"]
    assert order == ["parked", "rival"]
    _assert_done(parked, rounds=FLEET_LONG_ROUNDS)
    _assert_done(rival)


def test_stale_pin_discards_chain_and_reruns_elsewhere():
    fleet = build_fleet(2)
    sched = FleetScheduler(fleet, max_pin_ticks=2)
    job = sched.submit(_long("mover", quantum=4000))
    sched.tick()
    assert job.pinned_drone == "drone-0"
    # The sealing platform drops out for good: the pin goes stale and
    # the chain must be DISCARDED (never re-presented elsewhere — that
    # would be the rollback attack) and the job rerun from scratch.
    fleet[0].state = QUARANTINED
    fleet[0].quarantined_until = 10 ** 6
    assert sched.run(max_ticks=120)
    _assert_done(job, rounds=FLEET_LONG_ROUNDS)
    assert sched.counters["chains_discarded"] == 1
    assert not job.migrated          # rerun, not a resumed chain
    assert job.requeues == 1
    assert "drone-1#e0" in job.einits


# -- bench + store ingestion --------------------------------------------------

def test_fleet_bench_doc_and_store_ingestion(tmp_path):
    doc = run_fleet_bench(seed=3, drones=2, sessions=6, tenants=2,
                          long_every=3, kill_after_steps=500,
                          max_queue=8, max_ticks=120)
    assert doc["status"] == "ok"
    assert doc["zero_lost"]
    assert doc["migration_check"]["outputs_match"]
    assert doc["counters"]["completed"] >= 1
    assert doc["latency_ticks"]["p99"] >= doc["latency_ticks"]["p50"]
    assert doc["sec_per_session"] > 0

    records = records_from_doc(doc, commit="test")
    fleet_cells = [r for r in records if r.key.kind == "fleet"]
    assert fleet_cells
    campaign = next(r for r in fleet_cells
                    if r.key.workload == "campaign")
    assert campaign.metrics["zero_lost"] is True
    assert campaign.metrics["migrated"] is True
    assert campaign.metrics["p99_ticks"] >= campaign.metrics["p50_ticks"]
    assert "sec_per_session" in campaign.metrics
    tenants = {r.key.setting for r in fleet_cells
               if r.key.workload == "tenant"}
    assert tenants == {"tenant-0", "tenant-1"}


def test_cli_fleet_scope_exits_zero(capsys, tmp_path):
    from repro.cli import main
    out = tmp_path / "fleet_chaos.json"
    code = main(["chaos", "--fleet", "--seed", "5", "-o", str(out)])
    assert code == 0
    assert out.exists()
    text = capsys.readouterr().out
    assert "chaos fleet seed=5" in text
    assert "VIOLATION" not in text
