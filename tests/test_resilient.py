"""Resilient sessions: transient faults retried, fatal classes never."""

import pytest

from repro.core import BootstrapEnclave
from repro.errors import (
    AttestationError, AttestationOutage, EnclaveError, EnclaveTeardown,
    PolicyViolation, ProtocolError, RetryBudgetExceeded,
    VerificationError,
)
from repro.policy import PolicySet
from repro.service import (
    CCaaSHost, CodeProvider, DataOwner, FaultPlan, FaultyHost,
    ResilientSession, RetryPolicy, TwoPartyWorkflow, classify_error,
)
from repro.service.faults import CAMPAIGN_SRC
from repro.sgx import AttestationService

_DATA = bytes(range(12))


def _host():
    boot = BootstrapEnclave(policies=PolicySet.full())
    return CCaaSHost(boot, AttestationService())


def _workflow(host, retry=None, data=_DATA):
    provider = CodeProvider(CAMPAIGN_SRC, PolicySet.full())
    owner = DataOwner(data=data)
    import hashlib
    owner.approved_hashes.append(
        hashlib.sha256(provider.build()).digest())
    return TwoPartyWorkflow(host, provider, owner, retry=retry,
                            sleep=None)


# -- classification -----------------------------------------------------------

@pytest.mark.parametrize("exc", [
    AttestationOutage("ias down"),
    ProtocolError("bad MAC"),
    EnclaveError("transient"),
    EnclaveTeardown("gone"),
])
def test_transient_classes(exc):
    assert classify_error(exc) == "transient"


@pytest.mark.parametrize("exc", [
    PolicyViolation(6, 0, "P6 trap"),
    VerificationError("missing annotation"),
    AttestationError("MRENCLAVE mismatch: untrusted bootstrap"),
    RetryBudgetExceeded("spent"),
    ValueError("unknown errors fail closed"),
])
def test_fatal_classes(exc):
    assert classify_error(exc) == "fatal"


def test_admission_and_preemption_classes_are_fatal_to_sessions():
    # Scheduler-level verdicts must never feed the session retry loop:
    # a preempted run is the *supervisor's* decision to reclaim the
    # drone, and a shed job was refused at the door.
    from repro.errors import AdmissionRejected, SessionPreempted
    assert classify_error(SessionPreempted("quantum expired")) == "fatal"
    assert classify_error(
        AdmissionRejected("shed", reason="queue_full")) == "fatal"


def test_outage_transient_despite_fatal_parent():
    # Most-specific first: AttestationOutage subclasses the fatal
    # AttestationError, and budget exhaustion is fatal even though it
    # wraps a transient cause.
    assert issubclass(AttestationOutage, AttestationError)
    assert classify_error(AttestationOutage("down")) == "transient"
    budget = RetryBudgetExceeded("spent")
    budget.__cause__ = AttestationOutage("down")
    assert classify_error(budget) == "fatal"


def test_retry_policy_delays_are_deterministic_and_capped():
    policy = RetryPolicy(seed=9, base_delay_s=0.01, max_delay_s=0.05,
                         jitter=0.25)
    delays = [policy.delay(i) for i in range(8)]
    assert delays == [policy.delay(i) for i in range(8)]
    assert all(0 < d <= 0.05 * 1.25 for d in delays)
    assert delays[3] > delays[0]   # backoff grows


def test_retry_policy_delay_huge_index_does_not_overflow():
    policy = RetryPolicy(seed=9, base_delay_s=0.01, max_delay_s=5.0,
                         backoff=2.0, jitter=0.1)
    for index in (64, 1025, 10 ** 6):
        delay = policy.delay(index)
        assert 0 < delay <= 5.0 * 1.1
    flat = RetryPolicy(base_delay_s=0.01, max_delay_s=5.0, backoff=1.0)
    assert flat.delay(10 ** 6) <= 0.01 * (1 + flat.jitter)
    assert RetryPolicy(base_delay_s=0.0).delay(10 ** 6) == 0.0


def test_session_stats_merge_sums_counters_and_kinds():
    from repro.service import SessionStats
    a = SessionStats()
    a.retries, a.reconnects, a.slept_s = 2, 1, 0.5
    a.retried_kinds = {"EnclaveTeardown": 2}
    a.fatal_kinds = {"PolicyViolation": 1}
    b = SessionStats()
    b.retries, b.resumes, b.rollbacks_rejected = 3, 1, 1
    b.retried_kinds = {"EnclaveTeardown": 1, "AttestationOutage": 4}
    merged = a.merge(b)
    assert merged is a   # chainable, mutates the receiver
    assert a.retries == 5
    assert a.reconnects == 1
    assert a.resumes == 1
    assert a.rollbacks_rejected == 1
    assert a.slept_s == 0.5
    assert a.retried_kinds == {"EnclaveTeardown": 3,
                               "AttestationOutage": 4}
    assert a.fatal_kinds == {"PolicyViolation": 1}


def test_workflow_stats_merge_run_and_session_counters():
    wf = _workflow(_host())
    wf.run_stats.retries = 1
    wf.provider_session.stats.retries = 2
    wf.owner_session.stats.retries = 4
    wf.provider_session.stats.retried_kinds["ProtocolError"] = 2
    wf.run_stats.retried_kinds["ProtocolError"] = 1
    assert wf.stats.retries == 7
    assert wf.stats.retried_kinds == {"ProtocolError": 3}


# -- recovery paths -----------------------------------------------------------

def test_transient_faults_recovered_end_to_end():
    plan = FaultPlan(1, p_wire=0.0, p_teardown=0.0, p_outage=0.0,
                     p_storm=0.0, p_transient=1.0, max_faults=2)
    host = FaultyHost(_host(), plan)
    wf = _workflow(host, retry=RetryPolicy(max_attempts=4, seed=1))
    outcome, plaintexts = wf.execute()
    assert outcome.ok
    assert plaintexts == [bytes([sum(_DATA) % 256])]
    assert len(plan.injected) == 2
    assert wf.stats.retries == 2
    assert wf.stats.retried_kinds == {"EnclaveError": 2}


def test_teardown_recovered_with_audit_continuity():
    plan = FaultPlan(1, p_wire=0.0, p_transient=0.0, p_outage=0.0,
                     p_storm=0.0, p_teardown=1.0, max_faults=1)
    host = FaultyHost(_host(), plan)
    wf = _workflow(host, retry=RetryPolicy(max_attempts=4, seed=1))
    outcome, _ = wf.execute()
    assert outcome.ok
    assert wf.stats.recoveries == 1
    assert wf.stats.retried_kinds == {"EnclaveTeardown": 1}
    boot = host.bootstrap
    assert boot.audit.count("recovered") == 1
    assert boot.audit.verify_chain()


def test_attestation_outage_retried():
    quiet = FaultPlan(1, p_wire=0.0, p_transient=0.0, p_teardown=0.0,
                      p_outage=0.0, p_storm=0.0)
    host = FaultyHost(_host(), quiet)
    host.attestation_service.outages = 2
    wf = _workflow(host, retry=RetryPolicy(max_attempts=5, seed=1))
    outcome, _ = wf.execute()
    assert outcome.ok
    assert wf.stats.retried_kinds == {"AttestationOutage": 2}


def test_wire_corruption_forces_session_reestablishment():
    plan = FaultPlan(3, p_wire=1.0, p_transient=0.0, p_outage=0.0,
                     p_storm=0.0, p_teardown=0.0, max_faults=1)
    host = FaultyHost(_host(), plan)
    wf = _workflow(host, retry=RetryPolicy(max_attempts=4, seed=1))
    outcome, _ = wf.execute()
    assert outcome.ok
    assert wf.stats.retries == 1
    assert wf.stats.retried_kinds == {"ProtocolError": 1}
    assert wf.stats.reconnects >= 1


def test_run_recovery_redelivers_after_midprotocol_teardown():
    host = _host()
    wf = _workflow(host, retry=RetryPolicy(max_attempts=4, seed=1))
    wf.provision()
    # the platform reclaims the enclave after provisioning finished
    host.bootstrap.enclave.destroy()
    outcome, plaintexts = wf.execute()
    assert outcome.ok
    assert plaintexts == [bytes([sum(_DATA) % 256])]
    assert wf.stats.recoveries == 1
    assert host.bootstrap.audit.count("recovered") == 1


# -- fatal classes are never retried -----------------------------------------

def test_policy_violation_outcome_is_returned_not_retried():
    from repro.vm.interrupts import AexSchedule
    boot = BootstrapEnclave(policies=PolicySet.full(), aex_threshold=10)
    host = CCaaSHost(boot, AttestationService())
    wf = _workflow(host, retry=RetryPolicy(max_attempts=6, seed=1))
    outcome, plaintexts = wf.execute(
        aex_schedule=AexSchedule(3, jitter=0.0, seed=1))
    assert outcome.status == "violation"
    assert plaintexts == []
    # one run attempt, zero retries: the defense engaging is an outcome
    assert wf.stats.retries == 0
    assert boot.audit.count("run_completed") == 1


def test_mrenclave_pin_mismatch_aborts_without_retry():
    host = _host()
    provider = CodeProvider(CAMPAIGN_SRC, PolicySet.full())
    session = ResilientSession(
        provider, host, expected_mrenclave=b"\x00" * 32,
        retry=RetryPolicy(max_attempts=5, seed=1), sleep=None)
    with pytest.raises(AttestationError, match="MRENCLAVE"):
        session.perform("deliver",
                        lambda: provider.deliver(host))
    assert session.stats.retries == 0
    assert session.stats.fatal_errors == 1
    assert session.stats.fatal_kinds == {"AttestationError": 1}


def test_rejected_binary_aborts_without_retry():
    host = _host()   # bootstrap demands the full policy set
    provider = CodeProvider(CAMPAIGN_SRC, PolicySet.p1_only())
    owner = DataOwner(data=_DATA)
    wf = TwoPartyWorkflow(host, provider, owner,
                          retry=RetryPolicy(max_attempts=5, seed=1),
                          sleep=None)
    with pytest.raises(VerificationError):
        wf.provision()
    assert wf.stats.retries == 0
    assert wf.stats.fatal_kinds == {"VerificationError": 1}


def test_retry_budget_exhaustion_surfaces_last_error():
    plan = FaultPlan(1, p_wire=0.0, p_teardown=0.0, p_outage=0.0,
                     p_storm=0.0, p_transient=1.0, max_faults=100)
    host = FaultyHost(_host(), plan)
    wf = _workflow(host, retry=RetryPolicy(max_attempts=3, seed=1))
    with pytest.raises(RetryBudgetExceeded) as excinfo:
        wf.execute()
    assert isinstance(excinfo.value.__cause__, EnclaveError)
    assert wf.stats.retries == 3


# -- bench chaos mode ---------------------------------------------------------

def test_bench_chaos_keeps_cell_values_and_is_deterministic():
    from repro.bench.harness import run_workload
    clean = run_workload("numeric_sort", "P1", 6)
    a = run_workload("numeric_sort", "P1", 6, chaos_seed=11)
    b = run_workload("numeric_sort", "P1", 6, chaos_seed=11)
    assert (a.steps, a.cycles, a.aex_events, a.reports) == \
        (clean.steps, clean.cycles, clean.aex_events, clean.reports)
    assert (a.retries, a.recoveries) == (b.retries, b.recoveries)
    assert clean.retries == 0 and clean.recoveries == 0


def test_cli_chaos_smoke(capsys):
    from repro.cli import main
    assert main(["chaos", "--seed", "2021", "--trials", "2"]) == 0
    out = capsys.readouterr().out
    assert "deflection-chaos/2" in out
    assert "no fatal class retried" in out


def test_cli_bench_chaos_records_counters(tmp_path, capsys):
    import json
    from repro.cli import main
    out_file = tmp_path / "bench.json"
    assert main(["bench", "--workloads", "numeric_sort",
                 "--settings", "baseline", "P1",
                 "--param", "6", "--executor", "translate",
                 "--chaos", "3", "--json", "-o", str(out_file)]) == 0
    doc = json.loads(out_file.read_text())
    assert doc["chaos_seed"] == 3
    assert set(doc["chaos"]) == {"retries", "recoveries"}
    assert doc["totals"]["retries"] == doc["chaos"]["retries"]
    assert doc["totals"]["recoveries"] == doc["chaos"]["recoveries"]
