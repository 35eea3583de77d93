"""Fault-injection framework: channel hardening, teardown/recovery,
deterministic fault plans, and the chaos engine."""

import pytest

from repro.core import BootstrapEnclave
from repro.crypto.channel import SecureChannel
from repro.errors import EnclaveTeardown, ProtocolError
from repro.policy import PolicySet
from repro.service import CCaaSHost, CodeProvider, DataOwner, FaultPlan
from repro.service.faults import CAMPAIGN_SRC, NEVER_RETRY, run_chaos
from repro.service.protocol import establish_session
from repro.sgx import AttestationService
from repro.vm.interrupts import AexSchedule


def _pair():
    return SecureChannel.pair(b"shared", b"transcript", record_size=64)


def _host():
    boot = BootstrapEnclave(policies=PolicySet.full())
    return CCaaSHost(boot, AttestationService())


def _provision(host, data=bytes(range(10))):
    provider = CodeProvider(CAMPAIGN_SRC, PolicySet.full())
    owner = DataOwner(data=data)
    mr = host.bootstrap.mrenclave
    provider.connect(host, mr)
    owner.connect(host, mr)
    measurement = provider.deliver(host)
    owner.approved_hashes.append(measurement)
    owner.approve_code(measurement)
    owner.upload(host)
    return provider, owner


# -- channel hardening (satellites) ------------------------------------------

def test_aex_schedule_rejects_out_of_range_jitter():
    with pytest.raises(ValueError, match="jitter"):
        AexSchedule(100, jitter=1.5)
    with pytest.raises(ValueError, match="jitter"):
        AexSchedule(100, jitter=-0.1)
    assert AexSchedule(100, jitter=0.0).next_interval() == 100
    assert AexSchedule(100, jitter=1.0).enabled


def test_channel_rejects_empty_wire_as_truncation():
    _, receiver = _pair()
    with pytest.raises(ProtocolError, match="empty wire"):
        receiver.open(b"")
    assert receiver.desynced


def test_desynced_channel_refuses_all_further_use():
    sender, receiver = _pair()
    good = sender.seal(b"after the corruption")
    corrupted = bytearray(sender.seal(b"hello"))
    corrupted[5] ^= 0x40
    with pytest.raises(ProtocolError, match="bad MAC"):
        receiver.open(bytes(corrupted))
    # even a pristine record is refused now: the recv counter cannot be
    # trusted to mirror the peer any more
    with pytest.raises(ProtocolError, match="desynced"):
        receiver.open(good)
    with pytest.raises(ProtocolError, match="desynced"):
        receiver.seal(b"and sending is dead too")


@pytest.mark.parametrize("kind", ["corrupt", "truncate", "duplicate",
                                  "reorder"])
def test_every_wire_mangle_kind_is_detected(kind):
    import random
    from repro.service import faults
    sender, receiver = _pair()
    wire = sender.seal(b"x" * 200)   # several records
    record_len = 64 + 32
    rng = random.Random(7)
    mangled = {
        "corrupt": lambda: faults.corrupt_wire(wire, rng),
        "truncate": lambda: faults.truncate_wire(wire, rng, record_len),
        "duplicate": lambda: faults.duplicate_record(wire, rng,
                                                     record_len),
        "reorder": lambda: faults.reorder_records(wire, rng,
                                                  record_len),
    }[kind]()
    assert mangled != wire
    with pytest.raises(ProtocolError):
        receiver.open(mangled)
    assert receiver.desynced


# -- teardown + recovery ------------------------------------------------------

def test_destroyed_enclave_refuses_ecalls():
    host = _host()
    _provision(host)
    host.bootstrap.enclave.destroy()
    with pytest.raises(EnclaveTeardown, match="re-EINIT"):
        host.ecall_run()


def test_recover_preserves_mrenclave_and_audit_chain():
    host = _host()
    boot = host.bootstrap
    _provision(host)
    mr_before = boot.mrenclave
    events_before = len(boot.audit)
    boot.enclave.destroy()
    assert host.ensure_alive()          # recovers
    assert not host.ensure_alive()      # idempotent: already alive
    assert boot.mrenclave == mr_before
    # the chain continued across the restart — nothing was reset
    assert len(boot.audit) == events_before + 1
    assert boot.audit.count("recovered") == 1
    assert boot.audit.verify_chain()
    # volatile state is gone: sessions and binary must be re-established
    assert boot.loaded is None and not boot.channels
    _provision(host)
    outcome = host.ecall_run()
    assert outcome.ok
    assert boot.audit.verify_chain()


def test_handshake_key_reuse_rejected_across_sessions():
    host = _host()
    establish_session(host, "owner", host.bootstrap.mrenclave,
                      enclave_entropy=b"stale-entropy")
    with pytest.raises(ProtocolError, match="key reuse"):
        establish_session(host, "owner", host.bootstrap.mrenclave,
                          enclave_entropy=b"stale-entropy")


def test_handshake_entropy_callable_and_default_are_fresh():
    host = _host()
    counter = iter(range(100))
    entropy = lambda: next(counter).to_bytes(8, "little")  # noqa: E731
    establish_session(host, "owner", host.bootstrap.mrenclave,
                      enclave_entropy=entropy)
    establish_session(host, "owner", host.bootstrap.mrenclave,
                      enclave_entropy=entropy)
    # the default source (no injection) is fresh randomness
    establish_session(host, "owner", host.bootstrap.mrenclave)
    establish_session(host, "owner", host.bootstrap.mrenclave)


# -- fault-plan determinism ---------------------------------------------------

def test_fault_plan_replays_identically():
    def drive(plan):
        log = []
        for _ in range(30):
            log.append(plan.draw_ecall_fault("site"))
            log.append(plan.mangle_wire(b"\x5a" * 288, 288))
            log.append(plan.draw_outage())
        return log, plan.injected

    a = drive(FaultPlan(42))
    b = drive(FaultPlan(42))
    c = drive(FaultPlan(43))
    assert a == b
    assert a != c


def test_fault_plan_budget_caps_injections():
    plan = FaultPlan(5, p_wire=1.0, max_faults=3)
    for _ in range(20):
        plan.mangle_wire(b"\x11" * 288, 288)
    assert len(plan.injected) == 3
    assert plan.faults_remaining == 0
    # budget spent -> honest behaviour, forever
    wire = b"\x22" * 288
    assert plan.mangle_wire(wire, 288) == (wire, None)


#: scope -> (seed, trials, a label some injected fault must contain,
#: provision-cache misses: one per distinct program the trials run).
CHAOS_SCOPES = {
    "host": (5, 3, "", 1),
    "mid-run": (11, 4, "midrun_teardown", 1),
    "fleet": (11, 1, "", 0),
    "pipeline": (7, 2, "hop", 7),
}


@pytest.mark.parametrize("scope", sorted(CHAOS_SCOPES))
def test_chaos_scope_holds_shared_invariants(scope):
    seed, trials, label, misses = CHAOS_SCOPES[scope]
    report = run_chaos(scope, seed=seed, trials=trials)
    assert report["schema"] == "deflection-chaos/2"
    assert report["scope"] == scope
    assert report["violations"] == [], report["violations"]
    assert report["replay_identical"]
    rows = report["trials_detail"]
    assert [row["trial"] for row in rows] == list(range(trials))
    faults = [label for row in rows for label in row["faults"]]
    assert report["totals"]["faults_injected"] == len(faults) >= 1
    assert any(label in fault for fault in faults)
    assert not any(status.startswith("aborted")
                   for status in report["statuses"])
    if scope == "host":
        assert report["stats"]["fatal_kinds"] == {}
    # Every admitted fleet job reached a terminal state (0 == 0 for the
    # scopes without a scheduler).
    totals = report["totals"]
    assert totals.get("completed", 0) + totals.get("aborted", 0) \
        == totals.get("admitted", 0)
    # Every host trial kept a verifiable audit chain.
    assert all(row.get("audit_chain_ok", True) for row in rows)
    # Trials share the provision cache: each program verifies once,
    # every later delivery is a replay.
    assert report["provision_cache"]["misses"] == misses
    if misses:
        assert report["provision_cache"]["hits"] >= 2


def test_never_retry_lists_rollback_and_deadline():
    assert "RollbackError" in NEVER_RETRY
    assert "DeadlineExceeded" in NEVER_RETRY


def test_untyped_trial_crash_fails_the_campaign(monkeypatch):
    """Only typed errors become a trial status: an untyped crash inside
    a trial fails the command instead of passing as ``aborted``."""
    from repro.cli import main

    def crash(self, outcome):
        raise KeyError("decrypt_results")

    monkeypatch.setattr(DataOwner, "decrypt_results", crash)
    with pytest.raises(KeyError):
        main(["chaos", "--seed", "2021", "--trials", "3"])