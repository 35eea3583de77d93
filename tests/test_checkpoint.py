"""Sealed mid-run checkpoint/restore: sealing, rollback protection,
resume equivalence, watchdog deadlines."""

import random

import pytest

from repro.bench.checkpointing import outcome_fingerprint
from repro.bench.harness import restore_run_state, snapshot_run_state
from repro.compiler import compile_source
from repro.core import BootstrapEnclave
from repro.core.checkpoint import (
    COUNTER_LABEL, Watchdog, verify_chain,
)
from repro.errors import (
    DeadlineExceeded, EnclaveTeardown, RollbackError,
)
from repro.policy import VIOL_P1, PolicySet
from repro.service.resilient import classify_error
from repro.vm.costmodel import CostModel
from repro.vm.interrupts import AexSchedule

# Long enough for many checkpoints; touches reports, __send output and
# data-dependent memory writes so a missed dirty page would show.
SRC = """
char buf[16];
char out[4];
int scratch[64];
int main() {
    int n = __recv(buf, 16);
    int i; int acc = 0;
    for (i = 0; i < 4000; i++) {
        acc = (acc + buf[i % n] + i) % 100000;
        scratch[i % 64] = acc;
        if (i % 800 == 0) __report(acc % 1000);
    }
    out[0] = scratch[acc % 64] % 120;
    __send(out, 1);
    __report(acc);
    return acc % 128;
}
"""

DATA = bytes(range(7, 23))

_POLICIES = PolicySet.full()
_BLOB = compile_source(SRC, _POLICIES).serialize()


def _boot(data=DATA, **kwargs):
    boot = BootstrapEnclave(policies=_POLICIES, aex_threshold=100_000,
                            **kwargs)
    boot.receive_binary(_BLOB)
    boot.receive_userdata(data)
    return boot


def _reprovision(boot, data=DATA):
    boot.receive_binary(_BLOB)
    boot.receive_userdata(data)


def _teardown_at(boot, at_step):
    def interrupt(cpu):
        if cpu.steps >= at_step:
            boot.enclave.destroy()
            raise EnclaveTeardown(f"torn down at step {cpu.steps}")
    return interrupt


def _aex():
    return AexSchedule(1_500)


# -- checkpointing changes nothing observable ---------------------------


def test_checkpointed_run_identical_to_plain():
    plain = _boot().run(aex_schedule=_aex())
    blobs = []
    ckpt = _boot().run(aex_schedule=_aex(), checkpoint_every=400,
                       checkpoint_sink=blobs.append)
    assert outcome_fingerprint(ckpt) == outcome_fingerprint(plain)
    assert ckpt.checkpoints_taken == len(blobs) > 5
    assert plain.checkpoints_taken == 0


def test_checkpointed_run_identical_under_step_oracle():
    model = CostModel(executor="step")
    plain = _boot().run(aex_schedule=_aex(), cost_model=model)
    ckpt = _boot().run(aex_schedule=_aex(), cost_model=model,
                       checkpoint_every=700)
    assert outcome_fingerprint(ckpt) == outcome_fingerprint(plain)


# -- seal / unseal ------------------------------------------------------


def _run_with_chain(boot, every=500):
    blobs = []
    outcome = boot.run(aex_schedule=_aex(), checkpoint_every=every,
                       checkpoint_sink=blobs.append)
    return outcome, blobs


def test_chain_verifies_and_every_tamper_fails_closed():
    boot = _boot()
    _, blobs = _run_with_chain(boot)
    key = boot._seal_key()
    head = boot.enclave.platform.counter_read(COUNTER_LABEL)
    payloads = verify_chain(key, blobs, head)
    assert payloads[-1].cpu.steps > payloads[0].cpu.steps

    flipped = bytearray(blobs[1])
    flipped[len(flipped) // 2] ^= 0x40
    bad_chains = [
        [blobs[0], bytes(flipped)] + blobs[2:],   # bit flip
        [blobs[0], blobs[1][:-5]] + blobs[2:],    # truncated blob
        [blobs[0], b""] + blobs[2:],              # empty blob
        [blobs[0]] + blobs[2:],                   # counter gap
        [blobs[1], blobs[0]] + blobs[2:],         # reordered
        blobs[1:],                                # grafted (no genesis)
        blobs[:-1],                               # stale head (rollback)
        [],                                       # empty chain
    ]
    for bad in bad_chains:
        with pytest.raises(RollbackError):
            verify_chain(key, bad, head)


def test_wrong_key_rejected_indistinguishably():
    boot = _boot()
    _, blobs = _run_with_chain(boot)
    head = boot.enclave.platform.counter_read(COUNTER_LABEL)
    with pytest.raises(RollbackError, match="MAC"):
        verify_chain(b"\x13" * 32, blobs, head)


# -- resume equivalence -------------------------------------------------


def test_resume_equivalence_over_seeded_interrupt_points():
    plain = _boot().run(aex_schedule=_aex())
    want = outcome_fingerprint(plain)
    total = plain.result.steps
    rng = random.Random(2021)
    boot = _boot()
    for _ in range(3):
        at = rng.randrange(total // 8, total - total // 8)
        blobs = []
        with pytest.raises(EnclaveTeardown):
            boot.run(aex_schedule=_aex(), checkpoint_every=300,
                     checkpoint_sink=blobs.append,
                     interrupt=_teardown_at(boot, at))
        assert blobs, "teardown before the first checkpoint"
        boot.recover()
        _reprovision(boot)
        resumed = boot.resume(blobs, aex_schedule=_aex(),
                              checkpoint_every=300)
        assert outcome_fingerprint(resumed) == want
        assert resumed.resumed_at_step is not None
        assert resumed.resumed_at_step <= at + 300
    kinds = [e.kind for e in boot.audit.events]
    assert kinds.count("resumed") == 3


def test_rollback_replay_of_stale_chain_rejected():
    boot = _boot()
    blobs = []
    with pytest.raises(EnclaveTeardown):
        boot.run(aex_schedule=_aex(), checkpoint_every=300,
                 checkpoint_sink=blobs.append,
                 interrupt=_teardown_at(boot, 2_000))
    assert len(blobs) >= 2
    boot.recover()
    _reprovision(boot)
    with pytest.raises(RollbackError, match="stale|rollback"):
        boot.resume(blobs[:-1], aex_schedule=_aex())


def test_cross_enclave_chain_rejected():
    a = _boot()
    _, blobs = _run_with_chain(a)
    # Same platform, different provisioned binary => different seal key.
    other_blob = compile_source(
        "int main() { return 7; }", _POLICIES).serialize()
    b = BootstrapEnclave(policies=_POLICIES, aex_threshold=100_000)
    b.receive_binary(other_blob)
    b.receive_userdata(DATA)
    with pytest.raises(RollbackError):
        b.resume(blobs)


def test_cross_platform_chain_rejected():
    a = _boot()
    _, blobs = _run_with_chain(a)
    b = _boot()          # fresh platform: different fuse + counter
    with pytest.raises(RollbackError):
        b.resume(blobs)


def test_resume_with_different_userdata_rejected():
    boot = _boot()
    blobs = []
    with pytest.raises(EnclaveTeardown):
        boot.run(aex_schedule=_aex(), checkpoint_every=300,
                 checkpoint_sink=blobs.append,
                 interrupt=_teardown_at(boot, 2_000))
    boot.recover()
    _reprovision(boot, data=b"\xff" * 16)
    with pytest.raises(RollbackError, match="user data"):
        boot.resume(blobs)
    assert any(e.kind == "resume_rejected" for e in boot.audit.events)


# -- watchdog -----------------------------------------------------------


def test_watchdog_deadline_carries_chain_and_resume_completes():
    plain = _boot().run(aex_schedule=_aex())
    boot = _boot()
    with pytest.raises(DeadlineExceeded) as info:
        boot.run(aex_schedule=_aex(), checkpoint_every=500,
                 watchdog=Watchdog(max_steps=3_000))
    chain = info.value.checkpoint
    assert chain, "deadline must carry the final checkpoint chain"
    assert any(e.kind == "watchdog_expired" for e in boot.audit.events)
    # The operator grants a bigger budget and resumes the same chain.
    resumed = boot.resume(chain, aex_schedule=_aex(),
                          checkpoint_every=500,
                          watchdog=Watchdog(max_steps=10_000_000))
    assert outcome_fingerprint(resumed) == outcome_fingerprint(plain)
    assert resumed.resumed_at_step >= 3_000


def test_watchdog_without_checkpointing_still_raises():
    boot = _boot()
    with pytest.raises(DeadlineExceeded) as info:
        boot.run(watchdog=Watchdog(max_cycles=100.0))
    assert info.value.checkpoint == []


def test_watchdog_unlimited_budgets_never_fire():
    outcome = _boot().run(watchdog=Watchdog())
    assert outcome.ok


# -- error classification ----------------------------------------------


def test_rollback_and_deadline_classified_fatal():
    assert classify_error(RollbackError("replayed")) == "fatal"
    assert classify_error(DeadlineExceeded("late")) == "fatal"


# -- one run loop: every path shares the prologue and the trap epilogue --

# Runs a few hundred instructions (so checkpoints are taken) before a P1
# store outside the enclave.
_VIOLATOR = compile_source("""
int main() {
    int i; int acc = 0; int *p = 4096;
    for (i = 0; i < 200; i++) acc = acc + i;
    *p = acc;
    return 0;
}
""", PolicySet.p1_only()).serialize()


def _violator_boot():
    boot = BootstrapEnclave(policies=PolicySet.p1_only())
    boot.receive_binary(_VIOLATOR)
    return boot


@pytest.mark.parametrize("path", [
    lambda boot: boot.run(),
    lambda boot: boot.run(checkpoint_every=50),
    lambda boot: boot.run_traced(max_instructions=100_000)[0],
], ids=["plain", "checkpointed", "traced"])
def test_violation_reported_alike_on_every_run_path(path):
    want = _violator_boot().run()
    assert want.status == "violation"
    assert want.violation_code == VIOL_P1
    outcome = path(_violator_boot())
    assert (outcome.status, outcome.violation_code, outcome.detail) == \
        (want.status, want.violation_code, want.detail)
    assert outcome.result == want.result


def test_checkpointed_violation_takes_checkpoints_first():
    outcome = _violator_boot().run(checkpoint_every=50)
    assert outcome.status == "violation"
    assert outcome.checkpoints_taken > 0


# Fills a 16 KiB array through the translator's fast-path stores, then
# folds it: a page whose writes a checkpoint missed changes the result.
_FILL_BLOB = compile_source("""
int big[2048];
int main() {
    int i; int acc = 0;
    for (i = 0; i < 2048; i++) big[i] = i * 7;
    for (i = 0; i < 2048; i++) acc = (acc + big[i] * (i + 1)) % 1000003;
    __report(acc);
    return 0;
}
""", _POLICIES).serialize()


def test_warm_reused_cpu_then_checkpointed_run_resumes_identically():
    """A warm ``reuse_cpu`` run must not hand its CPU (blocks compiled
    without dirty tracking) to a later checkpointed run: the chain that
    run seals has to carry every dirtied page for resume to continue
    it byte-identically."""
    model = CostModel()   # reuse needs the same cost-model object

    def fill_boot():
        boot = BootstrapEnclave(policies=_POLICIES)
        boot.receive_binary(_FILL_BLOB)
        return boot

    want = outcome_fingerprint(fill_boot().run(cost_model=model))
    boot = fill_boot()
    snap = snapshot_run_state(boot)
    warm = boot.run(cost_model=model, reuse_cpu=True, jit_eager=True)
    assert outcome_fingerprint(warm) == want
    restore_run_state(boot, snap)
    blobs = []
    with pytest.raises(EnclaveTeardown):
        boot.run(cost_model=model, checkpoint_every=300,
                 checkpoint_sink=blobs.append,
                 interrupt=_teardown_at(boot, 45_000))
    boot.recover()
    boot.receive_binary(_FILL_BLOB)
    resumed = boot.resume(blobs, cost_model=model, checkpoint_every=300)
    assert outcome_fingerprint(resumed) == want
    assert resumed.resumed_at_step >= 45_000 - 300


# -- mid-run chaos campaign --------------------------------------------


def test_campaign_without_midrun_flag_unchanged():
    """The mid-run fault family is opt-in: a plan built without it
    consumes no RNG draws at the mid-run sites, so it injects exactly
    what a plan that never visits them injects (host replays stay
    byte-identical)."""
    from repro.service.faults import FaultPlan, run_chaos
    plain, visited = FaultPlan(3), FaultPlan(3, mid_run=False)
    for _ in range(40):
        assert visited.draw_midrun_teardown() is None
        assert visited.draw_midrun_smc() is None
        assert visited.draw_chain_attack() is None
        assert plain.draw_ecall_fault("s") == visited.draw_ecall_fault("s")
        assert plain.draw_outage() == visited.draw_outage()
    assert plain.injected == visited.injected
    report = run_chaos("host", seed=3, trials=2)
    assert report["stats"]["resumes"] == 0
    assert not any(label.startswith("midrun")
                   for row in report["trials_detail"]
                   for label in row["faults"])