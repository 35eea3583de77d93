"""Bootstrap enclave specifics: measurement, P0 wrappers, time
blurring, state isolation between runs."""

import pytest

from repro.compiler import compile_source
from repro.core import BootstrapEnclave
from repro.core.bootstrap import P0Config, consumer_image
from repro.errors import EnclaveError, ProtocolError
from repro.policy import PolicySet


def _boot(src, setting="P1", **kwargs):
    policies = PolicySet.parse(setting)
    boot = BootstrapEnclave(policies=policies, **kwargs)
    boot.receive_binary(compile_source(src, policies).serialize())
    return boot


def test_consumer_image_is_stable_and_nontrivial():
    image = consumer_image()
    assert image == consumer_image()
    assert len(image) > 20_000
    assert b"PolicyVerifier" in image      # the verifier source is public


def test_two_bootstraps_share_mrenclave():
    a = BootstrapEnclave(policies=PolicySet.full())
    b = BootstrapEnclave(policies=PolicySet.full())
    assert a.mrenclave == b.mrenclave


def test_run_without_binary_rejected():
    boot = BootstrapEnclave(policies=PolicySet.p1_only())
    with pytest.raises(EnclaveError, match="no verified binary"):
        boot.run()


def test_binary_hash_returned_matches_blob():
    import hashlib
    blob = compile_source("int main() { return 3; }",
                          PolicySet.p1_only()).serialize()
    boot = BootstrapEnclave(policies=PolicySet.p1_only())
    assert boot.receive_binary(blob) == hashlib.sha256(blob).digest()


def test_recv_cursor_resets_between_runs():
    src = """
    char buf[8];
    int main() {
        int n = __recv(buf, 4);
        __report(buf[0]);
        __report(n);
        return 0;
    }
    """
    boot = _boot(src)
    boot.receive_userdata(b"abcdef")
    first = boot.run()
    second = boot.run()          # cursor must rewind, not continue
    assert first.reports == second.reports == [ord("a"), 4]


def test_recv_drains_input_across_calls_within_one_run():
    src = """
    char buf[8];
    int main() {
        __recv(buf, 3);
        __report(buf[0]);
        int n = __recv(buf, 8);
        __report(buf[0]);
        __report(n);
        int m = __recv(buf, 8);
        __report(m);
        return 0;
    }
    """
    boot = _boot(src)
    boot.receive_userdata(b"XYZAB")
    outcome = boot.run()
    assert outcome.reports == [ord("X"), ord("A"), 2, 0]


def test_report_budget_counts():
    src = """
    int main() {
        int i;
        for (i = 0; i < 10; i++) __report(i);
        return 0;
    }
    """
    boot = _boot(src, p0=P0Config(max_output_bytes=40))  # 5 reports
    outcome = boot.run()
    assert outcome.status == "violation"
    assert len(outcome.reports) == 5


def test_absurd_send_length_rejected():
    src = """
    char b[8];
    int main() { __send(b, 1073741824); return 0; }
    """
    boot = _boot(src)
    outcome = boot.run()
    assert outcome.status == "violation"
    assert "absurd" in outcome.detail


def test_time_blurring_quantizes_observable_cycles():
    src_fast = "int main() { return 1; }"
    src_slow = """
    int main() {
        int i; int a = 0;
        for (i = 0; i < 3000; i++) a += i;
        return a;
    }
    """
    quantum = 1_000_000
    fast = _boot(src_fast, p0=P0Config(pad_cycles_quantum=quantum)).run()
    slow = _boot(src_slow, p0=P0Config(pad_cycles_quantum=quantum)).run()
    assert fast.result.cycles != slow.result.cycles
    assert fast.observable_cycles == slow.observable_cycles == quantum
    assert fast.observable_cycles % quantum == 0


def test_time_blurring_off_by_default():
    outcome = _boot("int main() { return 1; }").run()
    assert outcome.observable_cycles == outcome.result.cycles


def test_encrypted_paths_require_channels():
    boot = BootstrapEnclave(policies=PolicySet.p1_only())
    with pytest.raises(ProtocolError, match="provider channel"):
        boot.receive_binary(b"x", encrypted=True)
    with pytest.raises(ProtocolError, match="owner channel"):
        boot.receive_userdata(b"x", encrypted=True)
    with pytest.raises(ProtocolError, match="unknown role"):
        boot.attach_channel(None, role="eavesdropper")


def test_ecall_table_is_exactly_the_p0_interface():
    boot = BootstrapEnclave(policies=PolicySet.p1_only())
    assert boot.enclave.ecall_names == (
        "ecall_ping", "ecall_receive_binary", "ecall_receive_userdata",
        "ecall_resume", "ecall_run")


def test_ping_reports_identity_without_touching_the_audit_chain():
    boot = BootstrapEnclave(policies=PolicySet.p1_only())
    first = boot.ping()
    second = boot.ping()
    assert first["mrenclave"] == boot.enclave.mrenclave.hex()
    assert not first["provisioned"]
    # Heartbeats are supervision traffic, not protocol events: however
    # often the fleet probes, the audit chain must not grow.
    assert first["audit_head"] == second["audit_head"]


def test_hw_aex_counter_accumulates():
    from repro.vm.interrupts import AexSchedule
    src = """
    int main() {
        int i; int a = 0;
        for (i = 0; i < 5000; i++) a += i;
        return a;
    }
    """
    boot = _boot(src)
    boot.run(aex_schedule=AexSchedule(2_000, jitter=0))
    boot.run(aex_schedule=AexSchedule(2_000, jitter=0))
    assert boot.enclave.hw_aex_count >= 10


# -- provisioning is a transaction --------------------------------------------

_GOOD = "int main() { __report(7); return 0; }"
#: Stores to address 16, far outside ELRANGE: only a binary compiled
#: without annotations does that, and the verifier rejects it.
_BAD = """
int main() {
    int *p = 16;
    *p = 1;
    __report(13);
    return 0;
}
"""


def test_rejected_reprovision_fails_closed():
    """An accepted binary, then a rejected one: no run ECall may
    execute either of them until a binary is accepted again."""
    from repro.errors import VerificationError
    policies = PolicySet.p1_p2()
    boot = BootstrapEnclave(policies=policies)
    boot.receive_binary(compile_source(_GOOD, policies).serialize())
    boot.receive_userdata(b"kept")
    with pytest.raises(VerificationError):
        boot.receive_binary(
            compile_source(_BAD, PolicySet.none()).serialize())
    for attempt in (lambda: boot.run(),
                    lambda: boot.run(checkpoint_every=5),
                    lambda: boot.run_threads([b""]),
                    lambda: boot.resume([])):
        with pytest.raises(EnclaveError, match="no verified binary"):
            attempt()
    assert not boot.ping()["provisioned"]
    assert boot.enclave.space.untrusted_writes == []
    assert [e.detail["status"] for e in
            boot.audit.filter("run_completed")] == []
    # Staged user data survives the binary change.
    boot.receive_binary(compile_source(_GOOD, policies).serialize())
    outcome = boot.run()
    assert (outcome.status, outcome.reports) == ("ok", [7])
    assert boot._input == b"kept"


def test_reused_cpu_runs_the_current_binary():
    """A CPU kept for warm re-runs must not survive a re-provision: the
    loader's privileged writes fire no code-write hook, so its blocks
    would still hold the previous binary."""
    from repro.vm.costmodel import CostModel
    policies = PolicySet.p1_only()
    loop = "int main() {{ int i; int s = 0; for (i = 0; i < 200; i++) " \
           "s = s + 1; __report({}); return 0; }}"
    boot = BootstrapEnclave(policies=policies)
    cm = CostModel()
    for value in (50, 100):
        boot.receive_binary(compile_source(loop.format(value), policies)
                            .serialize())
        assert boot.run(cost_model=cm, reuse_cpu=True).reports == [value]
    boot.recover()
    assert boot._cpu0 is None


def test_reuse_without_cost_model_reuses_the_cpu(monkeypatch):
    """``reuse_cpu`` keys on the caller's ``cost_model`` argument,
    ``None`` included: the second run reuses the same CPU and compiles
    nothing new."""
    import repro.core.bootstrap as bootstrap_mod
    from repro.bench.harness import restore_run_state, snapshot_run_state
    from repro.vm.translate import BlockCache
    built = []

    class CountingCPU(bootstrap_mod.CPU):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self)

    compiled = []
    real_compile = BlockCache.compile_block

    def counting_compile(cache, block, *args):
        compiled.append(block.start)
        return real_compile(cache, block, *args)

    monkeypatch.setattr(bootstrap_mod, "CPU", CountingCPU)
    monkeypatch.setattr(BlockCache, "compile_block", counting_compile)
    boot = _boot("int main() { int i; int s = 0; "
                 "for (i = 0; i < 500; i++) s = s + i; "
                 "__report(s); return 0; }")
    snap = snapshot_run_state(boot)
    first = boot.run(reuse_cpu=True, jit_eager=True)
    assert compiled
    del compiled[:]
    restore_run_state(boot, snap)
    second = boot.run(reuse_cpu=True)
    assert len(built) == 1 and compiled == []
    assert (second.status, second.reports, second.result.steps) == \
        (first.status, first.reports, first.result.steps)


def test_plain_run_after_checkpointed_run_tracks_nothing():
    from repro.bench.checkpointing import outcome_fingerprint
    src = """
    int buf[600];
    int main() {
        int i; int s = 0;
        for (i = 0; i < 600; i++) buf[i] = i;
        for (i = 0; i < 600; i++) s = s + buf[i];
        __report(s);
        return 0;
    }
    """
    want = outcome_fingerprint(_boot(src).run())
    boot = _boot(src)
    space = boot.enclave.space
    assert boot.run(checkpoint_every=500).checkpoints_taken > 0
    outcome = boot.run()
    assert space.dirty_tracking is False
    assert space.drain_dirty() == (frozenset(), frozenset())
    assert outcome_fingerprint(outcome) == want
