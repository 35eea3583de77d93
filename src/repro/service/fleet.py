"""Enclave fleet: supervised drones hosting two-party sessions.

The scheduler's worker pool, modeled on autotest's dispatcher split:
the *supervisor* (:class:`~repro.service.scheduler.FleetScheduler`)
owns all state and decisions, the *drones* do the work.  Each
:class:`Drone` is one platform slot — its own
:class:`~repro.sgx.quote.PlatformKey` (so seal fuses and monotonic
counters are genuinely per-platform, exactly the binding PR 5's
checkpoint sealing relies on), a
:class:`~repro.core.bootstrap.BootstrapEnclave` EINIT'd on it, and a
:class:`FleetHost` front door.  All drones share one
:class:`~repro.core.bootstrap.ProvisionCache` and one
:class:`~repro.sgx.attestation.AttestationService`, so re-dispatching
a job to another drone re-verifies its binary as a cache replay.

Two consequences of the platform binding shape the whole design:

* A sealed checkpoint chain can only ever be resumed on an EINIT of
  the same MRENCLAVE *on the same platform* — the seal key embeds the
  platform fuse and the chain head is checked against the platform
  counter.  "Failover via checkpoints" therefore means *replacing the
  enclave instance on the drone's platform* (a fresh EINIT, tracked by
  :attr:`Drone.generation`) and resuming there; moving a chain to a
  different platform is by construction a rollback and is rejected.
  Cross-platform failover discards the chain and reruns from scratch.
* Checkpoint counters are strictly consecutive per platform, so at
  most one checkpointed chain may be in flight per drone at a time —
  the scheduler's chain-owner rule.

Unlike :class:`~repro.service.protocol.CCaaSHost`, a
:class:`FleetHost` does **not** auto-recover a torn-down enclave
inside the session retry loop (``ensure_alive`` is a no-op): in a
fleet, deciding *where* a job runs next is the supervisor's call, not
the session's.
"""

from __future__ import annotations

from typing import List, Optional

from ..core.bootstrap import BootstrapEnclave, ProvisionCache
from ..errors import EnclaveTeardown
from ..policy.policies import PolicySet
from ..sgx.attestation import AttestationService
from ..sgx.quote import PlatformKey
from .protocol import CCaaSHost

#: Drone states the supervisor moves a drone through.
READY = "ready"
QUARANTINED = "quarantined"


class FleetHost(CCaaSHost):
    """Host front door for one drone, with a fleet-grade fault hook.

    ``ensure_alive`` never recovers: a dead enclave stays dead until
    the supervisor decides to replace it (see module docstring).
    :meth:`fail_pings` makes the next ``n`` heartbeats raise — an
    unresponsive-but-alive drone (an AEX storm, a wedged host thread),
    the signal that drives quarantine.  The mid-fleet drone kill that
    drives failover is the inherited
    :meth:`~repro.service.protocol.CCaaSHost.arm_kill`.
    """

    def __init__(self, bootstrap: BootstrapEnclave,
                 attestation_service: AttestationService):
        super().__init__(bootstrap, attestation_service)
        self._pings_to_fail = 0

    def ensure_alive(self) -> bool:
        return False

    def fail_pings(self, n: int) -> None:
        self._pings_to_fail += n

    def ecall_ping(self):
        if self._pings_to_fail > 0:
            self._pings_to_fail -= 1
            raise EnclaveTeardown("drone unresponsive (injected storm)")
        return super().ecall_ping()


class Drone:
    """One supervised platform slot of the fleet."""

    def __init__(self, drone_id: str, *,
                 policies: Optional[PolicySet] = None,
                 provision_cache: Optional[ProvisionCache] = None,
                 attestation: Optional[AttestationService] = None,
                 aex_threshold: int = 50):
        self.drone_id = drone_id
        self.policies = policies if policies is not None \
            else PolicySet.full()
        self.aex_threshold = aex_threshold
        #: The drone's own platform: seal fuse + monotonic counters.
        self.platform = PlatformKey(f"fleet-platform:{drone_id}".encode())
        self.attestation = attestation or AttestationService()
        self.cache = provision_cache
        self.bootstrap = BootstrapEnclave(
            policies=self.policies, platform=self.platform,
            aex_threshold=aex_threshold,
            provision_cache=provision_cache)
        self.host = FleetHost(self.bootstrap, self.attestation)
        #: EINIT generation — bumps on every instance replacement, so
        #: ``einit_id`` names one concrete enclave instance and a
        #: migrated session can prove it resumed on a different one.
        self.generation = 0
        self.state = READY
        self.consecutive_failures = 0
        #: How many times this drone has been quarantined; the
        #: re-admission backoff doubles with it.
        self.quarantine_round = 0
        self.quarantined_until = 0
        self.sessions_served = 0
        self.replacements = 0

    @property
    def einit_id(self) -> str:
        return f"{self.drone_id}#e{self.generation}"

    @property
    def mrenclave(self) -> bytes:
        return self.bootstrap.enclave.mrenclave

    def heartbeat(self) -> bool:
        """One supervision probe.  True iff the drone answered and the
        answer carries the expected measured identity (a replaced
        instance lying about its measurement would fail here before it
        ever failed an attested handshake)."""
        try:
            answer = self.host.ecall_ping()
            return answer["mrenclave"] == \
                self.bootstrap.enclave.mrenclave.hex()
        except Exception:
            return False

    def replace(self) -> str:
        """Fresh EINIT on the same platform (same MRENCLAVE, same seal
        fuse, same monotonic counters — parked chains stay resumable).
        Returns the new ``einit_id``."""
        if not self.bootstrap.enclave.destroyed:
            self.bootstrap.enclave.destroy()
        self.bootstrap.recover(reason="fleet-replace")
        self.generation += 1
        self.replacements += 1
        self.consecutive_failures = 0
        return self.einit_id


def build_fleet(n: int, *,
                policies: Optional[PolicySet] = None,
                aex_threshold: int = 50) -> List[Drone]:
    """``n`` drones sharing one provision cache and one attestation
    service (shared verifier state is what makes re-dispatch cheap and
    an attestation outage a *fleet-wide* event, as in §III-A)."""
    cache = ProvisionCache()
    attestation = AttestationService()
    return [Drone(f"drone-{i}", policies=policies,
                  provision_cache=cache, attestation=attestation,
                  aex_threshold=aex_threshold)
            for i in range(n)]
