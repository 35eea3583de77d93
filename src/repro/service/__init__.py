"""Confidential computing as a service (CCaaS) layer.

Implements the paper's delegation model end to end: an untrusted host
runs the bootstrap enclave; a *code provider* delivers a proprietary
instrumented binary over its own attested channel; a *data owner*
attests the same bootstrap, approves the service-code measurement,
uploads encrypted data and receives encrypted, padded results.  Neither
party sees the other's secret; the host sees neither.
"""

from .protocol import CCaaSHost, establish_session
from .roles import CodeProvider, DataOwner
from .https_sim import HttpsServerSim, LoadGenerator, HttpsLoadResult
from .faults import FaultPlan, FaultyHost, run_chaos
from .resilient import (
    ResilientSession, RetryPolicy, SessionStats, TwoPartyWorkflow,
    classify_error,
)
from .fleet import Drone, FleetHost, build_fleet
from .scheduler import FleetScheduler, SessionJob

__all__ = [
    "CCaaSHost", "establish_session",
    "CodeProvider", "DataOwner",
    "HttpsServerSim", "LoadGenerator", "HttpsLoadResult",
    "FaultPlan", "FaultyHost", "run_chaos",
    "ResilientSession", "RetryPolicy", "SessionStats",
    "TwoPartyWorkflow", "classify_error",
    "Drone", "FleetHost", "build_fleet",
    "FleetScheduler", "SessionJob",
]
