"""Fleet throughput/latency benchmark (``repro bench --fleet``).

Drives a :class:`~repro.service.scheduler.FleetScheduler` through a
**seeded open-loop arrival process**: session jobs arrive at
exponentially distributed inter-arrival ticks *regardless of how the
fleet is keeping up* (the arrival clock never waits for completions —
that is what makes the latency percentiles honest under overload;
admission control is what sheds the excess, typed).  The job mix is
mostly short checksum sessions plus every ``long_every``-th a long
checkpointed job run under a preemption quantum, and every drone
starts with a one-shot mid-run kill armed — so the first long job
dispatched provably dies mid-flight, its platform gets a fresh EINIT,
and the sealed chain resumes on the *new* instance: the campaign
always exercises at least one checkpoint migration, and the bench
verifies the migrated session's output byte-for-byte against the
analytic expectation.

The document carries one store cell for the campaign plus one per
tenant.  Session counts, shed counts, supervision-tick latency
percentiles, migration/zero-lost booleans and scheduler counters are
deterministic (pure functions of the seed); total wall time, seconds
per completed session and the wall-scaled latency percentiles are
tagged ``wall``.  Every stored numeric metric is lower-is-better; the
human summary also reports ``sessions_per_sec``.
"""

from __future__ import annotations

import random
import time
from typing import List

from ..service.faults import drive_fleet, fleet_job
from ..service.fleet import build_fleet
from ..service.scheduler import FleetScheduler
from . import store

#: Mean inter-arrival gap of the open-loop arrival process, in ticks.
ARRIVAL_MEAN_TICKS = 1.5


def _arrival_ticks(rng: random.Random, sessions: int,
                   mean_ticks: float) -> List[int]:
    """Open-loop arrival schedule: cumulative exponential gaps."""
    clock = 0.0
    ticks = []
    for _ in range(sessions):
        clock += rng.expovariate(1.0 / mean_ticks)
        ticks.append(int(clock))
    return ticks


def run_fleet_bench(seed: int = 2021, *,
                    drones: int = 4,
                    sessions: int = 32,
                    tenants: int = 4,
                    long_every: int = 4,
                    kill_after_steps: int = 600,
                    tenant_quota: int = 4,
                    max_queue: int = 16,
                    max_ticks: int = 400) -> dict:
    """Run one seeded open-loop fleet campaign; JSON-ready document."""
    fleet = build_fleet(drones)
    scheduler = FleetScheduler(fleet, seed=seed,
                               tenant_quota=tenant_quota,
                               max_queue=max_queue)
    for drone in fleet:
        drone.host.arm_kill(kill_after_steps)
    rng = random.Random(f"fleet-bench:{seed}")
    arrivals = []
    for index, tick in enumerate(
            _arrival_ticks(rng, sessions, ARRIVAL_MEAN_TICKS)):
        data = bytes((seed + 7 * index + k) % 251
                     for k in range(8 + index % 7))
        long = index % long_every == long_every - 1
        job, want = fleet_job(f"s{index:03d}", f"tenant-{index % tenants}",
                              data, long)
        arrivals.append((tick, job, want))

    began = time.perf_counter()
    corrupt = drive_fleet(scheduler, arrivals, max_ticks=max_ticks)
    wall_s = time.perf_counter() - began

    report = scheduler.report()
    counters = report["counters"]
    lost = report["lost"]
    completed = counters["completed"]
    migrated_jobs = report["migrated_jobs"]
    migration_check = None
    if migrated_jobs:
        first = migrated_jobs[0]
        migration_check = {
            **first,
            "outputs_match": first["job_id"] not in corrupt,
        }
    latency = report["latency_ticks"]
    ticks = report["ticks"]
    tick_s = wall_s / ticks if ticks else 0.0
    status = "ok"
    if corrupt:
        status = "corrupt"
    elif lost:
        status = "lost-sessions"
    elif not migrated_jobs:
        status = "no-migration"
    sec_per_session = wall_s / completed if completed else 0.0
    latency_s = {"p50": latency["p50"] * tick_s,
                 "p99": latency["p99"] * tick_s}
    cells = [store.cell(
        "fleet", "campaign", f"d{drones}", sessions, {
            "zero_lost": not lost,
            "migrated": counters["migrations"] > 0,
            "completed": completed,
            "shed": counters["shed"],
            "dispatches": counters["dispatches"],
            "preemptions": counters["preemptions"],
            "replacements": counters["replacements"],
            "rollbacks_rejected": report["stats"]["rollbacks_rejected"],
            "ticks": ticks,
            "p50_ticks": latency["p50"],
            "p99_ticks": latency["p99"],
            "wall_s": wall_s,
            "sec_per_session": sec_per_session,
            "p50_s": latency_s["p50"],
            "p99_s": latency_s["p99"],
        }, wall=("wall_s", "sec_per_session", "p50_s", "p99_s"),
        status=status, detail=";".join(corrupt + lost))]
    for tenant, tstats in sorted(report["tenants"].items()):
        cells.append(store.cell(
            "fleet", "tenant", tenant, sessions,
            {name: tstats[name]
             for name in ("attempts", "retries", "fatal_errors",
                          "resumes", "rollbacks_rejected")},
            status=status))
    return {
        "schema": store.DOC_SCHEMA,
        "kind": "fleet",
        "seed": seed,
        "status": status,
        "drones": drones,
        "sessions": sessions,
        "tenants": tenants,
        "arrival_mean_ticks": ARRIVAL_MEAN_TICKS,
        "ticks": ticks,
        "counters": counters,
        "lost": lost,
        "corrupt": corrupt,
        "zero_lost": not lost,
        "shed": report["shed"],
        "latency_ticks": latency,
        "latency_s": latency_s,
        "wall_s": wall_s,
        "sessions_per_sec": completed / wall_s if wall_s else 0.0,
        "sec_per_session": sec_per_session,
        "migration_check": migration_check,
        "migrated_jobs": migrated_jobs,
        "tenants_stats": report["tenants"],
        "stats": report["stats"],
        "drones_detail": report["drones"],
        "cells": cells,
    }


def smoke_params() -> dict:
    """Small-pool parameters for the CI ``fleet-smoke`` job."""
    return {"drones": 3, "sessions": 10, "tenants": 3,
            "long_every": 3, "max_queue": 12, "tenant_quota": 3}


def format_fleet_table(doc: dict) -> str:
    """Human-oriented summary table of a fleet bench document."""
    from .tables import format_table
    counters = doc["counters"]
    lt = doc["latency_ticks"]
    rows = [
        ["sessions submitted", str(doc["sessions"])],
        ["admitted / completed",
         f"{counters['admitted']} / {counters['completed']}"],
        ["shed (typed)", str(counters["shed"])],
        ["lost", str(len(doc["lost"]))],
        ["migrations", str(counters["migrations"])],
        ["preemptions", str(counters["preemptions"])],
        ["replacements / quarantines",
         f"{counters['replacements']} / {counters['quarantines']}"],
        ["rollbacks rejected",
         str(doc["stats"]["rollbacks_rejected"])],
        ["latency ticks p50/p99",
         f"{lt['p50']:g} / {lt['p99']:g}"],
        ["sessions/sec", f"{doc['sessions_per_sec']:.1f}"],
        ["wall", f"{doc['wall_s']:.2f}s over {doc['ticks']} ticks"],
    ]
    title = (f"fleet bench (seed {doc['seed']}, {doc['drones']} drones"
             f", status {doc['status']})")
    return format_table(title, ["metric", "value"], rows)
