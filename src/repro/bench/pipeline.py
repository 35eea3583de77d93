"""Pipeline throughput/robustness benchmark (``repro bench --pipeline``).

Sweeps the multi-enclave provenance pipeline
(:mod:`repro.service.pipeline`) over a small matrix:

* **topology** — the 3-stage ``filter-score-agg`` chain and the
  4-stage ``stream-map4`` chain;
* **mode** — ``batch`` (one work item end to end) and ``stream``
  (chunked records through long-lived sessions under a bounded
  in-flight window, with per-record channel rekeying);
* **faults** — ``clean`` (honest hosts) and ``chaos`` (a seeded
  :class:`~repro.service.faults.PipelineFaultPlan`: wire mangling,
  transient ECalls, mid-hop teardowns, handoff/chain attacks, stalls,
  quarantines).

Every cell's output is chain-verified (the full provenance chain of
every chunk re-verified against the pipeline input and final output
digests) and compared byte-for-byte against the **unfaulted serial
oracle** — the same verified stages run plainly, chunk by chunk.  A
cell whose run completes but fails either check is marked
``divergent`` and never feeds a baseline.

Each cell is one store cell keyed ``(topology, mode-faults, chunks)``.
Link/hop/chunk counts, resume and retry counters, rejected-handoff and
rejected-chain-attack counts, migrations, stalls, discard-reruns and
the chain-verified / output-identical booleans are deterministic (pure
functions of the seed).  Total wall seconds, throughput
``records_per_s`` (tagged ``higher``) and the p99 per-chunk latency
``chunk_p99_s`` are tagged ``wall``.
"""

from __future__ import annotations

import time
from typing import List

from ..core.bootstrap import ProvisionCache
from ..service.faults import PipelineFaultPlan, pipeline_data, pipeline_trial
from ..service.pipeline import TOPOLOGIES, topology_stages
from . import store

#: Fault settings swept per (topology, mode) pair.
FAULT_SETTINGS = ("clean", "chaos")

#: Stream cells ratchet every channel's keys after this many records.
REKEY_EVERY = 64


def _percentile(values: List[float], q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    index = min(len(ordered) - 1, int(q * (len(ordered) - 1) + 0.5))
    return ordered[index]


def _run_cell(seed: int, topology: str, mode: str, faults: str, *,
              data_len: int, chunk_size: int,
              cache: ProvisionCache) -> dict:
    stages = len(topology_stages(topology))
    # NOT hash(): string hashing is per-process randomized and the
    # chaos cells' deterministic counters must replay byte-identically
    # (and identically between the smoke subset and the full matrix).
    trial = sum(f"{topology}/{mode}/{faults}".encode()) % 97
    plan = None
    if faults == "chaos":
        plan = PipelineFaultPlan(seed * 1_000_003 + trial * 131 + stages)
    began = time.perf_counter()
    row, run = pipeline_trial(
        topology, mode, pipeline_data(trial, length=data_len), plan=plan,
        pipeline_id=f"bench-{topology}-{mode}-{faults}", seed=seed,
        cache=cache, chunk_size=chunk_size, rekey_every=REKEY_EVERY)
    wall_s = time.perf_counter() - began
    stats, counters = row["stats"], row["counters"]
    status = row["status"]
    if status == "ok" and not (row["chain_verified"] and row["identical"]):
        status = "divergent"
    return store.cell(
        "pipeline", topology, f"{mode}-{faults}", run.chunks, {
            "chain_verified": row["chain_verified"],
            "output_identical": row["identical"],
            "links": counters["links"],
            "chunks": run.chunks,
            "stages": stages,
            "resumes": stats["resumes"],
            "retries": stats["retries"],
            "recoveries": stats["recoveries"],
            "rollbacks_rejected": stats["rollbacks_rejected"],
            "handoffs_rejected": counters["handoffs_rejected"],
            "chain_attacks_rejected": counters["chain_attacks_rejected"],
            "attacks_accepted": counters["attacks_accepted"],
            "discard_reruns": counters["discard_reruns"],
            "migrations": counters["migrations"],
            "stalls": counters["stalls"],
            "upstream_excess": counters["upstream_excess"],
            "wall_s": wall_s,
            "records_per_s": run.chunks / wall_s if wall_s else 0.0,
            "chunk_p99_s": _percentile(run.chunk_latencies, 0.99),
        }, wall=("wall_s", "records_per_s", "chunk_p99_s"),
        higher=("records_per_s",), status=status,
        detail=run.detail or run.chain_detail)


def run_pipeline_bench(seed: int = 2021, *,
                       topologies=TOPOLOGIES,
                       modes=("batch", "stream"),
                       fault_settings=FAULT_SETTINGS,
                       data_len: int = 96,
                       chunk_size: int = 16) -> dict:
    """Run the pipeline bench matrix; JSON-ready document."""
    cache = ProvisionCache()
    began = time.perf_counter()
    cells = [_run_cell(seed, topology, mode, faults, data_len=data_len,
                       chunk_size=chunk_size, cache=cache)
             for topology in topologies
             for mode in modes
             for faults in fault_settings]
    bad = [c for c in cells if c["status"] != "ok"]
    return {
        "schema": store.DOC_SCHEMA,
        "kind": "pipeline",
        "seed": seed,
        "status": "ok" if not bad else bad[0]["status"],
        "all_chain_verified": all(c["metrics"]["chain_verified"]
                                  for c in cells),
        "all_output_identical": all(c["metrics"]["output_identical"]
                                    for c in cells),
        "wall_s": time.perf_counter() - began,
        "provision_cache": cache.stats(),
        "cells": cells,
    }


def smoke_params() -> dict:
    """Small-matrix parameters for the CI ``pipeline-smoke`` job: one
    topology, both modes, clean hosts only."""
    return {"topologies": ("filter-score-agg",),
            "fault_settings": ("clean",),
            "data_len": 48, "chunk_size": 16}


def format_pipeline_table(doc: dict) -> str:
    """Human-oriented summary table of a pipeline bench document."""
    from .tables import format_table
    rows = []
    for cell in doc["cells"]:
        m = cell["metrics"]
        rows.append([
            f"{cell['workload']}/{cell['setting']}",
            cell["status"],
            "yes" if m["chain_verified"] else "NO",
            "yes" if m["output_identical"] else "NO",
            str(m["resumes"]),
            str(m["handoffs_rejected"] + m["chain_attacks_rejected"]),
            f"{m['records_per_s']:.1f}",
            f"{m['chunk_p99_s'] * 1000:.0f}ms",
        ])
    title = f"pipeline bench (seed {doc['seed']}, status {doc['status']})"
    return format_table(
        title,
        ["cell", "status", "chain", "identical", "resumes",
         "rejected", "rec/s", "chunk p99"],
        rows)
