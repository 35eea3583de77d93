"""Annotation-full vs annotation-light ablation (static proof tier).

For each (workload, policy setting) cell this sweep compiles the
workload twice — annotation-full (every guard inline) and
annotation-light (provably-safe guards elided, proofs shipped) — runs
both end-to-end through provisioning and execution, and records:

* the deterministic cycle accounts and the overhead each binary pays
  over the unpoliced baseline (the paper's Table II axis);
* static guard-site counts from the analyzer — how many runtime guards
  each binary actually carries, per policy, plus the annotation bytes
  the proofs saved;
* the differential safety checks: the light binary must pass full
  verification (its proof log re-derived in-enclave) and produce
  byte-identical reports to the full binary.

A light cell that fails verification, diverges, or pays *more*
overhead than full is marked failed — the ablation is a correctness
gate as much as a measurement.
"""

from __future__ import annotations

import multiprocessing
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional

from ..analysis import analyze_object
from ..compiler.objfile import ObjectFile
from ..errors import ReproError
from ..policy.policies import PolicySet
from ..workloads import get_workload
from . import store
from .harness import compile_workload, run_workload

#: The guard-bearing settings of the paper matrix (baseline has no
#: guards to elide; P1-P6 adds AEX markers the proof tier leaves
#: untouched, so P1-P5 is the widest interesting column).
STATIC_SETTINGS = ("P1", "P1+P2", "P1-P5")


@dataclass
class StaticResult:
    """One (workload, setting) ablation cell."""

    workload: str
    setting: str
    param: Optional[int] = None
    steps: int = 0
    cycles_full: float = 0.0
    cycles_light: float = 0.0
    #: Overhead over the unpoliced baseline, percent of baseline.
    overhead_full_pct: float = 0.0
    overhead_light_pct: float = 0.0
    #: How much of the full-annotation overhead the proofs removed.
    overhead_cut_pct: float = 0.0
    #: Runtime guard sites (store + rsp + indirect) in each binary.
    guard_sites_full: int = 0
    guard_sites_light: int = 0
    #: Elided sites by proof kind, and the proof-log length.
    elided: Dict[str, int] = field(default_factory=dict)
    proof_entries: int = 0
    text_bytes_full: int = 0
    text_bytes_light: int = 0
    annotation_bytes_saved: int = 0
    #: Differential checks: light verified in-enclave, same reports.
    verified_light: bool = False
    outputs_identical: bool = False
    status: str = "ok"
    detail: str = ""

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    def cell(self) -> dict:
        """This result as a results-store cell.  Cycle accounts come
        from the simulated cost model and guard-site counts from the
        static analyzer, so every metric is deterministic."""
        return store.cell(
            "static", self.workload, self.setting, self.param,
            {"cycles_light": self.cycles_light,
             "overhead_full_pct": round(self.overhead_full_pct, 4),
             "overhead_light_pct": round(self.overhead_light_pct, 4),
             "overhead_cut_pct": round(self.overhead_cut_pct, 4),
             "guard_sites_full": self.guard_sites_full,
             "residual_guard_sites": self.guard_sites_light,
             "proof_entries": self.proof_entries,
             "text_bytes_light": self.text_bytes_light,
             "outputs_identical": self.outputs_identical,
             "verified_light": self.verified_light},
            higher=("overhead_cut_pct", "proof_entries"),
            status=self.status, detail=self.detail)


def _guard_sites(report) -> int:
    """Per-site runtime guards in a binary (the shadow prologue/
    epilogue and P6 markers are structural, not elidable sites)."""
    from ..policy.templates import AnnotationKind as K
    guard_kinds = {K.STORE_GUARD, K.RSP_GUARD, K.INDIRECT}
    return sum(count for kind, count in report.annotation_counts.items()
               if kind in guard_kinds)


def measure_static_cell(workload: str, setting: str,
                        param: Optional[int] = None) -> StaticResult:
    """Run the full/light ablation for one cell."""
    effective = param if param is not None \
        else get_workload(workload).default_param
    result = StaticResult(workload=workload, setting=setting,
                          param=effective)
    policies = PolicySet.parse(setting)

    base = run_workload(workload, "baseline", param)
    full = run_workload(workload, setting, param)
    light = run_workload(workload, setting, param, light=True)
    result.verified_light = light.status == "ok"
    # Reports, not steps: the light binary retires fewer instructions
    # by construction (that is the point); its *outputs* must match.
    result.outputs_identical = full.reports == light.reports

    obj_full = ObjectFile.parse(compile_workload(workload, setting,
                                                 param))
    obj_light = ObjectFile.parse(compile_workload(workload, setting,
                                                  param, light=True))
    rep_full = analyze_object(obj_full, policies)
    rep_light = analyze_object(obj_light, policies)

    result.steps = light.steps
    result.cycles_full = full.cycles
    result.cycles_light = light.cycles
    if base.cycles > 0:
        result.overhead_full_pct = \
            100.0 * (full.cycles - base.cycles) / base.cycles
        result.overhead_light_pct = \
            100.0 * (light.cycles - base.cycles) / base.cycles
    over_full = full.cycles - base.cycles
    if over_full > 0:
        result.overhead_cut_pct = \
            100.0 * (full.cycles - light.cycles) / over_full
    result.guard_sites_full = _guard_sites(rep_full)
    result.guard_sites_light = _guard_sites(rep_light)
    result.elided = dict(rep_light.elided_counts)
    result.proof_entries = len(obj_light.proofs)
    result.text_bytes_full = len(obj_full.text)
    result.text_bytes_light = len(obj_light.text)
    result.annotation_bytes_saved = rep_light.annotation_bytes_saved

    if not result.verified_light:
        result.status = "unverified"
        result.detail = light.detail
    elif not result.outputs_identical:
        result.status = "divergent"
        result.detail = (f"light reports {light.reports} != "
                         f"full {full.reports}")
    elif result.cycles_light > result.cycles_full:
        result.status = "slower"
        result.detail = ("annotation-light paid more cycles than "
                         "annotation-full")
    return result


def _safe_static_cell(name: str, setting: str, param,
                      strict: bool) -> StaticResult:
    try:
        return measure_static_cell(name, setting, param=param)
    except (ReproError, KeyError, ValueError) as exc:
        if strict:
            raise
        return StaticResult(workload=name, setting=setting,
                            status="error", detail=str(exc))


#: Worker-side sweep parameters for the fork pool.
_SPOOL_STATE: dict = {}


def _spool_init(param, strict) -> None:
    _SPOOL_STATE.update(param=param, strict=strict)


def _spool_cell(name: str, setting: str) -> StaticResult:
    state = _SPOOL_STATE
    return _safe_static_cell(name, setting, state["param"],
                             state["strict"])


class StaticMatrix(dict):
    """A ``{workload: {setting: StaticResult}}`` ablation sweep; its
    document is sweep totals plus one store cell per cell."""

    def __init__(self, parallelism: int = 1):
        super().__init__()
        self.parallelism = parallelism

    @classmethod
    def collect(cls, workloads: Iterable[str],
                settings=STATIC_SETTINGS,
                param: Optional[int] = None,
                jobs: int = 1,
                strict: bool = True) -> "StaticMatrix":
        workloads = list(workloads)
        settings = tuple(settings)
        jobs = max(1, int(jobs))
        matrix = cls(parallelism=jobs)
        tasks = [(name, setting) for name in workloads
                 for setting in settings]
        if jobs == 1 or not tasks:
            cells = [_safe_static_cell(name, setting, param, strict)
                     for name, setting in tasks]
        else:
            # Compile both variants in the parent so forked workers
            # inherit the warm compile cache.
            for name, setting in tasks:
                for light in (False, True):
                    try:
                        compile_workload(name, setting, param,
                                         light=light)
                    except (ReproError, KeyError, ValueError):
                        if strict:
                            raise
            try:
                ctx = multiprocessing.get_context("fork")
            except ValueError:  # pragma: no cover - non-POSIX fallback
                ctx = multiprocessing.get_context()
            with ctx.Pool(processes=min(jobs, len(tasks)),
                          initializer=_spool_init,
                          initargs=(param, strict)) as pool:
                cells = pool.starmap(_spool_cell, tasks)
        for (name, setting), cell in zip(tasks, cells):
            matrix.setdefault(name, {})[setting] = cell
        return matrix

    @property
    def cells(self) -> List[StaticResult]:
        return [cell for row in self.values() for cell in row.values()]

    @property
    def failures(self) -> List[str]:
        return [f"{c.workload}/{c.setting}" for c in self.cells
                if not c.ok]

    def totals(self) -> dict:
        ok = [c for c in self.cells if c.ok]
        sites_full = sum(c.guard_sites_full for c in ok)
        sites_light = sum(c.guard_sites_light for c in ok)
        cuts = [c.overhead_cut_pct for c in ok]
        return {
            "cells": len(self.cells),
            "guard_sites_full": sites_full,
            "guard_sites_light": sites_light,
            "elided_sites": sum(c.proof_entries for c in ok),
            "annotation_bytes_saved": sum(c.annotation_bytes_saved
                                          for c in ok),
            "mean_overhead_cut_pct": round(sum(cuts) / len(cuts), 2)
            if cuts else 0.0,
            "min_overhead_cut_pct": round(min(cuts), 2) if cuts else 0.0,
            "failed_cells": self.failures,
        }

    def to_json(self) -> dict:
        return {
            "schema": store.DOC_SCHEMA,
            "kind": "static",
            "parallelism": self.parallelism,
            "totals": self.totals(),
            "cells": [c.cell() for c in self.cells],
        }
