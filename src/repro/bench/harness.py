"""Run-matrix helpers shared by the test suite and the benchmarks.

``run_workload`` executes one workload under one policy setting through
the *full* pipeline — compile, instrument, link, serialize, parse, load,
RDD, verify, rewrite, execute — and returns the deterministic cycle
account.  ``overhead_matrix`` sweeps the paper's five policy settings
and computes overhead percentages relative to the baseline (the pure
loader, as in §VI-B).

Two layers of amortization keep sweeps fast:

* compiled objects are memoised — the same (source, policies) pair is
  compiled once per process;
* provisioning goes through the process-wide
  :data:`~repro.core.bootstrap.PROVISION_CACHE`, so re-running a cell
  (both-executor comparisons, figure size sweeps over one binary)
  skips RDD + verification + imm rewriting.

``RunMatrix.collect(jobs=N)`` fans the workload × setting cells out to
a ``multiprocessing`` worker pool.  Cells are compiled once in the
parent (the fork inherits the warm compile cache), every cell is
deterministic, and the merge re-assembles rows in sweep order — so the
parallel matrix's cell values (steps, cycles, aex_events, overhead_pct)
are byte-identical to a serial run; only ``wall_s``/``ips`` may differ.
"""

from __future__ import annotations

import functools
import hashlib
import multiprocessing
import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple, Union

from ..compiler.frontend import compile_source
from ..core.bootstrap import PROVISION_CACHE, BootstrapEnclave, RunOutcome
from ..errors import ProtocolError, ReproError, RetryBudgetExceeded
from ..policy.policies import PolicySet
from ..sgx.layout import EnclaveConfig
from ..vm.costmodel import CostModel
from ..vm.interrupts import AexSchedule
from ..workloads import Workload, get_workload
from . import store

#: The evaluation columns of Table II / Figs 7-9.
PAPER_SETTINGS = ("baseline", "P1", "P1+P2", "P1-P5", "P1-P6")

#: Timed repetitions per steady-state cell (minimum wall wins).  The
#: repetitions are bit-identical replays of one warm execution, so
#: their spread is host-scheduler noise, not workload variance.
WARM_REPS = 3


@dataclass
class BenchResult:
    """One cell of a run matrix."""

    workload: str
    setting: str
    param: int
    steps: int
    cycles: float
    reports: List[int] = field(default_factory=list)
    aex_events: int = 0
    text_bytes: int = 0
    status: str = "ok"
    #: Failure reason when ``status != "ok"`` (non-strict sweeps).
    detail: str = ""
    #: Host wall-clock seconds of the execute phase only (the enclave
    #: run, excluding compile/link/load/verify) — the executor
    #: comparison metric.
    wall_s: float = 0.0
    #: Overhead vs the row baseline, attached by ``overhead_matrix``.
    overhead_pct: float = 0.0
    #: Provision-cache hits observed while provisioning this cell.
    provision_cache_hits: int = 0
    #: Chaos-mode counters (``chaos_seed``): attempts repeated after an
    #: injected fault, and enclave rebuilds after injected teardowns.
    retries: int = 0
    recoveries: int = 0
    #: Translating-executor counters for the measured run (compiles,
    #: dispatches, invalidations, mean instructions retired per
    #: dispatch); None under the step engine.
    jit: Optional[dict] = None
    #: Bench executor label and JIT tier of the engine that ran the
    #: cell (see :func:`engine`).
    executor: str = "translate"
    tier: int = 2

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    @property
    def ips(self) -> float:
        """Retired instructions per host wall-clock second."""
        return self.steps / self.wall_s if self.wall_s > 0 else 0.0

    def overhead_vs(self, baseline: "BenchResult") -> float:
        """Relative overhead in percent (cycle account)."""
        if baseline.cycles == 0:
            return 0.0
        return 100.0 * (self.cycles - baseline.cycles) / baseline.cycles

    def cell(self) -> dict:
        """This result as a results-store cell.  The cost model is
        simulated, so every metric but ``wall_s`` is deterministic."""
        return store.cell(
            "vm", self.workload, self.setting, self.param,
            {"cycles": self.cycles, "steps": self.steps,
             "aex_events": self.aex_events,
             "text_bytes": self.text_bytes,
             "overhead_pct": round(self.overhead_pct, 4),
             "wall_s": round(self.wall_s, 6)},
            wall=("wall_s",), executor=self.executor, tier=self.tier,
            status=self.status, detail=self.detail)


def engine(cost_model: CostModel) -> Tuple[str, int]:
    """The bench executor label and JIT tier a cost model runs: the
    step oracle (tier 0) or the translator (tier 2; tier 1 was the
    deleted block-at-a-time translator, so results-history keys stay
    stable)."""
    if cost_model.executor == "step":
        return "step", 0
    return "translate", 2


@functools.lru_cache(maxsize=256)
def _compile_cached(source: str, label: str, light: bool = False) -> bytes:
    return compile_source(source, PolicySet.parse(label),
                          light=light).serialize()


def _chaos_plan_seed(chaos_seed: int, name: str, setting: str,
                     param) -> int:
    """Per-cell fault-plan seed.  Derived with a real hash (not
    ``hash()``, which is salted per process) so serial and pool runs of
    the same sweep inject identical faults."""
    digest = hashlib.sha256(
        f"{chaos_seed}:{name}:{setting}:{param}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def _chaos_cell(boot: BootstrapEnclave, blob: bytes, input_bytes: bytes,
                plan, label: str, **run_kwargs):
    """Provision + run one cell under an injected-fault plan.

    Every attempt redoes the whole provisioning (re-delivery is cheap:
    the undamaged blob is a provision-cache hit), so a teardown can
    never leave a half-provisioned enclave for the next attempt.  The
    delivered blob may be corrupted or truncated in flight; the
    measurement re-check catches whatever the parser/verifier does not.
    No AEX storms are injected here — chaos must not change the cell's
    cycle accounting, only its path to completion.

    An error on an attempt that charged no fault is genuine and
    propagates immediately.  Returns ``(outcome, wall_s, retries,
    recoveries)``; the fault budget bounds the loop, so
    ``max_faults + 2`` attempts provably suffice.
    """
    expected = hashlib.sha256(blob).digest()
    retries = recoveries = 0
    last = None
    for _ in range(plan.max_faults + 2):
        charged = len(plan.injected)
        try:
            if boot.enclave.destroyed:
                boot.recover()
                recoveries += 1
            delivered, _ = plan.mangle_blob(blob)
            plan.gate(boot, "receive_binary")
            if boot.receive_binary(delivered) != expected:
                raise ProtocolError(
                    "enclave measured a different binary "
                    "(corrupted delivery)")
            if input_bytes:
                plan.gate(boot, "receive_userdata")
                boot.receive_userdata(input_bytes)
            plan.gate(boot, "run")
            t0 = time.perf_counter()
            outcome = boot.run(**run_kwargs)
            return outcome, time.perf_counter() - t0, retries, recoveries
        except ReproError as exc:
            if len(plan.injected) == charged:
                raise
            retries += 1
            last = exc
    raise RetryBudgetExceeded(
        f"{label}: chaos retries exhausted "
        f"(last: {type(last).__name__}: {last})") from last


def snapshot_run_state(boot: BootstrapEnclave):
    """Capture everything a warm re-run must rewind: the enclave RAM
    image plus platform AEX bookkeeping.  Take it *after* provisioning
    (and userdata delivery); restore between the untimed warm-up run
    and each measured repetition.  Measurement machinery — it lives
    here rather than on the enclave so the TCB stays benchmark-free."""
    return boot.enclave.space.snapshot_ram(), boot.enclave.hw_aex_count


def restore_run_state(boot: BootstrapEnclave, snap) -> None:
    """Restore a :func:`snapshot_run_state` image in place."""
    boot.enclave.space.restore_ram(snap[0])
    boot.enclave.hw_aex_count = snap[1]


def compile_workload(workload: Union[str, Workload], setting: str,
                     param: Optional[int] = None,
                     light: bool = False) -> bytes:
    if isinstance(workload, str):
        workload = get_workload(workload)
    return _compile_cached(workload.source(param), setting, light)


def run_workload(workload: Union[str, Workload], setting: str,
                 param: Optional[int] = None,
                 aex_schedule: Optional[AexSchedule] = None,
                 cost_model: Optional[CostModel] = None,
                 config: Optional[EnclaveConfig] = None,
                 max_steps: int = 100_000_000,
                 aex_threshold: int = 1000,
                 strict: bool = True,
                 provision_cache: bool = True,
                 chaos_seed: Optional[int] = None,
                 warmup: bool = False,
                 light: bool = False) -> BenchResult:
    """Full-pipeline execution of one workload under one setting.

    ``strict=True`` (the default) raises on any failure — violation,
    fault, rejected binary, failed self-check.  ``strict=False``
    records the failure in ``status``/``detail`` and returns the cell,
    so a sweep survives one bad cell.

    ``warmup=True`` measures *steady state*: the cell executes once
    untimed (populating the translating executor's block cache), the
    enclave image is restored bit-exact, and the timed run repeats the
    identical execution on the warm CPU.  Applied uniformly to every
    executor — the step engine gains nothing, the translator recoups
    its compile warm-up — so cross-executor ratios compare pure
    execution.  The two runs are bit-identical (same steps, cycles,
    AEX arrivals); ignored under ``chaos_seed``.

    ``chaos_seed`` runs the cell under deterministic fault injection
    (see :mod:`repro.service.faults`): deliveries get corrupted, ECalls
    fail transiently, the enclave gets torn down mid-provisioning — and
    the cell must still converge to the exact same measurement.  The
    extra work is reported in ``retries``/``recoveries``.
    """
    if isinstance(workload, str):
        workload = get_workload(workload)
    effective_param = param if param is not None else \
        workload.default_param
    executor, tier = engine(cost_model or CostModel())
    try:
        policies = PolicySet.parse(setting)
        blob = compile_workload(workload, setting, param, light=light)
        boot = BootstrapEnclave(
            policies=policies, config=config,
            aex_threshold=aex_threshold,
            provision_cache=PROVISION_CACHE if provision_cache else None)
        input_bytes = workload.input_bytes(param)
        retries = recoveries = 0
        if chaos_seed is None:
            boot.receive_binary(blob)
            if input_bytes:
                boot.receive_userdata(input_bytes)
            if warmup:
                # Eager JIT on the priming run: the block cache hits
                # its fixed point in one pass (the lazy threshold
                # otherwise keeps crossing for many runs on stubs born
                # at AEX-resume rips), so the timed runs compile
                # nothing and measure pure warm execution.  Three
                # timed repetitions, minimum wall: the repetitions are
                # bit-identical, so the spread is pure scheduler noise
                # and the minimum is the least-disturbed measurement.
                snap = snapshot_run_state(boot)
                boot.run(aex_schedule=aex_schedule,
                         cost_model=cost_model,
                         max_steps=max_steps, reuse_cpu=True,
                         jit_eager=True)
                wall_s = None
                for rep in range(WARM_REPS):
                    restore_run_state(boot, snap)
                    t0 = time.perf_counter()
                    outcome: RunOutcome = boot.run(
                        aex_schedule=aex_schedule,
                        cost_model=cost_model,
                        max_steps=max_steps, reuse_cpu=True)
                    rep_wall = time.perf_counter() - t0
                    if wall_s is None or rep_wall < wall_s:
                        wall_s = rep_wall
            else:
                t0 = time.perf_counter()
                outcome = boot.run(aex_schedule=aex_schedule,
                                   cost_model=cost_model,
                                   max_steps=max_steps)
                wall_s = time.perf_counter() - t0
        else:
            # Imported lazily: repro.service pulls in this module via
            # the HTTPS simulator, so a top-level import would cycle.
            from ..service.faults import FaultPlan
            plan = FaultPlan(_chaos_plan_seed(
                chaos_seed, workload.name, setting, effective_param))
            outcome, wall_s, retries, recoveries = _chaos_cell(
                boot, blob, input_bytes, plan,
                f"{workload.name}/{setting}",
                aex_schedule=aex_schedule, cost_model=cost_model,
                max_steps=max_steps)
    except ReproError as exc:
        if strict:
            raise
        return BenchResult(workload=workload.name, setting=setting,
                           param=effective_param, steps=0, cycles=0.0,
                           status="error", detail=str(exc),
                           executor=executor, tier=tier)
    result = BenchResult(
        workload=workload.name, setting=setting,
        param=effective_param,
        steps=outcome.result.steps if outcome.result else 0,
        cycles=outcome.result.cycles if outcome.result else 0.0,
        reports=list(outcome.reports),
        aex_events=outcome.result.aex_events if outcome.result else 0,
        text_bytes=boot.loaded.code_len,
        status=outcome.status,
        detail=outcome.detail,
        wall_s=wall_s,
        provision_cache_hits=outcome.provision_cache_hits,
        retries=retries,
        recoveries=recoveries,
        jit=outcome.jit_stats,
        executor=executor, tier=tier)
    if outcome.status != "ok":
        if strict:
            raise RuntimeError(
                f"{workload.name}/{setting}: {outcome.status} "
                f"({outcome.detail})")
        return result
    if result.reports and result.reports[0] != 1:
        if strict:
            raise RuntimeError(
                f"{workload.name}/{setting}: self-check failed "
                f"(reports={result.reports})")
        result.status = "selfcheck"
        result.detail = f"self-check failed (reports={result.reports})"
    return result


def _cell_schedule(setting: str,
                   aex_mean_interval: int) -> Optional[AexSchedule]:
    """The AEX schedule a cell runs under — P6 cells get benign OS
    timer ticks; one shared helper so serial and parallel sweeps use
    bit-identical schedules."""
    if aex_mean_interval and PolicySet.parse(setting).p6:
        return AexSchedule(aex_mean_interval)
    return None


def attach_overheads(results: Dict[str, BenchResult],
                     strict: bool = True) -> None:
    """Attach ``overhead_pct`` vs the baseline and cross-check reports.

    All settings of one workload must report identical values
    (differential check).  Failed cells are skipped: they keep
    ``overhead_pct == 0.0`` and never poison the divergence check.  In
    non-strict mode a diverging cell is downgraded to
    ``status="divergent"`` instead of raising.
    """
    baseline = results.get("baseline")
    if baseline is not None and not baseline.ok:
        baseline = None
    reports0 = None
    for setting, result in results.items():
        if not result.ok:
            continue
        if reports0 is None:
            reports0 = result.reports
        elif result.reports != reports0:
            message = (f"{result.workload}: reports diverge between "
                       f"settings ({setting}: {result.reports} vs "
                       f"{reports0})")
            if strict:
                raise RuntimeError(message)
            result.status = "divergent"
            result.detail = message
            # A downgraded cell must read like a failed one: drop any
            # overhead attached by an earlier pass over this row.
            result.overhead_pct = 0.0
            continue
        result.overhead_pct = (result.overhead_vs(baseline)
                               if baseline and setting != "baseline"
                               else 0.0)


def overhead_matrix(workload: Union[str, Workload],
                    param: Optional[int] = None,
                    settings=PAPER_SETTINGS,
                    aex_mean_interval: int = 400_000,
                    strict: bool = True,
                    **kwargs) -> Dict[str, BenchResult]:
    """Run ``workload`` under every setting; attach ``.overhead_pct``.

    The P1-P6 setting runs under a benign AEX schedule (OS timer ticks),
    so the marker path and the AEX accounting are actually exercised.
    The default threshold is sized for benign profiles of the largest
    benchmark runs, as §IV-C prescribes ("set by profiling the enclave
    program in benign environments").
    """
    results: Dict[str, BenchResult] = {}
    for setting in settings:
        results[setting] = run_workload(
            workload, setting, param,
            aex_schedule=_cell_schedule(setting, aex_mean_interval),
            strict=strict, **kwargs)
    attach_overheads(results, strict=strict)
    return results


#: Worker-side sweep parameters, set once per pool worker by
#: :func:`_pool_init` (fork inherits the parent's warm compile cache).
_POOL_STATE: dict = {}


def _pool_init(cost_model, aex_mean_interval, strict, provision_cache,
               kwargs) -> None:
    _POOL_STATE.update(cost_model=cost_model,
                       aex_mean_interval=aex_mean_interval,
                       strict=strict, provision_cache=provision_cache,
                       kwargs=kwargs)


def _pool_cell(name: str, setting: str):
    """Run one (workload, setting) cell inside a pool worker.

    Returns ``(result, fresh_cache_entries)`` — the entries this cell
    added to the worker's provision cache, so the parent can absorb
    them (worker processes die with the pool; without the harvest a
    later sweep over the same binaries would re-verify everything).
    """
    state = _POOL_STATE
    before = PROVISION_CACHE.keys() if state["provision_cache"] else None
    result = run_workload(
        name, setting,
        aex_schedule=_cell_schedule(setting,
                                    state["aex_mean_interval"]),
        cost_model=state["cost_model"],
        strict=state["strict"],
        provision_cache=state["provision_cache"],
        **state["kwargs"])
    fresh = (PROVISION_CACHE.export_since(before)
             if before is not None else {})
    return result, fresh


class RunMatrix(dict):
    """A full ``{workload: {setting: BenchResult}}`` sweep.

    Plain dict plus a machine-readable serialization, so benchmark
    sweeps can be archived (``BENCH_vm.json``) and diffed across
    commits.  ``executor`` records the bench label of the engine that
    produced the numbers (see :func:`engine`); ``parallelism`` records
    the worker-pool size the cells ran under (1 = serial)."""

    def __init__(self, executor: str = "translate",
                 parallelism: int = 1):
        super().__init__()
        self.executor = executor
        self.parallelism = parallelism

    @classmethod
    def collect(cls, workloads: Iterable[str],
                settings=PAPER_SETTINGS,
                executor: str = "translate",
                cost_model: Optional[CostModel] = None,
                jobs: int = 1,
                strict: bool = True,
                provision_cache: bool = True,
                aex_mean_interval: int = 400_000,
                **kwargs) -> "RunMatrix":
        """Sweep ``workloads`` × ``settings`` under one executor.

        ``jobs > 1`` dispatches cells to a ``multiprocessing`` pool.
        Every cell is deterministic and rows are merged in sweep order,
        so the parallel matrix's cell values are identical to a serial
        run; only the wall-clock fields differ.  ``strict=False``
        records failed cells (``status``/``detail``) instead of
        aborting the sweep.
        """
        cm = cost_model or CostModel(executor=executor)
        workloads = list(workloads)
        settings = tuple(settings)
        jobs = max(1, int(jobs))
        matrix = cls(executor=engine(cm)[0], parallelism=jobs)
        if jobs == 1:
            for name in workloads:
                matrix[name] = overhead_matrix(
                    name, settings=settings, cost_model=cm,
                    strict=strict, aex_mean_interval=aex_mean_interval,
                    provision_cache=provision_cache, **kwargs)
            return matrix

        tasks = [(name, setting) for name in workloads
                 for setting in settings]
        if not tasks:
            # An empty cell set must not reach the pool —
            # ``Pool(processes=0)`` raises — and the empty matrix must
            # match what the serial path builds: one empty row per
            # workload when ``settings`` is empty, no rows at all when
            # ``workloads`` is.
            for name in workloads:
                matrix[name] = {}
            return matrix
        # Compile every cell in the parent so forked workers inherit a
        # warm compile cache and never duplicate the compile work.
        param = kwargs.get("param")
        for name, setting in tasks:
            try:
                compile_workload(name, setting, param)
            except ReproError:
                if strict:
                    raise
                # the worker re-raises and records the failed cell
        try:
            ctx = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - non-POSIX fallback
            ctx = multiprocessing.get_context()
        with ctx.Pool(processes=min(jobs, len(tasks)),
                      initializer=_pool_init,
                      initargs=(cm, aex_mean_interval, strict,
                                provision_cache, kwargs)) as pool:
            cells = pool.starmap(_pool_cell, tasks)
        by_cell = {}
        for task, (cell, fresh) in zip(tasks, cells):
            if provision_cache:
                PROVISION_CACHE.absorb(fresh)
            by_cell[task] = cell
        for name in workloads:
            row = {setting: by_cell[(name, setting)]
                   for setting in settings}
            attach_overheads(row, strict=strict)
            matrix[name] = row
        return matrix

    @property
    def failures(self) -> List[str]:
        """``workload/setting`` labels of every non-ok cell."""
        return [f"{name}/{setting}"
                for name, row in self.items()
                for setting, result in row.items()
                if not result.ok]

    @property
    def total_wall_s(self) -> float:
        return sum(r.wall_s for row in self.values()
                   for r in row.values())

    @property
    def total_steps(self) -> int:
        return sum(r.steps for row in self.values()
                   for r in row.values())

    def cells(self) -> List[dict]:
        return [r.cell() for row in self.values() for r in row.values()]

    def totals(self) -> dict:
        """Sweep-level totals: wall, steps, ips, cache hits, chaos
        retries/recoveries, failed cells and JIT aggregates."""
        cells = [r for row in self.values() for r in row.values()]
        return {
            "wall_s": round(self.total_wall_s, 6),
            "steps": self.total_steps,
            "ips": round(self.total_steps / self.total_wall_s, 1)
            if self.total_wall_s > 0 else 0.0,
            "provision_cache_hits": sum(r.provision_cache_hits
                                        for r in cells),
            "retries": sum(r.retries for r in cells),
            "recoveries": sum(r.recoveries for r in cells),
            "failed_cells": self.failures,
            **self._jit_totals(),
        }

    def to_json(self) -> dict:
        """JSON-ready document: sweep totals plus one store cell per
        (workload, setting)."""
        return {
            "schema": store.DOC_SCHEMA,
            "kind": "vm",
            "executor": self.executor,
            "parallelism": self.parallelism,
            "totals": self.totals(),
            "cells": self.cells(),
        }

    def _jit_totals(self) -> dict:
        """Sweep-level JIT aggregates (empty under the step engine)."""
        cells = [r.jit for row in self.values() for r in row.values()
                 if r.jit]
        if not cells:
            return {}
        total = {key: sum(c.get(key, 0) for c in cells)
                 for key in ("compiled", "template_hits",
                             "dispatch_calls", "invalidated_blocks",
                             "evicted_blocks", "hoisted_regs")}
        steps = sum(c.get("steps", 0) for c in cells)
        disp = total["dispatch_calls"]
        total["mean_instrs_per_dispatch"] = \
            round(steps / disp, 2) if disp else 0.0
        return {"jit": total}
