"""Command-line interface: ``python -m repro <command>``.

Developer-facing tooling around the library:

* ``compile`` — run the untrusted producer on a MiniC file;
* ``objdump`` — inspect a relocatable object (headers, symbols,
  relocations, branch-target list, disassembly);
* ``verify``  — run the in-enclave verifier standalone and report the
  annotation inventory or the rejection reason;
* ``run``     — full pipeline: load, verify, rewrite, execute;
* ``bench``   — Table II sweep with a machine-readable result file,
  plus a two-executor smoke/divergence check for CI; ``--record``
  appends every cell to the continuous results store and
  ``bench gate`` fails on regressions vs the rolling baseline;
* ``chaos``   — seeded fault-injection campaign of one scope (the
  two-party protocol, mid-run, a fleet or a pipeline); nonzero when
  the report lists any violation;
* ``tcb``     — print the measured TCB inventory.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .bench.gates import WALL_BAND_PCT, WINDOW
from .bench.store import KINDS
from .bench.tables import format_table
from .compiler import CodeGenerator, ObjectFile
from .core import BootstrapEnclave
from .core.verifier import PolicyVerifier
from .errors import ReproError
from .isa.disassembler import disassemble_linear, format_instruction
from .policy import PolicySet
from .vm.interrupts import AexSchedule


#: Default continuous-results store (committed bench history).
DEFAULT_STORE = "benchmarks/results/history.jsonl"


def _policies(label: str) -> PolicySet:
    return PolicySet.parse(label)


def _git_commit() -> str:
    """Short commit id of the working tree, ``"unknown"`` outside a
    checkout — store metadata, never part of a cell key."""
    import subprocess
    try:
        proc = subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                              capture_output=True, text=True,
                              timeout=10)
        if proc.returncode == 0 and proc.stdout.strip():
            return proc.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown"


def _bench_store_hook(args, doc) -> None:
    """``--record``: append this sweep's cells to the store.
    ``--baseline``: print the delta report of these cells against the
    stored rolling baseline (informational — ``bench gate`` is the
    enforcing path)."""
    if not (args.record or args.baseline):
        return
    from .bench import gates
    from .bench.store import ResultsStore, records_from_doc
    records = records_from_doc(doc, commit=args.commit or _git_commit())
    store = ResultsStore(args.store)
    if args.record:
        count = store.append(records)
        print(f"recorded {count} cells -> {store.path}")
    if args.baseline:
        history = store.load() if args.record \
            else store.load() + records
        print(gates.evaluate(history).render())


def cmd_bench_gate(args) -> int:
    """``repro bench gate``: classify the latest run of every stored
    cell against its rolling baseline; nonzero on any blocking
    regression."""
    from .bench import gates
    from .bench.store import ResultsStore
    store = ResultsStore(args.store)
    if not store.exists():
        print(f"error: no results store at {store.path} "
              f"(run `repro bench --record` first)", file=sys.stderr)
        return 1
    records = store.load()
    if not records:
        print(f"error: results store {store.path} is empty",
              file=sys.stderr)
        return 1
    if args.synthetic_regression:
        records = gates.inject_synthetic_regression(
            records, args.synthetic_regression)
        print(f"[self-test] appended a synthetic run moving every "
              f"numeric metric {args.synthetic_regression:g}% in its "
              f"worse direction")
    report = gates.evaluate(records, kinds=args.kind or None)
    print(report.render(verbose=args.verbose))
    if report.regressions:
        cells = sorted({d.key.label() for d in report.regressions
                        if d.key is not None})
        print(f"REGRESSED cells ({len(cells)}): {', '.join(cells)}")
        return 1
    print("gate passed: no blocking regression vs rolling baseline")
    return 0


def cmd_compile(args) -> int:
    source = Path(args.source).read_text()
    generator = CodeGenerator(_policies(args.policies),
                              include_prelude=not args.no_prelude)
    obj = generator.compile(source, entry=args.entry)
    blob = obj.serialize()
    out = Path(args.output or (Path(args.source).stem + ".dfob"))
    out.write_bytes(blob)
    print(f"{out}: {len(blob)} bytes "
          f"(text {len(obj.text)}, data {len(obj.data)}, "
          f"bss {obj.bss_size}), policies {obj.policies_label}, "
          f"{len(obj.symbols)} symbols, "
          f"{len(obj.branch_targets)} indirect targets")
    return 0


def cmd_objdump(args) -> int:
    obj = ObjectFile.parse(Path(args.object).read_bytes())
    show_all = not (args.symbols or args.relocs or args.disasm
                    or args.stats)
    if show_all or args.headers:
        print(f"entry:     {obj.entry}")
        print(f"policies:  {obj.policies_label}")
        print(f"text:      {len(obj.text)} bytes")
        print(f"data:      {len(obj.data)} bytes")
        print(f"bss:       {obj.bss_size} bytes")
        print(f"hash:      {obj.measurement().hex()}")
    if show_all or args.symbols:
        rows = [[name, sym.section_name, f"{sym.offset:#x}",
                 "func" if sym.kind == 0 else "object",
                 "*" if name in obj.branch_targets else ""]
                for name, sym in sorted(obj.symbols.items())]
        print(format_table("symbols (* = indirect-branch target)",
                           ["name", "section", "offset", "kind", "ib"],
                           rows))
    if show_all or args.relocs:
        rows = [[f"{r.offset:#x}", r.symbol, f"{r.addend:+d}"]
                for r in obj.relocations]
        print(format_table("relocations (ABS64)",
                           ["text offset", "symbol", "addend"], rows))
    if args.stats:
        from .analysis import analyze_object
        policies = _policies(args.policies) if args.policies else None
        print(analyze_object(obj, policies).render())
    if args.disasm:
        by_offset = {}
        for name, sym in obj.symbols.items():
            if sym.section_name == "text":
                by_offset.setdefault(sym.offset, []).append(name)
        for off, ins in disassemble_linear(obj.text):
            for name in by_offset.get(off, []):
                print(f"\n{name}:")
            print(f"  {off:6x}:  {format_instruction(ins)}")
    return 0


def cmd_verify(args) -> int:
    obj = ObjectFile.parse(Path(args.object).read_bytes())
    verifier = PolicyVerifier(_policies(args.policies))
    entry = obj.symbols[obj.entry].offset
    targets = [obj.symbols[n].offset for n in obj.branch_targets]
    try:
        if obj.proofs:
            # Proof-carrying object: the log only re-derives against
            # resolved constants and enclave bounds, so verify over the
            # same synthetic relocation the link-time prover used.
            from .core.rdd import recursive_descent
            from .staticproof import synthetic_image
            stext, bases, sentry, stargets = synthetic_image(obj)
            scode = recursive_descent(stext, sentry, stargets)
            verified = verifier.verify_code(scode, sentry, stargets,
                                            proofs=obj.proofs,
                                            values=bases)
        else:
            verified = verifier.verify(obj.text, entry, targets)
    except ReproError as exc:
        print(f"REJECTED: {exc}")
        return 1
    print(f"VERIFIED under {args.policies}: "
          f"{verified.instruction_count} reachable instructions, "
          f"{sum(verified.annotation_counts.values())} annotations, "
          f"{len(verified.magic_slots)} rewriter slots")
    for kind, count in sorted(verified.annotation_counts.items()):
        print(f"  {kind:18s} {count}")
    if verified.proofs:
        print(f"  static proofs      {len(verified.proofs)} "
              f"(elided guards re-derived)")
    return 0


def cmd_run(args) -> int:
    blob = Path(args.object).read_bytes()
    boot = BootstrapEnclave(policies=_policies(args.policies),
                            aex_threshold=args.aex_threshold)
    try:
        boot.receive_binary(blob)
    except ReproError as exc:
        print(f"REJECTED: {exc}")
        return 1
    if args.input:
        boot.receive_userdata(Path(args.input).read_bytes())
    if args.trace:
        outcome, trace = boot.run_traced(max_instructions=args.trace)
        for line in trace:
            print(line)
    else:
        schedule = {"none": None,
                    "benign": AexSchedule.benign(),
                    "attack": AexSchedule.attack()}[args.aex]
        outcome = boot.run(aex_schedule=schedule,
                           max_steps=args.max_steps)
    print(f"status:  {outcome.status}"
          + (f" ({outcome.violation_name})"
             if outcome.status == "violation" else ""))
    if outcome.result:
        print(f"steps:   {outcome.result.steps:,}")
        print(f"cycles:  {outcome.result.cycles:,.0f}")
        print(f"aex:     {outcome.result.aex_events}")
        print(f"return:  {outcome.result.return_value}")
    if outcome.reports:
        print(f"reports: {outcome.reports}")
    for i, data in enumerate(outcome.sent_plaintext):
        print(f"send[{i}]: {data[:64]!r}"
              + (" ..." if len(data) > 64 else ""))
    if outcome.ok or outcome.status == "truncated":
        return 0
    return 2


def _smoke_parallel_equality(name, settings, param, jobs) -> int:
    """Collect a one-workload matrix serially and under a worker pool;
    nonzero when any cell value differs (they never should)."""
    from .bench.harness import RunMatrix
    matrices = {}
    for label, n in (("serial", 1), ("parallel", jobs)):
        matrices[label] = RunMatrix.collect(
            [name], settings=settings, executor="translate",
            param=param, jobs=n)
    unequal = []
    for setting in settings:
        a = matrices["serial"][name][setting]
        b = matrices["parallel"][name][setting]
        if (a.steps, a.cycles, a.aex_events, a.overhead_pct) != \
                (b.steps, b.cycles, b.aex_events, b.overhead_pct):
            unequal.append(setting)
    wall = {label: m.total_wall_s for label, m in matrices.items()}
    print(f"smoke {name} serial vs --jobs {jobs}: "
          f"wall {wall['serial']:.3f}s vs {wall['parallel']:.3f}s")
    if unequal:
        print(f"PARALLEL DIVERGENCE in {len(unequal)} cells: "
              f"{', '.join(unequal)}")
        return 1
    print("parallel cell values identical to serial")
    return 0


def _bench_provision(args, workloads, settings) -> int:
    """``repro bench --provision``: delegation-latency sweep comparing
    the legacy (seed) and decode-once provisioning pipelines, with a
    per-cell byte-identity check between the two."""
    from .bench.provision import STAGES, ProvisionMatrix

    repeats = 1 if args.smoke else args.repeats
    if args.smoke:
        workloads = workloads[:1]
    matrix = ProvisionMatrix.collect(
        workloads, settings=settings, param=args.param,
        repeats=repeats, jobs=args.jobs, strict=False)
    doc = matrix.to_json()
    _bench_store_hook(args, doc)
    if args.json:
        out = Path(args.out or "BENCH_provision.json")
        out.write_text(json.dumps(doc, indent=2) + "\n")
        print(f"wrote {out}")

    rows = [[c.workload, c.setting,
             f"{c.legacy_cold_s * 1e3:.2f}", f"{c.new_cold_s * 1e3:.2f}",
             f"{c.warm_s * 1e3:.3f}", f"{c.speedup:.2f}x",
             "yes" if c.identical else "NO", c.status]
            for c in matrix.cells]
    print(format_table(
        f"provisioning latency (repeats={repeats}, jobs={args.jobs})",
        ["workload", "setting", "legacy ms", "new ms", "warm ms",
         "speedup", "identical", "status"], rows))
    totals = doc["totals"]
    print(f"\naggregate cold speedup (legacy / decode-once): "
          f"{totals['cold_speedup']}x  "
          f"(legacy {totals['legacy_cold_ms']:.1f} ms, "
          f"new {totals['new_cold_ms']:.1f} ms, "
          f"warm {totals['warm_ms']:.2f} ms)")
    failed = False
    if matrix.divergent_cells:
        print(f"DIVERGENT cells ({len(matrix.divergent_cells)}): "
              f"{', '.join(matrix.divergent_cells)}")
        failed = True
    incomplete = matrix.incomplete_cells
    if incomplete:
        print(f"MISSING stage timings (want {', '.join(STAGES)}) in: "
              f"{', '.join(incomplete)}")
        failed = True
    other = [cell for cell in matrix.failures
             if cell not in matrix.divergent_cells]
    if other:
        print(f"FAILED cells ({len(other)}): {', '.join(other)}")
        failed = True
    if failed:
        return 1
    print("legacy and decode-once images byte-identical on every cell")
    return 0


def _bench_static(args, workloads, settings) -> int:
    """``repro bench --static``: annotation-full vs annotation-light
    ablation — same workloads compiled both ways, differential
    verification and output checks, plus the overhead the proofs cut."""
    from .bench.static import STATIC_SETTINGS, StaticMatrix

    if args.settings is None:
        # The paper matrix includes baseline (nothing to elide) and
        # P1-P6 (AEX markers the proofs leave alone) — the ablation
        # defaults to the guard-bearing columns instead.
        settings = STATIC_SETTINGS
    if args.smoke:
        workloads = workloads[:3]
    matrix = StaticMatrix.collect(workloads, settings=settings,
                                  param=args.param, jobs=args.jobs,
                                  strict=False)
    doc = matrix.to_json()
    _bench_store_hook(args, doc)
    if args.json:
        out = Path(args.out or "BENCH_static.json")
        out.write_text(json.dumps(doc, indent=2) + "\n")
        print(f"wrote {out}")

    rows = [[c.workload, c.setting,
             f"{c.cycles_full:,.0f}", f"{c.cycles_light:,.0f}",
             f"{c.overhead_full_pct:.1f}", f"{c.overhead_light_pct:.1f}",
             f"{c.overhead_cut_pct:.1f}",
             f"{c.guard_sites_full}->{c.guard_sites_light}",
             c.proof_entries,
             "yes" if c.verified_light else "NO",
             "yes" if c.outputs_identical else "NO",
             c.status]
            for c in matrix.cells]
    print(format_table(
        f"static proof tier ablation (jobs={args.jobs})",
        ["workload", "setting", "full cyc", "light cyc", "ovh full%",
         "ovh light%", "cut %", "guards", "proofs", "verified",
         "identical", "status"], rows))
    totals = doc["totals"]
    print(f"\nguard sites {totals['guard_sites_full']} -> "
          f"{totals['guard_sites_light']} "
          f"({totals['elided_sites']} proven elisions, "
          f"{totals['annotation_bytes_saved']} annotation bytes "
          f"saved); overhead cut mean "
          f"{totals['mean_overhead_cut_pct']}%, min "
          f"{totals['min_overhead_cut_pct']}%")
    if matrix.failures:
        print(f"FAILED cells ({len(matrix.failures)}): "
              f"{', '.join(matrix.failures)}")
        return 1
    print("every annotation-light binary verified in-enclave with "
          "outputs identical to annotation-full")
    return 0


def _bench_checkpoint(args, workloads, settings) -> int:
    """``repro bench --checkpoint``: resume-equivalence property sweep
    plus sealing-overhead measurement per ``checkpoint_every``."""
    from .bench.checkpointing import CheckpointMatrix
    from .workloads.registry import WORKLOADS

    if args.workloads is None:
        workloads = sorted(WORKLOADS)   # the full registry, not NBench
    if args.smoke:
        workloads = workloads[:1]
    matrix = CheckpointMatrix.collect(workloads, setting=settings[-1],
                                      param=args.param)
    doc = matrix.to_json()
    _bench_store_hook(args, doc)
    if args.json:
        out = Path(args.out or "BENCH_checkpoint.json")
        out.write_text(json.dumps(doc, indent=2) + "\n")
        print(f"wrote {out}")

    rows = []
    for c in matrix.cells:
        ovh = " ".join(f"{p.checkpoint_every}:{p.overhead_pct:+.0f}%"
                       for p in c.overhead)
        rows.append([
            c.workload, f"{c.steps:,}", f"{c.plain_wall_s * 1e3:.1f}",
            ovh,
            f"{sum(1 for r in c.resumes if r.identical)}"
            f"/{len(c.resumes)}",
            "yes" if all(r.rollback_rejected for r in c.resumes)
            and c.resumes else "NO",
            c.status])
    print(format_table(
        f"checkpoint/restore ({doc['setting']}, intervals "
        f"{doc['checkpoint_settings']})",
        ["workload", "steps", "plain ms", "ckpt overhead",
         "resume ==", "rollback rej", "status"], rows))
    totals = doc["totals"]
    print(f"\nmean sealing overhead per interval: "
          + ", ".join(f"every {k}: {v:+.1f}%"
                      for k, v in totals["mean_overhead_pct"].items()))
    failed = False
    if totals["resume_mismatches"]:
        print(f"RESUME DIVERGENCE in: "
              f"{', '.join(totals['resume_mismatches'])}")
        failed = True
    if totals["rollbacks_accepted"]:
        print(f"ROLLBACK ACCEPTED in: "
              f"{', '.join(totals['rollbacks_accepted'])}")
        failed = True
    other = [w for w in totals["failures"]
             if w not in totals["resume_mismatches"]
             and w not in totals["rollbacks_accepted"]]
    if other:
        print(f"FAILED cells ({len(other)}): {', '.join(other)}")
        failed = True
    if failed:
        return 1
    print(f"all {totals['resume_points']} interrupted runs resumed "
          f"byte-identically; every rollback replay rejected")
    return 0


def _bench_fleet(args) -> int:
    """``repro bench --fleet``: seeded open-loop fleet campaign —
    sessions/sec and p50/p99 session latency across a supervised drone
    pool, with at least one scripted checkpoint migration verified
    byte-for-byte."""
    from .bench.fleet import (
        format_fleet_table, run_fleet_bench, smoke_params,
    )
    params = smoke_params() if args.smoke else {}
    doc = run_fleet_bench(seed=args.seed, **params)
    _bench_store_hook(args, doc)
    if args.json:
        out = Path(args.out or "BENCH_fleet.json")
        out.write_text(json.dumps(doc, indent=2) + "\n")
        print(f"wrote {out}")
    print(format_fleet_table(doc))
    check = doc["migration_check"]
    if check:
        print(f"\nmigrated session {check['job_id']}: "
              f"{' -> '.join(dict.fromkeys(check['einits']))} "
              f"(resumed at step {check['resumed_at_step']}, outputs "
              f"{'byte-identical' if check['outputs_match'] else 'DIVERGENT'})")
    if doc["corrupt"]:
        print(f"CORRUPT outputs ({len(doc['corrupt'])}): "
              f"{', '.join(doc['corrupt'])}")
        return 1
    if doc["lost"]:
        print(f"LOST sessions ({len(doc['lost'])}): "
              f"{', '.join(doc['lost'])}")
        return 1
    if not check or not check["outputs_match"]:
        print("NO verified checkpoint migration in this campaign")
        return 1
    print("every admitted session completed or was shed typed; "
          "zero lost")
    return 0


def _bench_pipeline(args) -> int:
    """``repro bench --pipeline``: multi-enclave provenance pipeline
    matrix — topologies x batch/stream x clean/chaos, every cell
    chain-verified and byte-compared against the unfaulted serial
    oracle."""
    from .bench.pipeline import (
        format_pipeline_table, run_pipeline_bench, smoke_params,
    )
    params = smoke_params() if args.smoke else {}
    doc = run_pipeline_bench(seed=args.seed, **params)
    _bench_store_hook(args, doc)
    if args.json:
        out = Path(args.out or "BENCH_pipeline.json")
        out.write_text(json.dumps(doc, indent=2) + "\n")
        print(f"wrote {out}")
    print(format_pipeline_table(doc))
    bad = [c for c in doc["cells"] if c["status"] != "ok"]
    if bad:
        print(f"FAILED cells ({len(bad)}): "
              + ", ".join(f"{c['workload']}/{c['setting']}"
                          f"={c['status']}" for c in bad))
        return 1
    accepted = sum(c["metrics"]["attacks_accepted"]
                   for c in doc["cells"])
    if accepted:
        print(f"ATTACKS ACCEPTED: {accepted} doctored handoffs passed "
              f"chain verification")
        return 1
    print("every cell chain-verified and byte-identical to the "
          "unfaulted serial oracle")
    return 0


def cmd_bench(args) -> int:
    from .bench.harness import PAPER_SETTINGS, RunMatrix, run_workload
    from .bench.store import DOC_SCHEMA
    from .core.bootstrap import PROVISION_CACHE
    from .vm.costmodel import CostModel
    from .workloads import get_workload
    from .workloads.nbench import NBENCH_ORDER

    if args.fleet:
        return _bench_fleet(args)

    if args.pipeline:
        return _bench_pipeline(args)

    workloads = list(args.workloads or NBENCH_ORDER)
    settings = tuple(args.settings or PAPER_SETTINGS)
    use_cache = not args.no_provision_cache
    try:
        for name in workloads:
            get_workload(name)
        for setting in settings:
            PolicySet.parse(setting)
    except (KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if args.provision:
        return _bench_provision(args, workloads, settings)

    if args.checkpoint:
        return _bench_checkpoint(args, workloads, settings)

    if args.static:
        return _bench_static(args, workloads, settings)

    if args.smoke:
        name = workloads[0]
        setting = settings[-1]
        cells = {}
        # The oracle and the translator — one cell each, diffed
        # bit-exact, so CI catches a JIT divergence in seconds.
        for executor in ("step", "translate"):
            cells[executor] = run_workload(
                name, setting, args.param,
                aex_schedule=AexSchedule(400_000),
                cost_model=CostModel(executor=executor),
                provision_cache=use_cache,
                chaos_seed=args.chaos,
                warmup=not args.cold and args.chaos is None)
        _bench_store_hook(args, {
            "schema": DOC_SCHEMA, "kind": "vm",
            "cells": [result.cell() for result in cells.values()]})
        step, fast = cells["step"], cells["translate"]
        diverged = [
            key for key in ("steps", "cycles", "aex_events", "reports",
                            "status")
            if getattr(step, key) != getattr(fast, key)]
        print(f"smoke {name}/{setting}: "
              f"step={step.steps:,} steps / {step.cycles:,.0f} cycles, "
              f"translate={fast.steps:,} steps / "
              f"{fast.cycles:,.0f} cycles")
        if diverged:
            print(f"DIVERGENCE: {', '.join(diverged)}")
            return 1
        print(f"cycle accounts identical "
              f"(speedup {step.wall_s / fast.wall_s:.2f}x)")
        if args.jobs > 1:
            return _smoke_parallel_equality(name, settings, args.param,
                                            args.jobs)
        return 0

    executors = ["step", "translate"] if args.executor == "both" \
        else [args.executor]
    warmup = not args.cold
    matrices = {executor: RunMatrix.collect(
                    workloads, settings=settings,
                    cost_model=CostModel(executor=executor),
                    param=args.param,
                    jobs=args.jobs,
                    strict=False,
                    provision_cache=use_cache,
                    chaos_seed=args.chaos,
                    warmup=warmup)
                for executor in executors}

    divergent: list = []
    if len(matrices) == 1:
        doc = matrices[executors[0]].to_json()
    else:
        # The translator diffs bit-exact against the step oracle.
        oracle, fast = matrices["step"], matrices["translate"]
        for name in workloads:
            for setting in settings:
                a, b = oracle[name][setting], fast[name][setting]
                if (a.steps, a.cycles, a.aex_events) != \
                        (b.steps, b.cycles, b.aex_events):
                    divergent.append(f"{name}/{setting}")
        speedup = {}
        for name in workloads:
            wall_o = sum(r.wall_s for r in oracle[name].values())
            wall_f = sum(r.wall_s for r in fast[name].values())
            speedup[name] = round(wall_o / wall_f, 2) if wall_f else 0.0
        comparison = {
            "aggregate_speedup": round(
                oracle.total_wall_s / fast.total_wall_s, 2),
            "per_workload_speedup": speedup,
            "divergent_cells": divergent,
        }
        doc = {
            "schema": DOC_SCHEMA,
            "kind": "vm",
            "parallelism": args.jobs,
            "steady_state": warmup,
            "totals": {ex: m.totals() for ex, m in matrices.items()},
            "comparison": comparison,
            "cells": [c for m in matrices.values() for c in m.cells()],
        }
    # Parent-process cache stats plus per-cell hit counts (with --jobs,
    # hits happen inside the pool workers and ride back on the cells).
    doc["provision_cache"] = dict(
        PROVISION_CACHE.stats(),
        cell_hits=sum(r.provision_cache_hits
                      for m in matrices.values()
                      for row in m.values() for r in row.values()))
    if args.chaos is not None:
        doc["chaos_seed"] = args.chaos
        doc["chaos"] = {
            "retries": sum(r.retries for m in matrices.values()
                           for row in m.values() for r in row.values()),
            "recoveries": sum(r.recoveries for m in matrices.values()
                              for row in m.values()
                              for r in row.values()),
        }

    _bench_store_hook(args, doc)
    if args.json:
        out = Path(args.out or "BENCH_vm.json")
        out.write_text(json.dumps(doc, indent=2) + "\n")
        print(f"wrote {out}")

    for executor, matrix in matrices.items():
        rows = [[name, setting, f"{r.steps:,}", f"{r.cycles:,.0f}",
                 f"{r.wall_s:.3f}", f"{r.ips:,.0f}",
                 f"{r.overhead_pct:+.2f}", r.status]
                for name, row in matrix.items()
                for setting, r in row.items()]
        print(format_table(
            f"bench ({executor} executor, jobs={args.jobs})",
            ["workload", "setting", "steps", "cycles", "wall s",
             "instr/s", "ovh %", "status"], rows))
    if len(matrices) > 1:
        print(f"\naggregate speedup (step wall / translate wall): "
              f"{doc['comparison']['aggregate_speedup']}x")
        if divergent:
            print(f"DIVERGENCE in {len(divergent)} cells: "
                  f"{', '.join(divergent)}")
            return 1
        print("cycle accounts identical across executors")
    failed = sorted({cell for m in matrices.values()
                     for cell in m.failures})
    if failed:
        print(f"FAILED cells ({len(failed)}): {', '.join(failed)}")
        return 1
    return 0


def cmd_chaos(args) -> int:
    """``repro chaos``: one seeded campaign of one scope (host by
    default, or ``--mid-run`` / ``--fleet`` / ``--pipeline``); exits
    nonzero exactly when the report lists a violation."""
    from .service.faults import run_chaos
    scope = ("fleet" if args.fleet else "pipeline" if args.pipeline
             else "mid-run" if args.mid_run else "host")
    report = run_chaos(scope, seed=args.seed, trials=args.trials)
    text = json.dumps(report, indent=2, sort_keys=True)
    if args.out:
        Path(args.out).write_text(text + "\n")
    print(text)
    totals, stats = report["totals"], report["stats"]
    statuses = ", ".join(f"{count} {status}" for status, count
                         in report["statuses"].items())
    print(f"\nchaos {scope} seed={args.seed} trials={report['trials']}: "
          f"{statuses} | {totals['faults_injected']} faults injected, "
          f"{stats['retries']} retries, "
          f"{stats['reconnects']} reconnects, "
          f"{stats['recoveries']} enclave recoveries, "
          f"{stats['resumes']} checkpoint resumes, "
          f"{stats['rollbacks_rejected']} rollbacks rejected")
    for violation in report["violations"]:
        print(f"VIOLATION {violation}")
    if report["violations"]:
        return 1
    print("no violations: zero lost, corrupt, accepted-attack and "
          "upstream re-execution counts; no fatal class retried; "
          "trial 0 replay byte-identical")
    return 0


def cmd_tcb(args) -> int:
    from .tcb import consumer_inventory, verifier_core_loc
    rows = [[c.label, c.loc, f"{c.kloc:.2f}"]
            for c in consumer_inventory().values()]
    print(format_table("measured DEFLECTION TCB",
                       ["component", "LoC", "kLoC"], rows))
    core = verifier_core_loc()
    print(f"\nloader+rewriter: {core['loader']} LoC (paper: <600)")
    print(f"verifier+RDD:    {core['verifier']} LoC (paper: <700)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="DEFLECTION reproduction toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compile", help="compile+instrument MiniC")
    p.add_argument("source")
    p.add_argument("-o", "--output")
    p.add_argument("--policies", default="P1-P6")
    p.add_argument("--entry", default="main")
    p.add_argument("--no-prelude", action="store_true")
    p.set_defaults(func=cmd_compile)

    p = sub.add_parser("objdump", help="inspect a relocatable object")
    p.add_argument("object")
    p.add_argument("--headers", action="store_true")
    p.add_argument("--symbols", action="store_true")
    p.add_argument("--relocs", action="store_true")
    p.add_argument("--disasm", action="store_true")
    p.add_argument("--stats", action="store_true")
    p.add_argument("--policies", default=None,
                   help="include the annotation inventory for this "
                        "policy level")
    p.set_defaults(func=cmd_objdump)

    p = sub.add_parser("verify", help="run the in-enclave verifier")
    p.add_argument("object")
    p.add_argument("--policies", default="P1-P6")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("run", help="load, verify and execute")
    p.add_argument("object")
    p.add_argument("--policies", default="P1-P6")
    p.add_argument("--input")
    p.add_argument("--aex", choices=["none", "benign", "attack"],
                   default="none")
    p.add_argument("--aex-threshold", type=int, default=1000)
    p.add_argument("--max-steps", type=int, default=100_000_000)
    p.add_argument("--trace", type=int, default=0, metavar="N",
                   help="single-step and print the first N instructions")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("bench", help="paper benchmark sweep")
    p.add_argument("--workloads", nargs="*", default=None,
                   help="workload names (default: the NBench suite)")
    p.add_argument("--settings", nargs="*", default=None,
                   help="policy settings (default: Table II columns)")
    p.add_argument("--param", type=int, default=None)
    p.add_argument("--executor",
                   choices=["translate", "step", "both"], default="both",
                   help="engine(s) to sweep: 'both' = step oracle + "
                        "translator")
    p.add_argument("--cold", action="store_true",
                   help="skip the per-cell warm-up run: report "
                        "first-run walls (compile + cold dispatch "
                        "included) instead of steady state")
    p.add_argument("--json", action="store_true",
                   help="write machine-readable results to --out")
    p.add_argument("-o", "--out", default=None,
                   help="result file (default: BENCH_vm.json; "
                        "BENCH_provision.json with --provision; "
                        "BENCH_checkpoint.json with --checkpoint; "
                        "BENCH_fleet.json with --fleet; "
                        "BENCH_pipeline.json with --pipeline; "
                        "BENCH_static.json with --static)")
    p.add_argument("--checkpoint", action="store_true",
                   help="measure sealed checkpoint/restore instead of "
                        "raw execution: per workload, interrupt the "
                        "run at seeded safe points, resume from the "
                        "sealed chain and demand a byte-identical "
                        "outcome (plus rollback-replay rejection), and "
                        "sweep the sealing overhead per "
                        "checkpoint_every interval; exit nonzero on "
                        "any divergence or accepted rollback")
    p.add_argument("--provision", action="store_true",
                   help="measure delegation latency instead of "
                        "execution: time the legacy vs decode-once "
                        "provisioning pipelines per stage (plus the "
                        "cache-warm path) and byte-compare their "
                        "rewritten images; exit nonzero on divergence")
    p.add_argument("--static", action="store_true",
                   help="measure the static proof tier instead of raw "
                        "execution: compile every cell annotation-full "
                        "and annotation-light (provable guards elided, "
                        "proofs shipped), demand the light binary pass "
                        "full in-enclave verification with outputs "
                        "identical to full, and record the overhead "
                        "the proofs cut; exit nonzero on any "
                        "unverified, divergent or slower cell")
    p.add_argument("--fleet", action="store_true",
                   help="measure fleet throughput/latency instead of "
                        "raw execution: drive a supervised drone pool "
                        "through a seeded open-loop arrival process "
                        "(with a scripted mid-run kill so at least one "
                        "session provably migrates across EINITs via "
                        "its sealed checkpoint chain); exit nonzero on "
                        "any lost session, divergent output or missing "
                        "migration")
    p.add_argument("--pipeline", action="store_true",
                   help="measure the multi-enclave provenance pipeline "
                        "instead of raw execution: sweep topologies x "
                        "batch/stream x clean/chaos, verify every "
                        "cell's full cross-enclave provenance chain "
                        "and byte-compare its output against the "
                        "unfaulted serial oracle; exit nonzero on any "
                        "broken chain, accepted attack or divergent "
                        "output (throughput is stored as records_per_s, "
                        "latency as chunk_p99_s)")
    p.add_argument("--seed", type=int, default=2021,
                   help="campaign seed for --fleet / --pipeline "
                        "(arrival process, job mix, fault plans, retry "
                        "jitter)")
    p.add_argument("--repeats", type=int, default=3,
                   help="provisioning repetitions per cell; stage "
                        "timings are minima over the repeats")
    p.add_argument("--smoke", action="store_true",
                   help="run one kernel under both executors; exit "
                        "nonzero on cycle-account divergence (with "
                        "--jobs N, also assert a parallel sweep equals "
                        "the serial one); with --provision, sweep one "
                        "workload and fail on divergent images or "
                        "missing stage timings")
    p.add_argument("-j", "--jobs", type=int, default=1,
                   help="worker processes for the run matrix "
                        "(cell values are identical to a serial sweep)")
    p.add_argument("--no-provision-cache", action="store_true",
                   help="re-verify every provisioning instead of "
                        "reusing cached verified images")
    p.add_argument("--chaos", type=int, default=None, metavar="SEED",
                   help="run every cell under seeded fault injection "
                        "(injected delivery corruption, transient ECall "
                        "failures, enclave teardowns); cell values must "
                        "be unchanged, the extra retry/recovery work is "
                        "recorded in the JSON document")
    p.add_argument("--record", action="store_true",
                   help="append every cell of this sweep to the "
                        "continuous results store (--store), keyed by "
                        "(commit, executor, tier, workload, setting, "
                        "param)")
    p.add_argument("--baseline", action="store_true",
                   help="after the sweep, print the delta report of "
                        "its cells vs the rolling baseline in the "
                        "store (informational; `bench gate` enforces)")
    p.add_argument("--store", default=DEFAULT_STORE,
                   help=f"results store path (default: {DEFAULT_STORE})")
    p.add_argument("--commit", default=None,
                   help="commit id stamped on recorded cells "
                        "(default: `git rev-parse --short HEAD`)")
    p.set_defaults(func=cmd_bench)

    bench_sub = p.add_subparsers(dest="bench_command", metavar="gate")
    g = bench_sub.add_parser(
        "gate",
        help="classify the latest stored run of every cell vs its "
             "rolling baseline; exit nonzero on regression",
        description="Regression gate over the continuous results "
                    "store: the latest observation of every "
                    "(executor, tier, workload, setting, param) cell "
                    "is classified improved/flat/regressed against "
                    f"the median of its last {WINDOW} accepted runs, "
                    "in the direction each metric is tagged with. "
                    "Deterministic metrics (cycles, steps, AEX "
                    "counts, byte-identity) gate with a zero noise "
                    "band; wall-clock metrics are advisory within "
                    f"{WALL_BAND_PCT:g} percent.")
    g.add_argument("--store", default=DEFAULT_STORE,
                   help=f"results store path (default: {DEFAULT_STORE})")
    g.add_argument("--kind", nargs="*", default=None, choices=KINDS,
                   help="restrict the gate to these record kinds")
    g.add_argument("--synthetic-regression", type=float, default=None,
                   metavar="PCT",
                   help="self-test: evaluate as if a new run moved "
                        "every numeric metric PCT percent in its worse "
                        "direction (the store file is not modified); "
                        "the gate must fail for any PCT > 0")
    g.add_argument("--verbose", action="store_true",
                   help="list flat/new cells too, not only "
                        "regressions and improvements")
    g.set_defaults(func=cmd_bench_gate)

    p = sub.add_parser("chaos", help="seeded fault-injection campaign")
    p.add_argument("--seed", type=int, default=2021)
    p.add_argument("--trials", type=int, default=None,
                   help="campaign trials (default: 20; 1 with --fleet, "
                        "6 with --pipeline)")
    p.add_argument("--mid-run", action="store_true",
                   help="checkpoint the runs and additionally inject "
                        "mid-execution teardowns, checkpoint-chain "
                        "corruption and rollback replays; fails on any "
                        "non-identical resumed outcome or accepted "
                        "rollback")
    p.add_argument("--fleet", action="store_true",
                   help="run the fleet-scoped campaign instead: drone "
                        "kills mid-fleet (idle and mid-session), "
                        "heartbeat storms over a subset, and a shared "
                        "attestation outage under load; fails on any "
                        "lost session or divergent output")
    p.add_argument("--pipeline", action="store_true",
                   help="run the multi-enclave pipeline campaign "
                        "instead: mid-hop kills, handoff corruption, "
                        "provenance-chain splice/replay, stalled "
                        "stages and platform quarantines across "
                        "alternating topologies and batch/stream "
                        "modes; fails on any lost pipeline, accepted "
                        "attack, divergent output, upstream "
                        "re-execution or non-replayable report")
    p.add_argument("-o", "--out", default=None,
                   help="also write the JSON report to this file")
    p.set_defaults(func=cmd_chaos)

    p = sub.add_parser("tcb", help="measured TCB inventory")
    p.set_defaults(func=cmd_tcb)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        return 0  # output piped into head etc.


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
