"""End-to-end benchmark of DEFLECTION sessions.

Runs each workload in its own child interpreter, one at a time, prints
every metric by name and unit, checks every output, and ends with one
JSON line: ``{"correct", "attempted", "failed", "metrics"}``.  Metric
names, units, senses and bounds come from ``BENCHMARK.json``.

Run from the repository root::

    python3 benchmarks/e2e/run.py [--workload W]... [--seed S]
        [--seconds T] [--trace [0|1]] [--smoke] [--json OUT]
    python3 benchmarks/e2e/run.py --compare A B

Without ``--trace`` (or with ``--trace 0``) the end-to-end metrics are
measured: set-up time is the median of several fresh set-ups, the rest
come from one run of ``--seconds`` seconds.  With ``--trace`` the run is
split in two halves -- one untraced, one traced -- and the per-layer
metrics are reported, including the tracing overhead.  ``--compare``
takes two ``--json`` outputs, or two directories of them (medians are
compared), and exits 1 when a metric is worse than its bound.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SPEC_PATH = ROOT / "BENCHMARK.json"

WORKLOAD_NAMES = ("fleet_sessions", "kernel_sessions", "cold_sessions",
                  "pipeline_stream")
#: Fresh set-ups per untraced run; ``setup_s`` is their median.
SETUP_SAMPLES = 3
#: ``--smoke``: ops per workload (and a single set-up).
SMOKE_OPS = 5
#: Tail percentile of the op latency.  Percentiles run over the ops of
#: one repeat (10 to 16 of them), each at its best latency over the
#: repeats; p75 is the highest that leaves several ops beyond it on
#: every workload.
TAIL = 0.75
#: Wall budget of one workload, on top of its measured seconds.
SLACK_S = 145.0


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile of ``values``."""
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def load_spec() -> dict:
    return json.loads(SPEC_PATH.read_text())


class ChildFailed(RuntimeError):
    pass


def run_child(workload: str, seed: int, seconds: float, deadline: float,
              *, max_ops=None, trace=False, spans=False,
              setup_only=False, expected=None) -> dict:
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds)]
    if max_ops is not None:
        cmd += ["--max-ops", str(max_ops)]
    if trace:
        cmd.append("--trace")
    if spans:
        cmd.append("--spans")
    if setup_only:
        cmd.append("--setup-only")
    if expected is not None:
        cmd += ["--expected", str(expected)]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
               PYTHONHASHSEED="0")
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True,
                              timeout=max(1.0, deadline - perf_counter()))
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"{workload}: timed out") from None
    if done.returncode != 0 or not done.stdout.strip():
        raise ChildFailed(f"{workload}: child exited {done.returncode}\n"
                          f"{done.stderr[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def e2e_metrics(report: dict, setups) -> dict:
    """End-to-end metrics of one measuring child: the best repeat's
    throughput, and percentiles over the ops' best latencies."""
    latencies = report["latencies"] or [0.0]
    return {
        "setup_s": statistics.median(setups),
        "ops_per_s": max(report["rates"]),
        "op_p50_s": percentile(latencies, 0.5),
        "op_p75_s": percentile(latencies, TAIL),
        "peak_rss_mb": report["peak_rss_mb"],
        "failed_ratio": report["failed"] / max(1, report["attempted"]),
    }


def measure(workload: str, args, deadline: float) -> dict:
    """All child runs for one workload; returns its result document."""
    max_ops = SMOKE_OPS if args.smoke else None
    common = dict(max_ops=max_ops, expected=args.expected)
    if not args.trace:
        # Set-up samples sit on both sides of the measuring child, so a
        # short slow phase of the machine covers at most one of them.
        extra = 0 if args.smoke else SETUP_SAMPLES - 1
        setups = [run_child(workload, args.seed, args.seconds, deadline,
                            setup_only=True)["setup_s"]
                  for _ in range(extra // 2)]
        report = run_child(workload, args.seed, args.seconds, deadline,
                           **common)
        setups.append(report["setup_s"])
        setups += [run_child(workload, args.seed, args.seconds, deadline,
                             setup_only=True)["setup_s"]
                   for _ in range(extra - extra // 2)]
        reports = [report]
        doc = {"metrics": e2e_metrics(report, setups)}
    else:
        half = args.seconds / 2
        plain = run_child(workload, args.seed, half, deadline, **common)
        traced = run_child(workload, args.seed, half, deadline,
                           trace=True, spans=args.json is not None,
                           **common)
        reports = [plain, traced]
        plain_rate = e2e_metrics(plain, [0.0])["ops_per_s"]
        traced_rate = e2e_metrics(traced, [0.0])["ops_per_s"]
        layers = dict(traced["layers"])
        layers["trace.overhead_pct"] = \
            100.0 * (plain_rate / traced_rate - 1.0) if traced_rate \
            else 0.0
        doc = {"metrics": e2e_metrics(plain, [plain["setup_s"]]),
               "layers": layers, "missing": traced["missing"],
               "spans": traced.pop("spans", None)}
    doc.update(
        attempted=sum(r["attempted"] for r in reports),
        failed=sum(r["failed"] for r in reports),
        failures=[r["failures"] for r in reports],
        samples=[len(r["latencies"]) for r in reports],
        repeats=[r["repeats"] for r in reports],
        notes=[r["notes"] for r in reports])
    return doc


def print_table(workload: str, doc: dict, spec: dict, trace: bool) -> None:
    specs = spec["per_layer"] if trace else spec["end_to_end"]
    values = doc["layers"] if trace else doc["metrics"]
    print(f"== {workload}: {doc['attempted']} ops attempted in "
          f"{doc['repeats']} repeats, {doc['failed']} failed; "
          f"notes {doc['notes']}")
    for metric in specs:
        print(f"  {metric['name']:<36} {values[metric['name']]:>14.6g} "
              f"{metric['unit']}")
    if not trace:
        print(f"  {'failed_ratio':<36} "
              f"{doc['metrics']['failed_ratio']:>14.6g} fraction")
    for failures in doc["failures"]:
        for reason, count in sorted(failures.items()):
            print(f"  FAILED {count} x {reason}")
    for name in doc.get("missing", ()):
        print(f"  WRAPPER NEVER FIRED: {name}")


def bench(args) -> int:
    if not (ROOT / "src" / "repro").is_dir() or not SPEC_PATH.is_file():
        print(f"run.py: no program to measure under {ROOT}",
              file=sys.stderr)
        return 2
    spec = load_spec()
    workloads = args.workload or list(WORKLOAD_NAMES)
    measured = 0.0 if args.smoke else args.seconds
    deadline = perf_counter() + len(workloads) * (measured + SLACK_S)
    docs = {}
    try:
        for workload in workloads:
            docs[workload] = measure(workload, args, deadline)
            print_table(workload, docs[workload], spec, args.trace)
    except ChildFailed as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    if args.json is not None:
        spans = {w: doc.pop("spans") for w, doc in docs.items()
                 if doc.get("spans") is not None}
        args.json.write_text(json.dumps(
            {"seed": args.seed, "seconds": args.seconds,
             "smoke": args.smoke, "trace": bool(args.trace),
             "workloads": docs}, indent=1) + "\n")
        if spans:
            args.json.with_suffix(".trace.json").write_text(
                json.dumps(spans) + "\n")
    specs = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for workload, doc in docs.items():
        values = doc["layers"] if args.trace else doc["metrics"]
        for metric in specs:
            name = metric["name"] if len(docs) == 1 else \
                f"{workload}:{metric['name']}"
            metrics[name] = {"value": values[metric["name"]],
                             "unit": metric["unit"]}
    failed = sum(doc["failed"] for doc in docs.values())
    missing = any(doc.get("missing") for doc in docs.values())
    correct = failed == 0 and not missing
    print(json.dumps({"correct": correct,
                      "attempted": sum(doc["attempted"]
                                       for doc in docs.values()),
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


# -- comparison ---------------------------------------------------------


def _load_docs(path: Path):
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    docs = [json.loads(f.read_text()) for f in files
            if not f.name.endswith(".trace.json")]
    if not docs:
        raise SystemExit(f"run.py: no results in {path}")
    return docs


def _medians(docs) -> dict:
    merged = {}
    for doc in docs:
        for workload, wdoc in doc["workloads"].items():
            for name, value in wdoc["metrics"].items():
                merged.setdefault(workload, {}).setdefault(
                    name, []).append(value)
    return {w: {n: statistics.median(v) for n, v in m.items()}
            for w, m in merged.items()}


def compare(path_a: Path, path_b: Path) -> int:
    """Side-by-side medians of two result sets, one row per workload.
    A cell reads ``A -> B (change, bound)``; a change is positive when
    B is worse.  ``failed_ratio`` may not increase at all."""
    spec = load_spec()
    rules = [(m["name"], m["better"], m["bound"])
             for m in spec["end_to_end"]] + \
        [("failed_ratio", "lower", 0.0)]
    a, b = _medians(_load_docs(path_a)), _medians(_load_docs(path_b))
    worse = 0
    for workload in sorted(set(a) & set(b)):
        cells = []
        for name, better, bound in rules:
            va, vb = a[workload][name], b[workload][name]
            change = (vb - va) if better == "lower" else (va - vb)
            share = change / abs(va) if va else (1.0 if change > 0
                                                 else 0.0)
            bad = change > 0 and share > bound
            worse += bad
            cells.append(f"{name} {va:.4g} -> {vb:.4g} "
                         f"({share:+.1%} / {bound:.0%})"
                         f"{' WORSE' if bad else ''}")
        print(f"{workload}: " + "; ".join(cells))
    return 1 if worse else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", action="append",
                        choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=2021)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds per workload "
                             "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, nargs="?", const=1,
                        default=0, choices=(0, 1))
    parser.add_argument("--smoke", action="store_true",
                        help=f"{SMOKE_OPS} ops per workload")
    parser.add_argument("--json", type=Path)
    parser.add_argument("--expected", type=Path,
                        help="golden outputs (default: expected.json)")
    parser.add_argument("--compare", nargs=2, type=Path,
                        metavar=("A", "B"))
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.seconds is None:
        if not SPEC_PATH.is_file():
            print(f"run.py: {SPEC_PATH.name} not found", file=sys.stderr)
            return 2
        args.seconds = float(load_spec()["run_seconds"])
    if args.smoke:
        args.seconds = SLACK_S
    return bench(args)


if __name__ == "__main__":
    sys.exit(main())
