"""One workload in a fresh interpreter: set up, measure, check, report.

``run.py`` starts this script once per measurement so that set-up time,
peak RSS and module-level caches belong to one workload.  It prints one
JSON object on its last stdout line.  Set-up time runs from the first
statement below to the first timed op: imports, hosts, approval hashes
and the untimed warm-up session.
"""

from time import perf_counter

_STARTED = perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

from workloads import EXPECTED_PATH, WORKLOADS  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--max-ops", type=int, default=sys.maxsize)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans", action="store_true",
                        help="include the raw spans in the report")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--expected", type=Path, default=EXPECTED_PATH)
    args = parser.parse_args(argv)

    tracer = None
    if args.trace:
        from layers import Tracer, layer_metrics
        tracer = Tracer()
        # Before set-up: the enclave ECall table binds methods when a
        # host is built.
        tracer.install()
    workload = WORKLOADS[args.workload](args.seed, tracer, args.expected)
    workload.setup()
    began = perf_counter()
    report = {"workload": args.workload, "seed": args.seed,
              "setup_s": began - _STARTED}
    if not args.setup_only:
        result = workload.run(began + args.seconds, args.max_ops)
        report.update(
            attempted=result.attempted, completed=result.completed,
            failed=result.failed, failures=result.failures,
            repeats=workload.repeats, rates=result.rates,
            timed_wall_s=result.timed_wall_s,
            latencies=result.latencies, notes=result.notes)
        if tracer is not None:
            tracer.uninstall()
            report["layers"] = layer_metrics(
                tracer, result, getattr(workload, "due_wall", {}))
            report["missing"] = tracer.missing(args.workload)
            if args.spans:
                report["spans"] = {"fields": Tracer.SPAN_FIELDS,
                                   "spans": tracer.spans}
    report["peak_rss_mb"] = \
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
