"""Write ``expected.json``: golden outputs for the session workloads.

Each program is compiled in every variant its workload delivers and run
directly on a bootstrap enclave -- no sessions, no channels, no cache --
and all variants must agree.  The file is generated once, at the commit
that introduced the benchmark; a change that claims a speed-up must
leave it alone, so that wrong outputs show up as failures.

Run from the repository root::

    PYTHONPATH=src python benchmarks/e2e/make_expected.py
"""

from __future__ import annotations

import json
import sys

from repro.bench.checkpointing import SMALL_PARAMS
from repro.compiler.frontend import compile_source
from repro.core.bootstrap import BootstrapEnclave
from repro.policy.policies import PolicySet
from repro.workloads import get_workload
from workloads import (
    COLD_PROGRAMS, COLD_VARIANTS, EXPECTED_PATH, KERNEL_PARAMS,
    output_digest, output_key,
)


def golden(program: str, param: int, variants) -> dict:
    workload = get_workload(program)
    source, data = workload.source(param), workload.input_bytes(param)
    answers = set()
    for label, light in variants:
        policies = PolicySet.parse(label)
        blob = compile_source(source, policies, light=light).serialize()
        boot = BootstrapEnclave(policies)
        boot.receive_binary(blob)
        boot.receive_userdata(data)
        outcome = boot.run()
        if not outcome.ok or not outcome.reports or \
                outcome.reports[0] != 1:
            raise SystemExit(f"{program}:{param} {label} light={light}: "
                             f"{outcome.status} {outcome.reports}")
        answers.add((tuple(outcome.reports),
                     output_digest(outcome.sent_plaintext)))
    if len(answers) != 1:
        raise SystemExit(f"{program}:{param}: variants disagree")
    reports, digest = answers.pop()
    return {"reports": list(reports), "digest": digest}


def main() -> int:
    outputs = {}
    for program, param in sorted(KERNEL_PARAMS.items()):
        outputs[output_key(program, param)] = golden(
            program, param, [("P1-P6", False)])
    for program in COLD_PROGRAMS:
        param = SMALL_PARAMS[program]
        outputs[output_key(program, param)] = golden(
            program, param, COLD_VARIANTS)
    EXPECTED_PATH.write_text(
        json.dumps({"outputs": outputs}, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(outputs)} golden outputs to {EXPECTED_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
