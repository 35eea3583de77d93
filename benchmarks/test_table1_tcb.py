"""Table I: TCB comparison with other shielding runtimes.

Baseline inventories are the paper's published numbers; the DEFLECTION
row is *measured* from this repository by ``repro.tcb``.
"""

import pytest

from repro.bench import format_table
from repro.runtimes import ALL_BASELINES, deflection_runtime_model
from repro.tcb import consumer_inventory, verifier_core_loc

from conftest import emit


def _build_table():
    rows = []
    for runtime in ALL_BASELINES:
        for i, comp in enumerate(runtime.tcb):
            size = (f"> {runtime.tcb_size_mb}"
                    if runtime.tcb_size_is_lower_bound
                    else f"{runtime.tcb_size_mb}") if i == 0 else ""
            rows.append([runtime.name if i == 0 else "",
                         comp.name, f"{comp.kloc:g}", size])
    measured = consumer_inventory()
    ours = deflection_runtime_model(
        measured["Loader/Verifier"].kloc)
    for i, comp in enumerate(measured.values()):
        rows.append(["DEFLECTION (measured)" if i == 0 else "",
                     comp.label, f"{comp.kloc:.2f}",
                     "3.5 (paper)" if i == 0 else ""])
    return rows, ours


def test_table1_tcb_comparison(benchmark):
    rows, ours = benchmark.pedantic(_build_table, rounds=1, iterations=1)
    text = format_table(
        "Table I: TCB comparison (kLoC / MB)",
        ["Runtime", "Component", "kLoC", "Size(MB)"], rows)
    core = verifier_core_loc()
    text += (f"\n\nFine-grained (paper: loader <600 LoC, verifier <700):"
             f"\n  measured loader+rewriter: {core['loader']} LoC"
             f"\n  measured verifier+RDD:    {core['verifier']} LoC")
    emit("table1_tcb", text)
    assert core["loader"] < 600
    assert core["verifier"] < 700
    for baseline in ALL_BASELINES:
        assert baseline.tcb_kloc > 5 * sum(
            c.kloc for c in consumer_inventory().values())
