"""Continuous benchmark results store — the tko-style trajectory.

The ``BENCH_*.json`` documents are point-in-time snapshots: each sweep
overwrites the last, so perf work leaves no machine-checkable history
and a regression in any hot path lands silently.  This module is the
append-only complement.

Every ``repro bench`` kind produces one document shape::

    {"schema": "deflection-bench/2", "kind": ..., "cells": [...],
     <the kind's human summary blocks: totals, comparison, ...>}

and every cell comes from :func:`cell`, keyed by the full measurement
context ``(kind, executor, jit tier, workload, setting, param)``.  A
cell's metrics carry their own semantics, set by the producer that
computes them:

* ``wall`` names the wall-clock metrics — host noise, gated with a
  percentage band and advisory only.  Every other metric is
  deterministic (the cost model and the seeded services are simulated)
  and gates with a zero band.
* ``higher`` names the numeric metrics where higher is better; every
  other numeric metric is lower-is-better.  Booleans are good-is-true
  by type and never appear in ``higher``.

:func:`records_from_doc` turns a document's cells into :class:`Record`
lines, one per cell, stamped with run metadata (commit, run id,
timestamp).  The store never rewrites history; a new sweep appends a
new generation of records, and :mod:`repro.bench.gates` rolls each
cell's baseline over the last accepted runs of that exact key
(accepted = the cell completed ``ok``).

Design notes:

* JSONL, not a database: append is a single ``O_APPEND`` write, the
  file diffs cleanly in review, and a truncated tail line (a crashed
  writer) damages one record, not the store.
* One record per cell, not per run: baselines are per-cell, and a cell
  that disappears from later sweeps simply stops generating records
  instead of poisoning run-level comparisons.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from ..errors import ReproError

#: Store line schema tag.
SCHEMA = "deflection-results/2"

#: Bench document schema tag, shared by every kind.
DOC_SCHEMA = "deflection-bench/2"

#: Every measurement kind the store accepts.  Checked at CellKey
#: construction so a typo'd kind raises :class:`StoreError` instead of
#: silently forking a fresh baseline family nothing ever gates.
KINDS = ("vm", "provision", "checkpoint", "fleet", "static", "pipeline")

Metric = Union[int, float, bool]


class StoreError(ReproError):
    """A results-store line could not be parsed or ingested."""


@dataclass(frozen=True)
class CellKey:
    """The measurement context a baseline is rolled over."""

    kind: str                    # one of KINDS
    executor: str                # bench executor label; "" when n/a
    tier: int                    # jit tier; -1 when n/a
    workload: str
    setting: str
    param: Optional[int]

    def __post_init__(self):
        if self.kind not in KINDS:
            raise StoreError(
                f"unknown results-store kind {self.kind!r}; "
                f"known: {sorted(KINDS)}")

    def label(self) -> str:
        """Human-oriented cell label for tables and error messages."""
        bits = [self.kind]
        if self.executor:
            bits.append(self.executor)
        bits.append(f"{self.workload}/{self.setting}")
        if self.param is not None:
            bits.append(str(self.param))
        return ":".join(bits)


def _check_tags(metrics: Dict[str, Metric], wall: Sequence[str],
                higher: Sequence[str]) -> None:
    for name in list(wall) + list(higher):
        if name not in metrics:
            raise StoreError(f"tag names metric {name!r}, which the "
                             f"cell does not have")
    for name in higher:
        if isinstance(metrics[name], bool):
            raise StoreError(f"boolean metric {name!r} tagged "
                             f"higher-is-better")


def cell(kind: str, workload: str, setting: str, param: Optional[int],
         metrics: Dict[str, Metric], *, wall: Sequence[str] = (),
         higher: Sequence[str] = (), executor: str = "", tier: int = -1,
         status: str = "ok", detail: str = "") -> dict:
    """One bench cell — the unit every ``repro bench`` kind produces,
    stores and gates.  ``wall``/``higher`` tag metrics by name (see the
    module docstring); a tag naming a missing metric, or a boolean
    tagged ``higher``, raises :class:`StoreError`."""
    _check_tags(metrics, wall, higher)
    return {"kind": kind, "executor": executor, "tier": tier,
            "workload": workload, "setting": setting, "param": param,
            "status": status, "detail": detail, "metrics": metrics,
            "wall": list(wall), "higher": list(higher)}


@dataclass
class Record:
    """One cell observation — one JSONL line."""

    key: CellKey
    metrics: Dict[str, Metric]
    wall: Tuple[str, ...] = ()
    higher: Tuple[str, ...] = ()
    status: str = "ok"
    commit: str = "unknown"
    run_id: str = ""
    ts: float = 0.0
    detail: str = ""

    @property
    def accepted(self) -> bool:
        """Only clean cells feed the rolling baseline."""
        return self.status == "ok"

    @classmethod
    def from_cell(cls, doc: dict) -> "Record":
        """A :func:`cell` dict (or a store line's fields) as a record;
        run metadata is read when present."""
        key = CellKey(kind=doc["kind"], executor=doc["executor"],
                      tier=int(doc["tier"]), workload=doc["workload"],
                      setting=doc["setting"], param=doc["param"])
        metrics = dict(doc["metrics"])
        wall, higher = tuple(doc["wall"]), tuple(doc["higher"])
        _check_tags(metrics, wall, higher)
        return cls(key=key, metrics=metrics, wall=wall, higher=higher,
                   status=doc["status"], detail=doc.get("detail", ""),
                   commit=doc.get("commit", "unknown"),
                   run_id=doc.get("run_id", ""),
                   ts=float(doc.get("ts", 0.0)))

    def to_line(self) -> str:
        doc = {
            "schema": SCHEMA,
            "run_id": self.run_id,
            "commit": self.commit,
            "ts": round(self.ts, 3),
            "kind": self.key.kind,
            "executor": self.key.executor,
            "tier": self.key.tier,
            "workload": self.key.workload,
            "setting": self.key.setting,
            "param": self.key.param,
            "status": self.status,
            "metrics": self.metrics,
            "wall": list(self.wall),
            "higher": list(self.higher),
        }
        if self.detail:
            doc["detail"] = self.detail
        return json.dumps(doc, sort_keys=False)

    @classmethod
    def from_line(cls, line: str, lineno: int = 0) -> "Record":
        try:
            doc = json.loads(line)
        except json.JSONDecodeError as exc:
            raise StoreError(
                f"results store line {lineno}: not JSON ({exc})") \
                from exc
        if doc.get("schema") != SCHEMA:
            raise StoreError(
                f"results store line {lineno}: schema "
                f"{doc.get('schema')!r}, want {SCHEMA!r}")
        try:
            return cls.from_cell(doc)
        except StoreError as exc:
            raise StoreError(f"results store line {lineno}: {exc}") \
                from exc
        except (KeyError, TypeError, ValueError) as exc:
            raise StoreError(
                f"results store line {lineno}: missing/invalid field "
                f"({exc})") from exc


class ResultsStore:
    """Append-only JSONL store of :class:`Record` lines.

    File order *is* history order: the last record of a key is its
    latest observation, earlier records are its baseline window.
    """

    def __init__(self, path):
        self.path = Path(path)

    def exists(self) -> bool:
        return self.path.exists()

    def append(self, records: Iterable[Record]) -> int:
        records = list(records)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with open(self.path, "a") as fh:
            for record in records:
                fh.write(record.to_line() + "\n")
        return len(records)

    def load(self) -> List[Record]:
        if not self.path.exists():
            return []
        records = []
        with open(self.path) as fh:
            for lineno, line in enumerate(fh, 1):
                if line.strip():
                    records.append(Record.from_line(line, lineno))
        return records

    def runs(self) -> List[str]:
        """Distinct run ids, in first-appearance (= history) order."""
        seen: Dict[str, None] = {}
        for record in self.load():
            seen.setdefault(record.run_id, None)
        return list(seen)


def new_run_id(kind: str, commit: str,
               ts: Optional[float] = None) -> str:
    ts = time.time() if ts is None else ts
    return f"{kind}-{commit}-{int(ts * 1000):x}"


def stamp_run(records: List[Record], commit: str, run_id: str = "",
              ts: Optional[float] = None) -> List[Record]:
    """Stamp one ingest's run metadata onto every record."""
    ts = time.time() if ts is None else ts
    if not run_id:
        kind = records[0].key.kind if records else "run"
        run_id = new_run_id(kind, commit, ts)
    for record in records:
        record.commit = commit
        record.run_id = run_id
        record.ts = ts
    return records


def records_from_doc(doc: dict, commit: str = "unknown",
                     run_id: str = "", ts: Optional[float] = None
                     ) -> List[Record]:
    """Every cell of a bench document as a record, stamped with this
    run's metadata."""
    if doc.get("schema") != DOC_SCHEMA:
        raise StoreError(f"cannot ingest document schema "
                         f"{doc.get('schema')!r}, want {DOC_SCHEMA!r}")
    try:
        records = [Record.from_cell(c) for c in doc["cells"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise StoreError(f"malformed bench cell ({exc})") from exc
    return stamp_run(records, commit, run_id=run_id, ts=ts)
