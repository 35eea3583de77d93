"""Regression gates over the continuous results store.

Given the ordered record stream from
:class:`~repro.bench.store.ResultsStore`, the gate compares each
cell's **latest** observation against its **rolling baseline** — the
median of the last :data:`WINDOW` accepted (status ``ok``) runs of the
same key — and classifies every metric:

``improved``
    better than the baseline by more than the noise band;
``flat``
    within the band;
``regressed``
    worse than the baseline by more than the band;
``new``
    no accepted history for this key/metric — nothing to compare, the
    observation simply seeds the baseline for the next run.

"Better" reads the record's own tags: numeric metrics named in
``higher`` improve upward, every other numeric metric improves
downward, and booleans are good-is-true.  The noise band reads the
``wall`` tag: deterministic metrics (cycle accounts, step counts,
counters, byte sizes, booleans) carry a **zero band** — the simulation
is deterministic, so any drift is a real behavioural change and gates
hard — while wall-clock metrics carry a :data:`WALL_BAND_PCT` band and
are **advisory** (classified and reported, never blocking): CI runners
are too noisy for wall-clock to block merges, yet the trajectory still
gets recorded and rendered.

A latest observation whose status is not ``ok`` is itself a gate
failure (metric ``status``), regardless of history: the store must
never quietly carry a failing cell forward.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from .store import CellKey, Record
from .tables import format_table

#: Rolling-baseline window (accepted runs per cell).
WINDOW = 5

#: Wall-clock noise band, percent.
WALL_BAND_PCT = 25.0


def rolling_baseline(values: Sequence[float],
                     window: int = WINDOW) -> float:
    """Median of the last ``window`` values (history order)."""
    tail = sorted(values[-window:])
    n = len(tail)
    mid = n // 2
    if n % 2:
        return tail[mid]
    return (tail[mid - 1] + tail[mid]) / 2.0


@dataclass
class Delta:
    """One (cell, metric) comparison against the rolling baseline."""

    key: CellKey
    metric: str
    current: Optional[float]
    baseline: Optional[float] = None
    delta_pct: Optional[float] = None
    classification: str = "flat"   # improved | flat | regressed | new
    #: True when a ``regressed`` classification fails the gate
    #: (every metric except the advisory wall-clock ones).
    gating: bool = True
    detail: str = ""

    @property
    def blocking(self) -> bool:
        return self.classification == "regressed" and self.gating


@dataclass
class GateReport:
    """Every delta of a gate evaluation plus the verdict."""

    deltas: List[Delta] = field(default_factory=list)

    @property
    def regressions(self) -> List[Delta]:
        return [d for d in self.deltas if d.blocking]

    @property
    def advisories(self) -> List[Delta]:
        return [d for d in self.deltas
                if d.classification == "regressed" and not d.gating]

    @property
    def improvements(self) -> List[Delta]:
        return [d for d in self.deltas
                if d.classification == "improved"]

    @property
    def exit_code(self) -> int:
        return 1 if self.regressions else 0

    def counts(self) -> Dict[str, int]:
        counts = {"improved": 0, "flat": 0, "regressed": 0, "new": 0}
        for delta in self.deltas:
            counts[delta.classification] += 1
        return counts

    def render(self, verbose: bool = False) -> str:
        """``format_table`` delta report: regressions, advisories and
        improvements (all rows under ``verbose``), plus a summary."""
        shown = [d for d in self.deltas
                 if verbose or d.classification in ("regressed",
                                                    "improved")]
        lines = []
        if shown:
            def fmt(value):
                if value is None:
                    return "-"
                if isinstance(value, bool):
                    return "yes" if value else "NO"
                if abs(value) >= 1000:
                    return f"{value:,.0f}"
                return f"{value:.4g}"

            rows = [[d.key.label(), d.metric, fmt(d.baseline),
                     fmt(d.current),
                     "-" if d.delta_pct is None
                     else f"{d.delta_pct:+.2f}%",
                     d.classification
                     + ("" if d.gating or d.classification != "regressed"
                        else " (advisory)")]
                    for d in shown]
            lines.append(format_table(
                f"bench gate (baseline = median of last "
                f"{WINDOW} accepted runs, wall band "
                f"±{WALL_BAND_PCT:g}%)",
                ["cell", "metric", "baseline", "current", "delta",
                 "class"], rows))
        counts = self.counts()
        lines.append(
            f"gate: {len(self.regressions)} regressed (blocking), "
            f"{len(self.advisories)} advisory, "
            f"{counts['improved']} improved, {counts['flat']} flat, "
            f"{counts['new']} new")
        return "\n".join(lines)


def classify(metric: str, current, baseline, *, wall: bool = False,
             higher: bool = False) -> Delta:
    """Classify one metric value against its baseline.

    ``wall`` and ``higher`` are the metric's tags.  Numeric metrics are
    lower-is-better unless ``higher`` (the reported ``delta_pct`` stays
    the raw signed change, relative to ``|baseline|``); booleans are
    good-is-true.  The baseline of a boolean series is its median as
    0/1, so one historical flake does not flip the expectation.
    """
    band = WALL_BAND_PCT if wall else 0.0
    if isinstance(current, bool):
        expected = baseline >= 0.5
        if current and not expected:
            cls = "improved"
        elif not current:        # broke, or was already broken
            cls = "regressed"
        else:
            cls = "flat"
        return Delta(key=None, metric=metric, current=current,
                     baseline=expected, classification=cls,
                     gating=True)
    sense = -1 if higher else 1      # worse = positive ``change``
    if baseline == 0:
        pct = 0.0 if current == 0 else None
        change, limit = sense * current, 0.0
    else:
        pct = 100.0 * (current - baseline) / abs(baseline)
        change, limit = sense * pct, band
    if change > limit:
        cls = "regressed"
    elif change < -limit:
        cls = "improved"
    else:
        cls = "flat"
    return Delta(key=None, metric=metric, current=current,
                 baseline=baseline, delta_pct=pct, classification=cls,
                 gating=not wall)


def evaluate(records: Sequence[Record],
             kinds: Optional[Sequence[str]] = None) -> GateReport:
    """Gate the latest observation of every cell against its rolling
    baseline.  ``records`` must be in history (file) order; ``kinds``
    restricts the evaluation to some record kinds."""
    report = GateReport()
    by_key: Dict[CellKey, List[Record]] = {}
    for record in records:
        if kinds and record.key.kind not in kinds:
            continue
        by_key.setdefault(record.key, []).append(record)

    for key, history in by_key.items():
        latest = history[-1]
        prior = [r for r in history[:-1] if r.accepted]
        if not latest.accepted:
            report.deltas.append(Delta(
                key=key, metric="status", current=None,
                classification="regressed", gating=True,
                detail=f"{latest.status}: {latest.detail}"))
            continue
        for metric, current in latest.metrics.items():
            values = [r.metrics[metric] for r in prior[-WINDOW:]
                      if metric in r.metrics]
            if not values:
                report.deltas.append(Delta(
                    key=key, metric=metric, current=current,
                    classification="new", gating=False))
                continue
            delta = classify(metric, current,
                             rolling_baseline([float(v) for v in values]),
                             wall=metric in latest.wall,
                             higher=metric in latest.higher)
            delta.key = key
            report.deltas.append(delta)
    return report


def inject_synthetic_regression(records: Sequence[Record],
                                pct: float) -> List[Record]:
    """Self-test fixture for the gate plumbing: append a synthetic run
    that moves every numeric metric of each cell's latest accepted
    observation ``pct`` percent in its worse direction (by its
    ``higher`` tag; a zero moves by ``pct/100``; booleans and statuses
    untouched).  Used by tests and the CI ``bench-gate`` job to prove
    the gate actually fires — the store file itself is never
    modified."""
    latest: Dict[CellKey, Record] = {}
    for record in records:
        if record.accepted:
            latest[record.key] = record
    scaled = []
    for key, record in latest.items():
        metrics = {}
        for name, value in record.metrics.items():
            if not isinstance(value, bool):
                step = (abs(value) or 1.0) * pct / 100.0
                value = value - step if name in record.higher \
                    else value + step
            metrics[name] = value
        scaled.append(Record(key=key, metrics=metrics,
                             wall=record.wall, higher=record.higher,
                             status="ok", commit=record.commit,
                             run_id=record.run_id + "-synthetic",
                             ts=record.ts))
    return list(records) + scaled
