"""Spans around the benchmark's calls into kbmerge, and the per-layer metrics.

A span records its name, start, end, parent span and the op it belongs to.
Solver consistency checks are traced by replacing ``is_consistent`` as
``kbmerge.merge`` binds it, during traced ops only; the wrapper returns
the wrapped function's result unchanged. Spans stay in memory until the
run writes them out as JSONL.
"""
from __future__ import annotations

import json
import statistics
from contextlib import contextmanager
from time import perf_counter
from typing import Callable, Optional

import kbmerge.merge

from workloads import PLAIN_API, Api


class Tracer:
    """In-memory span recorder; ``op`` is the id stamped on new spans."""

    def __init__(self):
        self.spans: list[dict] = []
        self.op = 0
        self._stack: list[int] = []

    def wrap(self, name: str, fn: Callable, attrs: Optional[Callable] = None) -> Callable:
        """``fn`` recording one span per call; ``attrs(result)`` adds fields."""

        def traced(*args, **kwargs):
            span = {
                "op": self.op,
                "id": len(self.spans),
                "parent": self._stack[-1] if self._stack else None,
                "name": name,
            }
            self.spans.append(span)
            self._stack.append(span["id"])
            span["start"] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = perf_counter()
                self._stack.pop()
            if attrs is not None:
                span.update(attrs(result))
            return result

        return traced

    def api(self) -> Api:
        return Api(
            parse_kb=self.wrap("textio.parse_kb", PLAIN_API.parse_kb),
            serialize_kb=self.wrap("textio.serialize_kb", PLAIN_API.serialize_kb),
            contextualize=self.wrap("merge.contextualize", PLAIN_API.contextualize),
            ckb_merge=self.wrap("merge.ckb_merge", PLAIN_API.ckb_merge, _report_attrs),
            count_solutions=self.wrap(
                "solver.count_solutions", PLAIN_API.count_solutions, _stats_attrs
            ),
        )

    @contextmanager
    def solver_checks(self):
        """Trace every ``is_consistent`` call made from ``kbmerge.merge``."""
        original = kbmerge.merge.is_consistent
        kbmerge.merge.is_consistent = self.wrap("solver.is_consistent", original, _stats_attrs)
        try:
            yield
        finally:
            kbmerge.merge.is_consistent = original

    def write_jsonl(self, path) -> None:
        t0 = self.spans[0]["start"] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                rec = dict(span, start=span["start"] - t0, end=span["end"] - t0)
                fh.write(json.dumps(rec) + "\n")


def _stats_attrs(result) -> dict:
    stats = result[1]
    return {"nodes": stats.nodes_explored, "search_ms": stats.elapsed_ms}


def _report_attrs(result) -> dict:
    report = result[1]
    return {
        "checks_phase1": report.checks_phase1,
        "checks_phase2": report.checks_phase2,
        "decontextualized": len(report.decontextualized_ids),
        "removed": len(report.removed_redundant_ids),
        "phase1_ms": report.elapsed_phase1_ms,
        "phase2_ms": report.elapsed_phase2_ms,
    }


def _ms(span: dict) -> float:
    return (span["end"] - span["start"]) * 1000.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# name -> unit, in the order the per-layer table prints them
LAYER_UNITS = {
    "textio.parse_ms": "ms",
    "textio.serialize_ms": "ms",
    "merge.contextualize_ms": "ms",
    "merge.ckb_merge_ms": "ms",
    "merge.phase1_ms": "ms",
    "merge.phase2_ms": "ms",
    "merge.setup_ms": "ms",
    "merge.checks_phase1": "count",
    "merge.checks_phase2": "count",
    "merge.decontextualized_ratio": "ratio",
    "merge.removed_ratio": "ratio",
    **{
        f"solver.{phase}.{what}": unit
        for phase in ("input", "phase1", "phase2")
        for what, unit in (("calls", "count"), ("build_ms", "ms"), ("search_ms", "ms"), ("nodes", "count"))
    },
    "solver.count.build_ms": "ms",
    "solver.count.search_ms": "ms",
    "solver.count.nodes": "count",
    "solver.check.nodes_per_ms": "1/ms",
    "solver.count.nodes_per_ms": "1/ms",
    "trace.ops": "count",
    "trace.overhead_ratio": "ratio",
}


def layer_metrics(spans: list[dict], n_ops: int, overhead_ratio: float) -> dict[str, float]:
    """Per-layer metrics of a traced loop of ``n_ops`` ops.

    Times are medians over ops of the op's total in that layer; counts are
    run totals. Solver checks are attributed by their order within an op:
    the checks before phase 1 are input checks, then come ``checks_phase1``
    phase-1 checks, then ``checks_phase2`` phase-2 checks.
    """
    by_op: list[list[dict]] = [[] for _ in range(n_ops)]
    for span in spans:
        by_op[span["op"]].append(span)

    per_op: dict[str, list[float]] = {
        k: [] for k, unit in LAYER_UNITS.items() if unit == "ms"
    }
    totals = dict.fromkeys(
        ("checks_phase1", "checks_phase2", "decontextualized", "removed"), 0
    )
    calls = {"input": 0, "phase1": 0, "phase2": 0, "count": 0}
    nodes = dict.fromkeys(calls, 0)
    search_total = dict.fromkeys(calls, 0.0)

    for op_spans in by_op:
        op_ms = dict.fromkeys(per_op, 0.0)
        for span in op_spans:
            if span["name"] == "textio.parse_kb":
                op_ms["textio.parse_ms"] += _ms(span)
            elif span["name"] == "textio.serialize_kb":
                op_ms["textio.serialize_ms"] += _ms(span)
            elif span["name"] == "merge.contextualize":
                op_ms["merge.contextualize_ms"] += _ms(span)
            elif span["name"] == "merge.ckb_merge":
                op_ms["merge.ckb_merge_ms"] += _ms(span)
                op_ms["merge.phase1_ms"] += span["phase1_ms"]
                op_ms["merge.phase2_ms"] += span["phase2_ms"]
                op_ms["merge.setup_ms"] += _ms(span) - span["phase1_ms"] - span["phase2_ms"]
                for k in totals:
                    totals[k] += span[k]

        checks = sorted(
            (s for s in op_spans if s["name"] == "solver.is_consistent"),
            key=lambda s: s["start"],
        )
        c1 = sum(s["checks_phase1"] for s in op_spans if s["name"] == "merge.ckb_merge")
        c2 = sum(s["checks_phase2"] for s in op_spans if s["name"] == "merge.ckb_merge")
        n_input = len(checks) - c1 - c2
        phases = [
            ("input", checks[:n_input]),
            ("phase1", checks[n_input:n_input + c1]),
            ("phase2", checks[n_input + c1:]),
            ("count", [s for s in op_spans if s["name"] == "solver.count_solutions"]),
        ]
        for phase, group in phases:
            search = sum(s["search_ms"] for s in group)
            op_ms[f"solver.{phase}.build_ms"] += sum(_ms(s) for s in group) - search
            op_ms[f"solver.{phase}.search_ms"] += search
            calls[phase] += len(group)
            nodes[phase] += sum(s["nodes"] for s in group)
            search_total[phase] += search

        for k, v in op_ms.items():
            per_op[k].append(v)

    out = {k: statistics.median(v) if v else 0.0 for k, v in per_op.items()}
    out["merge.checks_phase1"] = totals["checks_phase1"]
    out["merge.checks_phase2"] = totals["checks_phase2"]
    out["merge.decontextualized_ratio"] = _ratio(totals["decontextualized"], totals["checks_phase1"])
    out["merge.removed_ratio"] = _ratio(totals["removed"], totals["checks_phase2"])
    for phase in ("input", "phase1", "phase2"):
        out[f"solver.{phase}.calls"] = calls[phase]
        out[f"solver.{phase}.nodes"] = nodes[phase]
    out["solver.count.nodes"] = nodes["count"]
    check_phases = ("input", "phase1", "phase2")
    out["solver.check.nodes_per_ms"] = _ratio(
        sum(nodes[p] for p in check_phases), sum(search_total[p] for p in check_phases)
    )
    out["solver.count.nodes_per_ms"] = _ratio(nodes["count"], search_total["count"])
    out["trace.ops"] = n_ops
    out["trace.overhead_ratio"] = overhead_ratio
    return {k: out[k] for k in LAYER_UNITS}


def self_times(spans: list[dict], n_ops: int) -> dict[str, tuple[int, float, float]]:
    """Per span name: calls, and the median per op of inclusive and self ms.

    A span's self time is its duration minus that of its direct children.
    """
    child_ms = [0.0] * len(spans)
    for span in spans:
        if span["parent"] is not None:
            child_ms[span["parent"]] += _ms(span)
    names = sorted({s["name"] for s in spans})
    incl = {n: [0.0] * n_ops for n in names}
    own = {n: [0.0] * n_ops for n in names}
    calls = dict.fromkeys(names, 0)
    for span in spans:
        incl[span["name"]][span["op"]] += _ms(span)
        own[span["name"]][span["op"]] += _ms(span) - child_ms[span["id"]]
        calls[span["name"]] += 1
    return {
        n: (calls[n], statistics.median(incl[n]), statistics.median(own[n])) for n in names
    }
