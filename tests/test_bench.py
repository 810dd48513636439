"""Tests for the benchmark harness."""

import importlib.util
import sys
from pathlib import Path

import pytest

import kbmerge.bench as bench_mod
from kbmerge import (
    BenchError,
    GenerationError,
    KnowledgeBase,
    ValidationError,
    run_benchmark,
    validate_kb,
)
from kbmerge.bench import BenchRow, write_bench_csv
from kbmerge.cli import DEFAULT_GRID_SHARES, DEFAULT_GRID_SIZES


SIZES = (4, 6)
SHARES = (0.0, 0.5)


def small_grid(**kw):
    return run_benchmark(SIZES, SHARES, trials=3, seed=42, **kw)


def test_row_count_and_order():
    rows = small_grid()
    assert len(rows) == len(SIZES) * len(SHARES) * 3
    # sizes-major, shares inner, trials innermost; kb_id is 1-based per cell
    expect = []
    kb_id = 0
    for size in SIZES:
        for share in SHARES:
            kb_id += 1
            for trial in range(3):
                expect.append((kb_id, size, int(round(share * 100)), trial))
    got = [
        (r.kb_id, r.n_constraints, r.context_share_pct, r.trial) for r in rows
    ]
    assert got == expect


def test_rows_are_structured_records():
    row = small_grid()[0]
    assert isinstance(row, BenchRow)
    assert row.merge_ms >= 0
    assert row.solve_ms >= 0
    assert row.checks_phase2 >= 0


def test_phase1_always_checks_every_constraint():
    for row in small_grid():
        assert row.checks_phase1 == row.n_constraints


def test_non_timing_fields_are_reproducible():
    def key(rows):
        return [
            (r.kb_id, r.n_constraints, r.context_share_pct, r.trial,
             r.checks_phase1, r.checks_phase2)
            for r in rows
        ]

    assert key(small_grid()) == key(small_grid())


def test_shuffling_varies_per_trial_but_not_counts():
    rows = small_grid(verify_counts=True)  # raises BenchError on any drift
    assert len(rows) == 12


def test_rejects_bad_trial_count():
    with pytest.raises(ValidationError):
        run_benchmark(SIZES, SHARES, trials=0, seed=1)


@pytest.mark.parametrize(
    "sizes, shares, trials, message",
    [
        ("10", SHARES, 1, "sizes must be a sequence of integers, got '10'"),
        (None, SHARES, 1, "sizes must be a sequence of integers"),
        ({4, 6}, SHARES, 1, "sizes must be a sequence of integers"),
        ((4, 6.0), SHARES, 1, "sizes must be a sequence of integers"),
        (SIZES, "0.5", 1, "shares must be a sequence of numbers, got '0.5'"),
        (SIZES, (0.5, "0.1"), 1, "shares must be a sequence of numbers"),
        (SIZES, SHARES, "3", "trials must be an integer"),
        ([True], SHARES, 1, "sizes must be a sequence of integers, got \\[True\\]"),
        ((4, False), SHARES, 1, "sizes must be a sequence of integers"),
        (SIZES, SHARES, True, "trials must be an integer, got True"),
        (SIZES, [True], 1, "shares must be a sequence of numbers, got \\[True\\]"),
        (SIZES, (0.5, False), 1, "shares must be a sequence of numbers"),
    ],
    ids=["str-sizes", "none-sizes", "set-sizes", "float-size", "str-shares",
         "str-share", "str-trials", "bool-size", "bool-in-sizes", "bool-trials",
         "bool-share", "bool-in-shares"],
)
def test_rejects_grid_arguments_of_the_wrong_type(sizes, shares, trials, message):
    with pytest.raises(ValidationError, match=message):
        run_benchmark(sizes, shares, trials=trials, seed=1)


@pytest.mark.parametrize(
    "rows, message",
    [(None, "rows must be an iterable of BenchRow"), ([None], "rows must hold BenchRow")],
    ids=["none", "none-row"],
)
def test_write_bench_csv_rejects_what_is_no_row(rows, message):
    with pytest.raises(ValidationError, match=message):
        write_bench_csv(rows)


def test_generator_failures_carry_grid_coordinates(monkeypatch):
    def boom(config):
        raise GenerationError("no consistent draw")

    monkeypatch.setattr(bench_mod, "synthesize_pair", boom)
    with pytest.raises(BenchError, match=r"kb_id=1.*n_constraints=4.*share=0%"):
        run_benchmark((4,), (0.0,), trials=1, seed=0)


def _perfbench_workloads(monkeypatch):
    """perfbench/workloads.py, loaded by path: perfbench is no package."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up while they are defined
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_every_kb_built_without_validation_is_valid(monkeypatch):
    # contextualize, ckb_merge and _shuffled skip validate_kb, since their
    # inputs' validity implies their outputs'; prove it on every output of
    # the default grid's merges and of the three workloads' seed-1 inputs
    derived = KnowledgeBase._derived.__func__
    callers = []

    def validated(cls, *args):
        kb = derived(cls, *args)
        validate_kb(kb)
        callers.append(sys._getframe(1).f_code.co_name)
        return kb

    monkeypatch.setattr(KnowledgeBase, "_derived", classmethod(validated))
    run_benchmark(DEFAULT_GRID_SIZES, DEFAULT_GRID_SHARES, trials=10, seed=0)
    grid = len(callers)
    workloads = _perfbench_workloads(monkeypatch)
    for workload in workloads.WORKLOADS.values():
        for inp in workload.setup(1):
            if workload.name != "count_small":  # its set-up merges
                workload.op(inp, workloads.PLAIN_API)
    assert set(callers) == {"_shuffled", "contextualize", "ckb_merge"}
    # per grid merge: two shuffles, two contextualized sources and the merge
    assert grid == 500 * 5
