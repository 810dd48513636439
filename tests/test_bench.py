"""Tests for the benchmark harness."""

import pytest

import kbmerge.bench as bench_mod
from kbmerge import BenchError, GenerationError, ValidationError, run_benchmark
from kbmerge.bench import BenchRow


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


def test_generator_failures_carry_grid_coordinates(monkeypatch):
    def boom(config):
        raise GenerationError("no consistent draw")

    monkeypatch.setattr(bench_mod, "synthesize_pair", boom)
    with pytest.raises(BenchError, match=r"kb_id=1.*n_constraints=4.*share=0%"):
        run_benchmark((4,), (0.0,), trials=1, seed=0)
