"""Experiment grid: merge timing over sizes x contextualization shares.

One pair is synthesized per grid cell; every trial reshuffles the source
constraint orders with a trial-derived seed and reruns the merge, so the
timings cover order variance without regenerating the instances. Timing
uses a monotonic clock and is reported in whole milliseconds; absolute
values are hardware-bound and only the shapes (linearity of phase-1
checks, share trends) are meaningful. ``write_bench_csv`` renders the rows
as CSV.
"""
from __future__ import annotations

import csv
import io
import random
import time
from dataclasses import astuple, dataclass, fields
from typing import Iterable, Sequence

try:
    # the module behind hashlib.blake2b; importing hashlib would also load
    # OpenSSL, about 3.5 MiB of resident memory that nothing here uses
    from _blake2 import blake2b
except ImportError:  # an interpreter built without it
    from hashlib import blake2b

from .errors import BenchError, KbError, ValidationError
from .merge import ckb_merge, contextualize
from .model import KnowledgeBase
from .solver import count_solutions, is_consistent
from .synth import CTX_VAR, SynthConfig, synthesize_pair


@dataclass(frozen=True)
class BenchRow:
    """One trial of one grid cell; durations in whole milliseconds."""

    kb_id: int
    n_constraints: int
    context_share_pct: int
    trial: int
    merge_ms: int
    solve_ms: int
    checks_phase1: int
    checks_phase2: int


# the columns of ``write_bench_csv``, in BenchRow's field order
BENCH_CSV_HEADER = tuple(f.name for f in fields(BenchRow))


def write_bench_csv(rows: Iterable[BenchRow]) -> str:
    """Render benchmark rows as CSV text under ``BENCH_CSV_HEADER``; rows
    that are not an iterable of BenchRow raise ValidationError."""
    if not isinstance(rows, Iterable):
        raise ValidationError(f"rows must be an iterable of BenchRow, got {rows!r}")
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(BENCH_CSV_HEADER)
    for r in rows:
        if not isinstance(r, BenchRow):
            raise ValidationError(f"rows must hold BenchRow records, got {r!r}")
        writer.writerow(astuple(r))
    return buf.getvalue()


def _derive_seed(*parts) -> int:
    digest = blake2b(repr(parts).encode("utf-8"), digest_size=8)
    return int.from_bytes(digest.digest(), "big")


def _shuffled(kb: KnowledgeBase, rng: random.Random) -> KnowledgeBase:
    constraints = list(kb.constraints)
    rng.shuffle(constraints)
    # a permutation of a valid KB is valid
    return KnowledgeBase._derived(kb.name, kb.variables, tuple(constraints), kb.context)


def _whole_ms(seconds: float) -> int:
    return int(round(seconds * 1000.0))


def _run_cell(
    seed: int,
    kb_id: int,
    size: int,
    share: float,
    trials: int,
    verify_counts: bool,
) -> list[BenchRow]:
    # validates the share before it is rounded to a percentage
    cfg = SynthConfig(
        n_constraints=size,
        context_share=share,
        seed=_derive_seed("pair", seed, size, share),
    )
    share_pct = int(round(share * 100))
    where = f"cell kb_id={kb_id} (n_constraints={size}, share={share_pct}%)"
    try:
        raw1, raw2 = synthesize_pair(cfg)
    except KbError as err:
        raise BenchError(f"{where}: {err}") from err

    rows: list[BenchRow] = []
    counts: list[int] = []
    for trial in range(trials):
        try:
            rng = random.Random(_derive_seed("trial", seed, size, share, trial))
            kb1 = _shuffled(raw1, rng)
            kb2 = _shuffled(raw2, rng)
            kb1c = contextualize(kb1, CTX_VAR, kb1.context[1])
            kb2c = contextualize(kb2, CTX_VAR, kb2.context[1])

            t0 = time.perf_counter()
            merged, report = ckb_merge(kb1c, kb2c)
            t1 = time.perf_counter()

            if report.checks_phase1 != size:
                raise BenchError(
                    f"{where}, trial {trial}: checks_phase1={report.checks_phase1} "
                    f"but the cell has {size} input constraints"
                )

            t2 = time.perf_counter()
            ok, _ = is_consistent(merged.variables, merged.formulas())
            t3 = time.perf_counter()
            if not ok:
                raise BenchError(
                    f"{where}, trial {trial}: merged KB is inconsistent although "
                    f"both sources were consistent"
                )

            rows.append(
                BenchRow(
                    kb_id=kb_id,
                    n_constraints=size,
                    context_share_pct=share_pct,
                    trial=trial,
                    merge_ms=_whole_ms(t1 - t0),
                    solve_ms=_whole_ms(t3 - t2),
                    checks_phase1=report.checks_phase1,
                    checks_phase2=report.checks_phase2,
                )
            )
            if verify_counts:
                result, _ = count_solutions(merged.variables, merged.formulas())
                counts.append(result.count)
        except BenchError:
            raise
        except KbError as err:
            raise BenchError(f"{where}, trial {trial}: {err}") from err

    if verify_counts and len(set(counts)) > 1:
        raise BenchError(
            f"{where}: merged solution count varies across trial orderings: "
            f"{sorted(set(counts))}"
        )
    return rows


def _require_sequence(name: str, values: object, kinds, what: str) -> None:
    """Raise ValidationError naming ``name`` unless ``values`` is a sequence,
    not a string, of ``kinds``."""
    if (
        isinstance(values, str)
        or not isinstance(values, Sequence)
        or not all(isinstance(v, kinds) for v in values)
    ):
        raise ValidationError(f"{name} must be a sequence of {what}, got {values!r}")


def run_benchmark(
    sizes: Sequence[int],
    shares: Sequence[float],
    trials: int,
    seed: int,
    verify_counts: bool = False,
) -> list[BenchRow]:
    """Run the full grid and return |sizes| x |shares| x trials rows.

    ``verify_counts`` additionally counts each merged KB's solutions and
    fails the cell when trials disagree (the solution space must not
    depend on constraint order). ``sizes`` must be a sequence of integers
    and ``shares`` one of numbers, neither a string.
    """
    _require_sequence("sizes", sizes, int, "integers")
    _require_sequence("shares", shares, (int, float), "numbers")
    if not isinstance(trials, int):
        raise ValidationError(f"trials must be an integer, got {trials!r}")
    if trials < 1:
        raise ValidationError("trials must be at least 1")
    if not sizes or not shares:
        raise ValidationError("the grid needs at least one size and one share")
    rows: list[BenchRow] = []
    kb_id = 0
    for size in sizes:
        for share in shares:
            kb_id += 1
            rows += _run_cell(seed, kb_id, size, share, trials, verify_counts)
    return rows
