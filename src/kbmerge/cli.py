"""Command-line front end.

Subcommands: merge, count, check, solve, intersect, synth, bench.
Exit codes: 0 success, 1 validation or alignment error, 2 inconsistent
input (including failed generation and bench runs) or a usage error
reported by argparse, 3 I/O or parse error (a KB file that is not valid
UTF-8 included), 4 cap or guard exceeded, or input too deep for the
recursive formula walkers. Each ``KbError`` subclass carries its code as
``exit_code``.
"""
from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from typing import Optional

from .bench import run_benchmark, write_bench_csv
from .errors import ExitStatus, KbError, ParseError, ValidationError
from .merge import MergeReport, ckb_merge, contextualize, intersection_count
from .model import KnowledgeBase
from .solver import count_solutions, enumerate_solutions, is_consistent
from .synth import SynthConfig, synthesize_pair
from .textio import parse_kb, serialize_kb

DEFAULT_GRID_SIZES = tuple(range(10, 101, 10))
DEFAULT_GRID_SHARES = (0.1, 0.2, 0.3, 0.4, 0.5)


def _warn(message: str) -> None:
    print(f"warning: {message}", file=sys.stderr)


def _load_kb(path: str) -> KnowledgeBase:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as err:
        # read() decodes the whole file at once, so err.object is all of it
        # and everything before err.start decodes
        before = err.object[: err.start].decode("utf-8")
        line = before.count("\n") + 1
        column = len(before) - before.rfind("\n")
        raise ParseError(f"not valid UTF-8: {err.reason}", line, column) from None
    return parse_kb(text)


def _write_text(path: Optional[str], text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _resolve_context(
    kb1: KnowledgeBase,
    kb2: KnowledgeBase,
    ctx_var: Optional[str],
    ctx_val1: Optional[str],
    ctx_val2: Optional[str],
) -> tuple[str, str, str]:
    """Fill missing context arguments from the files' context declarations.

    Explicit flags win; a mismatch against a file declaration only warns,
    since files may predate the merge decision.
    """
    declared1 = kb1.context
    declared2 = kb2.context
    if ctx_var is None:
        declared_vars = {c[0] for c in (declared1, declared2) if c is not None}
        if len(declared_vars) == 1:
            ctx_var = declared_vars.pop()
        elif not declared_vars:
            raise ValidationError(
                "no context variable: pass --ctx-var or declare a context in the files"
            )
        else:
            raise ValidationError(
                "the files declare different context variables "
                f"({', '.join(sorted(declared_vars))}); pass --ctx-var to choose"
            )
    else:
        for kb, declared in ((kb1, declared1), (kb2, declared2)):
            if declared is not None and declared[0] != ctx_var:
                _warn(
                    f"overriding context variable '{declared[0]}' declared in "
                    f"'{kb.name}' with '{ctx_var}'"
                )

    def resolve_val(kb: KnowledgeBase, declared, given: Optional[str], flag: str) -> str:
        if given is None:
            if declared is None or declared[0] != ctx_var:
                raise ValidationError(
                    f"no context value for '{kb.name}': pass {flag} or declare "
                    f"a context on '{ctx_var}' in the file"
                )
            return declared[1]
        if declared is not None and declared[0] == ctx_var and declared[1] != given:
            _warn(
                f"overriding context value '{declared[1]}' declared in "
                f"'{kb.name}' with '{given}'"
            )
        return given

    val1 = resolve_val(kb1, declared1, ctx_val1, "--ctx-val1")
    val2 = resolve_val(kb2, declared2, ctx_val2, "--ctx-val2")
    return ctx_var, val1, val2


def _format_report(report: MergeReport) -> str:
    def listing(ids) -> str:
        return ", ".join(ids) if ids else "(none)"

    return (
        f"solver instance build: {report.build_ms:.1f} ms\n"
        f"phase 1 (decontextualization): {report.checks_phase1} checks, "
        f"{report.nodes_phase1} nodes, {report.elapsed_phase1_ms:.1f} ms\n"
        f"  decontextualized: {listing(report.decontextualized_ids)}\n"
        f"  kept contextualized: {listing(report.kept_contextualized_ids)}\n"
        f"phase 2 (redundancy elimination): {report.checks_phase2} checks, "
        f"{report.nodes_phase2} nodes, {report.elapsed_phase2_ms:.1f} ms\n"
        f"  removed as redundant: {listing(report.removed_redundant_ids)}\n"
    )


def _report_json(report: MergeReport) -> str:
    # one key per MergeReport field, in field order; one object per check
    data = asdict(report)
    data["checks"] = [check._asdict() for check in report.checks]
    return json.dumps(data, indent=2) + "\n"


def _trace_jsonl(report: MergeReport) -> str:
    # one line per check, in run order, with the keys of the JSON report's checks
    return "".join(json.dumps(check._asdict()) + "\n" for check in report.checks)


def cmd_merge(args: argparse.Namespace) -> ExitStatus:
    kb1 = _load_kb(args.file1)
    kb2 = _load_kb(args.file2)
    ctx_var, val1, val2 = _resolve_context(
        kb1, kb2, args.ctx_var, args.ctx_val1, args.ctx_val2
    )
    kb1c = contextualize(kb1, ctx_var, val1)
    kb2c = contextualize(kb2, ctx_var, val2)
    merged, report = ckb_merge(kb1c, kb2c)
    _write_text(args.out, serialize_kb(merged))
    if args.report:
        _write_text(args.report, _format_report(report))
    if args.json_report:
        _write_text(args.json_report, _report_json(report))
    if args.trace:
        _write_text(args.trace, _trace_jsonl(report))
    n_inputs = len(kb1c.constraints) + len(kb2c.constraints)
    print(
        f"merged {n_inputs} input constraints into {len(merged.constraints)} "
        f"({len(report.decontextualized_ids)} decontextualized, "
        f"{len(report.removed_redundant_ids)} removed as redundant)",
        file=sys.stderr,
    )
    return ExitStatus.OK


def _require_non_negative(flag: str, value: Optional[int]) -> None:
    if value is not None and value < 0:
        raise ValidationError(f"{flag} must be non-negative, got {value}")


def cmd_count(args: argparse.Namespace) -> ExitStatus:
    _require_non_negative("--cap", args.cap)
    kb = _load_kb(args.file)
    result, _ = count_solutions(kb.variables, kb.formulas(), cap=args.cap)
    if result.capped:
        print(f"cap exceeded: more than {args.cap} solutions")
        return ExitStatus.LIMIT_EXCEEDED
    print(result.count)
    return ExitStatus.OK


def cmd_check(args: argparse.Namespace) -> ExitStatus:
    kb = _load_kb(args.file)
    ok, stats = is_consistent(kb.variables, kb.formulas())
    print("consistent" if ok else "inconsistent")
    if args.stats:
        print(
            f"nodes explored: {stats.nodes_explored}, "
            f"elapsed: {stats.elapsed_ms:.1f} ms",
            file=sys.stderr,
        )
    return ExitStatus.OK


def cmd_solve(args: argparse.Namespace) -> ExitStatus:
    _require_non_negative("--limit", args.limit)
    kb = _load_kb(args.file)
    for solution in enumerate_solutions(kb.variables, kb.formulas(), args.limit):
        print(" ".join(f"{var}={val}" for var, val in solution.items()))
    return ExitStatus.OK


def cmd_intersect(args: argparse.Namespace) -> ExitStatus:
    kb1 = _load_kb(args.file1)
    kb2 = _load_kb(args.file2)
    print(intersection_count(kb1, kb2))
    return ExitStatus.OK


def cmd_synth(args: argparse.Namespace) -> ExitStatus:
    cfg = SynthConfig(
        n_constraints=args.n_constraints,
        context_share=args.context_share,
        seed=args.seed,
        n_vars=args.n_vars,
        domain_size=args.domain_size,
    )
    kb1, kb2 = synthesize_pair(cfg)
    header = (
        f"# synthesized pair: seed={cfg.seed} n_constraints={cfg.n_constraints} "
        f"context_share={cfg.context_share} n_vars={cfg.n_vars} "
        f"domain_size={cfg.domain_size}\n"
    )
    _write_text(args.out1, header + serialize_kb(kb1))
    _write_text(args.out2, header + serialize_kb(kb2))
    return ExitStatus.OK


def cmd_bench(args: argparse.Namespace) -> ExitStatus:
    rows = run_benchmark(
        sizes=args.sizes,
        shares=args.shares,
        trials=args.trials,
        seed=args.seed,
        verify_counts=args.verify_counts,
    )
    _write_text(args.out, write_bench_csv(rows))
    print(f"{len(rows)} rows", file=sys.stderr)
    return ExitStatus.OK


def _int_list(text: str) -> list[int]:
    return [int(part) for part in text.split(",") if part.strip()]


def _float_list(text: str) -> list[float]:
    return [float(part) for part in text.split(",") if part.strip()]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kbmerge",
        description="Merge variability models by consistency-based "
        "contextualization, decontextualization and redundancy elimination.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("merge", help="merge two knowledge bases")
    p.add_argument("file1")
    p.add_argument("file2")
    p.add_argument("--ctx-var", help="context variable (default: from the files)")
    p.add_argument("--ctx-val1", help="context value of the first KB")
    p.add_argument("--ctx-val2", help="context value of the second KB")
    p.add_argument("--out", help="write the merged KB here (default: stdout)")
    p.add_argument("--report", help="write a text merge report here")
    p.add_argument("--json-report", help="write a JSON merge report here")
    p.add_argument("--trace", help="write one JSON line per consistency check here")
    p.set_defaults(func=cmd_merge)

    p = sub.add_parser("count", help="count solutions of a knowledge base")
    p.add_argument("file")
    p.add_argument("--cap", type=int,
                   help="exit 4 if there are more than this many solutions; "
                        "counting may stop as soon as that is known")
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("check", help="report whether a knowledge base is consistent")
    p.add_argument("file")
    p.add_argument("--stats", action="store_true", help="print search statistics")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("solve", help="print satisfying assignments")
    p.add_argument("file")
    p.add_argument("--limit", type=int, default=10, help="maximum solutions to print")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser(
        "intersect",
        help="count shared solutions of two knowledge bases over the "
        "non-context variables",
    )
    p.add_argument("file1")
    p.add_argument("file2")
    p.set_defaults(func=cmd_intersect)

    p = sub.add_parser("synth", help="synthesize a seeded knowledge-base pair")
    p.add_argument("out1", help="output path of the first KB ('-' for stdout)")
    p.add_argument("out2", help="output path of the second KB ('-' for stdout)")
    p.add_argument("--n-constraints", type=int, required=True,
                   help="total constraints across both sources")
    p.add_argument("--context-share", type=float, required=True,
                   help="fraction of source-unique constraints, 0 to 1")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--n-vars", type=int, default=10)
    p.add_argument("--domain-size", type=int, default=4)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("bench", help="run the merge benchmark grid, emit CSV")
    p.add_argument("--sizes", type=_int_list, default=list(DEFAULT_GRID_SIZES),
                   help="comma-separated total constraint counts")
    p.add_argument("--shares", type=_float_list, default=list(DEFAULT_GRID_SHARES),
                   help="comma-separated context shares, 0 to 1")
    p.add_argument("--trials", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="CSV output path (default: stdout)")
    p.add_argument("--verify-counts", action="store_true",
                   help="fail if a cell's solution count varies across trials")
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return int(args.func(args))
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return ExitStatus.IO_ERROR
    except KbError as err:
        print(f"error: {err}", file=sys.stderr)
        return err.exit_code
    except RecursionError:
        # the formula walkers recurse per nesting level; the search and
        # the counter keep their frames on explicit stacks
        print("error: input too deep: a formula nests too deeply", file=sys.stderr)
        return ExitStatus.LIMIT_EXCEEDED


if __name__ == "__main__":
    sys.exit(main())
