"""End-to-end tests driving the command-line interface through main()."""

import json
from pathlib import Path

import pytest

from conftest import FIXTURES
from kbmerge import (
    AlignmentError,
    BenchError,
    ConstraintNotFoundError,
    GenerationError,
    InconsistentInputError,
    KbError,
    NotContextualizedError,
    ParseError,
    SpaceTooLargeError,
    UnassignedVariableError,
    ValidationError,
    contextualize,
    parse_kb,
    serialize_kb,
)
from kbmerge.bench import BENCH_CSV_HEADER
from kbmerge.cli import main

US = str(FIXTURES / "ckb_us.kb")
GER = str(FIXTURES / "ckb_ger.kb")
UNION = str(FIXTURES / "ckb_union_ctx.kb")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# counting and checking


def test_count_us(capsys):
    code, out, _ = run(capsys, "count", US)
    assert code == 0
    assert out == "288\n"


def test_count_ger(capsys):
    code, out, _ = run(capsys, "count", GER)
    assert code == 0
    assert out == "324\n"


def test_count_cap_exceeded(capsys):
    code, out, _ = run(capsys, "count", US, "--cap", "100")
    assert code == 4
    assert out == "cap exceeded: more than 100 solutions\n"


def test_count_rejects_negative_cap(capsys):
    code, out, err = run(capsys, "count", US, "--cap", "-1")
    assert code == 1
    assert out == ""
    assert "--cap must be non-negative" in err


def test_check_consistent(capsys):
    code, out, _ = run(capsys, "check", US)
    assert code == 0
    assert out.splitlines()[0] == "consistent"


def test_check_inconsistent_still_exits_zero(tmp_path, capsys):
    path = tmp_path / "contradiction.kb"
    path.write_text(
        'kb "contradiction" {\n'
        "  var x : { a, b };\n"
        "  constraint c1: x = a;\n"
        "  constraint c2: x != a;\n"
        "}\n"
    )
    code, out, _ = run(capsys, "check", str(path))
    assert code == 0
    assert out.splitlines()[0] == "inconsistent"


def test_check_stats_flag(capsys):
    code, out, err = run(capsys, "check", US, "--stats")
    assert code == 0
    assert out.splitlines()[0] == "consistent"
    assert "nodes explored" in err


def test_solve_prints_assignments(capsys):
    code, out, _ = run(capsys, "solve", US, "--limit", "3")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 3
    kb = parse_kb(Path(US).read_text(encoding="utf-8"))
    names = [v.name for v in kb.variables]
    for line in lines:
        pairs = dict(tok.split("=", 1) for tok in line.split())
        assert sorted(pairs) == sorted(names)


def test_solve_rejects_negative_limit(capsys):
    code, out, err = run(capsys, "solve", US, "--limit", "-1")
    assert code == 1
    assert out == ""
    assert "--limit must be non-negative" in err


def test_solve_accepts_a_limit_above_sys_maxsize(capsys):
    code, out, _ = run(capsys, "solve", US, "--limit", "288")
    assert code == 0
    code, unbounded, _ = run(capsys, "solve", US, "--limit", "9223372036854775808")
    assert code == 0
    assert unbounded == out
    assert len(out.splitlines()) == 288


def test_intersect(capsys):
    code, out, _ = run(capsys, "intersect", US, GER)
    assert code == 0
    assert out == "126\n"


# merging


def test_merge_writes_output_and_summary(tmp_path, capsys):
    out_path = tmp_path / "merged.kb"
    code, out, err = run(capsys, "merge", US, GER, "--out", str(out_path))
    assert code == 0
    assert out == ""
    assert "merged 6 input constraints into 5" in err
    merged = parse_kb(out_path.read_text())
    assert len(merged.constraints) == 5


def test_merged_output_counts_the_union(tmp_path, capsys):
    out_path = tmp_path / "merged.kb"
    run(capsys, "merge", US, GER, "--out", str(out_path))
    code, out, _ = run(capsys, "count", str(out_path))
    assert code == 0
    assert out == "612\n"


def test_merge_reports(tmp_path, capsys):
    out_path = tmp_path / "merged.kb"
    report_path = tmp_path / "report.txt"
    json_path = tmp_path / "report.json"
    code, _, _ = run(
        capsys,
        "merge", US, GER,
        "--out", str(out_path),
        "--report", str(report_path),
        "--json-report", str(json_path),
    )
    assert code == 0
    text = report_path.read_text()
    assert "decontextualized: c2us, c2ger" in text
    assert "removed as redundant:" in text
    data = json.loads(json_path.read_text())
    assert data["checks_phase1"] == 6
    assert data["checks_phase2"] == 6
    assert set(data["decontextualized_ids"]) == {"c2us", "c2ger"}
    assert len(data["removed_redundant_ids"]) == 1
    assert data["nodes_phase1"] > 0
    assert data["nodes_phase2"] > 0
    assert data["build_ms"] >= 0
    checks = data["checks"]
    assert [c["phase"] for c in checks] == ["input"] * 2 + ["1"] * 6 + ["2"] * 6
    assert sum(c["nodes"] for c in checks if c["phase"] == "1") == data["nodes_phase1"]
    fields = {"phase", "constraint_id", "consistent", "nodes", "search_ms"}
    assert all(c.keys() == fields for c in checks)
    assert "solver instance build:" in text
    assert f"6 checks, {data['nodes_phase1']} nodes" in text


def test_merge_trace_has_one_line_per_check(tmp_path, capsys):
    json_path = tmp_path / "report.json"
    trace_path = tmp_path / "trace.jsonl"
    code, _, _ = run(
        capsys,
        "merge", US, GER,
        "--out", str(tmp_path / "merged.kb"),
        "--json-report", str(json_path),
        "--trace", str(trace_path),
    )
    assert code == 0
    data = json.loads(json_path.read_text())
    lines = trace_path.read_text().splitlines()
    assert len(lines) == 2 + data["checks_phase1"] + data["checks_phase2"]
    trace = [json.loads(line) for line in lines]
    assert trace == data["checks"]
    for phase in ("1", "2"):
        nodes = sum(c["nodes"] for c in trace if c["phase"] == phase)
        assert nodes == data[f"nodes_phase{phase}"]


def test_merge_to_stdout_by_default(capsys):
    code, out, _ = run(capsys, "merge", US, GER)
    assert code == 0
    assert out.startswith('kb "CKB_us+CKB_ger"')


def test_merge_output_matches_golden_file(tmp_path, capsys):
    golden = (FIXTURES / "car_merged.kb").read_text(encoding="utf-8")
    code, out, _ = run(capsys, "merge", US, GER)
    assert code == 0
    assert out == golden
    # sources that are already contextualized merge to the same text
    guarded = []
    for path, value in ((US, "US"), (GER, "GER")):
        with open(path, encoding="utf-8") as fh:
            kb = contextualize(parse_kb(fh.read()), "country", value)
        target = tmp_path / f"{value}.kb"
        target.write_text(serialize_kb(kb), encoding="utf-8")
        guarded.append(str(target))
    code, out, _ = run(capsys, "merge", *guarded)
    assert code == 0
    assert out == golden


def test_merge_ctx_value_override_warns(tmp_path, capsys):
    # a value that contradicts the file's declared one cannot re-pin its
    # singleton US domain to GER: contextualize's error is the one message
    out_path = tmp_path / "merged.kb"
    code, _, err = run(
        capsys,
        "merge", US, GER,
        "--ctx-val1", "GER",
        "--out", str(out_path),
    )
    assert code == 1
    assert "singleton domain {GER}" in err
    assert "error:" in err
    assert "warning:" not in err


# exit codes and error reporting


def test_parse_error_exit_code(tmp_path, capsys):
    path = tmp_path / "broken.kb"
    path.write_text('kb "broken" {\n  var x : { a b };\n}\n')
    code, _, err = run(capsys, "count", str(path))
    assert code == 3
    assert "error:" in err
    assert "2:" in err  # carries the source position


def test_non_utf8_file_exit_code(tmp_path, capsys):
    path = tmp_path / "latin1.kb"
    path.write_bytes(b'kb "latin1" {\n  var x : { a, \xffb };\n}\n')
    code, out, err = run(capsys, "check", str(path))
    assert code == 3
    assert out == ""
    # one line, with the position of the first byte that does not decode
    assert err == "error: 2:16: not valid UTF-8: invalid start byte\n"


def test_missing_file_exit_code(capsys):
    code, _, err = run(capsys, "count", "no_such_file.kb")
    assert code == 3
    assert "error:" in err


def test_undeclared_variable_exit_code(tmp_path, capsys):
    path = tmp_path / "bad.kb"
    path.write_text(
        'kb "bad" {\n  var x : { a, b };\n  constraint c1: y = a;\n}\n'
    )
    code, _, err = run(capsys, "count", str(path))
    assert code == 1
    assert "y" in err


def test_inconsistent_merge_input_exit_code(tmp_path, capsys):
    path = tmp_path / "dead.kb"
    path.write_text(
        'kb "dead" {\n'
        "  context country = US;\n"
        "  var country : { US };\n"
        "  var fuel : { electro, diesel };\n"
        "  constraint c1: fuel = electro;\n"
        "  constraint c2: fuel != electro;\n"
        "}\n"
    )
    # dead.kb's fuel domain is not GER's: alignment, which runs before the
    # merge's input checks, rejects it first and names the variable
    code, _, err = run(capsys, "merge", str(path), GER)
    assert code == 1
    assert "fuel" in err
    # aligned with GER, but c1us already rules out hybrid fuel: the merge's
    # input check, the one consistency proof, names the source
    text = Path(US).read_text(encoding="utf-8")
    end = text.rindex("}")
    path = tmp_path / "us_dead.kb"
    path.write_text(text[:end] + "  constraint c4us: fuel = hybrid;\n" + text[end:])
    code, _, err = run(capsys, "merge", str(path), GER)
    assert code == 2
    assert "CKB_us" in err


def test_widened_context_domain_exit_code(tmp_path, capsys):
    text = Path(US).read_text(encoding="utf-8").replace("{ US }", "{ US, GER }")
    path = tmp_path / "widened.kb"
    path.write_text(text)
    code, _, err = run(capsys, "merge", str(path), GER)
    assert code == 1
    assert err == (
        "error: context variable 'country' must have the singleton domain {US} "
        "in 'CKB_us', found {US, GER}\n"
    )


def test_domain_mismatch_exit_code_names_variable(tmp_path, capsys):
    text = Path(GER).read_text(encoding="utf-8").replace("{ white, black }", "{ white, red }")
    path = tmp_path / "recolored.kb"
    path.write_text(text)
    code, _, err = run(capsys, "merge", US, str(path))
    assert code == 1
    assert "color" in err


def test_merge_renamed_id_clash_exit_code(tmp_path, capsys):
    text = (
        'kb "%s" {\n  context ctx = %s;\n  var ctx : { %s };\n'
        "  var x : { a, b };\n  var y : { a, b };\n%s}\n"
    )
    left = tmp_path / "kb1.kb"
    left.write_text(
        text % ("kb1", "A", "A", "  constraint r: x = a;\n  constraint r.kb2: y = a;\n")
    )
    right = tmp_path / "kb2.kb"
    right.write_text(text % ("kb2", "B", "B", "  constraint r: y = b;\n"))
    # r of kb2 is renamed r.kb2, which kb1 already holds
    code, _, err = run(capsys, "merge", str(left), str(right))
    assert code == 1
    assert "duplicate constraint id 'r.kb2'" in err


def test_merge_of_two_sources_with_the_same_name(tmp_path, capsys):
    text = 'kb "car" {\n  var fuel : { gas, hybrid };\n  constraint c1: fuel != %s;\n}\n'
    left = tmp_path / "a.kb"
    left.write_text(text % "hybrid")
    right = tmp_path / "b.kb"
    right.write_text(text % "gas")
    # both c1 carry the tag car, so the context values suffix them
    code, out, _ = run(
        capsys, "merge", str(left), str(right),
        "--ctx-var", "country", "--ctx-val1", "US", "--ctx-val2", "GER",
    )
    assert code == 0
    assert "c1.US:" in out and "c1.GER:" in out


def test_merge_without_any_context_declaration(tmp_path, capsys):
    path = tmp_path / "plain.kb"
    path.write_text('kb "plain" {\n  var x : { a, b };\n}\n')
    code, _, err = run(capsys, "merge", str(path), str(path))
    assert code == 1
    assert "--ctx-var" in err


def _fuel_kb(path, context=""):
    """A one-constraint car KB, declaring ``context`` if given."""
    path.write_text(
        'kb "car" {\n%s  var fuel : { gas, hybrid };\n  constraint c1: fuel != hybrid;\n}\n'
        % (f"  context {context};\n" if context else "")
    )
    return str(path)


def test_merge_of_files_declaring_different_context_variables(tmp_path, capsys):
    market = tmp_path / "ger_market.kb"
    market.write_text(Path(GER).read_text().replace("country", "market"))
    code, out, err = run(capsys, "merge", US, str(market))
    assert code == 1
    assert out == ""
    assert "different context variables (country, market)" in err


def test_ctx_var_flag_overrides_a_declared_context_variable(tmp_path, capsys):
    # fuel = gas is a well-formed declaration on a shared variable, which
    # --ctx-var replaces by a fresh context variable
    left = _fuel_kb(tmp_path / "a.kb", "fuel = gas")
    right = _fuel_kb(tmp_path / "b.kb")
    code, out, err = run(
        capsys, "merge", left, right,
        "--ctx-var", "country", "--ctx-val1", "US", "--ctx-val2", "GER",
    )
    assert code == 0
    assert "warning: overriding context variable 'fuel' declared in 'car' with 'country'" in err
    assert "var country : { US, GER };" in out


def test_merge_without_a_context_value_for_the_chosen_variable(tmp_path, capsys):
    # the US file settles the context variable, but the other file has no
    # value for it
    code, out, err = run(capsys, "merge", US, _fuel_kb(tmp_path / "b.kb"))
    assert code == 1
    assert out == ""
    assert "no context value for 'car': pass --ctx-val2" in err


def _deep_kb(path):
    # one constraint, a chain of 3000 or-ed atoms
    values = ", ".join(f"v{i}" for i in range(3000))
    chain = " or ".join(f"x = v{i}" for i in range(3000))
    path.write_text(f'kb "deep" {{ var x : {{ {values} }}; constraint c1: {chain}; }}')


def _wide_kb(path):
    # 1500 variables, one constraint on the last of them
    decls = " ".join(f"var x{i} : {{ a, b }};" for i in range(1500))
    path.write_text(f'kb "wide" {{ {decls} constraint c1: x1499 = a; }}')


def _chain_kb(path):
    # 1500 variables, each one at a forcing the next to a
    decls = " ".join(f"var x{i} : {{ a, b }};" for i in range(1500))
    chain = " ".join(f"constraint c{i}: x{i} = a -> x{i + 1} = a;" for i in range(1499))
    path.write_text(f'kb "chain" {{ {decls} {chain} }}')


def _parenthesized_kb(path):
    # one constraint inside 300 parentheses
    body = "(" * 300 + "x = a" + ")" * 300
    path.write_text(f'kb "nested" {{ var x : {{ a, b }}; constraint c1: {body}; }}')


WIDE_SOLUTION = " ".join(f"x{i}=a" for i in range(1500)) + "\n"


@pytest.mark.parametrize(
    "make, argv, want",
    [
        (_deep_kb, ["count"], None),
        # the search keeps its levels on an explicit stack
        (_wide_kb, ["check"], (0, "consistent\n")),
        # counting splits off the 1499 unconstrained variables, so it
        # never goes deeper than the one constrained variable
        (_wide_kb, ["count", "--cap", "10"], (4, "cap exceeded: more than 10 solutions\n")),
        (_wide_kb, ["solve", "--limit", "1"], (0, WIDE_SOLUTION)),
        # the counter keeps its frames on an explicit stack
        (_chain_kb, ["count"], (0, "1501\n")),
        # the parser climbs two frames per level of parentheses
        (_parenthesized_kb, ["check"], (0, "consistent\n")),
    ],
    ids=[
        "deep-count", "wide-check", "wide-count-cap", "wide-solve", "chain-count",
        "parenthesized-check",
    ],
)
def test_too_deep_input_exit_code(make, argv, want, tmp_path, capsys):
    path = tmp_path / "big.kb"
    make(path)
    code, out, err = run(capsys, argv[0], str(path), *argv[1:])
    if want is not None:
        assert (code, out, err) == (*want, "")
        return
    assert code == 4
    assert out == ""
    assert err.startswith("error: input too deep")
    assert err.count("\n") == 1


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


# every error class, one instance of it, and the exit status that the
# kbmerge.cli docstring gives it
ERROR_EXIT_CODES = {
    KbError: (KbError("unspecified"), 1),
    ValidationError: (ValidationError("invalid"), 1),
    AlignmentError: (AlignmentError("color", "domain mismatch"), 1),
    NotContextualizedError: (NotContextualizedError("c1 is not guarded"), 1),
    ConstraintNotFoundError: (ConstraintNotFoundError("no c9"), 1),
    UnassignedVariableError: (UnassignedVariableError("fuel"), 1),
    ParseError: (ParseError("unexpected token", 2, 5), 3),
    InconsistentInputError: (InconsistentInputError("'dead' is inconsistent"), 2),
    GenerationError: (GenerationError("retry budget exhausted"), 2),
    BenchError: (BenchError("cell kb_id=1 failed"), 2),
    SpaceTooLargeError: (SpaceTooLargeError("space too large"), 4),
}


@pytest.mark.parametrize(
    "cls", [KbError, *_subclasses(KbError)], ids=lambda cls: cls.__name__
)
def test_every_error_class_maps_to_its_exit_code(cls, monkeypatch, capsys):
    error, want = ERROR_EXIT_CODES[cls]

    def fail(args):
        raise error

    monkeypatch.setattr("kbmerge.cli.cmd_check", fail)
    code, out, err = run(capsys, "check", US)
    assert code == want
    assert out == ""
    assert err == f"error: {error}\n"


# synthesis and benchmarking


def test_synth_writes_seeded_pair(tmp_path, capsys):
    out1 = tmp_path / "a.kb"
    out2 = tmp_path / "b.kb"
    code, _, _ = run(
        capsys,
        "synth", str(out1), str(out2),
        "--n-constraints", "8",
        "--context-share", "0.5",
        "--seed", "3",
    )
    assert code == 0
    text1 = out1.read_text()
    assert text1.startswith("# synthesized pair: seed=3 ")
    kb1 = parse_kb(text1)
    kb2 = parse_kb(out2.read_text())
    assert len(kb1.constraints) + len(kb2.constraints) == 8

    # same seed, same bytes
    rerun1 = tmp_path / "a2.kb"
    rerun2 = tmp_path / "b2.kb"
    run(
        capsys,
        "synth", str(rerun1), str(rerun2),
        "--n-constraints", "8",
        "--context-share", "0.5",
        "--seed", "3",
    )
    assert rerun1.read_text() == text1


def test_synth_rejects_bad_share(tmp_path, capsys):
    code, _, err = run(
        capsys,
        "synth", str(tmp_path / "x.kb"), str(tmp_path / "y.kb"),
        "--n-constraints", "8",
        "--context-share", "1.5",
    )
    assert code == 1
    assert "error:" in err


def test_bench_writes_csv(tmp_path, capsys):
    out = tmp_path / "bench.csv"
    code, _, err = run(
        capsys,
        "bench",
        "--sizes", "4,6",
        "--shares", "0.0,0.5",
        "--trials", "2",
        "--seed", "7",
        "--out", str(out),
    )
    assert code == 0
    assert "8 rows" in err
    lines = out.read_text().splitlines()
    assert lines[0] == ",".join(BENCH_CSV_HEADER)
    assert len(lines) == 9
    first = lines[1].split(",")
    assert first[0] == "1" and first[1] == "4" and first[2] == "0"


def test_bench_csv_to_stdout(capsys):
    code, out, _ = run(
        capsys, "bench", "--sizes", "4", "--shares", "0.0", "--trials", "1"
    )
    assert code == 0
    assert out.splitlines()[0] == ",".join(BENCH_CSV_HEADER)


@pytest.mark.parametrize("flag", ["--sizes", "--shares"])
def test_bench_rejects_an_empty_list(flag, capsys):
    code, out, err = run(capsys, "bench", flag, ",", "--trials", "1")
    assert code == 1
    assert out == ""
    assert "at least one size and one share" in err


@pytest.mark.parametrize("share", ["nan", "inf", "1e308", "1.5"])
def test_bench_rejects_a_share_outside_the_unit_interval(share, capsys):
    code, out, err = run(
        capsys, "bench", "--sizes", "10", "--shares", share, "--trials", "1"
    )
    assert code == 1
    assert out == ""
    assert err == "error: context_share must lie in [0, 1]\n"
