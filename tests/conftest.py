import random
import string
from pathlib import Path

import pytest
from hypothesis import strategies as st

from kbmerge import (
    And,
    Atom,
    AtomOp,
    Formula,
    Implies,
    Not,
    Or,
    Variable,
    ckb_merge,
    contextualize,
    parse_kb,
)

FIXTURES = Path(__file__).parent / "fixtures"


def load_fixture(name: str):
    return parse_kb((FIXTURES / name).read_text(encoding="utf-8"))


@pytest.fixture(scope="session")
def kb_us():
    return load_fixture("ckb_us.kb")


@pytest.fixture(scope="session")
def kb_ger():
    return load_fixture("ckb_ger.kb")


@pytest.fixture(scope="session")
def kb_union():
    return load_fixture("ckb_union_ctx.kb")


@pytest.fixture(scope="session")
def car_pair(kb_us, kb_ger):
    return (
        contextualize(kb_us, "country", "US"),
        contextualize(kb_ger, "country", "GER"),
    )


@pytest.fixture(scope="session")
def car_merged(car_pair):
    # one merge shared by the structural tests; ckb_merge is deterministic
    return ckb_merge(*car_pair)


# --- seeded random instances over the full connective language ---------------


def random_formula(rng: random.Random, variables, depth: int = 3) -> Formula:
    if depth == 0 or rng.random() < 0.4:
        v = rng.choice(variables)
        op = AtomOp.EQ if rng.random() < 0.5 else AtomOp.NEQ
        return Atom(v.name, op, rng.choice(v.domain))
    kind = rng.randrange(4)
    if kind == 0:
        return Not(random_formula(rng, variables, depth - 1))
    left = random_formula(rng, variables, depth - 1)
    right = random_formula(rng, variables, depth - 1)
    return (And, Or, Implies)[kind - 1](left, right)


def random_instance(rng: random.Random, n_vars=(2, 5), n_constraints=(0, 6)):
    """A small CSP: 2-5 variables, domains of 2-4 values, 0-6 constraints.

    ``n_vars`` and ``n_constraints`` set other inclusive (low, high) ranges.
    """
    count = rng.randint(*n_vars)
    values = tuple(string.ascii_lowercase[: rng.randint(2, 4)])
    variables = tuple(Variable(f"x{i + 1}", values) for i in range(count))
    formulas = [
        random_formula(rng, variables) for _ in range(rng.randint(*n_constraints))
    ]
    return variables, formulas


# --- hypothesis strategies over a fixed grid ---------------------------------

STRATEGY_VARS = (
    Variable("x", ("a", "b")),
    Variable("y", ("a", "b", "c")),
    Variable("z", ("a", "b")),
)

_atoms = st.sampled_from(
    [
        Atom(v.name, op, value)
        for v in STRATEGY_VARS
        for op in (AtomOp.EQ, AtomOp.NEQ)
        for value in v.domain
    ]
)

formula_strategy = st.recursive(
    _atoms,
    lambda child: st.one_of(
        st.builds(Not, child),
        st.builds(And, child, child),
        st.builds(Or, child, child),
        st.builds(Implies, child, child),
    ),
    max_leaves=12,
)

partial_assignment_strategy = st.fixed_dictionaries(
    {}, optional={v.name: st.sampled_from(v.domain) for v in STRATEGY_VARS}
)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """One visible line per acceptance criterion, whatever the capture mode."""
    outcomes = {}
    for reports in terminalreporter.stats.values():
        for rep in reports:
            nodeid = getattr(rep, "nodeid", "")
            if "test_acceptance.py::test_criterion_" not in nodeid:
                continue
            if getattr(rep, "when", None) not in ("call", "setup"):
                continue
            name = nodeid.split("::")[-1]
            passed = getattr(rep, "passed", False) and rep.when == "call"
            outcomes[name] = outcomes.get(name, False) or passed
    if outcomes:
        terminalreporter.write_sep("-", "acceptance criteria")
        for name in sorted(outcomes):
            verdict = "PASS" if outcomes[name] else "FAIL"
            terminalreporter.write_line(f"{name}: {verdict}")
