"""A fixed unit of pure-Python work that gauges the machine's current speed.

The benchmark times this unit between its ops, outside the timed interval,
and divides each measured time by the machine's speed relative to
``NOMINAL_MS``. On a shared virtual machine whose speed drifts by tens of
percent between runs, this keeps the drift out of the reported figures.

The unit shares no code with kbmerge, so a change to the program cannot
move it. It does the kind of work kbmerge's solver does: recursive walks
over small formula trees of objects and dict look-ups of a partial
assignment. It allocates nothing that the garbage collector tracks, so the
size of the program's heap does not move it either.
"""
from __future__ import annotations

import random
from time import perf_counter

# time of one unit on the machine of baseline.json in its fast phase; the
# reported times are what the ops would take at that speed
NOMINAL_MS = 0.72


class _Node:
    __slots__ = ("op", "left", "right", "var", "value")

    def __init__(self, op, left=None, right=None, var=None, value=None):
        self.op, self.left, self.right, self.var, self.value = op, left, right, var, value


def _tree(rng: random.Random, depth: int) -> _Node:
    if depth == 0 or rng.random() < 0.2:
        return _Node("eq", var=f"v{rng.randrange(6)}", value=rng.randrange(4))
    op = rng.choice(("and", "or", "not"))
    left = _tree(rng, depth - 1)
    return _Node(op, left, None if op == "not" else _tree(rng, depth - 1))


def _eval(node: _Node, assignment: dict):
    """Three-valued evaluation: True, False or None (unknown)."""
    if node.op == "eq":
        value = assignment.get(node.var)
        return None if value is None else value == node.value
    left = _eval(node.left, assignment)
    if node.op == "not":
        return None if left is None else not left
    right = _eval(node.right, assignment)
    if node.op == "and":
        if left is False or right is False:
            return False
        return True if left and right else None
    if left is True or right is True:
        return True
    return False if left is False and right is False else None


# trees of depth 6 follow the program's slow-downs more closely than shallower
# ones: through fast and slow phases, kbmerge's op times moved with this
# unit's time raised to the power 0.83-0.98, and with a depth-5 unit's time
# raised to 0.78-0.90
_RNG = random.Random(20210215)
_TREES = [_tree(_RNG, 6) for _ in range(60)]
_ASSIGNMENTS = [
    {f"v{i}": _RNG.randrange(4) for i in range(6) if _RNG.random() < 0.7} for _ in range(8)
]


def unit() -> int:
    """One unit of work; returns a checksum so that nothing is skipped."""
    total = 0
    for assignment in _ASSIGNMENTS:
        for tree in _TREES:
            verdict = _eval(tree, assignment)
            total += 2 if verdict is None else verdict
    return total


def time_unit() -> float:
    """Milliseconds that one unit takes now."""
    t0 = perf_counter()
    unit()
    return (perf_counter() - t0) * 1000.0
