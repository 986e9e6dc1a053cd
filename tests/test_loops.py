"""Every ``while`` loop in the package is one that the table below names, with the bound that stops it."""

import ast
from collections import Counter
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "ballwalk"

# (module, top-level function) -> the bound of each of its while loops, in source order
BOUNDED_LOOPS = {
    ("brownian", "tightness_N"): (
        "doubling: hi doubles each pass, and the loop raises ValueError past 2^53",
        "bisection: hi - lo halves each pass, from at most 2^53",
    ),
    ("brownian", "euler_chunk"): ("each pass steps a block of k >= 1 of the n_steps left: at most n_steps blocks",),
    ("hardy_limit", "limit_experiment"): ("k <= 25: tightness_N(2.0, 26) raises past 2^53",),
    ("harmonic", "estimate_rates"): ("the band scan steps j down the rate grid and stops at 0",),
}


def while_loops() -> dict:
    """(module, top-level name) -> its number of while loops, for every name that has one;
    a loop outside any def or class counts under the name None."""
    found = Counter()
    for path in sorted(PACKAGE.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            found[(path.stem, getattr(top, "name", None))] += sum(isinstance(n, ast.While) for n in ast.walk(top))
    return {key: n for key, n in found.items() if n}


def test_every_while_loop_is_a_named_bounded_one():
    assert while_loops() == {key: len(bounds) for key, bounds in BOUNDED_LOOPS.items()}
