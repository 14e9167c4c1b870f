"""The reach gate of ``tests/reach.py``: every statement of ``src/qdonald``
is run by a golden row or a pool job, or ``KEPT`` names it with its kind."""

import os
import subprocess
import sys
from pathlib import Path

import reach

# one function of each rule: a docstring, an if and its body, a try whose
# header counts not but whose body and finally do, a statement of two lines
# and a function of a class; the class body and the module level count not
SOURCE = '''\
def f(x):
    """Docstring."""
    if x:
        return 1
    try:
        y = (2 +
             x)
    finally:
        pass
    return y


class C:
    z = 3

    def g(self):
        raise ValueError("g")
'''


def test_statements_count_by_the_rules():
    assert [(s.qualname, s.text, list(s.lines), s.within)
            for s in reach.statements("m", SOURCE)] == [
        ("f", "if x:", [3], ("if x:",)),
        ("f", "return 1", [4], ("if x:", "return 1")),
        ("f", "y = (2 +", [6, 7], ("y = (2 +",)),
        ("f", "pass", [9], ("pass",)),
        ("f", "return y", [10], ("return y",)),
        ("C.g", 'raise ValueError("g")', [17], ('raise ValueError("g")',))]


def test_faults_name_each_breach():
    """f(0) run under the tracer reaches all of f but its ``return 1``, and
    nothing of g.  Kept as they should be, there is no fault; each of the
    four breaches of the rule is named."""
    stmts = reach.statements("m", SOURCE)
    counted = {"m.py": {n for s in stmts for n in s.lines}}
    space = {}
    exec(compile(SOURCE, "m.py", "exec"), space)
    ran = {"m": reach._traced(counted, lambda: space["f"](0))["m.py"]}
    assert [s.text for s in stmts if ran["m"].isdisjoint(s.lines)] == [
        "return 1", 'raise ValueError("g")']
    kept = [("error", "test_reach.py::test_faults_name_each_breach",
             ["m C.g"]), ("public", "why", ["m f: return 1"])]
    assert reach.faults(stmts, ran, kept) == []
    bad = [("error", "test_reach.py::test_no_such_function", ["m C"]),
           ("public", "why", ["m f: return y", "m f: return 2"])]
    assert reach.faults(stmts, ran, bad) == [
        "not reached and not kept: m f: return 1 (line 4)",
        "kept as error, but no test function "
        "test_reach.py::test_no_such_function: m C",
        "kept but reached: m f: return y",
        "kept but matches no statement: m f: return 2"]


def test_only_the_cyclo_block_is_pending():
    assert [key for kind, _, keys in reach.KEPT for key in keys
            if kind == "pending" and not key.startswith("exact ")] == []


def test_every_statement_is_reached_or_kept():
    """The script, in a fresh interpreter, as its trace starts before
    ``qdonald`` is imported, reports no fault."""
    script = Path(reach.__file__)
    env = dict(os.environ, PYTHONPATH=str(script.parents[1] / "src"))
    done = subprocess.run([sys.executable, str(script)], env=env,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stdout + done.stderr
