"""The README's library quick start runs, and its value comments hold.

Each line of the quick-start block is run in order.  Where a line's comment
begins with a Python literal (``# Fraction(196, 1)``, ``# True``, a tuple),
the line's expression must have the repr of that literal.  Other comments
(``# q^-1 + 28 q^3 + ...``) are prose and are not checked.
"""

import ast
import re
from fractions import Fraction
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def _quick_start() -> list:
    """The lines of the first python block after '## Library quick start'."""
    text = README.read_text()
    section = text[text.index("## Library quick start"):]
    return re.search(r"```python\n(.*?)```", section, re.S)[1].splitlines()


def _literal(comment: str):
    """The longest prefix of a value comment that parses as an expression
    of literals and Fraction(...) calls, as source, or None."""
    if not comment.startswith(("Fraction(", "True", "False", "(")):
        return None
    for end in range(len(comment), 0, -1):
        try:
            ast.parse(comment[:end], mode="eval")
        except SyntaxError:
            continue
        return comment[:end]
    return None


def test_quick_start_values():
    namespace = {}
    checked = 0
    for line in _quick_start():
        code, _, comment = line.partition("  #")
        literal = _literal(comment.strip())
        if literal is None:
            exec(line, namespace)
            continue
        got = eval(code, namespace)
        want = eval(literal, {"Fraction": Fraction})
        assert repr(got) == repr(want), line
        checked += 1
    # q.coeff, cell.value, cell.h_combo, goettsche_weight and the h identity
    assert checked == 5
