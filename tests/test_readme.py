"""The README's library quickstart runs, and each value keeps its comment's promise."""

import ast
import re
from pathlib import Path

from pwperiod import TWO_PI, TrigValue

README = Path(__file__).resolve().parents[1] / "README.md"


def quickstart_values() -> dict[str, object]:
    """Run the README's python block; the value of each expression line, keyed by its text."""
    block = re.search(r"```python\n(.*?)```", README.read_text(), re.DOTALL)[1]
    namespace, values = {}, {}
    for node in ast.parse(block).body:
        if isinstance(node, ast.Expr):
            code = compile(ast.Expression(node.value), str(README), "eval")
            values[ast.get_source_segment(block, node)] = eval(code, namespace)
        else:
            exec(compile(ast.Module([node], type_ignores=[]), str(README), "exec"), namespace)
    return values


def test_quickstart_keeps_its_comments():
    values = quickstart_values()
    assert values["classify(sys).verdict"] == "SigmaCenter"
    assert values["series.constant"] == TWO_PI
    assert values["first_obstruction(sys, jmax=8)"] == (1, TrigValue(2))
    assert repr(values["numeric_period(sys, 0.05)"]).startswith("6.4248")
    assert values["find_witness(sys, tol=1e-6)"].witness is not None
