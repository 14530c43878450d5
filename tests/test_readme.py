"""The python examples of README.md run, in order, in one namespace.

Each block may use the names an earlier block imported.  An expression
statement whose line ends in `# True` must evaluate to True.
"""

import ast
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks_run_in_order():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"),
                        flags=re.M | re.S)
    assert len(blocks) == 3
    namespace: dict = {}
    claims = 0
    for block in blocks:
        lines = block.splitlines()
        for node in ast.parse(block).body:
            if isinstance(node, ast.Expr) and lines[node.end_lineno - 1].endswith("# True"):
                claim = compile(ast.Expression(node.value), README.name, "eval")
                assert eval(claim, namespace) is True, lines[node.end_lineno - 1]
                claims += 1
            else:
                exec(compile(ast.Module([node], []), README.name, "exec"), namespace)
    assert claims == 1
