"""The README's Python examples run, and print what their comments say."""

import ast
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"
# a comment that opens with the value the expression before it evaluates to
STATED = re.compile(r"#\s*(True|False|[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?)\b")


def _python_blocks(text: str) -> list[str]:
    return re.findall(r"^```python\n(.*?)^```", text, flags=re.MULTILINE | re.DOTALL)


def test_readme_examples_match_their_comments():
    namespace: dict = {}
    checked = 0
    for block in _python_blocks(README.read_text(encoding="utf-8")):
        lines = block.splitlines()
        for stmt in ast.parse(block).body:
            source = ast.get_source_segment(block, stmt)
            stated = STATED.search(lines[stmt.end_lineno - 1].partition(source.splitlines()[-1])[2])
            if not isinstance(stmt, ast.Expr) or stated is None:
                exec(compile(source, str(README), "exec"), namespace)
                continue
            got = eval(compile(source, str(README), "eval"), namespace)
            want = stated.group(1)
            if want in ("True", "False"):
                assert got is (want == "True"), f"{source} gave {got!r}, README says {want}"
            else:
                assert abs(got - float(want)) <= 1e-9, f"{source} gave {got!r}, README says {want}"
            checked += 1
    assert checked >= 8
