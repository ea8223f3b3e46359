"""The README's Python examples run, and print what their comments say, and its
per-command flag table is the CLI parser's."""

import argparse
import ast
import re
from pathlib import Path

from roi_auction.cli import _build_parser

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


def _readme_flag_table() -> dict[str, dict[str, tuple | None]]:
    text = README.read_text(encoding="utf-8")
    table = text[text.index("| command | flags |"):].split("\n\n", 1)[0]
    rows = {}
    for line in table.splitlines()[2:]:
        command, flags = re.fullmatch(r"\| `([\w-]+)` \| (.*) \|", line).groups()
        rows[command] = {
            flag: tuple(choices.split(",")) if choices else None
            for flag, choices in re.findall(r"`(--[\w-]+)(?: \{([\w,]+)\})?`", flags)
        }
    return rows


def _parser_flags() -> dict[str, dict[str, tuple | None]]:
    parser = _build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    rows = {}
    for command, cmd in sub.choices.items():
        rows[command] = {}
        for action in cmd._actions:
            if action.option_strings and action.dest != "help":
                choices = tuple(action.choices) if action.choices else None
                # README lists the default --format value first
                assert choices is None or action.default == choices[0], (command, action.dest)
                rows[command][action.option_strings[0]] = choices
    return rows


def test_readme_flag_table_is_the_parsers():
    assert _readme_flag_table() == _parser_flags()
