import ast
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def _quick_start_source():
    text = README.read_text()
    section = text.split("## Library quick start", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_quick_start_runs_as_documented():
    # every expression of the example is followed, on its line or the next,
    # by a comment whose first field (up to two spaces) is its value's repr
    source = _quick_start_source()
    lines = source.splitlines()
    namespace = {}
    checked = []
    for stmt in ast.parse(source).body:
        if not isinstance(stmt, ast.Expr):
            exec(compile(ast.Module([stmt], []), "README", "exec"), namespace)
            continue
        end = stmt.end_lineno
        comment = (lines[end - 1].partition("#")[2]
                   or lines[end].partition("#")[2]).strip()
        expected = re.split(r"\s{2,}", comment)[0]
        value = eval(compile(ast.Expression(stmt.value), "README", "eval"),
                     namespace)
        assert repr(value) == expected, ast.unparse(stmt)
        checked.append(expected)
    assert checked == ["['th2']", "1", "2", "(1 + 2*t + t^2)/(1-t^2)^2", "1"]


def test_readme_params_table_matches_the_cli():
    from skewci.cli import _COMMANDS

    rows = re.findall(r"^\| `([a-z-]+)` \| (.*) \|$", README.read_text(),
                      re.M)
    table = {command: tuple(re.findall(r"`(\w+)`", keys))
             for command, keys in rows}
    assert table == {command: keys
                     for command, (_handler, keys) in _COMMANDS.items()}
