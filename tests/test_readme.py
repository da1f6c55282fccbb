"""The README's library quick tour runs and computes what its comments say."""

import ast
from pathlib import Path

import qbag

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_quick_tour_states_the_values_it_computes():
    # the tour runs statement by statement; an expression whose trailing
    # comment is itself an expression must equal it, a prose comment is skipped
    text = README.read_text()
    tour = text.split("## Library quick tour", 1)[1].split("```python\n", 1)[1].split("\n```", 1)[0]
    lines = tour.splitlines()
    namespace: dict = {}
    checked = []
    for statement in ast.parse(tour).body:
        if not isinstance(statement, ast.Expr):
            exec(compile(ast.Module([statement], []), "README.md", "exec"), namespace)
            continue
        value = eval(compile(ast.Expression(statement.value), "README.md", "eval"), namespace)
        comment = lines[statement.end_lineno - 1][statement.end_col_offset:].strip().removeprefix("#").strip()
        if not comment:
            continue
        try:
            stated = eval(comment, vars(qbag))
        except SyntaxError:
            continue
        assert value == stated, (ast.get_source_segment(tour, statement), comment)
        checked.append(comment)
    assert checked == [
        "{'a': 0.125, 'b': 0.75, 'c': 0.5}",
        "-0.375",
        "-0.3125",
        "Verdict.SATISFIED_ON_INSTANCE",
    ]
