"""tests/trace_lines.py on a toy module: which statements and raises never ran."""

import sys

import trace_lines

TOY = '''"""A toy module: its docstrings compile to no instruction."""


def pick(x):
    """Sign of x, and no zero."""
    if x > 0:
        return "positive"
    if x == 0:
        raise ValueError(
            "zero")
    try:
        return {-1: "minus one"}[x]
    except KeyError:
        return "negative"
'''


def test_tracer_reports_the_statements_that_never_ran(tmp_path):
    path = tmp_path / "toy.py"
    path.write_text(TOY, encoding="utf-8")
    namespace = {}
    before = sys.gettrace()
    with trace_lines.LineTracer(tmp_path) as tracer:
        exec(compile(TOY, str(path), "exec"), namespace)
        namespace["pick"](1)
        namespace["pick"](-1)
    assert sys.gettrace() is before
    # def, if, return, if, raise, try, return, except's return; the except
    # header is part of the try statement's handlers, not a statement
    assert trace_lines.missed(path, tracer.lines[str(path)]) == (8, 1, [9, 14], [9])
    assert trace_lines.report(tmp_path, tracer) == [
        "toy.py: 2 of 8 statements not run: 9, 14",
        "  1 of 1 raise statements not run: 9",
        "total: 2 of 8 statements and 1 of 1 raise statements not run",
    ]


def test_a_multiline_statement_counts_on_any_header_line():
    assert trace_lines.statements(TOY) == {
        4: (4, False), 6: (6, False), 7: (7, False), 8: (8, False), 9: (10, True),
        11: (11, False), 12: (12, False), 14: (14, False)}
