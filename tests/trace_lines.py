"""Which statements of the package a pytest run never executes.

    PYTHONPATH=src python tests/trace_lines.py [pytest arguments]

Runs pytest in this process under sys.settrace, limited to the files
under src/fracturecube, and prints per module the statements that never
ran and, among them, the `raise` statements. A statement counts as run
when a line event fires anywhere in its header: the whole statement for
a simple one, the lines before its body for a compound one. Only this
process is traced, so code that a test runs in a subprocess counts as
not run. The standard library is all it needs; the file is not a test
module, so pytest does not collect it.
"""

import ast
import sys
import threading
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "fracturecube"


def statements(source: str) -> dict:
    """First line -> (last header line, is a raise) for each statement,
    docstrings left out: they compile to no instruction."""
    out = {}
    for node in ast.walk(ast.parse(source)):
        for field in ("body", "orelse", "finalbody"):
            block = getattr(node, field, None)
            if not isinstance(block, list):
                continue
            if (field == "body" and isinstance(node, _DOCUMENTED) and block
                    and isinstance(block[0], ast.Expr)
                    and isinstance(block[0].value, ast.Constant)
                    and isinstance(block[0].value.value, str)):
                block = block[1:]
            for child in block:
                _add(out, child)
    return out


_DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _add(out: dict, node: ast.stmt):
    inner = getattr(node, "body", None)
    last = inner[0].lineno - 1 if isinstance(inner, list) and inner else node.end_lineno
    first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", ())])
    out[first] = (max(last, first), isinstance(node, ast.Raise))


class LineTracer:
    """Records, per file under root, the lines on which a line event fired."""

    def __init__(self, root: Path):
        self.root = str(root)
        self.lines = {}

    def _global(self, frame, event, arg):
        name = frame.f_code.co_filename
        if not name.startswith(self.root):
            return None
        seen = self.lines.setdefault(name, set())
        seen.add(frame.f_lineno)

        def local(frame, event, arg):
            seen.add(frame.f_lineno)
            return local
        return local

    def __enter__(self):
        self._saved = sys.gettrace(), threading.gettrace()
        threading.settrace(self._global)
        sys.settrace(self._global)
        return self

    def __exit__(self, *exc):
        sys.settrace(self._saved[0])
        threading.settrace(self._saved[1])


def missed(path: Path, lines: set):
    """The statements of path whose header saw no line event, and the raises among them."""
    stmts = statements(path.read_text(encoding="utf-8"))
    never = sorted(first for first, (last, _) in stmts.items()
                   if not any(n in lines for n in range(first, last + 1)))
    raises = [n for n in never if stmts[n][1]]
    return len(stmts), sum(r for _, r in stmts.values()), never, raises


def report(root: Path, tracer: LineTracer) -> list:
    out, totals = [], [0, 0, 0, 0]
    for path in sorted(root.glob("*.py")):
        n, r, never, raises = missed(path, tracer.lines.get(str(path), set()))
        for k, v in enumerate((n, len(never), r, len(raises))):
            totals[k] += v
        out.append(f"{path.name}: {len(never)} of {n} statements not run: "
                   f"{', '.join(map(str, never)) or '-'}")
        out.append(f"  {len(raises)} of {r} raise statements not run: "
                   f"{', '.join(map(str, raises)) or '-'}")
    out.append(f"total: {totals[1]} of {totals[0]} statements and "
               f"{totals[3]} of {totals[2]} raise statements not run")
    return out


def main(argv) -> int:
    import pytest

    with LineTracer(PACKAGE) as tracer:
        code = pytest.main(list(argv))
    print("\n".join(report(PACKAGE, tracer)))
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
