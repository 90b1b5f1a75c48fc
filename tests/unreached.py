"""Print each statement of ``src/srckit`` that no tier-1 test reaches.

    python tests/unreached.py [extra pytest arguments]

Runs the tier-1 suite in this process with a ``sys.settrace`` line tracer
on srckit's frames (``threading.settrace`` too, for any thread a test
starts), then lists each statement none of its lines ran, with the def or
class that holds it. Only the stdlib and pytest, which runs the suite;
pytest does not collect this file, as its name does not start with test_.

It reports statements, not test results: a test that fails under the
tracer (a tracemalloc-based memory test such as
``test_fista_working_memory_does_not_grow_with_max_iters`` may count the
tracer's allocations) still counts the statements it reached. Code that
runs only in a subprocess (perfbench's children, the ``python -m`` runs)
is not seen, and neither is the body of ``if __name__ == "__main__":``,
which runs only as a script. Statements reached only by some hypothesis
draws may come and go between runs.

It exits 1 when it lists a statement that ``ALLOWED`` does not name, and 0
otherwise, so it can run as a check. ``ALLOWED`` names each statement by its
file, scope and source line, with the reason no tier-1 test can reach it.

A statement is the lines a line event marks when it runs: a simple
statement's lines, or a compound statement's header (``if``, ``for``,
``while``, ``with``, ``def`` or ``class`` with its decorators). A docstring,
``global``, ``nonlocal`` and the ``try:`` line run no code and are not
listed; the statements inside a ``try`` are.
"""
import ast
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "srckit"
_NO_CODE = (ast.Global, ast.Nonlocal, ast.Try)
_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
# (file, scope, source line) -> why no tier-1 test reaches it
ALLOWED = {
    ("src/srckit/cli.py", "cli._environment", "blas = None"):
        "numpy < 1.25 has no show_config(mode='dicts'); pyproject supports numpy 1.24",
}


def _is_main_guard(node) -> bool:
    return isinstance(node, ast.If) and ast.unparse(node.test) == "__name__ == '__main__'"


def statements(path: Path):
    """(first line, last line, scope) of each statement of the module at
    ``path`` that runs code: the lines a line event marks when it runs, and
    the dotted name of the module, def or class that holds it."""
    found = []

    def visit(body, scope, docstring):
        for i, node in enumerate(body):
            if (i == 0 and docstring and isinstance(node, ast.Expr)
                    and isinstance(node.value, ast.Constant)
                    and isinstance(node.value.value, str)):
                continue
            inner = f"{scope}.{node.name}" if isinstance(node, _SCOPES) else scope
            if not isinstance(node, _NO_CODE):
                body_start = getattr(node, "body", None)
                first = min([node.lineno] + [d.lineno for d in
                                             getattr(node, "decorator_list", [])])
                last = (max(node.lineno, body_start[0].lineno - 1) if body_start
                        else node.end_lineno)
                found.append((first, last, scope))
            if _is_main_guard(node):
                continue
            for name in ("body", "orelse", "finalbody"):
                visit(getattr(node, name, []), inner, isinstance(node, _SCOPES))
            for handler in getattr(node, "handlers", []):
                visit(handler.body, inner, False)

    visit(ast.parse(path.read_text(encoding="utf-8")).body, path.stem, True)
    return found


def run_traced(args) -> dict:
    """The lines run in each srckit file while pytest runs ``args``."""
    import pytest

    hits, wanted = {}, {}

    def local(frame, event, arg):
        if event == "line":
            hits[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in wanted:
            wanted[name] = Path(name).resolve().parent == PACKAGE
            if wanted[name]:
                hits[name] = set()
        return local if wanted[name] else None

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        pytest.main([str(ROOT / "tests"), "-q", "-p", "no:cacheprovider", *args])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    lines = {}
    for name, seen in hits.items():
        lines.setdefault(Path(name).resolve(), set()).update(seen)
    return lines


def main(args) -> int:
    lines = run_traced(args)
    total = missed = unexpected = 0
    for path in sorted(PACKAGE.glob("*.py")):
        seen = lines.get(path, set())
        source = path.read_text(encoding="utf-8").splitlines()
        name = path.relative_to(ROOT).as_posix()
        for first, last, scope in statements(path):
            total += 1
            if not seen.intersection(range(first, last + 1)):
                missed += 1
                text = source[first - 1].strip()
                why = ALLOWED.get((name, scope, text))
                unexpected += why is None
                print(f"{name}:{first} {scope}: {text}" + (f"  (allowed: {why})" if why else ""))
    print(f"{missed} of {total} statements in {PACKAGE.relative_to(ROOT)} reached by no test, "
          f"{unexpected} of them not allowed")
    return 1 if unexpected else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
