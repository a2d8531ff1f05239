"""Statements of src/morseflow that a pytest run never executes.

    python tests/linecov.py [pytest args]

runs pytest in this process, with the given arguments (none: the whole
suite, as pyproject.toml configures it), under sys.settrace, recording
the line events of the frames whose code lies under src/morseflow.  It
then prints each statement (an ast.stmt) of the package's modules whose
first line never ran, as file:line source, and a total line, and exits
with pytest's exit code.  Code that a test runs in another process,
such as a command started by subprocess, is not traced.

A docstring or a global statement emits no line event, and the body
of an ``if __name__ == "__main__":`` guard does not run when the module
is imported, so none of them is listed.  Standard library only.

The trace slows a run several times over, so the suite does not run
this tool; tests/test_linecov.py checks it on a planted module.
"""

import ast
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
PACKAGE = os.path.join(os.path.dirname(HERE), "src", "morseflow")
DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def statements(source):
    """The first line of each statement of the module source, but
    docstrings, global statements and __main__ guards with their
    bodies."""
    lines = set()

    def visit(node):
        doc = (node.body[0] if isinstance(node, DOCUMENTED)
               and ast.get_docstring(node, clean=False) is not None else None)
        for child in ast.iter_child_nodes(node):
            if child is doc or isinstance(child, ast.Global) or (
                    isinstance(child, ast.If)
                    and ast.unparse(child.test) == "__name__ == '__main__'"):
                continue
            if isinstance(child, ast.stmt):
                lines.add(child.lineno)
            visit(child)
    visit(ast.parse(source))
    return lines


def traced(root, args):
    """(pytest's exit code, the set of (path, line) that ran) of pytest
    run in this process with args, tracing the frames whose code lies
    under the directory root."""
    import pytest
    root = os.path.join(os.path.abspath(root), "")
    ran = set()

    def line(frame, event, arg):
        if event == "line":
            ran.add((frame.f_code.co_filename, frame.f_lineno))
        return line

    def call(frame, event, arg):
        return line if frame.f_code.co_filename.startswith(root) else None

    sys.settrace(call)
    try:
        code = pytest.main(list(args))
    finally:
        sys.settrace(None)
    return int(code), ran


def missed(root, ran):
    """(path, line, source) of each statement of the modules under root
    whose first line is not in ran, in path and line order."""
    out = []
    for folder, dirs, files in os.walk(os.path.abspath(root)):
        dirs.sort()
        for name in sorted(files):
            if not name.endswith(".py"):
                continue
            path = os.path.join(folder, name)
            with open(path, encoding="utf-8") as fh:
                source = fh.read()
            text = source.splitlines()
            out += [(path, n, text[n - 1].strip()) for n in
                    sorted(statements(source)) if (path, n) not in ran]
    return out


def report(root, args):
    """Run pytest with args under the trace of root, print each statement
    that never ran and a total, and return pytest's exit code."""
    code, ran = traced(root, args)
    lost = missed(root, ran)
    base = os.path.dirname(os.path.dirname(os.path.abspath(root)))
    for path, n, source in lost:
        print("%s:%d %s" % (os.path.relpath(path, base), n, source))
    print("linecov: %d statements never ran" % len(lost))
    return code


if __name__ == "__main__":
    sys.exit(report(PACKAGE, sys.argv[1:]))
