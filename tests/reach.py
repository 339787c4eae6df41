"""Reach check of the package source, src/ringsim.

Two questions, each answered by a trace of the package's own frames:

- Does tier-1 reach every ``raise`` statement? The whole suite runs in
  this process under a line trace (``sys.settrace``), with the derandomized
  ``ci`` hypothesis profile.
- Does something a user runs enter every function? A call trace covers
  importing the package, replaying every pinned CLI call of tests/golden/
  (``replay.cases``), the nine acceptance criteria of
  tests/test_acceptance.py, and the calls of each benchmark workload at
  seed 1, read from perfbench/workloads.py. A function that none of these
  enters must be listed in ``UNENTERED`` with the reason it stays.

The statements and functions are read from the source with ``ast``. Run
from the repository root, after tier-1:

    PYTHONPATH=src python tests/reach.py

It prints one summary line per question and exits 1, naming each
statement or function, if a raise is not reached, a function is not
entered and not listed, or a listed function is entered or gone. The line
trace makes it slow (about 40 s), so pytest does not collect it.
"""

import ast
import contextlib
import io
import os
import sys
import tempfile
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "ringsim"

# Functions that no user-facing call enters, by qualified name in its
# module, with the reason each one stays.
UNENTERED = {}


def _source():
    """The raise statements and functions of every module of the package:
    {(file, line): "module:line"} and {(file, first line): "module:qualname"},
    where a function's first line is its first decorator's, as in its code
    object."""
    raises, functions = {}, {}
    for path in sorted(SRC.glob("*.py")):
        module = path.stem

        def visit(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    functions[(str(path), first)] = f"{module}:{prefix}{child.name}"
                    visit(child, f"{prefix}{child.name}.")
                elif isinstance(child, ast.ClassDef):
                    visit(child, f"{prefix}{child.name}.")
                else:
                    if isinstance(child, ast.Raise):
                        raises[(str(path), child.lineno)] = f"{module}:{child.lineno}"
                    visit(child, prefix)

        visit(ast.parse(path.read_text(encoding="utf-8")), "")
    return raises, functions


_FILES = {str(path) for path in SRC.glob("*.py")}


@contextlib.contextmanager
def _traced(tracer):
    """tracer as the trace function of this thread and of new threads."""
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        yield
    finally:
        sys.settrace(None)
        threading.settrace(None)


def _entries_of_user_calls() -> set:
    """(file, first line) of every package function that import, the corpus
    replay, the acceptance gate or a benchmark workload enters."""
    entered = set()

    def on_call(frame, event, arg):
        code = frame.f_code
        if code.co_filename in _FILES:
            entered.add((code.co_filename, code.co_firstlineno))

    with _traced(on_call):
        import ringsim.cli  # traced, as every later call is
        if str(Path(ringsim.cli.__file__).resolve().parent) != str(SRC):
            raise SystemExit(f"ringsim is imported from {ringsim.cli.__file__}, not {SRC}")
        import replay
        with tempfile.TemporaryDirectory() as workdir:
            for case in replay.cases().values():
                replay.replay(case, replay.in_process, workdir)
        import test_acceptance
        with contextlib.redirect_stdout(io.StringIO()):
            for name, criterion in vars(test_acceptance).items():
                if name.startswith("test_acceptance_"):
                    criterion()
        sys.path.insert(0, str(ROOT / "perfbench"))
        import workloads
        for name in workloads.WORKLOADS:
            with tempfile.TemporaryDirectory() as workdir:
                plan = workloads.materialize(workloads.make_plan(name, 1), Path(workdir))
                for argv in plan.calls:
                    with contextlib.redirect_stdout(io.StringIO()), \
                            contextlib.redirect_stderr(io.StringIO()):
                        if ringsim.cli.main(argv) != 0:
                            raise SystemExit(f"benchmark call {argv} failed")
    return entered


def _lines_of_tier1() -> set:
    """(file, line) of every package line that tier-1 executes."""
    executed = set()

    def on_line(frame, event, arg):
        if event == "line":
            executed.add((frame.f_code.co_filename, frame.f_lineno))
        return on_line

    def on_call(frame, event, arg):
        return on_line if frame.f_code.co_filename in _FILES else None

    import pytest
    os.environ["HYPOTHESIS_PROFILE"] = "ci"
    with _traced(on_call):
        code = pytest.main(["-q", "-p", "no:cacheprovider", "--continue-on-collection-errors",
                            str(ROOT / "tests")])
    if code != 0:
        raise SystemExit(f"tier-1 failed under the line trace (pytest exit {code})")
    return executed


def main() -> int:
    os.chdir(ROOT)
    raises, functions = _source()
    entered = _entries_of_user_calls()
    executed = _lines_of_tier1()
    missed = [raises[key] for key in sorted(raises) if key not in executed]
    unentered = {functions[key] for key in functions if key not in entered}
    problems = [f"raise not reached by tier-1: {where}" for where in missed]
    problems += [f"function entered by no user call and not listed: {name}"
                 for name in sorted(unentered - set(UNENTERED))]
    problems += [f"listed function {name} is entered or gone"
                 for name in sorted(set(UNENTERED) - unentered)]
    print(f"raises: {len(raises) - len(missed)} of {len(raises)} reached by tier-1")
    print(f"functions: {len(functions) - len(unentered)} of {len(functions)} entered by "
          f"import, the corpus, the acceptance gate or a benchmark workload; "
          f"{len(UNENTERED)} listed")
    for line in problems:
        print(line, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
