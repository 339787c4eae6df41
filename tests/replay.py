"""The pinned CLI transcripts of tests/golden/, and the one function that
replays a pinned call and compares its transcript.

Each corpus file pins one ringsim call as a JSON object:

- ``argv``: the arguments after ``ringsim``. ``{config}`` stands for the
  path the config is written to, ``{dir}`` for the directory of the call;
  both are filled in stderr too.
- ``config``: the JSON value written to ``{config}``, or ``config_bytes``:
  the file's raw bytes, one character per byte (latin-1), for configs that
  are not UTF-8 JSON text. Neither for a call that reads no config.
- ``output_file`` (optional, true): the call is made a second time with
  ``--output PATH``; the file must hold the pinned stdout, and stdout stay
  empty.
- ``exit``, ``stdout`` and ``stderr``: the pinned transcript. stdout and
  stderr are lists of lines, each with its line end; a large sweep's stdout
  is pinned as ``{"sha256": hex digest of its bytes}``.

A pin changes only by a hand edit of its file, listed in CHANGES.md.

    python tests/replay.py

replays every pinned call through the installed ``ringsim`` console script,
with Python warnings turned into errors, and exits 1 with the transcript
diff of each call that differs.
"""

import contextlib
import difflib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path
from unittest import mock

from ringsim.cli import main

GOLDEN = Path(__file__).with_name("golden")

# A config nested 100000 deep overflows the JSON decoder's recursion limit.
# These calls are built here, not committed as 200 KB files.
_DEEP_CONFIG = "[" * 100000 + "]" * 100000
_DEEP_ERROR = ("config error: config {config} is not valid JSON: maximum recursion depth "
               "exceeded while decoding a JSON array from a unicode string\n")


def cases():
    """Every pinned call by name: the corpus files and the deep-config calls."""
    pinned = {path.stem: json.loads(path.read_text(encoding="utf-8"))
              for path in sorted(GOLDEN.glob("*.json"))}
    for argv in (["smatrix"], ["verify"], ["manifold", "surface"], ["cnot"]):
        pinned["deep_config_" + argv[-1]] = {
            "argv": [*argv, "--config", "{config}"], "config_bytes": _DEEP_CONFIG,
            "exit": 2, "stdout": [], "stderr": [_DEEP_ERROR]}
    return pinned


# argparse wraps its usage lines at the terminal width; the pins hold them
# at 80 columns.
_COLUMNS = {"COLUMNS": "80"}


def in_process(argv):
    """Exit code, stdout and stderr of ``ringsim.cli.main(argv)`` run in this
    process with warnings turned into errors; an argparse error's exit is
    its code."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err), mock.patch.dict(os.environ, _COLUMNS):
        warnings.simplefilter("error")
        try:
            code = main(argv)
        except SystemExit as exit_:
            code = exit_.code
    return code, out.getvalue(), err.getvalue()


def in_child(*command):
    """A runner of ``command + argv`` in a child process with
    PYTHONWARNINGS=error and COLUMNS=80, giving exit code, stdout and stderr."""
    env = dict(os.environ, PYTHONWARNINGS="error", **_COLUMNS)

    def run(argv):
        proc = subprocess.run([*command, *argv], capture_output=True, env=env)
        return proc.returncode, proc.stdout.decode(), proc.stderr.decode()

    return run


def _as_pinned(text, pinned):
    if isinstance(pinned, dict):
        return {"sha256": hashlib.sha256(text.encode()).hexdigest()}
    return text.splitlines(keepends=True)


def replay(case, run, workdir):
    """Make the pinned call ``case`` through ``run`` in ``workdir``; raise
    AssertionError with the transcript diff where it differs from the pin."""
    workdir = Path(workdir)
    config = workdir / "config.json"
    if "config" in case:
        config.write_text(json.dumps(case["config"]), encoding="utf-8")
    elif "config_bytes" in case:
        config.write_bytes(case["config_bytes"].encode("latin-1"))

    def fill(text):
        return text.replace("{config}", str(config)).replace("{dir}", str(workdir))

    argv = [fill(arg) for arg in case["argv"]]
    pinned = {"exit": case["exit"], "stdout": case["stdout"],
              "stderr": [fill(line) for line in case["stderr"]]}
    code, out, err = run(argv)
    transcripts = [(argv, pinned, {"exit": code, "stdout": _as_pinned(out, case["stdout"]),
                                   "stderr": err.splitlines(keepends=True)})]
    if case.get("output_file"):
        target = workdir / "output"
        argv = argv + ["--output", str(target)]
        code, out, err = run(argv)
        written = target.read_bytes().decode() if target.exists() else ""
        transcripts.append((argv, dict(pinned, stdout=[], output=case["stdout"]),
                            {"exit": code, "stdout": out.splitlines(keepends=True),
                             "stderr": err.splitlines(keepends=True),
                             "output": _as_pinned(written, case["stdout"])}))
    for argv, expected, actual in transcripts:
        if actual != expected:
            diff = difflib.unified_diff(json.dumps(expected, indent=1).splitlines(),
                                        json.dumps(actual, indent=1).splitlines(),
                                        "pinned", "replayed", lineterm="")
            raise AssertionError(" ".join(argv) + "\n" + "\n".join(diff))

if __name__ == "__main__":
    pinned, failed = cases(), 0
    for name, case in pinned.items():
        with tempfile.TemporaryDirectory() as workdir:
            try:
                replay(case, in_child("ringsim"), workdir)
            except AssertionError as err:
                print(f"{name}: {err}", file=sys.stderr)
                failed += 1
    print(f"replayed {len(pinned)} pinned calls; {failed} differ")
    sys.exit(1 if failed else 0)
