"""Statement-level reach audit of src/elabcat: which statements run.

    python tests/reach.py            # the 94 CLI runs, in process
    python tests/reach.py --tests    # those, then the tier-1 suite

Every line event in a file of src/elabcat is recorded under sys.settrace,
from the package's import on, over 94 CLI runs that must all exit 0:
analyze on the 11 golden groups at p=2 and 3, with the default kinds and
with all eight, 44 runs; pregular on the 11 groups at p=2 with each
built-in character, 33 runs; the 8 golden closure categories; gallery;
dickson and symreduce at four (prime, rank) pairs each.

With --tests the tier-1 suite then runs in a subprocess whose PYTHONPATH
starts with a temporary directory holding a sitecustomize that traces the
same way, so the CLI subprocesses the tests start are traced too.  Each
traced process writes its lines there when it exits.

A statement (ast.stmt) is reached when a line event fires on one of its
own lines, those outside the statements inside it, on which some code
object compiled from the file starts an instruction (dis.findlinestarts).
Every statement that no run reached is printed as FILE:LINE FUNCTION:
SOURCE, its first line, then their count.
pytest does not collect this file (its name does not start with test_).
"""

from __future__ import annotations

import ast
import contextlib
import dis
import io
import json
import os
import subprocess
import sys
import tempfile
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = str(SRC / "elabcat")
GOLDEN = ROOT / "tests" / "golden"

# the tracer, also the body of the subprocesses' sitecustomize: it follows
# only frames of the package's files, and keeps each (file, line) once
TRACER = '''
import sys, threading
REACHED = set()

def _line(frame, event, arg):
    if event == "line":
        REACHED.add((frame.f_code.co_filename, frame.f_lineno))
    return _line

def _call(frame, event, arg):
    return _line if frame.f_code.co_filename.startswith(PACKAGE) else None

threading.settrace(_call)
sys.settrace(_call)
'''

DUMP = '''
import atexit, json, os

@atexit.register
def _dump():
    sys.settrace(None)
    with open(os.path.join(OUT, f"reached-{os.getpid()}.json"), "w") as fh:
        json.dump(sorted(REACHED), fh)
'''

GROUPS = ("a4xa4", "affine-8", "alt4", "gl3-2", "sym5", "sym6", "sym7", "triangular-2-3",
          "z2-5", "z3-3", "z3-4")
ALL_KINDS = {2: "A,Aprime,Creg,An(0),An(1),An(2),An(3),AprimeD(1)",
             3: "A,Aprime,Creg,An(0),An(1),An(2),AprimeD(1),AprimeD(2)"}


def runs() -> list[list[str]]:
    """The 94 command lines, each an argument list of cli.main."""
    out = []
    for g in GROUPS:
        path = str(GOLDEN / f"{g}.group.json")
        for p in (2, 3):
            out.append(["analyze", path, "--prime", str(p)])
            out.append(["analyze", path, "--prime", str(p), "--kinds", ALL_KINDS[p]])
    for g in GROUPS:
        for chi in ("regular", "permutation", "trivial"):
            out.append(["pregular", str(GOLDEN / f"{g}.group.json"), "--prime", "2",
                        "--character", chi])
    for category in sorted(GOLDEN.glob("*.category.json")):
        group, prime = category.name.split("-p")
        out.append(["closure", str(GOLDEN / f"{group}.group.json"), "--prime",
                    prime.split("-")[0], "--category", str(category)])
    out.append(["gallery"])
    for p, r in ((2, 4), (2, 5), (3, 3), (5, 2)):
        out.append(["dickson", "--prime", str(p), "--rank", str(r)])
    for p, r in ((2, 4), (3, 3), (5, 2), (2, 3)):
        out.append(["symreduce", "--prime", str(p), "--rank", str(r)])
    return out


def run_all() -> list[tuple[list[str], int, str, str]]:
    """(argv, exit code, stdout, stderr) of each run, in process."""
    from elabcat import cli
    results = []
    for argv in runs():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        results.append((argv, code, out.getvalue(), err.getvalue()))
    return results


def statements() -> dict[tuple[str, int], tuple[frozenset, str]]:
    """Each statement of the package, (file, first line), to its own lines
    that start an instruction (not those of the statements inside it) and
    the qualified name of the innermost code object starting one there.
    A statement that starts none, a docstring, is left out."""
    out = {}
    for path in sorted(Path(PACKAGE).glob("*.py")):
        source = path.read_text()
        starts, stack = {}, [compile(source, str(path), "exec")]
        while stack:
            code = stack.pop()
            # a code object's lines lie inside its parent's, so the deepest
            # one (popped last) names the line; line 0 is a module's RESUME
            starts.update((line, code.co_qualname) for _, line in dis.findlinestarts(code)
                          if line)
            stack.extend(c for c in code.co_consts if hasattr(c, "co_code"))
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.stmt):
                own = set(range(node.lineno, node.end_lineno + 1))
                for inner in ast.walk(node):
                    if inner is not node and isinstance(inner, ast.stmt):
                        own -= set(range(inner.lineno, inner.end_lineno + 1))
                own &= starts.keys()
                if own:
                    out[str(path), node.lineno] = frozenset(own), starts[min(own)]
    return out


def traced_tests(reached: set) -> str:
    """Run tier-1 traced, subprocesses included; add what they reached
    and return pytest's last line of output."""
    with tempfile.TemporaryDirectory() as tmp:
        prelude = f"PACKAGE = {PACKAGE!r}\nOUT = {tmp!r}\n"
        Path(tmp, "sitecustomize.py").write_text(prelude + TRACER + DUMP)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [tmp, str(SRC),
                                                          env.get("PYTHONPATH")]))
        done = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                               "--continue-on-collection-errors"], cwd=ROOT, env=env,
                              capture_output=True, text=True)
        for dump in Path(tmp).glob("reached-*.json"):
            reached.update(map(tuple, json.loads(dump.read_text())))
    lines = done.stdout.strip().splitlines()
    return lines[-1] if lines else f"pytest exited {done.returncode} with no output"


def main(argv: list[str]) -> int:
    if argv not in ([], ["--tests"]):
        print(__doc__.split("\n\n")[0], file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    scope = {"PACKAGE": PACKAGE}
    exec(TRACER, scope)
    try:
        results = run_all()
    finally:
        sys.settrace(None)
        threading.settrace(None)
    reached = set(scope["REACHED"])
    failed = [" ".join(run) for run, code, _, _ in results if code != 0]
    print(f"{len(results)} CLI runs, {len(failed)} not exiting 0"
          + "".join(f"\n  {f}" for f in failed))
    if argv:
        print("tier-1:", traced_tests(reached))
    stmts = statements()
    missed = sorted((k for k, (own, _) in stmts.items()
                     if not any((k[0], line) in reached for line in own)),
                    key=lambda k: (Path(k[0]).name, k[1]))
    for path, line in missed:
        text = Path(path).read_text().splitlines()[line - 1].strip()
        print(f"{Path(path).name}:{line} {stmts[path, line][1]}: {text}")
    print(f"{len(missed)} statements not reached")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
